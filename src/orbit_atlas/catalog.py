"""Orbit catalogs: representatives, defining equations, dimensions, witnesses.

One JSON file per rank ships with the package (``data/a<n>.json``); the
``ORBIT_ATLAS_DATA`` environment variable points loads at an alternative
directory.  Every record carries two layers: the normalized, machine-checked
data, and an ``as_printed`` provenance layer transcribing the upstream source
tables verbatim, with every normalization recorded in ``notes``.

A record's set polynomials are integer polynomials (``LaurentPoly`` is over
Z, and building an ``OrbitRecord`` checks that no exponent is negative),
and every membership decision goes through one method,
``OrbitRecord.contains``: one evaluation over Z, reduced mod p over F_p.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from typing import Iterable

from .arith import LaurentPoly, parse_expr, parse_poly, poly_to_str
from .errors import CatalogError, DomainError, SchemaError
from .lie import (MAX_RANK, NilElement, check_rank, coordinate_letters,
                  nil_dim, parse_root_token, pos_roots, root_token)

SCHEMA_VERSION = 1

ORBIT_COUNTS = {1: 2, 2: 5, 3: 16, 4: 61}
#: pool classes a slice signature holds: the bits of a nonnegative int32
#: (every shipped pool has at most 21 classes)
SIGNATURE_BITS = 31


_X_VARS = {n: tuple(f"X{i}{j}" for (i, j) in pos_roots(n))
           for n in range(1, MAX_RANK + 1)}
_ROOT_OF_VAR = {n: dict(zip(_X_VARS[n], pos_roots(n)))
                for n in range(1, MAX_RANK + 1)}


def x_vars(n: int) -> list[str]:
    """Coordinate-function names in canonical root order: X11, X22, ...
    A fresh list."""
    check_rank(n)
    return list(_X_VARS[n])


def letter_of_var(n: int) -> dict[str, str]:
    return dict(zip(x_vars(n), coordinate_letters(n)))


def root_weight_homogeneous(poly: LaurentPoly, n: int) -> bool:
    """True when every term of poly has one torus weight, X_ij weighing
    alpha_i + ... + alpha_j.  Such a polynomial is a torus weight vector, so
    whether it vanishes at x does not change under x_ij -> (s_i...s_j) x_ij
    for any nonzero scalars s_1, ..., s_n."""
    check_rank(n)
    roots = _ROOT_OF_VAR[n]
    weights = set()
    for exps in poly.terms:
        weight = [0] * n
        for var, e in zip(poly.vars, exps):
            if e == 0:
                continue
            i, j = roots[var]
            for k in range(i - 1, j):
                weight[k] += e
        weights.add(tuple(weight))
    return len(weights) <= 1


@dataclass(frozen=True)
class WitnessConstraint:
    """Equality constraint on the coordinates of a general member, written in
    coordinate letters, together with the designated solve letter."""

    poly: str
    solve: str


@dataclass(frozen=True)
class WitnessRadical:
    """Adjoined root: name^order = radicand (radicand in coordinate letters)."""

    name: str
    order: int
    radicand: str


@dataclass(frozen=True)
class WitnessTemplate:
    constraints: tuple[WitnessConstraint, ...]
    radicals: tuple[WitnessRadical, ...]
    torus: tuple[str, ...]
    factors: tuple[tuple[tuple[int, int], str], ...]


@dataclass(frozen=True)
class OrbitRecord:
    """One orbit: its representative, its defining sets (Z(zero_set)
    intersected with V(nonzero_set)), its dimension and witness template.

    Every set polynomial is in Z[X]: its coefficients are integers by type
    (``LaurentPoly`` is over Z), and building a record checks that no
    exponent is negative, so a loaded record and a ``replace`` copy alike
    raise ``CatalogError`` naming the polynomial.
    Reduction Z -> F_p is then a ring map, so ``contains`` decides
    membership over every field from one evaluation over Z, and the
    finite-field kernels evaluate at points where a coordinate is 0."""

    id: str
    rank: int
    representative: NilElement
    zero_set: tuple[LaurentPoly, ...]
    nonzero_set: tuple[LaurentPoly, ...]
    zero_strs: tuple[str, ...]
    nonzero_strs: tuple[str, ...]
    dim: int
    witness: WitnessTemplate
    as_printed: dict = field(default_factory=dict)
    notes: tuple[dict, ...] = ()

    def __post_init__(self):
        for poly in self.zero_set + self.nonzero_set:
            if any(min(exps, default=0) < 0 for exps in poly.terms):
                raise CatalogError(f"set polynomial {poly_to_str(poly)!r}"
                                   f" has a negative exponent")

    def contains(self, env: dict, p: int | None = None) -> bool:
        """Whether the point with coordinates ``env`` (variable -> value)
        lies in Z(zero_set) intersected with V(nonzero_set): over Q, or
        over F_p when p is given, every coordinate then an int.  Each
        polynomial is evaluated by ``eval`` (over Z or Q) and its value
        compared with 0, over F_p reduced mod p first: an int at int
        coordinates, and that reduction is its value over F_p because every
        set polynomial is in Z[X]."""
        for polys, vanish in ((self.zero_set, True),
                              (self.nonzero_set, False)):
            for poly in polys:
                value = poly.eval(env)
                if ((value if p is None else value % p) == 0) != vanish:
                    return False
        return True

    def witness_repairs(self) -> list[str]:
        return [n["note"] for n in self.notes if n.get("field") == "witness"]

    def linear_zero_vars(self) -> list[str]:
        return linear_vars(self.zero_set)


def linear_vars(polys) -> list[str]:
    """The coordinate of each polynomial that is a nonzero multiple of one
    coordinate, in order."""
    return [next(iter(p.used_vars())) for p in polys
            if p.is_monomial() and len(p.used_vars()) == 1
            and p.total_degrees() == {1}]


@dataclass(frozen=True)
class Catalog:
    """One rank's records and their polynomial pool: one (polynomial,
    string) per +-class of the zero- and nonzero-set polynomials, first seen
    over the records (zero set first), and ``slot``, sending either sign to
    its class index.  p and -p vanish together, so the kernels evaluate one
    polynomial per class, and a set of polynomials is an int mask with bit
    k for pool class k: ``masks`` sends each record id to the masks of its
    zero set and its nonzero set.  ``memo`` holds the tables derived from
    the records (``derived``).  All four are built per instance, so a
    ``replace`` copy starts with its own pool and masks and no tables.

    Building the pool checks the invariants every kernel rests on, so a
    loaded catalog and a ``replace`` copy alike raise ``CatalogError``
    unless every class is root-weight homogeneous (a torus weight vector:
    the census, the refinement and the closure order slice by the torus,
    and the generic pullbacks drop it) and the pool fits the
    ``SIGNATURE_BITS`` of an int32 slice signature."""

    rank: int
    schema_version: int
    orbits: tuple[OrbitRecord, ...]
    pool: tuple = field(init=False, repr=False, compare=False)
    slot: dict = field(init=False, repr=False, compare=False)
    masks: dict = field(init=False, repr=False, compare=False)
    memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pool, slot, masks = [], {}, {}
        for rec in self.orbits:
            for poly, s in zip(rec.zero_set + rec.nonzero_set,
                               rec.zero_strs + rec.nonzero_strs):
                if poly not in slot:
                    if not root_weight_homogeneous(poly, self.rank):
                        raise CatalogError(
                            f"rank {self.rank}: record {rec.id} polynomial "
                            f"{poly_to_str(poly)} is not root-weight "
                            f"homogeneous")
                    slot[poly] = slot[-poly] = len(pool)
                    pool.append((poly, s))
            masks[rec.id] = tuple(sum({1 << slot[p] for p in polys})
                                  for polys in (rec.zero_set, rec.nonzero_set))
        if len(pool) > SIGNATURE_BITS:
            raise CatalogError(
                f"rank {self.rank}: {len(pool)} distinct catalog "
                f"polynomials, more than the {SIGNATURE_BITS} bits of a "
                f"slice signature")
        object.__setattr__(self, "pool", tuple(pool))
        object.__setattr__(self, "slot", slot)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "memo", {})

    def derived(self, key, build):
        """The table ``key`` derived from this catalog: ``build()`` at the
        first read, kept for every later one.  A build that raised is not
        kept, so the next reader builds again and fails alike.  The records
        are immutable, so a kept table never goes stale."""
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    def first_in(self, polys, mask: int) -> int:
        """Index of the first polynomial of ``polys`` whose pool class is
        in ``mask``; the mask must hold one of their classes."""
        return next(k for k, p in enumerate(polys) if mask >> self.slot[p] & 1)

    def by_id(self, orbit_id: str) -> OrbitRecord:
        for rec in self.orbits:
            if rec.id == orbit_id:
                return rec
        raise CatalogError(f"no orbit {orbit_id!r} in rank {self.rank}")


# ---------------------------------------------------------------------------
# load / serialize


def _data_path(n: int):
    override = os.environ.get("ORBIT_ATLAS_DATA")
    if override:
        return os.path.join(override, f"a{n}.json")
    return resources.files("orbit_atlas").joinpath("data").joinpath(f"a{n}.json")


def _read_text(path) -> str:
    if isinstance(path, str):
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    return path.read_text(encoding="utf-8")


def rep_from_tokens(n: int, tokens: Iterable[str]) -> NilElement:
    coords = {}
    for tok in tokens:
        root = parse_root_token(tok, n)
        if root in coords:
            raise CatalogError(f"repeated root {tok} in representative")
        coords[root] = 1
    return NilElement(n, coords)


def orbit_id_for(rep: NilElement) -> str:
    toks = [root_token(r) for r in pos_roots(rep.rank) if rep.coord(r) == 1]
    return "+".join(toks) if toks else "0"


#: a variable name: a name token, as ``arith._TOKEN`` reads one, not "sqrt"
_NAME = re.compile(r"(?!sqrt\Z)[A-Za-z_]\w*", re.ASCII)
_PAIR = (int, int)
#: The JSON shape of one catalog row, which ``_check`` walks: each key with
#: its kind, a key ending in "?" optional.  A leaf kind is ``str``, ``int``
#: (a JSON integer: a float, a string or a bool is not coerced) or
#: ``_PAIR``, a root's list of two integers; ``[kind]`` is a list of that
#: kind, a dict an object with those keys, and ``{str: kind}`` an object
#: mapping any key to that kind.  Keys the shape does not list are ignored.
#: A note declares "field" before "note", the order a refusal names them in.
_ROW = {
    "id": str, "rep": [str], "zero_set": [str], "nonzero_set": [str],
    "dim": int,
    "witness": {"constraints?": [{"poly": str, "solve": str}],
                "radicals?": [{"name": str, "order": int, "radicand": str}],
                "torus?": [str],
                "factors?": [{"root": _PAIR, "param": str}]},
    "as_printed?": {str: str},
    "notes?": [{"field?": str, "note": str}],
}
_NOUN = {dict: "an object", list: "a list", str: "a string",
         int: "an integer", _PAIR: "two integers"}


def _check(value, shape, path: str) -> None:
    """Refuse ``value`` unless it is JSON of ``shape`` (see ``_ROW``),
    naming the first part that is not by its path: ``path`` names value,
    "" for a row, and a key is added after a space, a list index in
    brackets.  An object is refused on its first missing key before any of
    its values is walked.  A part whose type is its leaf kind (``str`` or
    ``int``) is not walked, so no path is built for it."""
    kind = type(shape) if isinstance(shape, (dict, list)) else shape
    if not (type(value) is list and list(map(type, value)) == [int, int]
            if kind == _PAIR else type(value) is kind):
        got = repr(value) if kind in (int, _PAIR) else type(value).__name__
        raise CatalogError(f"{path}: expected {_NOUN[kind]}, got {got}")
    at = f"{path} " if path else ""
    if kind is list:
        for k, x in enumerate(value):
            if type(x) is not shape[0]:
                _check(x, shape[0], f"{path}[{k}]")
    elif kind is dict and str in shape:
        for key, x in value.items():
            if type(x) is not shape[str]:
                _check(x, shape[str], at + key)
    elif kind is dict:
        for key in shape:
            if key[-1] != "?" and key not in value:
                raise CatalogError(f"{path}: missing key {key!r}" if path
                                   else f"missing key {key!r}")
        for key, sub in shape.items():
            key = key.rstrip("?")
            if key in value and type(value[key]) is not sub:
                _check(value[key], sub, at + key)


def load_catalog(n: int) -> Catalog:
    """Load and structurally validate the rank-n catalog, from the directory
    ``ORBIT_ATLAS_DATA`` names when it is set."""
    try:
        raw = json.loads(_read_text(_data_path(n)))
    except (OSError, json.JSONDecodeError) as exc:
        raise CatalogError(f"cannot read catalog for rank {n}: {exc}") from exc
    _check(raw, {}, f"catalog for rank {n}")
    if raw.get("type") != f"A{n}":
        raise CatalogError(f"catalog file type {raw.get('type')!r} != A{n}")
    version = raw.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise CatalogError(f"schema_version {version!r} unsupported")
    orbits = raw.get("orbits", [])
    _check(orbits, [{}], f"rank {n} orbits")
    allowed = set(x_vars(n))
    # coordinate letter -> its X variable, the one of the same root
    letters = {letter: LaurentPoly.var(var)
               for var, letter in letter_of_var(n).items()}
    polys: dict = {}            # set string -> its one parse, shared by rows
    records = []
    seen = set()
    for k, row in enumerate(orbits):
        where = (f"rank {n} row {row['id']!r}" if "id" in row
                 else f"rank {n} orbits[{k}]")
        try:
            rec = _record_from_json(n, row, allowed, letters, polys)
        except Exception as exc:
            raise CatalogError(f"{where}: {exc}") from exc
        if rec.id in seen:
            raise CatalogError(f"rank {n}: duplicate id {rec.id!r}")
        seen.add(rec.id)
        records.append(rec)
    if len(records) != ORBIT_COUNTS[n]:
        raise CatalogError(
            f"rank {n}: {len(records)} records, expected {ORBIT_COUNTS[n]}")
    empty_zero = [r.id for r in records if not r.zero_set]
    empty_nonzero = [r.id for r in records if not r.nonzero_set]
    if len(empty_zero) != 1 or len(empty_nonzero) != 1:
        raise CatalogError(
            f"rank {n}: regular/zero orbit uniqueness violated "
            f"(empty zero_set: {empty_zero}, empty nonzero_set: {empty_nonzero})")
    return Catalog(n, version, tuple(records))


def _record_from_json(n, row, allowed, letters, polys: dict) -> OrbitRecord:
    """One record; ``polys`` maps each set string already parsed in this
    load to its polynomial, and gains the strings parsed here; ``letters``
    maps each coordinate letter to its X variable.  The row is refused
    unless it has the JSON shape of ``_ROW``, which leaves the checks of
    meaning.  A witness constraint, its letters read as their X variables,
    must be +- one of the record's zero-set polynomials, so the general
    member it cuts out is the set's; a radical's name must be a name the
    expression grammar reads as a variable (one ASCII name token, not
    "sqrt"), neither a coordinate letter nor an X variable, and must not
    repeat, and its radicand may name only letters and earlier radicals.
    Building the record checks that every set polynomial is in Z[X]."""
    _check(row, _ROW, "")
    rep = rep_from_tokens(n, row["rep"])
    rid = row["id"]
    if orbit_id_for(rep) != rid:
        raise CatalogError(f"id {rid!r} does not match representative")
    zero_strs = tuple(row["zero_set"])
    nonzero_strs = tuple(row["nonzero_set"])
    for s in zero_strs + nonzero_strs:
        if s not in polys:
            polys[s] = parse_poly(s, allowed)
    zero = tuple(polys[s] for s in zero_strs)
    nonzero = tuple(polys[s] for s in nonzero_strs)
    w = row["witness"]
    constraints = tuple(WitnessConstraint(c["poly"], c["solve"])
                        for c in w.get("constraints", []))
    for k, c in enumerate(constraints):
        as_x = parse_poly(c.poly, letters).eval(letters)
        if as_x not in zero and -as_x not in zero:
            raise CatalogError(f"witness constraints[{k}] {c.poly!r} is not "
                               f"a zero-set polynomial up to sign")
        if c.solve not in letters:
            raise CatalogError(f"solve letter {c.solve!r} unknown")
    radicals = tuple(WitnessRadical(r["name"], r["order"], r["radicand"])
                     for r in w.get("radicals", []))
    names = [r.name for r in radicals]
    for k, r in enumerate(radicals):
        clash = ("not a variable name" if not _NAME.fullmatch(r.name)
                 else "a coordinate letter" if r.name in letters
                 else "an X variable" if r.name in allowed
                 else "repeated" if r.name in names[:k] else "")
        if clash:
            raise CatalogError(f"witness radicals[{k}] name {r.name!r} is "
                               f"{clash}")
        parse_poly(r.radicand, {*letters, *names[:k]})
    torus = tuple(w.get("torus", []))
    if torus and len(torus) != n:
        raise CatalogError(f"torus needs {n} entries, got {len(torus)}")
    factors = tuple((tuple(f["root"]), f["param"])
                    for f in w.get("factors", []))
    for (i, j), _ in factors:
        if not 1 <= i <= j <= n:
            raise CatalogError(f"factor root ({i},{j}) outside rank {n}")
    rec = OrbitRecord(
        id=rid, rank=n, representative=rep,
        zero_set=zero, nonzero_set=nonzero,
        zero_strs=zero_strs, nonzero_strs=nonzero_strs,
        dim=row["dim"],
        witness=WitnessTemplate(constraints, radicals, torus, factors),
        as_printed=dict(row.get("as_printed", {})),
        notes=tuple(row.get("notes", [])))
    if rec.dim != nil_dim(n) - len(zero):
        raise CatalogError(f"dim {rec.dim} != {nil_dim(n)} - {len(zero)} "
                           f"zero-set generators")
    return rec


def record_to_json(rec: OrbitRecord) -> dict:
    w = rec.witness
    return {
        "id": rec.id,
        "rep": [root_token(r) for r in pos_roots(rec.rank)
                if rec.representative.coord(r) == 1],
        "zero_set": list(rec.zero_strs),
        "nonzero_set": list(rec.nonzero_strs),
        "dim": rec.dim,
        "witness": {
            "constraints": [{"poly": c.poly, "solve": c.solve}
                            for c in w.constraints],
            "radicals": [{"name": r.name, "order": r.order,
                          "radicand": r.radicand} for r in w.radicals],
            "torus": list(w.torus),
            "factors": [{"root": list(root), "param": param}
                        for root, param in w.factors],
        },
        "as_printed": dict(rec.as_printed),
        "notes": [dict(x) for x in rec.notes],
    }


# ---------------------------------------------------------------------------
# the as_printed provenance grammar


class WitnessParseError(CatalogError):
    def __init__(self, text: str, pos: int, message: str):
        super().__init__(f"{message} at position {pos} in {text!r}")
        self.pos = pos


_PRINTED_FACTOR = re.compile(r"\s*U_?(\d{1,2})\s*", re.ASCII)


def _split_top_level(body: str) -> list[str]:
    """The parts of body between its commas outside parentheses."""
    parts, depth, cur = [], 0, ""
    for ch in body:
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
            continue
        depth += ch == "("
        depth -= ch == ")"
        cur += ch
    parts.append(cur)
    return parts


def _scan_parens(text: str, pos: int):
    if pos >= len(text) or text[pos] != "(":
        raise WitnessParseError(text, pos, "expected '('")
    depth = 0
    for i in range(pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[pos + 1:i], i + 1
    raise WitnessParseError(text, pos, "unbalanced parentheses")


def parse_printed_word(text: str, rank: int):
    """Parse a transcribed source word 'T(...) U_1(...) U_23(...) ...'.

    Single-digit factor subscripts name simple roots; corrupted token streams
    raise WitnessParseError (the detector for rows unusable as printed)."""
    s = text.strip()
    pos = 0
    torus = None
    if s.startswith("T"):
        body, pos = _scan_parens(s, 1)
        parts = _split_top_level(body)
        if len(parts) != rank:
            raise WitnessParseError(text, 0, f"torus needs {rank} entries")
        torus = tuple(p.strip() for p in parts)
    factors = []
    while pos < len(s):
        m = _PRINTED_FACTOR.match(s, pos)
        if not m:
            raise WitnessParseError(text, pos, "expected a root-group factor")
        digits = m.group(1)
        if len(digits) == 1:
            root = (int(digits), int(digits))
        else:
            root = (int(digits[0]), int(digits[1]))
        if not 1 <= root[0] <= root[1] <= rank:
            raise WitnessParseError(text, m.start(1), f"root {digits} out of range")
        body, pos = _scan_parens(s, m.end())
        factors.append((root, body.strip()))
    return torus, factors


# ---------------------------------------------------------------------------
# validation report


# Source-style variable aliases used by the as_printed layer: single-index
# names denote the simple-root coordinates.
_PRINTED_ALIASES = {"X1": "X11", "X2": "X22", "X3": "X33", "X4": "X44"}


def _parse_printed_set(text: str, n: int, chunks: dict):
    """Parse an as_printed defining-equation string 'Z(...) & V(...)'.
    ``chunks`` maps each polynomial text already parsed to its polynomial,
    and gains the texts parsed here."""
    text = text.strip()
    zero_part, nonzero_part = [], []
    for chunk in text.split("&"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk.startswith("Z(") and chunk.endswith(")"):
            body, target = chunk[2:-1], zero_part
        elif chunk.startswith("V(") and chunk.endswith(")"):
            body, target = chunk[2:-1], nonzero_part
        else:
            raise CatalogError(f"bad set chunk {chunk!r}")
        parts = _split_top_level(body)
        if not parts[-1].strip():       # a trailing comma or an empty body
            parts.pop()
        target.extend(parts)
    allowed = set(x_vars(n)) | set(_PRINTED_ALIASES)

    def norm(s: str) -> LaurentPoly:
        # rename the aliases the polynomial uses; a constant evaluates to
        # its coefficient
        if s not in chunks:
            poly = parse_poly(s, allowed)
            out = poly.eval({v: LaurentPoly.var(_PRINTED_ALIASES.get(v, v))
                             for v in poly.used_vars()})
            chunks[s] = (out if isinstance(out, LaurentPoly)
                         else LaurentPoly.const(out))
        return chunks[s]

    return [norm(s) for s in zero_part], [norm(s) for s in nonzero_part]


@dataclass
class RecordReport:
    orbit_id: str
    representative_member: bool
    homogeneous: bool
    zv_sane: bool
    notes: list[str]

    @property
    def failure(self) -> str:
        """The first check this record fails, or "" when it passes all."""
        for passed, what in (
                (self.representative_member, "representative is not a member"),
                (self.homogeneous, "a defining polynomial is not homogeneous"),
                (self.zv_sane, "a coordinate is a generator of both Z and V")):
            if not passed:
                return what
        return ""


@dataclass
class CatalogReport:
    rank: int
    records: list[RecordReport]

    @property
    def ok(self) -> bool:
        return not any(r.failure for r in self.records)


def validate_catalog(cat: Catalog) -> CatalogReport:
    """Self-check layer: representative membership, total-degree
    homogeneity and Z/V variable sanity.  Failures are carried in the
    report, not raised.  Each class of ``cat.pool`` is checked for
    homogeneity once (root-weight homogeneity is checked when the pool is
    built).  No printed text is read: the as_printed layer is provenance,
    compared with the normalized data by ``printed_statuses``."""
    homogeneous = [p.is_homogeneous() for p, _ in cat.pool]
    reports = []
    for rec in cat.orbits:
        reports.append(RecordReport(
            orbit_id=rec.id,
            representative_member=rec.contains(dict(zip(
                x_vars(rec.rank), rec.representative.as_vector()))),
            homogeneous=all(homogeneous[cat.slot[p]]
                            for p in rec.zero_set + rec.nonzero_set),
            zv_sane=not set(rec.linear_zero_vars()).intersection(
                linear_vars(rec.nonzero_set)),
            notes=[n["note"] for n in rec.notes]))
    return CatalogReport(cat.rank, reports)


def printed_statuses(cat: Catalog) -> dict[str, tuple[str, str]]:
    """Record id -> (set status, word status) of its as_printed layer.
    The set status is "match" when the printed set parses to the record's
    zero and nonzero sets up to the sign of each polynomial, else "diff",
    "unparseable" or "absent"; the word status is "parseable" when the word
    (``parse_printed_word``) and each of its torus entries and factor
    parameters (``parse_expr``) parse, else "unparseable" or "absent".
    Each distinct printed polynomial text is parsed once per call."""
    chunks: dict = {}                   # printed text -> polynomial

    @cache
    def sign_class(p: LaurentPoly) -> frozenset:
        return frozenset((p, -p))

    def signset(polys):
        return set(map(sign_class, polys))

    statuses = {}
    for rec in cat.orbits:
        printed = rec.as_printed.get("set")
        if not printed:
            status = "absent"
        else:
            try:
                pz, pnz = _parse_printed_set(printed, cat.rank, chunks)
            except (CatalogError, SchemaError, DomainError):
                status = "unparseable"
            else:
                same = (signset(pz) == signset(rec.zero_set)
                        and signset(pnz) == signset(rec.nonzero_set))
                status = "match" if same else "diff"
        word = rec.as_printed.get("word")
        if not word:
            word_status = "absent"
        else:
            try:
                torus, factors = parse_printed_word(word, cat.rank)
                for text in (*(torus or ()), *(p for _, p in factors)):
                    parse_expr(text)
                word_status = "parseable"
            except (WitnessParseError, SchemaError):
                word_status = "unparseable"
        statuses[rec.id] = (status, word_status)
    return statuses
