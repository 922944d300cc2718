"""Brute-force ground truth over finite fields, and the dimension
certificate.

``enumerate_borel_orbits`` computes the actual B(F_q)-orbit partition of the
nilradical as a min-label fixpoint under 2n generators (one primitive-root
torus per simple slot and U_root(1) for every simple root; U_root(1) of a
non-simple root is a commutator of simple ones).
``stability_check`` certifies it: every class is stable under those
generators, checked over the whole space, and every one-parameter subgroup
element and full torus element is a product of them, checked as an exact
identity of F_q matrices.  ``refine_check`` confronts the partition with the
catalog's defining sets.

Every group element acts through ``lie.adjoint``: its linear map on
coordinates comes from one symbolic ``adjoint`` per family (U_root(c) for
one root, the torus diag(s_1, ..., s_n)) with Laurent-polynomial
parameters, specialised exactly mod q at every element of the family at
once by broadcasting.  The fixpoint and the stability passes apply a map to
the whole space only through ``image_codes``, which builds the code of every
image point digit by digit with integer broadcasts, without decoding the q^d
points; the fixpoint turns each generator into one int32 code table,
lowers every point's label through it and keeps the tables on the
partition, where the stability passes reuse them.  ``refine_check`` does
not decode the q^d points either: it reads every point's record off the
census's slice pass through the torus normal form
(``classify.point_records``).

``jacobian_rank_dim`` certifies each record's dimension exactly over Q at
its representative, with no sampled points: the tangent space [b, rep] of
the orbit must have the dimension d - r that the zero-set Jacobian rank r
leaves there.  Ranks come from fraction-free integer elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import Fp, LaurentPoly, is_prime, primitive_root
from .catalog import Catalog, OrbitRecord, x_vars
from .classify import grid_values, point_records
from .errors import (BudgetExceededError, InternalInconsistencyError,
                     SchemaError, ShapeError)
from .lie import (BorelWord, NilElement, RootGroupFactor, TorusElement,
                  adjoint, commutator_nil, nil_dim, pos_roots, root_token)

BFS_BUDGET = 2_000_000
#: the fixpoint's point codes, labels and code tables are int32
CODE_LIMIT = 2**31 - 1
#: stability_check certifies every full torus element, as the product of its
#: slot tori, when there are at most this many
FULL_TORUS_CAP = 4096


# ---------------------------------------------------------------------------
# linear maps of group elements on nilradical coordinates

#: parameter names of the symbolic families, U_root(c) and the torus
#: diag(s_1, ..., s_n); the polynomial grammar admits no "@", so no catalog
#: or witness polynomial uses them
_ROOT_PARAM = "@c"


def _torus_params(n: int) -> list[str]:
    return [f"@s{k}" for k in range(1, n + 1)]


def _family(word: BorelWord) -> list:
    """(row, column, entry) for every nonzero entry of the symbolic map of
    a word with Laurent-polynomial parameters: column beta is ``adjoint``
    of the word on the basis element e_beta."""
    n = word.rank
    roots = pos_roots(n)
    one = LaurentPoly.const(1)
    entries = []
    for col, beta in enumerate(roots):
        image = adjoint(word, NilElement(n, {beta: one})).coords
        entries += [(row, col, image[r]) for row, r in enumerate(roots)
                    if r in image]
    return entries


def _torus_family(n: int) -> list:
    return _family(BorelWord(n, TorusElement(n, tuple(
        LaurentPoly.var(s) for s in _torus_params(n)))))


def _specialise(entries, d: int, cols: dict, q: int,
                inverses: dict | None = None) -> np.ndarray:
    """The maps of a family at every point of a grid, shape (points, d, d)
    in C order of the grid: each entry is evaluated exactly mod q over the
    whole grid at once by ``classify.grid_values`` (``cols`` and
    ``inverses`` as there; a negative torus exponent reads the inverses)."""
    shape = np.broadcast_shapes(*(np.shape(v) for v in cols.values()))
    maps = np.zeros(shape + (d, d), dtype=np.int64)
    for row, col, poly in entries:
        maps[..., row, col] = grid_values(poly, cols, q, inverses)
    return maps.reshape(-1, d, d)


def _root_maps(n: int, root, cs, q: int) -> np.ndarray:
    """U_root(c) for every c of ``cs``, from one symbolic map."""
    family = _family(BorelWord(n, None, (
        RootGroupFactor(root, LaurentPoly.var(_ROOT_PARAM)),)))
    return _specialise(family, nil_dim(n),
                       {_ROOT_PARAM: np.asarray(cs, dtype=np.int64)}, q)


def _torus_maps(family, n: int, units: list, q: int) -> np.ndarray:
    """diag(s_1, ..., s_n) over the grid whose slot k runs over the units
    mod q of ``units[k]`` (one axis per slot, slot 0 most significant)."""
    cols, inverses = {}, {}
    for k, (s, vals) in enumerate(zip(_torus_params(n), units)):
        axis = (1,) * k + (-1,) + (1,) * (n - 1 - k)
        cols[s] = np.asarray(vals, dtype=np.int64).reshape(axis)
        inverses[s] = np.array([pow(int(v), -1, q) for v in vals],
                               dtype=np.int64).reshape(axis)
    return _specialise(family, nil_dim(n), cols, q, inverses)


def _slot_line(family, n: int, slot: int, cs, q: int) -> np.ndarray:
    """The torus with entry c in one simple slot and 1 elsewhere, for
    every c of ``cs``."""
    return _torus_maps(family, n, [cs if k == slot else [1]
                                   for k in range(n)], q)


def image_codes(m: np.ndarray, q: int) -> np.ndarray:
    """Code of m x mod q for every x in F_q^d, in code order (digit 0 most
    significant).

    Walks the input digits once: each output digit keeps the partial sum of
    its row over the digits read so far, broadcast over the next digit's q
    values, and is folded into the codes after its row's last nonzero
    column.  Every product is reduced below q, so a partial sum stays below
    d q and needs one ``% q`` at the fold.  Exact for any integer matrix
    when q^d is at most ``CODE_LIMIT``: the codes are int32, as the
    fixpoint's tables are.  The group maps are lower triangular in root
    order (ad e_alpha raises height), so digit j folds by step j and the
    widest steps carry few digits."""
    d = m.shape[0]
    m = np.asarray(m, dtype=np.int64) % q
    steps = np.arange(q, dtype=np.int64)
    last = {j: int(np.flatnonzero(m[j])[-1]) for j in range(d) if m[j].any()}
    pend = {j: np.zeros(1, dtype=np.int32) for j in last}
    codes = np.zeros(1, dtype=np.int32)
    for i in range(d):
        codes = np.repeat(codes, q)
        for j in list(pend):
            col = (m[j, i] * steps % q).astype(np.int32)
            pend[j] = (pend[j][:, None] + col).ravel()
            if last[j] == i:
                codes += (pend.pop(j) % q) * q**(d - 1 - j)
    return codes


def _torus_word(n: int, diag, q: int) -> BorelWord:
    return BorelWord(n, TorusElement(n, tuple(Fp(t, q) for t in diag)))


def _slot_word(n: int, slot: int, c: int, q: int) -> BorelWord:
    """The torus with entry c in one simple slot and 1 elsewhere."""
    return _torus_word(n, [c if k == slot else 1 for k in range(n)], q)


def _root_word(n: int, root, c: int, q: int) -> BorelWord:
    return BorelWord(n, None, (RootGroupFactor(root, Fp(c, q)),))


def borel_generator_maps(n: int, q: int) -> list[np.ndarray]:
    """Generator set: one primitive-root torus per simple slot, plus U_root(1)
    for every simple root.  U_root(1)^c = U_root(c) over a prime field, and
    U_root(c) of a non-simple root is a commutator of simple ones, so these
    2n elements generate B(F_q)."""
    g0 = primitive_root(q)
    torus = _torus_family(n)
    maps = [_slot_line(torus, n, slot, [g0], q)[0] for slot in range(n)]
    maps += [_root_maps(n, root, [1], q)[0] for root in pos_roots(n)[:n]]
    return maps


# ---------------------------------------------------------------------------
# orbit enumeration


@dataclass
class OrbitPartition:
    rank: int
    q: int
    class_of: np.ndarray           # point code -> class index
    reps: list                     # class index -> least point code
    sizes: list
    #: the fixpoint's (generator map, int32 code table) pairs
    tables: list = field(default_factory=list, repr=False, compare=False)

    @property
    def class_count(self) -> int:
        return len(self.reps)


def enumerate_borel_orbits(n: int, q: int, budget: int = BFS_BUDGET) -> OrbitPartition:
    """Min-label fixpoint: every point starts labelled by its own code, and
    each round lowers it to the least label of its generator images, then
    to its label's label, until a round changes nothing.  Each generator is
    a bijection and a label is always a point of the same class, so at the
    fixpoint every point carries the least point of its class.  Classes are
    numbered by that least point, so the partition is canonical.  The
    partition keeps each generator's code table, keyed by its map.  A field
    whose q^d codes do not fit int32 is refused before any allocation."""
    if not is_prime(q):
        raise SchemaError(f"q = {q} is not prime")
    d = nil_dim(n)
    total = q**d
    if total > CODE_LIMIT:
        raise SchemaError(
            f"q^d = {q}^{d} = {total} points exceed the oracle's limit of "
            f"2^31 - 1 = {CODE_LIMIT} (int32 point codes)")
    if total > budget:
        raise BudgetExceededError(total, budget)
    maps = borel_generator_maps(n, q)
    tables = [image_codes(g, q) for g in maps]
    label = np.arange(total, dtype=np.int32)
    changed = True
    while changed:
        new = label.copy()
        for table in tables:
            np.minimum(new, new[table], out=new)
        new = new[new]
        changed = (new != label).any()
        label = new
    is_rep = label == np.arange(total, dtype=np.int32)
    class_of = (np.cumsum(is_rep, dtype=np.int32) - 1)[label]
    return OrbitPartition(n, q, class_of, np.flatnonzero(is_rep).tolist(),
                          np.bincount(class_of).tolist(),
                          list(zip(maps, tables)))


def _describe_word(word: BorelWord) -> str:
    if word.factors:
        (factor,) = word.factors
        return f"U_{root_token(factor.root)}({factor.param.v})"
    return f"torus diag({', '.join(str(t.v) for t in word.torus.diag)})"


def _power_table(m: np.ndarray, count: int, q: int) -> np.ndarray:
    """m^0, ..., m^(count - 1) over F_q, shape (count, d, d), by doubling:
    m^0..m^(k-1) times m^k give m^k..m^(2k-1).  Entries stay below q and
    q^d < 2^31 (the fixpoint's limit), so d (q-1)^2 < 2^63 keeps every
    int64 product exact."""
    pows = np.identity(m.shape[0], dtype=np.int64)[None]
    step = m
    while len(pows) < count:
        pows = np.concatenate([pows, pows @ step % q])
        step = step @ step % q
    return pows[:count]


def _first_off(maps: np.ndarray, want: np.ndarray):
    """Index of the first map that differs from its wanted product, or
    None."""
    off = (maps != want).any(axis=(1, 2))
    return int(np.argmax(off)) if off.any() else None


def stability_check(part: OrbitPartition) -> dict:
    """Certify the partition: every class is stable under every U_root(c),
    every single-slot torus and (when at most ``FULL_TORUS_CAP`` elements)
    every full torus element.

    Only the generators reach the whole space: U_root(1) for every positive
    root, in ``pos_roots`` order, then the n slot tori at g =
    ``primitive_root(q)``.  Every other element is certified as a product of
    generators by an exact identity of F_q matrices: U_root(c) is
    U_root(1)^c (q is prime), the slot torus at c is the slot torus at g to
    the power e with g^e = c (the powers of g are checked to reach all q - 1
    units), and a full torus element is the product of its slot tori.  A
    class stable under every generator is stable under every product of
    them.  Each family's maps come from one symbolic ``adjoint`` per
    family, specialised at every element by broadcasting, and each family
    is compared with its generator powers in one array comparison.  The
    generator list is built here, not taken from ``borel_generator_maps``,
    so the fixpoint's generator set is certified independently; a
    fixpoint code table is reused only for a map equal to its key.  Raises
    on the first failure, naming the group element, and for a whole-space
    pass the point and both classes."""
    n, q = part.rank, part.q
    d = nil_dim(n)
    g = primitive_root(q)
    log = {pow(g, e, q): e for e in range(q - 1)}
    if len(log) != q - 1:
        c = min(set(range(1, q)) - log.keys())
        raise InternalInconsistencyError(
            f"rank {n} F_{q}: {_describe_word(_slot_word(n, 0, c, q))} is no "
            f"power of {_describe_word(_slot_word(n, 0, g, q))}: {g} is not a "
            f"primitive root, its powers reach {len(log)} of the {q - 1} units")

    def fail(word, name):
        raise InternalInconsistencyError(
            f"rank {n} F_{q}: {_describe_word(word)} is not {name} over F_{q}")

    roots = pos_roots(n)
    units = list(range(1, q))
    exps = [log[c] for c in units]
    torus = _torus_family(n)
    gens = []                       # (generator word, its map)
    for root in roots:
        maps = _root_maps(n, root, range(q), q)
        c = _first_off(maps, _power_table(maps[1], q, q))
        word = _root_word(n, root, 1, q)
        if c is not None:
            fail(_root_word(n, root, c, q), f"{_describe_word(word)}^{c}")
        gens.append((word, maps[1]))
    slot_pows = []
    for slot in range(n):
        maps = _slot_line(torus, n, slot, units, q)
        slot_pows.append(_power_table(maps[g - 1], q - 1, q)[exps])
        k = _first_off(maps, slot_pows[-1])
        word = _slot_word(n, slot, g, q)
        if k is not None:
            fail(_slot_word(n, slot, units[k], q),
                 f"{_describe_word(word)}^{exps[k]}")
        gens.append((word, maps[g - 1]))
    checked = len(roots) * q + n * (q - 1)
    if (q - 1) ** n <= FULL_TORUS_CAP:
        prod = slot_pows[0]
        for pows in slot_pows[1:]:
            prod = (prod[:, None] @ pows[None] % q).reshape(-1, d, d)
        k = _first_off(_torus_maps(torus, n, [units] * n, q), prod)
        if k is not None:
            diag = np.unravel_index(k, (q - 1,) * n)
            fail(_torus_word(n, [int(e) + 1 for e in diag], q),
                 "the product of its slot tori")
        checked += len(prod)
    for word, m in gens:
        codes = next((table for key, table in part.tables
                      if np.array_equal(key, m)), None)
        if codes is None:
            codes = image_codes(m, q)
        moved = part.class_of[codes] != part.class_of
        if moved.any():
            bad = int(np.argmax(moved))
            point = [int(v) for v in np.unravel_index(bad, (q,) * d)]
            raise InternalInconsistencyError(
                f"rank {n} F_{q}: class not stable under "
                f"{_describe_word(word)}: point {point} in class "
                f"{int(part.class_of[bad])} maps to class "
                f"{int(part.class_of[codes[bad]])}")
    return {"maps_checked": checked, "maps_applied": len(gens)}


# ---------------------------------------------------------------------------
# refinement against the catalog


@dataclass
class RefineReport:
    rank: int
    q: int
    class_count: int
    classes_per_record: dict        # orbit id -> list of class indices
    empty_records: list
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def refine_check(cat: Catalog, part: OrbitPartition) -> RefineReport:
    """Certify that rational orbits refine the catalog partition: every
    class sits inside exactly one defining set, every defining set is a union
    of whole classes, and empties are reported rather than failed.  Every
    point's record is read off the slice pass (``classify.point_records``),
    which certifies exhaustion and disjointness on the slices; the q^d
    points are neither decoded nor evaluated."""
    n, q = part.rank, part.q
    if n != cat.rank:
        raise ShapeError(f"catalog rank {cat.rank} != partition rank {n}")
    d = nil_dim(n)
    matched = point_records(cat, q)
    violations = []
    classes_per_record: dict = {rec.id: [] for rec in cat.orbits}
    rep_match = matched[part.reps]
    split = set(part.class_of[matched != rep_match[part.class_of]].tolist())
    for cls, rec in enumerate(rep_match.tolist()):
        if cls in split:
            pt = [int(v)
                  for v in np.unravel_index(part.reps[cls], (q,) * d)]
            recs = np.unique(matched[part.class_of == cls])
            violations.append(
                f"class {cls} (rep point {pt}) meets records "
                f"{[cat.orbits[int(r)].id for r in recs]}")
            continue
        classes_per_record[cat.orbits[rec].id].append(cls)
    empty = [rid for rid, v in classes_per_record.items() if not v]
    return RefineReport(n, q, part.class_count, classes_per_record, empty,
                        violations)


# ---------------------------------------------------------------------------
# dimension certificate


def _rank_exact(rows) -> int:
    """Rank over Q by fraction-free elimination: each row is scaled to
    integers (zero rows dropped), and each row below a pivot p in column
    col becomes p a_i - a_i[col] a_piv, divided by its content, so the
    integers stay small and no ``Fraction`` arithmetic runs."""
    a = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = math.lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        if any(ints):
            a.append(ints)
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        p = top[col]
        for i in range(rank + 1, len(a)):
            f = a[i][col]
            if f:
                row = [p * x - f * y for x, y in zip(a[i], top)]
                content = math.gcd(*row)
                a[i] = [x // content for x in row] if content > 1 else row
        rank += 1
        if rank == len(a):
            break
    return rank


def _bracket_rows(rep: NilElement) -> list[list]:
    """Matrix of y -> [y, rep] from b to n, one row per basis element of b:
    the simple coroots h_k, then the positive roots.  h_k scales the
    coordinate of root (i, j), that is of alpha_i + ... + alpha_j, by
    <alpha_(i..j), h_k> = d_ik - d_i,k+1 - d_j+1,k + d_j+1,k+1."""
    n = rep.rank
    roots = pos_roots(n)
    rows = [[((i == k) - (i == k + 1) - (j + 1 == k) + (j == k))
             * rep.coord((i, j)) for i, j in roots]
            for k in range(1, n + 1)]
    rows += [commutator_nil(n, root, rep).as_vector() for root in roots]
    return rows


def jacobian_rank_dim(rec: OrbitRecord) -> int:
    """Dimension d - r, r the rank over Q of the zero-set Jacobian at the
    representative, certified by t, the rank of y -> [y, rep] from b to n.

    In characteristic 0 the tangent space of the orbit at rep is [b, rep],
    so the orbit has dimension t.  Every component of V(zero set) through
    rep has dimension at most d - r, and forward containment puts the orbit
    in V(zero set).  So t = d - r makes the orbit closure a component of
    V(zero set) of that dimension, with rep a smooth point of it.  Raises
    when t != d - r, naming the record and both numbers."""
    n = rec.rank
    d = nil_dim(n)
    if len(rec.zero_set) > d:
        raise InternalInconsistencyError(
            f"{rec.id}: more zero-set generators than coordinates")
    rep = rec.representative
    env = dict(zip(x_vars(n), rep.as_vector()))
    r = _rank_exact([[poly.derivative(v).eval(env) for v in x_vars(n)]
                     for poly in rec.zero_set])
    t = _rank_exact(_bracket_rows(rep))
    if t != d - r:
        raise InternalInconsistencyError(
            f"{rec.id}: orbit dimension {t} (rank of [b, rep]) != {d - r} "
            f"(nilradical dimension {d} minus zero-set Jacobian rank {r} at "
            f"the representative)")
    return d - r
