"""Witness verification: the proof that each catalog set equals its orbit.

Forward containment checks the inclusion orbit <= set as polynomial
identities in fully generic unipotent parameters: ``generic_pullbacks``
evaluates the catalog polynomials at adjoint(u, representative) for u the
root-group factors of the one generic word of ``lie.generic_borel_word``.
The torus is left out because every catalog polynomial is a torus weight
vector, which building the ``Catalog`` checks.  The pullbacks are read off
one table per rank, ``generic_vanishing``: the int mask of the classes of
the catalog's polynomial pool (``Catalog.pool``, one polynomial per
+-sign) that vanish on each record's generic orbit, from one
``generic_pullbacks`` call over the pool.  The catalog owns the table
(``Catalog.derived``): it is built at the first read, kept only when the
build succeeds, and shared with the closure generators of ``order``, so a
command pulls every record back once.  The reverse inclusion is certified
by the catalog's witness templates: a Borel word whose parameters are
rational (and radical) expressions in the coordinates of a general member m,
with adjoint(word, representative) required to equal m exactly, and with
every denominator (a monomial one too), radicand and torus entry of the
template a unit on the whole set (``first_non_unit``), so that the word is
defined at every point of the set, not only on a dense open part of it.  Polynomials are over Z, so
the only constants that count as units are +-1 (``LaurentPoly.is_unit``):
2*x is no unit, since it vanishes in characteristic 2.

Coordinate letters inside templates denote 60th powers: a general member's
free coordinate c is replaced by c^60 (60 = lcm(2,3,4,5)), which turns every
fractional power of a coordinate into an integral Laurent exponent.
Composite (never monomial) radicands get formal radical variables from the
record's tower, and ``arith.eval_expr`` takes the tower: its one
fractional-power function, ``arith._frac_pow``, peels the radicands off a
composite base.  Every factorization, there and in ``first_non_unit``, runs
through one exact trial-division loop, ``arith._peel``.  ``verify_rank``
parses each distinct expression text once per call, and each member
evaluates each distinct parse-tree node once (``MemberEnv.memo``), so the
template and the as-printed word share their common subexpressions (the
memo keeps each expression's value lifted to a ``LaurentFraction``).  Every
printed word that parses is built over the member and compared with the
template word by value only (``_same_word``): a word equal to it reuses its
residuals, so only a word of another value runs its own ``adjoint``.
``verify_witness_numeric`` (random points over F_p, every value read
through ``eval`` over ``Fp`` bindings) is a cross-check; no verdict of
``verify_rank`` rests on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .arith import (Fp, LaurentFraction, LaurentPoly, RadicalRelation,
                    _peel, eval_expr, kth_roots, parse_expr, parse_poly)
from .catalog import (Catalog, OrbitRecord, WitnessParseError, letter_of_var,
                      parse_printed_word, x_vars)
from .errors import DomainError, SchemaError
from .lie import (BorelWord, NilElement, RootGroupFactor, TorusElement,
                  adjoint, coordinate_letters, generic_borel_word, pos_roots)
from .oracle import _family

POWER = 60  # lcm of the radical orders 2..5

VERIFIED_SYMBOLIC = "VerifiedSymbolic"
VERIFIED_NUMERIC = "VerifiedNumeric"
REPAIRED = "RepairedAndVerified"
FAILED_AS_PRINTED = "FailedAsPrinted"
INCONCLUSIVE = "Inconclusive"


# ---------------------------------------------------------------------------
# member environment


@dataclass
class MemberEnv:
    """Function-field model of a general member of one orbit's defining set."""

    env: dict                       # letter/radical name -> LaurentFraction
    tower: list                     # RadicalRelation list (evaluated radicands)
    target: dict                    # root -> LaurentFraction (member coords)
    free_letters: list
    solved_letters: list
    protected_polys: list           # evaluated non-monomial nonzero conditions
    protected_letters: set          # unit letters and radical names
    # parse-tree node -> its value over this member (``eval_template_expr``)
    memo: dict = field(default_factory=dict, compare=False, repr=False)


def build_member_env(rec: OrbitRecord, power: int = POWER) -> MemberEnv:
    """The general member of rec's set (free letters as ``power``-th powers,
    constraint letters solved, radicals as formal variables) and the units
    ``first_non_unit`` may assume: each radical name, whose radicand it
    tests; each letter with a positive exponent in a monomial nonzero
    condition (a letter the condition's value divides by is not one: the
    value equals the condition only where that letter is nonzero); and each
    non-monomial nonzero condition."""
    n = rec.rank
    letters = coordinate_letters(n)
    l_of_v = letter_of_var(n)
    zero_letters = {l_of_v[v] for v in rec.linear_zero_vars()}
    env: dict[str, LaurentFraction] = {}
    free = []
    for letter in letters:
        if letter in zero_letters:
            env[letter] = LaurentFraction(0)
        else:
            env[letter] = LaurentFraction(LaurentPoly.var(letter, power))
            free.append(letter)
    solved = []

    def at(poly, bindings) -> LaurentFraction:
        return LaurentFraction._lift(poly.eval(bindings))

    for c in rec.witness.constraints:
        poly = parse_poly(c.poly, set(letters))
        lin = poly.derivative(c.solve)
        if c.solve in lin.used_vars():
            raise SchemaError(f"constraint {c.poly!r} is not linear in {c.solve}")
        coeff = at(lin, env)
        if coeff.is_zero():
            raise SchemaError(f"constraint {c.poly!r}: solve coefficient vanishes")
        env[c.solve] = -at(poly, {**env, c.solve: LaurentFraction(0)}) / coeff
        solved.append(c.solve)
        if c.solve in free:
            free.remove(c.solve)
    tower: list[RadicalRelation] = []
    for rad in rec.witness.radicals:
        names = set(letters) | {r.new_var for r in tower}
        rad_poly = parse_poly(rad.radicand, names)
        val = at(rad_poly, env)
        if not val.is_poly():
            raise SchemaError(
                f"radicand {rad.radicand!r} is not polynomial after constraints")
        if val.num.is_monomial():       # _frac_pow roots a monomial itself
            raise SchemaError(f"record {rec.id}: radicand {rad.radicand!r} of "
                              f"radical {rad.name} is a monomial")
        tower.append(RadicalRelation(rad.name, rad.order, val.num))
        env[rad.name] = LaurentFraction(LaurentPoly.var(rad.name))
    target = {}
    for root, var in zip(pos_roots(n), x_vars(n)):
        target[root] = env[l_of_v[var]]
    protected_polys = []
    protected_letters = {r.new_var for r in tower}
    for p in rec.nonzero_set:
        num = at(p, {v: env[l_of_v[v]] for v in p.used_vars()}).num
        if num.is_monomial():
            protected_letters |= num.used_vars() - num.pole_vars()
        else:
            protected_polys.append(num)
    return MemberEnv(env, tower, target, free, solved,
                     protected_polys, protected_letters)


def _parsed(text: str, parsed: dict | None):
    """The parse tree of a template expression, read from and added to the
    ``parsed`` cache (text -> tree) when one is given."""
    if parsed is None:
        return parse_expr(text)
    node = parsed.get(text)
    if node is None:
        node = parsed[text] = parse_expr(text)
    return node


def eval_template_expr(text: str, menv: MemberEnv,
                       parsed: dict | None = None) -> LaurentFraction:
    """The value of one template expression over the general member, as a
    ``LaurentFraction``: each parse-tree node is evaluated once per member
    (``menv.memo``), so the template and the printed word share their
    common subexpressions.  The memo keeps the lift of a number's constant
    ``LaurentPoly``, so every word over the member holds the one object."""
    node = _parsed(text, parsed)
    menv.memo[node] = LaurentFraction._lift(
        eval_expr(node, menv.env, menv.tower, menv.memo))
    return menv.memo[node]


# ---------------------------------------------------------------------------
# building and verifying words


def template_word(rec: OrbitRecord, menv: MemberEnv,
                  torus_strs, factor_list, parsed: dict | None = None
                  ) -> BorelWord:
    n = rec.rank
    torus = None
    if torus_strs:
        entries = tuple(eval_template_expr(s, menv, parsed)
                        for s in torus_strs)
        for t in entries:
            if t.is_zero():
                raise DomainError("torus entry evaluates to zero")
        torus = TorusElement(n, entries)
    factors = tuple(RootGroupFactor(root, eval_template_expr(param, menv,
                                                             parsed))
                    for root, param in factor_list)
    return BorelWord(n, torus, factors)


def _residuals(rec, menv, word):
    """Coordinatewise differences adjoint(word, rep) - m of a word built
    over ``menv``, radical-reduced; empty when the word reproduces m.
    Without a radical tower, a coordinate got = m_root is decided by
    got.num * m.den - m.num * got.den being zero, exact since Z[x^+-1] is
    a domain, and the difference fraction is built only for a coordinate
    that differs.  With a tower, every nonzero difference is reduced
    (``reduce_radicals``) before it counts."""
    result = adjoint(word, rec.representative)
    tower = menv.tower
    residuals = []
    for root in pos_roots(rec.rank):
        got = LaurentFraction._lift(result.coord(root))
        want = menv.target[root]
        if not tower and (got.num * want.den - want.num * got.den).is_zero():
            continue
        diff = got - want
        if tower and not diff.is_zero():
            diff = diff.reduce_radicals(tower)
        if not diff.is_zero():
            residuals.append((root, diff))
    return residuals


@dataclass
class WitnessVerdict:
    orbit_id: str
    status: str
    as_printed: str = "absent"          # verified | parse-error | eval-error
                                        # | mismatch | absent
    residual: list = field(default_factory=list)
    detail: str = ""
    repairs: list = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return self.status in (VERIFIED_SYMBOLIC, VERIFIED_NUMERIC, REPAIRED)


def _same_word(a: BorelWord, b: BorelWord) -> bool:
    """a and b have the same roots in the same order, and equal torus
    entries and factor parameters as exact ``LaurentFraction`` values over
    one member.  Each pair is compared by identity first: the member's node
    memo hands a shared subexpression the same object."""
    def values(word):
        return (word.torus.diag if word.torus else ()) + tuple(
            f.param for f in word.factors)

    return ((a.torus is None) == (b.torus is None)
            and [f.root for f in a.factors] == [g.root for g in b.factors]
            and all(x is y or x == y for x, y in zip(values(a), values(b))))


def _printed_layer(rec: OrbitRecord, menv: MemberEnv, template,
                   parsed: dict) -> tuple[str, str]:
    """(as_printed, detail) of the transcribed word, whose grammar lives in
    ``catalog.parse_printed_word``.  ``template`` is the template's (word,
    residuals) over ``menv``, None when the template did not evaluate.  A
    printed word is built over the same member, so its common
    subexpressions are not evaluated again (a word that parses to the
    template's trees, ``sqrt(a)`` for ``a^(1/2)``, evaluates nothing and
    holds the template's very values), and a word equal in value to the
    template's (``_same_word``: ``x^(-1)`` for ``1/x``) takes the template's
    residuals, with no ``adjoint`` of its own.  A parameter that does not
    parse or evaluate is an eval-error, and so is every parameter when there
    is no member (``menv`` None)."""
    text = rec.as_printed.get("word", "")
    if not text:
        return "absent", "no as-printed word"
    try:
        torus, factors = parse_printed_word(text, rec.rank)
    except WitnessParseError as exc:
        return f"parse-error@{exc.pos}", str(exc)

    if menv is None:
        return "eval-error", "no general member of the set"
    try:
        word = template_word(rec, menv, torus, factors, parsed)
        residuals = (template[1] if template is not None
                     and _same_word(word, template[0])
                     else _residuals(rec, menv, word))
    except (SchemaError, DomainError) as exc:
        return "eval-error", str(exc)
    if residuals:
        return "mismatch", "as-printed word does not reproduce the member"
    return "verified", ""


def classify_verdict(rec: OrbitRecord,
                     parsed: dict | None = None) -> WitnessVerdict:
    """Full per-record verdict: the normalized template against a general
    member, its soundness on the whole set (``first_non_unit``), the
    as-printed layer against the same member, repair notes.  A template
    that does not evaluate over the member fails with the error as its
    detail, as a printed word that does not is an eval-error.  ``parsed``
    caches expression parse trees by text across the records of one call
    of ``verify_rank``."""
    parsed = {} if parsed is None else parsed
    w = rec.witness
    menv = residuals = None
    try:
        menv = build_member_env(rec)
        word = template_word(rec, menv, w.torus, w.factors, parsed)
        residuals = _residuals(rec, menv, word)
    except (SchemaError, DomainError) as exc:
        error = str(exc)
    as_printed, printed_detail = _printed_layer(
        rec, menv, None if residuals is None else (word, residuals), parsed)
    repairs = rec.witness_repairs()
    status, residual = FAILED_AS_PRINTED, []
    if residuals is None:
        detail = f"normalized template does not evaluate: {error}"
    elif residuals:
        residual = [(r, repr(d)) for r, d in residuals]
        detail = "normalized template failed"
    elif unsound := first_non_unit(rec, menv, word):
        detail = f"normalized template is not a unit on the set: {unsound}"
    elif repairs or as_printed not in ("verified", "absent"):
        status, detail = REPAIRED, printed_detail
    else:
        status, detail = VERIFIED_SYMBOLIC, ""
    return WitnessVerdict(rec.id, status, as_printed, residual, detail,
                          repairs)


# ---------------------------------------------------------------------------
# numeric verification


def template_power(rec: OrbitRecord) -> int:
    """Least common multiple of the fractional-exponent denominators the
    record's template actually uses (1 when the word is radical-free)."""
    import math

    def denoms(node):
        # a child is a subtree, or a chain's (op, operand) link, when a tuple
        if node[0] == "pow":
            yield node[2].denominator
        for child in node[1:]:
            if isinstance(child, tuple):
                yield from denoms(child)

    k = 1
    for s in list(rec.witness.torus) + [f for _, f in rec.witness.factors]:
        for d in denoms(parse_expr(s)):
            k = math.lcm(k, d)
    return k


def verify_witness_numeric(rec: OrbitRecord, p: int, trials: int,
                           seed: int = 0) -> WitnessVerdict:
    """Check the witness at random rational points of the set over F_p.

    Requires p = 1 (mod 60) so that all root orders up to 5 are realizable.
    Coordinates are sampled constructively, root value first: each free
    coordinate is a k-th power where k is the least power the template
    needs, and composite radicands are rejection-sampled until the required
    root exists.
    """
    if p % 60 != 1:
        raise DomainError(f"p = {p} is not 1 mod 60")
    if trials == 0:
        return WitnessVerdict(rec.id, INCONCLUSIVE,
                              detail="0 trials requested (vacuous)")
    menv = build_member_env(rec, power=template_power(rec))
    w = rec.witness
    try:
        word = template_word(rec, menv, w.torus, w.factors)
    except (SchemaError, DomainError) as exc:
        return WitnessVerdict(rec.id, FAILED_AS_PRINTED, detail=str(exc))
    rng = random.Random(repr((seed, p, rec.id)))

    def at(x) -> Fp:
        # a LaurentPoly or LaurentFraction at the point, through ``eval``
        # over its Fp bindings; a pole raises DomainError, and a constant
        # evaluates to its coefficient, which is lifted into F_p
        if isinstance(x, LaurentFraction):
            return at(x.num) / at(x.den)
        return Fp(0, p) + x.eval(point)

    done = 0
    attempts = 0
    max_attempts = 200 * trials + 200
    while done < trials:
        attempts += 1
        if attempts > max_attempts:
            return WitnessVerdict(rec.id, INCONCLUSIVE,
                                  detail=f"no valid sample after {attempts} tries")
        point = {letter: Fp(rng.randrange(1, p), p)
                 for letter in menv.free_letters}
        try:
            ok_radicals = True
            for rel in menv.tower:
                roots = kth_roots(at(rel.radicand), rel.order)
                roots = [r for r in roots if r.v != 0]
                if not roots:
                    ok_radicals = False
                    break
                point[rel.new_var] = roots[0]
            if not ok_radicals:
                continue
            member = {root: at(menv.target[root])
                      for root in pos_roots(rec.rank)}
            if any(at(poly).is_zero() for poly in menv.protected_polys):
                continue
            torus = None
            if word.torus:
                torus = TorusElement(
                    rec.rank, tuple(at(t) for t in word.torus.diag))
            factors = tuple(RootGroupFactor(f.root, at(f.param))
                            for f in word.factors)
            numeric = BorelWord(rec.rank, torus, factors)
            got = adjoint(numeric, rec.representative)
        except DomainError:
            continue
        for root in pos_roots(rec.rank):
            g = got.coord(root)
            g = g if isinstance(g, Fp) else Fp(int(g), p)
            if g != member[root]:
                return WitnessVerdict(
                    rec.id, FAILED_AS_PRINTED,
                    residual=[(root, f"{g} != {member[root]} at {point}")],
                    detail=f"numeric mismatch over F_{p}")
        done += 1
    return WitnessVerdict(rec.id, VERIFIED_NUMERIC,
                          detail=f"{trials} points over F_{p}")


# ---------------------------------------------------------------------------
# forward containment


def generic_pullbacks(reps, polys) -> list[list[LaurentPoly]]:
    """For each representative rep (all of one rank), each polynomial in
    X11, X22, ... evaluated at ``adjoint(u, rep)``, u the root-group factors
    of ``generic_borel_word(n)``: a polynomial in f1..fd that is zero
    exactly when the polynomial vanishes on the whole B-orbit of rep.

    The torus is left out, which assumes every polynomial is root-weight
    homogeneous, as every class of a ``Catalog`` pool is.  Such an f is a
    torus weight vector: f(t.y) = chi_f(t) f(y) for a Laurent monomial
    chi_f in t1..tn, a unit.  B = T U, so f(t.u.rep) = chi_f(t) f(u.rep),
    and f vanishes on B.rep exactly when it vanishes on U.rep.

    ``adjoint(u, x)`` is linear in x, so u's map is read once, one
    ``adjoint`` per basis vector (``oracle._family``), and ``adjoint(u,
    rep)`` is the sum of the columns of rep's support, each times its
    coordinate."""
    reps, polys = list(reps), list(polys)
    n = reps[0].rank
    roots = pos_roots(n)
    entries = _family(BorelWord(n, None, generic_borel_word(n).factors))
    rows = []
    for rep in reps:
        coeffs = [rep.coord(root) for root in roots]
        moved = [LaurentPoly.zero] * len(roots)
        for row, col, entry in entries:
            if coeffs[col]:
                moved[row] = moved[row] + entry * coeffs[col]
        env = dict(zip(x_vars(n), moved))
        rows.append([_lift(poly.eval(env)) for poly in polys])
    return rows


def _lift(c) -> LaurentPoly:
    return c if isinstance(c, LaurentPoly) else LaurentPoly.const(c)


def generic_vanishing(cat: Catalog) -> dict:
    """Record id -> int mask of the classes of ``cat.pool`` that vanish on
    the record's generic orbit (bit k for class k), from one
    ``generic_pullbacks`` call over the pool at the first read, kept on the
    catalog (``Catalog.derived``).  Forward containment and the closure
    generators of ``order`` both read it."""

    def build():
        rows = generic_pullbacks([rec.representative for rec in cat.orbits],
                                 [poly for poly, _ in cat.pool])
        return {rec.id: sum(1 << k for k, v in enumerate(row) if v.is_zero())
                for rec, row in zip(cat.orbits, rows)}

    return cat.derived("generic", build)


@dataclass
class ForwardReport:
    orbit_id: str
    ok: bool
    zero_identities: int
    nonzero_nonvanishing: int
    detail: str = ""


def forward_containment(rec: OrbitRecord, cat: Catalog) -> ForwardReport:
    """Containment of the orbit in its defining set, as identities in the
    generic unipotent parameters (``generic_pullbacks``, whose torus factor
    would only multiply each pullback by a unit monomial): every zero-set
    generator pulls back to zero and every nonzero-set generator to a
    nonzero polynomial.  The polynomial ring over Q is a domain, so the
    nonzero pullbacks have a nonzero product and one generic point meets
    every nonzero condition at once.  The pullbacks are read off the
    catalog's ``generic_vanishing`` table and the record's sets off its
    ``Catalog.masks``, so rec must be a record of ``cat``."""
    zeros = generic_vanishing(cat)[rec.id]
    zero_mask, nonzero_mask = cat.masks[rec.id]
    if zero_mask & ~zeros:
        k = cat.first_in(rec.zero_set, zero_mask & ~zeros)
        return ForwardReport(rec.id, False, k, 0,
                             f"zero-set generator {rec.zero_strs[k]} has "
                             f"nonzero normal form")
    if nonzero_mask & zeros:
        k = cat.first_in(rec.nonzero_set, nonzero_mask & zeros)
        return ForwardReport(rec.id, False, len(rec.zero_set), k,
                             f"nonzero-set generator {rec.nonzero_strs[k]} "
                             f"vanishes identically")
    return ForwardReport(rec.id, True, len(rec.zero_set),
                         len(rec.nonzero_set))


# ---------------------------------------------------------------------------
# domain soundness


def _unit_factor(num: LaurentPoly, menv: MemberEnv) -> bool:
    """True when num factors as sign * monomial(protected letters/radicals)
    * product of protected polynomials.  The sign is +-1 (``is_unit``):
    another constant, 2 say, vanishes in some characteristic."""
    if num.is_zero():
        return False
    p, _ = _peel(num, menv.protected_polys)
    return p.is_unit() and p.used_vars() <= menv.protected_letters


def _defined(value: LaurentFraction, menv: MemberEnv) -> bool:
    """True when value has no pole on the set: its denominator is a unit,
    and so is each letter its numerator has a negative exponent of (the
    canonical form moves a +-monomial denominator into the numerator)."""
    value = value.reduce_radicals(menv.tower)
    return (_unit_factor(value.den, menv)
            and value.num.pole_vars() <= menv.protected_letters)


def first_non_unit(rec: OrbitRecord, menv: MemberEnv, word: BorelWord) -> str:
    """The first template expression that is not a unit on the set, "" when
    every one is: the value solved for each constraint's letter and each
    factor parameter must have no pole (``_defined``), and each radicand
    and each torus entry must be a unit (``_unit_factor``), in the
    template's order; no value is exempt.  ``word`` is the template word
    built over ``menv``.  Without this, the word proves only that a dense
    open part of the set lies in the orbit."""
    w, tower = rec.witness, menv.tower
    for letter in menv.solved_letters:
        if not _defined(menv.env[letter], menv):
            return f"the denominator of the value solved for {letter}"
    for rad, rel in zip(w.radicals, tower):
        if not _unit_factor(rel.radicand, menv):
            return f"radicand {rad.radicand!r} of {rad.name}"
    for s, t in zip(w.torus, word.torus.diag if word.torus else ()):
        t = t.reduce_radicals(tower)
        if not (_unit_factor(t.num, menv) and _unit_factor(t.den, menv)):
            return f"torus entry {s!r}"
    for (_, s), f in zip(w.factors, word.factors):
        if not _defined(f.param, menv):
            return f"the denominator of {s!r}"
    return ""


# ---------------------------------------------------------------------------
# whole-rank report


@dataclass
class WitnessReport:
    rank: int
    verdicts: list
    forward: list

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "forward": [{"id": f.orbit_id, "ok": f.ok, "detail": f.detail}
                        for f in self.forward],
            "witnesses": [{
                "id": v.orbit_id, "status": v.status,
                "as_printed": v.as_printed, "repairs": list(v.repairs),
                "detail": v.detail,
            } for v in self.verdicts],
        }

    def summary_table(self) -> str:
        lines = [f"{'orbit':<22} {'status':<20} {'as printed':<16} repair"]
        for v in self.verdicts:
            note = v.repairs[0] if v.repairs else ""
            lines.append(f"{v.orbit_id:<22} {v.status:<20} {v.as_printed:<16} {note}")
        return "\n".join(lines)


def verify_rank(cat: Catalog) -> WitnessReport:
    """Forward containment and the symbolic verdict of every record.
    Forward containment reads the catalog's ``generic_vanishing`` table;
    each distinct template or printed expression text is parsed once per
    call."""
    parsed: dict = {}
    verdicts = []
    forward = []
    for rec in cat.orbits:
        forward.append(forward_containment(rec, cat))
        verdicts.append(classify_verdict(rec, parsed))
    return WitnessReport(cat.rank, verdicts, forward)
