"""Witness verification: the proof that each catalog set equals its orbit.

Forward containment checks the inclusion orbit <= set as a polynomial
identity in fully generic Borel parameters.  The reverse inclusion is
certified by the catalog's witness templates: a Borel word whose parameters
are rational (and radical) expressions in the coordinates of a general
member m, with adjoint(word, representative) required to equal m exactly.

Coordinate letters inside templates denote 60th powers: a general member's
free coordinate c is replaced by c^60 (60 = lcm(2,3,4,5)), which turns every
fractional power of a coordinate into an integral Laurent exponent.
Composite (never monomial) radicands get formal radical variables from the
record's tower.  Every factorization runs through one exact trial-division
loop, ``_peel``.  ``verify_witness_numeric`` (random points over F_p) is a
cross-check; no verdict of ``verify_rank`` rests on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import (Fp, LaurentFraction, LaurentPoly, RadicalRelation,
                    _exact_divide, _frac_pow, _rational_root, eval_expr,
                    kth_roots, parse_expr, parse_poly, poly_to_str)
from .catalog import (Catalog, OrbitRecord, WitnessParseError, WitnessRadical,
                      WitnessTemplate, letter_of_var, parse_printed_word,
                      x_vars)
from .errors import DomainError, EvaluationError, SchemaError
from .lie import (BorelWord, NilElement, RootGroupFactor, TorusElement,
                  adjoint, commutator_nil, coordinate_letters, conjugate_nil,
                  fixing_root_groups, generic_borel_matrices, pos_roots,
                  torus_weight)

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

    rec: OrbitRecord
    env: dict                       # letter/radical name -> LaurentFraction
    tower: list                     # RadicalRelation list (evaluated radicands)
    target: dict                    # root -> LaurentFraction (member coords)
    free_letters: list
    solved_letters: list
    protected_polys: list           # evaluated non-monomial nonzero conditions
    protected_letters: set

    def member_element(self) -> NilElement:
        coords = {r: v for r, v in self.target.items() if not v.is_zero()}
        return NilElement(self.rec.rank, coords)


def build_member_env(rec: OrbitRecord, power: int = POWER) -> MemberEnv:
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
    for c in rec.witness.constraints:
        poly = parse_poly(c.poly, set(letters))
        lin = poly.derivative(c.solve)
        if c.solve in lin.used_vars():
            raise SchemaError(f"constraint {c.poly!r} is not linear in {c.solve}")
        rest = poly.subs({c.solve: LaurentFraction(0)}).num
        coeff = lin.subs(env)
        if coeff.is_zero():
            raise SchemaError(f"constraint {c.poly!r}: solve coefficient vanishes")
        value = -(rest.subs(env)) / coeff
        env[c.solve] = value
        solved.append(c.solve)
        if c.solve in free:
            free.remove(c.solve)
    tower: list[RadicalRelation] = []
    for rad in rec.witness.radicals:
        names = set(letters) | {r.new_var for r in tower}
        rad_poly = parse_poly(rad.radicand, names)
        val = rad_poly.subs(env)
        if not val.is_poly():
            raise SchemaError(
                f"radicand {rad.radicand!r} is not polynomial after constraints")
        if val.num.is_monomial():       # a unit: peeling it would never end
            raise SchemaError(f"record {rec.id}: radicand {rad.radicand!r} of "
                              f"radical {rad.name} is a monomial")
        tower.append(RadicalRelation(rad.name, rad.order, val.num))
        env[rad.name] = LaurentFraction(LaurentPoly.var(rad.name))
    target = {}
    for root, var in zip(pos_roots(n), x_vars(n)):
        target[root] = env[l_of_v[var]]
    protected_polys = []
    protected_letters = set()
    for p in rec.nonzero_set:
        val = p.subs({v: env[l_of_v[v]] for v in p.used_vars()})
        num = val.num
        if num.is_monomial():
            protected_letters |= num.used_vars()
        else:
            protected_polys.append(num)
    for rel in tower:
        # radicands are nonvanishing on the domain by the template contract
        if all(rel.radicand.items() != q.items() and
               (-rel.radicand).items() != q.items() for q in protected_polys):
            protected_polys.append(rel.radicand)
    return MemberEnv(rec, env, tower, target, free, solved,
                     protected_polys, protected_letters)


# ---------------------------------------------------------------------------
# tower-aware fractional powers


def _peel(p: LaurentPoly, divisors) -> tuple[LaurentPoly, list[int]]:
    """(cofactor, multiplicities): each divisor divided out of p as often as
    it goes, in list order.  A divisor that has stopped dividing p divides no
    p/d either, so restarting from the first divisor changes nothing.  p must
    be nonzero and the divisors non-monomial (a unit divides everything)."""
    mults = []
    for d in divisors:
        mult = 0
        while (q := _exact_divide(p, d)) is not None:
            p, mult = q, mult + 1
        mults.append(mult)
    return p, mults


def make_frac_pow(tower):
    """Fractional-power hook that peels tower radicands off composite bases."""

    def poly_power(p: LaurentPoly, e: Fraction) -> LaurentFraction:
        if p.is_zero():
            raise SchemaError("fractional power of zero")
        p, mults = _peel(p, [rel.radicand for rel in tower])
        factors = LaurentFraction(1)
        for rel, mult in zip(tower, mults):
            if mult:
                total = Fraction(rel.order * mult) * e
                if total.denominator != 1:
                    raise SchemaError(
                        f"power {e} of radicand^{mult} is not integral")
                factors = factors * LaurentFraction(
                    LaurentPoly.var(rel.new_var, int(total)))
        return factors * _frac_pow(LaurentFraction(p), e)

    def hook(base: LaurentFraction, e: Fraction) -> LaurentFraction:
        return poly_power(base.num, e) / poly_power(base.den, e)

    return hook


def eval_template_expr(text: str, menv: MemberEnv) -> LaurentFraction:
    node = parse_expr(text)
    return eval_expr(node, menv.env, make_frac_pow(menv.tower))


# ---------------------------------------------------------------------------
# building and verifying words


def template_word(rec: OrbitRecord, menv: MemberEnv,
                  torus_strs, factor_list) -> BorelWord:
    n = rec.rank
    torus = None
    if torus_strs:
        entries = tuple(eval_template_expr(s, menv) for s in torus_strs)
        for t in entries:
            if t.is_zero():
                raise DomainError("torus entry evaluates to zero")
        torus = TorusElement(n, entries)
    factors = tuple(RootGroupFactor(root, eval_template_expr(param, menv))
                    for root, param in factor_list)
    return BorelWord(n, torus, factors)


def _coord_residuals(rec, menv, word):
    """Coordinatewise differences adjoint(word, rep) - m, radical-reduced."""
    result = adjoint(word, rec.representative)
    residuals = []
    for root in pos_roots(rec.rank):
        got = result.coord(root)
        want = menv.target[root]
        diff = (LaurentFraction._lift(got) if not isinstance(got, LaurentFraction)
                else got) - want
        if not diff.is_zero():
            diff = diff.reduce_radicals(menv.tower)
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


# the as-printed word grammar lives in catalog.parse_printed_word


def verify_witness_symbolic(rec: OrbitRecord, use_printed: bool = False,
                            power: int = POWER) -> WitnessVerdict:
    """Symbolic verification of the witness word against a general member.

    With ``use_printed`` the as-printed transcription is parsed and checked
    instead of the normalized template; corrupted rows yield FailedAsPrinted.
    ``power`` may be any common multiple of the occurring root orders; the
    result must not depend on it.
    """
    return _verify_layer(rec, build_member_env(rec, power=power), use_printed)


def _verify_layer(rec: OrbitRecord, menv: MemberEnv,
                  use_printed: bool) -> WitnessVerdict:
    """One layer of ``verify_witness_symbolic`` against a built member."""
    if use_printed:
        text = rec.as_printed.get("word", "")
        if not text:
            return WitnessVerdict(rec.id, INCONCLUSIVE, as_printed="absent",
                                  detail="no as-printed word")
        try:
            torus, factors = parse_printed_word(text, rec.rank)
        except WitnessParseError as exc:
            return WitnessVerdict(rec.id, FAILED_AS_PRINTED,
                                  as_printed=f"parse-error@{exc.pos}",
                                  detail=str(exc))
        try:
            word = template_word(rec, menv, torus, factors)
            residuals = _coord_residuals(rec, menv, word)
        except (SchemaError, DomainError, EvaluationError) as exc:
            return WitnessVerdict(rec.id, FAILED_AS_PRINTED,
                                  as_printed="eval-error", detail=str(exc))
        if residuals:
            return WitnessVerdict(
                rec.id, FAILED_AS_PRINTED, as_printed="mismatch",
                residual=[(r, repr(d)) for r, d in residuals],
                detail="as-printed word does not reproduce the member")
        return WitnessVerdict(rec.id, VERIFIED_SYMBOLIC, as_printed="verified")
    w = rec.witness
    if not w.torus and not w.factors:
        # the zero orbit: any group element fixes the representative
        residuals = _coord_residuals(rec, menv, BorelWord(rec.rank))
        status = VERIFIED_SYMBOLIC if not residuals else FAILED_AS_PRINTED
        return WitnessVerdict(rec.id, status,
                              residual=[(r, repr(d)) for r, d in residuals])
    word = template_word(rec, menv, w.torus, w.factors)
    residuals = _coord_residuals(rec, menv, word)
    if residuals:
        return WitnessVerdict(rec.id, FAILED_AS_PRINTED,
                              residual=[(r, repr(d)) for r, d in residuals],
                              detail="normalized template failed")
    return WitnessVerdict(rec.id, VERIFIED_SYMBOLIC)


def classify_verdict(rec: OrbitRecord) -> WitnessVerdict:
    """Full per-record verdict: printed layer, normalized layer, repair notes.
    Both layers are checked against one general member."""
    menv = build_member_env(rec)
    printed = _verify_layer(rec, menv, use_printed=True)
    normalized = _verify_layer(rec, menv, use_printed=False)
    repairs = rec.witness_repairs()
    if normalized.status != VERIFIED_SYMBOLIC:
        return WitnessVerdict(rec.id, normalized.status,
                              as_printed=printed.as_printed,
                              residual=normalized.residual,
                              detail=normalized.detail, repairs=repairs)
    printed_ok = printed.as_printed in ("verified", "absent")
    if repairs or not printed_ok:
        return WitnessVerdict(rec.id, REPAIRED, as_printed=printed.as_printed,
                              detail=printed.detail, repairs=repairs)
    return WitnessVerdict(rec.id, VERIFIED_SYMBOLIC,
                          as_printed=printed.as_printed)


# ---------------------------------------------------------------------------
# numeric verification


def template_power(rec: OrbitRecord) -> int:
    """Least common multiple of the fractional-exponent denominators the
    record's template actually uses (1 when the word is radical-free)."""
    import math

    def denoms(node):
        kind = node[0]
        if kind == "pow":
            yield node[2].denominator
            yield from denoms(node[1])
        elif kind in ("neg",):
            yield from denoms(node[1])
        elif kind in ("add", "sub", "mul", "div"):
            yield from denoms(node[1])
            yield from denoms(node[2])

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
        word = (template_word(rec, menv, w.torus, w.factors)
                if (w.torus or w.factors) else BorelWord(rec.rank))
    except (SchemaError, DomainError) as exc:
        return WitnessVerdict(rec.id, FAILED_AS_PRINTED, detail=str(exc))
    rng = random.Random(repr((seed, p, rec.id)))
    done = 0
    attempts = 0
    max_attempts = 200 * trials + 200
    while done < trials:
        attempts += 1
        if attempts > max_attempts:
            return WitnessVerdict(rec.id, INCONCLUSIVE,
                                  detail=f"no valid sample after {attempts} tries")
        point = {letter: rng.randrange(1, p) for letter in menv.free_letters}
        try:
            ok_radicals = True
            for rel in menv.tower:
                val = rel.radicand.eval_mod_p(point, p)
                roots = kth_roots(val, rel.order)
                roots = [r for r in roots if r.v != 0]
                if not roots:
                    ok_radicals = False
                    break
                point[rel.new_var] = roots[0].v
            if not ok_radicals:
                continue
            member = {}
            bad = False
            for root in pos_roots(rec.rank):
                member[root] = menv.target[root].eval_mod_p(point, p)
            for poly in menv.protected_polys:
                if poly.eval_mod_p(point, p).is_zero():
                    bad = True
                    break
            if bad:
                continue
            torus = None
            if word.torus:
                torus = TorusElement(
                    rec.rank,
                    tuple(t.eval_mod_p(point, p) for t in word.torus.diag))
            factors = tuple(
                RootGroupFactor(f.root, f.param.eval_mod_p(point, p))
                for f in word.factors)
            numeric = BorelWord(rec.rank, torus, factors)
            got = adjoint(numeric, rec.representative)
        except (DomainError, EvaluationError):
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


@dataclass
class ForwardReport:
    orbit_id: str
    ok: bool
    zero_identities: int
    nonzero_nonvanishing: int
    sample_point: dict | None
    detail: str = ""


def forward_containment(rec: OrbitRecord, p: int = 101) -> ForwardReport:
    """Containment of the full orbit in its defining set, as an identity in
    generic torus and unipotent parameters."""
    n = rec.rank
    g, g_inv, tvars, fvars = generic_borel_matrices(n)
    moved = conjugate_nil(g, g_inv, rec.representative)
    coords = {}
    for root, var in zip(pos_roots(n), x_vars(n)):
        c = moved.coord(root)
        coords[var] = c if isinstance(c, LaurentPoly) else LaurentPoly.const(c)
    zero_ok = 0
    for poly, s in zip(rec.zero_set, rec.zero_strs):
        value = poly.eval(coords)
        if isinstance(value, Fraction):
            value = LaurentPoly.const(value)
        if not value.is_zero():
            return ForwardReport(rec.id, False, zero_ok, 0, None,
                                 f"zero-set generator {s} has nonzero normal form")
        zero_ok += 1
    nz_values = []
    for poly, s in zip(rec.nonzero_set, rec.nonzero_strs):
        value = poly.eval(coords)
        if isinstance(value, Fraction):
            value = LaurentPoly.const(value)
        if value.is_zero():
            return ForwardReport(rec.id, False, zero_ok, len(nz_values), None,
                                 f"nonzero-set generator {s} vanishes identically")
        nz_values.append(value)
    sample = None
    for seed in range(200):
        point = {}
        for i, v in enumerate(tvars):
            point[v] = (pow(3, seed + i + 1, p)) % p
        for i, v in enumerate(fvars):
            point[v] = (seed * 37 + 11 * i + 7) % p
        if any(x == 0 for k, x in point.items() if k in tvars):
            continue
        try:
            if all(val.eval_mod_p(point, p).v != 0 for val in nz_values):
                sample = point
                break
        except EvaluationError:
            continue
    if nz_values and sample is None:
        return ForwardReport(rec.id, False, zero_ok, len(nz_values), None,
                             "no parameter point with all nonzero conditions met")
    return ForwardReport(rec.id, True, zero_ok, len(nz_values), sample)


# ---------------------------------------------------------------------------
# domain soundness


def _unit_factor(num: LaurentPoly, menv: MemberEnv) -> bool:
    """True when num factors as sign * monomial(protected letters/radicals)
    * product of protected polynomials."""
    if num.is_zero():
        return False
    p, _ = _peel(num, menv.protected_polys)
    allowed = set(menv.protected_letters) | {r.new_var for r in menv.tower}
    return p.is_monomial() and p.used_vars() <= allowed


def witness_domain_sound(rec: OrbitRecord) -> bool:
    """Every denominator and radicand in the template is a unit on the set."""
    menv = build_member_env(rec)
    w = rec.witness
    values = []
    for s in w.torus:
        values.append(eval_template_expr(s, menv))
    for _, s in w.factors:
        values.append(eval_template_expr(s, menv))
    for letter in menv.solved_letters:
        values.append(menv.env[letter])
    for frac in values:
        f = frac.reduce_radicals(menv.tower)
        if not _unit_factor(f.den, menv):
            return False
    for rel in menv.tower:
        if not _unit_factor(rel.radicand, menv):
            return False
    for s in w.torus:
        if not _unit_factor(eval_template_expr(s, menv)
                            .reduce_radicals(menv.tower).num, menv):
            return False
    return True


# ---------------------------------------------------------------------------
# witness solver


def _descale_poly(p: LaurentPoly, radical_names: set, power: int = POWER) -> LaurentPoly:
    terms = {}
    for exps, c in p.terms.items():
        new = []
        for v, e in zip(p.vars, exps):
            if v in radical_names:
                new.append(e)
            else:
                if e % power:
                    raise SchemaError(f"exponent {e} of {v} not a multiple of {power}")
                new.append(e // power)
        terms[tuple(new)] = c
    return LaurentPoly(p.vars, terms)


def _mono_to_template(p: LaurentPoly, radical_names: set,
                      power: int = POWER) -> str:
    """Monomial to template text; letter exponents may descale fractionally."""
    (exps, c), = p.terms.items()
    parts = []
    for v, e in zip(p.vars, exps):
        if e == 0:
            continue
        if v in radical_names:
            q = Fraction(e)
        else:
            q = Fraction(e, power)
        if q == 1:
            parts.append(v)
        elif q.denominator == 1:
            exp = f"{q.numerator}" if q.numerator >= 0 else f"(-{-q.numerator})"
            parts.append(f"{v}^{exp}")
        else:
            parts.append(f"{v}^({q.numerator}/{q.denominator})")
    body = "*".join(parts)
    if not body:
        return str(c)
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    return f"{c}*{body}"


def _fraction_to_template(frac: LaurentFraction, menv: MemberEnv) -> str:
    radical_names = {r.new_var for r in menv.tower}
    f = frac.reduce_radicals(menv.tower)

    def side(p: LaurentPoly) -> str:
        if p.is_monomial():
            return _mono_to_template(p, radical_names)
        return poly_to_str(_descale_poly(p, radical_names))

    if f.den == LaurentPoly.one:
        return side(f.num)
    return f"({side(f.num)})/({side(f.den)})"


def _unit_decompose(value: LaurentFraction, menv: MemberEnv):
    """Write a domain unit as coeff * prod(letter^e) * prod(protected_poly^m);
    returns (coeff, {letter: e}, {poly index: m}) or None."""
    if value.num.is_zero():
        return None
    num, num_mults = _peel(value.num, menv.protected_polys)
    den, den_mults = _peel(value.den, menv.protected_polys)
    powers = {}
    for sign, mults in ((1, num_mults), (-1, den_mults)):
        for idx, m in enumerate(mults):
            if m:
                powers[idx] = powers.get(idx, 0) + sign * m
    if not (num.is_monomial() and den.is_monomial()):
        return None
    mono = num * den.monomial_inverse()
    (exps, coeff), = mono.terms.items()
    letters = {}
    for v, e in zip(mono.vars, exps):
        if e:
            letters[v] = e
    return coeff, letters, powers


def solve_witness(rec: OrbitRecord):
    """Best-effort witness solver.

    Peels the non-support coordinates of a general member with root-group
    moves taken in increasing root height, solves the torus from the support
    coordinates through the weight-exponent lattice (adjoining radical
    variables where the lattice requires k-th roots), and returns a template
    that verify_witness_symbolic accepts, or None when stuck.
    """
    menv = build_member_env(rec)
    n = rec.rank
    rep = rec.representative
    supp = set(rep.support())
    movable = [r for r in pos_roots(n) if r not in fixing_root_groups(rep)]
    current = menv.member_element()
    moves: list[tuple[tuple[int, int], LaurentFraction]] = []
    used = set()
    cleared: list[tuple[int, int]] = []

    def coord(elem, root):
        c = elem.coord(root)
        return c if isinstance(c, LaurentFraction) else LaurentFraction._lift(c)

    for gamma in pos_roots(n):
        if gamma in supp:
            continue
        val = coord(current, gamma).reduce_radicals(menv.tower)
        if val.is_zero():
            cleared.append(gamma)
            continue
        applied = False
        for delta in movable:
            if delta in used:
                continue
            bracket = commutator_nil(n, delta, current)
            k = coord(bracket, gamma)
            if k.is_zero():
                continue
            kd = _unit_decompose(k.reduce_radicals(menv.tower), menv)
            if kd is None:
                continue
            c = -val / k
            word = BorelWord(n, None, (RootGroupFactor(delta, c),))
            candidate = adjoint(word, current)
            bad = False
            for prev in cleared:
                if not coord(candidate, prev).reduce_radicals(menv.tower).is_zero():
                    bad = True
                    break
            if bad or not coord(candidate, gamma).reduce_radicals(menv.tower).is_zero():
                continue
            for beta in supp:
                if _unit_decompose(coord(candidate, beta)
                                   .reduce_radicals(menv.tower), menv) is None:
                    bad = True
                    break
            if bad:
                continue
            current = candidate
            moves.append((delta, c))
            used.add(delta)
            applied = True
            break
        if not applied:
            return None
        cleared.append(gamma)

    # torus from the support coordinates: solve prod t_i^E[beta][i] = c_beta
    supp_list = [r for r in pos_roots(n) if r in supp]
    rows = []
    for (i, j) in supp_list:
        e = [0] * n
        e[i - 1] += 1
        if j + 1 <= n:
            e[j] -= 1
        else:
            # t_{n+1}^{-1} = t_1 ... t_n
            for k2 in range(n):
                e[k2] += 1
        rows.append(e)
    # Gaussian elimination over Q, tracking rhs as formal combinations of c_beta
    m = len(rows)
    aug = [[Fraction(x) for x in rows[b]] +
           [Fraction(1) if k == b else Fraction(0) for k in range(m)]
           for b in range(m)]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        scale = aug[r][col]
        aug[r] = [x / scale for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    # Rows past r are dependent relations between the support weights.  They
    # must also hold between the c_beta; this solver does not check that,
    # and the final verify_witness_symbolic acceptance check rejects a
    # template where one fails.
    exps = {}
    for row_idx, col in enumerate(pivots):
        exps[col] = aug[row_idx][n:]

    c_values = [coord(current, b).reduce_radicals(menv.tower) for b in supp_list]
    decomposed = []
    for cv in c_values:
        d = _unit_decompose(cv, menv)
        if d is None:
            return None
        decomposed.append(d)

    new_radicals: list[WitnessRadical] = list(rec.witness.radicals)
    tower_map = {r.new_var: r for r in menv.tower}

    def unit_power(idx_weights) -> LaurentFraction:
        """prod_beta c_beta ^ w_beta with rational weights."""
        coeff = Fraction(1)
        letter_exp: dict[str, Fraction] = {}
        poly_exp: dict[int, Fraction] = {}
        for (c0, letters, polys), w in zip(decomposed, idx_weights):
            if w == 0:
                continue
            if c0 != 1:
                coeff *= _rational_root(c0, w)
            for v, e in letters.items():
                letter_exp[v] = letter_exp.get(v, Fraction(0)) + Fraction(e) * w
            for i2, e in polys.items():
                poly_exp[i2] = poly_exp.get(i2, Fraction(0)) + Fraction(e) * w
        out = LaurentFraction(LaurentPoly.const(coeff))
        for v, e in letter_exp.items():
            if e.denominator != 1:
                raise SchemaError("letter exponent not integral")
            out = out * LaurentFraction(LaurentPoly.var(v, int(e)))
        for i2, e in poly_exp.items():
            prot = menv.protected_polys[i2]
            if e.denominator == 1:
                out = out * LaurentFraction(prot) ** int(e)
            else:
                order = e.denominator
                if order not in (2, 3, 4, 5):
                    raise SchemaError(f"needs an order-{order} radical")
                name = None
                for rel in menv.tower:
                    if rel.order == order and rel.radicand == prot:
                        name = rel.new_var
                        break
                if name is None:
                    name = f"W{len(new_radicals) + 1}"
                    radical_names = {x.new_var for x in tower_map.values()}
                    new_radicals.append(WitnessRadical(
                        name, order,
                        poly_to_str(_descale_poly(prot, radical_names))))
                    rel = RadicalRelation(name, order, prot)
                    menv.tower.append(rel)
                    tower_map[name] = rel
                    menv.env[name] = LaurentFraction(LaurentPoly.var(name))
                out = out * LaurentFraction(LaurentPoly.var(name)) ** int(e * order)
        return out.reduce_radicals(menv.tower)

    try:
        torus_vals = []
        for i in range(n):
            if i in exps:
                torus_vals.append(unit_power(exps[i]))
            else:
                torus_vals.append(LaurentFraction(1))
    except SchemaError:
        return None

    torus = TorusElement(n, tuple(torus_vals))
    # b = u^{-1} T rewritten torus-first: parameters scale by inverse weights
    factor_list = []
    for delta, c in moves:
        weight = torus_weight(torus, delta)
        factor_list.append((delta, (-c) / weight))

    torus_strs = tuple(_fraction_to_template(t, menv) for t in torus_vals)
    factor_strs = tuple((d, _fraction_to_template(v, menv)) for d, v in factor_list)
    template = WitnessTemplate(
        constraints=rec.witness.constraints,
        radicals=tuple(new_radicals),
        torus=torus_strs,
        factors=factor_strs)
    # acceptance check before returning
    trial = OrbitRecord(
        id=rec.id, rank=rec.rank, representative=rec.representative,
        zero_set=rec.zero_set, nonzero_set=rec.nonzero_set,
        zero_strs=rec.zero_strs, nonzero_strs=rec.nonzero_strs,
        dim=rec.dim, witness=template, as_printed=rec.as_printed,
        notes=rec.notes)
    verdict = verify_witness_symbolic(trial)
    if verdict.status != VERIFIED_SYMBOLIC:
        return None
    return template


# ---------------------------------------------------------------------------
# whole-rank report


@dataclass
class WitnessReport:
    rank: int
    verdicts: list
    forward: list

    @property
    def all_certified(self) -> bool:
        return (all(v.certified for v in self.verdicts)
                and all(f.ok for f in self.forward))

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
    """Forward containment and the symbolic verdict of every record."""
    verdicts = []
    forward = []
    for rec in cat.orbits:
        forward.append(forward_containment(rec))
        verdicts.append(classify_verdict(rec))
    return WitnessReport(cat.rank, verdicts, forward)
