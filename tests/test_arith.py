"""Coefficient-ring tests: canonical forms, radical rewriting, evaluation."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from orbit_atlas.arith import (_SHIFT, EXP_LIMIT, QUOTIENT_LIMIT, Fp,
                               LaurentFraction, LaurentPoly, Quotient,
                               RadicalRelation, _degree_boxes, _exact_divide,
                               _Parser, _strip_content, eval_expr, expr_vars,
                               inv_elem, is_prime, is_zero_elem, kth_roots,
                               normalize, parse_expr, parse_poly, poly_to_str,
                               primitive_root, radical_poles)
from orbit_atlas.errors import DomainError, SchemaError
from reference import (TokenParser, degree_boxes, fixed_point_normalize,
                       fraction_parse_poly, fraction_power, token_vars)

V = LaurentPoly.var


def rand_poly(draw_terms):
    vars_ = ("a", "b", "c")
    p = LaurentPoly()
    for exps, coeff in draw_terms:
        p = p + LaurentPoly(vars_, {tuple(exps): coeff})
    return p


poly_strategy = st.builds(
    rand_poly,
    st.lists(st.tuples(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        st.integers(-9, 9)), max_size=5))


@settings(max_examples=150, deadline=None)
@given(poly_strategy, poly_strategy, poly_strategy)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + LaurentPoly() == p
    assert p * LaurentPoly.const(1) == p


@settings(max_examples=100, deadline=None)
@given(poly_strategy)
def test_canonical_form_no_zero_terms(p):
    assert all(c != 0 for c in p.terms.values())
    assert p - p == LaurentPoly()


def test_parse_and_print_roundtrip():
    # the printed form is canonical: variables in name order, terms in
    # descending lex order over them, whatever order the text gave
    p = parse_poly("X22*X13 - X12*X23")
    assert poly_to_str(p) == "-X12*X23 + X13*X22"
    assert parse_poly(poly_to_str(p)) == p


def test_parse_rejects_unknown_variable():
    with pytest.raises(SchemaError):
        parse_poly("X99 + X11", allowed_vars={"X11"})


def test_parse_rejects_division_in_poly_grammar():
    with pytest.raises(SchemaError):
        parse_poly("X11/X12")


def test_dependency_identity_normalizes_to_zero():
    p = parse_poly(
        "X22*(X13*X24 - X23*X14) - X24*(X22*X13 - X12*X23)"
        " + X23*(X22*X14 - X12*X24)")
    assert p.is_zero()


def test_radical_rewrite_examples():
    rel = RadicalRelation("R", 2, parse_poly("v*z - x*y"))
    assert normalize(V("R") ** 2 - parse_poly("v*z - x*y"), [rel]).is_zero()
    assert normalize(V("R") ** 3, [rel]) == V("R") * parse_poly("v*z - x*y")


def test_radical_rewrite_confluence():
    r1 = RadicalRelation("R1", 2, parse_poly("a*b - c"))
    r2 = RadicalRelation("R2", 3, V("R1") * V("a") + V("c"))
    p = (V("R2") ** 7) * (V("R1") ** 5) + V("R2") * V("R1")
    one = normalize(p, [r1, r2])
    # reducing an already-reduced polynomial changes nothing (idempotence)
    assert normalize(one, [r1, r2]) == one
    # a different reduction path (rewrite R1 by hand first) reaches the same
    # normal form
    partial = ((V("R2") ** 7) * (V("R1") * parse_poly("a*b - c") ** 2)
               + V("R2") * V("R1"))
    assert normalize(partial, [r1, r2]) == one
    # non-triangular towers are rejected outright
    with pytest.raises(SchemaError):
        normalize(p, [r2, r1])


def test_tower_must_be_triangular():
    bad = [RadicalRelation("R", 2, V("S")), RadicalRelation("S", 2, V("a"))]
    with pytest.raises(SchemaError):
        normalize(V("R"), bad)


def test_negative_radical_exponent_rejected():
    rel = RadicalRelation("R", 2, parse_poly("a"))
    with pytest.raises(DomainError):
        normalize(V("R") ** -1, [rel])


_BASE = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                        st.integers(-4, 4), max_size=3)


@st.composite
def tower_and_poly(draw):
    """A triangular tower of 1-3 radicals of orders 2-5, each radicand after
    the first naming an earlier radical, and a polynomial whose radical
    exponents run up to 3 * order."""
    names = ("R1", "R2", "R3")[:draw(st.integers(1, 3))]
    tower = []
    for i, name in enumerate(names):
        radicand = LaurentPoly(("a", "b"), draw(_BASE))
        if i:
            j = draw(st.integers(0, i - 1))
            e = draw(st.integers(1, tower[j].order))
            radicand = radicand + draw(st.integers(1, 3)) * V(names[j], e)
        tower.append(RadicalRelation(name, draw(st.integers(2, 5)), radicand))
    top = {rel.new_var: st.integers(0, 3 * rel.order) for rel in tower}
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-2, 2), *top.values()), st.integers(-4, 4),
        max_size=4))
    return tower, LaurentPoly(("a", *top), terms)


@settings(max_examples=150, deadline=None)
@given(tower_and_poly())
def test_one_pass_normalize_matches_the_fixed_point(drawn):
    tower, p = drawn
    got = normalize(p, tower)
    assert got._t == fixed_point_normalize(p, tower)._t
    for rel in tower:
        if rel.new_var in got.vars:
            i = got.vars.index(rel.new_var)
            assert all(0 <= exps[i] < rel.order for exps in got.terms)
    if len(tower) > 1:
        with pytest.raises(SchemaError, match="mentions later radical"):
            normalize(p, tower[::-1])


def test_substitute_constraint_saturation():
    p = parse_poly("v*z - x*y")
    env = {v: LaurentFraction(V(v)) for v in ("v", "x", "y")}
    env["z"] = LaurentFraction(V("x") * V("y"), V("v"))
    assert p.eval(env) == 0
    q = V("X11")
    assert q.eval({"X11": LaurentFraction(V("X11"))}) == LaurentFraction(V("X11"))


def test_substitute_through_zero_pole_rejected():
    p = V("a") ** -1
    with pytest.raises(DomainError):
        p.eval({"a": LaurentFraction(0)})


def _fp_point(point, p):
    return {v: Fp(x, p) for v, x in point.items()}


def test_eval_mod_p_examples():
    # F_p values come from ``eval`` over Fp bindings
    assert V("X14").eval({"X14": Fp(4, 5)}) == Fp(4, 5)
    p = parse_poly("X22*X13 - X12*X23")
    val = p.eval(_fp_point({"X22": 1, "X13": 2, "X12": 3, "X23": 4}, 7))
    assert val == Fp(4, 7)


def test_eval_mod_p_pole_detection():
    p = V("a") ** -1
    with pytest.raises(DomainError, match="0 has no inverse in F_7"):
        p.eval({"a": Fp(0, 7)})


@settings(max_examples=80, deadline=None)
@given(poly_strategy, st.integers(0, 100))
def test_eval_commutes_with_reduction(p, seed):
    prime = 101
    point = {v: (seed * 13 + i * 7 + 1) % prime for i, v in enumerate(("a", "b", "c"))}
    if any(val == 0 for val in point.values()):
        return
    exact = p.eval({k: Fraction(v) for k, v in point.items()})
    if exact.denominator % prime == 0:
        return
    lhs = Fp(0, prime) + p.eval(_fp_point(point, prime))
    rhs = Fp(exact.numerator, prime) / Fp(exact.denominator, prime)
    assert lhs == rhs


def test_dependency_identity_mod_p_agreement():
    lhs = parse_poly("X22*(X13*X24 - X23*X14)")
    rhs = parse_poly("X24*(X22*X13 - X12*X23) - X23*(X22*X14 - X12*X24)")
    import random
    rng = random.Random(7)
    for _ in range(20):
        pt = {v: rng.randrange(101)
              for v in ("X22", "X12", "X23", "X13", "X24", "X14")}
        pt = _fp_point(pt, 101)
        assert Fp(0, 101) + lhs.eval(pt) == Fp(0, 101) + rhs.eval(pt)


def test_fraction_equality_cross_multiplication():
    a = LaurentFraction(V("x") * V("y"), V("v"))
    b = LaurentFraction(V("x") * V("y") * V("w"), V("v") * V("w"))
    assert a == b
    assert LaurentFraction(V("x")) != LaurentFraction(V("y"))


def test_fraction_monomial_denominators_fold():
    f = LaurentFraction(parse_poly("a*b + c"), V("a"))
    g = f * LaurentFraction(V("a"))
    assert g.is_poly()
    assert g.num == parse_poly("a*b + c")


def test_fraction_exact_cancellation():
    num = parse_poly("a*b + c") * parse_poly("a - c")
    f = LaurentFraction(num, parse_poly("a*b + c"))
    assert f.is_poly()
    assert f.num == parse_poly("a - c")


def test_fraction_zero_denominator_rejected():
    with pytest.raises(DomainError):
        LaurentFraction(V("a"), LaurentPoly())


def test_expr_fractional_powers():
    node = parse_expr("x^(2/3)*y^(1/3)")
    env = {"x": LaurentFraction(V("x", 60)), "y": LaurentFraction(V("y", 60))}
    out = eval_expr(node, env)
    assert out == LaurentFraction(V("x", 40) * V("y", 20))
    with pytest.raises(SchemaError):
        eval_expr(parse_expr("(x + y)^(1/2)"), env)


def test_primitive_roots_and_kth_roots():
    assert primitive_root(2) == 1
    for p in (3, 5, 7, 11, 61, 181):
        g = primitive_root(p)
        assert sorted(pow(g, k, p) for k in range(p - 1)) == list(range(1, p))
    roots = kth_roots(Fp(4, 61), 2)
    assert all(r * r == Fp(4, 61) for r in roots) and roots


def test_fp_arithmetic():
    a, b = Fp(5, 7), Fp(4, 7)
    assert a + b == Fp(2, 7)
    assert a * b == Fp(6, 7)
    assert (a / b) * b == a
    assert a ** -1 * a == Fp(1, 7)
    with pytest.raises(DomainError):
        Fp(0, 7).inv()


def test_fp_is_unhashable():
    # Fp(3, 5) equals both 3 and 8, whose hashes differ: no hash of Fp can
    # agree with equality mod p
    a = Fp(3, 5)
    assert a == 3 and a == 8 and a == Fp(8, 5)
    with pytest.raises(TypeError):
        hash(a)


@given(st.integers(-10**30, 10**30))
def test_a_constant_polynomial_hashes_as_its_value(c):
    # zero included; over a display variable as over none; an integral
    # Fraction is the same value
    for p in (LaurentPoly.const(c), LaurentPoly(("a",), {(0,): c})):
        for value in (c, Fraction(c)):
            assert p == value and hash(p) == hash(value)
            assert value in {p} and p in {value}
        assert p != Fraction(2 * c + 1, 2)


def test_fraction_equal_values_are_unhashable():
    # equal values need not share a canonical form, so the type has no hash
    # (one that agrees with == would need a gcd)
    x, y = V("x"), V("y")
    a = LaurentFraction((x + 1) * (y + 1), (x - 1) * (y + 1))
    b = LaurentFraction(x + 1, x - 1)
    assert a == b
    for f in (a, b):
        with pytest.raises(TypeError):
            hash(f)


def test_frac_pow_takes_a_constant_root_of_plus_or_minus_one_only():
    # (-1)^(1/3) is -1; every other constant's root is refused by name,
    # even where it exists, as 4^(1/2) does
    assert eval_expr(parse_expr("(-1)^(1/3)"), {}) == LaurentFraction(-1)
    assert eval_expr(parse_expr("(-1)^(2/3)"), {}) == LaurentFraction(1)
    env = {"x": LaurentFraction(V("x", 2))}
    for text, c in (("(-1)^(1/2)", -1), ("(4*x)^(1/2)", 4)):
        with pytest.raises(SchemaError, match=f"1/2 of the constant {c};"):
            eval_expr(parse_expr(text), env)


# ---------------------------------------------------------------------------
# exact division decided by the degree box


def test_exact_divide_returns_large_quotients():
    # 680 quotient terms, well under QUOTIENT_LIMIT, and still exact
    q = parse_poly("a + b + c + 1") ** 14
    d = parse_poly("a + 1")
    assert len(q.terms) == 680
    assert _exact_divide(q * d, d) == q


def test_a_long_exact_division_stops_at_the_quotient_limit():
    # (a^k + 1) / (a + 1) with odd k is exact with k quotient terms: the
    # division stops at QUOTIENT_LIMIT of them, however large the box, and
    # a pair that does not divide walks the box just as far
    a, den = V("a"), V("a") + 1
    below = V("a", QUOTIENT_LIMIT - 1) + 1
    assert len(_exact_divide(below, den).terms) == QUOTIENT_LIMIT - 1
    for k in (QUOTIENT_LIMIT + 1, 2_000_001):
        assert k <= EXP_LIMIT
        for num, build in ((a**k + 1, _exact_divide),
                           (a**k + 1, LaurentFraction),
                           (a**k + 2, _exact_divide)):
            with pytest.raises(DomainError, match=re.escape(
                    f"dividing {poly_to_str(num)} by a + 1 takes more than "
                    f"{QUOTIENT_LIMIT} quotient terms")):
                build(num, den)


def test_exact_divide_empty_box():
    # deg_x(num) - deg_x(den) = -1: no quotient term can exist
    assert _exact_divide(parse_poly("x^2 + 1"), parse_poly("x^3 + 1")) is None


def test_exact_divide_first_quotient_term_leaves_box():
    # box: x in [0, 0], y in [0, 1]; the first lex quotient term x/(x*y)
    # has y-degree -1
    assert _exact_divide(parse_poly("x + y^2"), parse_poly("x*y + 1")) is None


def test_exact_divide_laurent_and_monomial_divisors():
    x, y = V("x"), V("y")
    num = (x * V("y", -2) + 3) * (V("x", -1) - y)
    assert _exact_divide(num, V("x", -1) - y) == x * V("y", -2) + 3
    assert _exact_divide(num, V("y", 5)) == num * V("y", -5)
    assert _exact_divide(num, LaurentPoly()) is None
    assert _exact_divide(LaurentPoly(), x + y) == LaurentPoly()


@settings(max_examples=200, deadline=None)
@given(poly_strategy, poly_strategy, poly_strategy)
def test_exact_divide_decides_divisibility(p, d, n):
    assume(not d.is_zero())
    assert _exact_divide(p * d, d) == p
    q = _exact_divide(n, d)
    assert q is None or q * d == n


def test_is_prime_is_exact_on_huge_integers():
    assert not is_prime(10**400)
    assert not is_prime(3**300)
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17,
                                                     19, 23, 29]


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if trial(n)]


def test_is_prime_is_fast_below_the_miller_rabin_bound():
    assert is_prime(1000000000000000003)          # 10^18 + 3
    assert not is_prime(1000000007 * 998244353)
    # composites that pass Miller-Rabin for every prime base up to 31, and
    # up to 37: only the later bases reject them
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    with pytest.raises(SchemaError, match="too large"):
        is_prime(2**89 - 1)                        # prime, above the bound


# ---------------------------------------------------------------------------
# the kernel against a reference: dicts keyed by sorted (var, exp) pairs


# equal, prefix, disjoint and interleaved registries, and the constants' ()
REGISTRIES = (("a", "b", "c"), ("a", "b"), ("a", "b", "c", "d"), ("d", "e"),
              ("c", "a", "b"), ())
SMALL = st.integers(-2, 2)
# exponents near half the slot limit, so that a product still fits and a
# cube does not
HALF_LIMIT = EXP_LIMIT // 2
NEAR_SLOT_WIDTH = (SMALL | st.integers(HALF_LIMIT - 2, HALF_LIMIT)
                   | st.integers(-HALF_LIMIT, 2 - HALF_LIMIT))


@st.composite
def mixed_poly(draw, exponents=SMALL):
    reg = draw(st.sampled_from(REGISTRIES))
    terms = draw(st.dictionaries(
        st.tuples(*[exponents] * len(reg)),
        st.integers(-6, 6), max_size=4))
    return LaurentPoly(reg, terms)


def ref(p: LaurentPoly) -> dict:
    out = {}
    for exps, c in p.terms.items():
        key = tuple(sorted((v, e) for v, e in zip(p.vars, exps) if e))
        out[key] = out.get(key, Fraction(0)) + Fraction(c)
    return {k: c for k, c in out.items() if c}


def ref_add(x: dict, y: dict, sign: int = 1) -> dict:
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, Fraction(0)) + sign * c
    return {k: c for k, c in out.items() if c}


def ref_mul(x: dict, y: dict) -> dict:
    out = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            exps = dict(k1)
            for v, e in k2:
                exps[v] = exps.get(v, 0) + e
            key = tuple(sorted((v, e) for v, e in exps.items() if e))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: c for k, c in out.items() if c}


def assert_canonical(p: LaurentPoly):
    assert isinstance(p.vars, tuple)
    for exps, c in p.terms.items():
        assert type(exps) is tuple and len(exps) == len(p.vars)
        assert type(c) is int and c != 0


def check_ring_ops(p, d, k):
    """+, -, *, ** and the exact division of a multiple against the
    reference."""
    rp, rd = ref(p), ref(d)
    for got, want in ((p + d, ref_add(rp, rd)), (p - d, ref_add(rp, rd, -1)),
                      (-p, ref_add({}, rp, -1)), (p * d, ref_mul(rp, rd)),
                      (d * p, ref_mul(rp, rd))):
        assert_canonical(got)
        assert ref(got) == want
    top = max((abs(e) for exps in p.terms for e in exps), default=0)
    if k * top > EXP_LIMIT:
        with pytest.raises(DomainError, match="would leave its slot"):
            p ** k
    else:
        power, want = p ** k, {(): Fraction(1)}
        for _ in range(k):
            want = ref_mul(want, rp)
        assert_canonical(power)
        assert ref(power) == want
    if d.is_zero():
        return
    q = _exact_divide(p * d, d)
    assert_canonical(q)
    assert ref(q) == rp


@settings(max_examples=250, deadline=None)
@given(mixed_poly(), mixed_poly(), mixed_poly(NEAR_SLOT_WIDTH),
       mixed_poly(NEAR_SLOT_WIDTH), st.integers(0, 3))
def test_kernel_matches_reference(p, d, wide_p, wide_d, k):
    check_ring_ops(wide_p, wide_d, k)
    check_ring_ops(p, d, k)
    if d.is_zero():
        return
    # fractions only at small exponents: p / d may divide exactly with a
    # quotient as wide as the degree box ((a^n + 1) / (a + 1) has n terms)
    rp, rd = ref(p), ref(d)
    f = LaurentFraction(p, d)
    assert_canonical(f.num)
    assert_canonical(f.den)
    assert ref_mul(ref(f.num), rd) == ref_mul(rp, ref(f.den))
    if d.is_unit():
        assert f.is_poly()
    if not f.is_poly():
        assert _exact_divide(f.num, f.den) is None


# names no other test uses, so each is registered when a draw first uses
# it, after every other name of the session: a high slot
LATE = tuple(f"late{k}" for k in range(8))


@st.composite
def late_poly(draw, exponents=NEAR_SLOT_WIDTH):
    reg = tuple(draw(st.lists(st.sampled_from(("a", "b") + LATE),
                              unique=True, max_size=4)))
    terms = draw(st.dictionaries(st.tuples(*[exponents] * len(reg)),
                                 st.integers(-6, 6), max_size=4))
    return LaurentPoly(reg, terms)


@settings(max_examples=250, deadline=None)
@given(mixed_poly(NEAR_SLOT_WIDTH) | late_poly(),
       mixed_poly(NEAR_SLOT_WIDTH) | late_poly())
def test_degree_boxes_read_off_packed_keys_match_the_decoding(p, q):
    # negative exponents, exponents near half of EXP_LIMIT and names in
    # late, high slots: each used slot once, with its boxes, keyed by its
    # bit offset
    want = sorted((_SHIFT[v], pbox, qbox) for v, pbox, qbox
                  in degree_boxes(p, q))
    assert sorted(_degree_boxes(p, q)) == want


@settings(max_examples=250, deadline=None)
@given(mixed_poly(NEAR_SLOT_WIDTH) | late_poly())
@example(V("x", -1) * V("y") + V("y", -2))
def test_pole_vars_read_off_packed_keys_match_the_decoding(p):
    # the variables of a negative exponent in some term, exponents near half
    # of EXP_LIMIT and names in late, high slots included
    assert p.pole_vars() == {v for exps in p.terms
                             for v, e in zip(p.vars, exps) if e < 0}


@settings(max_examples=150, deadline=None)
@given(mixed_poly() | late_poly(SMALL), mixed_poly() | late_poly(SMALL))
@example(V("x") * V("y") + 1, V("x") + V("y"))
@example(V("x") * V("y") + V("x"), V("x") ** 2 + V("x") * V("y"))
def test_strip_content_divides_out_the_common_monomial(p, q):
    content = {v: min(plo, qlo)
               for v, (plo, _), (qlo, _) in degree_boxes(p, q)}
    monomial = LaurentPoly(tuple(content), {tuple(content.values()): 1})
    a, b = _strip_content(p, q)
    assert a * monomial == p and b * monomial == q
    assert all(min(alo, blo) == 0
               for _, (alo, _), (blo, _) in degree_boxes(a, b))
    # no content: the very operands come back, no copy
    assert (a is p and b is q) == (not any(content.values()))


def test_an_exponent_that_would_leave_its_slot_raises():
    x, y = V("x", EXP_LIMIT), V("y")
    assert V("x", -EXP_LIMIT).monomial_inverse() == x
    assert (x * y).terms == {(EXP_LIMIT, 1): 1}     # separate slots
    assert x.derivative("x").terms == {(EXP_LIMIT - 1,): EXP_LIMIT}
    for build in (lambda: V("x", EXP_LIMIT + 1),
                  lambda: V("x", -EXP_LIMIT - 1),
                  lambda: x * V("x"),
                  lambda: V("x", -EXP_LIMIT) / V("x"),
                  lambda: V("x") ** (EXP_LIMIT + 1),
                  lambda: (V("x", HALF_LIMIT + 1) + 1) ** 2,
                  lambda: (V("x", HALF_LIMIT + 1) + y) * (V("x", HALF_LIMIT)
                                                          + 1) * V("x"),
                  lambda: V("x", -EXP_LIMIT).derivative("x"),
                  lambda: LaurentPoly(("x",), {(EXP_LIMIT + 1,): 1}),
                  # the canonical form of this fraction needs x^(2 EXP_LIMIT)
                  lambda: LaurentFraction(x + 1, V("x", -EXP_LIMIT) + y)):
        with pytest.raises(DomainError, match="would leave its slot"):
            build()


def test_integral_coefficients_are_ints():
    p = LaurentPoly(("a",), {(1,): 4, (0,): -3})
    twice = p + p
    assert twice.terms == {(1,): 8, (0,): -6}
    assert all(type(c) is int for c in twice.terms.values())
    # 6a + 3 divided by 2a + 1 through the lex division loop, by divmod:
    # the quotient 3 is an int, never a float or a Fraction
    q = _exact_divide(V("a") * 6 + 3, V("a") * 2 + 1)
    assert q.terms == {(): 3}      # a constant uses no variable
    assert_canonical(q)


def test_equal_polynomials_hash_equal_across_registries():
    a, b = V("a"), V("b")
    p = a * b + 2
    prefix = LaurentPoly(("a", "b", "c"), {(1, 1, 0): 1, (0, 0, 0): 2})
    interleaved = LaurentPoly(("b", "c", "a"), {(1, 0, 1): 1, (0, 0, 0): 2})
    assert p == prefix == interleaved
    assert hash(p) == hash(prefix) == hash(interleaved) == hash(p)
    zero = LaurentPoly(("a",), {})
    assert zero == LaurentPoly() and hash(zero) == hash(LaurentPoly())
    # the cached hash of one operand never leaks into a result
    assert hash(p * a) == hash(LaurentPoly(("a", "b"), {(2, 1): 1, (1, 0): 2}))


# one term: exponents over a few variables, listed in the drawn order (an
# exponent may be 0), and a coefficient
_TERM = st.tuples(st.dictionaries(st.sampled_from(("a", "b", "c", "d")),
                                  SMALL, max_size=3),
                  st.integers(-3, 3))


def _sum_of(terms) -> LaurentPoly:
    p = LaurentPoly()
    for exps, c in terms:
        p = p + LaurentPoly(tuple(exps), {tuple(exps.values()): c})
    return p


@st.composite
def _two_orders(draw):
    terms = draw(st.lists(_TERM, max_size=5))
    return draw(st.permutations(terms)), draw(st.permutations(terms))


@settings(max_examples=200, deadline=None)
@given(_two_orders(), st.lists(_TERM, max_size=3))
def test_equal_polynomials_print_alike(orders, factor_terms):
    # the same terms summed in two orders, and a product with its factors
    # swapped: one variable order, one term map, one text
    p, q = (_sum_of(terms) for terms in orders)
    f = _sum_of(factor_terms)
    for x, y in ((p, q), (p * f, f * q)):
        assert (x.vars, x.terms, poly_to_str(x), repr(x)) == (
            y.vars, y.terms, poly_to_str(y), repr(y))
        used = {v for exps in x.terms for v, e in zip(x.vars, exps) if e}
        assert x.vars == tuple(sorted(used))
        assert LaurentPoly(x.vars, x.terms) == x


def test_vars_are_the_variables_the_terms_use():
    x, y = V("x"), V("y")
    assert (x * y * x**-1).vars == ("y",)
    assert (x - x).vars == () and LaurentPoly(("x",), {(0,): 2}).vars == ()
    assert poly_to_str(parse_poly("X12 + X11")) == "X11 + X12"


@pytest.mark.parametrize("parse, text, message", [
    (parse_expr, "u*\u00b2", "unexpected character '\u00b2' at position 2"),
    (parse_poly, "X11 + \u0661",
     "unexpected character '\u0661' at position 6"),
    (parse_expr, "u^(1/0)",
     "zero denominator in the exponent at position 5 in 'u^(1/0)'"),
    (parse_expr, "(" * 33 + "u" + ")" * 33,
     "parentheses and unary minus nest deeper than 32 at position 32"),
    (parse_poly, "X11*" + "-" * 33 + "X11",
     "parentheses and unary minus nest deeper than 32 at position 36"),
    (parse_expr, "sqrt(" * 16 + "-(" * 17 + "u" + ")" * 33,
     "parentheses and unary minus nest deeper than 32 at position 113")])
def test_a_malformed_text_is_a_schema_error(parse, text, message):
    # a superscript two and an Arabic-Indic one are not ASCII digits, the
    # exponent 1/0 is refused before it reaches Fraction, and a text nested
    # past NESTING_LIMIT is refused before it can exhaust the stack
    with pytest.raises(SchemaError, match=re.escape(message)):
        parse(text)


def test_a_text_nested_to_the_limit_parses():
    assert parse_expr("(" * 32 + "u" + ")" * 32) == ("var", "u")
    assert parse_poly("X11*" + "-" * 32 + "X11") == parse_poly("X11^2")


def test_a_chain_is_one_node_however_long():
    # before, each operator of a chain nested the tree one level deeper,
    # and 2000 of them exhausted the stack in the evaluator and every walk
    assert parse_poly(" + ".join(["X11"] * 2000)) == 2000 * V("X11")
    assert parse_poly(" - ".join(["X11"] * 2001)) == -1999 * V("X11")
    node = parse_expr("u" + "*u" * 999 + "/u" * 999)
    assert (len(node), node[:3], node[-1]) == (
        2000, ("mul", ("var", "u"), ("*", ("var", "u"))), ("/", ("var", "u")))
    assert eval_expr(node, {"u": V("u")}) == V("u")
    assert expr_vars(node) == {"u"}


def _parsed(parse, text):
    """parse(text), or the message of the ``SchemaError`` it raised."""
    try:
        return parse(text)
    except SchemaError as exc:
        return f"SchemaError: {exc}"


_PARSER_TEXT = st.lists(st.sampled_from(
    list("0123456789") + ["a", "u", "x", "Z", "q", "_", "sqrt"]
    + list("+-*/^()") + [" ", " ", "\u00b2", "\u0663", "\u00e9"]),
    max_size=24).map("".join)


@settings(max_examples=500, deadline=None)
@given(_PARSER_TEXT)
@example("(u \u00b2")              # the parser fails before the character
@example("x/y + \u00e9")           # the division error comes first in text
@example("u^(1/0) \u0663")
@example("sqrt(u)^(-2/3) - (x+1)*u^2")
@example("u^(1/2/3)")
@example("x + u^(2/0)")
@example("num^2")
def test_the_parser_agrees_with_the_token_parser(text):
    # both grammars give the token parser's tree, or its error text with
    # the same position; a character outside the grammar is refused first
    # wherever it stands
    for witness in (True, False):
        want = _parsed(lambda t: TokenParser(t, witness).parse(), text)
        got = _parsed(lambda t: _Parser(t, witness).parse(), text)
        assert got == want
        if not isinstance(got, str):
            # the token parser's exponents are all Fractions; ours are ints
            # unless fractional, and the trees still hash alike
            assert hash(got) == hash(want)
            assert all(type(e) is int or e.denominator != 1
                       for e in _exponents(got))
            assert expr_vars(got) == token_vars(want)
        if witness:
            assert _parsed(parse_expr, text) == want
        elif isinstance(want, str):
            assert _parsed(parse_poly, text) == want


def _exponents(node):
    """Every exponent of a parse tree."""
    if node[0] == "pow":
        yield node[2]
    for child in node[1:]:
        if isinstance(child, tuple):
            yield from _exponents(child)


def test_integral_exponents_parse_as_ints():
    for text, e in (("u^2", 2), ("u^(-3)", -3), ("u^-3", -3), ("u^(4/2)", 2),
                    ("u^(0/5)", 0), ("u^(1/2)", Fraction(1, 2)),
                    ("u^(-2/4)", Fraction(-1, 2)), ("sqrt(u)", Fraction(1, 2))):
        node = parse_expr(text)
        assert node == ("pow", ("var", "u"), e)
        assert type(node[2]) is type(e), text
        want = TokenParser(text, True).parse()
        assert type(want[2]) is Fraction
        assert node == want and hash(node) == hash(want)
    assert type(_Parser("X11^2", False).parse()[2]) is int


def test_equal_constants_share_a_hash():
    two = LaurentPoly.const(2)
    assert two == Fraction(4, 2) and hash(two) == hash(Fraction(4, 2))
    # registry-independent: a constant over ("a",) equals one over ()
    c = LaurentPoly(("a",), {(0,): 2})
    assert c == two and hash(c) == hash(two)


def test_values_lie_in_the_ring_of_the_bindings():
    p = V("x") * 2 - 1
    for env, kind in (({"x": 3}, int), ({"x": Fraction(3)}, Fraction),
                      ({"x": Fp(3, 7)}, Fp)):
        value = p.eval(env)
        assert type(value) is kind and value == 5
    assert type(V("x").eval({"x": 2})) is int
    # a constant returns its coefficient, the zero polynomial 0
    assert LaurentPoly.const(3).eval({}) == 3
    assert type(LaurentPoly.const(3).eval({"x": Fp(1, 7)})) is int
    assert LaurentPoly.const(-2).eval({"x": Fraction(1, 2)}) == -2
    zero = LaurentPoly().eval({})
    assert type(zero) is int and zero == 0


@settings(max_examples=80, deadline=None)
@given(st.builds(rand_poly, st.lists(st.tuples(
           st.lists(st.integers(0, 3), min_size=3, max_size=3),
           st.integers(-9, 9)), max_size=5)),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_integer_values_equal_rational_ones(p, point):
    ints = dict(zip(("a", "b", "c"), point))
    value = p.eval(ints)
    assert type(value) is int
    assert value == p.eval({v: Fraction(x) for v, x in ints.items()})


@st.composite
def fraction(draw):
    num = draw(mixed_poly())
    den = draw(mixed_poly())
    assume(not den.is_zero())
    return LaurentFraction(num, den)


def _repeated(x, k):
    out = LaurentFraction(1)
    for _ in range(abs(k)):
        out = out * x
    return out if k >= 0 else LaurentFraction(1) / out


@settings(max_examples=150, deadline=None)
@given(fraction(), st.integers(-3, 5))
def test_fraction_inverse_and_powers_match_the_field_operations(x, k):
    if x.is_zero():
        with pytest.raises(DomainError, match="zero fraction has no inverse"):
            x.inv()
        if k < 0:
            with pytest.raises(DomainError):
                x ** k
        else:
            assert x ** k == _repeated(x, k)
        return
    assert x.inv() == LaurentFraction(1) / x
    assert x.inv() * x == LaurentFraction(1)
    assert x ** k == _repeated(x, k)


@settings(max_examples=150, deadline=None)
@given(fraction(), st.integers(-3, 6))
def test_a_power_is_the_power_of_numerator_and_denominator(f, e):
    assume(not (f.is_zero() and e < 0))
    got, want = f ** e, fraction_power(f, e)
    assert (got.num._t, got.den._t) == (want.num._t, want.den._t)
    if e >= 0:
        plain = LaurentFraction(f.num ** e, f.den ** e)
        assert (got.num._t, got.den._t) == (plain.num._t, plain.den._t)
    assert got.den == 1 or _exact_divide(got.num, got.den) is None


def test_inverse_divides_out_a_denominator_that_the_numerator_shared():
    # (x+1) / ((x+1)(y+1)) keeps its form (no gcd is taken), and its inverse
    # has a denominator x+1 that divides its numerator: it canonicalises to
    # the polynomial y+1, once
    x, y = V("x"), V("y")
    f = LaurentFraction(x + 1, (x + 1) * (y + 1))
    assert (f.num, f.den) == (x + 1, (x + 1) * (y + 1))
    inv = f.inv()
    assert inv.is_poly() and inv.num == y + 1
    assert f ** -1 == inv and f ** -2 == LaurentFraction((y + 1) ** 2)
    assert (f ** -3).num == (y + 1) ** 3
    assert f ** 0 == LaurentFraction(1) and f ** 1 is f
    with pytest.raises(DomainError, match="zero fraction has no inverse"):
        LaurentFraction(0).inv()
    with pytest.raises(DomainError, match="zero fraction has no inverse"):
        LaurentFraction(0) ** -2


@st.composite
def unit(draw):
    """A unit of the fraction field's monomials: one monomial with a
    nonzero rational coefficient, a quotient of two integer monomials."""
    reg = draw(st.sampled_from(REGISTRIES))
    exps = draw(st.tuples(*[SMALL] * len(reg)))
    num = LaurentPoly(reg, {exps: draw(st.integers(1, 6))
                            * draw(st.sampled_from((1, -1)))})
    return LaurentFraction(num, draw(st.integers(1, 3)))


def _form(f: LaurentFraction):
    return tuple((p.vars, p._t, p._b) for p in (f.num, f.den))


@settings(max_examples=300, deadline=None)
@given(unit(), fraction())
def test_a_unit_factor_gives_the_constructors_canonical_form(u, f):
    # a product with a unit has the numerator and denominator of the
    # general constructor, exactly
    for a, b in ((u, f), (f, u)):
        assert _form(a * b) == _form(
            LaurentFraction(a.num * b.num, a.den * b.den))


def test_a_unit_factor_moves_the_monomial_content():
    x, y = V("x"), V("y")
    f = LaurentFraction(y, x + y)
    g = LaurentFraction(3 * x**-2) * f          # 3 y / (x^3 + x^2 y)
    assert (g.num, g.den) == (3 * y, x**3 + x**2 * y)
    h = LaurentFraction(x**2) * g               # 3 y / (x + y)
    assert (h.num, h.den) == (3 * y, x + y)
    k = f * LaurentFraction(-x * y**-1)         # -x / (x + y)
    assert (k.num, k.den) == (-x, x + y)


_NAMES = ("a", "b", "c")


def _expression(leaves):
    """Division-free expression texts under the catalog grammar, with
    negative exponents on variables only."""
    return st.one_of(
        st.tuples(leaves, leaves).map(lambda t: f"({t[0]}) + ({t[1]})"),
        st.tuples(leaves, leaves).map(lambda t: f"({t[0]}) - ({t[1]})"),
        st.tuples(leaves, leaves).map(lambda t: f"({t[0]})*({t[1]})"),
        leaves.map(lambda t: f"-({t})"),
        st.tuples(leaves, st.integers(0, 3)).map(
            lambda t: f"({t[0]})^{t[1]}"))


DIVISION_FREE = st.recursive(
    st.one_of(st.sampled_from(_NAMES), st.integers(0, 9).map(str),
              st.tuples(st.sampled_from(_NAMES), st.integers(-3, 3)).map(
                  lambda t: f"{t[0]}^({t[1]})")),
    _expression, max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(DIVISION_FREE)
def test_parse_poly_equals_the_fraction_evaluation(text):
    want = fraction_parse_poly(text)
    got = parse_poly(text)
    assert (got.vars, got._t, got._b) == (want.vars, want._t, want._b)


@pytest.mark.parametrize("text", ["(a + b)^-1", "(a - 1)^(-2)*a", "0^-1"])
def test_parse_poly_refuses_a_negative_power_of_a_non_monomial(text):
    with pytest.raises(SchemaError, match="is not polynomial"):
        parse_poly(text)


# ---------------------------------------------------------------------------
# Z[x^+-1]: integer coefficients, +-monomial units, Q(x) as the fraction field


@settings(max_examples=200, deadline=None)
@given(poly_strategy, poly_strategy, st.integers(2, 5))
def test_exact_divide_is_division_over_z(p, d, k):
    assume(not d.is_zero())
    assert _exact_divide(p * d, d) == p
    # k*d divides p*d over Z exactly when k divides every coefficient of p
    q = _exact_divide(p * d, k * d)
    if all(c % k == 0 for c in p.terms.values()):
        assert q is not None and k * q == p
    else:
        assert q is None


def test_a_constant_factor_that_does_not_divide_stays_a_denominator():
    x = V("x")
    assert _exact_divide(x + 1, 2 * x + 2) is None
    f = LaurentFraction(x + 1, 2 * x + 2)
    assert f == LaurentFraction(1, 2) and not f.is_poly()
    assert _exact_divide(2 * x + 2, x + 1) == 2


@given(st.fractions(max_denominator=10**6))
def test_a_rational_lifts_to_numerator_over_denominator(r):
    f = LaurentFraction._lift(r)
    assert f == LaurentFraction(r.numerator) / r.denominator
    assert (f.num, f.den) == (r.numerator, r.denominator)
    assert f.is_poly() == (r.denominator == 1)


def test_a_fraction_coefficient_is_refused():
    x = V("x")
    for build in (lambda: LaurentPoly.const(Fraction(1, 2)),
                  lambda: LaurentPoly(("a",), {(1,): Fraction(1, 2)}),
                  lambda: Fraction(1, 2) * x, lambda: x + Fraction(1, 2),
                  lambda: LaurentPoly.const(Fraction(2))):
        with pytest.raises(SchemaError, match=r"^the coefficient "
                           r"Fraction\(\d+(, \d+)?\) is not an int$"):
            build()


def test_the_units_are_the_plus_or_minus_monomials():
    x, y = V("x"), V("y")
    for p in (x, -x * y**-2, LaurentPoly.const(-1)):
        assert p.is_unit() and p * p.monomial_inverse() == 1
    for p in (2 * x, LaurentPoly.const(2), x + 1, LaurentPoly()):
        assert not p.is_unit()
    with pytest.raises(DomainError, match="only \\+-monomials"):
        (2 * x).monomial_inverse()
    half_x = x / 2
    assert type(half_x) is LaurentFraction and not half_x.is_poly()
    assert (half_x.num, half_x.den) == (x, 2)
    assert -x / -y == x * y**-1
    with pytest.raises(SchemaError, match=re.escape("(2)^-1 is not polynomial")):
        parse_poly("2^-1*a")


# ---------------------------------------------------------------------------
# unreduced quotients


NONZERO = poly_strategy.filter(lambda p: not p.is_zero())


@st.composite
def quotient_pair(draw):
    """Two quotients over small Laurent polynomials with negative
    exponents, each denominator ``LaurentPoly.one``, one object shared by
    both or its own, so that every shortcut of the sum and product runs."""
    shared = draw(NONZERO)

    def quotient():
        kind = draw(st.sampled_from(("one", "shared", "own")))
        den = (LaurentPoly.one if kind == "one" else shared
               if kind == "shared" else draw(NONZERO))
        return Quotient(draw(poly_strategy), den)

    return quotient(), quotient()


def _same_value(q, f):
    """q equals the fraction f, by cross-multiplication."""
    return q.num * f.den == f.num * q.den


@settings(max_examples=200, deadline=None)
@given(quotient_pair())
def test_quotient_arithmetic_agrees_with_the_fraction_field(pair):
    a, b = pair
    fa, fb = (LaurentFraction(q.num, q.den) for q in pair)
    assert _same_value(a + b, fa + fb)
    assert _same_value(-a, -fa)
    assert _same_value(a * b, fa * fb)
    assert a.is_zero() == fa.is_zero() == is_zero_elem(a)
    if a.is_zero():
        with pytest.raises(DomainError, match="zero quotient has no inverse"):
            a.inv()
        with pytest.raises(DomainError):
            inv_elem(a)
    else:
        assert _same_value(a.inv(), fa.inv())
        assert type(inv_elem(a)) is Quotient
        assert _same_value(inv_elem(a), fa.inv())
    # nothing is canonicalized: a shared or unit denominator stands
    if a.den is b.den or b.den is LaurentPoly.one:
        assert (a + b).den is a.den
    if a.den is LaurentPoly.one:
        assert (a * b).den is b.den


def test_a_zero_quotient_has_no_inverse():
    for den in (LaurentPoly.one, V("a") + 1):
        zero = Quotient(LaurentPoly.zero, den)
        assert zero.is_zero() and is_zero_elem(zero)
        with pytest.raises(DomainError, match="zero quotient has no inverse"):
            inv_elem(zero)


def _least_exponent(p, name):
    """The least exponent of name over p's terms, decoded (0 for a
    polynomial that does not use it)."""
    if name not in p.vars:
        return 0
    return min(exps[p.vars.index(name)] for exps in p.terms)


@settings(max_examples=150, deadline=None)
@given(tower_and_poly(), st.integers(0, 3), st.integers(0, 3), poly_strategy)
def test_radical_poles_is_the_least_clearing_monomial(drawn, i, j, q):
    # R1 has up to i poles in the first polynomial and j in the second;
    # q names no radical
    tower, p = drawn
    polys = (p * V("R1", -i), p * V("R1", -j) + q)
    shift = radical_poles(tower, *polys)
    (exps, c), = shift.terms.items()
    power = dict(zip(shift.vars, exps))
    assert c == 1 and power.keys() <= {rel.new_var for rel in tower}
    for rel in tower:
        low = min(_least_exponent(x, rel.new_var) for x in polys)
        assert power.get(rel.new_var, 0) == max(0, -low)
    assert radical_poles(tower, LaurentPoly.zero) is LaurentPoly.one
