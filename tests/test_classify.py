"""Membership, classification, and census tests."""

import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orbit_atlas import classify as classify_mod
from orbit_atlas.arith import Fp, LaurentFraction, LaurentPoly, parse_poly
from orbit_atlas.catalog import (SIGNATURE_BITS, root_weight_homogeneous,
                                 x_vars)
from orbit_atlas.classify import (classify, gather, grid_signatures, member,
                                  partition_census, point_records, slice_pass,
                                  slice_point, slice_shape, slice_table,
                                  sorted_signatures)
from orbit_atlas.errors import (BudgetExceededError, CatalogError,
                                DisjointnessError, ExhaustionError,
                                InternalInconsistencyError, SchemaError,
                                ShapeError)
from orbit_atlas.lie import (BorelWord, NilElement, RootGroupFactor,
                             TorusElement, adjoint, pos_roots)
from orbit_atlas.oracle import ORACLE_DEFAULT_QS
from orbit_atlas.order import hasse
from orbit_atlas.witness import generic_vanishing
from reference import (eval_poly_on_columns, full_enumeration_census,
                       full_space_records, match_table, torus_slices)


def test_member_examples(catalogs):
    rec1 = catalogs[1].by_id("x11")
    assert member(rec1, NilElement.from_vector(1, [Fraction(5)]))
    assert not member(rec1, NilElement.from_vector(1, [Fraction(0)]))
    rec2 = catalogs[2].by_id("x11")
    assert member(rec2, NilElement.from_vector(2, [Fraction(3), Fraction(0),
                                                   Fraction(7)]))
    assert not member(rec2, NilElement.from_vector(2, [0, 0, 0]))


def test_member_rank_mismatch(catalogs):
    with pytest.raises(ShapeError):
        member(catalogs[2].by_id("x11"), NilElement(3, {}))


def test_classify_rank_must_match_the_catalog(catalogs):
    # the point matches the catalog, so only the stated rank is wrong
    with pytest.raises(ShapeError, match="classify rank 3 != catalog rank 4"):
        classify(3, NilElement(4, {}), catalogs[4])


def test_census_rank_must_match_the_catalog(catalogs):
    with pytest.raises(ShapeError, match="census rank 3 != catalog rank 4"):
        partition_census(3, 3, catalogs[4])


def test_member_rejects_symbolic_points(catalogs):
    from orbit_atlas.arith import LaurentPoly
    m = NilElement.from_vector(2, [LaurentPoly.var("a"), 0, 0])
    with pytest.raises(SchemaError):
        member(catalogs[2].by_id("x11"), m)


def test_classify_examples(catalogs):
    m = NilElement.from_vector(2, [Fp(0, 7), Fp(0, 7), Fp(5, 7)])
    assert classify(2, m, catalogs[2]).orbit_id == "x12"
    m = NilElement.from_vector(3, [Fp(c, 5) for c in (0, 1, 0, 1, 1, 1)])
    assert classify(3, m, catalogs[3]).orbit_id == "x22"
    assert classify(4, NilElement(4, {}), catalogs[4]).orbit_id == "0"


def test_classify_representatives(catalogs):
    for n, cat in catalogs.items():
        for rec in cat.orbits:
            assert classify(n, rec.representative, cat).orbit_id == rec.id


def test_census_rank1(catalogs):
    for q in (3, 5, 7):
        counts = partition_census(1, q, catalogs[1])
        assert counts == {"0": 1, "x11": q - 1}


def test_census_rank2_q3_frozen(catalogs):
    counts = partition_census(2, 3, catalogs[2])
    assert counts == {"0": 1, "x12": 2, "x11": 6, "x22": 6, "x11+x22": 12}
    assert sum(counts.values()) == 27


def test_census_matches_pure_python_enumeration(catalogs):
    # independent oracle: per-point membership with exact scalar arithmetic
    q = 3
    cat = catalogs[2]
    brute = {rec.id: 0 for rec in cat.orbits}
    for vec in itertools.product(range(q), repeat=3):
        m = NilElement.from_vector(2, [Fp(v, q) for v in vec])
        hits = [rec.id for rec in cat.orbits if member(rec, m)]
        assert len(hits) == 1
        brute[hits[0]] += 1
    assert brute == partition_census(2, 3, cat)


def test_census_rank3_q2(catalogs):
    counts = partition_census(3, 2, catalogs[3])
    assert sum(counts.values()) == 64
    assert sum(1 for v in counts.values() if v) == 16


def test_census_budget_refusal(catalogs):
    with pytest.raises(BudgetExceededError) as exc:
        partition_census(4, 7, catalogs[4], budget=1000)
    assert exc.value.needed == 7**10


def _pass_table(cat, q):
    """(block starts, signature and record of every slice point)."""
    starts, sigs, matched = zip(*(
        (b.start, b.distinct[b.inverse], b.record[b.inverse])
        for b in slice_pass(cat, q)))
    return list(starts), np.concatenate(sigs), np.concatenate(matched)


def test_census_chunking_invariance(catalogs, monkeypatch):
    # splitting the point space differently must change no count and no
    # point's signature or record; the A3 slice grid over F_3 is
    # (2, 2, 2, 3, 3, 3), so the chunks below cut it into blocks of 216, 54,
    # 27, 3 and 1 points; each census reads a fresh copy of the catalog,
    # whose slice table is built under the chunk in force
    whole = partition_census(3, 3, dataclasses.replace(catalogs[3]))
    starts, sigs, matched = _pass_table(catalogs[3], 3)
    assert starts == [0]
    for chunk, size in ((216, 216), (97, 54), (27, 27), (5, 3), (1, 1)):
        monkeypatch.setattr(classify_mod, "SLICE_CHUNK", chunk)
        cat = dataclasses.replace(catalogs[3])
        assert partition_census(3, 3, cat) == whole
        assert len(slice_table(cat, 3)) == 216 // size
        got = _pass_table(catalogs[3], 3)
        assert got[0] == list(range(0, 216, size))
        assert np.array_equal(got[1], sigs) and np.array_equal(got[2], matched)


def test_census_rejects_composite_q(catalogs):
    with pytest.raises(SchemaError):
        partition_census(2, 4, catalogs[2])


def test_scaling_invariance(catalogs):
    rng = random.Random(0)
    for n in (2, 3, 4):
        cat = catalogs[n]
        q = 11
        for _ in range(40):
            vec = [Fp(rng.randrange(q), q) for _ in pos_roots(n)]
            m = NilElement.from_vector(n, vec)
            lam = Fp(rng.randrange(1, q), q)
            scaled = NilElement.from_vector(n, [lam * v for v in vec])
            assert (classify(n, m, cat).orbit_id
                    == classify(n, scaled, cat).orbit_id)


def test_borel_invariance(catalogs):
    rng = random.Random(1)
    q = 7
    for n in (2, 3):
        cat = catalogs[n]
        for _ in range(30):
            vec = [Fp(rng.randrange(q), q) for _ in pos_roots(n)]
            m = NilElement.from_vector(n, vec)
            word = BorelWord(
                n,
                TorusElement(n, tuple(Fp(rng.randrange(1, q), q)
                                      for _ in range(n))),
                tuple(RootGroupFactor(rng.choice(pos_roots(n)),
                                      Fp(rng.randrange(q), q))
                      for _ in range(3)))
            moved = adjoint(word, m)
            moved = NilElement.from_vector(
                n, [c if isinstance(c, Fp) else Fp(int(c), q)
                    for c in moved.as_vector()])
            assert (classify(n, m, cat).orbit_id
                    == classify(n, moved, cat).orbit_id)


def test_census_total_mismatch_is_raised(catalogs, monkeypatch):
    # a lost point must fail loudly, also under python -O; a fresh copy of
    # the catalog, so the patched pass builds its table
    monkeypatch.setattr(classify_mod, "slice_pass", lambda cat, q: iter(()))
    with pytest.raises(InternalInconsistencyError,
                       match=r"rank 2 q=3: census counted 0 points, "
                             r"expected 27"):
        classify_mod.partition_census(2, 3, dataclasses.replace(catalogs[2]))


def test_eval_kernel_reduces_fraction_coefficients(catalogs):
    # a rational polynomial cannot be built (polynomials are over Z); it
    # enters only with its denominators cleared, which keeps its zero set
    # mod 5 (2 and 3 are units there).  (1/2 - 3) X11 = -5/2 X11 clears to
    # -5 X11, zero mod 5, and the kernel reduces the integer coefficients
    # as ``eval`` does over F_5
    x11, x12, x22 = (LaurentPoly.var(v) for v in ("X11", "X12", "X22"))
    with pytest.raises(SchemaError, match=re.escape(
            "the coefficient Fraction(1, 2) is not an int")):
        Fraction(1, 2) * x11 * x22
    polys = [x11 - 6 * x11, 3 * x11 * x22 - 14 * x12 ** 2 + 6 * x11]
    rational = LaurentFraction(polys[1], 6)     # x11 x22/2 - 7 x12^2/3 + x11
    assert polys[0].terms == {(1,): -5}
    # exponents over the variables used, in name order: X11, X12, X22
    assert polys[1].terms == {(1, 0, 1): 3, (0, 2, 0): -14, (1, 0, 0): 6}
    q = 5
    axes = {var: range(q) for var in x_vars(2)}
    sig = grid_signatures(polys, axes, q)
    assert not (sig & 1).any()
    vecs = list(itertools.product(range(q), repeat=3))
    for vec, got in zip(vecs, sig.tolist()):
        point = {var: Fp(v, q) for var, v in zip(x_vars(2), vec)}
        want = Fp(0, q) + polys[1].eval(point)
        want_rational = ((Fp(0, q) + rational.num.eval(point))
                         / rational.den.eval(point))
        assert bool(got >> 1 & 1) == (not want.is_zero())
        assert want.is_zero() == want_rational.is_zero()


def test_eval_kernel_rejects_coefficient_undefined_mod_q():
    # 1/2 is undefined mod 2: the product that would build 1/2 * X11 is
    # refused, so no record and no kernel ever sees the polynomial
    with pytest.raises(SchemaError, match=re.escape(
            "the coefficient Fraction(1, 2) is not an int")):
        Fraction(1, 2) * LaurentPoly.var("X11")


def test_coefficient_undefined_mod_q_is_schema_error_on_both_paths():
    # the scalar member path and the vectorised kernel both read records of
    # LaurentPoly, and both ways to build 1/2 * X11 as one are refused
    x11 = LaurentPoly.var("X11")
    for build in (lambda: LaurentPoly(("X11",), {(1,): Fraction(1, 2)}),
                  lambda: LaurentPoly.const(Fraction(1, 2)) * x11):
        with pytest.raises(SchemaError, match=re.escape(
                "the coefficient Fraction(1, 2) is not an int")):
            build()


def test_grid_values_and_the_census_refuse_a_negative_exponent(catalogs):
    # set polynomials are exponent-positive: a record carrying a negative
    # exponent is refused when the copy is built, so neither the kernel nor
    # the census's signatures ever evaluate it
    poly = 3 * LaurentPoly.var("X11") ** -2 * LaurentPoly.var("X22") + 1
    rec = catalogs[2].by_id("x11+x22")
    with pytest.raises(CatalogError, match=re.escape(
            "set polynomial '1 + 3*X11^-2*X22' has a negative exponent")):
        dataclasses.replace(rec, nonzero_set=(poly,))
    with pytest.raises(CatalogError, match="has a negative exponent"):
        dataclasses.replace(rec, zero_set=rec.zero_set + (poly,))


CROSS_CHECK_FIELDS = ([(n, q) for n in (1, 2, 3) for q in (2, 3, 5, 7)]
                      + [(4, 2), (4, 3)])


@pytest.mark.parametrize("n,q", CROSS_CHECK_FIELDS)
def test_sliced_census_equals_full_enumeration(catalogs, n, q):
    sliced = partition_census(n, q, catalogs[n])
    assert sliced == full_enumeration_census(catalogs[n], q)
    assert list(sliced) == [rec.id for rec in catalogs[n].orbits]


@pytest.mark.parametrize("n,q", CROSS_CHECK_FIELDS)
def test_point_records_equal_full_enumeration(catalogs, n, q):
    # the torus normal form reads every point's record off the slice table
    assert np.array_equal(point_records(catalogs[n], q),
                          full_space_records(catalogs[n], q))


@pytest.mark.parametrize("n,q", [(1, 5), (2, 3), (3, 5), (4, 3)])
def test_slice_order_is_the_reference_slice_order(n, q, catalogs):
    # support-major, the first simple coordinate most significant, then the
    # code of the non-simple coordinates
    digits = np.concatenate([block.copy()
                             for block, _ in torus_slices(catalogs[n], q)])
    points = [slice_point(i, n, q) for i in range(math.prod(slice_shape(n, q)))]
    assert digits.tolist() == points


def _with_orbits(cat, orbits):
    return dataclasses.replace(cat, orbits=tuple(orbits))


@pytest.mark.parametrize("mutate, error", [
    # a hole: the x12 points match nothing
    (lambda orbits: [r for r in orbits if r.id != "x12"], ExhaustionError),
    # an overlap: the generic set also takes the points of x11
    (lambda orbits: [dataclasses.replace(r, nonzero_set=r.nonzero_set[:1])
                     if r.id == "x11+x22" else r for r in orbits],
     DisjointnessError),
])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_pass_names_the_reference_point(catalogs, mutate, error, q):
    # the first bad slice point, as the reference finds it block by block
    cat = _with_orbits(catalogs[2], mutate(catalogs[2].orbits))
    with pytest.raises(error) as reference:
        for digits, _ in torus_slices(cat, q):
            match_table(cat, digits, q)
    with pytest.raises(error, match=re.escape(str(reference.value))):
        partition_census(2, q, cat)


def test_census_refuses_weight_inhomogeneous_catalog(catalogs, monkeypatch):
    # X11 + X12 has one total degree but two root weights (a1, a1 + a2):
    # scaling X11 alone changes whether it vanishes, so slicing would
    # miscount; the catalog copy the census would read is refused when its
    # pool is built, before any grid point is evaluated
    cat = catalogs[2]
    rec = cat.by_id("x22")
    bad = dataclasses.replace(
        rec, zero_set=(parse_poly("X11 + X12", x_vars(2)),))

    def no_points(*args):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(classify_mod, "grid_signatures", no_points)
    with pytest.raises(CatalogError,
                       match=r"rank 2: record x22 polynomial X11 \+ X12 is "
                             r"not root-weight homogeneous"):
        partition_census(2, 3, dataclasses.replace(
            cat, orbits=tuple(bad if r is rec else r for r in cat.orbits)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_classify_invariant_under_simple_root_scaling(catalogs, data):
    # the invariant the sliced census rests on, through the scalar path:
    # x_ij -> (s_i...s_j) x_ij moves no point to another catalog set
    n = data.draw(st.sampled_from((3, 4)))
    q = data.draw(st.sampled_from((7, 11)))
    coord = st.one_of(st.just(0), st.integers(1, q - 1))
    vec = [data.draw(coord) for _ in pos_roots(n)]
    s = [data.draw(st.integers(1, q - 1)) for _ in range(n)]
    scaled = []
    for (i, j), v in zip(pos_roots(n), vec):
        for k in range(i - 1, j):
            v = v * s[k] % q
        scaled.append(v)
    m = NilElement.from_vector(n, [Fp(v, q) for v in vec])
    m_scaled = NilElement.from_vector(n, [Fp(v, q) for v in scaled])
    assert (classify(n, m, catalogs[n]).orbit_id
            == classify(n, m_scaled, catalogs[n]).orbit_id)


def test_census_rank4_q7_covers_every_orbit(catalogs):
    counts = partition_census(4, 7, catalogs[4], budget=7**10)
    assert sum(1 for v in counts.values() if v) == 61
    assert sum(counts.values()) == 7**10


def _padded(cat, extra):
    """cat with x11's nonzero set padded by 2^k X11, k = 1..extra: the same
    sets over odd q, and ``extra`` more pool classes."""
    rec = cat.by_id("x11")
    x11 = LaurentPoly.var("X11")
    padded = dataclasses.replace(
        rec, nonzero_set=rec.nonzero_set + tuple(
            2**k * x11 for k in range(1, extra + 1)),
        nonzero_strs=rec.nonzero_strs + tuple(
            f"{2**k}*X11" for k in range(1, extra + 1)))
    return _with_orbits(cat, [padded if r is rec else r for r in cat.orbits])


def _set_masks(cat):
    """Each record's (zero set, nonzero set) pool-class masks, one slot
    lookup per polynomial."""
    return {rec.id: tuple(sum({1 << cat.slot[p] for p in polys})
                          for polys in (rec.zero_set, rec.nonzero_set))
            for rec in cat.orbits}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_catalog_masks_are_the_records_sets(catalogs, n):
    assert catalogs[n].masks == _set_masks(catalogs[n])


def test_a_replaced_catalog_rebuilds_its_pool(catalogs):
    # the pool and the masks are built per Catalog, so a copy with other
    # records has its own, and the original keeps its pool and masks
    cat = catalogs[2]
    x11 = LaurentPoly.var("X11")
    assert [s for _, s in cat.pool] == ["X11", "X22", "X12"]
    padded = _padded(cat, 2)
    assert [s for _, s in padded.pool] == ["X11", "X22", "X12", "2*X11",
                                          "4*X11"]
    assert padded.slot[-4 * x11] == padded.slot[4 * x11] == 4
    assert 4 * x11 not in cat.slot and len(cat.pool) == 3
    assert padded.masks["x11"] == (cat.masks["x11"][0],
                                   cat.masks["x11"][1] | 0b11000)
    assert padded.masks == _set_masks(padded)
    assert cat.masks == _set_masks(cat)
    smaller = dataclasses.replace(cat, orbits=(cat.by_id("x11"),))
    assert [s for _, s in smaller.pool] == ["X22", "X11"]
    assert smaller.masks == {"x11": (0b1, 0b10)}


def test_pass_holds_31_polynomials_and_refuses_32(catalogs):
    # the pass holds a full pool; the catalog refuses a larger one when it
    # builds its pool, before any kernel runs
    cat = catalogs[2]                       # a pool of X11, X22 and X12
    assert len(_padded(cat, 28).pool) == SIGNATURE_BITS == 31
    assert (partition_census(2, 3, _padded(cat, 28))
            == partition_census(2, 3, cat))
    with pytest.raises(CatalogError,
                       match="rank 2: 32 distinct catalog polynomials, more "
                             "than the 31 bits of a slice signature"):
        _padded(cat, 29)


def test_int32_signatures_hold_31_classes(catalogs):
    # A4's 21 pool classes and 10 products of two of them fill the 31 bits
    # of an int32 signature: every bit is its polynomial's nonzero pattern,
    # and no signature is negative
    pool = [p for p, _ in catalogs[4].pool]
    polys = pool + [pool[k] * pool[k + 1] for k in range(10)]
    assert len(polys) == SIGNATURE_BITS
    q = 3
    axes = {var: range(q) for var in x_vars(4)}
    sig = grid_signatures(polys, axes, q)
    assert sig.dtype == np.int32 and sig.min() >= 0
    digits = np.stack(np.unravel_index(np.arange(len(sig)), (q,) * 10),
                      axis=1)
    cols = {var: digits[:, i] for i, var in enumerate(x_vars(4))}
    for k, poly in enumerate(polys):
        want = eval_poly_on_columns(poly, cols, q) != 0
        assert want.any()
        assert ((sig >> k & 1) == want).all(), k


@st.composite
def _homogeneous_polys(draw, n, q):
    """Root-weight-homogeneous polynomials over the rank-n coordinates with
    integer coefficients, as every set polynomial has.  A monomial is
    a list of root segments [i, j] (X_ij weighs alpha_i + ... + alpha_j);
    splitting [i, j] into [i, k], [k + 1, j] or joining two such segments
    keeps the weight, so every monomial of a polynomial comes from the one
    before by a few of those moves."""
    var = dict(zip(pos_roots(n), x_vars(n)))
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        segs = draw(st.lists(st.sampled_from(pos_roots(n)), min_size=0,
                             max_size=3))
        poly = LaurentPoly.const(0)
        for _ in range(draw(st.integers(1, 4))):
            for _ in range(draw(st.integers(0, 3))):
                splittable = [s for s in segs if s[0] < s[1]]
                joinable = [(s, t) for s in segs for t in segs
                            if s[1] + 1 == t[0]]
                segs = list(segs)
                if draw(st.booleans()) and splittable:
                    i, j = draw(st.sampled_from(splittable))
                    k = draw(st.integers(i, j - 1))
                    segs.remove((i, j))
                    segs += [(i, k), (k + 1, j)]
                elif joinable:
                    s, t = draw(st.sampled_from(joinable))
                    segs.remove(s)
                    segs.remove(t)
                    segs.append((s[0], t[1]))
            term = LaurentPoly.const(draw(st.integers(-30, 30)))
            for seg in segs:
                term = term * LaurentPoly.var(var[seg])
            poly = poly + term
        assert root_weight_homogeneous(poly, n)
        polys.append(poly)
    return polys


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_signature_bits_equal_scalar_evaluation(data):
    n = data.draw(st.sampled_from((1, 2, 3, 4)), label="rank")
    primes = (2, 3, 5, 7, 11, 101) + ((1_000_003,) if n <= 2 else ())
    q = data.draw(st.sampled_from(primes), label="q")
    polys = data.draw(_homogeneous_polys(n, q), label="polys")
    # one to three values per coordinate, at most 48 grid points
    axes, size = {}, 1
    for var in x_vars(n):
        values = data.draw(st.lists(st.integers(0, q - 1), min_size=1,
                                    max_size=3 if size <= 16 else 1,
                                    unique=True), label=var)
        axes[var] = values
        size *= len(values)
    sig = grid_signatures(polys, axes, q).tolist()
    points = list(itertools.product(*axes.values()))
    assert len(sig) == len(points)
    for got, point in zip(sig, points):
        env = {var: Fp(v, q) for var, v in zip(axes, point)}
        want = sum(1 << k for k, poly in enumerate(polys)
                   if not (Fp(0, q) + poly.eval(env)).is_zero())
        assert got == want


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_contains_on_residues_equals_evaluation_over_fp(catalogs, data):
    # every set polynomial is in Z[X], so its value over Z reduced mod p is
    # its value over F_p: ``contains`` on residues agrees with ``eval`` over
    # Fp bindings on every record, and exactly one record holds the point
    n = data.draw(st.sampled_from((3, 4)), label="rank")
    p = data.draw(st.sampled_from((2, 3, 5, 7, 101)), label="p")
    coord = st.one_of(st.just(0), st.integers(0, p - 1))
    env = {var: data.draw(coord, label=var) for var in x_vars(n)}
    point = {var: Fp(v, p) for var, v in env.items()}

    def vanishes(poly):
        return (Fp(0, p) + poly.eval(point)).is_zero()

    held = []
    for rec in catalogs[n].orbits:
        want = (all(map(vanishes, rec.zero_set))
                and not any(map(vanishes, rec.nonzero_set)))
        assert rec.contains(env, p) == want, rec.id
        held += [rec.id] * want
    assert len(held) == 1, held


def test_classify_refuses_a_point_of_two_fields(catalogs):
    m = NilElement.from_vector(2, [Fp(1, 5), 0, Fp(1, 7)])
    for call in (lambda: classify(2, m, catalogs[2]),
                 lambda: member(catalogs[2].by_id("x11"), m)):
        with pytest.raises(SchemaError, match="mixes the fields F_5, F_7"):
            call()


def test_classify_refuses_a_non_integral_rational_over_f_p(catalogs):
    # 1/2 is 4 in F_7, not int(1/2) = 0: read as 0 this point was x12
    m = NilElement.from_vector(2, [Fraction(1, 2), 0, Fp(1, 7)])
    with pytest.raises(SchemaError, match="mixes F_7 with a non-integral"):
        classify(2, m, catalogs[2])
    with pytest.raises(SchemaError, match="mixes F_7 with a non-integral"):
        member(catalogs[2].by_id("x12"), m)
    # integral rationals and ints are reduced mod 7
    for x11, want in ((Fraction(14), "x12"), (Fraction(3), "x11"),
                      (7, "x12"), (-4, "x11")):
        m = NilElement.from_vector(2, [x11, 0, Fp(1, 7)])
        assert classify(2, m, catalogs[2]).orbit_id == want, x11


def test_eval_mod_p_reads_a_rational_as_a_quotient(catalogs):
    # 1/2 is 4 in F_7: the zero set of 2 X11 - 1 holds X11 = 4 over F_7 as
    # it holds X11 = 1/2 over Q, through ``member``
    rec = dataclasses.replace(catalogs[1].by_id("x11"),
                              zero_set=(parse_poly("2*X11 - 1"),),
                              nonzero_set=())
    assert member(rec, NilElement.from_vector(1, [Fraction(1, 2)]))
    assert member(rec, NilElement.from_vector(1, [Fp(4, 7)]))
    assert not member(rec, NilElement.from_vector(1, [Fp(1, 7)]))
    # -3/4 is 3 in F_5, and 4 X11 + 3 vanishes there and at -3/4 over Q
    rec = dataclasses.replace(rec, zero_set=(parse_poly("4*X11 + 3"),))
    assert member(rec, NilElement.from_vector(1, [Fraction(-3, 4)]))
    assert member(rec, NilElement.from_vector(1, [Fp(3, 5)]))
    assert not member(rec, NilElement.from_vector(1, [Fp(3, 7)]))


def test_classify_refuses_a_point_of_the_wrong_rank(catalogs):
    with pytest.raises(ShapeError, match="point rank 3 != catalog rank 2"):
        classify(2, NilElement(3, {}), catalogs[2])


def test_classify_prepares_each_point_once(catalogs, monkeypatch):
    # one point environment and scalar check per point, not per record
    prepared = []
    original = classify_mod._scalar_point

    def counting(m):
        prepared.append(m)
        return original(m)

    monkeypatch.setattr(classify_mod, "_scalar_point", counting)
    for rec in catalogs[4].orbits:
        assert classify(4, rec.representative, catalogs[4]).orbit_id == rec.id
    assert len(prepared) == len(catalogs[4].orbits)


def test_signatures_of_a_pool_with_both_signs_match_the_reference(
        catalogs, monkeypatch):
    # A4's records carry 25 distinct polynomials, four quadrics with both
    # signs: the pool holds 21 classes, p and -p share a slot, the slice
    # pass evaluates one polynomial per class per block, and every
    # polynomial's nonzero bit sits at its slot
    cat = catalogs[4]
    polys = list(dict.fromkeys(p for rec in cat.orbits
                               for p in rec.zero_set + rec.nonzero_set))
    assert (len(polys), len(cat.pool)) == (25, 21)
    assert sum(-p in polys for p in polys) == 8
    assert all(cat.slot[p] == cat.slot[-p] for p in polys)
    evaluated = []
    original = classify_mod.grid_values

    def counting(poly, cols, q):
        evaluated.append(poly)
        return original(poly, cols, q)

    monkeypatch.setattr(classify_mod, "grid_values", counting)
    monkeypatch.setattr(classify_mod, "SLICE_CHUNK", 3**6)
    q = 3
    sig = np.concatenate([b.distinct[b.inverse] for b in slice_pass(cat, q)])
    assert len(evaluated) == 21 * 2**4
    digits = np.stack(np.unravel_index(np.arange(len(sig)),
                                       slice_shape(4, q)), axis=1)
    cols = {var: digits[:, i] for i, var in enumerate(x_vars(4))}
    for poly in polys:
        want = eval_poly_on_columns(poly, cols, q) != 0
        assert (((sig >> cat.slot[poly]) & 1) == want).all()


@st.composite
def _signature_rows(draw):
    """(signatures, row width): rows of equal width of int32 values below
    2^bits, bits up to 31, as ``grid_signatures`` returns them."""
    bits = draw(st.integers(1, 31))
    width = draw(st.integers(1, 40))
    rows = draw(st.integers(1, 6))
    values = st.integers(0, 2**bits - 1)
    if draw(st.booleans()):                 # few distinct values, many ties
        values = st.sampled_from(draw(st.lists(values, min_size=1,
                                               max_size=4)))
    sig = draw(st.lists(values, min_size=rows * width,
                        max_size=rows * width))
    return np.array(sig, dtype=np.int32), width


@settings(max_examples=300, deadline=None)
@given(_signature_rows())
@example((np.array([5], dtype=np.int32), 1))
@example((np.full(12, 2**30 + 7, dtype=np.int32), 4))
@example((np.full(12, 6, dtype=np.int32), 3))
def test_sorted_signatures_equal_numpy_unique(case):
    # the one sort of a block gives np.unique's distinct values, first
    # indices and inverse, and the census's per-support counts read off the
    # inverse equal np.unique's counts of each support row; the keys are
    # widened to int64 as the slice pass widens them
    sig, width = case
    want, index, inv = np.unique(sig, return_index=True, return_inverse=True)
    distinct, first, inverse = sorted_signatures(sig.astype(np.int64))
    assert distinct.dtype == np.int64 and distinct.tolist() == want.tolist()
    assert first.tolist() == index.tolist()
    assert inverse.dtype == np.int32 and inverse.tolist() == inv.tolist()
    for row, part in zip(inverse.reshape(-1, width), sig.reshape(-1, width)):
        counts = np.bincount(row, minlength=len(distinct))
        values, cnt = np.unique(part, return_counts=True)
        assert distinct[counts > 0].tolist() == values.tolist()
        assert counts[counts > 0].tolist() == cnt.tolist()


def _count_grids(monkeypatch) -> list:
    """The fields of the ``grid_signatures`` calls, in call order."""
    calls = []
    original = classify_mod.grid_signatures

    def counting(polys, axes, q):
        calls.append(q)
        return original(polys, axes, q)

    monkeypatch.setattr(classify_mod, "grid_signatures", counting)
    return calls


def test_a_slice_table_serves_every_reader_of_its_field(catalogs,
                                                        monkeypatch):
    # one evaluation of each field's grid serves the census, the point
    # records and the closure-order certificate of one catalog, whichever
    # reads it first; the table is kept on the catalog, and a copy builds
    # its own
    cat = dataclasses.replace(catalogs[2])
    calls = _count_grids(monkeypatch)
    assert cat.memo == {}
    hasse(cat)
    assert calls == list(ORACLE_DEFAULT_QS[2])
    for q in (3, 5, 7, 2, 11):
        partition_census(2, q, cat)
        point_records(cat, q)
    hasse(cat)
    assert calls == [*ORACLE_DEFAULT_QS[2], 11]
    assert slice_table(cat, 3) is cat.memo[("slices", 3)]
    fresh = dataclasses.replace(catalogs[2])
    assert partition_census(2, 3, fresh) == partition_census(2, 3, cat)
    assert np.array_equal(point_records(fresh, 3), point_records(cat, 3))
    assert calls == [*ORACLE_DEFAULT_QS[2], 11, 3]


def test_a_catalog_copy_starts_with_no_tables(catalogs):
    # the memo is per instance: a replace copy of a catalog whose tables
    # are built has none, and building its tables leaves the original's
    cat = dataclasses.replace(catalogs[2])
    partition_census(2, 3, cat)
    generic_vanishing(cat)
    assert sorted(map(str, cat.memo)) == ["('slices', 3)", "generic"]
    copy = dataclasses.replace(cat)
    assert copy.memo == {} and copy == cat
    assert copy.pool == cat.pool and copy.pool is not cat.pool
    before = dict(cat.memo)
    partition_census(2, 3, copy)
    assert copy.memo[("slices", 3)] is not cat.memo[("slices", 3)]
    assert cat.memo == before


def test_a_failed_slice_table_build_is_not_kept(catalogs, monkeypatch):
    # each reader builds the failed table again, and fails alike; the
    # closure order reads F_2 first
    cat = _with_orbits(catalogs[2], [r for r in catalogs[2].orbits
                                     if r.id != "x12"])
    calls = _count_grids(monkeypatch)
    for read in (lambda: partition_census(2, 2, cat),
                 lambda: point_records(cat, 2), lambda: hasse(cat)):
        with pytest.raises(ExhaustionError, match=re.escape(
                "point [0, 0, 1] over F_2 matched no record")):
            read()
        assert ("slices", 2) not in cat.memo
    assert calls == [2, 2, 2]


def test_gather_equals_indexing_across_chunks(monkeypatch):
    # a chunk boundary anywhere, or none, changes no gathered value
    rng = np.random.default_rng(0)
    for dtype in (np.int16, np.int32):
        values = rng.integers(0, 1000, 37).astype(dtype)
        for chunk in (1, 5, 37, 1 << 14):
            monkeypatch.setattr(classify_mod, "GATHER_CHUNK", chunk)
            for size in (1, 36, 37, 38, 200):
                index = rng.integers(0, 37, size).astype(np.int32)
                got = gather(values, index)
                assert got.dtype == dtype
                assert got.tolist() == values[index].tolist()
                out = np.empty(size, dtype=dtype)
                assert gather(values, index, out) is out
                assert out.tolist() == values[index].tolist()
