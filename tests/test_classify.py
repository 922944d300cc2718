"""Membership, classification, and census tests."""

import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbit_atlas import classify as classify_mod
from orbit_atlas.arith import Fp, LaurentPoly, parse_poly
from orbit_atlas.catalog import x_vars
from orbit_atlas.classify import (classify, decode_points,
                                  eval_poly_on_columns, match_table, member,
                                  partition_census)
from orbit_atlas.errors import (BudgetExceededError, DisjointnessError,
                                ExhaustionError, InternalInconsistencyError,
                                SchemaError, ShapeError)
from orbit_atlas.lie import (BorelWord, NilElement, RootGroupFactor,
                             TorusElement, adjoint, nil_dim, pos_roots)


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


def test_census_chunking_invariance(catalogs, monkeypatch):
    # splitting the point space differently must not change any count; a
    # slice of A3 over F_3 has 27 points, so only the chunk of 5 splits it
    whole = partition_census(3, 3, catalogs[3])
    for chunk in (97, 64, 5):
        monkeypatch.setattr(classify_mod, "SLICE_CHUNK", chunk)
        assert partition_census(3, 3, catalogs[3]) == whole


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
    # a lost point must fail loudly, also under python -O
    monkeypatch.setattr(classify_mod, "match_table",
                        lambda cat, digits, q: np.zeros(0, dtype=np.int32))
    with pytest.raises(InternalInconsistencyError,
                       match=r"rank 2 q=3: census counted 0 points, "
                             r"expected 27"):
        classify_mod.partition_census(2, 3, catalogs[2])


def test_eval_kernel_reduces_fraction_coefficients():
    # 1/2 is 3 mod 5, not int(1/2) = 0
    poly = (Fraction(1, 2) * LaurentPoly.var("X11") * LaurentPoly.var("X22")
            + Fraction(-7, 3) * LaurentPoly.var("X12") ** 2
            + LaurentPoly.var("X11"))
    q = 5
    vecs = list(itertools.product(range(q), repeat=3))
    digits = np.array(vecs, dtype=np.int64)
    cols = {var: digits[:, i] for i, var in enumerate(x_vars(2))}
    kernel = eval_poly_on_columns(poly, cols, q)
    for vec, got in zip(vecs, kernel.tolist()):
        point = {var: Fp(v, q) for var, v in zip(x_vars(2), vec)}
        assert got == poly.eval_mod_p(point, q).v


def test_eval_kernel_rejects_coefficient_undefined_mod_q():
    poly = Fraction(1, 2) * LaurentPoly.var("X11")
    cols = {"X11": np.arange(2, dtype=np.int64)}
    with pytest.raises(SchemaError, match="1/2 is undefined mod 2"):
        eval_poly_on_columns(poly, cols, 2)


def test_coefficient_undefined_mod_q_is_schema_error_on_both_paths(catalogs):
    # the scalar member path and the vectorised kernel refuse alike
    poly = Fraction(1, 2) * LaurentPoly.var("X11")
    rec = dataclasses.replace(catalogs[1].by_id("x11"), zero_set=(poly,),
                              nonzero_set=())
    with pytest.raises(SchemaError, match="1/2 is undefined mod 2"):
        member(rec, NilElement.from_vector(1, [Fp(1, 2)]))
    with pytest.raises(SchemaError, match="1/2 is undefined mod 2"):
        eval_poly_on_columns(poly, {"X11": np.arange(2, dtype=np.int64)}, 2)


def _full_enumeration_census(cat, n, q):
    # reference: classify every one of the q^d points, no torus slicing
    d = nil_dim(n)
    digits = decode_points(np.arange(q**d, dtype=np.int64), d, q)
    matched = match_table(cat, digits, q)
    counts = {rec.id: 0 for rec in cat.orbits}
    for idx, cnt in zip(*np.unique(matched, return_counts=True)):
        counts[cat.orbits[int(idx)].id] += int(cnt)
    return counts


@pytest.mark.parametrize("n,q", [(n, q) for n in (1, 2, 3)
                                 for q in (2, 3, 5, 7)] + [(4, 2), (4, 3)])
def test_sliced_census_equals_full_enumeration(catalogs, n, q):
    sliced = partition_census(n, q, catalogs[n])
    assert sliced == _full_enumeration_census(catalogs[n], n, q)
    assert list(sliced) == [rec.id for rec in catalogs[n].orbits]


def test_census_refuses_weight_inhomogeneous_catalog(catalogs):
    # X11 + X12 has one total degree but two root weights (a1, a1 + a2):
    # scaling X11 alone changes whether it vanishes, so slicing would miscount
    cat = catalogs[2]
    rec = cat.by_id("x22")
    bad = dataclasses.replace(
        rec, zero_set=(parse_poly("X11 + X12", x_vars(2)),))
    bad_cat = dataclasses.replace(
        cat, orbits=tuple(bad if r is rec else r for r in cat.orbits))
    with pytest.raises(InternalInconsistencyError,
                       match=r"record x22 polynomial X11 \+ X12 is not "
                             r"root-weight homogeneous"):
        partition_census(2, 3, bad_cat)


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
