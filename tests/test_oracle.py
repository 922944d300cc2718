"""Brute-force orbit enumeration, refinement, and dimension audits."""

import pytest
from hypothesis import given, settings, strategies as st

from orbit_atlas.arith import Fp
from orbit_atlas.catalog import x_vars
from orbit_atlas.classify import member
from orbit_atlas.errors import BudgetExceededError, InternalInconsistencyError
from orbit_atlas.lie import (BorelWord, NilElement, RootGroupFactor,
                             TorusElement, conjugate_nil, pos_roots)
from orbit_atlas.oracle import (_word_map, enumerate_borel_orbits,
                                generator_sufficiency_check, jacobian_rank_dim,
                                orbit_sample_points, refine_check,
                                stability_check)


def test_rank1_rational_splitting():
    # the torus acts by squares, so F_3 splits the punctured line in two
    part = enumerate_borel_orbits(1, 3)
    assert part.class_count == 3
    assert sorted(part.sizes) == [1, 1, 1]
    part = enumerate_borel_orbits(1, 2)
    assert part.class_count == 2


def test_rank1_refinement():
    report = refine_check(1, 3)
    assert report.ok
    assert report.classes_per_record["x11"] and len(
        report.classes_per_record["x11"]) == 2
    assert report.classes_per_record["0"] and len(
        report.classes_per_record["0"]) == 1


def test_rank2_q3_classes_refine_catalog():
    part = enumerate_borel_orbits(2, 3)
    report = refine_check(2, 3, partition=part)
    assert report.ok
    assert report.nonempty_record_count() == 5
    stability_check(part)
    assert generator_sufficiency_check(part, extra=100)


def test_rank3_q3_sixteen_sets_nonempty():
    report = refine_check(3, 3)
    assert report.ok
    assert report.nonempty_record_count() == 16


def test_rank4_q2_union_property():
    report = refine_check(4, 2)
    assert report.ok          # emptiness over F_2 would be reported, not failed
    assert not report.violations


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        enumerate_borel_orbits(4, 5, budget=10_000)


def test_class_sizes_divide_group_order():
    for n, q in ((1, 5), (2, 3), (2, 5), (3, 3)):
        part = enumerate_borel_orbits(n, q)
        d = len(part.class_of)
        group_order = (q - 1) ** n * q ** (n * (n + 1) // 2)
        for size in part.sizes:
            assert group_order % size == 0


def test_partition_is_canonical_and_deterministic():
    a = enumerate_borel_orbits(2, 5)
    b = enumerate_borel_orbits(2, 5)
    assert (a.class_of == b.class_of).all()
    assert a.reps == b.reps
    # class labels are the least point codes, in increasing order
    assert a.reps == sorted(a.reps)


def test_point_count_growth_sanity(catalogs):
    from orbit_atlas.classify import partition_census
    q1, q2 = 3, 5
    for n in (2, 3):
        c1 = partition_census(n, q1)
        c2 = partition_census(n, q2)
        for rec in catalogs[n].orbits:
            if rec.dim == 0:
                continue
            ratio = c2[rec.id] / c1[rec.id]
            model = (q2 / q1) ** rec.dim
            assert 0.3 * model <= ratio <= 3 * model, rec.id


def test_jacobian_dims_all_records(catalogs):
    for n, cat in catalogs.items():
        for rec in cat.orbits:
            assert jacobian_rank_dim(rec) == rec.dim, rec.id


def test_jacobian_rank_values_at_special_records(catalogs):
    # the six-generator description whose naive three-quadric variant is
    # algebraically dependent: full rank 6 at the representative
    rec = catalogs[4].by_id("x22")
    assert len(rec.zero_set) == 6
    assert jacobian_rank_dim(rec) == 4
    assert jacobian_rank_dim(catalogs[1].by_id("0")) == 0
    assert jacobian_rank_dim(catalogs[2].by_id("x11+x22")) == 3


def test_stability_check_detects_corruption():
    part = enumerate_borel_orbits(1, 5)
    # split one orbit across two labels: stability must catch it
    moved = int([c for c in range(5) if part.class_of[c] == 1][-1])
    part.class_of[moved] = 2
    with pytest.raises(InternalInconsistencyError):
        stability_check(part)


@st.composite
def _word_over_fq(draw):
    n = draw(st.integers(1, 4))
    q = draw(st.sampled_from((2, 3, 5, 7)))
    torus = None
    if draw(st.booleans()):
        torus = TorusElement(n, tuple(Fp(draw(st.integers(1, q - 1)), q)
                                      for _ in range(n)))
    factors = tuple(
        RootGroupFactor(draw(st.sampled_from(pos_roots(n))),
                        Fp(draw(st.integers(0, q - 1)), q))
        for _ in range(draw(st.integers(0, 6))))
    return BorelWord(n, torus, factors), q


@settings(max_examples=200, deadline=None)
@given(_word_over_fq())
def test_word_map_matches_literal_conjugation(case):
    word, q = case
    g, g_inv = word.to_matrix(), word.inverse_matrix()
    roots = pos_roots(word.rank)
    columns = [conjugate_nil(g, g_inv, NilElement(word.rank, {beta: Fp(1, q)}))
               for beta in roots]
    assert _word_map(word, q).tolist() == [
        [x.coords.get(r, Fp(0, q)).v for x in columns] for r in roots]


def test_orbit_sample_points_lie_in_their_orbit(catalogs):
    p = 101
    for n, cat in catalogs.items():
        for rec in cat.orbits:
            for env in orbit_sample_points(rec, 5, p):
                point = NilElement.from_vector(
                    n, [Fp(env[v], p) for v in x_vars(n)])
                assert member(rec, point), (rec.id, env)
