"""Closure order reconstruction and Hasse diagram output."""

import pytest

from orbit_atlas.arith import Fp
from orbit_atlas.catalog import x_vars
from orbit_atlas.classify import member
from orbit_atlas.errors import InternalInconsistencyError
from orbit_atlas.lie import NilElement
from orbit_atlas.order import (CERT_FIELDS, _certify, closure_generators,
                               closure_leq, emit_dot, hasse, poset_json)


@pytest.fixture(scope="module")
def posets(catalogs):
    return {n: hasse(n, catalogs[n]) for n in (1, 2, 3)}


def test_rank1_two_chain(posets):
    p = posets[1]
    assert p.nodes == ["0", "x11"]
    assert p.covers == [("0", "x11")]


def test_rank2_cover_set_exact(posets):
    p = posets[2]
    assert set(p.covers) == {("0", "x12"), ("x12", "x11"), ("x12", "x22"),
                             ("x11", "x11+x22"), ("x22", "x11+x22")}
    assert p.minimum() == "0"
    assert p.maximum() == "x11+x22"


def test_rank2_containment_chain(posets):
    p = posets[2]
    assert p.less("0", "x12") and p.less("x12", "x11")
    assert p.less("x12", "x22") and p.less("x11", "x11+x22")


def test_rank2_simple_roots_incomparable(posets):
    p = posets[2]
    assert not p.less("x11", "x22")
    assert not p.less("x22", "x11")
    # certified by explicit points
    assert ("x11", "x22") in p.counterexamples
    assert ("x22", "x11") in p.counterexamples


def test_rank3_prose_edge(posets):
    assert posets[3].less("x12+x23", "x11+x33")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_memoised_hasse_matches_per_pair_tests(n, catalogs, posets):
    cat = catalogs[n]
    gens = closure_generators(cat)
    recs = {rec.id: rec for rec in cat.orbits}
    unmemoised = {(a, b): closure_leq(recs[a], recs[b], gens[b])
                  for a in recs for b in recs}
    assert posets[n].leq == unmemoised


def test_closure_leq_rank3_example(catalogs):
    cat = catalogs[3]
    gens = closure_generators(cat)
    assert closure_leq(cat.by_id("x12+x23"), cat.by_id("x11+x33"),
                       gens["x11+x33"])
    assert not closure_leq(cat.by_id("x11"), cat.by_id("x33"), gens["x33"])


def test_dimension_monotone_and_minmax(posets):
    for n, p in posets.items():
        for a in p.nodes:
            for b in p.nodes:
                if p.less(a, b):
                    assert p.dims[a] < p.dims[b]
        assert p.minimum() == "0"
        assert p.dims[p.maximum()] == max(p.dims.values())


def test_transitive_reduction_minimal(posets):
    p = posets[2]
    # removing any cover edge changes the generated order
    for drop in p.covers:
        kept = [e for e in p.covers if e != drop]
        reach = {(a, a) for a in p.nodes}
        frontier = set(kept)
        while frontier:
            reach |= frontier
            frontier = {(a, c) for (a, b) in reach for (b2, c) in kept
                        if b == b2 and (a, c) not in reach}
        assert (drop[0], drop[1]) not in reach


def test_equal_dimension_orbits_incomparable_rank4(catalogs):
    cat = catalogs[4]
    gens = closure_generators(cat)
    # the dependent quadratic separates these equal-dimension sets
    assert not closure_leq(cat.by_id("x23+x14"), cat.by_id("x22"),
                           gens["x22"])
    assert not closure_leq(cat.by_id("x13+x24"), cat.by_id("x22"),
                           gens["x22"])


def test_closure_generator_augmentation(catalogs):
    gens = closure_generators(catalogs[4])
    strs = [s for _, s in gens["x22"]]
    assert "X13*X24 - X23*X14" in strs


def test_dot_output_deterministic_and_wellformed(posets):
    a = emit_dot(posets[2])
    b = emit_dot(hasse(2, certify=False))
    assert a == b
    assert a.startswith("digraph closure_order {")
    assert a.endswith("}\n")
    assert a.count("->") == len(posets[2].covers)
    assert "\r" not in a
    for node in posets[2].nodes:
        assert f'"{node}"' in a


def test_poset_json_shape(posets):
    doc = poset_json(posets[2])
    assert [n["id"] for n in doc["nodes"]] == posets[2].nodes
    assert doc["covers"] == [list(e) for e in posets[2].covers]


def test_derived_poset_shapes_are_stable(posets):
    # regression pins on this artifact's own derivation (certified over the
    # configured finite fields); not claimed to match any external diagram
    assert len(posets[3].covers) == 28
    relations3 = sum(1 for a in posets[3].nodes for b in posets[3].nodes
                     if posets[3].less(a, b))
    assert relations3 == 16 * 15 - 153      # 153 certified non-relations


def _uncertified(n, cat):
    poset = hasse(n, cat, certify=False)
    return dict(poset.leq), closure_generators(cat)


@pytest.mark.parametrize("a, b, flipped_to, message", [
    # an asserted relation denied
    ("x12+x23", "x11+x33", False,
     r"every certified generator of x11\+x33 vanishes at point "
     r"\[0, 0, 0, 1, 1, 0\] of S_x12\+x23\(F_3\)"),
    # a non-relation asserted
    ("x11", "x33", True,
     r"x11 <= x33 symbolically but generator X11 is nonzero at point "
     r"\[1, 0, 0, 0, 0, 0\] of S_x11\(F_3\)"),
])
def test_certify_rejects_flipped_relation_rank3(catalogs, a, b, flipped_to,
                                                message):
    cat = catalogs[3]
    leq, gens = _uncertified(3, cat)
    assert leq[(a, b)] is not flipped_to
    leq[(a, b)] = flipped_to
    with pytest.raises(InternalInconsistencyError, match=message):
        _certify(cat, leq, gens, CERT_FIELDS[3])


def test_certify_rejects_incomplete_generating_set_rank4(catalogs):
    cat = catalogs[4]
    leq, gens = _uncertified(4, cat)
    kept = [(p, s) for p, s in gens["x22"] if s != "X13*X24 - X23*X14"]
    assert len(kept) == len(gens["x22"]) - 1
    gens["x22"] = kept
    with pytest.raises(InternalInconsistencyError):
        _certify(cat, leq, gens, CERT_FIELDS[4])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_counterexamples_sound_through_scalar_path(n, catalogs):
    cat = catalogs[n]
    poset = hasse(n, cat)
    gens = closure_generators(cat)
    non_relations = {(a, b) for a in poset.nodes for b in poset.nodes
                     if a != b and not poset.leq[(a, b)]}
    assert set(poset.counterexamples) == non_relations
    for (a, b), (q, pt, s) in poset.counterexamples.items():
        m = NilElement.from_vector(n, [Fp(v, q) for v in pt])
        assert member(cat.by_id(a), m)
        poly = next(p for p, ps in gens[b] if ps == s)
        env = {var: Fp(v, q) for var, v in zip(x_vars(n), pt)}
        assert not poly.eval_mod_p(env, q).is_zero()

