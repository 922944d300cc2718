"""Closure order reconstruction and Hasse diagram output."""

import dataclasses
import re

import pytest

from orbit_atlas import cli, order
from orbit_atlas.arith import Fp, LaurentFraction, LaurentPoly, parse_poly
from orbit_atlas.catalog import letter_of_var, load_catalog, x_vars
from orbit_atlas.classify import member
from orbit_atlas.errors import CatalogError, InternalInconsistencyError
from orbit_atlas.lie import NilElement
from orbit_atlas.oracle import ORACLE_DEFAULT_QS
from orbit_atlas.order import (_certify, closure_generators, closure_leq,
                               emit_dot, hasse, poset_json)
from reference import certify, closure_generator_lists, less, nonlinear_zero


@pytest.fixture(scope="module")
def posets(catalogs):
    return {n: hasse(catalogs[n]) for n in (1, 2, 3, 4)}


def _slot_mask(cat, polys):
    # pool classes, as the masks hold them: a record may carry -p where
    # another's generators carry p
    return sum({1 << cat.slot[p] for p in polys})


def _dense_subs(rec):
    """X-variable bindings parametrizing a dense subset of S_rec: linear
    zero variables go to 0, each nonlinear generator's solve variable to its
    solution in the remaining coordinates, and every other variable to
    itself."""
    subs = {v: LaurentFraction(LaurentPoly.var(v)) for v in x_vars(rec.rank)}
    subs.update((v, LaurentFraction(0)) for v in rec.linear_zero_vars())
    v_of_l = {l: v for v, l in letter_of_var(rec.rank).items()}
    for c, poly in zip(rec.witness.constraints, nonlinear_zero(rec)):
        solve_var = v_of_l[c.solve]
        rest = poly.eval({**subs, solve_var: LaurentFraction(0)})
        coeff = poly.derivative(solve_var).eval(subs)
        subs[solve_var] = -rest / coeff
    return subs


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
    assert less(p, "0", "x12") and less(p, "x12", "x11")
    assert less(p, "x12", "x22") and less(p, "x11", "x11+x22")


def test_rank2_simple_roots_incomparable(posets):
    p = posets[2]
    assert not less(p, "x11", "x22")
    assert not less(p, "x22", "x11")
    # certified by explicit points
    assert ("x11", "x22") in p.counterexamples
    assert ("x22", "x11") in p.counterexamples


def test_rank3_prose_edge(posets):
    assert less(posets[3], "x12+x23", "x11+x33")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_memoised_hasse_matches_per_pair_tests(n, catalogs, posets):
    vanish = closure_generators(catalogs[n])
    per_pair = {(a, b): closure_leq(vanish[a], vanish[b])
                for a in vanish for b in vanish}
    assert posets[n].leq == per_pair


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_masks_equal_the_reference_lists(n, catalogs, posets):
    # each mask is the slot set of the polynomial-list generators, and the
    # order is frozenset inclusion over those lists
    cat = catalogs[n]
    masks = closure_generators(cat)
    lists = closure_generator_lists(cat)
    assert masks == {a: _slot_mask(cat, [p for p, _ in gens])
                     for a, gens in lists.items()}
    vanish = {a: frozenset(cat.slot[p] for p, _ in gens)
              for a, gens in lists.items()}
    assert posets[n].leq == {(a, b): vanish[b] <= vanish[a]
                             for a in vanish for b in vanish}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hasse_matches_dense_parametrization_pullback(n, catalogs, posets):
    # reference: b's generators pulled back along a dense parametrization of
    # S_a, one zero test per (record, pool polynomial)
    cat = catalogs[n]
    gens = closure_generator_lists(cat)
    pool = {p for g in gens.values() for p, _ in g}
    zero = {}
    for rec in cat.orbits:
        subs = _dense_subs(rec)
        zero[rec.id] = {p for p in pool if p.eval(subs) == 0}
    reference = {(a, b): all(p in zero[a] for p, _ in gens[b])
                 for a in gens for b in gens}
    assert posets[n].leq == reference


def test_hasse_tests_each_ordered_pair_once(catalogs, monkeypatch):
    calls = []

    def counting(vanish_a, vanish_b):
        calls.append((vanish_a, vanish_b))
        return not vanish_b & ~vanish_a

    monkeypatch.setattr(order, "closure_leq", counting)
    hasse(catalogs[3])
    assert len(calls) == 16 * 15


def test_closure_generators_rejects_nonvanishing_zero_set(catalogs):
    cat = catalogs[2]
    rec = cat.by_id("x11")
    moved = dataclasses.replace(
        rec, zero_set=rec.zero_set + rec.nonzero_set[:1],
        zero_strs=rec.zero_strs + rec.nonzero_strs[:1],
        nonzero_set=rec.nonzero_set[1:], nonzero_strs=rec.nonzero_strs[1:])
    broken = dataclasses.replace(
        cat, orbits=tuple(moved if r is rec else r for r in cat.orbits))
    with pytest.raises(InternalInconsistencyError,
                       match=re.escape(f"zero-set polynomial "
                                       f"{rec.nonzero_strs[0]} of record x11 "
                                       f"does not vanish")):
        closure_generators(broken)


def test_closure_leq_rank3_example(catalogs):
    vanish = closure_generators(catalogs[3])
    assert closure_leq(vanish["x12+x23"], vanish["x11+x33"])
    assert not closure_leq(vanish["x11"], vanish["x33"])


def test_dimension_monotone_and_minmax(posets):
    for n, p in posets.items():
        for a in p.nodes:
            for b in p.nodes:
                if less(p, a, b):
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_covers_equal_the_pairwise_reduction(posets, n):
    # the matrix-product reduction against the triple loop it replaced
    p = posets[n]
    reference = [(a, b) for a in p.nodes for b in p.nodes if less(p, a, b)
                 and not any(less(p, a, c) and less(p, c, b)
                             for c in p.nodes)]
    reference.sort(key=lambda e: (p.dims[e[0]], e[0], p.dims[e[1]], e[1]))
    assert p.covers == reference


def test_equal_dimension_orbits_incomparable_rank4(catalogs):
    vanish = closure_generators(catalogs[4])
    # the dependent quadratic separates these equal-dimension sets
    assert not closure_leq(vanish["x23+x14"], vanish["x22"])
    assert not closure_leq(vanish["x13+x24"], vanish["x22"])


def test_closure_generator_augmentation(catalogs):
    # the dependent quadric is no zero-set polynomial of x22, but its class
    # vanishes on x22's orbit
    cat = catalogs[4]
    quadric = parse_poly("X13*X24 - X23*X14", x_vars(4))
    assert _slot_mask(cat, [quadric]) & ~_slot_mask(
        cat, cat.by_id("x22").zero_set) & closure_generators(cat)["x22"]
    gens = closure_generator_lists(cat)
    assert "X13*X24 - X23*X14" in [s for _, s in gens["x22"]]
    # one generator per pool class: p and -p are never both carried
    for a, g in gens.items():
        assert len({cat.slot[p] for p, _ in g}) == len(g), a


def _twin_of_x11(cat):
    # a second record with x11's sets: each lies below the other
    x11 = cat.by_id("x11")
    return dataclasses.replace(cat, orbits=cat.orbits + (
        dataclasses.replace(x11, id="x11-twin"),))


def _x12_of_dim_3(cat):
    # x12 < x11, but x12's dim is raised past x11's
    return dataclasses.replace(cat, orbits=tuple(
        dataclasses.replace(r, dim=3) if r.id == "x12" else r
        for r in cat.orbits))


@pytest.mark.parametrize("broken, error", [
    (_twin_of_x11, "closure order cycle between x11 and x11-twin"),
    (_x12_of_dim_3, "x12 < x11 but dim 3 >= 2")], ids=["cycle", "dimension"])
def test_hasse_refuses_an_order_that_is_no_partial_order_by_dimension(
        catalogs, monkeypatch, capsys, broken, error):
    # antisymmetry and dimension monotonicity, checked before any point is
    # enumerated; check-all fails its closure-order line on the same text
    cat = broken(catalogs[2])
    with pytest.raises(CatalogError, match=f"^{re.escape(error)}$"):
        hasse(cat)
    monkeypatch.setattr(cli, "load_catalog", lambda n: cat)
    assert cli.main(["check-all", "--type", "A2"]) == 1
    assert (f"FAIL closure-order: CatalogError: {error}"
            in capsys.readouterr().out.splitlines())


def test_dot_output_deterministic_and_wellformed(posets):
    a = emit_dot(posets[2])
    b = emit_dot(hasse(load_catalog(2)))   # a fresh load, a fresh poset
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
                     if less(posets[3], a, b))
    assert relations3 == 16 * 15 - 153      # 153 certified non-relations


def _uncertified(cat):
    gens = closure_generators(cat)
    leq = {(a, b): closure_leq(gens[a], gens[b]) for a in gens for b in gens}
    return leq, gens


@pytest.mark.parametrize("a, b, flipped_to, message", [
    # an asserted relation denied
    ("x12+x23", "x11+x33", False,
     r"every certified generator of x11\+x33 vanishes at point "
     r"\[0, 0, 0, 1, 1, 0\] of S_x12\+x23\(F_2\)"),
    # a non-relation asserted
    ("x11", "x33", True,
     r"x11 <= x33 symbolically but generator X11 is nonzero at point "
     r"\[1, 0, 0, 0, 0, 0\] of S_x11\(F_2\)"),
])
def test_certify_rejects_flipped_relation_rank3(catalogs, a, b, flipped_to,
                                                message):
    cat = catalogs[3]
    leq, gens = _uncertified(cat)
    assert leq[(a, b)] is not flipped_to
    leq[(a, b)] = flipped_to
    with pytest.raises(InternalInconsistencyError, match=message):
        _certify(cat, leq, gens, ORACLE_DEFAULT_QS[3])


def test_certify_rejects_incomplete_generating_set_rank4(catalogs):
    cat = catalogs[4]
    leq, gens = _uncertified(cat)
    quadric = _slot_mask(cat, [parse_poly("X13*X24 - X23*X14", x_vars(4))])
    assert gens["x22"] & quadric
    gens["x22"] &= ~quadric
    with pytest.raises(InternalInconsistencyError):
        _certify(cat, leq, gens, ORACLE_DEFAULT_QS[4])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_counterexamples_sound_through_scalar_path(n, catalogs, posets):
    cat = catalogs[n]
    poset = posets[n]
    gens = closure_generators(cat)
    non_relations = {(a, b) for a in poset.nodes for b in poset.nodes
                     if a != b and not poset.leq[(a, b)]}
    assert set(poset.counterexamples) == non_relations
    for (a, b), (q, pt, s) in poset.counterexamples.items():
        m = NilElement.from_vector(n, [Fp(v, q) for v in pt])
        assert member(cat.by_id(a), m)
        poly = next(p for p, ps in cat.pool if ps == s)
        assert gens[b] >> cat.slot[poly] & 1
        env = {var: Fp(v, q) for var, v in zip(x_vars(n), pt)}
        assert not (Fp(0, q) + poly.eval(env)).is_zero()



@pytest.mark.parametrize("n, qs", [(n, (q,)) for n in (1, 2, 3)
                                   for q in (2, 3, 5, 7)]
                         + [(4, (2,)), (4, (3,))]
                         + [(n, ORACLE_DEFAULT_QS[n]) for n in (1, 2, 3, 4)])
def test_certify_equals_pointwise_reference(catalogs, n, qs):
    # the per-signature certificate against the per-point one; over a
    # single small field some record may have no point, and then both
    # refuse with the same message
    cat = catalogs[n]
    leq, gens = _uncertified(cat)
    try:
        want = certify(cat, leq, closure_generator_lists(cat), qs)
    except InternalInconsistencyError as exc:
        with pytest.raises(InternalInconsistencyError,
                           match=re.escape(str(exc))):
            _certify(cat, leq, gens, qs)
    else:
        got = _certify(cat, leq, gens, qs)
        assert got == want
