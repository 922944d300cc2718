"""Brute-force orbit enumeration, refinement, and the dimension certificate."""

import math
import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbit_atlas import classify, cli, oracle
from orbit_atlas.arith import Fp, LaurentPoly, parse_poly, primitive_root
from orbit_atlas.catalog import x_vars
from orbit_atlas.classify import member
from orbit_atlas.cli import main
from orbit_atlas.errors import (BudgetExceededError, CatalogError,
                                InternalInconsistencyError, SchemaError,
                                ShapeError)
from orbit_atlas.lie import (BorelWord, NilElement, RootGroupFactor,
                             TorusElement, adjoint, nil_dim, pos_roots)
from orbit_atlas.oracle import (CODE_LIMIT, ORACLE_DEFAULT_QS, OrbitPartition,
                                _bracket_rows, _gradient, _rank_exact,
                                enumerate_borel_orbits, image_codes,
                                jacobian_rank_dim, refine_check,
                                stability_check)
from conftest import _row
from reference import (broadcast_image_codes, broadcast_point_records,
                       commutator_identities, conjugate_nil,
                       coroot_bracket_rows, decode_points,
                       derivative_jacobian, describe_word, gauss_jordan_rank,
                       generator_passes, inverse_matrix,
                       nonempty_record_count, rank_mod_p, root_word,
                       slot_word, to_matrix, torus_word, word_identities,
                       word_map)


def _encode_points(digits, q):
    codes = np.zeros(digits.shape[0], dtype=np.int64)
    for i in range(digits.shape[1]):
        codes = codes * q + digits[:, i]
    return codes


def _reference_image_codes(m, q):
    # reference: decode all q^d points, multiply, reduce and encode
    d = m.shape[0]
    digits = decode_points(np.arange(q**d, dtype=np.int64), d, q)
    return _encode_points((digits @ m.T) % q, q)


def _all_generators(n, q):
    """(name, map) of the slot tori at the primitive root and of U_root(1)
    for every positive root, the non-simple ones included."""
    g0 = primitive_root(q)
    words = [slot_word(n, slot, g0, q) for slot in range(n)]
    words += [root_word(n, root, 1, q) for root in pos_roots(n)]
    return [(describe_word(word), word_map(word, q)) for word in words]


def _reference_bfs(n, q):
    """Reference BFS without code tables over every generator of
    ``_all_generators``: decode the frontier, multiply by every generator
    map, reduce and encode, layer by layer."""
    d = nil_dim(n)
    total = q**d
    maps = [m for _, m in _all_generators(n, q)]
    class_of = np.full(total, -1, dtype=np.int32)
    reps, sizes = [], []
    for cursor in range(total):
        if class_of[cursor] >= 0:
            continue
        cls = len(reps)
        reps.append(cursor)
        class_of[cursor] = cls
        frontier = np.array([cursor], dtype=np.int64)
        size = 1
        while frontier.size:
            digits = decode_points(frontier, d, q)
            nxt = []
            for g in maps:
                codes = _encode_points((digits @ g.T) % q, q)
                fresh = np.unique(codes[class_of[codes] < 0])
                class_of[fresh] = cls
                size += fresh.size
                nxt.append(fresh)
            frontier = np.concatenate(nxt)
        sizes.append(size)
    return class_of, reps, sizes


def _reference_stability_check(part):
    """Reference stability certificate: apply every U_root(c), every slot
    torus and every full torus element to the whole space, and compare
    classes.  Returns the number of elements checked."""
    n, q = part.rank, part.q
    d = nil_dim(n)
    words = [root_word(n, root, c, q) for root in pos_roots(n) for c in range(q)]
    words += [slot_word(n, slot, c, q) for slot in range(n) for c in range(1, q)]
    words += [torus_word(n, diag, q)
              for diag in product(range(1, q), repeat=n)]
    for word in words:
        codes = image_codes(word_map(word, q), q)
        moved = part.class_of[codes] != part.class_of
        if moved.any():
            bad = int(np.argmax(moved))
            point = decode_points(np.array([bad]), d, q)[0].tolist()
            raise InternalInconsistencyError(
                f"rank {n} F_{q}: class not stable under "
                f"{describe_word(word)}: point {point} in class "
                f"{int(part.class_of[bad])} maps to class "
                f"{int(part.class_of[codes[bad]])}")
    return len(words)


ORACLE_CASES = [(n, q) for n, qs in ORACLE_DEFAULT_QS.items() for q in qs]


@pytest.fixture(scope="module")
def partitions(families):
    return {(n, q): enumerate_borel_orbits(n, q, families=families[n])
            for n, q in ORACLE_CASES}


def test_rank1_rational_splitting(families):
    # the torus acts by squares, so F_3 splits the punctured line in two
    part = enumerate_borel_orbits(1, 3, families=families[1])
    assert part.class_count == 3
    assert sorted(part.sizes) == [1, 1, 1]
    part = enumerate_borel_orbits(1, 2, families=families[1])
    assert part.class_count == 2


def test_rank1_refinement(catalogs, families):
    report = refine_check(catalogs[1],
                          enumerate_borel_orbits(1, 3, families=families[1]))
    assert report.ok
    assert report.classes_per_record["x11"] and len(
        report.classes_per_record["x11"]) == 2
    assert report.classes_per_record["0"] and len(
        report.classes_per_record["0"]) == 1


def _uniform_word(n, q, rng):
    """Uniform element of B(F_q): a random torus times one random U_root
    factor per positive root (for a fixed root order this product is a
    bijection onto B(F_q))."""
    torus = TorusElement(n, tuple(Fp(rng.randrange(1, q), q) for _ in range(n)))
    factors = tuple(RootGroupFactor(root, Fp(rng.randrange(q), q))
                    for root in pos_roots(n))
    return BorelWord(n, torus, factors)


def test_rank2_q3_classes_refine_catalog(catalogs, families):
    part = enumerate_borel_orbits(2, 3, families=families[2])
    report = refine_check(catalogs[2], part)
    assert report.ok
    assert nonempty_record_count(report) == 5
    stability_check(part)
    # adding uniform random Borel elements never merges classes
    rng = random.Random(0)
    for _ in range(100):
        codes = image_codes(word_map(_uniform_word(2, 3, rng), 3), 3)
        assert (part.class_of[codes] == part.class_of).all()


def test_rank3_q3_sixteen_sets_nonempty(catalogs, families):
    report = refine_check(catalogs[3],
                          enumerate_borel_orbits(3, 3, families=families[3]))
    assert report.ok
    assert nonempty_record_count(report) == 16


def test_rank4_q2_union_property(catalogs, families):
    report = refine_check(catalogs[4],
                          enumerate_borel_orbits(4, 2, families=families[4]))
    assert report.ok          # emptiness over F_2 would be reported, not failed
    assert not report.violations


def test_budget_refusal(families):
    with pytest.raises(BudgetExceededError):
        enumerate_borel_orbits(4, 5, budget=10_000, families=families[4])


def test_class_sizes_divide_group_order(families):
    for n, q in ((1, 5), (2, 3), (2, 5), (3, 3)):
        part = enumerate_borel_orbits(n, q, families=families[n])
        d = len(part.class_of)
        group_order = (q - 1) ** n * q ** (n * (n + 1) // 2)
        for size in part.sizes:
            assert group_order % size == 0


def test_partition_is_canonical_and_deterministic(families):
    a = enumerate_borel_orbits(2, 5, families=families[2])
    b = enumerate_borel_orbits(2, 5, families=families[2])
    assert (a.class_of == b.class_of).all()
    assert a.reps == b.reps
    # class labels are the least point codes, in increasing order
    assert a.reps == sorted(a.reps)


def test_point_count_growth_sanity(catalogs):
    from orbit_atlas.classify import partition_census
    q1, q2 = 3, 5
    for n in (2, 3):
        c1 = partition_census(n, q1, catalogs[n])
        c2 = partition_census(n, q2, catalogs[n])
        for rec in catalogs[n].orbits:
            if rec.dim == 0:
                continue
            ratio = c2[rec.id] / c1[rec.id]
            model = (q2 / q1) ** rec.dim
            assert 0.3 * model <= ratio <= 3 * model, rec.id


def test_jacobian_dims_all_records(catalogs, families):
    for n, cat in catalogs.items():
        for rec in cat.orbits:
            assert jacobian_rank_dim(rec, families[n]) == rec.dim, rec.id


def test_jacobian_rank_values_at_special_records(catalogs, families):
    # the six-generator description whose naive three-quadric variant is
    # algebraically dependent: full rank 6 at the representative
    rec = catalogs[4].by_id("x22")
    assert len(rec.zero_set) == 6
    assert jacobian_rank_dim(rec, families[4]) == 4
    assert jacobian_rank_dim(catalogs[1].by_id("0"), families[1]) == 0
    assert jacobian_rank_dim(catalogs[2].by_id("x11+x22"), families[2]) == 3


def test_dims_certificate_rejects_a_dropped_zero_generator(catalog_copy,
                                                           capsys):
    # without X11 the zero set of x12 leaves 6 - 3 = 3 coordinates at the
    # representative, but the orbit [b, rep] has dimension 2.  The loader
    # requires dim = 6 - (generator count), so the copy also claims dim 3,
    # which the Jacobian rank alone would accept.
    def without_x11(row):
        assert row["zero_set"][0] == "X11" and row["dim"] == 2
        del row["zero_set"][0]
        row["dim"] = 3

    catalog_copy(3, _row("x12", without_x11))
    assert main(["dims", "--type", "A3"]) == 1
    err = capsys.readouterr().err
    assert "check failed: x12: orbit dimension 2 (rank of [b, rep]) != 3" in err
    assert main(["check-all", "--type", "A3"]) == 1
    assert "FAIL dimensions: InternalInconsistencyError: x12" in (
        capsys.readouterr().out)


@pytest.mark.parametrize("n", [3, 4])
def test_dims_certificate_needs_every_first_zero_generator(catalogs, families,
                                                          n):
    for rec in catalogs[n].orbits:
        if rec.zero_set:
            cut = replace(rec, zero_set=rec.zero_set[1:],
                          zero_strs=rec.zero_strs[1:])
            with pytest.raises(InternalInconsistencyError,
                               match=re.escape(f"{rec.id}: orbit dimension")):
                jacobian_rank_dim(cut, families[n])


def test_integer_rank_equals_gauss_jordan_on_every_record(catalogs,
                                                         families):
    # every Jacobian and bracket matrix the dimension certificate ranks, and
    # the coroot rows of the reference
    seen = 0
    for n, cat in catalogs.items():
        for rec in cat.orbits:
            rep = rec.representative
            for rows in (derivative_jacobian(rec),
                         _bracket_rows(rep, families[n]),
                         coroot_bracket_rows(rep)):
                assert _rank_exact(rows) == gauss_jordan_rank(rows), rec.id
            seen += 1
    assert seen == 84


def test_gradient_rows_equal_the_derivative_reference(catalogs):
    # read off the terms, every row is ints and equals the derivative
    # polynomials evaluated at the representative
    seen = 0
    for n, cat in catalogs.items():
        for rec in cat.orbits:
            env = dict(zip(x_vars(n), rec.representative.as_vector()))
            rows = [_gradient(poly, env, x_vars(n)) for poly in rec.zero_set]
            assert all(type(x) is int for row in rows for x in row), rec.id
            assert rows == derivative_jacobian(rec), rec.id
            seen += 1
    assert seen == 84


def test_gradient_reads_integer_coefficients_at_rational_points():
    # polynomials are over Z; rationals are values, here the point's
    x, y = LaurentPoly.var("X11"), LaurentPoly.var("X22")
    poly = 5 * x**2 * y - 3 * x * y + y**3
    point = {"X11": Fraction(2, 3), "X22": -2}
    want = [poly.derivative(v).eval(point) for v in ("X11", "X22", "X12")]
    assert _gradient(poly, point, ("X11", "X22", "X12")) == want
    # at a zero coordinate only a term linear in it survives its derivative
    point = {"X11": 0, "X22": 5}
    assert _gradient(x * y + x**2 - 7 * y, point, ("X11", "X22")) == [5, -7]


def test_family_bracket_rows_have_the_coroot_rows_rank(catalogs, families):
    # the slot-torus directions e_k - e_(n+1) = h_k + ... + h_n are a
    # unimodular change of the coroot basis, so the two row sets have one
    # rank over Q and over every F_p, rank drops mod p included
    seen = 0
    for n, cat in catalogs.items():
        for rec in cat.orbits:
            rows = _bracket_rows(rec.representative, families[n])
            assert all(type(x) is int for row in rows for x in row), rec.id
            want = coroot_bracket_rows(rec.representative)
            assert _rank_exact(rows) == _rank_exact(want), rec.id
            for p in (2, 3, 5, 7, 11):
                assert rank_mod_p(rows, p) == rank_mod_p(want, p), (rec.id, p)
            seen += 1
    assert seen == 84


_RATIONAL = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


@st.composite
def _rational_matrix(draw):
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    if draw(st.booleans()):
        return [draw(st.lists(_RATIONAL, min_size=cols, max_size=cols))
                for _ in range(rows)]
    # a product through an inner dimension below both sides: rank at most
    # inner, so the elimination must find the dependent rows
    inner = draw(st.integers(0, max(0, min(rows, cols) - 1)))
    b = [draw(st.lists(_RATIONAL, min_size=inner, max_size=inner))
         for _ in range(rows)]
    c = [draw(st.lists(_RATIONAL, min_size=cols, max_size=cols))
         for _ in range(inner)]
    return [[sum((b[i][k] * c[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


def _cleared(rows):
    """The rows scaled by one common denominator: an int matrix of the same
    rank."""
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    ints = [[int(x * scale) for x in row] for row in rows]
    assert all(type(x) is int for row in ints for x in row)
    return ints


@settings(max_examples=200, deadline=None)
@given(_rational_matrix())
def test_integer_rank_equals_gauss_jordan(rows):
    # the rank takes int rows: the rational matrix enters cleared
    assert _rank_exact(_cleared(rows)) == gauss_jordan_rank(rows)


@settings(max_examples=200, deadline=None)
@given(_rational_matrix(), st.data())
def test_integer_rank_of_int_and_mixed_rows(rows, data):
    # the bracket rows and the Jacobian rows are both ints; scaling each
    # row by its own nonzero integer keeps the rank, and the content
    # division keeps the eliminated rows small either way
    ints = _cleared(rows)
    assert _rank_exact(ints) == gauss_jordan_rank(ints) == (
        gauss_jordan_rank(rows))
    factors = data.draw(st.lists(st.sampled_from((-6, -1, 1, 2, 35)),
                                 min_size=len(ints), max_size=len(ints)))
    scaled = [[f * x for x in row] for f, row in zip(factors, ints)]
    assert _rank_exact(scaled) == gauss_jordan_rank(scaled) == (
        _rank_exact(ints))


def _split_rank1_orbit(families):
    part = enumerate_borel_orbits(1, 5, families=families[1])
    # split one orbit across two labels after the fixpoint
    moved = int([c for c in range(5) if part.class_of[c] == 1][-1])
    part.class_of[moved] = 2
    return part


def _relabel_into_zero_class(part):
    """A copy of ``part`` with the last point of its largest class
    relabelled as the zero orbit's class, and that point."""
    part = replace(part, class_of=part.class_of.copy())
    moved = int(np.flatnonzero(
        part.class_of == int(np.argmax(part.sizes)))[-1])
    part.class_of[moved] = part.class_of[0]
    return part, moved


def _fixpoint_over(monkeypatch, families, n, q, gens):
    """The fixpoint partition over the (name, map) pairs ``gens`` in place
    of ``_generators``; ``stability_check`` still reads the real list."""
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_generators", lambda n, q, _: gens)
        return enumerate_borel_orbits(n, q, families=families[n])


def _fixpoint_without(monkeypatch, families, n, q, drop):
    """The fixpoint partition over ``_all_generators`` with the generators
    at the indices ``drop`` left out: stable under every other one."""
    return _fixpoint_over(monkeypatch, families, n, q, [
        gen for k, gen in enumerate(_all_generators(n, q)) if k not in drop])


def test_fixpoint_generators_are_the_2n_simple_ones(families):
    # U_root(1) for every simple root, then the slot tori at the primitive
    # root, leaving out each map that is I mod q
    assert [name for name, _ in oracle._generators(
        2, 5, families[2])] == ["U_x11(1)", "U_x22(1)", "torus diag(2, 1)",
                                "torus diag(1, 2)"]
    for n in ORACLE_DEFAULT_QS:
        for q in (2, 3, 5):
            every = _all_generators(n, q)
            want = [(name, m) for name, m in every[n:2 * n] + every[:n]
                    if not (m == np.identity(nil_dim(n))).all()]
            got = oracle._generators(n, q, families[n])
            assert [name for name, _ in got] == [
                name for name, _ in want], (n, q)
            for (_, m), (_, m_want) in zip(got, want):
                assert (m == m_want).all(), (n, q)
            if q == 5:
                assert len(got) == (1 if n == 1 else 2 * n)


def test_fixpoint_on_2n_generators_matches_all_generators(monkeypatch,
                                                          families,
                                                          partitions):
    # U_root(1) of a non-simple root is a commutator of simple ones, so
    # leaving it out of the fixpoint changes no class
    for (n, q), part in partitions.items():
        full = _fixpoint_without(monkeypatch, families, n, q, set())
        assert (part.class_of == full.class_of).all(), (n, q)
        assert part.reps == full.reps and part.sizes == full.sizes, (n, q)
        assert full.generators == tuple(
            name for name, _ in _all_generators(n, q))


def _fixpoint_at_root(monkeypatch, families, n, q, g):
    """The fixpoint partition with the slot tori taken at g."""
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "primitive_root", lambda q: g)
        return enumerate_borel_orbits(n, q, families=families[n])


def test_stability_check_detects_corruption(families):
    # a class edited after the fixpoint: the whole-space reference sees it
    part = _split_rank1_orbit(families)
    with pytest.raises(InternalInconsistencyError, match=re.escape(
            "rank 1 F_5: class not stable under torus diag(2): "
            "point [1] in class 1 maps to class 2")):
        generator_passes(part, oracle._generators(1, 5, families[1]))


def test_stability_failure_names_its_counterexample(families, partitions):
    # a class edited after the fixpoint: the whole-space reference names
    # the generator, the point and both classes
    part, moved = _relabel_into_zero_class(partitions[(3, 7)])
    with pytest.raises(InternalInconsistencyError) as info:
        generator_passes(part, oracle._generators(3, 7, families[3]))
    found = re.fullmatch(
        r"rank 3 F_7: class not stable under "
        r"(U_x[1-3][1-3]\([0-6]\)|torus diag\([1-6](, [1-6]){2}\)): "
        r"point \[([0-6](, [0-6]){5})\] in class (\d+) maps to class (\d+)",
        str(info.value))
    assert found, str(info.value)
    digits = [int(v) for v in found.group(3).split(", ")]
    code = sum(v * 7**(5 - i) for i, v in enumerate(digits))
    assert int(found.group(5)) == part.class_of[code]
    assert int(found.group(5)) != int(found.group(6))
    assert moved in (code, int(image_codes(
        word_map(_described_word(found.group(1)), 7), 7)[code]))


def _described_word(text):
    # inverse of the element names in stability messages, at rank 3 over F_7
    if text.startswith("U_"):
        root = (int(text[3]), int(text[4]))
        return BorelWord(3, None, (RootGroupFactor(root, Fp(int(text[6]), 7)),))
    diag = tuple(Fp(int(v), 7) for v in text[len("torus diag("):-1].split(", "))
    return BorelWord(3, TorusElement(3, diag))


def test_bfs_matches_frontier_matmul_reference(partitions):
    for (n, q), part in partitions.items():
        class_of, reps, sizes = _reference_bfs(n, q)
        assert (part.class_of == class_of).all(), (n, q)
        assert part.reps == reps, (n, q)
        assert part.sizes == sizes, (n, q)


def test_stability_catches_a_generator_set_without_the_slot_tori(monkeypatch,
                                                                 families):
    # U_root(1) alone gives the unipotent orbits, a finer partition that
    # every U_root(c) keeps but the torus does not; the certificate reads
    # the list of ``_generators`` itself, not the fixpoint's
    unipotent = [(name, m) for name, m in oracle._generators(2, 5, families[2])
                 if name.startswith("U_")]
    part = _fixpoint_over(monkeypatch, families, 2, 5, unipotent)
    assert part.class_count > 5
    assert part.generators == ("U_x11(1)", "U_x22(1)")
    with pytest.raises(InternalInconsistencyError, match=re.escape(
            "rank 2 F_5: stability under torus diag(2, 1) is not certified: "
            "the fixpoint's last round passed no table of it")):
        stability_check(part)
    with pytest.raises(InternalInconsistencyError,
                       match=r"rank 2 F_5: class not stable under "
                             r"torus diag\([1-4], [1-4]\): point "):
        _reference_stability_check(part)


def _join_classes(part, a, b):
    """``part`` with classes a and b joined, classes renumbered by least
    point: a union of orbits, so still stable under the fixpoint's
    generators, but it may span records."""
    label = np.array(part.reps)[part.class_of]
    label[(part.class_of == a) | (part.class_of == b)] = min(part.reps[a],
                                                              part.reps[b])
    reps = np.unique(label)
    class_of = np.searchsorted(reps, label).astype(np.int32)
    return OrbitPartition(part.rank, part.q, class_of, reps.tolist(),
                          np.bincount(class_of).tolist(), part.families,
                          generators=part.generators)


def _join_x12_with_generic(monkeypatch):
    # at rank 2 over F_2 and F_3, class 1 is x12 (rep point [0, 0, 1]) and
    # the last class is x11+x22
    def joined(n, q, *args, **kwargs):
        part = enumerate_borel_orbits(n, q, *args, **kwargs)
        return _join_classes(part, 1, part.class_count - 1)

    monkeypatch.setattr(cli, "enumerate_borel_orbits", joined)


SPLIT_CLASS = "class 1 (rep point [0, 0, 1]) meets records ['x12', 'x11+x22']"


def test_refine_names_a_class_that_spans_two_records(catalogs, families):
    part = enumerate_borel_orbits(2, 3, families=families[2])
    assert refine_check(catalogs[2], part).classes_per_record["x12"] == [1]
    joined = _join_classes(part, 1, part.class_count - 1)
    report = refine_check(catalogs[2], joined)
    assert not report.ok
    assert report.violations == [SPLIT_CLASS]
    assert report.class_count == 4
    # classes within one record are still assigned, after renumbering
    assert report.classes_per_record == {"0": [0], "x12": [], "x11": [3],
                                         "x22": [2], "x11+x22": []}


def test_oracle_command_fails_on_a_class_that_spans_two_records(
        monkeypatch, capsys):
    _join_x12_with_generic(monkeypatch)
    assert main(["oracle", "--type", "A2", "--q", "3"]) == 1
    assert f"# FAIL q=3: {SPLIT_CLASS}\n" in capsys.readouterr().err


def test_check_all_fails_on_a_class_that_spans_two_records(
        monkeypatch, capsys):
    _join_x12_with_generic(monkeypatch)
    assert main(["check-all", "--type", "A2"]) == 1
    assert f"FAIL oracle: q=2: {SPLIT_CLASS}\n" in capsys.readouterr().out


def test_stability_maps_per_rank(partitions):
    maps = {n: 0 for n in ORACLE_DEFAULT_QS}
    applied = {n: 0 for n in ORACLE_DEFAULT_QS}
    for (n, _), part in partitions.items():
        result = stability_check(part)
        maps[n] += result["maps_checked"]
        applied[n] += result["maps_applied"]
    assert maps == {1: 43, 2: 134, 3: 430, 4: 79}
    # a table in the fixpoint's last round per generator (simple U_root(1)
    # and slot torus) whose map is not I mod q: U_x11(1) at rank 1, the
    # slot tori over F_2 and at rank 1 over F_3 act trivially; the
    # non-simple roots' U_root(1) are commutators, proved on the families
    # with no table
    assert applied == {1: 2, 2: 14, 3: 21, 4: 12}


def test_stability_check_agrees_with_the_reference(partitions):
    for case, part in partitions.items():
        assert stability_check(part)["maps_checked"] == (
            _reference_stability_check(part)), case


@pytest.mark.parametrize("n,q", ORACLE_CASES)
def test_exit_round_passes_every_generator_of_the_reference(families,
                                                            partitions, n, q):
    # the fixpoint's last round stands in for one whole-space pass per
    # generator: the partition passes each of them, and names them all
    part = partitions[(n, q)]
    gens = oracle._generators(n, q, families[n])
    assert generator_passes(part, gens) == list(part.generators)
    assert len(part.generators) == stability_check(part)["maps_applied"]


@pytest.mark.parametrize("q", [3, 5])
def test_exit_round_certifies_exactly_the_generators_it_used(monkeypatch,
                                                             families, q):
    # over every subset of the four rank-2 generators, the fixpoint is
    # stable under each generator it used, by the reference's whole-space
    # pass, and names exactly those; stability_check refuses every proper
    # subset, naming the first generator it lacks
    gens = oracle._generators(2, q, families[2])
    names = [name for name, _ in gens]
    assert len(gens) == 4
    for size in range(5):
        for used in combinations(range(4), size):
            subset = [gens[k] for k in used]
            part = _fixpoint_over(monkeypatch, families, 2, q, subset)
            assert part.generators == tuple(names[k] for k in used)
            assert generator_passes(part, subset) == list(part.generators)
            if size == 4:
                stability_check(part)
                continue
            first = names[min(set(range(4)) - set(used))]
            with pytest.raises(InternalInconsistencyError, match=re.escape(
                    f"rank 2 F_{q}: stability under {first} is not "
                    f"certified")):
                stability_check(part)


def test_stability_refuses_a_hand_built_partition(partitions):
    # the classes are the fixpoint's own, but no fixpoint round passed a
    # table for this partition
    part = partitions[(2, 3)]
    bare = OrbitPartition(2, 3, part.class_of, part.reps, part.sizes,
                          part.families)
    assert bare.generators == ()
    with pytest.raises(InternalInconsistencyError, match=re.escape(
            "rank 2 F_3: stability under U_x11(1) is not certified: the "
            "fixpoint's last round passed no table of it")):
        stability_check(bare)
    assert stability_check(replace(bare, generators=part.generators)) == (
        stability_check(part))


#: partitions whose classes were edited after the fixpoint; stability_check
#: reads the fixpoint's generator names and not ``class_of``, so only the
#: whole-space reference sees the edit
EDITED_AFTER_THE_FIXPOINT = {"split rank 1 over F_5", "relabelled A3 over F_7"}

CORRUPTED = {
    "split rank 1 over F_5":
        lambda patch, fams, parts: _split_rank1_orbit(fams),
    "relabelled A3 over F_7":
        lambda patch, fams, parts: _relabel_into_zero_class(parts[(3, 7)])[0],
    "A2 over F_5 without slot tori":
        lambda patch, fams, parts: _fixpoint_without(patch, fams, 2, 5,
                                                     {0, 1}),
    "A2 over F_5 with tori at 4":
        lambda patch, fams, parts: _fixpoint_at_root(patch, fams, 2, 5, 4),
    **{f"A2 over F_5 without generator {k}":
       lambda patch, fams, parts, k=k: _fixpoint_without(patch, fams, 2, 5,
                                                          {k})
       for k in range(4)},
}


@pytest.mark.parametrize("case", CORRUPTED)
def test_stability_check_and_reference_both_reject(monkeypatch, families,
                                                   partitions, case):
    part = CORRUPTED[case](monkeypatch, families, partitions)
    with pytest.raises(InternalInconsistencyError):
        _reference_stability_check(part)
    if case in EDITED_AFTER_THE_FIXPOINT:
        stability_check(part)
        return
    with pytest.raises(InternalInconsistencyError):
        stability_check(part)


@pytest.mark.parametrize("q", [3, 5])
def test_stability_names_each_generator_the_partition_needs(monkeypatch,
                                                            families, q):
    # every rank-2 generator but U_x12(1), a commutator of U_x11(1) and
    # U_x22(1), is needed: without it the fixpoint splits an orbit, the
    # reference's pass of that generator sees the split, and stability_check
    # names the generator whose table the fixpoint lacks
    full = enumerate_borel_orbits(2, q, families=families[2])
    needed = ["torus diag(2, 1)", "torus diag(1, 2)", "U_x11(1)", "U_x22(1)"]
    for k, name in enumerate(needed):
        part = _fixpoint_without(monkeypatch, families, 2, q, {k})
        assert part.class_count > full.class_count, name
        assert name not in part.generators
        with pytest.raises(InternalInconsistencyError, match=re.escape(
                f"rank 2 F_{q}: class not stable under {name}: point ")):
            generator_passes(part, oracle._generators(2, q, families[2]))
        with pytest.raises(InternalInconsistencyError, match=re.escape(
                f"rank 2 F_{q}: stability under {name} is not certified")):
            stability_check(part)
    redundant = _fixpoint_without(monkeypatch, families, 2, q, {4})
    assert (redundant.class_of == full.class_of).all()


def _corrupt_family(monkeypatch, torus, change):
    """``oracle._family`` with ``change`` applied to the entries of the
    torus family (``torus``) or else of U_x11(@c)."""
    family = oracle._family

    def corrupted(word):
        entries = family(word)
        if (word.torus is not None if torus
                else word.factors and word.factors[0].root == (1, 1)):
            entries = change(list(entries))
        return entries

    monkeypatch.setattr(oracle, "_family", corrupted)


def _family_rejected(monkeypatch, capsys, n, torus, change, message):
    # the family read that the stability certificate rests on, dims, and
    # check-all's dimension and oracle checks (which read the same families)
    # all refuse the corrupted family with one message, each check under
    # its own name
    with monkeypatch.context() as patch:
        _corrupt_family(patch, torus, change)
        with pytest.raises(InternalInconsistencyError) as info:
            oracle.read_families(n)
        assert str(info.value) == message
        capsys.readouterr()
        assert main(["dims", "--type", f"A{n}"]) == 1
        assert capsys.readouterr() == ("", f"check failed: {message}\n")
        assert main(["check-all", "--type", f"A{n}"]) == 1
        out = capsys.readouterr().out
        for check in ("dimensions", "oracle"):
            assert (f"FAIL {check}: InternalInconsistencyError: {message}\n"
                    in out), check


def test_stability_rejects_an_element_off_its_generator_power(
        monkeypatch, capsys):
    # at rank 2, U_x11(@c) is I + @c E with E the (x12, x22) unit: each
    # corruption makes some U_x11(c) differ from U_x11(1)^c
    c = LaurentPoly.var("@c")
    cases = [
        (lambda es: [(r, k, p + c**2 if p == c else p) for r, k, p in es],
         "rank 2: U_x11(@c) entry (x12, x22) is @c^2 + @c, not affine in @c "
         "with integer coefficients"),
        (lambda es: es + [(1, 2, c)],
         "rank 2: U_x11(@c) = I + @c A with A A != 0: entry (x22, x22) is 1"),
        (lambda es: es[1:],
         "rank 2: U_x11(@c) at @c = 0 is not I: entry (x11, x11) is 0")]
    for change, message in cases:
        _family_rejected(monkeypatch, capsys, 2, False, change, message)


def test_stability_rejects_a_torus_family_off_its_slot_powers(
        monkeypatch, capsys):
    # diag(@s1, @s2) scales x11 by @s1*@s2^-1: each corruption breaks the
    # monomial form that makes every torus element a product of slot
    # generator powers
    cases = [
        (lambda es: es + [(2, 0, LaurentPoly.var("@s1"))],
         "rank 2: torus diag(@s1, @s2) entry (x12, x11) is @s1, off the "
         "diagonal"),
        (lambda es: [(0, 0, 2 * es[0][2])] + es[1:],
         "rank 2: torus diag(@s1, @s2) entry (x11, x11) is 2*@s1*@s2^-1, not "
         "a monomial with coefficient 1")]
    for change, message in cases:
        _family_rejected(monkeypatch, capsys, 2, True, change, message)


def test_dims_names_a_corrupted_family_entry(monkeypatch, capsys):
    # the dimension rows are read off the torus family and U_x11(@c) too
    cases = [
        (False, lambda es: es[1:],
         "rank 3: U_x11(@c) at @c = 0 is not I: entry (x11, x11) is 0"),
        (True, lambda es: [(0, 0, 2 * es[0][2])] + es[1:],
         "rank 3: torus diag(@s1, @s2, @s3) entry (x11, x11) is "
         "2*@s1*@s2^-1, not a monomial with coefficient 1")]
    for torus, change, message in cases:
        _family_rejected(monkeypatch, capsys, 3, torus, change, message)


def test_read_families_proves_each_non_simple_root_a_commutator(
        monkeypatch, capsys):
    # U_x11(@c) read as I passes the affine, @c = 0 and A A = 0 checks, but
    # at rank 3 x12 is not the highest root: U_x12(1) != I, and the
    # commutator of U_x11(1) = I with U_x22(1) is I, so only the commutator
    # identity refuses it
    def identity(entries):
        return [(r, r, LaurentPoly.const(1)) for r in range(nil_dim(3))]

    with monkeypatch.context() as patch:
        _corrupt_family(patch, False, identity)
        assert not oracle._root_matrix(3, (1, 1)).any()
        assert oracle._root_matrix(3, (1, 2)).any()
    _family_rejected(
        monkeypatch, capsys, 3, False, identity,
        "rank 3: U_x12(1) is no commutator of U_x11(1) and U_x22(1): "
        "(I + A_x11)(I + A_x22)(I - A_x11)(I - A_x22) - I is not +-A_x12: "
        "entry (x13, x33) is 0, not 1")


def test_dims_certificate_requires_the_representative_in_its_zero_set(
        catalog_copy, capsys, families):
    # X12*X34 keeps the generator count and dim 5 of x12+x34, and the
    # Jacobian rank at the representative, but it is 1 there: the orbit is
    # not in V(zero set), so the dimension argument does not apply
    def nonzero_at_the_representative(row):
        row["zero_set"][row["zero_set"].index("X23")] = "X12*X34"

    catalog_copy(4, _row("x12+x34", nonzero_at_the_representative))
    message = ("x12+x34: zero-set polynomial X12*X34 is 1 at the "
               "representative, not 0")
    with pytest.raises(InternalInconsistencyError, match=re.escape(message)):
        jacobian_rank_dim(cli.load_catalog(4).by_id("x12+x34"), families[4])
    assert main(["dims", "--type", "A4"]) == 1
    out, err = capsys.readouterr()
    assert "x12+x34" not in out and err == f"check failed: {message}\n"
    assert main(["check-all", "--type", "A4"]) == 1
    assert (f"FAIL dimensions: InternalInconsistencyError: {message}\n"
            in capsys.readouterr().out)


FAMILY_CASES = ORACLE_CASES + [(4, 5)]


@pytest.mark.parametrize("n,q", FAMILY_CASES)
def test_specialised_family_maps_equal_the_word_maps(families, n, q):
    # I + c A, diag(c^W[:, slot]) and diag(prod_k s_k^W[:, k]), from one
    # symbolic adjoint per family, against adjoint on the coordinate basis
    # word by word, for every element the stability check counts; the
    # word-by-word identities accept them all
    ident = np.identity(nil_dim(n), dtype=np.int64)
    for root in pos_roots(n):
        a = oracle._root_matrix(n, root)
        for c in range(q):
            assert ((ident + c * a) % q
                    == word_map(root_word(n, root, c, q), q)).all()
    weights = oracle._torus_exponents(n)
    units = range(1, q)
    for slot in range(n):
        for c in units:
            assert (np.diag([pow(c, int(w), q) for w in weights[:, slot]])
                    == word_map(slot_word(n, slot, c, q), q)).all()
    for diag in product(units, repeat=n):
        m = np.diag([math.prod(pow(s, int(w), q) for s, w in zip(diag, row))
                     % q for row in weights])
        assert (m == word_map(torus_word(n, diag, q), q)).all()
    simple = [root_word(n, root, 1, q) for root in pos_roots(n)[:n]]
    slots = [slot_word(n, slot, primitive_root(q), q) for slot in range(n)]
    words = {describe_word(word): word for word in simple + slots}
    for name, m in oracle._generators(n, q, families[n]):
        assert (m == word_map(words[name], q)).all()
    assert word_identities(n, q, primitive_root(q)) == (
        len(pos_roots(n)) * q + n * (q - 1) + (q - 1) ** n)
    assert commutator_identities(n, q) == len(pos_roots(n)) - n


def _family_reads(monkeypatch):
    """The words of every ``oracle._family`` call from now on, in order."""
    reads = []
    family = oracle._family

    def counted(word):
        reads.append(word.factors[0].root if word.factors else "torus")
        return family(word)

    monkeypatch.setattr(oracle, "_family", counted)
    return reads


def test_a_command_reads_each_family_once_per_rank(monkeypatch, capsys):
    # the dimension rows and every field of check-all and oracle read one
    # read of the rank's |roots| root families and its torus family; the
    # same command run again reads them again, so no cache outlives a
    # command
    reads = _family_reads(monkeypatch)
    for argv in (["check-all", "--type", "A3"], ["check-all", "--type", "A3"],
                 ["check-all", "--type", "A4"], ["oracle", "--type", "A3"],
                 ["dims", "--type", "A3"]):
        n = int(argv[-1][1])
        reads.clear()
        assert main(argv) == 0, argv
        assert reads == ["torus"] + pos_roots(n), argv
        assert len(reads) == {3: 7, 4: 11}[n]
    capsys.readouterr()


def _bumped(m, q):
    m = m.copy()
    m[-1, -1] = (m[-1, -1] + 1) % q
    return m


# (rank, field, torus element, the first element it breaks): a slot
# element, a slot generator, and full torus elements off every slot line
TORUS_CORRUPTIONS = [
    (2, 5, (1, 3), "torus diag(1, 3) is not torus diag(1, 2)^3"),
    (2, 5, (2, 1), "torus diag(3, 1) is not torus diag(2, 1)^3"),
    (3, 7, (1, 1, 5), "torus diag(1, 1, 5) is not torus diag(1, 1, 3)^5"),
    (2, 5, (2, 3), "torus diag(2, 3) is not the product of its slot tori"),
    (3, 7, (2, 3, 4),
     "torus diag(2, 3, 4) is not the product of its slot tori"),
    (3, 5, (4, 4, 4),
     "torus diag(4, 4, 4) is not the product of its slot tori")]


@pytest.mark.parametrize("n,q,diag,first", TORUS_CORRUPTIONS)
def test_torus_corruption_names_the_reference_element(n, q, diag, first):
    # the word-by-word reference with one torus element's map corrupted
    # names the first element it breaks
    name = describe_word(torus_word(n, diag, q))

    def bumped_word_map(word, q):
        m = word_map(word, q)
        return _bumped(m, q) if describe_word(word) == name else m

    with pytest.raises(InternalInconsistencyError, match=re.escape(
            f"rank {n} F_{q}: {first} over F_{q}")):
        word_identities(n, q, primitive_root(q), bumped_word_map)


def test_stability_certifies_every_full_torus_element_at_a2_over_f67(families):
    # 66^2 = 4356 full torus elements, each the product of its slot tori
    part = enumerate_borel_orbits(2, 67, families=families[2])
    assert stability_check(part)["maps_checked"] == (
        3 * 67 + 2 * 66 + 66**2) == 4689


def test_fixpoint_refuses_a_field_past_int32_codes(monkeypatch, capsys,
                                                   families):
    # q^d >= 2^31 would wrap the int32 codes and labels: refused before
    # any generator map or code table is built
    q = 2147483659
    assert q > CODE_LIMIT == 2**31 - 1

    def no_allocation(*args):
        raise AssertionError("the oracle allocated for an int32-wrapping field")

    monkeypatch.setattr(oracle, "_generators", no_allocation)
    monkeypatch.setattr(oracle, "image_codes", no_allocation)
    monkeypatch.setattr(oracle, "assemble_table", no_allocation)
    message = (f"q^d = {q}^1 = {q} points exceed the oracle's limit of "
               f"2^31 - 1 = 2147483647 (int32 point codes)")
    with pytest.raises(SchemaError, match=re.escape(message)):
        enumerate_borel_orbits(1, q, budget=10**12, families=families[1])
    assert main(["oracle", "--type", "A1", "--q", str(q),
                 "--budget", str(10**12)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_stability_refuses_a_non_primitive_root(monkeypatch, families):
    # the slot tori at 4 = -1 reach only half of each slot torus: the
    # fixpoint at 4 splits orbits, and every class is stable under the
    # generators at 4, so only the order of g stands in the way
    monkeypatch.setattr(oracle, "primitive_root", lambda q: 4)
    part = enumerate_borel_orbits(2, 5, families=families[2])
    assert part.class_count > 5
    with pytest.raises(InternalInconsistencyError, match=re.escape(
            "rank 2 F_5: torus diag(2, 1) is no power of torus diag(4, 1): "
            "4 is not a primitive root, its powers reach 2 of the 4 units")):
        stability_check(part)


def test_refine_rank_must_match_the_catalog(catalogs, families):
    with pytest.raises(ShapeError, match=re.escape(
            "catalog rank 3 != partition rank 2")):
        refine_check(catalogs[3],
                     enumerate_borel_orbits(2, 3, families=families[2]))


def test_refine_refuses_inhomogeneous_catalog_before_any_point(
        catalogs, families, monkeypatch):
    # refine reads records through the torus normal form, so it rests on
    # root-weight homogeneity: X11 + X12 weighs a1 and a1 + a2, and the
    # catalog copy refine would read is refused when its pool is built
    cat = catalogs[2]
    rec = cat.by_id("x22")
    bad = replace(rec, zero_set=(parse_poly("X11 + X12", x_vars(2)),))
    part = enumerate_borel_orbits(2, 3, families=families[2])

    def no_points(*args):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(classify, "grid_signatures", no_points)
    with pytest.raises(CatalogError,
                       match=r"rank 2: record x22 polynomial X11 \+ X12 is "
                             r"not root-weight homogeneous"):
        refine_check(replace(cat, orbits=tuple(
            bad if r is rec else r for r in cat.orbits)), part)


def test_oracle_command_names_a_point_of_a_catalog_hole(catalog_copy,
                                                        capsys):
    # x11 also demands X12 != 0, so its points with X12 = 0 match nothing
    catalog_copy(2, _row("x11", lambda row: row["nonzero_set"].append("X12")))
    assert main(["oracle", "--type", "A2", "--q", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "check failed: point [1, 0, 0] over F_2 matched no record\n"


@pytest.mark.parametrize("n,q", ORACLE_CASES + [(3, 11)])
def test_code_tables_equal_the_broadcast_reference(families, n, q):
    # every generator of the fixpoint, and every non-simple root's
    # U_root(1), assembled by digits against the grid widened axis by axis
    one = np.identity(nil_dim(n), dtype=np.int64)
    maps = [m for _, m in oracle._generators(n, q, families[n])]
    maps += [(one + a) % q for a in families[n].roots[n:]]
    for m in maps:
        codes = image_codes(m, q)
        assert codes.dtype == np.int32 and codes.flags.c_contiguous
        assert np.array_equal(codes, broadcast_image_codes(m, q)), (n, q)


@pytest.mark.parametrize("n,q", ORACLE_CASES)
def test_point_records_equal_the_broadcast_reference(catalogs, n, q):
    assert np.array_equal(classify.point_records(catalogs[n], q),
                          broadcast_point_records(catalogs[n], q))


@st.composite
def _terms_over_fq(draw):
    q = draw(st.sampled_from((2, 3, 5, 7)))
    d = draw(st.integers(1, max(k for k in range(1, 9) if q**k <= 20_000)))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        axes = tuple(sorted(draw(st.sets(st.integers(0, d - 1), min_size=1,
                                         max_size=3))))
        values = draw(st.lists(st.integers(0, 1000), min_size=q**len(axes),
                               max_size=q**len(axes)))
        terms.append((axes, np.array(values).reshape((q,) * len(axes))))
    return q, d, terms


@settings(max_examples=200, deadline=None)
@given(_terms_over_fq())
def test_assembled_table_is_the_sum_of_its_terms(case):
    # any axes, in any order of highest axis, and terms on no lower axis
    q, d, terms = case
    table = classify.assemble_table(q, d, terms)
    assert table.dtype == np.int32 and table.flags.c_contiguous
    digits = decode_points(np.arange(q**d), d, q)
    want = np.zeros(q**d, dtype=np.int64)
    for axes, values in terms:
        want += values[tuple(digits[:, a] for a in axes)]
    assert table.tolist() == want.tolist()


@st.composite
def _matrix_over_fq(draw):
    q = draw(st.sampled_from((2, 3, 5, 7)))
    d = draw(st.integers(1, max(k for k in range(1, 11) if q**k <= 60_000)))
    kind = draw(st.sampled_from(("dense", "sparse", "zero")))
    entry = {"dense": st.integers(-2 * q, 2 * q),
             "sparse": st.sampled_from((0, 0, 0, 1, q - 1, q + 1, -1)),
             "zero": st.just(0)}[kind]
    m = np.array(draw(st.lists(entry, min_size=d * d, max_size=d * d)),
                 dtype=np.int64).reshape(d, d)
    for j in draw(st.sets(st.integers(0, d - 1))):
        m[j] = 0
    return m, q


@settings(max_examples=200, deadline=None)
@given(_matrix_over_fq())
def test_image_codes_match_decode_matmul_reference(case):
    m, q = case
    codes = image_codes(m, q)
    assert codes.dtype == np.int32 and codes.flags.c_contiguous
    assert codes.tolist() == _reference_image_codes(m, q).tolist()


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
    g, g_inv = to_matrix(word), inverse_matrix(word)
    roots = pos_roots(word.rank)
    columns = [conjugate_nil(g, g_inv, NilElement(word.rank, {beta: Fp(1, q)}))
               for beta in roots]
    assert word_map(word, q).tolist() == [
        [x.coords.get(r, Fp(0, q)).v for x in columns] for r in roots]


def test_orbit_sample_points_lie_in_their_orbit(catalogs):
    p = 101
    rng = random.Random(0)
    for n, cat in catalogs.items():
        for rec in cat.orbits:
            rep = NilElement(n, {r: Fp(c, p) for r, c
                                 in rec.representative.coords.items()})
            for _ in range(5):
                point = adjoint(_uniform_word(n, p, rng), rep)
                assert member(rec, point), (rec.id, point.as_vector())
