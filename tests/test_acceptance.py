"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; every tolerance and runtime bound is asserted, not just reported.
"""

import random
import time

import pytest

from orbit_atlas.arith import Fp, parse_poly
from orbit_atlas.catalog import ORBIT_COUNTS
from orbit_atlas.classify import classify, partition_census
from orbit_atlas.lie import (BorelWord, NilElement, RootGroupFactor,
                             TorusElement, adjoint, pos_roots)
from orbit_atlas.oracle import (enumerate_borel_orbits, jacobian_rank_dim,
                                refine_check, stability_check)
from orbit_atlas.order import hasse
from orbit_atlas.witness import (REPAIRED, VERIFIED_NUMERIC,
                                 VERIFIED_SYMBOLIC, classify_verdict,
                                 build_member_env, forward_containment,
                                 verify_witness_numeric)
from reference import (conjugate_nil, inverse_matrix, less, mat_mul,
                       nonempty_record_count, to_matrix, word_residuals)

CENSUS_PLAN = {1: (3, 5, 7, 11), 2: (3, 5, 7, 11), 3: (3, 5, 7, 11),
               4: (3, 5)}
ORACLE_PLAN = {1: (2, 3, 5, 7), 2: (2, 3, 5, 7), 3: (2, 3, 5, 7), 4: (2, 3)}


def report(line: str):
    print(line, flush=True)


def test_criterion_1_and_2_orbit_counts_and_partition(catalogs):
    """Census counts 2/5/16/61 nonempty classes; every point matches exactly
    one record (partition_census raises otherwise).  Zero tolerance."""
    t_small = 0.0
    timings = {}
    for n, qs in CENSUS_PLAN.items():
        for q in qs:
            t0 = time.perf_counter()
            counts = partition_census(n, q, catalogs[n])
            dt = time.perf_counter() - t0
            timings[(n, q)] = dt
            if n <= 3:
                t_small += dt
            nonempty = sum(1 for v in counts.values() if v)
            assert nonempty == ORBIT_COUNTS[n], (n, q, nonempty)
    # rank 4 over F_2: exhaustion must hold; empty classes are reported
    counts = partition_census(4, 2, catalogs[4])
    empty = [k for k, v in counts.items() if v == 0]
    assert t_small < 5.0, f"ranks 1-3 census took {t_small:.1f}s"
    assert timings[(4, 3)] < 1.0
    assert timings[(4, 5)] < 60.0
    report(f"PASS criterion-1 orbit counts 2/5/16/61 at all planned fields "
           f"(ranks 1-3 in {t_small:.1f}s, rank 4 q=5 in "
           f"{timings[(4, 5)]:.1f}s; rank-4 F_2 empties: {empty or 'none'})")
    report("PASS criterion-2 exhaustion and disjointness: 0 unmatched, "
           "0 double-matched at every enumerated (rank, q)")


def test_criterion_3_oracle_agreement(catalogs, families):
    """BFS enumeration with post-hoc stability certification refines the
    catalog partition at every planned field."""
    bfs_a4_q3 = None
    for n, qs in ORACLE_PLAN.items():
        for q in qs:
            t0 = time.perf_counter()
            part = enumerate_borel_orbits(n, q, families=families[n])
            dt = time.perf_counter() - t0
            if (n, q) == (4, 3):
                bfs_a4_q3 = dt
            stability_check(part)
            rep = refine_check(catalogs[n], part)
            assert rep.ok, (n, q, rep.violations)
            if q >= 3:
                assert nonempty_record_count(rep) == ORBIT_COUNTS[n]
    assert bfs_a4_q3 is not None and bfs_a4_q3 < 300.0
    report(f"PASS criterion-3 oracle agreement at all planned fields "
           f"(rank-4 q=3 BFS in {bfs_a4_q3:.1f}s)")


def test_criterion_4_dimensions(catalogs, families):
    """Jacobian-rank dimension equals the catalog dimension for all 84
    records, including the dependent-quadric case.  Zero tolerance."""
    checked = 0
    for n, cat in catalogs.items():
        for rec in cat.orbits:
            assert jacobian_rank_dim(rec, families[n]) == rec.dim, rec.id
            checked += 1
    assert checked == 84
    rec = catalogs[4].by_id("x22")
    assert len(rec.zero_set) == 6
    assert jacobian_rank_dim(rec, families[4]) == 4
    report("PASS criterion-4 dimensions: Jacobian rank agrees on 84/84 "
           "records (including the dependent-quadric rank-4 case)")


def test_criterion_5_representative_fidelity(catalogs):
    checked = 0
    for n, cat in catalogs.items():
        for rec in cat.orbits:
            assert classify(n, rec.representative, cat).orbit_id == rec.id
            checked += 1
    assert checked == 84
    report("PASS criterion-5 representative fidelity on 84/84 records")


def test_criterion_6_closure_order(catalogs):
    p1 = hasse(catalogs[1])
    assert p1.covers == [("0", "x11")]
    p2 = hasse(catalogs[2])
    assert set(p2.covers) == {("0", "x12"), ("x12", "x11"), ("x12", "x22"),
                              ("x11", "x11+x22"), ("x22", "x11+x22")}
    p3 = hasse(catalogs[3])
    p4 = hasse(catalogs[4])
    for p in (p3, p4):
        assert p.minimum() == "0"
        assert p.dims[p.maximum()] == max(p.dims.values())
        for a, b in p.covers:
            assert p.dims[a] < p.dims[b]
        non_relations = sum(1 for a in p.nodes for b in p.nodes
                            if a != b and not p.leq[(a, b)])
        assert len(p.counterexamples) == non_relations
    assert less(p3, "x12+x23", "x11+x33")
    report(f"PASS criterion-6 closure order: rank-1 chain, exact rank-2 "
           f"covers, rank-3/4 posets with unique extremes, "
           f"dimension-increasing covers, asserted relation present, and "
           f"{len(p3.counterexamples)}+{len(p4.counterexamples)} "
           f"non-relations point-certified")


def test_criterion_7_forward_containment(catalogs):
    t0 = time.perf_counter()
    checked = 0
    for n, cat in catalogs.items():
        for rec in cat.orbits:
            rep = forward_containment(rec, cat)
            assert rep.ok, (rec.id, rep.detail)
            checked += 1
    dt = time.perf_counter() - t0
    assert checked == 84 and dt < 60.0
    report(f"PASS criterion-7 forward containment: 84/84 identically-zero "
           f"normal forms in {dt:.1f}s")


def test_criterion_8_witness_certification(catalogs):
    for n in (1, 2):
        for rec in catalogs[n].orbits:
            v = classify_verdict(rec)
            assert v.status == VERIFIED_SYMBOLIC, (rec.id, v.status)
    a3 = [classify_verdict(rec) for rec in catalogs[3].orbits]
    assert all(v.status in (VERIFIED_SYMBOLIC, REPAIRED) for v in a3)
    assert sum(1 for v in a3 if v.status == REPAIRED) >= 1  # documented w->v
    a4 = [classify_verdict(rec) for rec in catalogs[4].orbits]
    assert len(a4) == 61
    assert all(v.status in (VERIFIED_SYMBOLIC, VERIFIED_NUMERIC, REPAIRED)
               for v in a4), [v.orbit_id for v in a4 if not v.certified]
    unrepaired = sum(1 for v in a4 if v.status == VERIFIED_SYMBOLIC)
    assert unrepaired >= 50
    corrupted = catalogs[4].by_id("x22+x44")
    detection = classify_verdict(corrupted)
    assert detection.as_printed.startswith("parse-error@")
    assert detection.status == REPAIRED
    w = corrupted.witness
    assert word_residuals(corrupted, build_member_env(corrupted),
                          w.torus, w.factors) == []
    for p in (61, 181):
        v = verify_witness_numeric(catalogs[4].by_id("x22+x44"), p, 100)
        assert v.status == VERIFIED_NUMERIC
    report(f"PASS criterion-8 witnesses: 7/7 ranks 1-2 as printed, 16/16 "
           f"rank 3 after documented normalization, 61/61 rank 4 certified "
           f"({unrepaired} without repair, corrupted row's printed word "
           f"detected as {detection.as_printed}, repaired word re-verified at "
           f"100 points over F_61 and F_181)")


def test_criterion_9_identity_suites(catalogs):
    t0 = time.perf_counter()
    p = 101
    pairs_per_rank = 1000

    def rand_word(n, rng):
        torus = TorusElement(n, tuple(Fp(rng.randrange(1, p), p)
                                      for _ in range(n)))
        factors = tuple(
            RootGroupFactor(rng.choice(pos_roots(n)), Fp(rng.randrange(p), p))
            for _ in range(3))
        return BorelWord(n, torus, factors)

    for n in (1, 2, 3, 4):
        rng = random.Random(f"laws-{n}")
        for _ in range(pairs_per_rank):
            b1, b2 = rand_word(n, rng), rand_word(n, rng)
            x = NilElement.from_vector(
                n, [Fp(rng.randrange(p), p) for _ in pos_roots(n)])
            g = mat_mul(to_matrix(b1), to_matrix(b2))
            gi = mat_mul(inverse_matrix(b2), inverse_matrix(b1))
            lhs = conjugate_nil(g, gi, x)
            rhs = adjoint(b1, adjoint(b2, x))
            assert lhs.coords == rhs.coords
            back = conjugate_nil(inverse_matrix(b1), to_matrix(b1),
                                 adjoint(b1, x))
            assert back.coords == x.coords

    total_scaling = 0
    for n in (1, 2, 3, 4):
        rng = random.Random(f"scaling-{n}")
        cat = catalogs[n]
        q = 11
        for _ in range(250):
            vec = [Fp(rng.randrange(q), q) for _ in pos_roots(n)]
            lam = Fp(rng.randrange(1, q), q)
            a = classify(n, NilElement.from_vector(n, vec), cat).orbit_id
            b = classify(n, NilElement.from_vector(
                n, [lam * v for v in vec]), cat).orbit_id
            assert a == b
            total_scaling += 1
    assert total_scaling == 1000

    identity = parse_poly(
        "X22*(X13*X24 - X23*X14) - X24*(X22*X13 - X12*X23)"
        " + X23*(X22*X14 - X12*X24)")
    assert identity.is_zero()
    dt = time.perf_counter() - t0
    assert dt < 30.0, f"identity suites took {dt:.1f}s"
    report(f"PASS criterion-9 identity suites: 4000 composition/inverse "
           f"pairs, 1000 scaling pairs, dependency identity normalized to 0 "
           f"({dt:.1f}s)")
