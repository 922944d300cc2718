"""Membership, classification, and census tests."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from orbit_atlas import classify as classify_mod
from orbit_atlas.arith import Fp
from orbit_atlas.classify import classify, member, partition_census
from orbit_atlas.errors import (BudgetExceededError, DisjointnessError,
                                ExhaustionError, InternalInconsistencyError,
                                SchemaError, ShapeError)
from orbit_atlas.lie import (BorelWord, NilElement, RootGroupFactor,
                             TorusElement, adjoint, pos_roots)


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


def test_census_rank1():
    for q in (3, 5, 7):
        counts = partition_census(1, q)
        assert counts == {"0": 1, "x11": q - 1}


def test_census_rank2_q3_frozen():
    counts = partition_census(2, 3)
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
    assert brute == partition_census(2, 3)


def test_census_rank3_q2(catalogs):
    counts = partition_census(3, 2)
    assert sum(counts.values()) == 64
    assert sum(1 for v in counts.values() if v) == 16


def test_census_budget_refusal():
    with pytest.raises(BudgetExceededError) as exc:
        partition_census(4, 7, budget=1000)
    assert exc.value.needed == 7**10


def test_census_chunking_invariance():
    # splitting the point space differently must not change any count
    whole = partition_census(3, 3)
    assert partition_census(3, 3, chunk=97) == whole
    assert partition_census(3, 3, chunk=64) == whole


def test_census_rejects_composite_q():
    with pytest.raises(SchemaError):
        partition_census(2, 4)


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


def test_census_total_mismatch_is_raised(monkeypatch):
    # a lost point must fail loudly, also under python -O
    monkeypatch.setattr(classify_mod, "match_table",
                        lambda cat, digits, q: np.zeros(0, dtype=np.int32))
    with pytest.raises(InternalInconsistencyError,
                       match=r"rank 2 q=3: census counted 0 points, "
                             r"expected 27"):
        classify_mod.partition_census(2, 3)
