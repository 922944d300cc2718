"""Membership tests and total classification of nilradical points.

``member`` and ``classify`` are exact, single-point operations over any
field (rationals or F_q).  ``partition_census`` counts every catalog set over
n(F_q) with vectorized evaluation and certifies the exhaustion and
disjointness of the catalog's defining sets while counting.

The census rests on one invariant, checked before any point is enumerated:
every catalog polynomial is root-weight homogeneous (X_ij weighs
alpha_i + ... + alpha_j), so which sets contain x does not change under the
torus scaling x_ij -> (s_i...s_j) x_ij, s in (F_q^*)^n.  A point whose simple coordinates
are nonzero exactly on S is the scaling (s_i = x_ii for i in S) of exactly
one slice point, whose simple coordinates are the indicator of S.  So the
census classifies the 2^n * q^(d-n) slice points and weights each by
(q-1)^|S|; the counts are exact, and every point of n(F_q) is still covered.

``torus_slices`` checks the invariant and yields the slice points;
``match_table`` classifies them.  The census and the closure-order
certifier (``order._certify``) both enumerate points through that pair and
nothing else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import Fp, is_prime, poly_to_str
from .catalog import Catalog, OrbitRecord, root_weight_homogeneous, x_vars
from .errors import (BudgetExceededError, DisjointnessError, ExhaustionError,
                     InternalInconsistencyError, SchemaError, ShapeError)
from .lie import NilElement, nil_dim, pos_roots

CENSUS_BUDGET = 10_000_000
SLICE_CHUNK = 1 << 19   # non-simple coordinate codes per census block


@dataclass(frozen=True)
class ClassificationResult:
    orbit_id: str


def _point_env(m: NilElement) -> dict:
    env = {}
    for root, var in zip(pos_roots(m.rank), x_vars(m.rank)):
        env[var] = m.coord(root)
    return env


def _value_is_zero(v) -> bool:
    if isinstance(v, Fp):
        return v.is_zero()
    return v == 0


def member(rec: OrbitRecord, m: NilElement) -> bool:
    """Exact membership in Z(zero_set) intersected with V(nonzero_set)."""
    if rec.rank != m.rank:
        raise ShapeError(f"record rank {rec.rank} != element rank {m.rank}")
    ps = _point_env(m)
    for v in ps.values():
        if not isinstance(v, (int, Fraction, Fp)):
            raise SchemaError("membership requires field scalars, not symbols")
    modp = next((v.p for v in ps.values() if isinstance(v, Fp)), None)
    for poly in rec.zero_set:
        val = (poly.eval_mod_p(ps, modp) if modp else poly.eval(ps))
        if not _value_is_zero(val):
            return False
    for poly in rec.nonzero_set:
        val = (poly.eval_mod_p(ps, modp) if modp else poly.eval(ps))
        if _value_is_zero(val):
            return False
    return True


def classify(n: int, m: NilElement, cat: Catalog) -> ClassificationResult:
    """Locate the unique record of the rank-n catalog whose defining set
    contains m: every record is scanned, so a second match is a disjointness
    failure."""
    if n != cat.rank:
        raise ShapeError(f"classify rank {n} != catalog rank {cat.rank}")
    matches = [rec for rec in cat.ordered_by_dim() if member(rec, m)]
    if not matches:
        raise ExhaustionError(f"point {m.as_vector()} matched no record")
    if len(matches) > 1:
        raise DisjointnessError(
            f"point {m.as_vector()} matched {[r.id for r in matches]}")
    return ClassificationResult(matches[0].id)


# ---------------------------------------------------------------------------
# vectorized full-space evaluation


def decode_points(codes: np.ndarray, d: int, q: int) -> np.ndarray:
    """Mixed-radix decode; digit 0 (first root coordinate) is most significant,
    so numeric code order is lexicographic coordinate order."""
    out = np.empty((codes.shape[0], d), dtype=np.int64)
    rest = codes.astype(np.int64)
    for i in range(d - 1, -1, -1):
        out[:, i] = rest % q
        rest = rest // q
    return out


def eval_poly_on_columns(poly, cols: dict, q: int) -> np.ndarray:
    """Evaluate a catalog polynomial on per-variable value arrays mod q."""
    n_points = next(iter(cols.values())).shape[0]
    acc = np.zeros(n_points, dtype=np.int64)
    for exps, coeff in poly.terms.items():
        if coeff.denominator % q == 0:
            raise SchemaError(f"coefficient {coeff} is undefined mod {q}")
        c = coeff.numerator * pow(coeff.denominator, -1, q) % q
        term = np.full(n_points, c, dtype=np.int64)
        for var, e in zip(poly.vars, exps):
            if e == 0:
                continue
            if e < 0:
                raise SchemaError("catalog polynomials are exponent-positive")
            col = cols[var]
            for _ in range(e):
                term = (term * col) % q
        acc = (acc + term) % q
    return acc


def match_table(cat: Catalog, digits: np.ndarray, q: int) -> np.ndarray:
    """Index of the unique matching record for every point (rows of digits);
    raises on unmatched or doubly matched points."""
    cols = {var: digits[:, i].astype(np.int64)
            for i, var in enumerate(x_vars(cat.rank))}
    nonzero: dict = {}                  # polynomial -> value != 0 per point
    n_points = digits.shape[0]
    matched = np.full(n_points, -1, dtype=np.int32)
    count = np.zeros(n_points, dtype=np.int8)
    for idx, rec in enumerate(cat.orbits):
        mask = np.ones(n_points, dtype=bool)
        for poly, want_nonzero in ([(p, False) for p in rec.zero_set]
                                   + [(p, True) for p in rec.nonzero_set]):
            if poly not in nonzero:
                nonzero[poly] = eval_poly_on_columns(poly, cols, q) != 0
            mask &= nonzero[poly] == want_nonzero
            if not mask.any():
                break
        count += mask
        matched[mask] = idx
    if (count == 0).any():
        code = int(np.argmax(count == 0))
        raise ExhaustionError(
            f"point {digits[code].tolist()} over F_{q} matched no record")
    if (count > 1).any():
        code = int(np.argmax(count > 1))
        raise DisjointnessError(
            f"point {digits[code].tolist()} over F_{q} matched several records")
    return matched


def torus_slices(cat: Catalog, q: int):
    """Yield (digits, |S|) blocks covering the torus slices of n(F_q): the
    points whose simple coordinates are the indicator of a support S, with
    every non-simple coordinate free (see the module docstring).  First
    checks that every catalog polynomial is root-weight homogeneous, the
    invariant that makes a slice point stand for its (q-1)^|S| scalings.
    ``SLICE_CHUNK`` bounds the non-simple coordinate codes per block; the
    digits array is reused, so a caller must be done with a block before the
    next."""
    n = cat.rank
    for rec in cat.orbits:
        for poly in rec.zero_set + rec.nonzero_set:
            if not root_weight_homogeneous(poly, n):
                raise InternalInconsistencyError(
                    f"rank {n}: record {rec.id} polynomial "
                    f"{poly_to_str(poly)} is not root-weight homogeneous, "
                    f"so torus slicing does not apply")
    d = nil_dim(n)
    slice_total = q**(d - n)
    supports = list(itertools.product((0, 1), repeat=n))
    for start in range(0, slice_total, SLICE_CHUNK):
        codes = np.arange(start, min(start + SLICE_CHUNK, slice_total),
                          dtype=np.int64)
        digits = np.empty((codes.shape[0], d), dtype=np.int64)
        digits[:, n:] = decode_points(codes, d - n, q)
        for support in supports:
            digits[:, :n] = support      # pos_roots lists simple roots first
            yield digits, sum(support)


def partition_census(n: int, q: int, cat: Catalog,
                     budget: int = CENSUS_BUDGET) -> dict:
    """Counts of every catalog set over F_q, with exhaustion and disjointness
    certified on every torus-slice point (see the module docstring); the
    scaling covers all q^d points.  Zero counts are reported, not dropped.
    ``budget`` bounds q^d."""
    if n != cat.rank:
        raise ShapeError(f"census rank {n} != catalog rank {cat.rank}")
    if not is_prime(q):
        raise SchemaError(f"q = {q} is not prime")
    d = nil_dim(n)
    total = q**d
    if total > budget:
        raise BudgetExceededError(total, budget)
    counts = {rec.id: 0 for rec in cat.orbits}
    ids = [rec.id for rec in cat.orbits]
    for digits, size in torus_slices(cat, q):
        matched = match_table(cat, digits, q)
        for idx, cnt in zip(*np.unique(matched, return_counts=True)):
            counts[ids[int(idx)]] += int(cnt) * (q - 1) ** size
    counted = sum(counts.values())
    if counted != total:
        raise InternalInconsistencyError(
            f"rank {n} q={q}: census counted {counted} points, "
            f"expected {total}")
    return counts
