"""Membership tests and total classification of nilradical points.

``member`` and ``classify`` are exact, single-point operations over any
field (rationals or F_q).  A point is prepared once (``_scalar_point``: its
coordinates by variable, checked to lie in one field), and ``classify``
tests every record on that one preparation through
``OrbitRecord.contains``: every set polynomial is in Z[X], so one
evaluation over Z, reduced mod q, decides membership over F_q.
``partition_census`` counts every catalog set over n(F_q) with vectorized
evaluation and certifies the exhaustion and disjointness of the catalog's
defining sets while counting.

The census rests on one invariant, which building the ``Catalog`` checks:
every catalog polynomial is root-weight homogeneous (X_ij weighs
alpha_i + ... + alpha_j), so which sets contain x does not change under the
torus scaling x_ij -> (s_i...s_j) x_ij, s in (F_q^*)^n.  A point whose simple coordinates
are nonzero exactly on S is the scaling (s_i = x_ii for i in S) of exactly
one slice point, whose simple coordinates are the indicator of S.  So the
census classifies the 2^n * q^(d-n) slice points and weights each by
(q-1)^|S|; the counts are exact, and every point of n(F_q) is still covered.

``slice_pass`` classifies the slice points in one pass per field: each
class of the catalog's polynomial pool (``Catalog.pool``, one polynomial
per +-sign) is evaluated once over the slice grid by broadcasting
(``grid_values``, through ``grid_signatures``), its nonzero pattern packed
into one int32 signature per point at its pool index.  Each block's
signatures are sorted once (``sorted_signatures``): the distinct ones,
each one's first point in slice order and every point's index into them.
Each distinct signature is matched once against every
record.  The census, the oracle refinement (``point_records``, through the
torus normal form of every point) and the closure-order certifier
(``order._certify``) all read their points from ``slice_table``.  The
catalog owns the tables: the pass of one field is built at its first read
and kept on the catalog (``Catalog.derived``), so every reader of the field
shares it.  ``cli.main`` loads a fresh catalog per command, so each
command evaluates each grid once, whichever of its checks reads it first;
a build that raised is not kept, and the next reader builds again.  Every
per-point lookup by an index array goes through ``gather`` (``np.take``, a
chunk at a time), as do the oracle's whole-space gathers, and every
whole-space int32 index table (``point_records``' slice index, the oracle's
code tables) is built by ``assemble_table``.

numpy is bound lazily (``_lazy.lazy_numpy``): its import runs at the first
kernel call, so ``member`` and ``classify`` never import it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from ._lazy import lazy_numpy
from .arith import Fp, is_prime
from .catalog import Catalog, OrbitRecord, x_vars
from .errors import (BudgetExceededError, DisjointnessError, ExhaustionError,
                     InternalInconsistencyError, SchemaError, ShapeError)
from .lie import NilElement, nil_dim, pos_roots

np = lazy_numpy()

CENSUS_BUDGET = 10_000_000
SLICE_CHUNK = 1 << 19   # slice points per block of the slice pass
GATHER_CHUNK = 1 << 14  # indices per np.take call of ``gather``


@dataclass(frozen=True)
class ClassificationResult:
    orbit_id: str


def _scalar_point(m: NilElement) -> tuple[dict, int | None]:
    """(coordinates by variable, characteristic) of a point of one field:
    every coordinate an Fp of one prime p, an int or a rational, and over
    F_p every rational integral.  The characteristic is None over Q; over
    F_p the coordinates are reduced to their residues here, once.
    ``classify`` builds this once per point and tests every record on it."""
    env = {var: m.coord(root)
           for root, var in zip(pos_roots(m.rank), x_vars(m.rank))}
    primes = set()
    for v in env.values():
        if isinstance(v, Fp):
            primes.add(v.p)
        elif not isinstance(v, (int, Fraction)):
            raise SchemaError("membership requires field scalars, not symbols")
    if len(primes) > 1:
        raise SchemaError(f"point {m.as_vector()} mixes the fields "
                          f"{', '.join(f'F_{p}' for p in sorted(primes))}")
    modp = primes.pop() if primes else None
    if modp:
        if any(isinstance(v, Fraction) and v.denominator != 1
               for v in env.values()):
            raise SchemaError(f"point {m.as_vector()} mixes F_{modp} with a "
                              f"non-integral rational")
        env = {var: v.v if isinstance(v, Fp) else int(v) % modp
               for var, v in env.items()}
    return env, modp


def member(rec: OrbitRecord, m: NilElement) -> bool:
    """Exact membership in Z(zero_set) intersected with V(nonzero_set)."""
    if rec.rank != m.rank:
        raise ShapeError(f"record rank {rec.rank} != element rank {m.rank}")
    return rec.contains(*_scalar_point(m))


def classify(n: int, m: NilElement, cat: Catalog) -> ClassificationResult:
    """Locate the unique record of the rank-n catalog whose defining set
    contains m: every record is scanned on one ``_scalar_point`` of m, so a
    second match is a disjointness failure."""
    if n != cat.rank:
        raise ShapeError(f"classify rank {n} != catalog rank {cat.rank}")
    if m.rank != n:
        raise ShapeError(f"point rank {m.rank} != catalog rank {n}")
    env, modp = _scalar_point(m)
    matches = [rec for rec in cat.orbits if rec.contains(env, modp)]
    if not matches:
        raise ExhaustionError(f"point {m.as_vector()} matched no record")
    if len(matches) > 1:
        ids = [r.id for r in sorted(matches, key=lambda r: (r.dim, r.id))]
        raise DisjointnessError(f"point {m.as_vector()} matched {ids}")
    return ClassificationResult(matches[0].id)


# ---------------------------------------------------------------------------
# the slice pass


def grid_values(poly, cols: dict, q: int):
    """Values mod q of one polynomial over a grid: ``cols`` maps each of its
    variables to an int64 array of values laid along that variable's axis.
    Evaluated once by broadcasting, every product and sum reduced at once,
    so no intermediate reaches q^2; a constant polynomial gives a scalar.
    poly must be in Z[X], as every set polynomial of an ``OrbitRecord``
    is."""
    acc = np.int64(0)
    for exps, coeff in poly.terms.items():
        term = np.int64(coeff % q)
        for var, e in zip(poly.vars, exps):
            for _ in range(e):
                term = term * cols[var] % q
        acc = (acc + term) % q
    return acc


def grid_signatures(polys, axes: dict, q: int) -> np.ndarray:
    """Nonzero pattern of at most 31 polynomials (``SIGNATURE_BITS``) over
    the grid whose coordinates run over the value arrays of ``axes``
    (variable -> values, one axis each, in dict order): one nonnegative
    int32 per point in C order, bit k set where polys[k] is nonzero mod q
    (``grid_values``: every polynomial in Z[X])."""
    d = len(axes)
    cols = {var: np.asarray(vals, dtype=np.int64).reshape(
                (1,) * k + (-1,) + (1,) * (d - 1 - k))
            for k, (var, vals) in enumerate(axes.items())}
    sig = np.zeros(tuple(len(vals) for vals in axes.values()), dtype=np.int32)
    for k, poly in enumerate(polys):
        sig |= (grid_values(poly, cols, q) != 0).astype(np.int32) << k
    return sig.ravel()


def gather(values: np.ndarray, index: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """values[index] for an index array over a whole space or slice grid,
    written into ``out`` (a new array when none is given) and returned.
    ``np.take`` gathers by an int32 index about twice as fast as
    ``values[index]``, but copies the index to intp first: taking
    ``GATHER_CHUNK`` indices at a time keeps that copy small, and mode
    "wrap" lets it write into ``out`` directly ("raise" gathers into a
    hidden buffer first).  Nothing wraps: every index here is a point code,
    a label or a record index below len(values)."""
    if out is None:
        out = np.empty(len(index), dtype=values.dtype)
    for i in range(0, len(index), GATHER_CHUNK):
        np.take(values, index[i:i + GATHER_CHUNK],
                out=out[i:i + GATHER_CHUNK], mode="wrap")
    return out


def assemble_table(q: int, d: int, terms) -> np.ndarray:
    """Sum of ``terms`` at every point of F_q^d in code order (digit 0 most
    significant), as one C-contiguous int32 table.  Each term is a pair
    (axes, values): ``axes`` a sorted tuple of digit positions and
    ``values`` an integer array of shape (q,) * len(axes), the term at each
    combination of those digits.  Exact when every value is nonnegative
    and every point's sum fits int32 (at most 2^31 - 1).

    The digits are placed from the least significant up.  With digits
    k..d-1 placed, the partial table is a C-contiguous block of shape
    (q,) * len(pending) + (q^(d-k),): its last axis runs over those digits
    in code order, and ``pending`` holds the lower digit positions that the
    terms added so far read.  A term is added when the block reaches its
    highest axis, so it is constant along the q^(d-1-k) points under that
    digit and every full-size add runs its inner loop over a contiguous
    block; reaching a pending axis is a free reshape."""
    placed = [[] for _ in range(d)]
    for axes, values in terms:
        placed[axes[-1]].append((axes, np.asarray(values, dtype=np.int32)))
    table, pending, block = np.zeros(1, dtype=np.int32), [], 1
    for k in range(d - 1, -1, -1):
        wanted = sorted(set(pending[:-1] if k in pending else pending).union(
            *(axes[:-1] for axes, _ in placed[k])))
        shape = (q,) * len(wanted) + (q, block)
        old = table.reshape([q if a in pending else 1 for a in wanted]
                            + [q if k in pending else 1, block])
        adds = [values.reshape([q if a in axes else 1 for a in wanted]
                               + [q, 1]) for axes, values in placed[k]]
        if old.shape != shape:
            table = np.empty(shape, dtype=np.int32)
            if adds:
                np.add(old, adds.pop(), out=table)
            else:
                np.copyto(table, old)
            old = table
        for values in adds:
            old += values
        block *= q
        table, pending = old.reshape((q,) * len(wanted) + (block,)), wanted
    return table


def slice_shape(n: int, q: int) -> tuple:
    """The slice grid: a 0/1 axis per simple coordinate, then a q-value axis
    per non-simple one.  Its C order is the slice order: support-major (the
    first simple coordinate most significant), then code order."""
    return (2,) * n + (q,) * (nil_dim(n) - n)


def slice_point(index: int, n: int, q: int) -> list[int]:
    """Coordinates of the slice point at ``index`` in slice order."""
    return [int(v) for v in np.unravel_index(index, slice_shape(n, q))]


class SliceBlock(NamedTuple):
    """One block of a slice pass, its signatures sorted once
    (``sorted_signatures``)."""
    start: int              # slice index of the block's first point
    distinct: np.ndarray    # the sorted distinct signatures
    first: np.ndarray       # block index of each one's first point
    record: np.ndarray      # the one record each matches, int16
    inverse: np.ndarray     # every point's index into distinct, int32


def slice_pass(cat: Catalog, q: int):
    """One pass over the torus slices of n(F_q) (see the module docstring).

    Yields a ``SliceBlock`` per block in slice order: bit k of a signature
    stands for pool class k.  The first point matched by no record or by
    several raises.  A block fixes leading axes of the slice grid and holds
    at most ``SLICE_CHUNK`` points."""
    zero, nonzero = np.array([cat.masks[rec.id] for rec in cat.orbits],
                             dtype=np.int64).T
    return _slice_blocks(cat.rank, q, [p for p, _ in cat.pool], zero,
                         nonzero)


def sorted_signatures(sig: np.ndarray) -> tuple:
    """(distinct, first, inverse) of int64 signatures that are all below
    2^31 (``SIGNATURE_BITS``), as ``np.unique(sig, return_index=True,
    return_inverse=True)`` gives them, from one sort.  Each signature
    carries its index in the low bits of the sort key, so equal signatures
    stay in index order, a boundary mask marks the first of each, and the
    sorted keys become the sort order in place.  ``sig`` is that key array
    and may be overwritten, so a block of the slice pass holds no second
    copy of its signatures.  31 bits and the index bits of a block (at most
    19, ``SLICE_CHUNK``) always fit the key."""
    size = len(sig)
    shift = (size - 1).bit_length()
    new = np.empty(size, dtype=bool)
    new[:1] = True
    low = (1 << shift) - 1
    sig <<= shift
    sig |= np.arange(size, dtype=np.int64)
    sig.sort()
    np.greater(sig[1:] ^ sig[:-1], low, out=new[1:])
    distinct, first = sig[new] >> shift, sig[new] & low
    order = np.bitwise_and(sig, low, out=sig)
    group = np.cumsum(new, dtype=np.int32)
    group -= 1
    inverse = np.empty(size, dtype=np.int32)
    inverse[order] = group
    return distinct, first, inverse


def _slice_blocks(n: int, q: int, pool: list, zero, nonzero):
    shape = slice_shape(n, q)
    lead = next(k for k in range(len(shape) + 1)
                if math.prod(shape[k:]) <= SLICE_CHUNK)
    size = math.prod(shape[lead:])
    for block, prefix in enumerate(itertools.product(*map(range,
                                                           shape[:lead]))):
        values = [[v] for v in prefix] + [range(s) for s in shape[lead:]]
        # widened once for the sort key; the int32 signatures die here
        sig = grid_signatures(pool, dict(zip(x_vars(n), values)),
                              q).astype(np.int64)
        distinct, first, inverse = sorted_signatures(sig)
        hits = (((distinct[:, None] & zero) == 0)
                & ((distinct[:, None] & nonzero) == nonzero))
        count = hits.sum(axis=1)
        record = np.where(count == 1, hits.argmax(axis=1), -1).astype(np.int16)
        if record.min() < 0:
            bad = np.flatnonzero(record < 0)
            at = bad[np.argmin(first[bad])]
            point = slice_point(block * size + int(first[at]), n, q)
            if count[at] == 0:
                raise ExhaustionError(
                    f"point {point} over F_{q} matched no record")
            raise DisjointnessError(
                f"point {point} over F_{q} matched several records")
        yield SliceBlock(block * size, distinct, first, record, inverse)


def slice_table(cat: Catalog, q: int) -> tuple:
    """The catalog's slice table over F_q: the ``SliceBlock``s of its
    ``slice_pass``, built at the first read and kept on the catalog
    (``Catalog.derived``) for every later reader of the field."""
    return cat.derived(("slices", q), lambda: tuple(slice_pass(cat, q)))


def point_records(cat: Catalog, q: int) -> np.ndarray:
    """Record index of every point of n(F_q) in code order (digit 0 most
    significant), read off the catalog's slice table at its torus normal
    form x_ij -> x_ij * prod(x_kk^-1 : i <= k <= j,
    x_kk != 0), the one slice point whose scaling it is.  The normal
    forms' slice indices are one ``assemble_table``: a term per simple
    coordinate (its support bit) and one per non-simple x_ij on its own
    axis and the simple axes i..j it is scaled by."""
    n, d = cat.rank, nil_dim(cat.rank)
    records = np.concatenate([gather(block.record, block.inverse)
                              for block in slice_table(cat, q)])
    steps = np.arange(q, dtype=np.int64)
    inverse = np.array([1] + [pow(v, -1, q) for v in range(1, q)],
                       dtype=np.int64)      # x_kk = 0 contributes no factor
    terms = [((k,), (steps != 0) * (2**(n - 1 - k) * q**(d - n)))
             for k in range(n)]
    for r, (i, j) in enumerate(pos_roots(n)[n:], start=n):
        scale = np.ones((), dtype=np.int64)
        for _ in range(i - 1, j):
            scale = np.multiply.outer(scale, inverse) % q
        terms.append((tuple(range(i - 1, j)) + (r,),
                      np.multiply.outer(scale, steps) % q * q**(d - 1 - r)))
    return gather(records, assemble_table(q, d, terms))


def partition_census(n: int, q: int, cat: Catalog,
                     budget: int = CENSUS_BUDGET) -> dict:
    """Counts of every catalog set over F_q, with exhaustion and disjointness
    certified on every torus-slice point (see the module docstring); the
    scaling covers all q^d points.  Zero counts are reported, not dropped.
    ``budget`` bounds q^d.  The points are read off the catalog's slice
    table of F_q."""
    if n != cat.rank:
        raise ShapeError(f"census rank {n} != catalog rank {cat.rank}")
    if not is_prime(q):
        raise SchemaError(f"q = {q} is not prime")
    d = nil_dim(n)
    total = q**d
    if total > budget:
        raise BudgetExceededError(total, budget)
    ids = [rec.id for rec in cat.orbits]
    counts = dict.fromkeys(ids, 0)
    fibre = q**(d - n)
    for block in slice_table(cat, q):
        records = gather(block.record, block.inverse)
        width = min(len(records), fibre)    # whole supports, or part of one
        for row, part in enumerate(records.reshape(-1, width)):
            weight = (q - 1) ** bin((block.start + row * width)
                                    // fibre).count("1")
            for rid, c in zip(ids, np.bincount(part, minlength=len(ids))
                              .tolist()):
                counts[rid] += c * weight
    counted = sum(counts.values())
    if counted != total:
        raise InternalInconsistencyError(
            f"rank {n} q={q}: census counted {counted} points, "
            f"expected {total}")
    return counts
