"""Closure order on orbits and Hasse diagram emission.

a <= b means the orbit O_a lies in the Zariski closure of O_b.  Each record
b gets a certified generating set V_b for the functions vanishing on its
orbit closure (``closure_generators``): every class of the catalog's pool
(``Catalog.pool``, one polynomial per +-sign) whose pullback along the
generic unipotent orbit adjoint(u, representative) is identically zero, u
the root-group factors of the one generic Borel word of
``lie.generic_borel_word``, as an int mask with bit k for pool class k.
Every catalog polynomial is a torus weight vector (``Catalog`` checks it),
so it vanishes on the U-orbit exactly when it vanishes on the B-orbit.
Those masks are the catalog's ``witness.generic_vanishing`` table, which
forward containment reads too, so a command pulls every record back once.
They hold the record's own zero set, which must vanish there, augmented by
the other such classes.
(Augmentation matters: a zero set describes the closure only up to extra
components, and for a handful of records a dependent quadratic that
vanishes on the orbit separates those components.)

The symbolic order is inclusion of pool-class masks, a <= b exactly when
V_b is a subset of V_a (``closure_leq``).  It assumes that V_b cuts out
closure(O_b): then O_a lies in closure(O_b) = Z(V_b) exactly when every
polynomial of V_b vanishes on O_a, that is, lies in V_a.  The finite-field
layer checks that assumption and every answer on the census's torus slices
as one per-point equality: b's certified generators all vanish at x exactly
when x's record lies below b.  It reads both sides off the sorted distinct
signatures of the catalog's slice table of each field
(``classify.slice_table``, which the census and the oracle read too),
without evaluating a polynomial again.  That re-checks every asserted
relation, guards every generating set against missing components, and
yields an explicit counterexample point for every non-relation.

numpy is bound lazily (``_lazy.lazy_numpy``): its import runs at the first
call of ``hasse``, so importing this module does not import it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._lazy import lazy_numpy
from .catalog import Catalog
from .classify import slice_point, slice_table
from .errors import CatalogError, InternalInconsistencyError
from .oracle import ORACLE_DEFAULT_QS
from .witness import generic_vanishing

np = lazy_numpy()


def closure_generators(cat: Catalog) -> dict:
    """Record id -> int mask of its certified vanishing pool classes: every
    class of ``cat.pool`` that vanishes identically on the record's orbit
    (an exact pullback along the generic unipotent orbit, read off the
    catalog's ``generic_vanishing`` table), the record's zero set
    (``Catalog.masks``) among them.  A zero-set polynomial that does not vanish there is a catalog
    inconsistency."""
    vanishing = generic_vanishing(cat)
    for rec in cat.orbits:
        missing = cat.masks[rec.id][0] & ~vanishing[rec.id]
        if missing:
            s = rec.zero_strs[cat.first_in(rec.zero_set, missing)]
            raise InternalInconsistencyError(
                f"zero-set polynomial {s} of record {rec.id} does not "
                f"vanish on its generic orbit")
    return dict(vanishing)


def closure_leq(vanish_a: int, vanish_b: int) -> bool:
    """a <= b: every certified generator of b vanishes on the generic orbit
    of a.  Each argument is that record's ``closure_generators`` mask."""
    return not vanish_b & ~vanish_a


@dataclass
class HassePoset:
    rank: int
    nodes: list                    # orbit ids sorted by (dim, id)
    dims: dict
    leq: dict                      # (a, b) -> bool, full order
    covers: list                   # transitive reduction edges (a, b), a < b
    counterexamples: dict = field(default_factory=dict)
    # (a, b) -> (q, point digits, pool string of the violated generator)

    def minimum(self) -> str:
        mins = [a for a in self.nodes
                if all(self.leq[(a, b)] for b in self.nodes)]
        return mins[0] if len(mins) == 1 else ""

    def maximum(self) -> str:
        maxs = [b for b in self.nodes
                if all(self.leq[(a, b)] for a in self.nodes)]
        return maxs[0] if len(maxs) == 1 else ""


def _certify(cat: Catalog, leq: dict, generators: dict, qs) -> dict:
    """Finite-field certification of the relation matrix.

    At every torus-slice point x of n(F_q) (see ``classify.slice_pass``),
    with m(x) the record whose set contains x, the certified generators of b
    must all vanish at x exactly when m(x) <= b.  That one equality holds
    three checks at once: b's generators vanish on S_a for every a <= b, a
    point of S_a with a not <= b violates one of them, and Z(b's generators)
    lies in the union of the S_a with a <= b, which guards against an
    insufficiently augmented generating set.  Both sides are constant on
    torus orbits (every generator is a class of the catalog's pool, which
    ``Catalog`` checks to be root-weight homogeneous), so the slices cover
    every point.  Both are also functions of x's signature, which holds the
    generators' nonzero bits, so the equality is decided once per distinct
    signature, at its first point in slice order.  Each non-relation (a, b)
    takes the first slice point of S_a over the first field where S_a has one,
    and the lowest pool class of b's generators nonzero there, named by its
    pool string.  ``generators`` holds the masks of
    ``closure_generators``.  Each field's points are read off the catalog's
    slice table of the field."""
    n = cat.rank
    ids = [rec.id for rec in cat.orbits]
    below = np.array([[leq[(a, b)] for b in ids] for a in ids])
    masks = np.array([generators[b] for b in ids], dtype=np.int64)

    def first_nonzero(b, sig):
        bits = generators[ids[b]] & sig
        return cat.pool[(bits & -bits).bit_length() - 1][1]

    counterexamples: dict = {}
    witnessed = np.zeros(len(ids), dtype=bool)
    for q in qs:
        for block in slice_table(cat, q):
            order = np.argsort(block.first)     # distinct, in slice order
            sigs, first, recs = (block.distinct[order], block.first[order],
                                 block.record[order])
            vanish = (sigs[:, None] & masks) == 0
            mismatch = vanish != below[recs]
            if mismatch.any():
                row, b = (int(i) for i in np.argwhere(mismatch)[0])
                a = ids[recs[row]]
                pt = slice_point(block.start + int(first[row]), n, q)
                if vanish[row, b]:
                    raise InternalInconsistencyError(
                        f"every certified generator of {ids[b]} vanishes at "
                        f"point {pt} of S_{a}(F_{q}), but {a} <= {ids[b]} is "
                        f"not asserted: the relation is missing or the "
                        f"closure generating set for {ids[b]} is incomplete")
                raise InternalInconsistencyError(
                    f"{a} <= {ids[b]} symbolically but generator "
                    f"{first_nonzero(b, int(sigs[row]))} is nonzero at point "
                    f"{pt} of S_{a}(F_{q})")
            records, rows = np.unique(recs, return_index=True)
            for a, row in zip(records.tolist(), rows.tolist()):
                if witnessed[a]:
                    continue
                witnessed[a] = True
                pt = slice_point(block.start + int(first[row]), n, q)
                for b in np.flatnonzero(~below[a]).tolist():
                    counterexamples[(ids[a], ids[b])] = (
                        q, pt, first_nonzero(b, int(sigs[row])))
    unwitnessed = [ids[a] for a in np.flatnonzero(~witnessed
                                                   & ~below.all(axis=1))]
    if unwitnessed:
        raise InternalInconsistencyError(
            f"no finite-field counterexample found for the non-relations of "
            f"{unwitnessed[:5]}: no point over F_q for q in {tuple(qs)}")
    return counterexamples


def hasse(cat: Catalog) -> HassePoset:
    """Full closure order from pairwise generator-set inclusions, certified
    over the oracle's fields (``oracle.ORACLE_DEFAULT_QS``), whose slice
    tables the oracle refinement reads too, reduced to cover edges.  The
    generators and the points come from the tables the catalog owns
    (``closure_generators``, ``_certify``)."""
    recs = sorted(cat.orbits, key=lambda r: (r.dim, r.id))
    ids = [r.id for r in recs]
    dims = {r.id: r.dim for r in recs}
    generators = closure_generators(cat)
    leq = {(a, b): a == b or closure_leq(generators[a], generators[b])
           for a in ids for b in ids}
    # order sanity (mask inclusion is transitive by construction):
    # antisymmetry and dimension monotonicity
    for a in ids:
        for b in ids:
            if a != b and leq[(a, b)]:
                if leq[(b, a)]:
                    raise CatalogError(f"closure order cycle between {a} and {b}")
                if dims[a] >= dims[b]:
                    raise CatalogError(
                        f"{a} < {b} but dim {dims[a]} >= {dims[b]}")
    counterexamples = _certify(cat, leq, generators,
                               ORACLE_DEFAULT_QS[cat.rank])
    # a < b is a cover unless a < c < b for some c: one boolean product
    strict = np.array([[a != b and leq[(a, b)] for b in ids] for a in ids])
    cover = strict & ~(strict @ strict)
    covers = [(ids[a], ids[b]) for a, b in np.argwhere(cover).tolist()]
    covers.sort(key=lambda e: (dims[e[0]], e[0], dims[e[1]], e[1]))
    poset = HassePoset(cat.rank, ids, dims, leq, covers, counterexamples)
    if poset.minimum() == "" or poset.maximum() == "":
        raise CatalogError("closure order lacks a unique minimum or maximum")
    return poset


def emit_dot(poset: HassePoset) -> str:
    """Deterministic DOT text: nodes grouped by dimension, fixed orderings,
    LF line endings."""
    lines = [
        "digraph closure_order {",
        "  rankdir=BT;",
        "  node [shape=box, fontname=\"Helvetica\"];",
    ]
    by_dim: dict[int, list[str]] = {}
    for node in poset.nodes:
        by_dim.setdefault(poset.dims[node], []).append(node)
    for dim in sorted(by_dim):
        group = " ".join(f"\"{v}\";" for v in sorted(by_dim[dim]))
        lines.append(f"  {{ rank=same; {group} }}")
    for node in poset.nodes:
        lines.append(f"  \"{node}\" [label=\"{node}\\ndim {poset.dims[node]}\"];")
    for a, b in poset.covers:
        lines.append(f"  \"{a}\" -> \"{b}\";")
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_json(poset: HassePoset) -> dict:
    return {
        "rank": poset.rank,
        "nodes": [{"id": v, "dim": poset.dims[v]} for v in poset.nodes],
        "covers": [[a, b] for a, b in poset.covers],
    }
