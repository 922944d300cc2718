"""Brute-force ground truth over finite fields, and the dimension
certificate.

``enumerate_borel_orbits`` computes the actual B(F_q)-orbit partition of the
nilradical as a min-label fixpoint under 2n generators (one primitive-root
torus per simple slot and U_root(1) for every simple root; U_root(1) of a
non-simple root is a commutator of simple ones).
``stability_check`` certifies it: every class is stable under those
generators, checked over the whole space, and every one-parameter subgroup
element and full torus element is a product of them, checked as an exact
identity of F_q matrices.  ``refine_check`` confronts the partition with the
catalog's defining sets.

Every group element is a ``lie.BorelWord`` over ``Fp``, and acts through
``lie.adjoint``: its linear map on coordinates is read off ``adjoint`` on
the coordinate basis.  The fixpoint and the stability passes apply a map to
the whole space only through ``image_codes``, which builds the code of every
image point digit by digit with integer broadcasts, without decoding the q^d
points; the fixpoint turns each generator into one code table and lowers
every point's label through it.  ``refine_check`` does not decode the q^d
points either: it reads every point's record off the census's slice pass
through the torus normal form (``classify.point_records``).

``jacobian_rank_dim`` certifies each record's dimension exactly over Q at
its representative, with no sampled points: the tangent space [b, rep] of
the orbit must have the dimension d - r that the zero-set Jacobian rank r
leaves there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .arith import Fp, is_prime, primitive_root
from .catalog import Catalog, OrbitRecord, x_vars
from .classify import point_records
from .errors import (BudgetExceededError, InternalInconsistencyError,
                     SchemaError, ShapeError)
from .lie import (BorelWord, NilElement, RootGroupFactor, TorusElement,
                  adjoint, commutator_nil, nil_dim, pos_roots, root_token)

BFS_BUDGET = 2_000_000
#: stability_check certifies every full torus element, as the product of its
#: slot tori, when there are at most this many
FULL_TORUS_CAP = 4096


# ---------------------------------------------------------------------------
# linear maps of group elements on nilradical coordinates


def _coords_mod(x: NilElement) -> list[int]:
    """Coordinates of an F_q element as integers in [0, q), in root order."""
    return [x.coords[r].v if r in x.coords else 0 for r in pos_roots(x.rank)]


def _word_map(word: BorelWord, q: int) -> np.ndarray:
    """Matrix (over F_q) of x -> g x g^{-1} in the coordinate basis, read
    column by column from ``adjoint`` on the basis elements."""
    n = word.rank
    cols = [_coords_mod(adjoint(word, NilElement(n, {beta: Fp(1, q)})))
            for beta in pos_roots(n)]
    return np.array(cols, dtype=np.int64).T


def image_codes(m: np.ndarray, q: int) -> np.ndarray:
    """Code of m x mod q for every x in F_q^d, in code order (digit 0 most
    significant).

    Walks the input digits once: each output digit keeps the partial sum of
    its row over the digits read so far, broadcast over the next digit's q
    values, and is folded into the codes after its row's last nonzero
    column.  Every product is reduced below q, so a partial sum stays below
    d q and needs one ``% q`` at the fold.  Exact for any integer matrix;
    the group maps are lower triangular in root order (ad e_alpha raises
    height), so digit j folds by step j and the widest steps carry few
    digits."""
    d = m.shape[0]
    m = np.asarray(m, dtype=np.int64) % q
    steps = np.arange(q, dtype=np.int64)
    last = {j: int(np.flatnonzero(m[j])[-1]) for j in range(d) if m[j].any()}
    pend = {j: np.zeros(1, dtype=np.int32) for j in last}
    codes = np.zeros(1, dtype=np.int64)
    for i in range(d):
        codes = np.repeat(codes, q)
        for j in list(pend):
            col = (m[j, i] * steps % q).astype(np.int32)
            pend[j] = (pend[j][:, None] + col).ravel()
            if last[j] == i:
                codes += (pend.pop(j) % q) * q**(d - 1 - j)
    return codes


def _torus_word(n: int, diag, q: int) -> BorelWord:
    return BorelWord(n, TorusElement(n, tuple(Fp(t, q) for t in diag)))


def _slot_word(n: int, slot: int, c: int, q: int) -> BorelWord:
    """The torus with entry c in one simple slot and 1 elsewhere."""
    return _torus_word(n, [c if k == slot else 1 for k in range(n)], q)


def _root_word(n: int, root, c: int, q: int) -> BorelWord:
    return BorelWord(n, None, (RootGroupFactor(root, Fp(c, q)),))


def borel_generator_maps(n: int, q: int) -> list[np.ndarray]:
    """Generator set: one primitive-root torus per simple slot, plus U_root(1)
    for every simple root.  U_root(1)^c = U_root(c) over a prime field, and
    U_root(c) of a non-simple root is a commutator of simple ones, so these
    2n elements generate B(F_q)."""
    g0 = primitive_root(q)
    words = [_slot_word(n, slot, g0, q) for slot in range(n)]
    words += [_root_word(n, root, 1, q) for root in pos_roots(n)[:n]]
    return [_word_map(word, q) for word in words]


# ---------------------------------------------------------------------------
# orbit enumeration


@dataclass
class OrbitPartition:
    rank: int
    q: int
    class_of: np.ndarray           # point code -> class index
    reps: list                     # class index -> least point code
    sizes: list

    @property
    def class_count(self) -> int:
        return len(self.reps)


def enumerate_borel_orbits(n: int, q: int, budget: int = BFS_BUDGET) -> OrbitPartition:
    """Min-label fixpoint: every point starts labelled by its own code, and
    each round lowers it to the least label of its generator images, then
    to its label's label, until a round changes nothing.  Each generator is
    a bijection and a label is always a point of the same class, so at the
    fixpoint every point carries the least point of its class.  Classes are
    numbered by that least point, so the partition is canonical."""
    if not is_prime(q):
        raise SchemaError(f"q = {q} is not prime")
    d = nil_dim(n)
    total = q**d
    if total > budget:
        raise BudgetExceededError(total, budget)
    tables = [image_codes(g, q).astype(np.int32)
              for g in borel_generator_maps(n, q)]
    codes = np.arange(total, dtype=np.int32)
    label = codes
    while True:
        new = label
        for table in tables:
            new = np.minimum(new, new[table])
        new = new[new]
        if (new == label).all():
            break
        label = new
    is_rep = label == codes
    class_of = (np.cumsum(is_rep, dtype=np.int32) - 1)[label]
    return OrbitPartition(n, q, class_of, np.flatnonzero(is_rep).tolist(),
                          np.bincount(class_of).tolist())


def _describe_word(word: BorelWord) -> str:
    if word.factors:
        (factor,) = word.factors
        return f"U_{root_token(factor.root)}({factor.param.v})"
    return f"torus diag({', '.join(str(t.v) for t in word.torus.diag)})"


def _powers(m: np.ndarray, count: int, q: int) -> list[np.ndarray]:
    """m^0, ..., m^(count - 1) over F_q, as matrices of Python ints, so the
    products are exact at any q."""
    m = m.astype(object)
    pows = [np.identity(m.shape[0], dtype=object)]
    for _ in range(count - 1):
        pows.append(pows[-1] @ m % q)
    return pows


def stability_check(part: OrbitPartition) -> dict:
    """Certify the partition: every class is stable under every U_root(c),
    every single-slot torus and (when at most ``FULL_TORUS_CAP`` elements)
    every full torus element.

    Only the generators reach the whole space: U_root(1) for every positive
    root, in ``pos_roots`` order, then the n slot tori at g =
    ``primitive_root(q)``.  Every other element is certified as a product of
    generators by an exact identity of F_q matrices: U_root(c) is
    U_root(1)^c (q is prime), the slot torus at c is the slot torus at g to
    the power e with g^e = c (the powers of g are checked to reach all q - 1
    units), and a full torus element is the product of its slot tori.  A
    class stable under every generator is stable under every product of
    them.  The generator words are built here, not taken from
    ``borel_generator_maps``, so the fixpoint's generator set is certified
    independently.  Raises on the first failure, naming the group element,
    and for a whole-space pass the point and both classes."""
    n, q = part.rank, part.q
    d = nil_dim(n)
    g = primitive_root(q)
    log = {pow(g, e, q): e for e in range(q - 1)}
    if len(log) != q - 1:
        c = min(set(range(1, q)) - log.keys())
        raise InternalInconsistencyError(
            f"rank {n} F_{q}: {_describe_word(_slot_word(n, 0, c, q))} is no "
            f"power of {_describe_word(_slot_word(n, 0, g, q))}: {g} is not a "
            f"primitive root, its powers reach {len(log)} of the {q - 1} units")
    roots = pos_roots(n)
    root_gens = [_root_word(n, root, 1, q) for root in roots]
    slot_gens = [_slot_word(n, slot, g, q) for slot in range(n)]
    gens = root_gens + slot_gens
    gen_maps = [_word_map(word, q) for word in gens]
    root_pows = [_powers(m, q, q) for m in gen_maps[:len(roots)]]
    slot_pows = [_powers(m, q - 1, q) for m in gen_maps[len(roots):]]
    # (element, its map as a product of generator maps, that product's name)
    words = [(_root_word(n, root, c, q), root_pows[k][c],
              f"{_describe_word(root_gens[k])}^{c}")
             for k, root in enumerate(roots) for c in range(q)]
    words += [(_slot_word(n, slot, c, q), slot_pows[slot][log[c]],
               f"{_describe_word(slot_gens[slot])}^{log[c]}")
              for slot in range(n) for c in range(1, q)]
    if (q - 1) ** n <= FULL_TORUS_CAP:
        for diag in product(range(1, q), repeat=n):
            prod = slot_pows[0][log[diag[0]]]
            for slot in range(1, n):
                prod = prod @ slot_pows[slot][log[diag[slot]]] % q
            words.append((_torus_word(n, diag, q), prod,
                          "the product of its slot tori"))
    for word, prod, name in words:
        if not np.array_equal(_word_map(word, q), prod):
            raise InternalInconsistencyError(
                f"rank {n} F_{q}: {_describe_word(word)} is not {name} "
                f"over F_{q}")
    for word, m in zip(gens, gen_maps):
        codes = image_codes(m, q)
        moved = part.class_of[codes] != part.class_of
        if moved.any():
            bad = int(np.argmax(moved))
            point = [int(v) for v in np.unravel_index(bad, (q,) * d)]
            raise InternalInconsistencyError(
                f"rank {n} F_{q}: class not stable under "
                f"{_describe_word(word)}: point {point} in class "
                f"{int(part.class_of[bad])} maps to class "
                f"{int(part.class_of[codes[bad]])}")
    return {"maps_checked": len(words), "maps_applied": len(gens)}


# ---------------------------------------------------------------------------
# refinement against the catalog


@dataclass
class RefineReport:
    rank: int
    q: int
    class_count: int
    classes_per_record: dict        # orbit id -> list of class indices
    empty_records: list
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def refine_check(cat: Catalog, part: OrbitPartition) -> RefineReport:
    """Certify that rational orbits refine the catalog partition: every
    class sits inside exactly one defining set, every defining set is a union
    of whole classes, and empties are reported rather than failed.  Every
    point's record is read off the slice pass (``classify.point_records``),
    which certifies exhaustion and disjointness on the slices; the q^d
    points are neither decoded nor evaluated."""
    n, q = part.rank, part.q
    if n != cat.rank:
        raise ShapeError(f"catalog rank {cat.rank} != partition rank {n}")
    d = nil_dim(n)
    matched = point_records(cat, q)
    violations = []
    classes_per_record: dict = {rec.id: [] for rec in cat.orbits}
    rep_match = matched[part.reps]
    split = set(part.class_of[matched != rep_match[part.class_of]].tolist())
    for cls, rec in enumerate(rep_match.tolist()):
        if cls in split:
            pt = [int(v)
                  for v in np.unravel_index(part.reps[cls], (q,) * d)]
            recs = np.unique(matched[part.class_of == cls])
            violations.append(
                f"class {cls} (rep point {pt}) meets records "
                f"{[cat.orbits[int(r)].id for r in recs]}")
            continue
        classes_per_record[cat.orbits[rec].id].append(cls)
    empty = [rid for rid, v in classes_per_record.items() if not v]
    return RefineReport(n, q, part.class_count, classes_per_record, empty,
                        violations)


# ---------------------------------------------------------------------------
# dimension certificate


def _rank_exact(rows: list[list[Fraction]]) -> int:
    a = [list(map(Fraction, row)) for row in rows]
    m = len(a)
    ncols = len(a[0]) if m else 0
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = Fraction(1) / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def _bracket_rows(rep: NilElement) -> list[list]:
    """Matrix of y -> [y, rep] from b to n, one row per basis element of b:
    the simple coroots h_k, then the positive roots.  h_k scales the
    coordinate of root (i, j), that is of alpha_i + ... + alpha_j, by
    <alpha_(i..j), h_k> = d_ik - d_i,k+1 - d_j+1,k + d_j+1,k+1."""
    n = rep.rank
    roots = pos_roots(n)
    rows = [[((i == k) - (i == k + 1) - (j + 1 == k) + (j == k))
             * rep.coord((i, j)) for i, j in roots]
            for k in range(1, n + 1)]
    rows += [commutator_nil(n, root, rep).as_vector() for root in roots]
    return rows


def jacobian_rank_dim(rec: OrbitRecord) -> int:
    """Dimension d - r, r the rank over Q of the zero-set Jacobian at the
    representative, certified by t, the rank of y -> [y, rep] from b to n.

    In characteristic 0 the tangent space of the orbit at rep is [b, rep],
    so the orbit has dimension t.  Every component of V(zero set) through
    rep has dimension at most d - r, and forward containment puts the orbit
    in V(zero set).  So t = d - r makes the orbit closure a component of
    V(zero set) of that dimension, with rep a smooth point of it.  Raises
    when t != d - r, naming the record and both numbers."""
    n = rec.rank
    d = nil_dim(n)
    if len(rec.zero_set) > d:
        raise InternalInconsistencyError(
            f"{rec.id}: more zero-set generators than coordinates")
    rep = rec.representative
    env = dict(zip(x_vars(n), rep.as_vector()))
    r = _rank_exact([[poly.derivative(v).eval(env) for v in x_vars(n)]
                     for poly in rec.zero_set])
    t = _rank_exact(_bracket_rows(rep))
    if t != d - r:
        raise InternalInconsistencyError(
            f"{rec.id}: orbit dimension {t} (rank of [b, rep]) != {d - r} "
            f"(nilradical dimension {d} minus zero-set Jacobian rank {r} at "
            f"the representative)")
    return d - r
