"""Brute-force ground truth over finite fields, and the dimension
certificate.

``enumerate_borel_orbits`` computes the actual B(F_q)-orbit partition of the
nilradical as a min-label fixpoint under ``_generators`` (U_root(1) for
every simple root and one primitive-root torus per simple slot); its exit
round proves every class stable under each of them.  ``stability_check``
certifies the rest: every one-parameter subgroup element and full torus
element is a product of them, proved by identities of the symbolic
families that hold at every q (U_root(1) of a non-simple root is a
commutator of simple ones).  ``refine_check`` confronts the partition with
the catalog's defining sets.

Every group element acts through ``lie.adjoint``, by way of its family:
one symbolic ``adjoint`` of U_root(@c) gives the integer matrix A with
U_root(c) = I + c A, and one of the torus diag(@s1, ..., @sn) gives the
exponents W.  ``read_families`` reads and checks them for one rank, the
commutator identities included; they do not depend on q, so the catalog
keeps one read per command (``family_table``), every field's generator
maps are specialisations of it mod q, and the dimension certificate reads
its rows off the same A and W.  The fixpoint applies a map to the whole
space only through ``image_codes``, one term per output digit summed by
``classify.assemble_table`` into an int32 code table, without decoding the
q^d points; it turns each generator into one table, lowers every point's
label through it and drops the tables when it returns.  ``refine_check``
does not decode the q^d points either: it reads every point's record off
the catalog's slice table of the field, which the census and the closure
order read too, through the torus normal form (``classify.point_records``,
whose slice index ``assemble_table`` builds too).

Every whole-space gather by an int32 code table or label array (the
fixpoint rounds and pointer jump, the ``class_of`` relabelling and the
refinement's class lookups) goes through ``classify.gather``, ``np.take`` a
chunk at a time into a reused buffer: ``a[idx]`` gathers at about half the
speed.  The tables, labels and ``class_of`` stay int32, and no intp copy of
them is kept.

``jacobian_rank_dim`` certifies each record's dimension exactly over Q at
its representative, with no sampled points, once every zero-set
polynomial is checked to vanish there: the tangent space [b, rep] of
the orbit, spanned by W[:, k] * rep and A rep, must have the dimension
d - r that the zero-set Jacobian rank r leaves there.  Ranks come from
fraction-free integer elimination.

numpy is bound lazily (``_lazy.lazy_numpy``): its import runs at the first
family read or fixpoint, so importing this module does not import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple

from ._lazy import lazy_numpy
from .arith import LaurentPoly, is_prime, poly_to_str, primitive_root
from .catalog import Catalog, OrbitRecord, x_vars
from .classify import assemble_table, gather, point_records
from .errors import (BudgetExceededError, InternalInconsistencyError,
                     SchemaError, ShapeError)
from .lie import (BorelWord, NilElement, RootGroupFactor, TorusElement,
                  adjoint, nil_dim, pos_roots, root_token)

np = lazy_numpy()

ORACLE_BUDGET = 2_000_000
#: the fields of the oracle per rank, which the closure order certifies over
ORACLE_DEFAULT_QS = {1: (2, 3, 5, 7), 2: (2, 3, 5, 7), 3: (2, 3, 5, 7),
                     4: (2, 3)}
#: the fixpoint's point codes, labels and code tables are int32
CODE_LIMIT = 2**31 - 1


# ---------------------------------------------------------------------------
# linear maps of group elements on nilradical coordinates

#: parameter names of the symbolic families, U_root(c) and the torus
#: diag(s_1, ..., s_n); the polynomial grammar admits no "@", so no catalog
#: or witness polynomial uses them
_ROOT_PARAM = "@c"


def _family(word: BorelWord) -> list:
    """(row, column, entry) for every nonzero entry of the symbolic map of
    a word with Laurent-polynomial parameters: column beta is ``adjoint``
    of the word on the basis element e_beta."""
    n = word.rank
    roots = pos_roots(n)
    one = LaurentPoly.const(1)
    entries = []
    for col, beta in enumerate(roots):
        image = adjoint(word, NilElement(n, {beta: one})).coords
        entries += [(row, col, image[r]) for row, r in enumerate(roots)
                    if r in image]
    return entries


def _entry(n: int, row: int, col: int) -> str:
    roots = pos_roots(n)
    return f"entry ({root_token(roots[row])}, {root_token(roots[col])})"


def _root_matrix(n: int, root) -> np.ndarray:
    """The integer matrix A with U_root(@c) = I + @c A, read off the
    symbolic family.  Raises, naming the rank, the family and the entry,
    unless every entry is affine in @c with integer coefficients, the @c^0
    part is I and A A = 0."""
    d = nil_dim(n)
    name = f"rank {n}: U_{root_token(root)}({_ROOT_PARAM})"
    parts = np.zeros((2, d, d), dtype=np.int64)     # the @c^0 and @c^1 parts
    for row, col, poly in _family(BorelWord(n, None, (
            RootGroupFactor(root, LaurentPoly.var(_ROOT_PARAM)),))):
        for exps, coeff in poly.terms.items():
            e = dict(zip(poly.vars, exps)).get(_ROOT_PARAM, 0)
            if poly.used_vars() - {_ROOT_PARAM} or e not in (0, 1):
                raise InternalInconsistencyError(
                    f"{name} {_entry(n, row, col)} is {poly_to_str(poly)}, "
                    f"not affine in {_ROOT_PARAM} with integer coefficients")
            parts[e, row, col] = coeff
    for got, want, claim in (
            (parts[0], np.identity(d), f"at {_ROOT_PARAM} = 0 is not I:"),
            (parts[1] @ parts[1], 0, f"= I + {_ROOT_PARAM} A with A A != 0:")):
        off = np.argwhere(got != want)
        if len(off):
            row, col = off[0]
            raise InternalInconsistencyError(
                f"{name} {claim} {_entry(n, row, col)} is {got[row, col]}")
    return parts[1]


def _torus_exponents(n: int) -> np.ndarray:
    """The integer matrix W with diag(@s1, ..., @sn) scaling the coordinate
    of root beta by prod_k @sk^W[beta, k], read off the symbolic family.
    Raises, naming the rank, the family and the entry, unless every entry
    is diagonal, present and a monomial with coefficient 1."""
    params = [f"@s{k}" for k in range(1, n + 1)]
    name = f"rank {n}: torus diag({', '.join(params)})"
    diag = {}
    for row, col, poly in _family(BorelWord(n, TorusElement(n, tuple(
            LaurentPoly.var(s) for s in params)))):
        if row != col:
            raise InternalInconsistencyError(
                f"{name} {_entry(n, row, col)} is {poly_to_str(poly)}, off "
                f"the diagonal")
        diag[row] = poly
    weights = np.zeros((nil_dim(n), n), dtype=np.int64)
    for row in range(nil_dim(n)):
        poly = diag.get(row, LaurentPoly.zero)
        if list(poly.terms.values()) != [1] or poly.used_vars() - set(params):
            raise InternalInconsistencyError(
                f"{name} {_entry(n, row, row)} is {poly_to_str(poly)}, not a "
                f"monomial with coefficient 1")
        (exps,) = poly.terms
        weights[row] = [dict(zip(poly.vars, exps)).get(s, 0) for s in params]
    return weights


def image_codes(m: np.ndarray, q: int) -> np.ndarray:
    """Code of m x mod q for every x in F_q^d, in code order (digit 0 most
    significant), as one C-contiguous int32 table.

    The code is the sum over output digits j of the terms
    ((sum_i m[j, i] x_i) mod q) q^(d-1-j).  Each term is computed on a grid
    over only the axes i where row j is nonzero, an outer sum of the
    columns' values m[j, i] x_i mod q (so a row sum stays below d q), and
    ``classify.assemble_table`` sums the terms over the whole space, so the
    q^d points are never decoded.  The group maps are lower triangular in
    root order (ad e_alpha raises height) with at most two entries per
    row, so each term reads its own digit and at most one lower one, and
    every full-size add runs over contiguous blocks.  Exact for any
    integer matrix when q^d is at most ``CODE_LIMIT``: every code fits
    int32, as the fixpoint's tables do."""
    d = m.shape[0]
    steps = np.arange(q, dtype=np.int64)
    times = np.multiply.outer(steps, steps) % q     # c x mod q at [c, x]
    terms = []
    for j, row in enumerate((np.asarray(m, dtype=np.int64) % q).tolist()):
        cols = [i for i, c in enumerate(row) if c]
        if cols:
            term = reduce(np.add.outer, [times[row[i]] for i in cols])
            terms.append((tuple(cols), term % q * q**(d - 1 - j)))
    return assemble_table(q, d, terms)


def _slot_name(n: int, slot: int, c: int) -> str:
    """The name of the torus with entry c (0 < c < q) in one simple slot
    and 1 elsewhere."""
    entries = (str(c if k == slot else 1) for k in range(n))
    return f"torus diag({', '.join(entries)})"


class Families(NamedTuple):
    """One rank's symbolic families, read and checked: the integer matrix A
    of U_root(@c) = I + @c A for every positive root, in ``pos_roots``
    order, and the torus exponents W."""
    roots: tuple
    weights: np.ndarray


def _check_commutators(n: int, roots: tuple) -> None:
    """Check, for every non-simple root (i, j) in ``pos_roots`` order, the
    integer identity (I + A_ii)(I + A_(i+1)j)(I - A_ii)(I - A_(i+1)j) =
    I + s A_ij for one sign s: U_(i,j)(s) is the commutator of U_(i,i)(1)
    and U_(i+1,j)(1).  Raises, naming the rank, the commutator and the
    entry, on the first root that breaks it."""
    one = np.identity(nil_dim(n), dtype=np.int64)
    matrix = dict(zip(pos_roots(n), roots))
    for (i, j), a in list(matrix.items())[n:]:
        b, c = matrix[(i, i)], matrix[(i + 1, j)]
        diff = (one + b) @ (one + c) @ (one - b) @ (one - c) - one
        sign = -1 if a.any() and (diff == -a).all() else 1
        off = np.argwhere(diff != sign * a)
        if len(off):
            row, col = off[0]
            x, y, z = (root_token(r) for r in ((i, i), (i + 1, j), (i, j)))
            raise InternalInconsistencyError(
                f"rank {n}: U_{z}(1) is no commutator of U_{x}(1) and "
                f"U_{y}(1): (I + A_{x})(I + A_{y})(I - A_{x})(I - A_{y}) - I "
                f"is not +-A_{z}: {_entry(n, row, col)} is {diff[row, col]}, "
                f"not {sign * a[row, col]}")


def read_families(n: int) -> Families:
    """Read every family of rank n off one symbolic ``adjoint`` each, the
    torus first, raising on the first that breaks an identity; then prove
    every non-simple U_root(1) a commutator of simple ones
    (``_check_commutators``)."""
    weights = _torus_exponents(n)
    roots = tuple(_root_matrix(n, root) for root in pos_roots(n))
    _check_commutators(n, roots)
    return Families(roots, weights)


def family_table(cat: Catalog) -> Families:
    """The rank's families, read at the first call and kept on the catalog
    (``Catalog.derived``) for the fixpoints and the dimension rows."""
    return cat.derived("families", lambda: read_families(cat.rank))


def _generators(n: int, q: int, families: Families) -> list:
    """(name, map over F_q) of U_root(1) for every simple root, in
    ``pos_roots`` order, then of the n slot tori at g = ``primitive_root(q)``:
    (I + A) mod q and diag(g^W[:, slot] mod q), leaving out a map that is
    I mod q (it fixes every point).  ``read_families`` proves U_root(1)^c =
    U_root(c) and every non-simple U_root(1) a commutator of simple ones,
    so these generate B(F_q)."""
    g = primitive_root(q)
    one = np.identity(nil_dim(n), dtype=np.int64)
    gens = ([(f"U_{root_token(root)}(1)", (one + a) % q)
             for root, a in zip(pos_roots(n)[:n], families.roots)]
            + [(_slot_name(n, slot, g), np.diag(
                [pow(g, int(w), q) for w in families.weights[:, slot]]))
               for slot in range(n)])
    return [(name, m) for name, m in gens if not np.array_equal(m, one)]


# ---------------------------------------------------------------------------
# orbit enumeration


@dataclass
class OrbitPartition:
    rank: int
    q: int
    class_of: np.ndarray           # point code -> class index
    reps: list                     # class index -> least point code
    sizes: list
    #: the families the fixpoint's generators were specialised from
    families: Families = field(repr=False, compare=False)
    #: names of the generators whose tables the fixpoint's last round passed
    generators: tuple = ()

    @property
    def class_count(self) -> int:
        return len(self.reps)


def enumerate_borel_orbits(n: int, q: int, budget: int = ORACLE_BUDGET, *,
                           families: Families) -> OrbitPartition:
    """Min-label fixpoint over ``_generators``, one code table each: every
    point starts labelled by its own code, and each round lowers it to the
    least label of its generator images, then to its label's label, until
    a round changes nothing.  Each generator is a bijection and a label is
    always a point of the same class, so at the fixpoint every point
    carries the least point of its class, whatever the generators' order.
    Classes are numbered by that least point, so the partition is
    canonical.  A field whose q^d codes do not fit int32 is refused before
    any allocation.

    The exit round proves every class stable under every table.  A label
    never exceeds its point, so the min pass gives new <= label and the
    jump gives new[new] <= new; the exit test new[new] == label forces
    new == label.  So the last min pass lowered no label, label <= label[t]
    for every table t, and label[label] == label, so ``class_of`` is an
    injective renumbering of the labels.  Each table is a permutation (the
    inverse of I + A is I - A, as A A = 0, and each torus entry is a power
    of the unit g) of some finite order k, so label(x) <= label(t x) <= ...
    <= label(t^k x) = label(x) forces label[t] == label, hence
    class_of[t] == class_of.  The partition keeps ``families`` and the
    names of the generators whose tables that round passed."""
    if not is_prime(q):
        raise SchemaError(f"q = {q} is not prime")
    d = nil_dim(n)
    total = q**d
    if total > CODE_LIMIT:
        raise SchemaError(
            f"q^d = {q}^{d} = {total} points exceed the oracle's limit of "
            f"2^31 - 1 = {CODE_LIMIT} (int32 point codes)")
    if total > budget:
        raise BudgetExceededError(total, budget)
    gens = _generators(n, q, families)
    tables = [image_codes(m, q) for _, m in gens]
    label = np.arange(total, dtype=np.int32)
    new, image = np.empty_like(label), np.empty_like(label)
    while True:
        np.copyto(new, label)
        for table in tables:
            np.minimum(new, gather(new, table, image), out=new)
        gather(new, new, image)
        if np.array_equal(image, label):
            break
        label, image = image, label
    reps = np.flatnonzero(label == np.arange(total, dtype=np.int32))
    new[reps] = np.arange(len(reps))    # a class index at every label
    class_of = gather(new, label, image)
    return OrbitPartition(n, q, class_of, reps.tolist(),
                          np.bincount(class_of).tolist(), families,
                          tuple(name for name, _ in gens))


def stability_check(part: OrbitPartition) -> dict:
    """Certify the partition: every class is stable under every U_root(c),
    every single-slot torus and every full torus element.

    Every class is stable under each generator whose table the fixpoint's
    exit round passed (``enumerate_borel_orbits``: there label <= label[t],
    and a permutation t of order k gives label(x) <= label(t x) <= ... <=
    label(t^k x) = label(x), so label[t] == label), so no whole-space pass
    is repeated: the partition's ``generators`` must name every generator
    of ``_generators``, U_a(1) for every simple root a and the n slot tori
    at g, a list built here, so a fixpoint over another set is refused.
    Every other element is a product of them by three identities that
    ``read_families`` checks on the partition's families.  U_root(c) =
    I + c A with A A = 0, so U_root(1)^c = U_root(c).  For a non-simple
    root (i, j), (I + A_ii)(I + A_(i+1)j)(I - A_ii)(I - A_(i+1)j) =
    I + s A_ij with s = +-1, so U_(i,j)(s) is the commutator of U_(i,i)(1)
    and U_(i+1,j)(1) (U(-1) is U(1)^(q-1)), and by induction on the height
    every U_root(1) is a product of the simple ones.  The torus scales
    each coordinate by a monomial prod_k s_k^W[beta, k] with coefficient
    1, so the slot torus at g^e is the e-th power of the one at g (the
    powers of g are checked to reach all q - 1 units) and a full torus
    element is the product of its slot tori.  The identities hold over
    Z[c], over Z and over the Laurent ring Z[s_1, 1/s_1, ..., s_n, 1/s_n],
    and ``adjoint`` computes each entry by ring operations in the
    parameters, so each element's map over F_q is its family specialised
    by a ring homomorphism to F_q (c or s_k sent to the element's entry,
    the integer matrices reduced mod q), which carries the identities over
    to every element at every q.  A class stable under every generator is
    stable under every product of them.  Raises on the first failure,
    naming the rank, the field and the group element."""
    n, q = part.rank, part.q
    g = primitive_root(q)
    log = {pow(g, e, q): e for e in range(q - 1)}
    if len(log) != q - 1:
        c = min(set(range(1, q)) - log.keys())
        raise InternalInconsistencyError(
            f"rank {n} F_{q}: {_slot_name(n, 0, c)} is no power of "
            f"{_slot_name(n, 0, g)}: {g} is not a primitive root, its powers "
            f"reach {len(log)} of the {q - 1} units")
    for name, _ in _generators(n, q, part.families):
        if name not in part.generators:
            raise InternalInconsistencyError(
                f"rank {n} F_{q}: stability under {name} is not certified: "
                f"the fixpoint's last round passed no table of it")
    return {"maps_checked": len(pos_roots(n)) * q + n * (q - 1)
            + (q - 1) ** n, "maps_applied": len(part.generators)}


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
    point's record is read off the catalog's slice table of the field
    (``classify.point_records``), whose pass certifies exhaustion and
    disjointness on the slices; the q^d points are neither decoded nor
    evaluated."""
    n, q = part.rank, part.q
    if n != cat.rank:
        raise ShapeError(f"catalog rank {cat.rank} != partition rank {n}")
    d = nil_dim(n)
    matched = point_records(cat, q)
    violations = []
    classes_per_record: dict = {rec.id: [] for rec in cat.orbits}
    rep_match = matched[part.reps]
    split = set(part.class_of[matched != gather(rep_match, part.class_of)]
                .tolist())
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


def _rank_exact(rows) -> int:
    """Rank over Q of a matrix of ``int`` rows by fraction-free elimination
    (zero rows dropped): each row below a pivot p in column col becomes
    p a_i - a_i[col] a_piv, divided by its content, so the integers stay
    small.  Both matrices the dimension certificate ranks are integral: the
    bracket rows, and the Jacobian rows of polynomials in Z[X] at an
    integral representative."""
    a = [row for row in rows if any(row)]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        p = top[col]
        for i in range(rank + 1, len(a)):
            f = a[i][col]
            if f:
                row = [p * x - f * y for x, y in zip(a[i], top)]
                content = math.gcd(*row)
                a[i] = [x // content for x in row] if content > 1 else row
        rank += 1
        if rank == len(a):
            break
    return rank


def _gradient(poly: LaurentPoly, point: dict, names) -> list:
    """The gradient of poly at point, one entry per variable of ``names``,
    read off its terms: the term c x^e adds c e_v x^(e - 1_v) to the entry
    of v.  poly must have no negative exponent, as no set polynomial of an
    ``OrbitRecord`` has (they are in Z[X]), so the entries are ints at an
    integral point."""
    grad = dict.fromkeys(names, 0)
    for exps, c in poly.terms.items():
        used = [(v, e) for v, e in zip(poly.vars, exps) if e]
        for v, e in used:
            entry = c * e
            for u, f in used:
                entry *= point[u] ** (f - (u == v))   # x_v's exponent drops
            grad[v] += entry
    return list(grad.values())


def _bracket_rows(rep: NilElement, families: Families) -> list[list]:
    """Matrix of y -> [y, rep] from b to n at v = rep: the slot tori's rows
    W[:, k] * v (a unimodular change of the coroot basis), then A v for
    every positive root."""
    v = np.array(rep.as_vector(), dtype=np.int64)
    return np.vstack([families.weights.T * v,
                      np.stack(families.roots) @ v]).tolist()


def jacobian_rank_dim(rec: OrbitRecord, families: Families) -> int:
    """Dimension d - r, r the rank over Q of the zero-set Jacobian at the
    representative (its rows read off the polynomials' terms,
    ``_gradient``), certified by t, the rank of y -> [y, rep] from b to n.

    In characteristic 0 the tangent space of the orbit at rep is [b, rep],
    so the orbit has dimension t.  Every component of V(zero set) through
    rep has dimension at most d - r, and forward containment puts the orbit
    in V(zero set).  So t = d - r makes the orbit closure a component of
    V(zero set) of that dimension, with rep a smooth point of it.  The
    argument needs rep in V(zero set), so every zero-set polynomial is
    first evaluated at rep over Q.  Raises, naming the record, on the
    first polynomial that does not vanish there, and when t != d - r with
    both numbers."""
    n = rec.rank
    d = nil_dim(n)
    if len(rec.zero_set) > d:
        raise InternalInconsistencyError(
            f"{rec.id}: more zero-set generators than coordinates")
    rep = rec.representative
    env = dict(zip(x_vars(n), rep.as_vector()))
    for poly in rec.zero_set:
        value = poly.eval(env)
        if value != 0:
            raise InternalInconsistencyError(
                f"{rec.id}: zero-set polynomial {poly_to_str(poly)} is "
                f"{value} at the representative, not 0")
    r = _rank_exact([_gradient(poly, env, x_vars(n))
                     for poly in rec.zero_set])
    t = _rank_exact(_bracket_rows(rep, families))
    if t != d - r:
        raise InternalInconsistencyError(
            f"{rec.id}: orbit dimension {t} (rank of [b, rep]) != {d - r} "
            f"(nilradical dimension {d} minus zero-set Jacobian rank {r} at "
            f"the representative)")
    return d - r
