"""Reference paths that the tests compare the package against, and helpers
only the tests use.

Literal matrix conjugation (``conjugate_nil`` with the matrices of
``to_matrix`` and ``inverse_matrix``) is the reference for ``lie.adjoint``.
``match_table`` classifies every given point with one vectorized
evaluation per polynomial and record; ``torus_slices`` yields the census
slice points block by block; ``certify`` is the closure-order certificate
computed from them point by point, over the (polynomial, string) generator
lists of ``closure_generator_lists``, the form that the pool-class masks
of ``order.closure_generators`` replaced.  Together they were the package's
finite-field kernel before the one slice pass replaced it, and full q^d
enumeration through them is the reference for ``classify.slice_pass``.

``full_word_pullbacks`` is the generic pullback along the whole generic
Borel word, torus included: the reference for the unipotent-only pullback
of ``witness.generic_pullbacks``.  ``adjoint_pullbacks`` is that pullback
with one ``adjoint`` per representative, the reference for its column
sums.

``word_map`` reads one group element's map over F_q off ``adjoint`` on the
coordinate basis (``torus_word`` names a full torus element), and
``word_identities`` is the identity half of the oracle's stability
certificate computed from it word by word, with ``powers`` as the
generator powers: the reference for the family identities of
``oracle.stability_check``.  ``gauss_jordan_rank`` is the ``Fraction``
elimination that the dimension certificate's integer elimination replaced,
and ``derivative_jacobian`` the zero-set Jacobian from derivative
polynomials that its term-by-term gradients replaced.
``coroot_bracket_rows`` are the dimension certificate's rows of
y -> [y, rep] from the simple coroots and ``commutator_nil``, the reference
for the rows the certificate reads off the symbolic families, and
``rank_mod_p`` ranks them over F_p.

``broadcast_image_codes`` and ``broadcast_point_records`` build the
oracle's whole-space code tables and the refinement's slice index by
broadcasting one term per digit into a grid that widens axis by axis: the
construction that ``classify.assemble_table`` replaced, and its reference.
``commutator_identities`` checks word by word that every non-simple
U_root(1) is a commutator of simple ones, the reference for the identity
that ``oracle.read_families`` checks on the families.  ``generator_passes``
is the per-generator whole-space stability pass that the fixpoint's exit
round replaced, and the reference for it.

``word_residuals`` runs ``adjoint`` on any word built from template texts,
the path every printed word took before a word equal in value to its
template reused the template's residuals, and takes each coordinate's
difference as a fraction (``difference_residuals``, the reference for the
cross-multiplication of ``witness._residuals``).  ``TokenParser`` parses over
one ``Tok`` object per token, kind and position included (``tokenize``):
the reference for ``arith._Parser``'s one ``findall`` of token strings,
with ``token_vars``, its own variable walk, the reference for
``arith.expr_vars``.
``fraction_parse_poly`` is ``arith.parse_poly`` through ``TokenParser``
and one ``LaurentFraction`` per parse-tree node (``fraction_eval``, the
all-fraction evaluator), the reference for its evaluation by
``arith.eval_expr`` over ``LaurentPoly`` bindings.

``degree_boxes`` decodes both polynomials into exponent tuples, the
reference for ``arith._degree_boxes``'s boxes read off the packed keys.
``fixed_point_normalize`` reduces radical exponents by rewriting one hot
variable at a time until none is left, and ``fraction_power`` raises a
``LaurentFraction`` by square-and-multiply through its canonicalizing
product: the references for ``arith.normalize``'s one pass down the tower
and for ``LaurentFraction.__pow__``'s (num^e, den^e).  ``fraction_frac_pow``
takes a monomial's root through ``Fraction`` exponents, the reference for
``arith._frac_pow``'s root read off the packed key.

``serialize_catalog`` writes a catalog in the form of the shipped files,
and ``all_certified`` says whether a ``witness.WitnessReport`` certifies
every record and holds every forward containment.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from functools import reduce
from operator import mul

import numpy as np

from orbit_atlas.arith import (Fp, LaurentFraction, LaurentPoly, _peel,
                               inv_elem, is_zero_elem, poly_to_str,
                               validate_tower)
from orbit_atlas.catalog import record_to_json, root_weight_homogeneous, x_vars
from orbit_atlas.classify import gather, slice_table
from orbit_atlas.errors import (DisjointnessError, DomainError,
                                ExhaustionError, InternalInconsistencyError,
                                SchemaError, ShapeError)
from orbit_atlas.lie import (BorelWord, NilElement, RootGroupFactor,
                             TorusElement, _bracket, adjoint,
                             generic_borel_word, nil_dim, pos_roots)
from orbit_atlas.oracle import _describe_word, _root_word, _slot_word
from orbit_atlas.witness import generic_pullbacks, template_word

REFERENCE_CHUNK = 1 << 19   # non-simple coordinate codes per slice block


# ---------------------------------------------------------------------------
# literal matrices over an arbitrary commutative ring (duck-typed entries)


def mat_identity(size: int) -> list[list]:
    return [[1 if i == j else 0 for j in range(size)] for i in range(size)]


def mat_mul(a: list[list], b: list[list]) -> list[list]:
    size = len(a)
    out = [[0] * size for _ in range(size)]
    for i in range(size):
        ai = a[i]
        for k in range(size):
            x = ai[k]
            if is_zero_elem(x) if not isinstance(x, int) else x == 0:
                continue
            bk = b[k]
            row = out[i]
            for j in range(size):
                y = bk[j]
                if isinstance(y, int) and y == 0:
                    continue
                row[j] = row[j] + x * y
    return out


def full_diag(t: TorusElement) -> list:
    """diag(t_1, ..., t_n, (t_1 ... t_n)^-1)."""
    return list(t.diag) + [inv_elem(reduce(mul, t.diag))]


def _factor_matrix(rank: int, root, param) -> list[list]:
    m = mat_identity(rank + 1)
    i, j = root
    m[i - 1][j] = param
    return m


def to_matrix(x) -> list[list]:
    """The literal matrix of a NilElement (the coordinate of root (i, j) at
    entry (i, j + 1)), a TorusElement or a BorelWord (T * F_1 * ... * F_k)."""
    size = x.rank + 1
    if isinstance(x, NilElement):
        m = [[0] * size for _ in range(size)]
        for (i, j), c in x.coords.items():
            m[i - 1][j] = c
        return m
    if isinstance(x, TorusElement):
        full = full_diag(x)
        return [[full[i] if i == j else 0 for j in range(size)]
                for i in range(size)]
    g = to_matrix(x.torus) if x.torus else mat_identity(size)
    for f in x.factors:
        g = mat_mul(g, _factor_matrix(x.rank, f.root, f.param))
    return g


def inverse_matrix(x) -> list[list]:
    """The inverse of ``to_matrix`` of a TorusElement or a BorelWord."""
    size = x.rank + 1
    if isinstance(x, TorusElement):
        full = [inv_elem(t) for t in full_diag(x)]
        return [[full[i] if i == j else 0 for j in range(size)]
                for i in range(size)]
    g = mat_identity(size)
    for f in reversed(x.factors):
        g = mat_mul(g, _factor_matrix(x.rank, f.root, -f.param))
    if x.torus:
        g = mat_mul(g, inverse_matrix(x.torus))
    return g


def from_matrix(rank: int, m: list[list]) -> NilElement:
    size = rank + 1
    coords = {}
    for i in range(size):
        for j in range(size):
            v = m[i][j]
            zero = (v == 0) if isinstance(v, (int, Fraction)) else is_zero_elem(v)
            if j <= i:
                if not zero:
                    raise ShapeError("matrix is not strictly upper-triangular")
            elif not zero:
                coords[(i + 1, j)] = v
    return NilElement(rank, coords)


def conjugate_nil(g: list[list], g_inv: list[list], x: NilElement) -> NilElement:
    return from_matrix(x.rank, mat_mul(mat_mul(g, to_matrix(x)), g_inv))


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


def match_table(cat, digits: np.ndarray, q: int) -> np.ndarray:
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


def full_space_records(cat, q: int) -> np.ndarray:
    """Record index of every one of the q^d points, in code order."""
    d = nil_dim(cat.rank)
    return match_table(cat, decode_points(np.arange(q**d, dtype=np.int64),
                                          d, q), q)


def full_enumeration_census(cat, q: int) -> dict:
    """Census counts from every one of the q^d points, no torus slicing."""
    counts = {rec.id: 0 for rec in cat.orbits}
    for idx, cnt in zip(*np.unique(full_space_records(cat, q),
                                   return_counts=True)):
        counts[cat.orbits[int(idx)].id] += int(cnt)
    return counts


def torus_slices(cat, q: int):
    """Yield (digits, |S|) blocks covering the torus slices of n(F_q), chunk
    by chunk of non-simple codes and support by support within a chunk,
    after checking that every catalog polynomial is root-weight
    homogeneous.  The digits array is reused between blocks."""
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
    for start in range(0, slice_total, REFERENCE_CHUNK):
        codes = np.arange(start, min(start + REFERENCE_CHUNK, slice_total),
                          dtype=np.int64)
        digits = np.empty((codes.shape[0], d), dtype=np.int64)
        digits[:, n:] = decode_points(codes, d - n, q)
        for support in supports:
            digits[:, :n] = support      # pos_roots lists simple roots first
            yield digits, sum(support)


def closure_generator_lists(cat) -> dict:
    """Certified vanishing polynomials per record as (polynomial, string)
    lists: the record's zero set, then one polynomial of every other class
    of ``cat.pool`` whose pullback along the generic unipotent orbit is
    zero, in class order, from its own ``generic_pullbacks`` call.  A
    zero-set polynomial that does not vanish there raises."""
    rows = generic_pullbacks([rec.representative for rec in cat.orbits],
                             [poly for poly, _ in cat.pool])
    out = {}
    for rec, row in zip(cat.orbits, rows):
        zeros = {k for k, v in enumerate(row) if v.is_zero()}
        own = [cat.slot[p] for p in rec.zero_set]
        for k, s in zip(own, rec.zero_strs):
            if k not in zeros:
                raise InternalInconsistencyError(
                    f"zero-set polynomial {s} of record {rec.id} does not "
                    f"vanish on its generic orbit")
        out[rec.id] = (list(zip(rec.zero_set, rec.zero_strs))
                       + [cat.pool[k] for k in sorted(zeros.difference(own))])
    return out


def certify(cat, leq: dict, generators: dict, qs) -> dict:
    """The closure-order certificate point by point: at every slice point,
    b's generators all vanish exactly when the point's record lies below b;
    returns the counterexample of every non-relation, naming, of b's
    generators nonzero there, the one of the lowest pool class by its pool
    string.
    ``generators`` holds the lists of ``closure_generator_lists``."""
    ids = [rec.id for rec in cat.orbits]
    below = np.array([[leq[(a, b)] for b in ids] for a in ids])
    pool = list(dict.fromkeys(p for b in ids for p, _ in generators[b]))
    col = {p: k for k, p in enumerate(pool)}
    gen_cols = [[col[p] for p, _ in generators[b]] for b in ids]
    uses = np.zeros((len(ids), len(pool)), dtype=bool)
    for b, ks in enumerate(gen_cols):
        uses[b, ks] = True

    def first_nonzero(b, nonzero_row):
        k = min(cat.slot[p] for p, _ in generators[ids[b]]
                if nonzero_row[col[p]])
        return cat.pool[k][1]

    counterexamples: dict = {}
    witnessed = np.zeros(len(ids), dtype=bool)
    for q in qs:
        for digits, _ in torus_slices(cat, q):
            matched = match_table(cat, digits, q)
            cols = dict(zip(x_vars(cat.rank), digits.T))
            nonzero = np.stack([eval_poly_on_columns(p, cols, q) != 0
                                for p in pool], axis=1)
            vanish = ~(nonzero @ uses.T)            # points x records
            mismatch = vanish != below[matched]
            if mismatch.any():
                row, b = (int(i) for i in np.argwhere(mismatch)[0])
                a, pt = ids[matched[row]], digits[row].tolist()
                if vanish[row, b]:
                    raise InternalInconsistencyError(
                        f"every certified generator of {ids[b]} vanishes at "
                        f"point {pt} of S_{a}(F_{q}), but {a} <= {ids[b]} is "
                        f"not asserted: the relation is missing or the "
                        f"closure generating set for {ids[b]} is incomplete")
                raise InternalInconsistencyError(
                    f"{a} <= {ids[b]} symbolically but generator "
                    f"{first_nonzero(b, nonzero[row])} is nonzero at point "
                    f"{pt} of S_{a}(F_{q})")
            records, rows = np.unique(matched, return_index=True)
            for a, row in zip(records.tolist(), rows.tolist()):
                if witnessed[a]:
                    continue
                witnessed[a] = True
                pt = digits[row].tolist()
                for b in np.flatnonzero(~below[a]).tolist():
                    counterexamples[(ids[a], ids[b])] = (
                        q, pt, first_nonzero(b, nonzero[row]))
    unwitnessed = [ids[a] for a in np.flatnonzero(~witnessed
                                                   & ~below.all(axis=1))]
    if unwitnessed:
        raise InternalInconsistencyError(
            f"no finite-field counterexample found for the non-relations of "
            f"{unwitnessed[:5]}: no point over F_q for q in {tuple(qs)}")
    return counterexamples


# ---------------------------------------------------------------------------
# the generic pullback along the whole Borel word


def adjoint_pullbacks(reps, polys) -> list:
    """``witness.generic_pullbacks`` with one ``adjoint`` of the generic
    unipotent word per representative: the reference for its sums of the
    columns of the one symbolic map."""
    rows = []
    for rep in reps:
        n = rep.rank
        moved = adjoint(BorelWord(n, None, generic_borel_word(n).factors),
                        rep)
        env = {var: LaurentPoly.zero + moved.coord(root)
               for root, var in zip(pos_roots(n), x_vars(n))}
        rows.append([LaurentPoly.zero + poly.eval(env)
                     for poly in polys])
    return rows


def full_word_pullbacks(rep: NilElement, polys) -> list:
    """Each polynomial in X11, X22, ... evaluated at the generic point
    ``adjoint(generic_borel_word(n), rep)``, torus included: a Laurent
    polynomial in t1..tn, f1..fd, zero exactly when the polynomial vanishes
    on the B-orbit of rep."""
    moved = adjoint(generic_borel_word(rep.rank), rep)
    env = dict(zip(x_vars(rep.rank), moved.as_vector()))
    return [poly.eval(env) for poly in polys]


# ---------------------------------------------------------------------------
# group maps over F_q, word by word


def coords_mod(x: NilElement) -> list[int]:
    """Coordinates of an F_q element as integers in [0, q), in root order."""
    return [x.coords[r].v if r in x.coords else 0 for r in pos_roots(x.rank)]


def torus_word(n: int, diag, q: int):
    """The full torus element diag(diag) over F_q as a word."""
    return BorelWord(n, TorusElement(n, tuple(Fp(t, q) for t in diag)))


def word_map(word, q: int) -> np.ndarray:
    """Matrix (over F_q) of x -> g x g^{-1} in the coordinate basis, read
    column by column from ``adjoint`` on the basis elements."""
    n = word.rank
    cols = [coords_mod(adjoint(word, NilElement(n, {beta: Fp(1, q)})))
            for beta in pos_roots(n)]
    return np.array(cols, dtype=np.int64).T


def powers(m: np.ndarray, count: int, q: int) -> list[np.ndarray]:
    """m^0, ..., m^(count - 1) over F_q, as matrices of Python ints, so the
    products are exact at any q."""
    m = m.astype(object)
    pows = [np.identity(m.shape[0], dtype=object)]
    for _ in range(count - 1):
        pows.append(pows[-1] @ m % q)
    return pows


def word_identities(n: int, q: int, g: int, maps=word_map) -> int:
    """The identity half of the stability certificate, word by word: every
    U_root(c) is U_root(1)^c, every slot torus at c is the one at g to the
    power log_g(c), and every full torus element is the product of its
    slot tori, each map read off ``maps``.
    Raises on the first failure with the certificate's message; returns
    the number of elements checked."""
    log = {pow(g, e, q): e for e in range(q - 1)}
    roots = pos_roots(n)
    root_gens = [_root_word(n, root, 1, q) for root in roots]
    slot_gens = [_slot_word(n, slot, g, q) for slot in range(n)]
    gen_maps = [maps(word, q) for word in root_gens + slot_gens]
    root_pows = [powers(m, q, q) for m in gen_maps[:len(roots)]]
    slot_pows = [powers(m, q - 1, q) for m in gen_maps[len(roots):]]
    words = [(_root_word(n, root, c, q), root_pows[k][c],
              f"{_describe_word(root_gens[k])}^{c}")
             for k, root in enumerate(roots) for c in range(q)]
    words += [(_slot_word(n, slot, c, q), slot_pows[slot][log[c]],
               f"{_describe_word(slot_gens[slot])}^{log[c]}")
              for slot in range(n) for c in range(1, q)]
    for diag in itertools.product(range(1, q), repeat=n):
        prod = slot_pows[0][log[diag[0]]]
        for slot in range(1, n):
            prod = prod @ slot_pows[slot][log[diag[slot]]] % q
        words.append((torus_word(n, diag, q), prod,
                      "the product of its slot tori"))
    for word, prod, name in words:
        if not np.array_equal(maps(word, q), prod):
            raise InternalInconsistencyError(
                f"rank {n} F_{q}: {_describe_word(word)} is not {name} "
                f"over F_{q}")
    return len(words)


def commutator_identities(n: int, q: int, maps=word_map) -> int:
    """For every non-simple root (i, j), the map over F_q of the word
    U_(i,i)(1) U_(i+1,j)(1) U_(i,i)(-1) U_(i+1,j)(-1) against that of
    U_(i,j)(1) or U_(i,j)(-1), each read off ``maps``.  Raises on the first
    root matched by neither; returns the number of roots checked."""
    roots = pos_roots(n)
    for i, j in roots[n:]:
        word = BorelWord(n, None, tuple(
            RootGroupFactor(root, Fp(c, q))
            for root, c in (((i, i), 1), ((i + 1, j), 1), ((i, i), -1),
                            ((i + 1, j), -1))))
        got = maps(word, q)
        if not any(np.array_equal(got, maps(_root_word(n, (i, j), c, q), q))
                   for c in (1, q - 1)):
            raise InternalInconsistencyError(
                f"rank {n} F_{q}: the commutator of U_x{i}{i}(1) and "
                f"U_x{i + 1}{j}(1) is not U_x{i}{j}(+-1) over F_{q}")
    return len(roots) - n


# ---------------------------------------------------------------------------
# whole-space index tables by broadcasting


def broadcast_image_codes(m: np.ndarray, q: int) -> np.ndarray:
    """Code of m x mod q for every x in F_q^d, in code order: one term
    ((sum_i m[j, i] x_i) mod q) q^(d-1-j) per output digit j, added by
    broadcasting into a grid that spans only the axes some term has used
    so far, widened once per new axis."""
    d = m.shape[0]
    steps = np.arange(q, dtype=np.int64)
    codes = np.zeros((1,) * d, dtype=np.int32)
    for j, row in enumerate((np.asarray(m, dtype=np.int64) % q).tolist()):
        cols = [i for i, c in enumerate(row) if c]
        if not cols:
            continue
        term = sum((row[i] * steps % q).astype(np.int32).reshape(
            (1,) * i + (q,) + (1,) * (d - 1 - i)) for i in cols)
        term %= q
        term *= q**(d - 1 - j)
        if all(codes.shape[i] == q for i in cols):
            codes += term
        else:
            codes = codes + term
    return np.ascontiguousarray(np.broadcast_to(codes, (q,) * d)).ravel()


def generator_passes(part, gens) -> list:
    """Names of the (word, map) pairs of ``gens``, each checked by one
    whole-space pass: class_of[t] == class_of, t the map's code table
    built by broadcasting.  Raises on the first generator that moves a
    point to another class, naming it, the point and both classes."""
    n, q = part.rank, part.q
    for word, m in gens:
        codes = broadcast_image_codes(m, q)
        moved = part.class_of[codes] != part.class_of
        if moved.any():
            bad = int(np.argmax(moved))
            point = decode_points(np.array([bad]), nil_dim(n), q)[0].tolist()
            raise InternalInconsistencyError(
                f"rank {n} F_{q}: class not stable under "
                f"{_describe_word(word)}: point {point} in class "
                f"{int(part.class_of[bad])} maps to class "
                f"{int(part.class_of[codes[bad]])}")
    return [_describe_word(word) for word, _ in gens]


def broadcast_point_records(cat, q: int) -> np.ndarray:
    """Record index of every point of n(F_q) in code order, read off the
    catalog's slice table at its torus normal form, the slice indices
    built by broadcasting, one axis per coordinate."""
    n, d = cat.rank, nil_dim(cat.rank)
    records = np.concatenate([gather(block.record, block.inverse)
                              for block in slice_table(cat, q)])
    steps = np.arange(q, dtype=np.int64)
    inverse = np.array([1] + [pow(v, -1, q) for v in range(1, q)],
                       dtype=np.int64)      # x_kk = 0 contributes no factor

    def along(k, values):
        return values.reshape((1,) * k + (-1,) + (1,) * (d - 1 - k))

    index = sum(along(k, (steps != 0) * (2**(n - 1 - k) * q**(d - n)))
                for k in range(n))
    for r, (i, j) in enumerate(pos_roots(n)[n:], start=n):
        scale = 1
        for k in range(i - 1, j):
            scale = scale * along(k, inverse) % q
        index = index + along(r, steps) * scale % q * q**(d - 1 - r)
    return gather(records, index.ravel())


# ---------------------------------------------------------------------------
# the dimension certificate's rank


def gauss_jordan_rank(rows) -> int:
    """Rank over Q by Gauss-Jordan elimination in ``Fraction``s."""
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


def derivative_jacobian(rec) -> list[list]:
    """The zero-set Jacobian at the representative from one derivative
    ``LaurentPoly`` per polynomial and variable, each evaluated there over
    Q: the reference for the gradients that ``oracle.jacobian_rank_dim``
    reads off the polynomials' terms."""
    n = rec.rank
    env = dict(zip(x_vars(n), rec.representative.as_vector()))
    return [[poly.derivative(v).eval(env) if v in poly.used_vars() else 0
             for v in x_vars(n)] for poly in rec.zero_set]


def commutator_nil(rank: int, root: tuple[int, int], x: NilElement) -> NilElement:
    """[x_root, x] as a NilElement, zero coordinates dropped."""
    return NilElement(rank, {r: v for r, v in sorted(_bracket(root, x.coords))
                             if not is_zero_elem(v)})


def coroot_bracket_rows(rep: NilElement) -> list[list]:
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


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of integer rows, by Gauss-Jordan elimination mod p."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# helpers only the tests use


def nonempty_record_count(report) -> int:
    """Records of an oracle refine report that hold at least one class."""
    return sum(1 for v in report.classes_per_record.values() if v)


def less(poset, a: str, b: str) -> bool:
    """a < b in a closure-order poset."""
    return a != b and poset.leq[(a, b)]


def serialize_catalog(cat) -> str:
    """The catalog as the text of its shipped ``data/a<n>.json`` file."""
    doc = {
        "type": f"A{cat.rank}",
        "schema_version": cat.schema_version,
        "orbits": [record_to_json(r) for r in cat.orbits],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def all_certified(report) -> bool:
    """Every verdict of a ``WitnessReport`` certified and every forward
    containment held."""
    return (all(v.certified for v in report.verdicts)
            and all(f.ok for f in report.forward))


def nonlinear_zero(rec) -> list:
    """The zero-set generators of a record that are not single coordinates
    of its linear part."""
    linear = set(rec.linear_zero_vars())
    return [p for p in rec.zero_set
            if not (p.is_monomial() and p.used_vars() <= linear
                    and p.total_degrees() == {1})]


# ---------------------------------------------------------------------------
# witness words


def difference_residuals(rec, menv, word):
    """Coordinatewise differences adjoint(word, rep) - m of a word built
    over ``menv``, each built as a ``LaurentFraction`` and radical-reduced
    when nonzero; empty when the word reproduces m.  The reference for
    ``witness._residuals``, which decides a coordinate of a radical-free
    member by one cross-multiplication."""
    result = adjoint(word, rec.representative)
    residuals = []
    for root in pos_roots(rec.rank):
        diff = LaurentFraction._lift(result.coord(root)) - menv.target[root]
        if not diff.is_zero():
            diff = diff.reduce_radicals(menv.tower)
        if not diff.is_zero():
            residuals.append((root, diff))
    return residuals


def word_residuals(rec, menv, torus_strs, factor_list, parsed=None):
    """``difference_residuals`` of the word built by
    ``witness.template_word``: every word's own residuals, the reference
    for a printed word that reuses its template's."""
    return difference_residuals(rec, menv, template_word(
        rec, menv, torus_strs, factor_list, parsed))


# ---------------------------------------------------------------------------
# the expression grammar


class Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind, self.text, self.pos = kind, text, pos


# ASCII only: a digit or letter of another script (a superscript two, an
# Arabic-Indic one) is an unexpected character, never a number or a name
TOKEN = re.compile(r"\s*(?:(?P<num>[0-9]+)|(?P<ident>[A-Za-z_]\w*)"
                   r"|(?P<op>[-+*/^()])|(?P<bad>\S))", re.ASCII)


def tokenize(text: str) -> list[Tok]:
    toks = []
    for m in TOKEN.finditer(text):
        kind = m.lastgroup
        word, i = m.group(kind), m.start(kind)
        if kind == "bad":
            raise SchemaError(f"unexpected character {word!r} at position {i}")
        toks.append(Tok(word if kind == "op" else kind, word, i))
    toks.append(Tok("end", "", len(text)))
    return toks


class TokenParser:
    """The parser over one ``Tok`` per token, each with its kind and
    position, from ``tokenize``'s ``finditer``: the reference for
    ``arith._Parser``, which reads the token strings of one ``findall``."""

    def __init__(self, text: str, witness: bool):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        self.witness = witness

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        t = self.toks[self.i]
        if kind and t.kind != kind:
            raise SchemaError(
                f"expected {kind} at position {t.pos} in {self.text!r}, got {t.text!r}")
        self.i += 1
        return t

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise SchemaError(f"trailing input at position {t.pos} in {self.text!r}")
        return node

    def expr(self):
        sign = 1
        t = self.peek()
        if t.kind in "+-":
            self.take()
            sign = -1 if t.kind == "-" else 1
        node = self.term()
        if sign < 0:
            node = ("neg", node)
        links = []
        while self.peek().kind in "+-":
            op = self.take().kind
            links.append((op, self.term()))
        return ("add", node, *links) if links else node

    def term(self):
        node = self.power()
        links = []
        while self.peek().kind in "*/":
            op = self.take().kind
            if op == "/" and not self.witness:
                raise SchemaError("division is not allowed in this grammar")
            links.append((op, self.power()))
        return ("mul", node, *links) if links else node

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            e = self.exponent()
            return ("pow", base, e)
        return base

    def exponent(self) -> Fraction:
        t = self.peek()
        neg = False
        if t.kind == "(":
            self.take()
            neg = self.peek().kind == "-"
            if neg:
                self.take()
            a = int(self.take("num").text)
            if self.peek().kind == "/":
                if not self.witness:
                    raise SchemaError("fractional exponents not allowed here")
                self.take()
                t = self.take("num")
                b = int(t.text)
                if not b:
                    raise SchemaError(f"zero denominator in the exponent at "
                                      f"position {t.pos} in {self.text!r}")
            else:
                b = 1
            self.take(")")
            e = Fraction(a, b)
        else:
            if t.kind == "-":
                self.take()
                neg = True
            e = Fraction(int(self.take("num").text))
        return -e if neg else e

    def atom(self):
        t = self.peek()
        if t.kind == "num":
            self.take()
            return ("num", int(t.text))
        if t.kind == "ident":
            self.take()
            if t.text == "sqrt" and self.peek().kind == "(":
                if not self.witness:
                    raise SchemaError("sqrt is not allowed in this grammar")
                self.take("(")
                inner = self.expr()
                self.take(")")
                return ("pow", inner, Fraction(1, 2))
            return ("var", t.text)
        if t.kind == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if t.kind == "-":
            self.take()
            return ("neg", self.atom())
        raise SchemaError(f"unexpected token {t.text!r} at position {t.pos}")


def fraction_eval(node, env):
    """The value of a catalog-grammar parse tree with every node a
    ``LaurentFraction``, a number included: the evaluator that
    ``arith.eval_expr``, which computes in the ring of its bindings,
    replaced."""
    kind = node[0]
    if kind == "num":
        return LaurentFraction(LaurentPoly.const(node[1]))
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -fraction_eval(node[1], env)
    if kind == "pow":
        return fraction_eval(node[1], env) ** int(node[2])
    value = fraction_eval(node[1], env)
    for op, operand in node[2:]:
        b = fraction_eval(operand, env)
        value = value + b if op == "+" else value - b if op == "-" else value * b
    return value


def token_vars(node) -> set[str]:
    """The variables of a ``TokenParser`` tree, each child found by its
    type: the walk ``arith.expr_vars`` is checked against."""
    if node[0] == "var":
        return {node[1]}
    return set().union(*(token_vars(child) for child in node[1:]
                         if isinstance(child, tuple)))


def fraction_parse_poly(text: str, allowed_vars=None) -> LaurentPoly:
    """``arith.parse_poly`` evaluated through one ``LaurentFraction`` per
    parse-tree node (``fraction_eval``), the path its ``LaurentPoly``
    evaluation replaced: a result that is not a polynomial is refused at
    the end."""
    node = TokenParser(text, witness=False).parse()
    names = token_vars(node)
    if allowed_vars is not None:
        bad = names - set(allowed_vars)
        if bad:
            raise SchemaError(f"variables {sorted(bad)} not in the allowed set")
    env = {v: LaurentFraction(LaurentPoly.var(v)) for v in names}
    out = fraction_eval(node, env)
    if not out.is_poly():
        raise SchemaError(f"{text!r} is not polynomial")
    return out.num


# ---------------------------------------------------------------------------
# degree boxes


def degree_boxes(p: LaurentPoly, q: LaurentPoly):
    """(var, (least, greatest) exponent of var in p, the same in q) for
    every variable that p or q uses, each polynomial decoded into exponent
    tuples through ``vars`` and ``terms``: the reference for
    ``arith._degree_boxes``, which reads the boxes off the packed keys."""
    pbox = {v: (min(c), max(c)) for v, c in zip(p.vars, zip(*p.terms))}
    qbox = {v: (min(c), max(c)) for v, c in zip(q.vars, zip(*q.terms))}
    for v in pbox.keys() | qbox.keys():
        yield v, pbox.get(v, (0, 0)), qbox.get(v, (0, 0))


# ---------------------------------------------------------------------------
# radical towers and fraction powers


def fixed_point_normalize(p: LaurentPoly, tower) -> LaurentPoly:
    """``arith.normalize`` by rewriting R^e with e >= order as
    R^(e mod order) * radicand^(e // order) for one hot radical variable at
    a time, until no exponent is left to reduce."""
    validate_tower(tower)
    rules = {rel.new_var: rel for rel in tower}
    while True:
        hot = None
        for exps in p.terms:
            for v, e in zip(p.vars, exps):
                if v in rules:
                    if e < 0:
                        raise DomainError(
                            f"negative exponent of radical variable {v}")
                    if e >= rules[v].order:
                        hot = v
                        break
            if hot:
                break
        if hot is None:
            return p
        rel, i = rules[hot], p.vars.index(hot)
        acc = LaurentPoly()
        for exps, c in p.terms.items():
            q = max(exps[i], 0) // rel.order
            low = exps[:i] + (exps[i] - q * rel.order,) + exps[i + 1:]
            term = LaurentPoly(p.vars, {low: c})
            acc = acc + (term * rel.radicand ** q if q else term)
        p = acc


def fraction_power(f: LaurentFraction, e: int) -> LaurentFraction:
    """f^e by square-and-multiply from the low bit, each product
    canonicalized by ``LaurentFraction``'s product; a negative e raises the
    inverse."""
    if e < 0:
        return fraction_power(f.inv(), -e)
    if e == 0:
        return LaurentFraction(LaurentPoly.one)
    out, base = None, f
    while True:
        if e & 1:
            out = base if out is None else out * base
        e >>= 1
        if not e:
            return out
        base = base * base


def fraction_frac_pow(base: LaurentFraction, e: Fraction,
                      tower=()) -> LaurentFraction:
    """``arith._frac_pow`` with the monomial's root taken through
    ``Fraction`` exponents and its result built by the public
    ``LaurentPoly(vars, terms)`` constructor: the reference for the root
    read off the packed key."""

    def root(p: LaurentPoly) -> LaurentPoly:
        if p.is_zero():
            raise SchemaError("fractional power of zero")
        rads = LaurentPoly.one
        if not p.is_monomial():
            p, mults = _peel(p, [rel.radicand for rel in tower])
            for rel, mult in zip(tower, mults):
                if mult:
                    total = Fraction(rel.order * mult) * e
                    if total.denominator != 1:
                        raise SchemaError(
                            f"power {e} of radicand^{mult} is not integral")
                    rads = rads * LaurentPoly.var(rel.new_var, int(total))
        if not p.is_monomial():
            raise SchemaError(
                "fractional power of a non-monomial; adjoin a radical variable")
        (exps, c), = p.terms.items()
        new = []
        for x in exps:
            v = Fraction(x) * e
            if v.denominator != 1:
                raise SchemaError("fractional power does not clear; exponent "
                                  f"{x}*{e} is not integral")
            new.append(int(v))
        if c == -1 and e.denominator % 2:
            c = -1 if e.numerator % 2 else 1
        elif c != 1:
            raise SchemaError(f"fractional power {e} of the constant {c}; "
                              f"only 1, and -1 under an odd root, are taken")
        return rads * LaurentPoly(p.vars, {tuple(new): c})

    return LaurentFraction(root(base.num), root(base.den))
