"""Structural data and adjoint-action tests, pinned to the worked examples."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbit_atlas.arith import Fp, LaurentFraction, LaurentPoly, parse_poly
from orbit_atlas.errors import ShapeError, UnsupportedRankError
from orbit_atlas.lie import (BorelWord, NilElement, RootGroupFactor,
                             TorusElement, _torus_weights, adjoint,
                             coordinate_letters, generic_borel_word, nil_dim,
                             pos_roots)
from reference import (commutator_nil, conjugate_nil, from_matrix, full_diag,
                       inverse_matrix, mat_identity, mat_mul, to_matrix)

V = LaurentPoly.var


def torus_weight(t, root):
    return _torus_weights(t, (root,))[root]


def test_pos_roots_examples():
    assert pos_roots(1) == [(1, 1)]
    assert pos_roots(2) == [(1, 1), (2, 2), (1, 2)]
    mine = pos_roots(2)
    mine.clear()                    # a fresh list: the table is untouched
    assert pos_roots(2) == [(1, 1), (2, 2), (1, 2)]
    r4 = pos_roots(4)
    assert len(r4) == 10
    assert r4[-3:] == [(1, 3), (2, 4), (1, 4)]
    with pytest.raises(UnsupportedRankError):
        pos_roots(5)
    with pytest.raises(UnsupportedRankError):
        pos_roots(0)


def test_coordinate_letters():
    assert coordinate_letters(1) == ["z"]
    assert coordinate_letters(2) == ["x", "y", "z"]
    assert coordinate_letters(4) == list("qrstuvwxyz")


def test_torus_weights_match_worked_examples():
    t2 = TorusElement(2, (V("r"), V("s")))
    assert torus_weight(t2, (1, 1)) == V("r") * V("s") ** -1
    assert torus_weight(t2, (1, 2)) == V("r") ** 2 * V("s")
    t4 = TorusElement(4, (LaurentPoly.const(1),) * 3 + (V("z"),))
    assert torus_weight(t4, (1, 4)) == V("z")


def test_adjoint_single_root_group_on_simple_root():
    x1 = NilElement(2, {(1, 1): 1})
    word = BorelWord(2, None, (RootGroupFactor((2, 2), V("t")),))
    moved = adjoint(word, x1)
    assert moved.coord((1, 1)) == 1
    assert moved.coord((1, 2)) == -V("t")


def test_adjoint_empty_word_is_identity():
    for n in (1, 2, 3, 4):
        x = NilElement(n, {r: i + 1 for i, r in enumerate(pos_roots(n))})
        assert adjoint(BorelWord(n), x).coords == x.coords


def test_adjoint_rank_mismatch():
    with pytest.raises(ShapeError):
        adjoint(BorelWord(2), NilElement(3, {}))


def test_adjoint_matches_rank3_conjugation_display():
    x2 = NilElement(3, {(2, 2): 1})
    word = BorelWord(3, TorusElement(3, (V("r"), V("s"), V("t"))),
                     (RootGroupFactor((1, 1), V("a")),
                      RootGroupFactor((3, 3), V("c"))))
    moved = adjoint(word, x2)
    r, s, t, a, c = (V(x) for x in "rstac")
    assert moved.coord((2, 2)) == s * t ** -1
    assert moved.coord((1, 2)) == a * r * t ** -1
    assert moved.coord((2, 3)) == -(c * r * s ** 2 * t)
    assert moved.coord((1, 3)) == -(a * c * r ** 2 * s * t)


def generic_unipotent(n):
    """Upper unitriangular matrix with fresh polynomial entries, numbered
    along superdiagonals: f1..fn on the first, then the second, and so on
    (for n = 4: rows read f1 f5 f8 f10 / f2 f6 f9 / f3 f7 / f4).  Returns the
    matrix and the variable names in index order."""
    size = n + 1
    m = mat_identity(size)
    names = []
    for diag in range(1, size):
        for i in range(size - diag):
            names.append(f"f{len(names) + 1}")
            m[i][i + diag] = V(names[-1])
    return m, names


def unipotent_inverse(m, size):
    """(I + N)^{-1} = I - N + N^2 - ... for strictly upper N; exact, no
    division."""
    n_part = [[m[i][j] if j > i else 0 for j in range(size)]
              for i in range(size)]
    out = mat_identity(size)
    power = mat_identity(size)
    sign = 1
    for _ in range(size - 1):
        power = mat_mul(power, n_part)
        sign = -sign
        out = [[out[i][j] + sign * power[i][j] for j in range(size)]
               for i in range(size)]
    return out


def test_adjoint_generic_unipotent_on_x2():
    u, names = generic_unipotent(4)
    ui = unipotent_inverse(u, 5)
    moved = conjugate_nil(u, ui, NilElement(4, {(2, 2): 1}))
    f = {k: V(k) for k in names}
    assert moved.coord((2, 2)) == 1
    assert moved.coord((1, 2)) == f["f1"]
    assert moved.coord((2, 3)) == -f["f3"]
    assert moved.coord((1, 3)) == -f["f1"] * f["f3"]
    assert moved.coord((2, 4)) == f["f3"] * f["f4"] - f["f7"]
    assert moved.coord((1, 4)) == (f["f1"] * f["f3"] * f["f4"]
                                   - f["f1"] * f["f7"])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generic_borel_word_matches_literal_conjugation(n):
    word = generic_borel_word(n)
    assert [t.used_vars() for t in word.torus.diag] == [
        {f"t{k}"} for k in range(1, n + 1)]
    assert [(f.root, f.param) for f in word.factors] == [
        (root, V(f"f{k}")) for k, root in enumerate(pos_roots(n), 1)]
    x = NilElement(n, {r: k + 1 for k, r in enumerate(pos_roots(n))})
    literal = conjugate_nil(to_matrix(word), inverse_matrix(word), x)
    assert adjoint(word, x).coords == literal.coords


def _fixing_roots(x):
    """Roots whose one-parameter group fixes x identically in the parameter:
    U_root(c) x U_root(-c) = x + c [x_root, x] on strictly upper-triangular
    x, so exactly the roots with [x_root, x] = 0."""
    return {root for root in pos_roots(x.rank)
            if not commutator_nil(x.rank, root, x).coords}


def test_fixing_root_groups_examples():
    assert _fixing_roots(NilElement(2, {(1, 2): 1})) == set(pos_roots(2))
    assert _fixing_roots(NilElement(2, {(1, 1): 1})) == {(1, 1), (1, 2)}
    for n in (1, 2, 3, 4):
        assert _fixing_roots(NilElement(n, {})) == set(pos_roots(n))


def _random_word(n, p, rng, length=3):
    torus = TorusElement(n, tuple(Fp(rng.randrange(1, p), p) for _ in range(n)))
    factors = tuple(
        RootGroupFactor(rng.choice(pos_roots(n)), Fp(rng.randrange(p), p))
        for _ in range(length))
    return BorelWord(n, torus, factors)


def _random_nil(n, p, rng):
    return NilElement.from_vector(
        n, [Fp(rng.randrange(p), p) for _ in pos_roots(n)])


def _coords_equal(a, b, n, p):
    for root in pos_roots(n):
        x, y = a.coord(root), b.coord(root)
        x = x if isinstance(x, Fp) else Fp(int(x), p)
        y = y if isinstance(y, Fp) else Fp(int(y), p)
        if x != y:
            return False
    return True


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_commutator_matches_matrix_commutator(n):
    rng = random.Random(30 + n)
    x = _random_nil(n, 101, rng)
    for root in pos_roots(n):
        e = to_matrix(NilElement(n, {root: 1}))
        lhs, rhs = mat_mul(e, to_matrix(x)), mat_mul(to_matrix(x), e)
        literal = from_matrix(n, [
            [u - v for u, v in zip(lr, rr)] for lr, rr in zip(lhs, rhs)])
        assert commutator_nil(n, root, x).coords == literal.coords


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_action_composition_and_inverse(n):
    p = 101
    rng = random.Random(n)
    for _ in range(50):
        b1 = _random_word(n, p, rng)
        b2 = _random_word(n, p, rng)
        x = _random_nil(n, p, rng)
        g = mat_mul(to_matrix(b1), to_matrix(b2))
        gi = mat_mul(inverse_matrix(b2), inverse_matrix(b1))
        composed = conjugate_nil(g, gi, x)
        nested = adjoint(b1, adjoint(b2, x))
        assert _coords_equal(composed, nested, n, p)
        back = conjugate_nil(inverse_matrix(b1), to_matrix(b1), adjoint(b1, x))
        assert _coords_equal(back, x, n, p)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_torus_action_is_diagonal(n):
    p = 101
    rng = random.Random(10 + n)
    for _ in range(25):
        t = TorusElement(n, tuple(Fp(rng.randrange(1, p), p) for _ in range(n)))
        x = _random_nil(n, p, rng)
        moved = adjoint(BorelWord(n, t), x)
        for root in pos_roots(n):
            expect = torus_weight(t, root) * x.coord(root)
            got = moved.coord(root)
            got = got if isinstance(got, Fp) else Fp(int(got), p)
            expect = expect if isinstance(expect, Fp) else Fp(int(expect), p)
            assert got == expect


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unipotent_action_raises_height(n):
    p = 101
    rng = random.Random(20 + n)
    for _ in range(25):
        gamma = rng.choice(pos_roots(n))
        x = _random_nil(n, p, rng)
        word = BorelWord(n, None,
                         (RootGroupFactor(gamma, Fp(rng.randrange(p), p)),))
        moved = adjoint(word, x)
        for root in pos_roots(n):
            diff = moved.coord(root) - x.coord(root)
            diff = diff if isinstance(diff, Fp) else Fp(int(diff), p)
            if not diff.is_zero():     # heights are j - i + 1
                assert root[1] - root[0] > gamma[1] - gamma[0]


def test_determinant_one():
    from fractions import Fraction
    t = TorusElement(3, (Fraction(2), Fraction(3), Fraction(5)))
    full = full_diag(t)
    prod = Fraction(1)
    for x in full:
        prod *= x
    assert prod == 1
    g = to_matrix(BorelWord(3, t, (RootGroupFactor((1, 2), Fraction(7)),)))
    # upper-triangular determinant = product of the diagonal
    prod = Fraction(1)
    for i in range(4):
        prod *= g[i][i]
    assert prod == 1


def test_nil_element_round_trip_and_dims():
    for n in (1, 2, 3, 4):
        assert nil_dim(n) == len(pos_roots(n))
        x = NilElement(n, {r: i + 1 for i, r in enumerate(pos_roots(n))})
        back = from_matrix(n, to_matrix(x))
        assert back.coords == x.coords
        vec = x.as_vector()
        assert NilElement.from_vector(n, vec).coords == x.coords


# ---------------------------------------------------------------------------
# sparse adjoint against literal conjugation, over every coefficient ring


def _monomial(c, i, j):
    return LaurentPoly(("a", "b"), {(i, j): c})


_small = st.integers(-3, 3)
_nonzero = _small.filter(bool)
_mono = st.builds(_monomial, _small, st.integers(-2, 2), st.integers(-2, 2))
_nonzero_mono = st.builds(_monomial, _nonzero, st.integers(-2, 2),
                          st.integers(-2, 2))
# the units of Z[a^+-1, b^+-1]: +-1 times a monomial
_unit_mono = st.builds(_monomial, st.sampled_from((1, -1)),
                       st.integers(-2, 2), st.integers(-2, 2))


def _ring(name, p):
    """(scalar, unit) strategies of one coefficient ring.  Symbolic torus
    entries are Laurent monomials: a LaurentPoly entry must be a unit of
    Z[a^+-1, b^+-1], a +-monomial, and rational-function entries make the
    literal reference's dense products too slow for a property test."""
    if name == "Q":
        return (st.builds(Fraction, _small, st.integers(1, 4)),
                st.builds(Fraction, _nonzero, st.integers(1, 4)))
    if name == "F_p":
        return (st.builds(Fp, st.integers(0, p - 1), st.just(p)),
                st.builds(Fp, st.integers(1, p - 1), st.just(p)))
    if name == "poly":
        return st.builds(lambda m1, m2: m1 + m2, _mono, _mono), _unit_mono
    nonconst = st.builds(_monomial, _nonzero, st.integers(1, 2),
                         st.integers(-2, 2))
    return (st.builds(lambda m, u, c: LaurentFraction(m, u + c),
                      _mono, nonconst, _nonzero),
            st.builds(LaurentFraction, _nonzero_mono, _nonzero_mono))


@st.composite
def _word_and_element(draw):
    n = draw(st.integers(1, 4))
    ring = draw(st.sampled_from(("Q", "F_p", "poly", "frac")))
    scalar, unit = _ring(ring, draw(st.sampled_from((2, 7, 101))))
    torus = None
    if draw(st.booleans()):
        torus = TorusElement(n, tuple(draw(unit) for _ in range(n)))
    factors = tuple(
        RootGroupFactor(draw(st.sampled_from(pos_roots(n))), draw(scalar))
        for _ in range(draw(st.integers(0, 4))))
    # integer coordinates, as in the catalog's representatives; kept within
    # -1..1 so that none is a nonzero integer that vanishes in F_p
    coords = {r: draw(st.one_of(st.integers(-1, 1), scalar))
              for r in draw(st.sets(st.sampled_from(pos_roots(n))))}
    return BorelWord(n, torus, factors), NilElement(n, coords)


@settings(max_examples=200, deadline=None)
@given(_word_and_element())
def test_sparse_adjoint_matches_literal_conjugation(case):
    word, x = case
    literal = conjugate_nil(to_matrix(word), inverse_matrix(word), x)
    assert adjoint(word, x).coords == literal.coords


@st.composite
def _torus_and_root(draw):
    n = draw(st.integers(1, 4))
    _, unit = _ring(draw(st.sampled_from(("Q", "F_p", "poly", "frac"))),
                    draw(st.sampled_from((2, 7, 101))))
    return (TorusElement(n, tuple(draw(unit) for _ in range(n))),
            draw(st.sampled_from(pos_roots(n))))


@settings(max_examples=200, deadline=None)
@given(_torus_and_root())
def test_torus_weight_matches_literal_conjugation(case):
    t, root = case
    literal = conjugate_nil(to_matrix(t), inverse_matrix(t),
                            NilElement(t.rank, {root: 1}))
    assert set(literal.coords) == {root}
    assert torus_weight(t, root) == literal.coord(root)


def test_from_vector_stores_unknown_scalars_and_surfaces_bugs():
    token = object()                # no zero test: kept as a coordinate
    assert NilElement.from_vector(1, [token]).coords == {(1, 1): token}

    class Broken(Fp):
        def is_zero(self):
            raise RuntimeError("bug in a zero test")

    with pytest.raises(RuntimeError):
        NilElement.from_vector(1, [Broken(1, 5)])
