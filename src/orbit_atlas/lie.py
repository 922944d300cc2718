"""Type A structural data (ranks 1..4) and the exact adjoint action.

Elements of the nilradical are strictly upper-triangular (n+1)x(n+1)
matrices; the coordinate of the positive root (i, j) sits at matrix entry
(i, j+1).  ``adjoint`` applies a Borel word as a sparse root-group update
(one bracket step per factor, then the torus weights), for every
coefficient ring (prime fields, rationals, Laurent polynomials, their
canonical fractions and the unreduced ``arith.Quotient``s of the witness
residual check).  It is the one path for every group action in the package:
the finite-field maps of the oracle and the rows of its dimension
certificate (both read off the symbolic families of
``oracle.read_families``), the witness words, and the generic unipotent
orbit, ``adjoint`` of the root-group factors of ``generic_borel_word(n)``,
that forward containment and the closure generators pull polynomials back
along (the torus is left out there, as the catalog polynomials are torus
weight vectors).  Literal matrix conjugation lives in the tests, as the
reference they compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import mul

from .arith import LaurentPoly, inv_elem, is_zero_elem
from .errors import SchemaError, ShapeError, UnsupportedRankError

MAX_RANK = 4

#: Coordinate letters in canonical root order, one alphabet per rank.
#: Rank n uses the last n(n+1)/2 letters of "qrstuvwxyz".
_LETTERS = "qrstuvwxyz"


def nil_dim(n: int) -> int:
    return n * (n + 1) // 2


def coordinate_letters(n: int) -> list[str]:
    check_rank(n)
    return list(_LETTERS[len(_LETTERS) - nil_dim(n):])


def check_rank(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_RANK:
        raise UnsupportedRankError(f"rank {n} outside 1..{MAX_RANK}")


#: Positive roots (i, j), 1 <= i <= j <= n, per rank, listed by height then
#: start: simple roots first, then height 2, and so on.
_ROOTS = {n: tuple((i, i + h - 1) for h in range(1, n + 1)
                   for i in range(1, n - h + 2))
          for n in range(1, MAX_RANK + 1)}
_ROOT_SETS = {n: frozenset(roots) for n, roots in _ROOTS.items()}


def pos_roots(n: int) -> list[tuple[int, int]]:
    """Positive roots (i, j), 1 <= i <= j <= n, listed by height then start:
    simple roots first, then height 2, and so on.  A fresh list."""
    check_rank(n)
    return list(_ROOTS[n])


def root_token(root: tuple[int, int]) -> str:
    return f"x{root[0]}{root[1]}"


def parse_root_token(tok: str, n: int) -> tuple[int, int]:
    if len(tok) == 3 and tok[0] == "x" and tok[1:].isdigit():
        i, j = int(tok[1]), int(tok[2])
        if 1 <= i <= j <= n:
            return (i, j)
    raise ShapeError(f"bad root token {tok!r} for rank {n}")


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class NilElement:
    """Nilradical element: sparse map from positive roots to ring elements."""

    rank: int
    coords: dict = field(default_factory=dict)

    def __post_init__(self):
        check_rank(self.rank)
        roots = _ROOT_SETS[self.rank]
        if not roots.issuperset(self.coords):
            bad = set(self.coords) - roots
            raise ShapeError(f"coordinates {sorted(bad)} are not rank-{self.rank} roots")

    def coord(self, root: tuple[int, int]):
        return self.coords.get(root, 0)

    def as_vector(self) -> list:
        return [self.coord(r) for r in _ROOTS[self.rank]]

    @staticmethod
    def from_vector(rank: int, values) -> "NilElement":
        check_rank(rank)
        roots = _ROOTS[rank]
        values = list(values)
        if len(values) != len(roots):
            raise ShapeError(f"expected {len(roots)} coordinates, got {len(values)}")
        coords = {}
        for r, v in zip(roots, values):
            try:
                if is_zero_elem(v):
                    continue
            except SchemaError:     # no zero test for this scalar type
                pass
            coords[r] = v
        return NilElement(rank, coords)


@dataclass(frozen=True)
class TorusElement:
    """diag(t_1, ..., t_n, (t_1 ... t_n)^-1); determinant 1 by construction."""

    rank: int
    diag: tuple

    def __post_init__(self):
        check_rank(self.rank)
        if len(self.diag) != self.rank:
            raise ShapeError(f"torus for rank {self.rank} needs {self.rank} entries")


@dataclass(frozen=True)
class RootGroupFactor:
    """U_root(param) = I + param * x_root."""

    root: tuple[int, int]
    param: object


@dataclass(frozen=True)
class BorelWord:
    """Optional torus followed by root-group factors.

    The word denotes the single group element g = T * F_1 * ... * F_k
    (torus leftmost, factors in listed order); it acts by one conjugation
    x -> g x g^{-1}.
    """

    rank: int
    torus: TorusElement | None = None
    factors: tuple = ()

    def __post_init__(self):
        check_rank(self.rank)
        if self.torus is not None and self.torus.rank != self.rank:
            raise ShapeError("torus rank mismatch")
        for f in self.factors:
            i, j = f.root
            if not 1 <= i <= j <= self.rank:
                raise ShapeError(f"root {f.root} outside rank {self.rank}")


# ---------------------------------------------------------------------------
# operations


def _torus_weights(t: TorusElement, roots) -> dict:
    """Scaling factor of each root coordinate under conjugation by t: root
    (i, j) has weight t_i / t_(j+1), and 1 / t_(n+1) = t_1 ... t_n.  Each
    1 / t_(j+1) is computed once, and only when some root needs it."""
    d = t.diag
    inv = {}
    for _, j in roots:
        if j not in inv:
            inv[j] = inv_elem(d[j]) if j < t.rank else reduce(mul, d)
    return {(i, j): d[i - 1] * inv[j] for i, j in roots}


def _bracket(root: tuple[int, int], coords: dict) -> list:
    """[x_root, x] for x given by its coordinates, as (root, value) terms on
    distinct roots: with root = (a, b), x_(b+1,j) moves to (a, j) and
    -x_(i,a-1) to (i, b)."""
    a, b = root
    out = []
    for (i, j), v in coords.items():
        if i == b + 1:
            out.append(((a, j), v))
        elif j == a - 1:
            out.append(((i, b), -v))
    return out


def adjoint(b: BorelWord, x: NilElement) -> NilElement:
    """Exact adjoint action g x g^{-1}, g = T F_1 ... F_k, as a NilElement.

    The factors act right to left, each U_root(c) as x -> x + c [x_root, x]
    (the quadratic term -c^2 x_root x x_root vanishes on strictly
    upper-triangular x); the torus then scales each coordinate by its
    weight.  Literal conjugation by the word's matrices is the reference
    the tests compare against.
    """
    if b.rank != x.rank:
        raise ShapeError(f"word rank {b.rank} != element rank {x.rank}")
    coords = dict(x.coords)
    for f in reversed(b.factors):
        c = f.param
        if is_zero_elem(c):
            continue
        for root, v in _bracket(f.root, coords):
            d = c * v
            coords[root] = coords[root] + d if root in coords else d
    if b.torus is not None:
        weights = _torus_weights(b.torus, coords)
        coords = {root: weights[root] * v for root, v in coords.items()}
    # matrix order, zero coordinates dropped as the reference
    # ``from_matrix`` of ``tests/reference.py`` drops them
    return NilElement(x.rank, {r: coords[r] for r in sorted(coords)
                               if not is_zero_elem(coords[r])})


def generic_borel_word(n: int) -> BorelWord:
    """The generic Borel element over Laurent polynomials: the torus
    diag(t1, ..., tn, (t1 ... tn)^-1) followed by one factor U_root(f_k) per
    positive root, the k-th root of ``pos_roots`` taking f_k.  For a fixed
    root order the product of the root groups is a bijection onto U, so
    ``adjoint(generic_borel_word(n), x)`` is the generic point of the orbit
    of x: a polynomial vanishes on the orbit exactly when it vanishes there.
    """
    check_rank(n)
    torus = TorusElement(n, tuple(LaurentPoly.var(f"t{k}")
                                  for k in range(1, n + 1)))
    factors = tuple(RootGroupFactor(root, LaurentPoly.var(f"f{k}"))
                    for k, root in enumerate(_ROOTS[n], 1))
    return BorelWord(n, torus, factors)
