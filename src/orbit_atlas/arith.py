"""Exact coefficient rings.

Four layers, all exact:

* ``Fp`` -- prime-field scalars with canonical representatives in [0, p),
  equal to every int of their class mod p and so unhashable.
* ``LaurentPoly`` -- sparse multivariate Laurent polynomials over Z
  (exponents may be negative): every coefficient is a nonzero ``int``, and
  any other coefficient, a ``Fraction`` included, raises ``SchemaError``.
  Its units are the +-monomials (``is_unit``), the only polynomials
  ``monomial_inverse`` inverts.  One evaluation, ``eval``, serves every
  ring of values and returns the value in its bindings' ring (an ``Fp`` at
  ``Fp`` bindings); a pole raises ``DomainError``, and a constant returns
  its coefficient, which an F_p reader lifts (``Fp(0, p) + value``).  Each
  monomial is one int over a process-wide interned variable registry, so a
  monomial product is an int addition, and an exponent bound raises
  ``DomainError`` before any exponent passes ``EXP_LIMIT`` (see the Laurent
  polynomial section).  The packed map is a polynomial's only state:
  ``vars``, the variables its terms use in name order, is read off the
  keys, so equal polynomials print alike.
* ``LaurentFraction`` -- quotients of Laurent polynomials, the fraction
  field, compared by cross-multiplication, never by floating point.
  Rationals are values only: a ``Fraction`` lifts to a quotient of
  constants, and ``eval`` bindings and points may hold them.
* ``Quotient`` -- the same quotients left unreduced (no content stripped,
  no division tried), for one reader only: the witness residual check,
  which runs ``adjoint`` over them and decides each coordinate by one
  cross-multiplication.  ``radical_poles`` gives the monomial that clears
  a product's negative radical exponents before ``normalize``.

Formal radicals are adjoined through ``RadicalRelation`` towers: a fresh
variable R with a rewrite rule R^k -> radicand.  ``normalize`` reduces every
radical variable's exponent into [0, k) in one pass over the tower, last
radical first: a radicand names only earlier radicals, so no later rewrite
brings back an exponent already reduced.  One evaluator, ``eval_expr``,
reads every parse tree in the ring of its bindings (``LaurentPoly`` ones in
``parse_poly``, ``LaurentFraction`` ones in ``witness``), and every
fractional power goes through one function, ``_frac_pow``: it peels the
tower's radicands off a composite base with ``_peel``, the exact
trial-division loop beside ``_exact_divide`` that ``witness`` also factors
with, and takes exact roots of what is left, a monomial with coefficient
+-1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, SchemaError


# ---------------------------------------------------------------------------
# prime fields


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the bases _SMALL_PRIMES decides primality exactly below
# this bound (Sorenson and Webster, 2015).
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality: trial division by the primes up to 41, then
    Miller-Rabin with those primes as bases, which is deterministic below
    3,317,044,064,679,887,385,961,981.  A number above that bound with no
    small factor raises ``SchemaError``."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n >= _MILLER_RABIN_BOUND:
        raise SchemaError(f"{n} is too large for an exact primality test "
                          f"(the limit is {_MILLER_RABIN_BOUND})")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """Element of F_p, stored as the canonical representative in [0, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _coerce(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise DomainError(f"mixed characteristics {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Fp(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Fp(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Fp(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else Fp(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return Fp(-self.v, self.p)

    def inv(self) -> "Fp":
        if self.v == 0:
            raise DomainError(f"0 has no inverse in F_{self.p}")
        return Fp(pow(self.v, -1, self.p), self.p)

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self * o.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return Fp(pow(self.v, e, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    # Fp(3, 5) == 8 and == 3: no hash can agree with equality mod p, so the
    # type is unhashable.
    __hash__ = None

    def __repr__(self):
        return f"{self.v}"

    def is_zero(self) -> bool:
        return self.v == 0


def primitive_root(p: int) -> int:
    """Smallest generator of F_p^*; returns 1 for p = 2."""
    if p == 2:
        return 1
    factors = set()
    m = p - 1
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors.add(d)
            m //= d
        d += 1
    if m > 1:
        factors.add(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise ValueError(f"no primitive root mod {p}")


def kth_roots(a: Fp, k: int) -> list[Fp]:
    """All k-th roots of a in F_p, by exhaustive search (intended for small p)."""
    return [Fp(r, a.p) for r in range(a.p) if pow(r, k, a.p) == a.v]


# ---------------------------------------------------------------------------
# Laurent polynomials
#
# A monomial is one int, sum_k e_k * 2^(_WIDTH * k), where k is its
# variable's slot in the process-wide registry ``_SHIFT``.  Slots are
# appended on first use and never reused or reordered, so a key means the
# same monomial in every polynomial of the process.  Digits are signed
# (|e_k| <= EXP_LIMIT): the product of two monomials is the sum of their
# keys, an inverse is a negation, and int order is a lex term order with the
# highest slot most significant.  Every polynomial carries an upper bound on
# its |exponents|, and each operation checks the bound of its result against
# EXP_LIMIT before it packs a key, so no digit ever leaves its slot.


_WIDTH = 24                 # bits per variable slot
_HALF = 1 << (_WIDTH - 1)
_MASK = (1 << _WIDTH) - 1
#: largest |exponent| a polynomial may hold: a quarter of a slot's range, so
#: the division loop can compare box corners digit by digit (``_in_box``)
EXP_LIMIT = (_HALF >> 2) - 1

_SHIFT: dict[str, int] = {}     # variable name -> bit offset of its slot
_NAMES: list[str] = []          # slot -> variable name
_BIAS = 0                       # _HALF in every registered slot


def _shift(name: str) -> int:
    """Bit offset of name's slot, appending a slot on first use."""
    s = _SHIFT.get(name)
    if s is None:
        global _BIAS
        s = _SHIFT[name] = _WIDTH * len(_SHIFT)
        _NAMES.append(name)
        _BIAS |= _HALF << s
    return s


def _unpack(key: int, shifts) -> tuple[int, ...]:
    """Exponent tuple of a packed monomial over the slots at ``shifts``."""
    y = key + _BIAS
    return tuple([(y >> s & _MASK) - _HALF for s in shifts])


def _digit(key: int, s: int) -> int:
    """Exponent of the slot at bit offset s in a packed monomial."""
    return (key + _BIAS >> s & _MASK) - _HALF


def _in_box(key: int, lo: int, hi: int) -> bool:
    """Every digit of key lies between those of lo and hi.  Digit
    differences stay below _HALF (exponents are at most EXP_LIMIT), so a
    nonnegative difference has a negative digit exactly when a slot's top
    bit is set."""
    x, y = key - lo, hi - key
    return x >= 0 and y >= 0 and not (x | y) & _BIAS


def _check_bound(b: int) -> int:
    if b > EXP_LIMIT:
        raise DomainError(f"an exponent of {b} would leave its slot "
                          f"(the limit is {EXP_LIMIT})")
    return b


def _coefficient(c) -> int:
    """c as an ``int`` coefficient; anything else raises ``SchemaError``."""
    if not isinstance(c, int):
        raise SchemaError(f"the coefficient {c!r} is not an int")
    return int(c)


def _scale(terms: dict, key: int, c: int) -> dict:
    """Packed term map times the monomial c * x^key."""
    if key:
        return {k + key: x * c for k, x in terms.items()}
    if c == 1:
        return terms
    return {k: x * c for k, x in terms.items()}


_new = object.__new__


def _poly(t: dict, b: int) -> "LaurentPoly":
    """Trusted constructor: a packed map with nonzero ``int``
    coefficients and exponent bound b.  Nothing is copied or checked."""
    p = _new(LaurentPoly)
    p._t, p._b = t, b
    return p


def _degree_boxes(p: "LaurentPoly", q: "LaurentPoly"):
    """(bit offset s of a slot, (least, greatest) exponent of p in that
    slot, the same in q) for every slot that p or q uses, lowest first.
    Read off the packed keys alone: each key is biased once, the used slots
    are the set bits of one OR of ``y ^ _BIAS`` (a biased digit equals
    ``_HALF`` exactly where the exponent is 0), and each used slot's digits
    are read off the biased keys.  A polynomial with no terms reads
    (0, 0), as one that does not use the slot does."""
    bias = _BIAS
    pk = [k + bias for k in p._t]
    qk = [k + bias for k in q._t]
    used = 0
    for y in pk:
        used |= y ^ bias
    for y in qk:
        used |= y ^ bias
    while used:
        s = ((used & -used).bit_length() - 1) // _WIDTH * _WIDTH
        used &= -1 << s + _WIDTH
        pd = [y >> s & _MASK for y in pk] or [_HALF]
        qd = [y >> s & _MASK for y in qk] or [_HALF]
        yield (s, (min(pd) - _HALF, max(pd) - _HALF),
               (min(qd) - _HALF, max(qd) - _HALF))


def _product_bound(p: "LaurentPoly", q: "LaurentPoly") -> int:
    """The largest |exponent| of p*q, exactly: per variable, the least and
    the greatest exponents of the factors add (the ring is a domain)."""
    return _check_bound(max((max(abs(plo + qlo), abs(phi + qhi))
                             for _, (plo, phi), (qlo, qhi)
                             in _degree_boxes(p, q)), default=0))


class LaurentPoly:
    """Sparse Laurent polynomial over Z: an element of Z[x^+-1].  Every
    coefficient is a nonzero ``int``; the constructor, ``const`` and mixed
    arithmetic refuse any other, a ``Fraction`` included, with
    ``SchemaError``.  The units are the +-monomials (``is_unit``).

    Terms live in a map from packed monomial (see above) to coefficient, so
    equality, hashing and arithmetic never align variable lists; the
    exponent bound ``_b`` travels with the map, and the two are a
    polynomial's whole state.  ``vars`` is derived from the keys: the
    variables some term uses, in name order.  ``terms`` decodes the map
    into exponent tuples aligned with ``vars``; both are computed on first
    use and kept.  The constructor's ``vars`` only lines up the exponent
    tuples of its ``terms``.  Values are immutable by convention: no method
    mutates an existing instance, so results may share term maps with their
    operands.
    """

    __slots__ = ("_t", "_b", "_hash", "_vars", "_terms")

    def __init__(self, vars: tuple[str, ...] = (), terms: dict | None = None):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise SchemaError(f"repeated variable in {vars}")
        shifts = [_shift(v) for v in vars]
        t: dict[int, int] = {}
        b = 0
        for exps, c in (terms or {}).items():
            c = _coefficient(c)
            if c == 0:
                continue
            exps = tuple(exps)
            if len(exps) != len(shifts):
                raise SchemaError(f"exponents {exps} do not match {vars}")
            b = max(b, max(map(abs, exps), default=0))
            t[sum(e << s for e, s in zip(exps, shifts))] = c
        self._t, self._b = t, _check_bound(b)

    # -- constructors

    @staticmethod
    def const(c: int) -> "LaurentPoly":
        c = _coefficient(c)
        return _poly({0: c} if c else {}, 0)

    @staticmethod
    def var(name: str, exp: int = 1) -> "LaurentPoly":
        return _poly({exp << _shift(name): 1}, _check_bound(abs(exp)))

    zero = None  # assigned after class body
    one = None

    # -- decoded views

    @property
    def vars(self) -> tuple[str, ...]:
        """The variables some term uses, in name order."""
        try:
            return self._vars
        except AttributeError:
            used = 0            # digit != 0 exactly where a term uses v
            for k in self._t:
                used |= (k + _BIAS) ^ _BIAS
            names = []
            while used:         # name the lowest used slot, then clear it
                slot = ((used & -used).bit_length() - 1) // _WIDTH
                names.append(_NAMES[slot])
                used &= -1 << _WIDTH * (slot + 1)
            self._vars = tuple(sorted(names))
            return self._vars

    @property
    def terms(self) -> dict:
        """Exponent tuple (aligned with ``vars``) -> coefficient."""
        try:
            return self._terms
        except AttributeError:
            shifts = [_SHIFT[v] for v in self.vars]
            self._terms = {_unpack(k, shifts): c for k, c in self._t.items()}
            return self._terms

    def used_vars(self) -> frozenset[str]:
        return frozenset(self.vars)

    def pole_vars(self) -> frozenset[str]:
        """The variables some term has a negative exponent of, read off the
        packed keys in one pass: a biased digit's top bit is clear exactly
        where the exponent is negative."""
        neg = 0
        for k in self._t:
            neg |= ~(k + _BIAS) & _BIAS
        names = []
        while neg:              # one bit per negative slot: clear the lowest
            names.append(_NAMES[((neg & -neg).bit_length() - 1) // _WIDTH])
            neg &= neg - 1
        return frozenset(names)

    def __eq__(self, other):
        if other.__class__ is not LaurentPoly:
            if isinstance(other, Fraction) and other.denominator == 1:
                other = other.numerator     # equal as values, as hashed
            if not isinstance(other, int):
                return NotImplemented
            other = LaurentPoly.const(other)
        return self._t == other._t

    def __hash__(self):
        """Hash of the packed term map, computed on first use and kept in a
        slot (the type is immutable).  A constant, zero included, hashes as
        its value, which it equals."""
        try:
            return self._hash
        except AttributeError:
            t = self._t
            self._hash = (hash(t.get(0, 0)) if t.keys() <= {0}
                          else hash(frozenset(t.items())))
            return self._hash

    def is_zero(self) -> bool:
        return not self._t

    def is_monomial(self) -> bool:
        return len(self._t) == 1

    def is_unit(self) -> bool:
        """+-1 times a monomial: a unit of Z[x^+-1], and the only kind."""
        t = self._t
        return len(t) == 1 and next(iter(t.values())) in (1, -1)

    def _scalar(self):
        """The coefficient of a scalar (one term, every exponent 0), else None."""
        t = self._t
        return t[0] if len(t) == 1 and 0 in t else None

    # -- arithmetic

    def _coerce(self, other):       # const refuses a Fraction
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._t, o._t
        if not b:
            return self
        if not a:
            return o
        out = dict(a)
        for k, c in b.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return _poly(out, max(self._b, o._b))

    __radd__ = __add__

    def __neg__(self):
        return _poly({k: -c for k, c in self._t.items()}, self._b)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._t, o._t
        if not a or not b:
            return LaurentPoly.zero
        bound = self._b + o._b
        if bound > EXP_LIMIT:
            bound = _product_bound(self, o)
        if len(b) == 1:
            (k, c), = b.items()
            return _poly(_scale(a, k, c), bound)
        if len(a) == 1:
            (k, c), = a.items()
            return _poly(_scale(b, k, c), bound)
        out: dict[int, int] = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return _poly(out, bound)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.monomial_inverse() ** (-e)
        result = LaurentPoly.one
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def monomial_inverse(self) -> "LaurentPoly":
        """The inverse of a unit (``is_unit``), else ``DomainError``."""
        if not self.is_unit():
            raise DomainError("only +-monomials are invertible over Z")
        (k, c), = self._t.items()
        return _poly({-k: c}, self._b)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_unit():
            return self * o.monomial_inverse()
        return LaurentFraction(self, o)

    # -- calculus / structure

    def derivative(self, var: str) -> "LaurentPoly":
        if var not in self.vars:
            return LaurentPoly.zero
        i, unit = self.vars.index(var), 1 << _SHIFT[var]
        out = {k - unit: c * exps[i]
               for (exps, c), k in zip(self.terms.items(), self._t) if exps[i]}
        low = min((exps[i] for exps in self.terms), default=0)
        return _poly(out, _check_bound(max(self._b, 1 - low)))

    def total_degrees(self) -> set[int]:
        return {sum(exps) for exps in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.total_degrees()) <= 1

    # -- evaluation

    def eval(self, env: Mapping[str, object]):
        """The value in the ring of the bindings; a constant returns its
        coefficient, the zero polynomial 0.  An unbound variable raises
        ``SchemaError``, a pole ``DomainError``."""
        vars = self.vars
        missing = [v for v in vars if v not in env]
        if missing:
            raise SchemaError(f"unbound variables {missing}")
        total = None
        for exps, c in self.terms.items():
            prod = None
            for v, e in zip(vars, exps):
                if e == 0:
                    continue
                val = env[v]
                factor = (val if e == 1 else val ** e if e > 0
                          else inv_elem(val) ** (-e))
                prod = factor if prod is None else prod * factor
            term = c if prod is None else prod if c == 1 else prod * c
            total = term if total is None else total + term
        return 0 if total is None else total

    # -- display

    def __repr__(self):
        return f"<{poly_to_str(self)}>"


LaurentPoly.zero = LaurentPoly()
LaurentPoly.one = LaurentPoly.const(1)


def poly_to_str(p: LaurentPoly) -> str:
    """Canonical text form under the catalog grammar (see parse_poly): the
    terms in descending lex order of their exponents over ``vars``, the
    variables in name order, so equal polynomials print alike."""
    if p.is_zero():
        return "0"
    parts = []
    for exps, c in sorted(p.terms.items(), reverse=True):
        factors = []
        for v, e in zip(p.vars, exps):
            if e == 0:
                continue
            factors.append(v if e == 1 else f"{v}^{e}")
        body = "*".join(factors)
        if not body:
            text = str(abs(c))
        elif abs(c) == 1:
            text = body
        else:
            text = f"{abs(c)}*{body}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, text))
    first_sign, first = parts[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, text in parts[1:]:
        out += f" {sign} {text}"
    return out


# ---------------------------------------------------------------------------
# radical towers


@dataclass(frozen=True)
class RadicalRelation:
    """Adjoined radical: new_var^order = radicand (radicand over earlier vars)."""

    new_var: str
    order: int
    radicand: LaurentPoly

    def __post_init__(self):
        if self.order not in (2, 3, 4, 5):
            raise SchemaError(f"radical order {self.order} outside 2..5")


def validate_tower(tower: Sequence[RadicalRelation]) -> None:
    """The tower must be triangular: each radicand mentions only earlier variables."""
    seen: set[str] = set()
    for rel in tower:
        if rel.new_var in seen:
            raise SchemaError(f"radical variable {rel.new_var} defined twice")
        bad = rel.radicand.used_vars() & {r.new_var for r in tower} - seen
        if bad:
            raise SchemaError(
                f"radicand of {rel.new_var} mentions later radical vars {sorted(bad)}")
        seen.add(rel.new_var)


def normalize(p: LaurentPoly, tower: Sequence[RadicalRelation]) -> LaurentPoly:
    """Reduce every radical variable's exponent into [0, order).

    One pass over the tower, last radical first, rewrites each R^e as
    R^(e mod order) * radicand^(e // order), e read off the packed keys.  A
    radicand names only earlier radicals (``validate_tower``), so no later
    rewrite brings back an exponent already reduced.  A negative exponent
    of a radical variable is not representable and raises ``DomainError``.
    """
    validate_tower(tower)
    for rel in reversed(tower):
        s = _shift(rel.new_var)
        parts: dict[int, dict] = {}     # q -> the terms over radicand^q
        for k, c in p._t.items():
            q = _digit(k, s) // rel.order
            if q < 0:
                raise DomainError(
                    f"negative exponent of radical variable {rel.new_var}")
            parts.setdefault(q, {})[k - (q * rel.order << s)] = c
        if parts.keys() != {0}:
            p = sum((_poly(t, p._b) * rel.radicand ** q
                     for q, t in parts.items()), LaurentPoly.zero)
    return p


def radical_poles(tower: Sequence[RadicalRelation], *polys) -> LaurentPoly:
    """The least monomial in the tower's radical variables whose product
    with each of polys has no negative radical exponent, read off the
    packed keys (``LaurentPoly.one`` when none has one)."""
    shift = LaurentPoly.one
    for rel in tower:
        s = _shift(rel.new_var)
        low = min((_digit(k, s) for p in polys for k in p._t), default=0)
        if low < 0:
            shift = shift * LaurentPoly.var(rel.new_var, -low)
    return shift


# ---------------------------------------------------------------------------
# fractions


#: most quotient terms an exact division may produce; check-all at A1-A4
#: divides into at most 3
QUOTIENT_LIMIT = 4096


def _exact_divide(num: LaurentPoly, den: LaurentPoly):
    """num / den when den divides num, else None: decided exactly.

    If num = q*den, then per variable v the highest and the lowest v-degrees
    add (Newt(fg) = Newt(f) + Newt(g) in one variable), so every term of q
    lies in the box [min_v(num) - min_v(den), max_v(num) - max_v(den)].
    Lead-term division of an exact multiple, in the packed keys' lex order,
    yields exactly q's terms, so a quotient term outside the box proves den
    does not divide num.  Quotient terms fall strictly in that order inside
    the finite box: the loop ends.  The box can be huge ((a^k + 1)/(a + 1)
    with odd k has k quotient terms), so each step's term is counted and
    the step past ``QUOTIENT_LIMIT`` raises ``DomainError`` naming both
    polynomials, whether den divides num or not.  Coefficients divide
    with ``divmod``: a remainder proves den does not divide num over Z."""
    if den.is_zero():
        return None
    if den.is_unit():
        return num * den.monomial_inverse()
    a, b = num._t, den._t
    if not a:
        return LaurentPoly.zero
    if len(a) == 1 < len(b):    # a non-monomial never divides a monomial
        return None
    lo = hi = bound = 0
    for s, (nlo, nhi), (dlo, dhi) in _degree_boxes(num, den):
        lo += nlo - dlo << s
        hi += nhi - dhi << s
        bound = max(bound, abs(nlo - dlo), abs(nhi - dhi))
    _check_bound(bound)
    lead_den = max(b)
    cd = b[lead_den]
    quo: dict[int, int] = {}
    rem = dict(a)
    while rem:
        lead = max(rem)
        t = lead - lead_den
        if not _in_box(t, lo, hi):
            return None
        if len(quo) == QUOTIENT_LIMIT:
            raise DomainError(
                f"dividing {poly_to_str(num)} by {poly_to_str(den)} takes "
                f"more than {QUOTIENT_LIMIT} quotient terms")
        t_c, r = divmod(rem[lead], cd)
        if r:
            return None
        quo[t] = t_c
        for k, c in b.items():
            key = t + k
            s = rem.pop(key, 0) - t_c * c
            if s:
                rem[key] = s
    return _poly(quo, bound)


def _peel(p: LaurentPoly, divisors) -> tuple[LaurentPoly, list[int]]:
    """(cofactor, multiplicities): each divisor divided out of p as often as
    it goes, in list order.  A divisor that has stopped dividing p divides no
    p/d either, so restarting from the first divisor changes nothing.  p must
    be nonzero and the divisors not units (a unit divides everything)."""
    mults = []
    for d in divisors:
        mult = 0
        while (q := _exact_divide(p, d)) is not None:
            p, mult = q, mult + 1
        mults.append(mult)
    return p, mults


def _strip_content(num: LaurentPoly, den: LaurentPoly):
    """(num, den) with their common monomial content divided out (always
    legal for Laurent polynomials): per slot, the lower of their least
    exponents is moved to 0.  When there is no content (every such lower
    exponent is 0), the operands themselves are returned."""
    content = bound = 0
    for s, (nlo, nhi), (dlo, dhi) in _degree_boxes(num, den):
        low = min(nlo, dlo)
        content += low << s
        bound = max(bound, max(nhi, dhi) - low)
    if not content:
        return num, den
    return (_poly({k - content: c for k, c in num._t.items()},
                  _check_bound(bound)),
            _poly({k - content: c for k, c in den._t.items()}, bound))


def _fraction(num: LaurentPoly, den: LaurentPoly) -> "LaurentFraction":
    """Trusted constructor: (num, den) already in canonical form.  Nothing
    is checked."""
    f = _new(LaurentFraction)
    f.num, f.den = num, den
    return f


class LaurentFraction:
    """Quotient of Laurent polynomials over Z in canonical form: an
    element of the fraction field Q(x), so a rational constant such as 1/2
    is (1, 2).

    Canonicalization: zero numerator forces denominator 1; a unit
    denominator (``is_unit``, +-1 times a monomial) is divided into the
    numerator; otherwise common monomial content is moved into the
    numerator and a denominator that divides the numerator over Z is
    divided out (``_exact_divide`` decides this exactly, so a denominator
    left standing does not divide the numerator, though no gcd is taken).
    Equality is decided by cross-multiplication.

    A power e >= 2 of a canonical (num, den) is (num^e, den^e) as it
    stands.  Per variable, least exponents add, so no common monomial
    content appears, and Z[x^+-1] is a UFD, so den^e divides num^e only if
    den divides num, which the canonical form rules out.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, LaurentPoly):
            num = LaurentPoly.const(num)
        if den is None:
            den = LaurentPoly.one
        elif not isinstance(den, LaurentPoly):
            den = LaurentPoly.const(den)
        if den.is_zero():
            raise DomainError("zero denominator")
        if num.is_zero():
            self.num, self.den = LaurentPoly.zero, LaurentPoly.one
            return
        if den is LaurentPoly.one:
            self.num, self.den = num, den
            return
        if den.is_unit():
            self.num, self.den = num * den.monomial_inverse(), LaurentPoly.one
            return
        num, den = _strip_content(num, den)
        q = _exact_divide(num, den)
        self.num, self.den = (num, den) if q is None else (q, LaurentPoly.one)

    # -- coercion helpers

    @staticmethod
    def _lift(x):
        if isinstance(x, LaurentFraction):
            return x
        if isinstance(x, (LaurentPoly, int)):
            return LaurentFraction(x)
        if isinstance(x, Fraction):
            return LaurentFraction(x.numerator, x.denominator)
        return None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den._scalar() == 1

    # -- arithmetic

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.den is LaurentPoly.one is o.den:
            s = self.num + o.num
            return _fraction(s if s._t else LaurentPoly.zero, LaurentPoly.one)
        return LaurentFraction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return _fraction(-self.num, self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.den is LaurentPoly.one is o.den:
            # nonzero factors have a nonzero product, and a zero factor
            # gives LaurentPoly.zero
            return _fraction(self.num * o.num, LaurentPoly.one)
        return LaurentFraction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise DomainError("division by zero fraction")
        if self.den is LaurentPoly.one is o.den:
            return LaurentFraction(self.num, o.num)
        return LaurentFraction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inv() ** (-e)
        if e == 0:
            return LaurentFraction(LaurentPoly.one)
        if e == 1:
            return self
        # canonical: see the class docstring
        return _fraction(self.num ** e,
                         self.den if self.is_poly() else self.den ** e)

    def inv(self) -> "LaurentFraction":
        if self.num.is_zero():
            raise DomainError("zero fraction has no inverse")
        return LaurentFraction(self.den, self.num)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_zero()

    # Equal fractions need not share a canonical form (no gcd is taken), so
    # no hash can agree with __eq__: the type is unhashable.
    __hash__ = None

    # -- radical handling

    def reduce_radicals(self, tower: Sequence[RadicalRelation]) -> "LaurentFraction":
        """Clear negative radical exponents (scaling num and den together) and
        reduce all radical exponents below their orders."""
        if not tower:
            return self
        shift = radical_poles(tower, self.num, self.den)
        return LaurentFraction(normalize(self.num * shift, tower),
                               normalize(self.den * shift, tower))

    def __repr__(self):
        if self.is_poly():
            return f"<{poly_to_str(self.num)}>"
        return f"<({poly_to_str(self.num)}) / ({poly_to_str(self.den)})>"


class Quotient:
    """Unreduced quotient num / den of Laurent polynomials, den nonzero:
    the witness residual check's ring, where only a final equality is read.
    Nothing is canonicalized, so no content is stripped and no division is
    tried; a value has many forms, and equality is for the reader to decide
    by cross-multiplication.  A sum over one ``den`` object adds the
    numerators, and a ``LaurentPoly.one`` denominator is skipped in sums
    and products."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = LaurentPoly.one):
        self.num, self.den = num, den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "Quotient") -> "Quotient":
        a, b = self.den, other.den
        if a is b:
            return Quotient(self.num + other.num, a)
        if a is LaurentPoly.one:
            return Quotient(self.num * b + other.num, b)
        if b is LaurentPoly.one:
            return Quotient(self.num + other.num * a, a)
        return Quotient(self.num * b + other.num * a, a * b)

    def __neg__(self) -> "Quotient":
        return Quotient(-self.num, self.den)

    def __mul__(self, other: "Quotient") -> "Quotient":
        a, b = self.den, other.den
        return Quotient(self.num * other.num, b if a is LaurentPoly.one
                        else a if b is LaurentPoly.one else a * b)

    def inv(self) -> "Quotient":
        if self.num.is_zero():
            raise DomainError("zero quotient has no inverse")
        return Quotient(self.den, self.num)


# ---------------------------------------------------------------------------
# generic ring helpers (duck-typed scalars: int, Fraction, Fp, polys, fractions)


def inv_elem(x):
    if isinstance(x, int):
        if x == 0:
            raise DomainError("inverse of integer 0")
        return Fraction(1, x)
    if isinstance(x, (Fp, LaurentFraction, Quotient)):
        return x.inv()
    if isinstance(x, LaurentPoly):
        return x.monomial_inverse()
    if isinstance(x, Fraction):
        if x == 0:
            raise DomainError("inverse of rational 0")
        return Fraction(1) / x
    raise SchemaError(f"no inverse for {type(x).__name__}")


def is_zero_elem(x) -> bool:
    if isinstance(x, (Fp, LaurentPoly, LaurentFraction, Quotient)):
        return x.is_zero()
    if isinstance(x, (int, Fraction)):
        return x == 0
    raise SchemaError(f"no zero test for {type(x).__name__}")


# ---------------------------------------------------------------------------
# expression grammar
#
# Catalog polynomial grammar (parse_poly): variables, integer literals,
# + - * ^ and parentheses.  Witness expression grammar (parse_expr, the
# parser's ``witness`` flag) adds /, fractional exponents ^(a/b), and
# sqrt(...).
#
# A chain of + and - is one node ("add", first, (op, term), ...), and a chain
# of * and / one node ("mul", first, (op, factor), ...): each walk of a tree
# loops over a chain's links, read left to right as the text reads, so a
# tree's depth grows with its nesting only, never with a chain's length.


# One token per match, ASCII only: a number, a name, an operator, or any
# other non-space character.  A digit or letter of another script (a
# superscript two, an Arabic-Indic one) is such a character, never a number
# or a name, and is refused.
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_]\w*|[-+*/^()]|\S", re.ASCII)
_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz")
_GRAMMAR = _DIGITS | _NAME_START | frozenset("+-*/^()")
#: deepest nesting of parentheses and unary minus a text may hold: each
#: level recurses in the parser and in every walk of the tree, so a deeper
#: text is refused before it can exhaust the stack (shipped texts nest at
#: most 3 deep)
NESTING_LIMIT = 32


class _Parser:
    """Recursive descent over the token strings of one ``findall``, ended
    by ""; a token's kind is read off its text.  Only an error message
    needs a position: ``_pos`` finds it by scanning the text again.  A
    character outside the grammar is refused before any other error, and
    no rule consumes one, so a parse that succeeds read none."""

    def __init__(self, text: str, witness: bool):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.toks.append("")
        self.i = 0
        self.depth = 0
        self.witness = witness

    def _pos(self, i: int) -> int:
        """Position in the text of token i, its length for the end."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        return starts[i] if i < len(starts) else len(self.text)

    def _expected(self, kind: str):
        raise SchemaError(f"expected {kind} at position {self._pos(self.i)} "
                          f"in {self.text!r}, got {self.toks[self.i]!r}")

    def _expect(self, tok: str):
        if self.toks[self.i] != tok:
            self._expected(tok)
        self.i += 1

    def _number(self) -> int:
        t = self.toks[self.i]
        if t[:1] not in _DIGITS:
            self._expected("num")
        self.i += 1
        return int(t)

    def _nested(self, rule):
        """``rule()`` one level deeper than the token just read, a '(' or
        a unary '-', refused past ``NESTING_LIMIT`` levels."""
        if self.depth == NESTING_LIMIT:
            raise SchemaError(f"parentheses and unary minus nest deeper than "
                              f"{NESTING_LIMIT} at position "
                              f"{self._pos(self.i - 1)}")
        self.depth += 1
        node = rule()
        self.depth -= 1
        return node

    def parse(self):
        try:
            node = self.expr()
            if self.toks[self.i]:
                raise SchemaError(f"trailing input at position "
                                  f"{self._pos(self.i)} in {self.text!r}")
        except Exception:
            for m in _TOKEN.finditer(self.text):
                if m.group()[0] not in _GRAMMAR:
                    raise SchemaError(f"unexpected character {m.group()!r} "
                                      f"at position {m.start()}") from None
            raise
        return node

    def expr(self):
        toks = self.toks
        t = toks[self.i]
        if t == "-" or t == "+":
            self.i += 1
        chain = ["add", ("neg", self.term()) if t == "-" else self.term()]
        t = toks[self.i]
        while t == "+" or t == "-":
            self.i += 1
            chain.append((t, self.term()))
            t = toks[self.i]
        return tuple(chain) if len(chain) > 2 else chain[1]

    def term(self):
        toks = self.toks
        chain = ["mul", self.power()]
        t = toks[self.i]
        while t == "*" or t == "/":
            if t == "/" and not self.witness:
                raise SchemaError("division is not allowed in this grammar")
            self.i += 1
            chain.append((t, self.power()))
            t = toks[self.i]
        return tuple(chain) if len(chain) > 2 else chain[1]

    def power(self):
        base = self.atom()
        if self.toks[self.i] == "^":
            self.i += 1
            return ("pow", base, self.exponent())
        return base

    def exponent(self) -> int | Fraction:
        """An ``int`` when the exponent is integral, ``(4/2)`` included,
        and a ``Fraction`` only when it is fractional.  The two compare and
        hash alike (``2 == Fraction(2)``), so a tree equals the one with
        ``Fraction`` exponents throughout, and ``eval_expr``'s memo hashes
        an ``int`` in C where ``Fraction.__hash__`` is Python code."""
        toks = self.toks
        paren = toks[self.i] == "("
        if paren:
            self.i += 1
        neg = toks[self.i] == "-"
        if neg:
            self.i += 1
        e = self._number()
        if paren:
            if toks[self.i] == "/":
                if not self.witness:
                    raise SchemaError("fractional exponents not allowed here")
                self.i += 1
                b = self._number()
                if not b:
                    raise SchemaError(
                        f"zero denominator in the exponent at position "
                        f"{self._pos(self.i - 1)} in {self.text!r}")
                e = Fraction(e, b)
                if e.denominator == 1:
                    e = e.numerator
            self._expect(")")
        return -e if neg else e

    def atom(self):
        t = self.toks[self.i]
        c = t[:1]
        if c in _DIGITS:
            self.i += 1
            return ("num", int(t))
        if c in _NAME_START:
            self.i += 1
            if t == "sqrt" and self.toks[self.i] == "(":
                if not self.witness:
                    raise SchemaError("sqrt is not allowed in this grammar")
                self.i += 1
                inner = self._nested(self.expr)
                self._expect(")")
                return ("pow", inner, Fraction(1, 2))
            return ("var", t)
        if t == "(":
            self.i += 1
            node = self._nested(self.expr)
            self._expect(")")
            return node
        if t == "-":
            self.i += 1
            return ("neg", self._nested(self.atom))
        raise SchemaError(
            f"unexpected token {t!r} at position {self._pos(self.i)}")


def _frac_pow(base: LaurentFraction, e: Fraction,
              tower: Sequence[RadicalRelation] = ()) -> LaurentFraction:
    """base^e for fractional e over the radical ``tower``, whose radicands
    must be non-monomial (a unit would peel forever).  Each radicand is
    peeled off a non-monomial numerator or denominator (``_peel``), a
    radicand^m becoming R^(order*m*e); what is left must be a monomial whose
    exponents admit the root exactly and whose coefficient is 1, or -1 under
    an odd root.  No other constant's root is taken.  For e = a/b, each
    exponent x read off the monomial's packed key becomes x*a/b, whose
    integrality one ``divmod`` decides."""
    a, b = e.numerator, e.denominator

    def root(p: LaurentPoly) -> LaurentPoly:
        if p.is_zero():
            raise SchemaError("fractional power of zero")
        rads = LaurentPoly.one
        if not p.is_monomial():
            p, mults = _peel(p, [rel.radicand for rel in tower])
            for rel, mult in zip(tower, mults):
                if mult:
                    total, r = divmod(rel.order * mult * a, b)
                    if r:
                        raise SchemaError(
                            f"power {e} of radicand^{mult} is not integral")
                    rads = rads * LaurentPoly.var(rel.new_var, total)
        if not p.is_monomial():
            raise SchemaError(
                "fractional power of a non-monomial; adjoin a radical variable")
        (key, c), = p._t.items()
        new = bound = 0
        for v in p.vars:
            s = _SHIFT[v]
            x = _digit(key, s)
            y, r = divmod(x * a, b)
            if r:
                raise SchemaError("fractional power does not clear; exponent "
                                  f"{x}*{e} is not integral")
            new += y << s
            bound = max(bound, abs(y))
        if c == -1 and b % 2:
            c = -1 if a % 2 else 1
        elif c != 1:
            raise SchemaError(f"fractional power {e} of the constant {c}; "
                              f"only 1, and -1 under an odd root, are taken")
        return rads * _poly({new: c}, _check_bound(bound))

    return LaurentFraction(root(base.num), root(base.den))


def eval_expr(node, env: Mapping[str, object],
              tower: Sequence[RadicalRelation] = (), memo: dict | None = None):
    """The value of a parsed expression tree in the ring of its bindings
    (a ``LaurentPoly`` over ``LaurentPoly`` bindings); a number is a
    constant ``LaurentPoly``, over Z.  A power's exponent is an ``int``,
    or a ``Fraction`` when fractional (``_Parser.exponent``; an integral
    ``Fraction`` reads as its numerator).  A fractional power lifts its base
    to a ``LaurentFraction`` for ``_frac_pow`` over the radical ``tower``
    adjoined to ``env``, and a negative power of a ``LaurentPoly`` that is
    not a unit (2 and zero included) is refused as not polynomial.  ``memo``
    maps nodes to their values under this ``env`` and tower: a node found
    there is not evaluated again, and each node evaluated is added.  A
    chain is evaluated one binary operation per link, left to right.  Its
    lookups hash whole subtrees, so an ``int`` exponent, hashed in C, keeps
    them cheap."""
    if memo is not None and node in memo:
        return memo[node]
    kind = node[0]
    if kind == "var":
        if node[1] not in env:
            raise SchemaError(f"unregistered variable {node[1]!r}")
        value = env[node[1]]
    elif kind == "num":
        value = LaurentPoly.const(node[1])
    elif kind == "neg":
        value = -eval_expr(node[1], env, tower, memo)
    elif kind == "pow":
        base, e = eval_expr(node[1], env, tower, memo), node[2]
        if e.denominator != 1:
            value = _frac_pow(LaurentFraction._lift(base), e, tower)
        elif e < 0 and base.__class__ is LaurentPoly and not base.is_unit():
            raise SchemaError(f"({poly_to_str(base)})^{e} is not polynomial")
        else:
            value = base ** e.numerator
    elif kind == "add" or kind == "mul":
        value = eval_expr(node[1], env, tower, memo)
        for op, operand in node[2:]:
            b = eval_expr(operand, env, tower, memo)
            value = (value + b if op == "+" else value - b if op == "-"
                     else value * b if op == "*" else value / b)
    else:
        raise SchemaError(f"bad expression node {kind!r}")
    if memo is not None:
        memo[node] = value
    return value


def expr_vars(node) -> set[str]:
    kind = node[0]
    if kind == "var":
        return {node[1]}
    if kind == "num":
        return set()
    if kind in ("neg", "pow"):
        return expr_vars(node[1])
    names = expr_vars(node[1])
    for _, operand in node[2:]:
        names |= expr_vars(operand)
    return names


def parse_expr(text: str):
    """Parse a witness-template expression (division, fractional powers, sqrt)."""
    return _Parser(text, witness=True).parse()


def parse_poly(text: str, allowed_vars: Iterable[str] | None = None) -> LaurentPoly:
    """Parse a polynomial under the catalog grammar: idents, integers,
    + - * ^ with integer exponents, parentheses.  Division and fractional
    exponents are refused by the parser; the tree is evaluated by
    ``eval_expr`` over ``LaurentPoly.var`` bindings, so its value is a
    ``LaurentPoly``.  A zero value is ``LaurentPoly.zero``, whose exponent
    bound is 0, as a zero fraction's numerator is."""
    node = _Parser(text, witness=False).parse()
    names = expr_vars(node)
    if allowed_vars is not None:
        bad = names - set(allowed_vars)
        if bad:
            raise SchemaError(f"variables {sorted(bad)} not in the allowed set")
    value = eval_expr(node, {v: LaurentPoly.var(v) for v in names})
    return value if value._t else LaurentPoly.zero
