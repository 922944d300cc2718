"""Exact coefficient rings.

Three layers, all exact:

* ``Fp`` -- prime-field scalars with canonical representatives in [0, p).
* ``LaurentPoly`` -- sparse multivariate Laurent polynomials over Q
  (exponents may be negative), canonical form enforced after every
  operation.  A canonical coefficient is an ``int``, or a ``Fraction`` with
  denominator > 1: never zero and never a float.  Coefficient divisions go
  through ``Fraction`` (``_quo``); constant values (``const_value``, a
  constant ``eval``) are returned as ``Fraction``.
* ``LaurentFraction`` -- quotients of Laurent polynomials, compared by
  cross-multiplication, never by floating point.

Formal radicals are adjoined through ``RadicalRelation`` towers: a fresh
variable R with a rewrite rule R^k -> radicand.  ``normalize`` reduces every
radical variable's exponent into [0, k) by applying the rules to a fixed
point, which makes normal forms independent of the rewrite order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Mapping, Sequence, Union

from .errors import DomainError, EvaluationError, SchemaError

Rational = Union[int, Fraction]


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
        if isinstance(other, Fraction):
            return Fp(other.numerator, self.p) / Fp(other.denominator, self.p)
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

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o * self.inv()

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

    def __hash__(self):
        return hash((self.v, self.p))

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


def _canon(c) -> Rational:
    """Canonical form of a rational coefficient: an ``int`` when integral,
    else a ``Fraction`` with denominator > 1."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise SchemaError(f"coefficient {c!r} is not rational")


def _quo(a: Rational, b: Rational) -> Rational:
    """a / b for rational coefficients, canonical (two ints never give a
    float)."""
    if a.__class__ is int and b.__class__ is int and not a % b:
        return a // b
    return _canon(Fraction(a, b))


def _canon_values(terms: dict) -> dict:
    """Rewrite the integral ``Fraction`` values of a fresh term map as ints."""
    for exps, c in terms.items():
        if c.__class__ is not int and c.denominator == 1:
            terms[exps] = c.numerator
    return terms


def _pad(terms: dict, width: int) -> dict:
    """Extend every exponent vector by ``width`` zero exponents."""
    if not width:
        return terms
    zeros = (0,) * width
    return {exps + zeros: c for exps, c in terms.items()}


def _scale(terms: dict, exps: tuple, c: Rational) -> dict:
    """Term map times the monomial c * x^exps over the same registry."""
    if any(exps):
        return _canon_values({tuple(map(add, e, exps)): x * c
                              for e, x in terms.items()})
    if c == 1:
        return terms
    return _canon_values({e: x * c for e, x in terms.items()})


class LaurentPoly:
    """Sparse Laurent polynomial: map from exponent vector to nonzero
    coefficient.  Coefficients are canonical: an ``int`` when integral, else
    a ``Fraction`` with denominator > 1, never zero and never a float.

    ``vars`` fixes the variable order (registration order); exponent vectors
    align with it.  Values are immutable by convention: no method mutates an
    existing instance, so results may share term maps with their operands.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: tuple[str, ...] = (), terms: dict | None = None):
        self.vars = tuple(vars)
        clean: dict[tuple[int, ...], Rational] = {}
        if terms:
            for exps, c in terms.items():
                c = _canon(c)
                if c != 0:
                    clean[tuple(exps)] = c
        self.terms = clean

    @staticmethod
    def _make(vars: tuple[str, ...], terms: dict) -> "LaurentPoly":
        """Trusted constructor for clean terms: tuple keys of length
        ``len(vars)`` and canonical nonzero coefficients.  Nothing is copied
        or checked."""
        p = object.__new__(LaurentPoly)
        p.vars = vars
        p.terms = terms
        return p

    # -- constructors

    @staticmethod
    def const(c: Rational) -> "LaurentPoly":
        c = _canon(c)
        return LaurentPoly._make((), {(): c} if c else {})

    @staticmethod
    def var(name: str, exp: int = 1) -> "LaurentPoly":
        return LaurentPoly._make((name,), {(exp,): 1})

    zero = None  # assigned after class body
    one = None

    # -- canonical, registry-independent view

    def items(self) -> list[tuple[tuple[tuple[str, int], ...], Rational]]:
        """Terms keyed by sorted (var, exp!=0) pairs; independent of registry."""
        out = []
        for exps, c in self.terms.items():
            key = tuple(sorted((v, e) for v, e in zip(self.vars, exps) if e != 0))
            out.append((key, c))
        out.sort()
        return out

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(other)
        if self.vars == other.vars:
            return self.terms == other.terms
        return self.items() == other.items()

    def __hash__(self):
        """Hash of the registry-independent ``items()``, computed on first
        use and kept in a slot (the type is immutable)."""
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(tuple(self.items()))
            return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_const(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def _scalar(self):
        """The coefficient of a scalar (one term, every exponent 0), else None."""
        if len(self.terms) == 1:
            (exps, c), = self.terms.items()
            if not any(exps):
                return c
        return None

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_const():
            raise SchemaError("not a constant polynomial")
        return Fraction(next(iter(self.terms.values())))

    def used_vars(self) -> set[str]:
        used = set()
        for exps in self.terms:
            for v, e in zip(self.vars, exps):
                if e != 0:
                    used.add(v)
        return used

    # -- registry alignment

    def _aligned(self, other: "LaurentPoly"):
        """(vars, a, b): both term maps over the merged registry, self's
        variables then other's new ones.  A registry that is a prefix of the
        merged one is padded with zero exponents; only an interleaved
        registry is remapped."""
        sv, ov = self.vars, other.vars
        if sv == ov:
            return sv, self.terms, other.terms
        ns, no = len(sv), len(ov)
        if ns < no and ov[:ns] == sv:
            return ov, _pad(self.terms, no - ns), other.terms
        if no < ns and sv[:no] == ov:
            return sv, self.terms, _pad(other.terms, ns - no)
        merged = sv + tuple(v for v in ov if v not in sv)
        idx = [merged.index(v) for v in ov]
        b = {}
        for exps, c in other.terms.items():
            vec = [0] * len(merged)
            for i, e in zip(idx, exps):
                vec[i] = e
            b[tuple(vec)] = c
        return merged, _pad(self.terms, len(merged) - ns), b

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        vars, a, b = self._aligned(o)
        if not b:
            return LaurentPoly._make(vars, a)
        if not a:
            return LaurentPoly._make(vars, b)
        out = dict(a)
        for exps, c in b.items():
            s = out.get(exps, 0) + c
            if not s:
                del out[exps]
            elif s.__class__ is not int and s.denominator == 1:
                out[exps] = s.numerator
            else:
                out[exps] = s
        return LaurentPoly._make(vars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        vars, a, b = self._aligned(o)
        if not a or not b:
            return LaurentPoly._make(vars, {})
        if len(b) == 1:
            (exps, c), = b.items()
            return LaurentPoly._make(vars, _scale(a, exps, c))
        if len(a) == 1:
            (exps, c), = a.items()
            return LaurentPoly._make(vars, _scale(b, exps, c))
        out: dict[tuple[int, ...], Rational] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(map(add, e1, e2))
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return LaurentPoly._make(vars, _canon_values(out))

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
        if not self.is_monomial():
            raise DomainError("only monomials are invertible as Laurent polynomials")
        (exps, c), = self.terms.items()
        return LaurentPoly._make(self.vars, {tuple(-e for e in exps): _quo(1, c)})

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, LaurentFraction):
                return LaurentFraction(self) / other
            return NotImplemented
        if o.is_monomial():
            return self * o.monomial_inverse()
        return LaurentFraction(self, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- calculus / structure

    def derivative(self, var: str) -> "LaurentPoly":
        if var not in self.vars:
            return LaurentPoly()
        i = self.vars.index(var)
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            key = exps[:i] + (e - 1,) + exps[i + 1:]
            out[key] = out.get(key, 0) + c * e
        return LaurentPoly(self.vars, out)

    def total_degrees(self) -> set[int]:
        return {sum(exps) for exps in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.total_degrees()) <= 1

    # -- evaluation and substitution

    def eval(self, env: Mapping[str, object]):
        """Evaluate with ring-valued bindings; unbound variables are an error."""
        missing = self.used_vars() - set(env)
        if missing:
            raise SchemaError(f"unbound variables {sorted(missing)}")
        total = None
        for exps, c in self.terms.items():
            prod = None
            for v, e in zip(self.vars, exps):
                if e == 0:
                    continue
                val = env[v]
                factor = val ** e if e > 0 else inv_elem(val) ** (-e)
                prod = factor if prod is None else prod * factor
            term = c if prod is None else prod * c
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        if isinstance(total, int):
            return Fraction(total)
        return total

    def eval_mod_p(self, point: Mapping[str, object], p: int) -> Fp:
        """Exact F_p evaluation; negative exponent at zero raises
        EvaluationError, a coefficient undefined mod p SchemaError."""
        missing = self.used_vars() - set(point)
        if missing:
            raise SchemaError(f"unbound variables {sorted(missing)}")
        vals = {}
        for v in self.used_vars():
            x = point[v]
            vals[v] = x.v if isinstance(x, Fp) else int(x) % p
        acc = 0
        for exps, c in self.terms.items():
            t = 1
            for v, e in zip(self.vars, exps):
                if e == 0:
                    continue
                x = vals[v]
                if e < 0:
                    if x == 0:
                        raise EvaluationError(f"negative exponent of {v} at 0")
                    x = pow(x, -1, p)
                    e = -e
                t = (t * pow(x, e, p)) % p
            if c.denominator % p == 0:
                raise SchemaError(f"coefficient {c} is undefined mod {p}")
            cm = (c.numerator * pow(c.denominator, -1, p)) % p
            acc = (acc + t * cm) % p
        return Fp(acc, p)

    def subs(self, bindings: Mapping[str, "LaurentFraction"]) -> "LaurentFraction":
        """Substitute fractions for variables (unbound variables substitute as
        themselves); result in canonical fraction form."""
        env = {}
        for v in self.used_vars():
            if v in bindings:
                b = bindings[v]
                if isinstance(b, LaurentPoly):
                    b = LaurentFraction(b)
                if b.den.is_zero():
                    raise DomainError("binding has zero denominator")
                env[v] = b
            else:
                env[v] = LaurentFraction(LaurentPoly.var(v))
        result = self.eval(env)
        if isinstance(result, Fraction):
            return LaurentFraction(LaurentPoly.const(result))
        if isinstance(result, LaurentPoly):
            return LaurentFraction(result)
        return result

    # -- display

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __repr__(self):
        return f"<{poly_to_str(self)}>"


LaurentPoly.zero = LaurentPoly()
LaurentPoly.one = LaurentPoly.const(1)


def poly_to_str(p: LaurentPoly) -> str:
    """Canonical text form under the catalog grammar (see parse_poly)."""
    if p.is_zero():
        return "0"
    parts = []
    for exps, c in p.sorted_terms():
        factors = []
        for v, e in zip(p.vars, exps):
            if e == 0:
                continue
            factors.append(v if e == 1 else f"{v}^{e}")
        coeff = c
        body = "*".join(factors)
        if not body:
            text = str(abs(coeff))
        elif abs(coeff) == 1:
            text = body
        else:
            text = f"{abs(coeff)}*{body}"
        sign = "-" if coeff < 0 else "+"
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

    Rewrites R^e with e >= order as R^(e mod order) * radicand^(e // order),
    repeating to a fixed point; the result is order-independent.  Negative
    exponents of radical variables are not representable and raise.
    """
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
        rel = rules[hot]
        i = p.vars.index(hot)
        acc = LaurentPoly()
        for exps, c in p.terms.items():
            term = LaurentPoly._make(p.vars, {exps: c})
            e = exps[i]
            if e >= rel.order:
                q, r = divmod(e, rel.order)
                base = exps[:i] + (r,) + exps[i + 1:]
                term = LaurentPoly._make(p.vars, {base: c}) * rel.radicand ** q
            acc = acc + term
        p = acc


# ---------------------------------------------------------------------------
# fractions


def _exact_divide(num: LaurentPoly, den: LaurentPoly):
    """num / den when den divides num, else None: decided exactly.

    If num = q*den, then per variable v the highest and the lowest v-degrees
    add (Newt(fg) = Newt(f) + Newt(g) in one variable), so every term of q
    lies in the box [min_v(num) - min_v(den), max_v(num) - max_v(den)].  Lex
    lead-term division of an exact multiple yields exactly q's terms, so a
    quotient term outside the box proves den does not divide num.  Quotient
    terms fall strictly in lex order inside the finite box: the loop ends."""
    if den.is_zero():
        return None
    if den.is_monomial():
        return num * den.monomial_inverse()
    vars, a, b = num._aligned(den)
    if not a:
        return LaurentPoly._make(vars, {})
    lo = list(map(sub, map(min, zip(*a)), map(min, zip(*b))))
    hi = list(map(sub, map(max, zip(*a)), map(max, zip(*b))))
    lead_den = max(b)
    cd = b[lead_den]
    quo: dict[tuple[int, ...], Rational] = {}
    rem = dict(a)
    while rem:
        lead = max(rem)
        t_exp = tuple(map(sub, lead, lead_den))
        if not all(l <= t <= h for l, t, h in zip(lo, t_exp, hi)):
            return None
        t_c = _quo(rem[lead], cd)
        quo[t_exp] = t_c
        for e, c in b.items():
            key = tuple(map(add, t_exp, e))
            s = rem.pop(key, 0) - t_c * c
            if s:
                rem[key] = s
    return LaurentPoly._make(vars, quo)


class LaurentFraction:
    """Quotient of Laurent polynomials in canonical form.

    Canonicalization: zero numerator forces denominator 1; a monomial
    denominator (a scalar included) is divided into the numerator; otherwise
    common monomial content is moved into the numerator, a denominator that
    divides the numerator is divided out (``_exact_divide`` decides this
    exactly, so a denominator left standing does not divide the numerator,
    though no gcd is taken), and the denominator's leading coefficient is
    scaled to 1.  Equality is decided by cross-multiplication.
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
        if den.is_monomial():       # a scalar denominator included
            self.num, self.den = num * den.monomial_inverse(), LaurentPoly.one
            return
        # strip common monomial content (always legal for Laurent polynomials)
        vars, a, b = num._aligned(den)
        content = tuple(map(min, zip(*a, *b)))
        if any(content):
            a = {tuple(map(sub, e, content)): c for e, c in a.items()}
            b = {tuple(map(sub, e, content)): c for e, c in b.items()}
        num = LaurentPoly._make(vars, a)
        den = LaurentPoly._make(vars, b)
        q = _exact_divide(num, den)
        if q is not None:
            self.num, self.den = q, LaurentPoly.one
            return
        c = b[max(b)]
        if c != 1:
            inv = _quo(1, c)
            num = num * inv
            den = den * inv
        self.num, self.den = num, den

    # -- coercion helpers

    @staticmethod
    def _lift(x):
        if isinstance(x, LaurentFraction):
            return x
        if isinstance(x, LaurentPoly):
            return LaurentFraction(x)
        if isinstance(x, (int, Fraction)):
            return LaurentFraction(LaurentPoly.const(x))
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
        return LaurentFraction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        f = LaurentFraction.__new__(LaurentFraction)
        f.num, f.den = -self.num, self.den
        return f

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
        return LaurentFraction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise DomainError("division by zero fraction")
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
            if self.num.is_zero():
                raise DomainError("zero fraction has no inverse")
            return LaurentFraction(self.den, self.num) ** (-e)
        out = LaurentFraction(LaurentPoly.one)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def inv(self) -> "LaurentFraction":
        return self ** -1

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
        num, den = self.num, self.den
        for rel in tower:
            r = rel.new_var
            lows = []
            for poly in (num, den):
                if r in poly.vars:
                    i = poly.vars.index(r)
                    lows.extend(e[i] for e in poly.terms)
            low = min(lows, default=0)
            if low < 0:
                shift = LaurentPoly.var(r, -low)
                num = num * shift
                den = den * shift
        num = normalize(num, tower)
        den = normalize(den, tower)
        return LaurentFraction(num, den)

    def eval_mod_p(self, point: Mapping[str, object], p: int) -> Fp:
        den = self.den.eval_mod_p(point, p)
        if den.is_zero():
            raise EvaluationError("denominator vanishes at the point")
        return self.num.eval_mod_p(point, p) / den

    def __repr__(self):
        if self.is_poly():
            return f"<{poly_to_str(self.num)}>"
        return f"<({poly_to_str(self.num)}) / ({poly_to_str(self.den)})>"


# ---------------------------------------------------------------------------
# generic ring helpers (duck-typed scalars: int, Fraction, Fp, polys, fractions)


def inv_elem(x):
    if isinstance(x, int):
        if x == 0:
            raise DomainError("inverse of integer 0")
        return Fraction(1, x)
    if isinstance(x, (Fp, LaurentFraction)):
        return x.inv()
    if isinstance(x, LaurentPoly):
        return x.monomial_inverse()
    if isinstance(x, Fraction):
        if x == 0:
            raise DomainError("inverse of rational 0")
        return Fraction(1) / x
    raise SchemaError(f"no inverse for {type(x).__name__}")


def is_zero_elem(x) -> bool:
    if isinstance(x, (Fp, LaurentPoly, LaurentFraction)):
        return x.is_zero()
    if isinstance(x, (int, Fraction)):
        return x == 0
    raise SchemaError(f"no zero test for {type(x).__name__}")


# ---------------------------------------------------------------------------
# expression grammar
#
# Catalog polynomial grammar (parse_poly): variables, integer literals,
# + - * ^ and parentheses.  Witness expression grammar (parse_expr) adds /,
# fractional exponents ^(a/b), and sqrt(...).


class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind, self.text, self.pos = kind, text, pos


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        raise SchemaError(f"unexpected character {ch!r} at position {i}")
    toks.append(_Tok("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str, allow_div: bool, allow_frac_pow: bool):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.allow_div = allow_div
        self.allow_frac_pow = allow_frac_pow

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
        while self.peek().kind in "+-":
            op = self.take().kind
            rhs = self.term()
            node = ("add", node, rhs) if op == "+" else ("sub", node, rhs)
        return node

    def term(self):
        node = self.power()
        while self.peek().kind in "*/":
            op = self.take().kind
            if op == "/" and not self.allow_div:
                raise SchemaError("division is not allowed in this grammar")
            rhs = self.power()
            node = ("mul", node, rhs) if op == "*" else ("div", node, rhs)
        return node

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
                if not self.allow_frac_pow:
                    raise SchemaError("fractional exponents not allowed here")
                self.take()
                b = int(self.take("num").text)
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
            return ("num", Fraction(int(t.text)))
        if t.kind == "ident":
            self.take()
            if t.text == "sqrt" and self.peek().kind == "(":
                if not self.allow_frac_pow:
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


def _frac_pow(base: LaurentFraction, e: Fraction) -> LaurentFraction:
    """base^e for fractional e; base must be a monomial fraction whose
    exponents (and rational coefficient) admit the root exactly."""

    def mono_root(p: LaurentPoly, e: Fraction) -> LaurentPoly:
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
        if c != 1:
            c = _rational_root(c, e)
        return LaurentPoly(p.vars, {tuple(new): c})

    return LaurentFraction(mono_root(base.num, e), mono_root(base.den, e))


def _rational_root(c: Fraction, e: Fraction) -> Fraction:
    """c^e for rational c, exact or SchemaError."""
    if e.denominator == 1:
        return c ** e.numerator if e >= 0 else Fraction(1) / (c ** (-e.numerator))
    k = e.denominator

    def int_root(n: int) -> int:
        if n < 0:
            if k % 2 == 0:
                raise SchemaError(f"even root of negative constant {n}")
            return -int_root(-n)
        if k == 2:
            r = math.isqrt(n)
        else:
            lo, hi = 0, 1 << (n.bit_length() // k + 1)     # hi**k > n
            while lo < hi:                                 # largest r, r**k <= n
                mid = (lo + hi + 1) // 2
                if mid**k <= n:
                    lo = mid
                else:
                    hi = mid - 1
            r = lo
        if r**k == n:
            return r
        raise SchemaError(f"constant {n} has no exact {k}-th root")

    root = Fraction(int_root(c.numerator), int_root(c.denominator))
    return _rational_root(root, Fraction(e.numerator))


def eval_expr(node, env: Mapping[str, LaurentFraction],
              frac_pow=None) -> LaurentFraction:
    """Evaluate a parsed expression tree to a LaurentFraction.

    ``frac_pow(base, exponent)`` handles fractional powers; the default only
    accepts monomial bases (callers with radical towers pass a richer hook).
    """
    if frac_pow is None:
        frac_pow = _frac_pow
    kind = node[0]
    if kind == "num":
        return LaurentFraction(LaurentPoly.const(node[1]))
    if kind == "var":
        name = node[1]
        if name not in env:
            raise SchemaError(f"unregistered variable {name!r}")
        return env[name]
    if kind == "neg":
        return -eval_expr(node[1], env, frac_pow)
    if kind == "add":
        return eval_expr(node[1], env, frac_pow) + eval_expr(node[2], env, frac_pow)
    if kind == "sub":
        return eval_expr(node[1], env, frac_pow) - eval_expr(node[2], env, frac_pow)
    if kind == "mul":
        return eval_expr(node[1], env, frac_pow) * eval_expr(node[2], env, frac_pow)
    if kind == "div":
        return eval_expr(node[1], env, frac_pow) / eval_expr(node[2], env, frac_pow)
    if kind == "pow":
        base = eval_expr(node[1], env, frac_pow)
        e = node[2]
        if e.denominator == 1:
            return base ** e.numerator
        return frac_pow(base, e)
    raise SchemaError(f"bad expression node {kind!r}")


def expr_vars(node) -> set[str]:
    kind = node[0]
    if kind == "var":
        return {node[1]}
    if kind == "num":
        return set()
    if kind in ("neg",):
        return expr_vars(node[1])
    if kind == "pow":
        return expr_vars(node[1])
    return expr_vars(node[1]) | expr_vars(node[2])


def parse_expr(text: str):
    """Parse a witness-template expression (division, fractional powers, sqrt)."""
    return _Parser(text, allow_div=True, allow_frac_pow=True).parse()


def parse_poly(text: str, allowed_vars: Iterable[str] | None = None) -> LaurentPoly:
    """Parse a polynomial under the catalog grammar: idents, integers,
    + - * ^ with integer exponents, parentheses."""
    node = _Parser(text, allow_div=False, allow_frac_pow=False).parse()
    if allowed_vars is not None:
        allowed = set(allowed_vars)
        bad = expr_vars(node) - allowed
        if bad:
            raise SchemaError(f"variables {sorted(bad)} not in the allowed set")
    env = {v: LaurentFraction(LaurentPoly.var(v)) for v in expr_vars(node)}
    out = eval_expr(node, env)
    if not out.is_poly():
        raise SchemaError(f"{text!r} is not polynomial")
    return out.num
