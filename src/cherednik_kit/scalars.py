"""Exact arithmetic over the parameter ring.

The parameters are (c0, d_0, ..., d_{r-1}); d-indices are always understood
mod r.  Everything downstream (eigenvalues, norms, hyperplanes) is expressed
with two types:

- AffineForm: an affine-linear expression  k + a*c0 + sum_l b_l*d_l  with
  rational coefficients, stored as integer numerators over one positive
  denominator and reduced by their gcd, so equal forms have equal data.
- FactoredScalar: coefficient * product(AffineForm ** multiplicity), the
  factored form the closed formulas produce, canonical at construction:
  factors are primitive forms with net signed multiplicities, constants live
  in the coefficient (zero loci and cancellations stay exact and cheap;
  nothing is ever expanded).

Coefficients and values are fractions.Fraction; no floating point anywhere.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence
import random

_ONE = Fraction(1)


class PoleError(ZeroDivisionError):
    """Raised when a denominator factor vanishes at an evaluation point."""

    def __init__(self, factor: "AffineForm"):
        self.factor = factor
        super().__init__(f"denominator factor vanishes: {factor}")


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None


class ParameterPoint:
    """A rational specialization (c0, d_0, ..., d_{r-1})."""

    __slots__ = ("r", "c0", "d", "_integer_form")

    def __init__(self, r: int, c0, d: Sequence):
        if r < 1:
            raise ValueError("r must be >= 1")
        # a Fraction is kept as it is: Fraction(x) would run the numbers ABC checks
        d = tuple(x if type(x) is Fraction else Fraction(x) for x in d)
        if len(d) != r:
            raise ValueError(f"expected {r} d-values, got {len(d)}")
        self.r = r
        self.c0 = c0 if type(c0) is Fraction else Fraction(c0)
        self.d = d
        self._integer_form = None

    @property
    def integer_form(self) -> tuple[int, ...]:
        """(L, L*c0, L*d_0, ...), L the least common denominator of c0 and d:
        built on first use, as most points drawn are never evaluated at."""
        if self._integer_form is None:
            params = (self.c0, *self.d)
            L = lcm(*(x.denominator for x in params))
            self._integer_form = (L, *(x.numerator * (L // x.denominator) for x in params))
        return self._integer_form

    def d_at(self, l: int) -> Fraction:
        return self.d[l % self.r]

    def __repr__(self):
        return f"ParameterPoint(r={self.r}, c0={self.c0}, d={self.d})"

    def __eq__(self, other):
        return (
            isinstance(other, ParameterPoint)
            and (self.r, self.c0, self.d) == (other.r, other.c0, other.d)
        )

    def __hash__(self):
        return hash((self.r, self.c0, self.d))


def random_point(r: int, rng: random.Random, bound: int = 10**6) -> ParameterPoint:
    """Random rational point with numerators/denominators in [1, bound]."""
    def q():
        return Fraction(rng.randint(1, bound), rng.randint(1, bound))

    return ParameterPoint(r, q(), [q() for _ in range(r)])


class AffineForm:
    """k + a*c0 + sum_l b_l * d_l with rational coefficients, d-index mod r,
    kept as `numerators` (k, a, b_0, ..., b_{r-1}) over a positive
    `denominator`, reduced by their gcd; `const`, `c0`, `d` are Fraction views.
    Its hash and its text are kept once computed."""

    __slots__ = ("r", "numerators", "denominator", "_hash", "_text")

    def __init__(self, r: int, const=0, c0=0, d: Mapping[int, object] | Sequence | None = None):
        if r < 1:
            raise ValueError("r must be >= 1")
        coeffs = [0] * r
        if d is not None:
            if isinstance(d, Mapping):
                for l, v in d.items():
                    coeffs[l % r] += v if type(v) is int else Fraction(v)
            else:
                if len(d) != r:
                    raise ValueError("d coefficient sequence must have length r")
                coeffs = d
        values = (const, c0, *coeffs)
        if all(type(v) is int for v in values):
            self._set(r, values, 1)
        else:
            values = [Fraction(v) for v in values]
            den = lcm(*(v.denominator for v in values))
            self._set(r, [v.numerator * (den // v.denominator) for v in values], den)

    def _set(self, r: int, numerators: Sequence[int], denominator: int) -> "AffineForm":
        g = gcd(denominator, *numerators)
        if g != 1:
            numerators, denominator = [x // g for x in numerators], denominator // g
        self.r, self.numerators, self.denominator = r, tuple(numerators), denominator
        self._hash = self._text = None
        return self

    @staticmethod
    def from_numerators(r: int, numerators: Iterable[int], denominator: int = 1) -> "AffineForm":
        """The form with integer numerators (k, a, b_0, ..., b_{r-1}) over a
        positive denominator."""
        return object.__new__(AffineForm)._set(r, list(numerators), denominator)

    const = property(lambda self: Fraction(self.numerators[0], self.denominator))
    c0 = property(lambda self: Fraction(self.numerators[1], self.denominator))
    d = property(lambda self: tuple(Fraction(b, self.denominator) for b in self.numerators[2:]))

    # -- ring-ish operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, AffineForm):
            other = AffineForm(self.r, other)
        elif other.r != self.r:
            raise ValueError("mixed r")
        den = lcm(self.denominator, other.denominator)
        u, v = den // self.denominator, den // other.denominator
        return AffineForm.from_numerators(
            self.r, (x * u + y * v for x, y in zip(self.numerators, other.numerators)), den)

    __radd__ = __add__

    def __neg__(self):
        return AffineForm.from_numerators(self.r, (-x for x in self.numerators), self.denominator)

    def __sub__(self, other):
        return self + (-other if isinstance(other, AffineForm) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + Fraction(other)

    def scale(self, q) -> "AffineForm":
        q = Fraction(q)
        return AffineForm.from_numerators(self.r, (x * q.numerator for x in self.numerators),
                                          self.denominator * q.denominator)

    def __mul__(self, other):
        return self.scale(other)

    __rmul__ = __mul__

    def is_constant(self) -> bool:
        return not any(self.numerators[1:])

    def is_zero(self) -> bool:
        return not any(self.numerators)

    def evaluate(self, p: ParameterPoint) -> Fraction:
        """One integer dot product with p.integer_form, one Fraction at the end."""
        if p.r != self.r:
            raise ValueError("point has wrong r")
        point = p.integer_form
        return Fraction(sum(map(mul, self.numerators, point)), self.denominator * point[0])

    def primitive(self) -> tuple["AffineForm", Fraction]:
        """Return (prim, scale) with self = scale * prim, prim having coprime
        integer coefficients and positive first nonzero coefficient; a form
        that has them already is its own prim (forms are never mutated)."""
        nums, den = self.numerators, self.denominator
        g = gcd(*nums)
        if g and next(x for x in nums if x) < 0:
            g = -g
        if g in (0, 1) and den == 1:
            return self, _ONE
        return AffineForm.from_numerators(self.r, (x // g for x in nums)), Fraction(g, den)

    def key(self) -> tuple:
        """Deterministic sort/equality key: r, the numerators, the denominator."""
        return (self.r,) + self.numerators + (self.denominator,)

    def __eq__(self, other):
        return (isinstance(other, AffineForm) and self.numerators == other.numerators
                and self.denominator == other.denominator and self.r == other.r)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.r, self.numerators, self.denominator))
        return self._hash

    def __str__(self):
        if self._text is None:
            self._text = render_affine(self)
        return self._text

    __repr__ = __str__


@cache
def _variable_names(r: int) -> tuple:
    """(None, "c0", "d0", ..., "d{r-1}"), the names of a form's numerators."""
    return (None, "c0", *(f"d{l}" for l in range(r)))


def render_affine(f: AffineForm) -> str:
    """Canonical text form: `k + a*c0 + b*d0 + ...` with rational literals."""
    den, out = f.denominator, ""
    for x, var in zip(f.numerators, _variable_names(f.r)):
        if not x:
            continue
        a = abs(x)
        if den == 1:
            mag = str(a)
        else:
            g = gcd(x, den)
            mag = f"{a // g}" if g == den else f"{a // g}/{den // g}"
        body = mag if var is None else var if a == den else f"{mag}*{var}"
        out += (" - " if x < 0 else " + ") + body if out else ("-" if x < 0 else "") + body
    return out or "0"


def _decimal(x: int) -> str:
    """str(x), also past the interpreter's int-to-str digit limit (640 at
    the least): over 2,000 bits, x is split at a power of ten in halves."""
    if x.bit_length() <= 2000:
        return str(x)
    k = x.bit_length() * 3 // 20            # about half its digits
    high, low = divmod(abs(x), 10 ** k)
    return ("-" if x < 0 else "") + _decimal(high) + _decimal(low).zfill(k)


class FactoredScalar:
    """coefficient * prod(f ** m for f, m in factors.items()), kept canonical.

    `factors` maps primitive AffineForms (as `AffineForm.primitive` returns
    them) to nonzero signed multiplicities.  Constant factors and primitive
    scales fold into the coefficient on entry, so equal rational functions of
    this shape have equal data.  A zero scalar has coefficient 0 and no
    factors; identically-zero factors are rejected.  Instances are never
    mutated after construction.
    """

    __slots__ = ("r", "coefficient", "factors")

    def __init__(self, r: int, coefficient=1, num: Iterable[AffineForm] = (),
                 den: Iterable[AffineForm] = ()):
        # equal raw forms repeat often: count them, so that each distinct one
        # is made primitive once, and fold its scale into the coefficient
        counts = Counter(num)
        counts.subtract(den)
        coef = Fraction(coefficient)
        factors: dict[AffineForm, int] = {}
        for f, m in counts.items():
            if f.r != r:
                raise ValueError("factor has wrong r")
            if f.is_zero():
                raise ValueError("identically zero factor")
            prim, scale = f.primitive()
            if prim is not f:       # else scale is 1
                coef *= scale ** m
            if not prim.is_constant():
                factors[prim] = factors.get(prim, 0) + m
        self._set(r, coef, factors)

    def _set(self, r: int, coefficient: Fraction, factors: dict) -> "FactoredScalar":
        """Store the data, dropping zero multiplicities and a zero scalar's
        factors.  The dict is kept as given unless a multiplicity cancelled to
        zero, so each form is hashed once."""
        self.r, self.coefficient = r, coefficient
        if 0 in factors.values():
            factors = {f: m for f, m in factors.items() if m}
        self.factors = factors if coefficient else {}
        return self

    @staticmethod
    def _canonical(r: int, coefficient: Fraction, factors: dict) -> "FactoredScalar":
        """From an exact coefficient and primitive, nonconstant forms -> m; the
        dict is stored, not copied."""
        return object.__new__(FactoredScalar)._set(r, coefficient, factors)

    def _sorted(self) -> list:
        """(factor, multiplicity) pairs in `AffineForm.key` order, which for
        primitive forms of one r is the order of their numerators."""
        return sorted(self.factors.items(), key=lambda fm: fm[0].numerators)

    def _expand(self, sign: int) -> tuple:
        """Factors with sign * multiplicity > 0, sorted, each repeated that
        many times."""
        return tuple(f for f, m in self._sorted() for _ in range(sign * m))

    num = property(lambda self: self._expand(1), doc="Numerator factors (a tuple view).")
    den = property(lambda self: self._expand(-1), doc="Denominator factors (a tuple view).")

    def is_zero(self) -> bool:
        return self.coefficient == 0

    def _coerce(self, other) -> "FactoredScalar":
        if isinstance(other, FactoredScalar):
            if other.r != self.r:
                raise ValueError("mixed r")
            return other
        if isinstance(other, AffineForm):
            return FactoredScalar(self.r, 1, (other,))
        return FactoredScalar(self.r, other)

    def __mul__(self, other):
        other = self._coerce(other)
        factors = dict(self.factors)
        for f, m in other.factors.items():
            factors[f] = factors.get(f, 0) + m
        coefficient = self.coefficient * other.coefficient
        return FactoredScalar._canonical(self.r, coefficient, factors)

    __rmul__ = __mul__

    def reciprocal(self) -> "FactoredScalar":
        if self.coefficient == 0:
            raise ZeroDivisionError("reciprocal of zero scalar")
        factors = {f: -m for f, m in self.factors.items()}
        return FactoredScalar._canonical(self.r, 1 / self.coefficient, factors)

    def __truediv__(self, other):
        return self * self._coerce(other).reciprocal()

    def evaluate(self, p: ParameterPoint) -> Fraction:
        """Exact value at p, as integer products made one Fraction at the
        end; PoleError where a net denominator factor vanishes."""
        if p.r != self.r:
            raise ValueError("point has wrong r")
        point, num, den = p.integer_form, self.coefficient.numerator, self.coefficient.denominator
        for f, m in self.factors.items():
            v, w = sum(map(mul, f.numerators, point)), f.denominator * point[0]
            if m < 0 and not v:
                raise PoleError(f)
            num, den = (num * v ** m, den * w ** m) if m > 0 else (num * w ** -m, den * v ** -m)
        return Fraction(num, den)

    def normalize(self) -> "FactoredScalar":
        """The identity: a FactoredScalar is canonical from construction."""
        return self

    def __eq__(self, other):
        """Equal coefficients and factor multiplicities."""
        if not isinstance(other, FactoredScalar):
            return NotImplemented
        return self.coefficient == other.coefficient and self.factors == other.factors

    def __hash__(self):
        return hash((self.coefficient, frozenset(self.factors.items())))

    def __str__(self):
        q = self.coefficient
        head = _decimal(q.numerator) + ("" if q.denominator == 1 else f"/{_decimal(q.denominator)}")
        num, den = [head], []
        for f, m in self._sorted():
            (num if m > 0 else den).extend([f"({f})"] * abs(m))
        out = " * ".join(num)
        return out + " / " + " * ".join(den) if den else out

    __repr__ = __str__


def pochhammer(x: AffineForm, n: int) -> FactoredScalar:
    """Rising factorial x(x+1)...(x+n-1); the empty product (n=0) is 1."""
    if n < 0:
        raise ValueError("pochhammer length must be >= 0")
    return FactoredScalar(x.r, 1, tuple(x + k for k in range(n)))


def proportional(a: FactoredScalar, b: FactoredScalar) -> Optional[Fraction]:
    """Return the constant q with a = q*b as rational functions, else None.

    Decided from canonical data alone: distinct primitive affine forms are
    non-associate irreducibles, so the quotient a/b is constant exactly when
    it has no factors left, and then its coefficient is q.
    """
    if b.is_zero():
        return None
    if a.is_zero():
        return Fraction(0)
    q = a / b
    return None if q.factors else q.coefficient


def convert_parameters(p: ParameterPoint, convention: str) -> dict:
    """Translate (c0, d) into other parameter conventions.

    gordon:   H_j = (d_{j-1} - d_j)/r, h = -c0.
    rouquier: h_j = -d_j/r, h = -c0.
    hecke:    q = e^{2*pi*i*(-c0)}, Q_j = e^{2*pi*i*(-d_j/r)}; only the exact
              rational phase exponents are reported, never floating complex.
    """
    r = p.r
    if convention == "gordon":
        return {
            "h": -p.c0,
            "H": tuple((p.d_at(j - 1) - p.d_at(j)) / r for j in range(r)),
        }
    if convention == "rouquier":
        return {
            "h": -p.c0,
            "h_j": tuple(-p.d[j] / r for j in range(r)),
        }
    if convention == "hecke":
        return {
            "q_exponent": -p.c0,
            "Q_exponents": tuple(Fraction(-p.d[j], r) for j in range(r)),
        }
    raise ValueError(f"unknown convention: {convention!r}")
