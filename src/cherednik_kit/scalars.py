"""Exact arithmetic over the parameter ring.

The parameters are (c0, d_0, ..., d_{r-1}); d-indices are always understood
mod r.  Everything downstream (eigenvalues, norms, hyperplanes) is expressed
with two types:

- AffineForm: an affine-linear expression  k + a*c0 + sum_l b_l*d_l  with
  rational coefficients.
- FactoredScalar: coefficient * product(AffineForm ** multiplicity), the
  factored form the closed formulas produce, canonical at construction:
  factors are primitive forms with net signed multiplicities, constants live
  in the coefficient (zero loci and cancellations stay exact and cheap;
  nothing is ever expanded).

All numbers are fractions.Fraction; no floating point anywhere.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence
import random

Rational = Fraction


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

    __slots__ = ("r", "c0", "d")

    def __init__(self, r: int, c0, d: Sequence):
        if r < 1:
            raise ValueError("r must be >= 1")
        d = tuple(Fraction(x) for x in d)
        if len(d) != r:
            raise ValueError(f"expected {r} d-values, got {len(d)}")
        self.r = r
        self.c0 = Fraction(c0)
        self.d = d

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
    """k + a*c0 + sum_l b_l * d_l with rational coefficients, d-index mod r."""

    __slots__ = ("r", "const", "c0", "d", "_hash")

    def __init__(self, r: int, const=0, c0=0, d: Mapping[int, object] | Sequence | None = None):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.r = r
        self.const = Fraction(const)
        self.c0 = Fraction(c0)
        coeffs = [Fraction(0)] * r
        if d is not None:
            if isinstance(d, Mapping):
                for l, v in d.items():
                    coeffs[l % r] += Fraction(v)
            else:
                if len(d) != r:
                    raise ValueError("d coefficient sequence must have length r")
                coeffs = [Fraction(v) for v in d]
        self.d = tuple(coeffs)
        self._hash = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def constant(r: int, value) -> "AffineForm":
        return AffineForm(r, const=value)

    # -- ring-ish operations ---------------------------------------------------

    def _coeffs(self) -> tuple:
        return (self.const, self.c0) + self.d

    def __add__(self, other):
        if isinstance(other, AffineForm):
            if other.r != self.r:
                raise ValueError("mixed r")
            return AffineForm(
                self.r,
                self.const + other.const,
                self.c0 + other.c0,
                [a + b for a, b in zip(self.d, other.d)],
            )
        return AffineForm(self.r, self.const + Fraction(other), self.c0, self.d)

    __radd__ = __add__

    def __neg__(self):
        return AffineForm(self.r, -self.const, -self.c0, [-a for a in self.d])

    def __sub__(self, other):
        return self + (-other if isinstance(other, AffineForm) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + Fraction(other)

    def scale(self, q) -> "AffineForm":
        q = Fraction(q)
        return AffineForm(self.r, self.const * q, self.c0 * q, [a * q for a in self.d])

    def __mul__(self, other):
        return self.scale(other)

    __rmul__ = __mul__

    def is_constant(self) -> bool:
        return self.c0 == 0 and all(a == 0 for a in self.d)

    def is_zero(self) -> bool:
        return self.const == 0 and self.is_constant()

    def evaluate(self, p: ParameterPoint) -> Fraction:
        if p.r != self.r:
            raise ValueError("point has wrong r")
        total = self.const + self.c0 * p.c0
        for l, a in enumerate(self.d):
            if a:
                total += a * p.d[l]
        return total

    def primitive(self) -> tuple["AffineForm", Fraction]:
        """Return (prim, scale) with self = scale * prim, prim having coprime
        integer coefficients and positive first nonzero coefficient; a form
        that has them already is its own prim (forms are never mutated)."""
        coeffs = self._coeffs()
        nonzero = [c for c in coeffs if c]
        if not nonzero:
            return self, Fraction(1)
        denom = lcm(*(c.denominator for c in nonzero))
        ints = [c.numerator * (denom // c.denominator) for c in coeffs]
        numer = gcd(*ints) if nonzero[0] > 0 else -gcd(*ints)
        if numer == denom == 1:
            return self, Fraction(1)
        const, c0, *d = (x // numer for x in ints)
        return AffineForm(self.r, const, c0, d), Fraction(numer, denom)

    def key(self) -> tuple:
        """Deterministic sort/equality key."""
        return (self.r,) + self._coeffs()

    def __eq__(self, other):
        return isinstance(other, AffineForm) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __str__(self):
        return render_affine(self)

    __repr__ = __str__


def render_affine(f: AffineForm) -> str:
    """Canonical text form: `k + a*c0 + b*d0 + ...` with rational literals."""
    parts: list[str] = []

    def emit(coef: Fraction, var: str | None):
        if coef == 0:
            return
        sign = "-" if coef < 0 else "+"
        mag = -coef if coef < 0 else coef
        if var is None:
            body = str(mag)
        elif mag == 1:
            body = var
        else:
            body = f"{mag}*{var}"
        parts.append((sign, body))

    emit(f.const, None)
    emit(f.c0, "c0")
    for l, a in enumerate(f.d):
        emit(a, f"d{l}")
    if not parts:
        return "0"
    sign, body = parts[0]
    out = body if sign == "+" else "-" + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


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
        # equal raw forms repeat often in the closed formulas: count them, so
        # that each distinct one is made primitive once
        counts = Counter(num)
        counts.subtract(den)
        self._fold(r, coefficient, counts.items())

    @staticmethod
    def from_counts(r: int, coefficient, counts: Iterable[tuple[AffineForm, int]]) -> "FactoredScalar":
        """coefficient * prod(f ** m) over (form, signed multiplicity) pairs;
        a form may occur in several pairs."""
        return object.__new__(FactoredScalar)._fold(r, coefficient, counts)

    def _fold(self, r: int, coefficient, counts: Iterable[tuple[AffineForm, int]]) -> "FactoredScalar":
        """Store the product, each form made primitive and its scale folded
        into the coefficient."""
        coef = Fraction(coefficient)
        factors: dict[AffineForm, int] = {}
        for f, m in counts:
            if f.r != r:
                raise ValueError("factor has wrong r")
            if f.is_zero():
                raise ValueError("identically zero factor")
            prim, scale = f.primitive()
            if scale != 1:
                coef *= scale ** m
            if not prim.is_constant():
                factors[prim] = factors.get(prim, 0) + m
        return self._set(r, coef, factors)

    def _set(self, r: int, coefficient: Fraction, factors: dict) -> "FactoredScalar":
        """Store the data, dropping zero multiplicities and a zero scalar's factors."""
        self.r, self.coefficient = r, coefficient
        self.factors = {f: m for f, m in factors.items() if m} if coefficient else {}
        return self

    @staticmethod
    def one(r: int) -> "FactoredScalar":
        return FactoredScalar(r)

    @staticmethod
    def from_rational(r: int, q) -> "FactoredScalar":
        return FactoredScalar(r, q)

    @staticmethod
    def from_affine(f: AffineForm) -> "FactoredScalar":
        return FactoredScalar(f.r, 1, (f,))

    def _expand(self, sign: int) -> tuple:
        """Factors with sign * multiplicity > 0, sorted by `AffineForm.key`,
        each repeated that many times."""
        return tuple(f for f, m in sorted(self.factors.items(), key=lambda fm: fm[0].key())
                     for _ in range(sign * m))

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
        return object.__new__(FactoredScalar)._set(self.r, coefficient, factors)

    __rmul__ = __mul__

    def reciprocal(self) -> "FactoredScalar":
        if self.coefficient == 0:
            raise ZeroDivisionError("reciprocal of zero scalar")
        factors = {f: -m for f, m in self.factors.items()}
        return object.__new__(FactoredScalar)._set(self.r, 1 / self.coefficient, factors)

    def __truediv__(self, other):
        return self * self._coerce(other).reciprocal()

    def evaluate(self, p: ParameterPoint) -> Fraction:
        """Exact value at p; PoleError where a net denominator factor vanishes."""
        if p.r != self.r:
            raise ValueError("point has wrong r")
        value = self.coefficient
        for f, m in self.factors.items():
            v = f.evaluate(p)
            if v == 0 and m < 0:
                raise PoleError(f)
            value *= v ** m
        return value

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
        out = " * ".join([str(self.coefficient)] + [f"({f})" for f in self.num])
        den = self.den
        if den:
            out += " / " + " * ".join(f"({f})" for f in den)
        return out

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
