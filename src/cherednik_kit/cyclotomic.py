"""Exact arithmetic in the cyclotomic field Q(zeta_r).

Elements are dense coefficient vectors over Fraction modulo the r-th
cyclotomic polynomial, so equality tests are exact.  Conjugation is
zeta -> zeta^(-1).  A product with a rational factor scales the other
factor's coefficients, without the polynomial product and reduction.  For
r in {1, 2} the field degenerates to Q: the vector has one entry, every
product is such a product, and conjugation is the identity.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence


@lru_cache(maxsize=None)
def cyclotomic_polynomial(r: int) -> tuple[Fraction, ...]:
    """Coefficients (low degree first, monic) of the r-th cyclotomic
    polynomial, computed by dividing x^r - 1 by the lower cyclotomics."""
    if r < 1:
        raise ValueError("r must be >= 1")
    poly = [Fraction(-1)] + [Fraction(0)] * (r - 1) + [Fraction(1)]  # x^r - 1
    for d in range(1, r):
        if r % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            if _deg(rem) >= 0:
                raise ArithmeticError("non-exact polynomial division")
    return tuple(poly)


class CyclotomicField:
    """The field Q(zeta_r), handing out CycNumber values."""

    _instances: dict[int, "CyclotomicField"] = {}

    def __new__(cls, r: int):
        if r not in cls._instances:
            inst = super().__new__(cls)
            inst._init(r)
            cls._instances[r] = inst
        return cls._instances[r]

    def _init(self, r: int):
        self.r = r
        modulus = cyclotomic_polynomial(r)
        self.degree = len(modulus) - 1
        # reduction table: zeta^k as a vector for 0 <= k < 2*degree
        self._powers: list[tuple[Fraction, ...]] = []
        vec = [Fraction(0)] * self.degree
        vec[0] = Fraction(1)
        for _ in range(2 * self.degree + r):
            self._powers.append(tuple(vec))
            vec = [Fraction(0)] + vec  # multiply by zeta
            top = vec.pop()            # coefficient of zeta^degree
            if top:
                for i in range(self.degree):
                    vec[i] -= top * modulus[i]
        self.zero = CycNumber(self, (Fraction(0),) * self.degree)
        self.one = CycNumber(self, self._powers[0])
        self.modulus = modulus

    def zeta_power(self, k: int) -> "CycNumber":
        return CycNumber(self, self._powers[k % self.r])

    def from_rational(self, q) -> "CycNumber":
        q = q if type(q) is Fraction else Fraction(q)
        return CycNumber(self, (q,) + self._powers[0][1:])

    def _reduce(self, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.degree
        for k, c in enumerate(coeffs):
            if c:
                pk = self._powers[k]
                for i in range(self.degree):
                    out[i] += c * pk[i]
        return tuple(out)


class CycNumber:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        other = self._coerce(other)
        if self.field.degree == 1:
            return CycNumber(self.field, (self.coeffs[0] + other.coeffs[0],))
        return CycNumber(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        if self.field.degree == 1:
            return CycNumber(self.field, (-self.coeffs[0],))
        return CycNumber(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if self.field.degree == 1:
            return CycNumber(self.field, (self.coeffs[0] - other.coeffs[0],))
        return CycNumber(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def _coerce(self, other) -> "CycNumber":
        if isinstance(other, CycNumber):
            if other.field is not self.field:
                raise ValueError("mixed cyclotomic fields")
            return other
        return self.field.from_rational(other)

    def __mul__(self, other):
        if not isinstance(other, CycNumber):
            return self._scaled(Fraction(other))
        if other.field is not self.field:
            raise ValueError("mixed cyclotomic fields")
        if self.field.degree == 1:
            return CycNumber(self.field, (self.coeffs[0] * other.coeffs[0],))
        if not any(other.coeffs[1:]):
            return self._scaled(other.coeffs[0])
        if not any(self.coeffs[1:]):
            return other._scaled(self.coeffs[0])
        return CycNumber(self.field, self.field._reduce(_poly_mul(self.coeffs, other.coeffs)))

    def _scaled(self, q: Fraction) -> "CycNumber":
        """q * self for a rational q, skipping zero coefficients."""
        return CycNumber(self.field, tuple(a * q if a else a for a in self.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Inverse via the extended Euclidean algorithm mod the cyclotomic
        polynomial."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.field.degree == 1:
            return CycNumber(self.field, (1 / self.coeffs[0],))
        mod = list(self.field.modulus)
        a = list(self.coeffs)
        # extended euclid over Q[x]: s*a + t*mod = gcd (a unit)
        r0, r1 = mod, _trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _deg(r1) > 0:
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        unit = r1[0]
        inv = [c / unit for c in s1]
        return CycNumber(self.field, self.field._reduce(inv))

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def conjugate(self) -> "CycNumber":
        """zeta -> zeta^{-1}."""
        f = self.field
        if f.degree == 1:
            return self
        vec = [Fraction(0)] * f.r
        for k, c in enumerate(self.coeffs):
            vec[-k % f.r] = c
        return CycNumber(f, f._reduce(vec))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self.coeffs}")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, CycNumber):
            return self.field is other.field and self.coeffs == other.coeffs
        try:
            return self == self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash((self.field.r, self.coeffs))

    def __repr__(self):
        return f"Cyc{self.field.r}{self.coeffs}"


def _deg(p: Sequence[Fraction]) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i] != 0:
            return i
    return -1


def _trim(p: Sequence[Fraction]) -> list[Fraction]:
    d = _deg(p)
    return list(p[: d + 1]) if d >= 0 else [Fraction(0)]


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _poly_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _trim(out)


def _poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = _trim(a)
    b = _trim(b)
    if _deg(b) < 0:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    rem = list(a)
    while _deg(rem) >= _deg(b):
        shift = _deg(rem) - _deg(b)
        coef = rem[_deg(rem)] / b[_deg(b)]
        q[shift] += coef
        for i, c in enumerate(b):
            rem[i + shift] -= coef * c
    return _trim(q), _trim(rem)
