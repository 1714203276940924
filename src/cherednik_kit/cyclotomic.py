"""Exact arithmetic in the cyclotomic field Q(zeta_r).

An element is a tuple of integer numerators, one per power of zeta below
the degree of the r-th cyclotomic polynomial Phi_r, over one positive
integer denominator.  It is canonical when built (the denominator and the
numerators have gcd 1, and zero is all zeros over 1), so equality and
hashing compare tuples.  Phi_r is monic over Z, so a product reduces modulo
Phi_r in the integers, with a table of the powers of zeta; a sum or a
product costs one gcd.  Conjugation is the Galois automorphism
zeta -> zeta^(-1), and the inverse is the product of the other Galois
conjugates over the rational norm.  For r in {1, 2} the field degenerates
to Q: one numerator, and conjugation is the identity.

The standard-module oracle computes over Q, and validate_irrep reads the
relations with a zeta on integer residues: only the oracle's reference
elimination (_kernel), which the tests call, and the tests build CycNumbers.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


@lru_cache(maxsize=None)
def cyclotomic_polynomial(r: int) -> tuple[int, ...]:
    """Coefficients (low degree first, monic) of the r-th cyclotomic
    polynomial, computed by dividing x^r - 1 by the lower cyclotomics."""
    if r < 1:
        raise ValueError("r must be >= 1")
    poly = [-1] + [0] * (r - 1) + [1]  # x^r - 1
    for d in range(1, r):
        if r % d == 0:
            poly = _monic_quotient(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _monic_quotient(a: list[int], b: tuple[int, ...]) -> list[int]:
    """a / b over Z for a monic b that divides a."""
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for s in range(len(q) - 1, -1, -1):
        q[s] = lead = a[s + len(b) - 1]
        for i, m in enumerate(b):
            a[s + i] -= lead * m
    if any(a):
        raise ArithmeticError("non-exact polynomial division")
    return q


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
        # reduction table: zeta^k as integer numerators, 0 <= k < 2*degree + r
        self._powers: list[tuple[int, ...]] = []
        vec = [1] + [0] * (self.degree - 1)
        for _ in range(2 * self.degree + r):
            self._powers.append(tuple(vec))
            vec = [0] + vec  # multiply by zeta
            top = vec.pop()  # coefficient of zeta^degree
            if top:
                for i in range(self.degree):
                    vec[i] -= top * modulus[i]
        self._units = [k for k in range(2, r) if gcd(k, r) == 1]   # Galois group minus 1
        self.zero = CycNumber(self, (0,) * self.degree, 1)
        self.one = CycNumber(self, self._powers[0], 1)

    def zeta_power(self, k: int) -> "CycNumber":
        return CycNumber(self, self._powers[k % self.r], 1)

    def from_rational(self, q) -> "CycNumber":
        q = q if type(q) is int or type(q) is Fraction else Fraction(q)
        return CycNumber(self, (q.numerator,) + self._powers[0][1:], q.denominator)


def _canonical(field: CyclotomicField, num: list[int], den: int) -> "CycNumber":
    """num/den, for den > 0, divided by the gcd of den and every numerator."""
    g = gcd(den, *num)
    return CycNumber(field, tuple(a // g for a in num), den // g)


class CycNumber:
    __slots__ = ("field", "num", "den")

    def __init__(self, field: CyclotomicField, num: tuple[int, ...], den: int):
        self.field, self.num, self.den = field, num, den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficient of each power of zeta."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def __add__(self, other):
        other = self._coerce(other)
        d1, d2 = self.den, other.den
        return _canonical(self.field, [a * d2 + b * d1 for a, b in zip(self.num, other.num)], d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def _coerce(self, other) -> "CycNumber":
        if isinstance(other, CycNumber):
            if other.field is not self.field:
                raise ValueError("mixed cyclotomic fields")
            return other
        return self.field.from_rational(other)

    def __mul__(self, other):
        other, f = self._coerce(other), self.field
        prod = [0] * (2 * f.degree - 1)
        for i, x in enumerate(self.num):
            for j, y in enumerate(other.num):
                prod[i + j] += x * y
        out = prod[:f.degree]
        for k in range(f.degree, len(prod)):
            for i, p in enumerate(f._powers[k]):
                out[i] += prod[k] * p
        return _canonical(f, out, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """1/x: the product of the other Galois conjugates of x over the norm
        N(x), the product of all of them, which is rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        rest = self.field.one
        for k in self.field._units:
            rest = rest * self._galois(k)
        norm = self * rest
        return rest * Fraction(norm.den, norm.num[0])

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def conjugate(self) -> "CycNumber":
        """zeta -> zeta^{-1}."""
        return self if self.field.degree == 1 else self._galois(-1)

    def _galois(self, k: int) -> "CycNumber":
        """zeta -> zeta^k for k prime to r.  It maps Z[zeta] onto itself, so the
        numerators keep their gcd and the result needs no reduction."""
        f = self.field
        out = [0] * f.degree
        for j, a in enumerate(self.num):
            if a:
                for i, p in enumerate(f._powers[j * k % f.r]):
                    out[i] += a * p
        return CycNumber(f, tuple(out), self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self.coeffs}")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if isinstance(other, CycNumber):
            return self.field is other.field and self.den == other.den and self.num == other.num
        try:
            return self == self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash((self.field.r, self.num, self.den))

    def __repr__(self):
        return f"Cyc{self.field.r}{self.coeffs}"
