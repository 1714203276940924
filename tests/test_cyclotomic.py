import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cherednik_kit.cyclotomic import CyclotomicField, cyclotomic_polynomial


def test_polynomials():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(3) == (Fraction(1), Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(6) == (Fraction(1), Fraction(-1), Fraction(1))
    # pinned coefficients, low degree first: Phi_8 = x^4 + 1,
    # Phi_9 = x^6 + x^3 + 1, Phi_12 = x^4 - x^2 + 1
    assert cyclotomic_polynomial(8) == tuple(map(Fraction, (1, 0, 0, 0, 1)))
    assert cyclotomic_polynomial(9) == tuple(map(Fraction, (1, 0, 0, 1, 0, 0, 1)))
    assert cyclotomic_polynomial(12) == tuple(map(Fraction, (1, 0, -1, 0, 1)))


def test_degenerate_fields():
    f1 = CyclotomicField(1)
    assert f1.zeta_power(1) == f1.one
    f2 = CyclotomicField(2)
    assert f2.zeta_power(1) == -f2.one


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_root_of_unity(r):
    f = CyclotomicField(r)
    z = f.zeta_power(1)
    power = f.one
    for k in range(1, r + 1):
        power = power * z
        assert (power == f.one) == (k == r)  # zeta has order exactly r
    assert z.conjugate() * z == f.one
    total = f.zero
    for k in range(r):
        total = total + f.zeta_power(k)
    # sum of all r-th roots of unity vanishes for r > 1
    assert total == (f.one if r == 1 else f.zero)


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_field_inverse(r):
    f = CyclotomicField(r)
    x = f.zeta_power(1) * Fraction(3, 2) + f.from_rational(Fraction(1, 5)) - f.zeta_power(2)
    if x.is_zero():
        pytest.skip("degenerate sample")
    assert x * x.inverse() == f.one
    assert (f.one / x) * x == f.one


def test_conjugation():
    f = CyclotomicField(5)
    x = f.zeta_power(2) * 7 + f.from_rational(2)
    assert x.conjugate() == f.zeta_power(-2) * 7 + f.from_rational(2)
    assert x.conjugate().conjugate() == x
    norm = x * x.conjugate()
    assert norm.conjugate() == norm


def test_rational_detection():
    f = CyclotomicField(3)
    x = f.zeta_power(1) + f.zeta_power(2)  # = -1
    assert x.is_rational() and x.as_rational() == -1
    with pytest.raises(ValueError):
        f.zeta_power(1).as_rational()


def test_zero_division():
    f = CyclotomicField(3)
    with pytest.raises(ZeroDivisionError):
        f.zero.inverse()


# -- field axioms as properties ------------------------------------------------

PROPERTY = settings(deadline=None, database=None, derandomize=True)
RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=8)


def _element(r: int):
    """A random element of Q(zeta_r), built from its coefficient vector."""
    f = CyclotomicField(r)
    return st.lists(RATIONALS, min_size=f.degree, max_size=f.degree).map(
        lambda cs: sum((f.zeta_power(k) * c for k, c in enumerate(cs)), f.zero))


@st.composite
def _elements(draw, count: int):
    """count elements of one field Q(zeta_r), 1 <= r <= 6."""
    r = draw(st.integers(1, 6))
    return [draw(_element(r)) for _ in range(count)]


class TestFieldAxioms:
    @PROPERTY
    @given(_elements(3))
    def test_associativity_and_distributivity(self, xs):
        x, y, z = xs
        assert (x * y) * z == x * (y * z)
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x - y) * z == x * z - y * z
        assert x - y == -(y - x) == x + (-y)

    @PROPERTY
    @given(_elements(1))
    def test_inverse(self, xs):
        (x,) = xs
        assume(not x.is_zero())
        one = x.field.one
        assert x * x.inverse() == one
        assert x.inverse().inverse() == x
        assert one / x == x.inverse()

    @PROPERTY
    @given(_elements(2))
    def test_conjugation_is_a_multiplicative_involution(self, xs):
        x, y = xs
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        norm = x * x.conjugate()
        assert norm.conjugate() == norm

    @PROPERTY
    @given(st.lists(st.integers(1, 6), min_size=2, max_size=2, unique=True).flatmap(
        lambda rs: st.tuples(_element(rs[0]), _element(rs[1]))))
    def test_mixed_fields_raise(self, xy):
        x, y = xy
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ValueError):
                op(x, y)
            with pytest.raises(ValueError):
                op(y, x)

    @PROPERTY
    @given(st.sampled_from((1, 2)), RATIONALS, RATIONALS)
    def test_degree_one_agrees_with_fraction(self, r, a, b):
        f = CyclotomicField(r)
        x, y = f.from_rational(a), f.from_rational(b)
        assert (x + y).coeffs == (a + b,)
        assert (x - y).coeffs == (a - b,)
        assert (-x).coeffs == (-a,)
        assert (x * y).coeffs == (a * b,)
        assert (x * 3).coeffs == (a * 3,)
        assert x.conjugate() == x
        assert x.is_zero() == (a == 0)
        if b:
            assert (x / y).coeffs == (a / b,)
            assert y.inverse().coeffs == (1 / b,)
        else:
            with pytest.raises(ZeroDivisionError):
                y.inverse()


def _convolution_product(x, y):
    """Reference: the full polynomial product of the two coefficient vectors,
    every pair of coefficients multiplied, reduced modulo Phi_r by long
    division from the top degree down."""
    d = x.field.degree
    prod = [Fraction(0)] * (2 * d - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            prod[i + j] += a * b
    modulus = cyclotomic_polynomial(x.field.r)
    for top in range(2 * d - 2, d - 1, -1):
        lead = prod[top]
        for k, m in enumerate(modulus):
            prod[top - d + k] -= lead * m
    return tuple(prod[:d])


def _rational_or_not(r: int):
    """An element of Q(zeta_r), rational about half the time, so that both
    factors, one, or neither is rational."""
    f = CyclotomicField(r)
    return st.one_of(RATIONALS.map(f.from_rational), _element(r))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
@PROPERTY
@given(data=st.data())
def test_product_matches_the_full_convolution(r, data):
    x, y = data.draw(_rational_or_not(r)), data.draw(_rational_or_not(r))
    expect = _convolution_product(x, y)
    assert (x * y).coeffs == expect
    assert (y * x).coeffs == expect
    if x.is_rational():
        q = x.as_rational()
        assert (y * q).coeffs == (q * y).coeffs == expect


# -- the canonical integer form ----------------------------------------------------


def _assert_canonical(x):
    """den > 0, gcd(den, *num) == 1, zero is all zeros over 1, and the value
    rebuilt from its rational coefficients is equal to it and hashes equal."""
    f = x.field
    assert len(x.num) == f.degree and x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert (x.num, x.den) == ((0,) * f.degree, 1)
    again = sum((f.zeta_power(k) * c for k, c in enumerate(x.coeffs)), f.zero)
    assert again == x and hash(again) == hash(x)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
@PROPERTY
@given(data=st.data())
def test_every_result_is_canonical(r, data):
    x, y = data.draw(_rational_or_not(r)), data.draw(_rational_or_not(r))
    q = data.draw(RATIONALS)
    pairs = [(x + y, y + x), (x - y, -(y - x)), (x * y, y * x), (x + q, q + x),
             (x - q, -(q - x)), (x * q, q * x), (x.conjugate(), x.conjugate().conjugate().conjugate())]
    if not y.is_zero():
        pairs += [(x / y, x * y.inverse()), (y.inverse(), 1 / y)]
        if q:
            pairs += [(q / y, y.inverse() * q)]
    for a, b in pairs:
        _assert_canonical(a)
        _assert_canonical(b)
        assert a == b and hash(a) == hash(b)
