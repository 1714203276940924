"""The closed-formula products against the code they replaced.

`norms._from_keys` turns the integer keys that `norms._count` counts
straight into primitive factors, and `pochhammer_products` builds its forms
as integer numerators over r.  The references below are the earlier code,
kept literally: the fold of `FactoredScalar.from_counts` over `_eig_form`
forms, and the Pochhammer forms built by Fraction-valued AffineForm sums.
The sha256 pins were computed with that code, over every r-partition with
r <= 4 and n <= 6, 6, 5, 4.  The large-shape pins of the `hook`, `norm-min`
and `norm-g` commands were computed before the products dropped their empty
ranges and forms kept their text.
"""
import hashlib
import io
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cherednik_kit import norms
from cherednik_kit.cli import build_parser
from cherednik_kit.combinatorics import (
    MultiPartition,
    conjugate,
    enumerate_multipartitions,
    enumerate_syt,
    parse_multipartition,
)
from cherednik_kit.norms import (
    _count,
    _from_keys,
    extra_product,
    hook_product,
    minimal_assignment,
    minimal_norm,
    nonsymmetric_norm,
    pochhammer_products,
    symmetric_norm,
)
from cherednik_kit.scalars import AffineForm, FactoredScalar

from conftest import compositions

PROPERTY = settings(deadline=None, database=None, derandomize=True)


# -- the earlier code, literally ----------------------------------------------

def _eig_form(r: int, const: int, beta_hi: int, beta_lo: int, ct: int) -> AffineForm:
    """const - (d_{beta_hi} - d_{beta_lo}) - r*ct*c0."""
    numerators = [const, -r * ct] + [0] * r
    numerators[2 + beta_hi % r] -= 1
    numerators[2 + beta_lo % r] += 1
    return AffineForm.from_numerators(r, numerators)


def _keys(r, terms):
    """Each term's forms _eig_form(r, k, hi, lo, ct), counted by integer key."""
    return Counter((k, hi % r, lo % r, ct) for top, hi, lo, ct in terms
                   for k in range((hi - lo - 1) % r + 1, top + 1, r))


def _fold(r, coefficient, counts):
    """FactoredScalar.from_counts: each form made primitive and its scale
    folded into the coefficient."""
    coef = Fraction(coefficient)
    factors = {}
    for f, m in counts:
        if f.r != r:
            raise ValueError("factor has wrong r")
        if f.is_zero():
            raise ValueError("identically zero factor")
        prim, scale = f.primitive()
        if prim is not f:       # else scale is 1
            coef *= scale ** m
        if not prim.is_constant():
            factors[prim] = factors.get(prim, 0) + m
    return FactoredScalar._canonical(r, coef, factors)


def reference_product(r, coefficient, parts):
    """One FactoredScalar from all parts: only nonzero net keys become forms."""
    net = _keys(r, (term for num, _ in parts for term in num))
    net.subtract(_keys(r, (term for _, den in parts for term in den)))
    return _fold(r, coefficient, ((_eig_form(r, *key), m) for key, m in net.items() if m))


def reference_pochhammer_products(shape: MultiPartition) -> tuple[FactoredScalar, FactoredScalar]:
    """(H_alt, E_alt): quadruple products of Pochhammer symbols over
    conjugate-partition data, proportional to hook_product and extra_product
    by nonzero constants (powers of r up to sign).

    An empty component contributes conjugate (0), i.e. first column height 0.
    """
    r = shape.r
    comps = shape.components
    conj = [conjugate(c) for c in comps]

    def col_height(k: int, j: int) -> int:
        return conj[k][j - 1] if j - 1 < len(conj[k]) else 0

    def first_height(k: int) -> int:
        return conj[k][0] if conj[k] else 0

    def row_len(k: int, i: int) -> int:
        return comps[k][i - 1] if i - 1 < len(comps[k]) else 0

    h_forms: list[AffineForm] = []
    e_forms: list[AffineForm] = []
    for k in range(r):
        for l in range(r):
            dmap: dict[int, Fraction] = {k: Fraction(-1, r)}
            dmap[l] = dmap.get(l, Fraction(0)) + Fraction(1, r)
            dk_dl = AffineForm(r, d=dmap)
            if l < k:
                base_const = Fraction(k - l, r)
                shift = 1
            else:
                base_const = Fraction(r + k - l, r)
                shift = 0
            # hook part
            for i in range(1, min(first_height(k), first_height(l)) + 1):
                for j in range(1, row_len(k, i) + 1):
                    c0_coeff = col_height(k, j) + row_len(l, i) - i - j + 1
                    x = AffineForm(r, const=base_const, c0=c0_coeff) + dk_dl
                    h_forms += (x + m for m in range(col_height(k, j) - i + shift))
            # extra part
            lo = first_height(l) + (1 if l < k else 2)
            for i in range(lo, first_height(k) + 1):
                for j in range(1, row_len(k, i) + 1):
                    c0_coeff = i - j - first_height(l)
                    x = AffineForm(r, const=base_const, c0=c0_coeff) + dk_dl
                    e_forms += (x + m for m in range(i - first_height(l) - (1 - shift)))
    return FactoredScalar(r, 1, h_forms), FactoredScalar(r, 1, e_forms)


# -- the new code against them ------------------------------------------------

def counted_product(r, coefficient, parts):
    """The parts' terms counted through `_count`, numerator terms +1 and
    denominator terms -1, and folded by `_from_keys`."""
    net = {}
    for num, den in parts:
        for terms, m in ((num, 1), (den, -1)):
            for top, hi, lo, ct in terms:
                _count(net, r, top, hi, lo, ((ct, m),), 0)
    return _from_keys(r, coefficient, net)


def assert_canonical(p):
    assert all(f.primitive() == (f, 1) and not f.is_constant() for f in p.factors)
    assert all(p.factors.values())


@st.composite
def _terms(draw, r):
    """Terms (top, hi, lo, ct) with top 0..12 and ct -6..6; about half have
    hi = lo mod r, and those often ct = 0, a constant form."""
    top, hi = draw(st.integers(0, 12)), draw(st.integers(-r, 2 * r))
    if draw(st.booleans()):
        lo = hi + r * draw(st.integers(-1, 1))
        return top, hi, lo, draw(st.sampled_from([0, 0, 0, -6, -1, 1, 2, 3, 6]))
    return top, hi, draw(st.integers(-r, 2 * r)), draw(st.integers(-6, 6))


@st.composite
def _products(draw):
    r = draw(st.integers(1, 4))
    coefficient = draw(st.sampled_from([1, 2, 720, -3, Fraction(5, 6)]))
    sides = st.lists(_terms(r), max_size=8)
    return r, coefficient, draw(st.lists(st.tuples(sides, sides), max_size=4))


class TestProductAgainstTheFold:
    @PROPERTY
    @given(_products())
    def test_equal_canonical_scalars(self, drawn):
        r, coefficient, parts = drawn
        p = counted_product(r, coefficient, parts)
        reference = reference_product(r, coefficient, parts)
        assert p == reference and str(p) == str(reference)
        assert_canonical(p)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_keys_with_equal_residues(self, r):
        # hi = lo mod r throughout.  ct = 0: the constants k = r, 2r, ... <= 12
        # over k = r, ..., 5r.  ct = 1: k - r*c0 = r * (k/r - c0), k = r, ..., 4r,
        # over ct = 2: r - 2r*c0 = r * (1 - 2c0) and 2r - 2r*c0 = 2r * (1 - c0),
        # which cancels the numerator's 1 - c0.
        parts = [([(12, 1, 1 + r, 0), (4 * r, 0, 0, 1)], [(5 * r, 2, 2 + r, 0), (2 * r, 3, 3, 2)])]
        p = counted_product(r, 1, parts)
        assert p == reference_product(r, 1, parts)
        assert_canonical(p)
        assert p.factors == {AffineForm(r, 2, -1): 1, AffineForm(r, 3, -1): 1,
                             AffineForm(r, 4, -1): 1, AffineForm(r, 1, -2): -1}
        assert p.coefficient == Fraction(math.prod(range(r, 13, r)) * r ** 4,
                                         r ** 5 * 120 * r * 2 * r)

    def test_zero_coefficient_has_no_factors(self):
        p = counted_product(2, 0, [([(6, 1, 0, 2)], [])])
        assert p.is_zero() and not p.factors


class TestPochhammerAgainstTheFractionForms:
    @PROPERTY
    @given(st.integers(1, 4).flatmap(lambda r: st.integers(0, 6).flatmap(
        lambda n: st.sampled_from(enumerate_multipartitions(r, n)))))
    def test_equal_canonical_scalars(self, shape):
        new, old = pochhammer_products(shape), reference_pochhammer_products(shape)
        assert new == old and tuple(map(str, new)) == tuple(map(str, old))
        for p in new:
            assert_canonical(p)


# -- sha256 of str() over every r-partition, computed with the earlier code ---

MAX_N = {1: 6, 2: 6, 3: 5, 4: 4}

PINS = {
    "hook_product": (523, "7f8b132b0e9ecef89d502c22e481c4cbbe10a3bbd0eb8863719ba9d85d9295fb"),
    "extra_product": (523, "33fe3344249632a8b2db5a5f0fe62ba7335e4a0a35c428fc955c53a0f2c6a7e9"),
    "minimal_norm": (523, "e9adf21cea04d1c50d15d9d11108a51301a5586a8f369c3d86358d781750de94"),
    "symmetric_norm": (523, "e9adf21cea04d1c50d15d9d11108a51301a5586a8f369c3d86358d781750de94"),
    "pochhammer_products": (1046, "4f21ebc290d5121f1abcf63f2509c8c8dbea54ccc13f52e7cf4a85cb756be546"),
    "nonsymmetric_norm": (96426, "a12628c70d563e8f6a0a3481c2707bea12e18b23e46d7b66ae7eb95ee6f29409"),
}

PRODUCTS = {
    "hook_product": lambda s: [hook_product(s)],
    "extra_product": lambda s: [extra_product(s)],
    "minimal_norm": lambda s: [minimal_norm(s)],
    "symmetric_norm": lambda s: [symmetric_norm(minimal_assignment(s))],
    "pochhammer_products": lambda s: list(pochhammer_products(s)),
    # every tableau, every composition mu with |mu| <= 2
    "nonsymmetric_norm": lambda s: [nonsymmetric_norm(mu, T) for T in enumerate_syt(s)
                                    for mu in compositions(s.size, 2)],
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_products_are_pinned(name):
    digest, count = hashlib.sha256(), 0
    for r, top in MAX_N.items():
        for n in range(1, top + 1):
            for shape in enumerate_multipartitions(r, n):
                for p in PRODUCTS[name](shape):
                    digest.update(f"{p}\n".encode())
                    count += 1
    assert (count, digest.hexdigest()) == PINS[name]


# -- sha256 of the command-line text at n = 17, 27 and 48 ---------------------

LARGE_SHAPES = [(1, "7,5,4,1"), (2, "7,5,2,1|2"), (3, "1|7,4,3|2"),
                (1, "15,6,4,2"), (2, "17,4,4,2|"), (3, "19,1,1|2,1,1,1|1"),
                (1, "27,18,2,1"), (2, "1|29,16,1,1"), (3, "27,12,1|5,2|1")]

LARGE_PINS = {
    "hook": (13982, "5d30c6817ddc65394d13a51864854fa1ccbe1b2dc3151c36deefac0e40419740"),
    "norm-min": (7016, "3631a9fc80b692877bccba6e568747e72f101b0813e2e2b68504a398c9d28d83"),
    # the minimal assignment's symmetric norm is the minimal norm, text and all
    "norm-g": (7016, "3631a9fc80b692877bccba6e568747e72f101b0813e2e2b68504a398c9d28d83"),
}


@pytest.mark.parametrize("command", sorted(LARGE_PINS))
def test_large_shape_outputs_are_pinned(command):
    digest, size = hashlib.sha256(), 0
    for r, text in LARGE_SHAPES:
        argv = [command, "--r", str(r), "--shape", text]
        if command == "norm-g":
            argv += ["--values", minimal_assignment(parse_multipartition(text, r)).as_text()]
        out = io.StringIO()
        args = build_parser().parse_args(argv)
        assert args.func(args, out) == 0
        digest.update(out.getvalue().encode())
        size += len(out.getvalue())
    assert (size, digest.hexdigest()) == LARGE_PINS[command]


# -- the constants of a long product -------------------------------------------

# `norm-f --r 1 --shape 2 --mu 1,25000`, taken before the constants were
# multiplied in a balanced tree: (bytes, sha256)
LONG_NORM_PIN = (497292, "f94ea6bc2398505238f87c91447b02d95b3a56f75b60062e11727e25ca87693b")


def test_long_product_output_is_pinned():
    out = io.StringIO()
    args = build_parser().parse_args(["norm-f", "--r", "1", "--shape", "2", "--mu", "1,25000"])
    assert args.func(args, out) == 0
    text = out.getvalue()
    assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == LONG_NORM_PIN


def test_constants_multiply_in_a_balanced_tree(monkeypatch):
    # At r = 1 every key of nonsymmetric_norm((1, N), T) is a constant g
    # times a form: about 3N constants, whose product has ~44,000 bits at
    # N = 4000.  Multiplied one at a time, each product past the first B bits
    # has an operand above B bits (about 7,700 of them at B = 1024); in a
    # balanced tree, about bits / B do.
    T, = enumerate_syt(parse_multipartition("2", 1))
    expect = nonsymmetric_norm((1, 4000), T)
    sizes = []

    class Counted(int):
        """An int whose products and powers stay Counted; each product
        records the bit length of its larger operand."""

        def __mul__(self, other):
            sizes.append(max(self.bit_length(), other.bit_length()))
            return Counted(int(self) * int(other))

        __rmul__ = __mul__

        def __pow__(self, e):
            return Counted(int(self) ** e)

    monkeypatch.setattr(norms, "gcd", lambda a, b: Counted(math.gcd(a, b)))
    got = nonsymmetric_norm((1, 4000), T)
    assert got == expect
    bits, large = got.coefficient.numerator.bit_length(), sum(s > 1024 for s in sizes)
    assert bits > 40000 and 0 < large <= 2 * bits // 1024
