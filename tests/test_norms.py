import functools
import math
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cherednik_kit.combinatorics import (
    BoxRef,
    MultiPartition,
    enumerate_multipartitions,
    enumerate_syt,
    parse_assignment,
    parse_multipartition,
    parse_tableau,
    sorting_data,
)
from cherednik_kit import norms
from cherednik_kit.norms import (
    _from_keys,
    extra_product,
    hook_product,
    minimal_assignment,
    minimal_norm,
    nonsymmetric_norm,
    pochhammer_products,
    removal_correction,
    spectrum,
    symmetric_norm,
    symmetrization_block_factor,
)
from cherednik_kit.scalars import AffineForm, FactoredScalar, ParameterPoint, proportional

from conftest import compositions, enumerate_assignments


def zero_point(r):
    return ParameterPoint(r, 0, [0] * r)


# -- the box-pair products written out, pair by pair, as references -----------

@functools.lru_cache(maxsize=None)
def _eig(r, k, hi, lo, t):
    """k - (d_hi - d_lo) - r*t*c0 (forms are never mutated, so one per key)."""
    d = [0] * r
    d[hi % r] -= 1
    d[lo % r] += 1
    return AffineForm(r, k, -r * t, d)


def _residues(r, top, hi, lo, t):
    """X(t): the forms _eig(r, k, hi, lo, t), 1 <= k <= top, k = hi - lo mod r."""
    return [_eig(r, k, hi, lo, t) for k in range(1, top + 1) if (k - hi + lo) % r == 0]


def pairwise_box_share(S, b):
    """Box b's own factors, and for every box b2 the ratios X(t - 1)/X(t) for
    k <= S(b) - S(b2) and X(t + 1)/X(t) for k <= S(b) - S(b2) - r, with
    t = ct(b) - ct(b2); as (numerator, denominator) form lists."""
    r, sb, hi = S.shape.r, S.value(b), b.component
    num = [_eig(r, k, hi, hi - k, b.content) for k in range(1, sb + 1)]
    den = []
    for b2 in S.shape.boxes():
        t = b.content - b2.content
        for top, step in ((sb - S.value(b2), -1), (sb - S.value(b2) - r, 1)):
            num += _residues(r, top, hi, b2.component, t + step)
            den += _residues(r, top, hi, b2.component, t)
    return num, den


def pairwise_symmetric_norm(S):
    shares = [pairwise_box_share(S, b) for b in S.shape.boxes()]
    return FactoredScalar(S.shape.r, math.factorial(S.shape.size),
                          [f for num, _ in shares for f in num], [f for _, den in shares for f in den])


def pairwise_nonsymmetric_norm(mu, T):
    """Own factors of each index i, and per pair i < j the ratios
    X(t - 1) X(t + 1) / X(t)^2, t = ct_i - ct_j, over k <= mu_i - mu_j, and the
    same for (j, i) over k <= mu_j - mu_i - 1."""
    r, n = T.shape.r, len(mu)
    w_mu = sorting_data(mu)[2]
    boxes = [T.box_of(w_mu[i]) for i in range(n)]
    num = [_eig(r, k, b.component, b.component - k, b.content)
           for b, m in zip(boxes, mu) for k in range(1, m + 1)]
    den = []
    for i in range(n):
        for j in range(i + 1, n):
            for hi, lo, top in ((i, j, mu[i] - mu[j]), (j, i, mu[j] - mu[i] - 1)):
                bh, bl = boxes[hi], boxes[lo]
                t = bh.content - bl.content
                num += _residues(r, top, bh.component, bl.component, t - 1)
                num += _residues(r, top, bh.component, bl.component, t + 1)
                den += 2 * _residues(r, top, bh.component, bl.component, t)
    return FactoredScalar(r, 1, num, den)


# -- the earlier parts-based construction, literally -------------------------

def _keys(r, terms):
    """Each term's forms _eig_form(r, k, hi, lo, ct), counted by integer key."""
    return Counter((k, hi % r, lo % r, ct) for top, hi, lo, ct in terms if top > 0
                   for k in range((hi - lo - 1) % r + 1, top + 1, r))


def _own_part(r, top, beta, ct):
    """A box's own factors: _eig_form(r, k, beta, beta - k, ct) for 1 <= k <= top."""
    return [(top, beta, lo, ct) for lo in range(r)], []


def _run_part(hi, lo, top_minus, top_plus, t_lo, t_hi):
    """The ratios X(t - 1)/X(t) for k <= top_minus and X(t + 1)/X(t) for
    k <= top_plus over t_lo <= t <= t_hi, with X(t) the residue forms of
    (hi, lo) at content difference t; they telescope to
    X(t_lo - 1) X(t_hi + 1) / (X(t_hi) X(t_lo))."""
    return ([(top_minus, hi, lo, t_lo - 1), (top_plus, hi, lo, t_hi + 1)],
            [(top_minus, hi, lo, t_hi), (top_plus, hi, lo, t_lo)])


def _product(r, coefficient, parts):
    """One FactoredScalar from all parts: their forms counted by integer key,
    numerator minus denominator, and folded by _from_keys."""
    net = _keys(r, (term for num, _ in parts for term in num))
    net.subtract(_keys(r, (term for _, den in parts for term in den)))
    return _from_keys(r, coefficient, net)


def parts_nonsymmetric_norm(mu, T):
    """The parts-based construction that nonsymmetric_norm's one counting
    rule replaced: each index's own part and each pair's run part, folded by
    _product."""
    r, n = T.shape.r, len(mu)
    w_mu = sorting_data(mu)[2]
    boxes = [T.box_of(w_mu[i]) for i in range(n)]
    a, beta = [b.content for b in boxes], [b.component for b in boxes]
    parts = [_own_part(r, mu[i], beta[i], a[i]) for i in range(n)]
    parts += [_run_part(beta[hi], beta[lo], top, top, a[hi] - a[lo], a[hi] - a[lo])
              for i in range(n) for j in range(i + 1, n)
              for hi, lo, top in ((i, j, mu[i] - mu[j]), (j, i, mu[j] - mu[i] - 1)) if top > 0]
    return _product(r, 1, parts)


def lower_rim(shape):
    """Boxes not directly above another box of the same component."""
    out = []
    for l, comp in enumerate(shape.components):
        for i, row in enumerate(comp, start=1):
            below = comp[i] if i < len(comp) else 0
            for j in range(1, row + 1):
                if j > below:
                    out.append(BoxRef(l, i, j))
    return out


def right_rim(shape):
    """Boxes not directly to the left of another box of the same component."""
    return [BoxRef(l, i, row)
            for l, comp in enumerate(shape.components)
            for i, row in enumerate(comp, start=1)]


def corner_data(shape):
    """(component, S-value, content) of each component's lower-left corner;
    an empty component gets the convention box in row 0, column 1, so
    S_l = l - r and c_l = 1."""
    r = shape.r
    return [(l, l - r, 1) if not comp else (l, l + (len(comp) - 1) * r, 1 - len(comp))
            for l, comp in enumerate(shape.components)]


def rim_hook_product(shape):
    """The hook product over (b in the lower rim, b2 in the right rim), with
    S the minimal assignment, form by form."""
    r, S = shape.r, minimal_assignment(shape)
    return FactoredScalar(r, 1, [
        f for b in lower_rim(shape) for b2 in right_rim(shape)
        for f in _residues(r, S.value(b) - S.value(b2), b.component, b2.component,
                           b.content - b2.content - 1)])


def corner_extra_product(shape):
    """The extra product over boxes b and component corners, with S the
    minimal assignment, form by form."""
    r, S = shape.r, minimal_assignment(shape)
    return FactoredScalar(r, 1, [
        f for b in shape.boxes() for l, s_l, c_l in corner_data(shape)
        for f in _residues(r, S.value(b) - s_l - r, b.component, l, b.content - c_l + 1)])


def staircase(r, n):
    """n boxes split evenly over the r components, each the staircase
    (k, ..., 1) with one more box in each of its first rows."""
    comps = []
    for size in (n // r + (l < n % r) for l in range(r)):
        k = (math.isqrt(8 * size + 1) - 1) // 2
        extra = size - k * (k + 1) // 2      # 0 <= extra <= k
        comps.append(tuple(k - i + (i < extra) for i in range(k)))
    return MultiPartition(r, tuple(comps))


PROPERTY = settings(deadline=None, database=None, derandomize=True)


@functools.lru_cache(maxsize=None)
def _multipartitions(r, n):
    return tuple(enumerate_multipartitions(r, n))


@st.composite
def _shapes(draw, top_n, rs=(1, 2, 3)):
    """An r-partition of n, r in rs, n <= top_n."""
    return draw(st.sampled_from(_multipartitions(draw(st.sampled_from(rs)), draw(st.integers(0, top_n)))))


@st.composite
def _fillings(draw):
    """A column-strict, residue-compatible filling with values <= 2r + 2 of
    an r-partition of n <= 6."""
    shape = draw(_shapes(6))
    fillings = enumerate_assignments(shape, 2 * shape.r + 2)
    assume(fillings)        # a column too tall for the bound has none
    return draw(st.sampled_from(fillings))


@st.composite
def _indexed_tableaux(draw):
    """(mu, T): a tableau T on an r-partition of n <= 5, r <= 4, and a
    composition mu with entries <= 2r + 2."""
    shape = draw(_shapes(5, rs=(1, 2, 3, 4)))
    T = draw(st.sampled_from(enumerate_syt(shape)))
    return tuple(draw(st.lists(st.integers(0, 2 * shape.r + 2),
                               min_size=shape.size, max_size=shape.size))), T


class TestSpectrum:
    def test_single_cell(self):
        shape = parse_multipartition("1")
        T = enumerate_syt(shape)[0]
        for m in range(4):
            data = spectrum((m,), T)
            assert data[0].z_eigenvalue == AffineForm(1, const=m + 1)

    def test_zero_mu_form(self):
        shape = parse_multipartition("1|1")
        T = enumerate_syt(shape)[0]
        data = spectrum((0, 0), T)
        # with mu = 0, eigenvalue is 1 - (d_b - d_{b-1}) - r ct(b) c0 at the
        # w_0-twisted box
        for d in data:
            assert d.z_eigenvalue.const == 1

    def test_multiset_depends_only_on_assignment(self, rng):
        from cherednik_kit.combinatorics import shape_assignment
        for shape_text in ("2,1", "1,1|1", "2|1"):
            shape = parse_multipartition(shape_text)
            tabs = enumerate_syt(shape)
            for mu in compositions(shape.size, 3):
                groups = {}
                for T in tabs:
                    key = shape_assignment(mu, T).as_text()
                    mset = tuple(sorted(
                        (d.zeta_residue, d.z_eigenvalue.key()) for d in spectrum(mu, T)))
                    groups.setdefault(key, set()).add(mset)
                for key, msets in groups.items():
                    assert len(msets) == 1, (shape_text, mu, key)


class TestNonsymmetricNorm:
    def test_zero_mu(self):
        shape = parse_multipartition("1|1")
        T = enumerate_syt(shape)[0]
        val = nonsymmetric_norm((0, 0), T)
        assert val == FactoredScalar(2)

    def test_single_cell_factorial(self):
        shape = parse_multipartition("1")
        T = enumerate_syt(shape)[0]
        for m in range(5):
            val = nonsymmetric_norm((m,), T)
            assert val == FactoredScalar(1, math.factorial(m))

    def test_specialization_to_factorials(self):
        # at c0 = d = 0 the norm collapses to prod mu_i!
        for r, n in [(1, 2), (2, 2), (1, 3)]:
            p = zero_point(r)
            for shape in enumerate_multipartitions(r, n):
                for T in enumerate_syt(shape):
                    for mu in compositions(n, 4):
                        expect = math.prod(math.factorial(m) for m in mu)
                        assert nonsymmetric_norm(mu, T).evaluate(p) == expect


class TestSymmetricNorm:
    def test_row_trivial(self):
        for n in (1, 2, 3, 4):
            shape = parse_multipartition(",".join(["1"] * 1)) if n == 1 else None
            shape = MultiPartition(1, ((n,),))
            S = minimal_assignment(shape)
            assert symmetric_norm(S) == FactoredScalar(1, math.factorial(n))

    def test_column_two(self):
        shape = parse_multipartition("1,1")
        S = minimal_assignment(shape)
        assert str(symmetric_norm(S)) == "2 * (1 + 2*c0)"

    def test_requires_column_strict(self):
        shape = parse_multipartition("1,1")
        with pytest.raises(ValueError):
            symmetric_norm(parse_assignment("0/0", shape))

    def test_requires_residues(self):
        shape = parse_multipartition("1|")
        with pytest.raises(ValueError):
            symmetric_norm(parse_assignment("1|", shape))

    def test_matches_minimal_norm_r2_n3(self):
        for shape in enumerate_multipartitions(2, 3):
            assert symmetric_norm(minimal_assignment(shape)) == minimal_norm(shape)


class TestTelescopedProducts:
    """The run-telescoped, key-counted products equal the pairwise ones."""

    def test_every_small_assignment(self):
        checked = 0
        for r in (1, 2, 3):
            for n in range(7):
                for shape in enumerate_multipartitions(r, n):
                    for S in enumerate_assignments(shape, r + 2):
                        assert symmetric_norm(S) == pairwise_symmetric_norm(S), S.as_text()
                        checked += 1
        assert checked == 3929

    # the exhaustive ranges above and below stop short of values <= 2r + 2 and
    # of n = 9..12 at r = 3, where they would take minutes; these sample them
    @PROPERTY
    @given(_fillings())
    def test_sampled_fillings_up_to_2r_plus_2(self, S):
        assert symmetric_norm(S) == pairwise_symmetric_norm(S)

    @PROPERTY
    @given(_shapes(12, rs=(3,)))
    def test_sampled_minimal_assignments_up_to_n12(self, shape):
        S = minimal_assignment(shape)
        assert symmetric_norm(S) == pairwise_symmetric_norm(S)

    def test_minimal_assignments_and_removal(self):
        for r, top_n in ((1, 12), (2, 12), (3, 8)):
            for n in range(top_n + 1):
                for shape in enumerate_multipartitions(r, n):
                    S = minimal_assignment(shape)
                    assert symmetric_norm(S) == pairwise_symmetric_norm(S), shape.as_text()
                    top = max((S.value(b) for b in shape.boxes()), default=None)
                    for b in shape.boxes():
                        if S.value(b) == top:
                            assert removal_correction(shape, b) == FactoredScalar(
                                r, 1, *pairwise_box_share(S, b))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_staircase_n48(self, r):
        shape = staircase(r, 48)
        S = minimal_assignment(shape)
        assert shape.size == 48
        assert symmetric_norm(S) == pairwise_symmetric_norm(S) == minimal_norm(shape)

    @pytest.mark.parametrize("r", [1, 3])
    def test_staircase_n192_matches_minimal_norm(self, r):
        shape = staircase(r, 192)
        S = minimal_assignment(shape)
        start = time.perf_counter()
        value = symmetric_norm(S)
        elapsed = time.perf_counter() - start
        assert shape.size == 192 and value == minimal_norm(shape)
        # about 0.05 s (r = 1) and 0.1 s (r = 3) on a 2-vCPU host; the pairwise
        # product took 8 s, so this bound only catches a return to it
        assert elapsed < 2.0

    def test_nonsymmetric_norm(self):
        for r, n in ((1, 4), (2, 3), (3, 3)):
            for shape in enumerate_multipartitions(r, n):
                for T in enumerate_syt(shape):
                    for mu in compositions(n, 3):
                        assert nonsymmetric_norm(mu, T) == pairwise_nonsymmetric_norm(mu, T)

    # the exhaustive ranges stop at |mu| <= 3, so at r >= 3 no top exceeds r
    # and no residue class holds more than one k; this samples past that
    @PROPERTY
    @given(_indexed_tableaux())
    def test_sampled_nonsymmetric_norms_up_to_2r_plus_2(self, drawn):
        mu, T = drawn
        p, reference = nonsymmetric_norm(mu, T), pairwise_nonsymmetric_norm(mu, T)
        assert p == reference and str(p) == str(reference)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_nonsymmetric_norm_counts_the_parts_keys(self, r):
        for n in range(5):
            for shape in enumerate_multipartitions(r, n):
                for T in enumerate_syt(shape):
                    for mu in compositions(n, 3):
                        p, reference = nonsymmetric_norm(mu, T), parts_nonsymmetric_norm(mu, T)
                        assert p == reference and str(p) == str(reference)

    def test_nonsymmetric_norm_rejects_a_negative_entry(self):
        T = enumerate_syt(parse_multipartition("1,1"))[0]
        for norm_or_spectrum in (nonsymmetric_norm, spectrum):
            with pytest.raises(ValueError, match="must be >= 0"):
                norm_or_spectrum((1, -1), T)


class TestMinimalAssignment:
    def test_row(self):
        shape = MultiPartition(1, ((4,),))
        S = minimal_assignment(shape)
        assert all(S.value(b) == 0 for b in shape.boxes())

    def test_column_r2(self):
        shape = parse_multipartition("1,1|")
        S = minimal_assignment(shape)
        assert [S.value(b) for b in shape.boxes()] == [0, 2]

    def test_row_component_one(self):
        shape = parse_multipartition("|2")
        S = minimal_assignment(shape)
        assert [S.value(b) for b in shape.boxes()] == [1, 1]

    def test_always_column_strict_and_residue(self):
        for r in (1, 2, 3):
            for n in range(5):
                for shape in enumerate_multipartitions(r, n):
                    S = minimal_assignment(shape)
                    assert S.is_column_strict() and S.satisfies_residues()


class TestHookExtra:
    def test_single_box(self):
        assert hook_product(parse_multipartition("1")) == FactoredScalar(1)

    def test_column_two(self):
        assert str(hook_product(parse_multipartition("1,1"))) == "1 * (1 + 2*c0)"

    def test_factor_count_is_leg_sum(self):
        # r=1: the hook product has exactly sum-of-leg-lengths affine factors
        for n in range(1, 5):
            for shape in enumerate_multipartitions(1, n):
                lam = shape.components[0]
                legs = sum(
                    sum(1 for i2 in range(i + 1, len(lam)) if lam[i2] >= j)
                    for i, row in enumerate(lam) for j in range(1, row + 1)
                )
                assert len(hook_product(shape).num) == legs

    def test_extra_r1_is_one(self):
        # k-range 1 <= k <= row(b) - length - 1 is always empty for r=1
        for n in range(5):
            for shape in enumerate_multipartitions(1, n):
                assert extra_product(shape) == FactoredScalar(1)

    def test_match_rim_and_corner_reference(self):
        checked = 0
        for r, top_n in ((1, 8), (2, 6), (3, 6), (4, 5)):
            for n in range(top_n + 1):
                for shape in enumerate_multipartitions(r, n):
                    assert hook_product(shape) == rim_hook_product(shape), shape.as_text()
                    assert extra_product(shape) == corner_extra_product(shape), shape.as_text()
                    checked += 1
        assert checked == 1037

    def test_extra_conventions(self):
        assert extra_product(parse_multipartition("1|")) == FactoredScalar(2)
        e = extra_product(parse_multipartition("|1"))
        assert str(e) == "1 * (1 + d0 - d1)"


class TestMinimalNorm:
    def test_row(self):
        assert minimal_norm(MultiPartition(1, ((3,),))) == FactoredScalar(1, 6)

    def test_column_two(self):
        v = minimal_norm(parse_multipartition("1,1"))
        assert str(v) == "2 * (1 + 2*c0)"
        assert v.evaluate(ParameterPoint(1, Fraction(-1, 2), [0])) == 0

    def test_single_box_second_component(self):
        v = minimal_norm(parse_multipartition("|1"))
        assert str(v) == "1 * (1 + d0 - d1)"
        assert v.evaluate(ParameterPoint(2, Fraction(5, 7), [0, 1])) == 0

    def test_factorization_identity_full_range(self):
        for r in (1, 2, 3):
            for n in range(6):
                for shape in enumerate_multipartitions(r, n):
                    assert symmetric_norm(minimal_assignment(shape)) == minimal_norm(shape)

    def test_recurrence(self):
        checked = 0
        for r in (1, 2, 3):
            for n in range(1, 6):
                for shape in enumerate_multipartitions(r, n):
                    S = minimal_assignment(shape)
                    top = max(S.value(b) for b in shape.boxes())
                    for b in shape.boxes():
                        comp = shape.components[b.component]
                        removable = (b.column == comp[b.row - 1]
                                     and not (b.row < len(comp) and comp[b.row] >= b.column))
                        if S.value(b) != top or not removable:
                            continue
                        chi_rows = list(comp)
                        chi_rows[b.row - 1] -= 1
                        comps = list(shape.components)
                        comps[b.component] = tuple(x for x in chi_rows if x > 0)
                        chi = MultiPartition(r, tuple(comps))
                        assert minimal_norm(shape) == (
                            minimal_norm(chi) * n * removal_correction(shape, b))
                        checked += 1
        assert checked > 200

    def test_removal_correction_requires_maximal(self):
        shape = parse_multipartition("2,1")
        with pytest.raises(ValueError):
            removal_correction(shape, BoxRef(0, 1, 2))
        for outside in (BoxRef(0, 0, 1), BoxRef(0, 3, 1)):
            with pytest.raises(ValueError):
                removal_correction(shape, outside)

    def test_printed_factors_render_the_product_text(self):
        # the hook command prints hook and extra, then n! * hook * extra,
        # whose factors are those same forms with their texts kept
        for r, top_n in ((1, 7), (2, 6), (3, 5)):
            for n in range(top_n + 1):
                for shape in enumerate_multipartitions(r, n):
                    hook, extra = hook_product(shape), extra_product(shape)
                    texts = str(hook), str(extra)
                    product = math.factorial(n) * hook * extra
                    assert str(product) == str(minimal_norm(shape)) == str(product)
                    assert (str(hook), str(extra)) == texts


def _wrap_count(monkeypatch, each):
    """Replace norms._count by one that first calls each(keys) with the keys
    one call writes, counted on their own, then counts as before."""
    real = norms._count

    def count(net, r, top, hi, lo, cts, listed):
        probe: dict = {}
        real(probe, r, top, hi, lo, cts, 0)
        each(probe)
        return real(net, r, top, hi, lo, cts, listed)

    monkeypatch.setattr(norms, "_count", count)


class TestCountedRanges:
    """What the closed products hand to `_count`."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_minimal_assignment_products_count_no_empty_range(self, r, monkeypatch):
        calls = []
        _wrap_count(monkeypatch, lambda keys: calls.append(len(keys)))
        for n in range(8):
            for shape in enumerate_multipartitions(r, n):
                S = minimal_assignment(shape)
                top = max((S.value(b) for b in shape.boxes()), default=None)
                products = {"hook_product": lambda: hook_product(shape),
                            "extra_product": lambda: extra_product(shape),
                            "minimal_norm": lambda: minimal_norm(shape),
                            "symmetric_norm": lambda: symmetric_norm(S)}
                products.update({f"removal_correction {b}": functools.partial(
                    removal_correction, shape, b) for b in shape.boxes() if S.value(b) == top})
                for name, product in products.items():
                    calls.clear()
                    product()
                    assert all(calls), (name, shape.as_text(), calls)

    def test_the_cap_counts_each_listed_form(self, monkeypatch):
        shape = parse_multipartition("2,1|2,1", 2)
        T = enumerate_syt(parse_multipartition("2|1", 2))[1]
        products = [lambda: nonsymmetric_norm((5, 0, 3), T),
                    lambda: symmetric_norm(parse_assignment("0,2/2|1,3/5", shape)),
                    lambda: minimal_norm(shape),
                    lambda: removal_correction(shape, BoxRef(1, 2, 1))]
        for product in products:
            listed = []
            with monkeypatch.context() as m:
                _wrap_count(m, lambda keys: listed.append(len(keys)))
                expect = product()
            with monkeypatch.context() as m:
                m.setattr(norms, "MAX_FORMS", sum(listed))
                assert product() == expect
                m.setattr(norms, "MAX_FORMS", sum(listed) - 1)
                with pytest.raises(ValueError, match=f"^the product would list more "
                                                     f"than {sum(listed) - 1} forms$"):
                    product()


class TestPochhammerProducts:
    def test_single_box(self):
        h, e = pochhammer_products(parse_multipartition("1"))
        assert proportional(h, FactoredScalar(1)) == 1
        assert proportional(e, FactoredScalar(1)) == 1

    def test_column_two(self):
        h, _ = pochhammer_products(parse_multipartition("1,1"))
        assert proportional(h, hook_product(parse_multipartition("1,1"))) is not None

    def test_proportionality_with_r_power_constants(self):
        for r in (1, 2, 3):
            for n in range(5):
                for shape in enumerate_multipartitions(r, n):
                    h_alt, e_alt = pochhammer_products(shape)
                    a1 = proportional(hook_product(shape), h_alt)
                    a2 = proportional(extra_product(shape), e_alt)
                    assert a1 is not None and a1 != 0, shape.as_text()
                    assert a2 is not None and a2 != 0, shape.as_text()
                    # constants are (up to sign) powers of r
                    for a in (a1, a2):
                        num, den = abs(a.numerator), a.denominator
                        for base, val in ((num, num), (den, den)):
                            while val % max(r, 2) == 0 and r > 1:
                                val //= r
                            assert r == 1 or val == 1, (shape.as_text(), a)


class TestBlockFactor:
    def test_trivial_when_values_distinct(self):
        shape = parse_multipartition("1,1")
        S = minimal_assignment(shape)
        assert symmetrization_block_factor(S) == FactoredScalar(1)

    def test_row_block_is_stabilizer_factorial(self, rng):
        from conftest import small_point
        for text in ("2", "3", "2,1"):
            shape = parse_multipartition(text)
            S = minimal_assignment(shape)
            c = symmetrization_block_factor(S)
            expect = math.prod(math.factorial(row) for comp in shape.components for row in comp)
            assert c.evaluate(small_point(1, rng)) == expect


class TestPinnedText:
    """Rendered closed formulas, several factors each and some with
    denominators, pinned to literal text."""

    @pytest.mark.parametrize("formula, expect", [
        (lambda: nonsymmetric_norm((2, 0, 1), enumerate_syt(parse_multipartition("1|1,1", 2))[0]),
         "2 * (1 + d0 - d1) * (1 + d0 - d1) * (1 + c0) * (1 + 4*c0 + d0 - d1)"
         " / (1 + 2*c0 + d0 - d1)"),
        (lambda: nonsymmetric_norm((0, 2, 1), parse_tableau("1,3/2", parse_multipartition("2,1", 1))),
         "1 * (1 - 3*c0) * (1 + c0) * (2 - c0) / (1 - 2*c0)"),
        (lambda: symmetric_norm(minimal_assignment(parse_multipartition("2|1", 2))),
         "6 * (1 + 4*c0 + d0 - d1)"),
        (lambda: symmetric_norm(parse_assignment("0,2|3", parse_multipartition("2|1", 2))),
         "24 * (1 - 2*c0 - d0 + d1) * (1 - 2*c0 + d0 - d1) * (1 + 4*c0 + d0 - d1)"
         " * (3 + 2*c0 + d0 - d1) / (1 + d0 - d1)"),
        (lambda: symmetric_norm(parse_assignment("0,3/1", parse_multipartition("2,1", 1))),
         "36 * (1 - 3*c0) * (1 + 2*c0) / (1 - 2*c0)"),
        (lambda: minimal_norm(parse_multipartition("2,1|1", 2)),
         "48 * (1 + 3*c0) * (1 + 4*c0 - d0 + d1) * (1 + 4*c0 + d0 - d1)"),
        (lambda: hook_product(parse_multipartition("2,1|1", 2)),
         "2 * (1 + 3*c0) * (1 + 4*c0 - d0 + d1) * (1 + 4*c0 + d0 - d1)"),
        (lambda: minimal_norm(parse_multipartition("1|1|1", 3)),
         "6 * (1 + 3*c0 + d1 - d2) * (1 + 3*c0 + d0 - d1) * (2 + 3*c0 + d0 - d2)"),
        (lambda: removal_correction(parse_multipartition("2,1|1", 2), BoxRef(0, 2, 1)),
         "2 * (1 + 3*c0) * (1 + 4*c0 - d0 + d1)"),
        (lambda: extra_product(parse_multipartition("|1,1", 2)),
         "1 * (1 + d0 - d1) * (1 + 2*c0 + d0 - d1) * (3 + 2*c0 + d0 - d1)"),
        (lambda: extra_product(parse_multipartition("|1|1,1", 3)),
         "1 * (1 + d1 - d2) * (1 + d0 - d1) * (2 + d0 - d2) * (2 + 3*c0 + d0 - d2)"
         " * (5 + 3*c0 + d0 - d2)"),
    ])
    def test_formula_text(self, formula, expect):
        assert str(formula()) == expect
