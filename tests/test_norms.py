import math
from fractions import Fraction

import pytest

from cherednik_kit.combinatorics import (
    BoxRef,
    MultiPartition,
    assignment_pair,
    enumerate_multipartitions,
    enumerate_syt,
    parse_assignment,
    parse_multipartition,
    parse_tableau,
)
from cherednik_kit.norms import (
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
        assert val == FactoredScalar.one(2)

    def test_single_cell_factorial(self):
        shape = parse_multipartition("1")
        T = enumerate_syt(shape)[0]
        for m in range(5):
            val = nonsymmetric_norm((m,), T)
            assert val == FactoredScalar.from_rational(1, math.factorial(m))

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
            assert symmetric_norm(S) == FactoredScalar.from_rational(1, math.factorial(n))

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
        assert hook_product(parse_multipartition("1")) == FactoredScalar.one(1)

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
                assert extra_product(shape) == FactoredScalar.one(1)

    def test_extra_conventions(self):
        assert extra_product(parse_multipartition("1|")) == FactoredScalar.one(2)
        e = extra_product(parse_multipartition("|1"))
        assert str(e) == "1 * (1 + d0 - d1)"


class TestMinimalNorm:
    def test_row(self):
        assert minimal_norm(MultiPartition(1, ((3,),))) == FactoredScalar.from_rational(1, 6)

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


class TestPochhammerProducts:
    def test_single_box(self):
        h, e = pochhammer_products(parse_multipartition("1"))
        assert proportional(h, FactoredScalar.one(1)) == 1
        assert proportional(e, FactoredScalar.one(1)) == 1

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
        assert symmetrization_block_factor(S) == FactoredScalar.one(1)

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
