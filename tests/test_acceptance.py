"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single `[acceptance] criterion N: PASS` line on success
(run with -s or look at captured output); any failure is a hard assert.
"""
import itertools
import math
import random
from fractions import Fraction

import pytest

from cherednik_kit.aspherical import (
    factor_cover_check,
    hyperplanes_rectangle,
    hyperplanes_rpn,
    hyperplanes_sqrt,
)
from cherednik_kit.combinatorics import (
    Comparison,
    assignment_pair,
    dominance_compare,
    dominance_via_contents,
    enumerate_multipartitions,
    enumerate_syt,
    partitions_of,
    shape_assignment,
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
from cherednik_kit.oracle import (
    EigenvalueCollision,
    StandardModule,
    build_irrep,
    symmetrizer_identity_check,
)
from cherednik_kit.orders import (
    OrderContext,
    assemble,
    counting_identity_check,
    disassemble,
    equiv_c,
    geq_c,
    geq_c_quotient,
    linkage_matching,
)
from cherednik_kit.scalars import FactoredScalar, ParameterPoint, PoleError, proportional

from conftest import (compositions, enumerate_assignments, small_point, tableau_vector,
                      twisted_coordinates)

ORACLE_RANGE = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]


def _passed(text):
    print(f"[acceptance] {text}: PASS")


def _eigen_with_fresh_point(shape, mu, T, rng, irrep, evaluate=None):
    """Eigenvector at a random small point and evaluate(point), the closed
    formula's value there (None without one), redrawing on eigenvalue
    collisions and on a PoleError from evaluate."""
    for _ in range(12):
        module = StandardModule(shape, small_point(shape.r, rng), irrep=irrep)
        try:
            value = None if evaluate is None else evaluate(module.point)
            return module, module.eigenvector(mu, T), value
        except (EigenvalueCollision, PoleError):
            continue
    raise AssertionError("no generic point found")


def test_criterion_1_nonsymmetric_norms_vs_oracle(rng):
    total = 0
    for r, n in ORACLE_RANGE:
        mus = compositions(n, 3)
        for shape in enumerate_multipartitions(r, n):
            irrep = build_irrep(shape)
            tabs = irrep.tableaux
            for _ in range(3):
                module = StandardModule(shape, small_point(r, rng), irrep=irrep)
                for T in tabs:
                    gam = module.gram_weight(T)   # point-free
                    for mu in mus:
                        formula = nonsymmetric_norm(mu, T)
                        try:
                            value = formula.evaluate(module.point)
                            m2, f = module, module.eigenvector(mu, T)
                        except (EigenvalueCollision, PoleError):
                            m2, f, value = _eigen_with_fresh_point(shape, mu, T, rng, irrep, formula.evaluate)
                        assert m2.norm(f) == gam * value, (r, n, shape.as_text(), mu, T.as_text())
                        total += 1
    _passed(f"criterion 1 (oracle vs nonsymmetric norm formula, {total} cases)")


def test_criterion_2_symmetric_norms_vs_oracle(rng):
    total = 0
    for r, n in ORACLE_RANGE:
        for shape in enumerate_multipartitions(r, n):
            irrep = build_irrep(shape)
            for S in enumerate_assignments(shape, 3):
                mu, T = assignment_pair(S)
                block, norm = symmetrization_block_factor(S), symmetric_norm(S)
                # each factor evaluated on its own, so neither's pole cancels away
                m2, f, value = _eigen_with_fresh_point(
                    shape, mu, T, rng, irrep, lambda p: block.evaluate(p) * norm.evaluate(p))
                g = m2.symmetrize(f)
                assert m2.norm(g) == m2.gram_weight(T) * value, (r, n, shape.as_text(), S.as_text())
                total += 1
    _passed(f"criterion 2 (oracle vs symmetric norm formula, {total} assignments)")


def test_criterion_3_minimal_norm_factorization_and_recurrence():
    identities = extensions = 0
    for r in (1, 2, 3):
        for n in range(6):
            for shape in enumerate_multipartitions(r, n):
                lhs = symmetric_norm(minimal_assignment(shape))
                rhs = minimal_norm(shape)
                assert lhs == rhs, shape.as_text()
                assert rhs == math.factorial(n) * hook_product(shape) * extra_product(shape)
                assert not lhs.den
                identities += 1
                if n == 0:
                    continue
                S = minimal_assignment(shape)
                top = max(S.value(b) for b in shape.boxes())
                for b in shape.boxes():
                    comp = shape.components[b.component]
                    removable = (b.column == comp[b.row - 1]
                                 and not (b.row < len(comp) and comp[b.row] >= b.column))
                    if S.value(b) != top or not removable:
                        continue
                    rows = list(comp)
                    rows[b.row - 1] -= 1
                    comps = list(shape.components)
                    comps[b.component] = tuple(x for x in rows if x > 0)
                    chi = type(shape)(r, tuple(comps))
                    assert minimal_norm(shape) == (
                        minimal_norm(chi) * n * removal_correction(shape, b)), (
                        shape.as_text(), b)
                    extensions += 1
    assert extensions > 250
    _passed(f"criterion 3 (n! H E identity on {identities} shapes, "
            f"recurrence on {extensions} extensions)")


def test_criterion_4_pochhammer_proportionality():
    total = 0
    for r in (1, 2, 3):
        points = [ParameterPoint(r, Fraction(k, 7), [Fraction(k + 2 * l, 11) for l in range(r)])
                  for k in (1, -3, 5)]
        for n in range(5):
            for shape in enumerate_multipartitions(r, n):
                hook, extra = hook_product(shape), extra_product(shape)
                h_alt, e_alt = pochhammer_products(shape)
                a1 = proportional(hook, h_alt)
                a2 = proportional(extra, e_alt)
                assert a1 is not None and a1 != 0, shape.as_text()
                assert a2 is not None and a2 != 0, shape.as_text()
                # the factor comparison cross-checked by value; all four are
                # polynomials, so no point is a pole
                for p in points:
                    assert hook.evaluate(p) == a1 * h_alt.evaluate(p), shape.as_text()
                    assert extra.evaluate(p) == a2 * e_alt.evaluate(p), shape.as_text()
                total += 1
    _passed(f"criterion 4 (Pochhammer forms proportional on {total} shapes)")


def test_criterion_5_aspherical_arrangement():
    for r in (1, 2, 3, 4):
        for n in range(1, 7):
            a = [h.form.key() for h in hyperplanes_rectangle(r, n)]
            b = [h.form.key() for h in hyperplanes_sqrt(r, n)]
            assert a == b, (r, n)
    for r in (1, 2, 3):
        for n in range(1, 5):
            report = factor_cover_check(r, n)
            assert report.ok, (r, n, report)
    for n in range(1, 7):
        planes = hyperplanes_rectangle(1, n)
        assert all(h.kind == "c0" for h in planes)
        got = {Fraction(-h.form.const, h.form.c0) for h in planes}
        assert got == {Fraction(-k, m) for m in range(2, n + 1) for k in range(1, m)}
    _passed("criterion 5 (rectangle = sqrt r<=4 n<=6; factor cover r<=3 n<=4; "
            "r=1 family exact)")


@pytest.mark.xfail(strict=True, reason="hyperplanes_rpn restricts the G(r,1,n) planes as "
                   "they are; at (2, 2, 3) that gives 9 c0 values, S4 has 5")
def test_criterion_5_g223_arrangement_is_that_of_s4():
    """G(2,2,3) and S4 are isomorphic reflection groups on C^3, each with one
    class of reflections, so their aspherical c0 values agree."""
    def c0_values(planes):
        assert all(not any(h.form.d) for h in planes)
        return {Fraction(-h.form.const, h.form.c0) for h in planes}

    assert c0_values(hyperplanes_rpn(2, 2, 3)) == c0_values(hyperplanes_rectangle(1, 4))


def _lattice_context(r, rng):
    c0 = Fraction(rng.randint(1, 2))
    a = [rng.randint(-2, 2) for _ in range(r - 1)]
    a.append(-sum(a))
    d = [0] * r
    for i in range(1, r + 1):
        d[(r - i) % r] = r * c0 * a[i - 1]
    return OrderContext(ParameterPoint(r, c0, d))


def test_criterion_6_ordering_suite(rng):
    matched = implied = 0
    for r in (1, 2):
        for n in (2, 3, 4):
            shapes = enumerate_multipartitions(r, n)
            for _ in range(2):
                ctx = _lattice_context(r, rng)
                for a in shapes:
                    for b in shapes:
                        if linkage_matching(a, b, ctx) is not None:
                            assert geq_c(a, b, ctx) and equiv_c(a, b, ctx)
                            matched += 1
                        if geq_c(a, b, ctx) and equiv_c(a, b, ctx):
                            assert geq_c_quotient(a, b, ctx)
                            implied += 1
    done = 0
    while done < 200:
        r = rng.randint(1, 3)
        n = rng.randint(0, 6)
        shapes = enumerate_multipartitions(r, n)
        s = shapes[rng.randrange(len(shapes))]
        a = [rng.randint(-2, 2) for _ in range(r - 1)]
        a.append(-sum(a))
        j = Fraction(rng.randint(-2 * (n + 2), 2 * (n + 2)), rng.randint(1, 2))
        assert counting_identity_check(s, tuple(a), j).ok, (r, s.as_text(), a, j)
        done += 1
    for r in (1, 2, 3, 4):
        for n in range(13):
            for lam in partitions_of(n):
                charges, quotient = disassemble(lam, r)
                assert assemble(charges, quotient) == lam
    for n in range(9):
        for lam in partitions_of(n):
            for chi in partitions_of(n):
                expect = dominance_compare(lam, chi) in (Comparison.GREATER, Comparison.EQUAL)
                assert dominance_via_contents(lam, chi) == expect
    _passed(f"criterion 6 (linkage=>order&equiv on {matched} pairs; quotient-order "
            f"implication on {implied} pairs; 200 counting identities; core/quotient "
            f"roundtrip n<=12 r<=4; dominance agreement n<=8)")


def test_criterion_7_structural_suite(rng):
    # group relations + dimension identity
    for r, n in ORACLE_RANGE:
        total = 0
        for shape in enumerate_multipartitions(r, n):
            model = build_irrep(shape)  # raises on any failed relation
            total += model.dim ** 2
        assert total == r ** n * math.factorial(n), (r, n)

    # z-commutativity, self-adjointness, triangularity with predicted diagonal
    from cherednik_kit.combinatorics import composition_compare, perm_inverse, sorting_data
    from cherednik_kit.oracle import ModuleElement
    for r, n in [(1, 3), (2, 2), (3, 2)]:
        for shape in enumerate_multipartitions(r, n):
            point = small_point(r, rng)
            mod = StandardModule(shape, point)
            for deg in range(3):
                for nu in mod.monomials(deg):
                    for t, T in enumerate(mod.irrep.tableaux):
                        e = mod.basis_vector(t, nu)
                        for i in range(1, n + 1):
                            for j in range(i + 1, n + 1):
                                assert mod.z_act(i, mod.z_act(j, e)) == mod.z_act(
                                    j, mod.z_act(i, e))
                        twisted_elt = mod.x_power(nu, mod.apply_perm(
                            perm_inverse(sorting_data(nu)[2]), tableau_vector(mod, T)))
                        data = spectrum(nu, T)
                        for i in range(1, n + 1):
                            tw = twisted_coordinates(mod, mod.z_act(i, twisted_elt))
                            diag = tw.pop((nu, t), 0)
                            assert diag == data[i - 1].z_eigenvalue.evaluate(point)
                            for (kappa, _u), _c in tw.items():
                                assert composition_compare(nu, kappa) is Comparison.GREATER
            for _ in range(2):
                terms_u, terms_v = {}, {}
                for nu in mod.monomials(2):
                    for t in range(mod.irrep.dim):
                        if rng.random() < 0.5:
                            terms_u[(nu, t)] = rng.randint(-3, 3)
                        if rng.random() < 0.5:
                            terms_v[(nu, t)] = rng.randint(-3, 3)
                u, v = ModuleElement(mod, terms_u), ModuleElement(mod, terms_v)
                for i in range(1, n + 1):
                    assert mod.pairing(mod.z_act(i, u), v) == mod.pairing(u, mod.z_act(i, v))

    # braid relations and sigma^2 = 1 - f^2 on eigenvectors
    for shape_text, r, mu in [("2,1|", 2, (0, 1, 2)), ("1|1,1", 2, (0, 1, 2)),
                              ("1,1,1", 1, (0, 1, 2))]:
        from cherednik_kit.combinatorics import parse_multipartition
        shape = parse_multipartition(shape_text)
        irrep = build_irrep(shape)
        T = irrep.tableaux[0]
        m2, f, _ = _eigen_with_fresh_point(shape, mu, T, rng, irrep)
        lhs = m2.intertwiner(1, m2.intertwiner(2, m2.intertwiner(1, f)))
        rhs = m2.intertwiner(2, m2.intertwiner(1, m2.intertwiner(2, f)))
        assert lhs == rhs
        for i in (1, 2):
            res_eq = m2.zeta_residue(i, f) == m2.zeta_residue(i + 1, f)
            g = Fraction(0)
            if res_eq:
                g = Fraction(r) * m2.point.c0 / (
                    m2.eigenvalue_of(i, f) - m2.eigenvalue_of(i + 1, f))
            assert m2.intertwiner(i, m2.intertwiner(i, f)) == f.scale(1 - g * g)

    # symmetrizer kills non-column-strict assignments; equal assignments give
    # proportional symmetrizations
    killed = 0
    for r in (1, 2):
        for n in (2, 3):
            for shape in enumerate_multipartitions(r, n):
                irrep = build_irrep(shape)
                for T in irrep.tableaux:
                    for mu in compositions(n, 3):
                        if tuple(sorted(mu)) != mu:
                            continue
                        S = shape_assignment(mu, T)
                        if S.is_column_strict():
                            continue
                        m2, f, _ = _eigen_with_fresh_point(shape, mu, T, rng, irrep)
                        assert m2.symmetrize(f).is_zero(), (shape.as_text(), mu, T.as_text())
                        killed += 1
    assert killed >= 10

    # symmetrizer rational-function identity up to n = 4
    for n in (2, 3, 4):
        for _ in range(6):
            z = []
            while len(set(z)) != n:
                z = [Fraction(rng.randint(-10, 10), rng.randint(1, 3)) for _ in range(n)]
            c0 = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            assert symmetrizer_identity_check(n, z, c0, r=rng.randint(1, 3))

    _passed("criterion 7 (group relations, dimension identity, z-family "
            "properties, intertwiner relations, symmetrizer behavior, "
            f"symmetrizer identity n<=4; {killed} vanishing symmetrizations)")
