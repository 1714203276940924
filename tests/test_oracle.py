import itertools
import math
import random
from fractions import Fraction

import pytest

from cherednik_kit.cyclotomic import CyclotomicField
from cherednik_kit.combinatorics import (
    MultiPartition,
    assignment_pair,
    enumerate_multipartitions,
    enumerate_syt,
    parse_multipartition,
    perm_longest,
    shape_assignment,
    sorting_data,
    perm_inverse,
)
from cherednik_kit.norms import (
    minimal_assignment,
    minimal_norm,
    nonsymmetric_norm,
    spectrum,
    symmetric_norm,
    symmetrization_block_factor,
)
from cherednik_kit.oracle import (
    EigenvalueCollision,
    ModuleElement,
    StandardModule,
    ZeroGapError,
    _kernel,
    build_irrep,
    symmetrizer_identity_check,
    validate_irrep,
    verify_report,
)
from cherednik_kit.scalars import ParameterPoint

from conftest import compositions, enumerate_assignments, small_point
from test_acceptance import ORACLE_RANGE


class TestIrrep:
    def test_trivial_shape_one_dimensional(self):
        for r in (1, 2, 3):
            shape = MultiPartition(r, ((2,),) + ((),) * (r - 1))
            m = build_irrep(shape)
            assert m.dim == 1
            assert all(col == (m.field.one,) for col in m.s_mats[0])
            assert m.zeta_residues[0][0] == 0

    def test_determinant_shape(self):
        r = 3
        shape = MultiPartition(r, ((), (), (1, 1)))
        m = build_irrep(shape)
        assert m.dim == 1
        # zeta acts by zeta^{r-1}, reflections by -1
        assert m.zeta_matrix(1)[0][0] == m.field.zeta_power(r - 1)
        assert m.s_mats[0][0][0] == -m.field.one

    def test_dimension_identity(self):
        for r, n in [(2, 3), (3, 2)]:
            total = sum(build_irrep(s).dim ** 2 for s in enumerate_multipartitions(r, n))
            assert total == r ** n * math.factorial(n)

    def test_validation_catches_corruption(self):
        m = build_irrep(parse_multipartition("2,1"))
        bad = [list(row) for row in m.s_mats[0]]
        bad[0][0] = bad[0][0] + m.field.one
        m.s_mats[0] = tuple(tuple(row) for row in bad)
        m._perm_cache = {}
        assert validate_irrep(m)

    def test_gram_positive(self):
        for shape in enumerate_multipartitions(2, 3):
            m = build_irrep(shape)
            assert all(g > 0 for g in m.gram)


class TestYAction:
    def test_kills_degree_zero(self, rng):
        mod = StandardModule(parse_multipartition("1,1|1"), small_point(2, rng))
        for t in range(mod.irrep.dim):
            for i in (1, 2, 3):
                assert mod.y_act(i, mod.basis_vector(t)).is_zero()

    def test_rank_one_weyl_relation(self):
        mod = StandardModule(parse_multipartition("1"), ParameterPoint(1, Fraction(2, 3), [0]))
        v = mod.basis_vector(0)
        assert mod.y_act(1, mod.x_mul(1, v)) == v

    def test_y_commutation_2_2(self, rng):
        mod = StandardModule(parse_multipartition("1|1"), small_point(2, rng))
        for deg in range(4):
            for nu in mod.monomials(deg):
                for t in range(mod.irrep.dim):
                    e = mod.basis_vector(t, nu)
                    lhs = mod.y_act(1, mod.y_act(2, e))
                    rhs = mod.y_act(2, mod.y_act(1, e))
                    assert lhs == rhs

    def test_defining_relations_sample(self, rng):
        for shape_text, r in [("2|", 2), ("1|1", 2), ("1,1|", 2)]:
            mod = StandardModule(parse_multipartition(shape_text), small_point(2, rng))
            n = mod.n
            for deg in range(3):
                for nu in mod.monomials(deg):
                    for t in range(mod.irrep.dim):
                        e = mod.basis_vector(t, nu)
                        for i in range(1, n + 1):
                            for j in range(1, n + 1):
                                lhs = (mod.y_act(i, mod.x_mul(j, e))
                                       - mod.x_mul(j, mod.y_act(i, e)))
                                assert lhs == mod._bracket(i, j, nu, t)


class TestZAction:
    def test_degree_zero_diagonal_matches_spectrum(self, rng):
        for shape_text in ("1|1", "2,1|", "|2"):
            shape = parse_multipartition(shape_text)
            point = small_point(2, rng)
            mod = StandardModule(shape, point)
            n = shape.size
            mu0 = (0,) * n
            for T in mod.irrep.tableaux:
                elt = mod.apply_perm(perm_inverse(sorting_data(mu0)[2]), mod.tableau_vector(T))
                data = spectrum(mu0, T)
                for i in range(1, n + 1):
                    lam = mod.eigenvalue_of(i, elt, "z")
                    assert lam == mod.field.from_rational(data[i - 1].z_eigenvalue.evaluate(point))

    def test_z_commute_degree3(self, rng):
        mod = StandardModule(parse_multipartition("1|1"), small_point(2, rng))
        for deg in range(4):
            for nu in mod.monomials(deg):
                for t in range(mod.irrep.dim):
                    e = mod.basis_vector(t, nu)
                    assert mod.z_act(1, mod.z_act(2, e)) == mod.z_act(2, mod.z_act(1, e))

    def test_triangular_in_composition_order(self, rng):
        from cherednik_kit.combinatorics import composition_compare, Comparison
        shape = parse_multipartition("1|1")
        point = small_point(2, rng)
        mod = StandardModule(shape, point)
        for deg in range(3):
            for nu in mod.monomials(deg):
                for t, T in enumerate(mod.irrep.tableaux):
                    elt = mod.x_power(nu, mod.apply_perm(
                        perm_inverse(sorting_data(nu)[2]), mod.tableau_vector(T)))
                    data = spectrum(nu, T)
                    for i in (1, 2):
                        tw = mod.twisted_coordinates(mod.z_act(i, elt))
                        diag = tw.pop((nu, t), mod.field.zero)
                        assert diag == mod.field.from_rational(
                            data[i - 1].z_eigenvalue.evaluate(point))
                        for (kappa, _), _c in tw.items():
                            assert composition_compare(nu, kappa) is Comparison.GREATER


class TestPairing:
    def test_gram_restriction(self, rng):
        mod = StandardModule(parse_multipartition("2,1|"), small_point(2, rng))
        for s in range(mod.irrep.dim):
            for t in range(mod.irrep.dim):
                val = mod.pairing(mod.basis_vector(s), mod.basis_vector(t))
                if s == t:
                    assert val == mod.field.from_rational(mod.irrep.gram[t])
                else:
                    assert val.is_zero()

    def test_rank_one_factorial(self):
        mod = StandardModule(parse_multipartition("1"), ParameterPoint(1, Fraction(1, 5), [0]))
        for m in range(5):
            v = mod.x_power((m,), mod.basis_vector(0))
            assert mod.norm(v) == math.factorial(m)

    def test_self_adjointness_random(self, rng):
        mod = StandardModule(parse_multipartition("1|1"), small_point(2, rng))
        for _ in range(4):
            terms_u = {}
            terms_v = {}
            for nu in mod.monomials(2):
                for t in range(mod.irrep.dim):
                    if rng.random() < 0.5:
                        terms_u[(nu, t)] = mod.field.from_rational(rng.randint(-4, 4))
                    if rng.random() < 0.5:
                        terms_v[(nu, t)] = mod.field.from_rational(rng.randint(-4, 4))
            u, v = ModuleElement(mod, terms_u), ModuleElement(mod, terms_v)
            for i in (1, 2):
                assert mod.pairing(mod.z_act(i, u), v) == mod.pairing(u, mod.z_act(i, v))
            assert mod.pairing(u, v) == mod.pairing(v, u).conjugate()


class TestEigenvectors:
    def test_degree_zero_is_twisted_tableau_vector(self, rng):
        shape = parse_multipartition("1|1")
        mod = StandardModule(shape, small_point(2, rng))
        n = shape.size
        for T in mod.irrep.tableaux:
            f = mod.eigenvector((0,) * n, T)
            expect = mod.apply_perm(perm_longest(n), mod.tableau_vector(T))
            assert f == expect

    def test_collision_detection_and_retry(self, rng):
        # on the one-row shape at c0 = 1, d = 0, the eigenvalue tuples of
        # (2,0) and (0,2) coincide: (3 - 2c0, 1) = (1, 3 - 2c0)
        shape = parse_multipartition("2|")
        degenerate = StandardModule(shape, ParameterPoint(2, Fraction(1), [0, 0]))
        with pytest.raises(EigenvalueCollision):
            degenerate.eigenvector((2, 0), degenerate.irrep.tableaux[0])
        m2, f = degenerate.eigenvector_generic((2, 0), degenerate.irrep.tableaux[0],
                                               random.Random(1))
        assert not f.is_zero() and m2.point != degenerate.point

    def test_norm_cross_check_2_2(self, rng):
        shape = parse_multipartition("1|1")
        for _ in range(3):
            point = small_point(2, rng)
            mod = StandardModule(shape, point)
            for T in mod.irrep.tableaux:
                gam = mod.gram_weight(T)
                for mu in [(1, 0), (0, 1), (2, 0), (1, 1), (2, 2)]:
                    try:
                        f = mod.eigenvector(mu, T)
                    except EigenvalueCollision:
                        continue
                    assert mod.norm(f) == gam * nonsymmetric_norm(mu, T).evaluate(point)

    def test_sigma_recursion_consistency(self, rng):
        # applying an intertwiner at a strict descent reaches the eigenvector
        # of the swapped composition, up to a nonzero constant
        shape = parse_multipartition("1|1")
        mod = StandardModule(shape, small_point(2, rng))
        T = mod.irrep.tableaux[0]
        mu = (0, 2)
        f = mod.eigenvector(mu, T)
        sf = mod.intertwiner(1, f)
        g = mod.eigenvector((2, 0), T)
        ratio = None
        for key, c in sf.terms.items():
            assert key in g.terms
            q = c / g.terms[key]
            ratio = q if ratio is None else ratio
            assert q == ratio
        assert ratio is not None and not ratio.is_zero()


class TestIntertwiners:
    def test_braid_on_eigenvector(self, rng):
        shape = parse_multipartition("2,1|")
        mod = StandardModule(shape, small_point(2, rng))
        T = mod.irrep.tableaux[0]
        f = mod.eigenvector((0, 1, 2), T)
        lhs = mod.intertwiner(1, mod.intertwiner(2, mod.intertwiner(1, f)))
        rhs = mod.intertwiner(2, mod.intertwiner(1, mod.intertwiner(2, f)))
        assert lhs == rhs

    def test_square_and_norm_scaling(self, rng):
        shape = parse_multipartition("1|1")
        mod = StandardModule(shape, small_point(2, rng))
        T = mod.irrep.tableaux[0]
        f = mod.eigenvector((0, 1), T)
        norm_before = mod.norm(f)
        sf = mod.intertwiner(1, f)
        res_eq = (mod.eigenvalue_of(1, f, "zeta") == mod.eigenvalue_of(2, f, "zeta"))
        if res_eq:
            g = mod.field.from_rational(
                Fraction(2) * mod.point.c0) / (
                    mod.eigenvalue_of(1, f, "z") - mod.eigenvalue_of(2, f, "z"))
        else:
            g = mod.field.zero
        assert mod.intertwiner(1, sf) == f.scale(mod.field.one - g * g)
        if not sf.is_zero():
            assert mod.norm(sf) == ((mod.field.one - g * g)
                                    * mod.field.from_rational(norm_before)).as_rational()

    def test_non_column_strict_gives_sign_eigenvector(self, rng):
        # mu_i = mu_{i+1} with the assignment failing column-strictness at the
        # relevant boxes: sigma_i f = 0, so s_i f = -f
        shape = parse_multipartition("1,1")
        mod = StandardModule(shape, small_point(1, rng))
        T = mod.irrep.tableaux[0]
        mu = (0, 0)
        S = shape_assignment(mu, T)
        assert not S.is_column_strict()
        f = mod.eigenvector(mu, T)
        sf = mod.intertwiner(1, f)
        assert sf.is_zero()
        from cherednik_kit.combinatorics import simple_transposition
        assert mod.apply_perm(simple_transposition(2, 1), f) == f.scale(-1)

    def test_zero_gap_error(self):
        # c0 = 0 collapses the spectral gap of the two-box column while the
        # residues match: the intertwiner hits its pole
        shape = parse_multipartition("1,1|")
        mod = StandardModule(shape, ParameterPoint(2, 0, [Fraction(1, 3), Fraction(2, 7)]))
        f = mod.eigenvector((0, 0), mod.irrep.tableaux[0])
        with pytest.raises(ZeroGapError):
            mod.intertwiner(1, f)


class TestSymmetrize:
    def test_trivial_shape(self, rng):
        shape = parse_multipartition("3|")
        mod = StandardModule(shape, small_point(2, rng))
        v = mod.basis_vector(0)
        assert mod.symmetrize(v) == v.scale(6)

    def test_non_column_strict_assignments_die(self, rng):
        # e.f = 0 whenever S(mu, T) fails column-strictness
        checked = 0
        for r in (1, 2):
            for n in (2, 3):
                for shape in enumerate_multipartitions(r, n):
                    mod = None
                    for T in enumerate_syt(shape):
                        for mu in compositions(n, 3):
                            if tuple(sorted(mu)) != mu:
                                continue
                            S = shape_assignment(mu, T)
                            if S.is_column_strict():
                                continue
                            if mod is None:
                                mod = StandardModule(shape, small_point(r, rng))
                            try:
                                f = mod.eigenvector(mu, T)
                            except EigenvalueCollision:
                                mod2, f = mod.eigenvector_generic(mu, T, rng)
                                assert mod2.symmetrize(f).is_zero()
                                checked += 1
                                continue
                            assert mod.symmetrize(f).is_zero(), (shape.as_text(), mu, T.as_text())
                            checked += 1
        assert checked >= 10

    def test_same_assignment_proportional(self, rng):
        # S(mu,T1) = S(mu,T2) forces proportional symmetrizations
        shape = parse_multipartition("2,1")
        mod = StandardModule(shape, small_point(1, rng))
        mu = (0, 1, 1)
        t1, t2 = mod.irrep.tableaux
        s1, s2 = shape_assignment(mu, t1), shape_assignment(mu, t2)
        assert s1.as_text() == s2.as_text() and s1.is_column_strict()
        g1 = mod.symmetrize(mod.eigenvector(mu, t1))
        g2 = mod.symmetrize(mod.eigenvector(mu, t2))
        ratios = set()
        for key, c in g1.terms.items():
            ratios.add(c / g2.terms[key])
        assert len(ratios) == 1

    def test_leading_term_and_parameter_independence(self, rng):
        # symmetrized minimal invariant: leading term |stab(mu)| x^{mu+} w_0 v_T,
        # coefficients identical across parameter points
        shape = parse_multipartition("1,1|1")
        S = minimal_assignment(shape)
        mu, T = assignment_pair(S)
        n = shape.size
        results = []
        for _ in range(3):
            mod = StandardModule(shape, small_point(2, rng))
            g = mod.symmetrize(mod.eigenvector(mu, T))
            results.append(g)
        for g in results[1:]:
            assert g.terms == results[0].terms
        mod = StandardModule(shape, small_point(2, rng))
        mu_plus = tuple(sorted(mu, reverse=True))
        from collections import Counter
        n_mu = math.prod(math.factorial(c) for c in Counter(mu).values())
        lead = mod.apply_perm(perm_longest(n), mod.tableau_vector(T)).scale(n_mu)
        got = {t: c for (nu, t), c in results[0].terms.items() if nu == mu_plus}
        want = {t: c for (nu, t), c in lead.terms.items()}
        assert got == want


class TestOracleNorm:
    def test_tableau_vector_norm_is_gram(self, rng):
        mod = StandardModule(parse_multipartition("2,1|"), small_point(2, rng))
        for t, T in enumerate(mod.irrep.tableaux):
            assert mod.norm(mod.tableau_vector(T)) == mod.irrep.gram[t]

    def test_symmetrized_matches_closed_formula(self, rng):
        shape = parse_multipartition("1|1")
        point = small_point(2, rng)
        mod = StandardModule(shape, point)
        for S in enumerate_assignments(shape, 3):
            mu, T = assignment_pair(S)
            gam = mod.gram_weight(T)
            f = mod.eigenvector(mu, T)
            g = mod.symmetrize(f)
            expect = (gam * symmetrization_block_factor(S).evaluate(point)
                      * symmetric_norm(S).evaluate(point))
            assert mod.norm(g) == expect

    def test_minimal_matches_closed_formula(self, rng):
        for r in (1, 2):
            for n in (1, 2, 3):
                for shape in enumerate_multipartitions(r, n):
                    point = small_point(r, rng)
                    mod = StandardModule(shape, point)
                    S = minimal_assignment(shape)
                    mu, T = assignment_pair(S)
                    mod2, f = mod.eigenvector_generic(mu, T, rng)
                    g = mod2.symmetrize(f)
                    expect = (mod2.gram_weight(T)
                              * symmetrization_block_factor(S).evaluate(mod2.point)
                              * minimal_norm(shape).evaluate(mod2.point))
                    assert mod2.norm(g) == expect


class TestSymmetrizerIdentity:
    def test_n2_hand(self):
        assert symmetrizer_identity_check(2, [0, 1], Fraction(3, 7))

    def test_n3_random(self, rng):
        for _ in range(20):
            z = []
            while len(set(z)) != 3:
                z = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3)]
            c0 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            assert symmetrizer_identity_check(3, z, c0, r=rng.randint(1, 3))

    def test_zero_coupling(self):
        assert symmetrizer_identity_check(4, [0, 1, 2, 3], 0)

    def test_coincident_z_rejected(self):
        with pytest.raises(ValueError):
            symmetrizer_identity_check(2, [1, 1], Fraction(1))


def test_verify_report_smoke():
    rep = verify_report(2, 2, degree=1, seed=5)
    assert rep["ok"]
    names = {c["name"] for c in rep["checks"]}
    assert "eigenvector norms vs closed formula" in names
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_verify_report_cancelled_factor_is_not_a_pole():
    # the closed nonsymmetric norm here has a factor 1 - 2*c0 in both numerator
    # and denominator, and the drawn point has c0 = 1/2
    assert verify_report(2, 3, degree=3, seed=275012945, shape_text="|3")["ok"]


def test_verify_report_frontier():
    # r = 4 is a degree-2 field with a non-trivial conjugation; (1, 4) is the
    # largest symmetric-group case
    assert verify_report(4, 2, degree=2, seed=7)["ok"]
    assert verify_report(1, 4, degree=2, seed=7)["ok"]


def _dense_kernel(rows, width, f):
    """Reference: dense Gauss-Jordan elimination, every entry of every row
    updated at every pivot."""
    mat = [list(row) for row in rows if any(not c.is_zero() for c in row)]
    pivots = []
    for col in range(width):
        pivot = next((k for k in range(len(pivots), len(mat))
                      if not mat[k][col].is_zero()), None)
        if pivot is None:
            continue
        top = len(pivots)
        mat[top], mat[pivot] = mat[pivot], mat[top]
        inv = mat[top][col].inverse()
        mat[top] = [c * inv for c in mat[top]]
        for k in range(len(mat)):
            if k != top:
                factor = mat[k][col]
                mat[k] = [a - factor * b for a, b in zip(mat[k], mat[top])]
        pivots.append(col)
    basis = []
    for fc in (c for c in range(width) if c not in pivots):
        vec = [f.zero] * width
        vec[fc] = f.one
        for k, pc in enumerate(pivots):
            vec[pc] = -mat[k][fc]
        basis.append(vec)
    return basis


def _random_cyc(f, rng, zero_share=0.4):
    if rng.random() < zero_share:
        return f.zero
    out = f.zero
    for k in range(f.degree):
        out = out + f.zeta_power(k) * Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return out


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_kernel_matches_dense_reference(r):
    # rows = A * B with A = [I; random] (m x k) and B = [I | random] (k x width),
    # columns and rows shuffled: the rank is exactly k
    f = CyclotomicField(r)
    rng = random.Random(1000 + r)
    for _ in range(12):
        width = rng.randint(1, 6)
        rank = rng.randint(0, width)
        m = rank + rng.randint(0, 4)
        a = [[f.one if i == j else f.zero for j in range(rank)] for i in range(rank)]
        a += [[_random_cyc(f, rng) for _ in range(rank)] for _ in range(m - rank)]
        b = [[f.one if i == j else f.zero for j in range(rank)]
             + [_random_cyc(f, rng) for _ in range(width - rank)] for i in range(rank)]
        cols = list(range(width))
        rng.shuffle(cols)
        b = [[row[c] for c in cols] for row in b]
        rows = [[sum((a[i][k] * b[k][j] for k in range(rank)), f.zero) for j in range(width)]
                for i in range(m)]
        rng.shuffle(rows)
        basis = _kernel(rows, width, f)
        assert len(basis) == width - rank
        for vec in basis:
            for row in rows:
                assert sum((x * v for x, v in zip(row, vec)), f.zero).is_zero()
        assert basis == _dense_kernel(rows, width, f)


def _kernel_eigenvector(mod, mu, T):
    """Reference: the joint eigenvector by one stacked elimination of the
    z_i - lambda_i over the whole residue block of its degree, after a scan
    of the predicted spectra of every (nu, S) of the block for collisions."""
    f, n = mod.field, mod.n
    data = spectrum(mu, T)
    target_res = tuple(d.zeta_residue for d in data)
    target_z = tuple(d.z_eigenvalue.evaluate(mod.point) for d in data)
    for nu in mod.monomials(sum(mu)):
        for S in mod.irrep.tableaux:
            sdata = spectrum(nu, S)
            if ((nu, S) != (mu, T)
                    and tuple(d.zeta_residue for d in sdata) == target_res
                    and tuple(d.z_eigenvalue.evaluate(mod.point) for d in sdata) == target_z):
                raise EigenvalueCollision(f"{(mu, T.as_text())} vs {(nu, S.as_text())}")
    block = [(nu, t) for nu in mod.monomials(sum(mu)) for t in range(mod.irrep.dim)
             if mod.residue_tuple(nu, t) == target_res]
    pos = {key: k for k, key in enumerate(block)}
    stacked = []
    for i in range(1, n + 1):
        mat = [[f.zero] * len(block) for _ in block]
        for b, key in enumerate(block):
            for key2, c in mod.z_act(i, ModuleElement(mod, {key: f.one})).terms.items():
                mat[pos[key2]][b] = c
            mat[b][b] = mat[b][b] - f.from_rational(target_z[i - 1])
        stacked.extend(mat)
    kernel = _kernel(stacked, len(block), f)
    if len(kernel) != 1:
        raise EigenvalueCollision(f"kernel dimension {len(kernel)}")
    lead = mod.x_power(mu, mod.apply_perm(perm_inverse(sorting_data(mu)[2]),
                                          mod.tableau_vector(T)))
    anchor, want = min(lead.terms.items())
    got = kernel[0][pos[anchor]]
    if got.is_zero():
        raise EigenvalueCollision("kernel vector misses the leading term")
    scale = want / got
    return ModuleElement(mod, {key: c * scale for key, c in zip(block, kernel[0])})


@pytest.mark.parametrize("r, n", ORACLE_RANGE + [(1, 4), (4, 2)])
def test_eigenvector_matches_kernel_reference(r, n):
    # the triangular solve may succeed where the reference reports a
    # collision (with a (nu, S) that z never reaches from (mu, T)), never
    # the other way round; its norm then still matches the closed formula
    rng = random.Random(7000 + 10 * r + n)
    agreed = 0
    for shape in enumerate_multipartitions(r, n):
        mod = StandardModule(shape, small_point(r, rng))
        for T in mod.irrep.tableaux:
            for mu in compositions(n, 2):
                case = (shape.as_text(), mu, T.as_text())
                try:
                    reference = _kernel_eigenvector(mod, mu, T)
                except EigenvalueCollision:
                    try:
                        f = mod.eigenvector(mu, T)
                    except EigenvalueCollision:
                        continue
                    expect = mod.gram_weight(T) * nonsymmetric_norm(mu, T).evaluate(mod.point)
                    assert mod.norm(f) == expect, case
                    continue
                assert mod.eigenvector(mu, T) == reference, case
                agreed += 1
    assert agreed > 0


@pytest.mark.parametrize("mu", [(0, 0, 0), (0, 1, 1)])
def test_collision_between_tableaux_of_the_leading_slice(mu):
    # at c0 = 0 the z_i no longer see contents, so the two tableaux of
    # shape 2,1 share every eigenvalue
    mod = StandardModule(parse_multipartition("2,1"), ParameterPoint(1, Fraction(0), [0]))
    for T in mod.irrep.tableaux:
        with pytest.raises(EigenvalueCollision):
            mod.eigenvector(mu, T)
        with pytest.raises(EigenvalueCollision):
            _kernel_eigenvector(mod, mu, T)


def test_eigenvector_does_not_use_the_closed_spectrum(monkeypatch, rng):
    import cherednik_kit.oracle as oracle

    def closed_formula(*_args):
        raise AssertionError("the oracle read the closed-formula spectrum")

    point = small_point(2, rng)
    mod = StandardModule(parse_multipartition("1|1"), point)
    T = mod.irrep.tableaux[0]
    expect = mod.gram_weight(T) * nonsymmetric_norm((2, 1), T).evaluate(point)
    monkeypatch.setattr(oracle, "spectrum", closed_formula)
    assert mod.norm(mod.eigenvector((2, 1), T)) == expect


def test_verify_report_rejects_a_shape_of_another_size():
    with pytest.raises(ValueError, match="size 3"):
        verify_report(1, 2, shape_text="3")


@pytest.mark.parametrize("corruption", ["cycle", "off-diagonal"])
def test_eigenvector_rejects_a_z_action_that_is_not_triangular(corruption, rng):
    # r = 1, so every key is in the residue block; the solve takes its
    # coordinates from z_1 where it can, and the exact check must see z_3
    shape, point, mu = parse_multipartition("2,1"), small_point(1, rng), (1, 0, 1)
    T = build_irrep(shape).tableaux[0]
    lower = next(nu for nu, _ in StandardModule(shape, point).eigenvector(mu, T).terms
                 if nu != mu)
    mod = StandardModule(shape, point)
    honest = mod._z_basis

    def corrupted(i, key):
        image = honest(i, key)
        if corruption == "cycle" and i == 1 and key[0] == lower:
            return image + mod.basis_vector(key[1], mu)
        if corruption == "off-diagonal" and i == 3 and key[0] == mu:
            return image + mod.basis_vector(key[1], lower)
        return image

    mod._z_basis = corrupted
    with pytest.raises(AssertionError, match="not triangular"):
        mod.eigenvector(mu, T)
