import ast
import collections
import dataclasses
import functools
import gc
import graphlib
import itertools
import math
import pathlib
import random
import tracemalloc
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cherednik_kit import oracle
from cherednik_kit.cyclotomic import CycNumber, CyclotomicField
from cherednik_kit.combinatorics import (
    MultiPartition,
    assignment_pair,
    enumerate_multipartitions,
    enumerate_syt,
    parse_multipartition,
    reduced_word,
    shape_assignment,
    simple_transposition,
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
from cherednik_kit.irrep import (BLOCK_DEGREE, _add_coeffs, _apply, _descent, _mat_mul, _swapped,
                                 validate_irrep)
from cherednik_kit.oracle import (
    EigenvalueCollision,
    ModuleElement,
    StandardModule,
    ZeroGapError,
    _kernel,
    build_irrep,
    symmetrizer_identity_check,
    verify_report,
)
from cherednik_kit.scalars import ParameterPoint, random_point

from conftest import (basis_vector, compositions, enumerate_assignments, perm_longest, perm_mul,
                      small_point, tableau_vector, twisted_coordinates, x_mul, x_power, zero)
from test_acceptance import ORACLE_RANGE


def _bracket_at(mod, i, j, nu, t):
    """[y_i, x_j] on the basis term (nu, t): the irrep's bracket table at the
    module's point."""
    return ModuleElement._reduced(mod, mod._specialize(mod.irrep.bracket_table(i, j, nu, [t])[0]),
                                  mod._den)


class TestIrrep:
    def test_trivial_shape_one_dimensional(self):
        for r in (1, 2, 3):
            shape = MultiPartition(r, ((2,),) + ((),) * (r - 1))
            m = build_irrep(shape)
            assert m.dim == 1
            assert m.s_mats[0] == ({0: CyclotomicField(r).one},)
            assert m.zeta_residues[0][0] == 0
            empty = build_irrep(MultiPartition(r, ((),) * r))
            assert empty.dim == 1 and empty.perm_numerators(()) == (({0: 1},), 1)
        for r in (1, 2):
            assert verify_report(r, 0, degree=2, seed=0)["ok"]

    def test_determinant_shape(self):
        r = 3
        shape = MultiPartition(r, ((), (), (1, 1)))
        m = build_irrep(shape)
        assert m.dim == 1
        # zeta acts by zeta^{r-1}, reflections by -1
        f = CyclotomicField(r)
        assert f.zeta_power(m.zeta_residues[0][0]) == f.zeta_power(r - 1)
        assert m.s_mats[0][0][0] == -f.one

    def test_dimension_identity(self):
        for r, n in [(2, 3), (3, 2)]:
            total = sum(build_irrep(s).dim ** 2 for s in enumerate_multipartitions(r, n))
            assert total == r ** n * math.factorial(n)

    @staticmethod
    def _corrupted(text, one):
        """The irrep of the shape with one added to entry (0, 0) of s_1, its
        kept tables and denominator dropped; columns are {row: coefficient}."""
        m = build_irrep(parse_multipartition(text))
        bad = [dict(col) for col in m.s_mats[0]]
        bad[0][0] = bad[0].get(0, 0) + one
        m.s_mats[0] = tuple(bad)
        m._tables.clear()
        m.__dict__.pop("denominator", None)   # a cached_property, outside _tables
        return m

    def test_validation_catches_corruption(self):
        # an irrational entry stops at the rationality check, alone
        m = self._corrupted("2,1", CyclotomicField(1).one)
        assert validate_irrep(m) == ["s_i entries and gram weights rational"]
        # a rational one breaks the relations, and the Jucys-Murphy diagonal of
        # the kept s_ij columns rebuilt from the corrupted s_1
        assert validate_irrep(self._corrupted("2,1", Fraction(1))) == [
            "braid s_1 s_2 s_1", "jucys-murphy phi_2 not diagonal with r*ct",
            "jucys-murphy phi_3 not diagonal with r*ct", "s_1 zeta_1 s_1 = zeta_2", "s_1^2 = 1"]

    @pytest.mark.parametrize("text", ["2,1", "1|1|1", "1,1|1"])
    def test_validation_reads_the_kept_transposition_tables(self, text):
        # the y- and z-tables read the kept s_ij columns: one corrupted entry
        # there, with the s_i untouched, fails the Jucys-Murphy check alone
        m = build_irrep(parse_multipartition(text))
        assert validate_irrep(m) == []
        w = _swapped((1, 2, 3), 3, 1)
        cols, den = m.perm_numerators(w)
        bad = [dict(col) for col in cols]
        bad[0][0] = bad[0].get(0, 0) + 1   # entry (0, 0)
        m._tables["perm_numerators"][w,] = tuple(bad), den
        assert validate_irrep(m) == ["jucys-murphy phi_3 not diagonal with r*ct"]

    @pytest.mark.parametrize("text", ["1|2,1", "4,2", "|1|2,1"])
    def test_gram_propagates_over_both_kinds_of_edge(self, text):
        # the first tableau reaches some tableaux of these shapes first over an
        # edge whose s_i entry is 1 - rho^2, not 1: the gram weight there is
        # divided by that entry squared, which validation checks on every edge
        assert validate_irrep(build_irrep(parse_multipartition(text))) == []

    def test_gram_positive(self):
        for shape in enumerate_multipartitions(2, 3):
            m = build_irrep(shape)
            assert all(g > 0 for g in m.gram)


def _literal_validation(model):
    """Reference: validate_irrep with every relation that has a zeta written
    out over Q(zeta_r): zeta_i as the diagonal matrix of its roots of unity,
    the products taken literally, and phi_i summed over l."""
    if not all(type(q) is Fraction for q in itertools.chain(
            model.gram, *(col.values() for mat in model.s_mats for col in mat))):
        return ["s_i entries and gram weights rational"]
    errors, n, r, mul = [], model.n, model.shape.r, _mat_mul
    f = CyclotomicField(r)
    ident = tuple({b: Fraction(1)} for b in range(model.dim))

    def close(name, got, expect):
        if got != expect:
            errors.append(name)

    for i in range(1, n):
        close(f"s_{i}^2 = 1", mul(model.s_mats[i - 1], model.s_mats[i - 1]), ident)
    for i in range(1, n - 1):
        a, b = model.s_mats[i - 1], model.s_mats[i]
        close(f"braid s_{i} s_{i+1} s_{i}", mul(a, mul(b, a)), mul(b, mul(a, b)))
    for i in range(1, n):
        for j in range(i + 2, n):
            a, b = model.s_mats[i - 1], model.s_mats[j - 1]
            close(f"s_{i} s_{j} commute", mul(a, b), mul(b, a))
    zetas = [tuple({b: f.zeta_power(e)} for b, e in enumerate(res)) for res in model.zeta_residues]
    for i in range(1, n + 1):
        power = ident
        for _ in range(r):
            power = mul(power, zetas[i - 1])
        close(f"zeta_{i}^r = 1", power, ident)
    for i in range(1, n):
        got = mul(model.s_mats[i - 1], mul(zetas[i - 1], model.s_mats[i - 1]))
        close(f"s_{i} zeta_{i} s_{i} = zeta_{i+1}", got, zetas[i])
        for j in set(range(1, n + 1)) - {i, i + 1}:
            close(f"s_{i} zeta_{j} commute", mul(model.s_mats[i - 1], zetas[j - 1]),
                  mul(zetas[j - 1], model.s_mats[i - 1]))
    for i in range(1, n):
        m = model.s_mats[i - 1]
        for b, col in enumerate(m):
            for a, c in col.items():
                if c * model.gram[a] != m[a].get(b, 0) * model.gram[b]:
                    errors.append(f"s_{i} gram self-adjointness")
    for i, res in enumerate(model.zeta_residues[1:], 2):
        for t, T in enumerate(model.tableaux):
            phi_t = {}
            for j, l in itertools.product(range(1, i), range(r)):
                cols, den = model.perm_numerators(_swapped(tuple(range(1, n + 1)), i, j))
                for a, q in cols[t].items():
                    q *= r * model.denominator // den
                    phi_t[a] = phi_t.get(a, f.zero) + q * f.zeta_power(l * (res[a] - res[t]))
            expect = f.from_rational(r * r * model.denominator * T.box_of(i).content)
            if {a: c for a, c in phi_t.items() if c} != ({} if expect.is_zero() else {t: expect}):
                errors.append(f"jucys-murphy phi_{i} not diagonal with r*ct")
    return sorted(set(errors))


@pytest.mark.parametrize("r, n", [(r, n) for r in range(1, 5) for n in range(1, 5 if r <= 2 else 4)])
def test_integer_validation_matches_the_literal_products(r, n):
    # on every shape, and on copies of it with one residue moved or one s_i
    # entry changed; each copy gets an empty store, so its kept tables and its
    # denominator are rebuilt from the copy, not read from the original
    rng = random.Random(4100 + 10 * r + n)
    rejected = 0
    for shape in enumerate_multipartitions(r, n):
        model = build_irrep(shape)
        assert validate_irrep(model) == _literal_validation(model) == []
        for _ in range(3):
            residues = [list(res) for res in model.zeta_residues]
            residues[rng.randrange(n)][rng.randrange(model.dim)] += rng.randint(1, 2 * r)
            moved = dataclasses.replace(model, zeta_residues=[tuple(res) for res in residues],
                                        _tables=collections.defaultdict(dict))
            errors = validate_irrep(moved)
            assert errors == _literal_validation(moved)
            rejected += bool(errors)
        for _ in range(3 if n >= 2 else 0):
            mats = [[dict(col) for col in mat] for mat in model.s_mats]
            col = mats[rng.randrange(n - 1)][rng.randrange(model.dim)]
            a = rng.randrange(model.dim)
            col[a] = col.get(a, 0) + Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
            changed = dataclasses.replace(model, s_mats=[tuple(mat) for mat in mats],
                                          _tables=collections.defaultdict(dict))
            errors = validate_irrep(changed)
            assert errors == _literal_validation(changed)
            rejected += bool(errors)
    assert rejected > 0 or n == 1   # at n = 1 no relation reads a residue


# the module's own y_act and z_act at a point, beside verify_report's
# checks on the point-free tables: over Q at r = 2, and over the degree-2
# fields Q(zeta_3) and Q(zeta_4)
POINT_LEVEL_SHAPES = ("1|1", "1|1|1", "1||1|")


class TestYAction:
    def test_kills_degree_zero(self, rng):
        mod = StandardModule(parse_multipartition("1,1|1"), small_point(2, rng))
        for t in range(mod.irrep.dim):
            for i in (1, 2, 3):
                assert mod.y_act(i, basis_vector(mod, t)).is_zero()

    def test_rank_one_weyl_relation(self):
        mod = StandardModule(parse_multipartition("1"), ParameterPoint(1, Fraction(2, 3), [0]))
        v = basis_vector(mod, 0)
        assert mod.y_act(1, x_mul(mod, 1, v)) == v

    def test_y_commutation_2_2(self, rng):
        for shape in map(parse_multipartition, POINT_LEVEL_SHAPES):
            mod = StandardModule(shape, small_point(shape.r, rng))
            for deg in range(4):
                for nu in mod.monomials(deg):
                    for t in range(mod.irrep.dim):
                        e = basis_vector(mod, t, nu)
                        for i, j in itertools.combinations(range(1, mod.n + 1), 2):
                            assert mod.y_act(i, mod.y_act(j, e)) == mod.y_act(j, mod.y_act(i, e))

    def test_defining_relations_sample(self, rng):
        for shape in map(parse_multipartition, ("2|", "1|1", "1,1|") + POINT_LEVEL_SHAPES[1:]):
            mod = StandardModule(shape, small_point(shape.r, rng))
            n = mod.n
            for deg in range(3):
                for nu in mod.monomials(deg):
                    for t in range(mod.irrep.dim):
                        e = basis_vector(mod, t, nu)
                        for i in range(1, n + 1):
                            for j in range(1, n + 1):
                                lhs = (mod.y_act(i, x_mul(mod, j, e))
                                       - x_mul(mod, j, mod.y_act(i, e)))
                                assert lhs == _bracket_at(mod, i, j, nu, t)


class TestZAction:
    def test_degree_zero_diagonal_matches_spectrum(self, rng):
        for shape_text in ("1|1", "2,1|", "|2"):
            shape = parse_multipartition(shape_text)
            point = small_point(2, rng)
            mod = StandardModule(shape, point)
            n = shape.size
            mu0 = (0,) * n
            for T in mod.irrep.tableaux:
                elt = mod.apply_perm(perm_inverse(sorting_data(mu0)[2]), tableau_vector(mod, T))
                data = spectrum(mu0, T)
                for i in range(1, n + 1):
                    lam = mod.eigenvalue_of(i, elt)
                    assert lam == data[i - 1].z_eigenvalue.evaluate(point)

    def test_z_commute_degree3(self, rng):
        for shape in map(parse_multipartition, POINT_LEVEL_SHAPES):
            mod = StandardModule(shape, small_point(shape.r, rng))
            for deg in range(4):
                for nu in mod.monomials(deg):
                    for t in range(mod.irrep.dim):
                        e = basis_vector(mod, t, nu)
                        for i, j in itertools.combinations(range(1, mod.n + 1), 2):
                            assert mod.z_act(i, mod.z_act(j, e)) == mod.z_act(j, mod.z_act(i, e))

    def test_triangular_in_composition_order(self, rng):
        from cherednik_kit.combinatorics import composition_compare, Comparison
        shape = parse_multipartition("1|1")
        point = small_point(2, rng)
        mod = StandardModule(shape, point)
        for deg in range(3):
            for nu in mod.monomials(deg):
                for t, T in enumerate(mod.irrep.tableaux):
                    elt = x_power(mod, nu, mod.apply_perm(
                        perm_inverse(sorting_data(nu)[2]), tableau_vector(mod, T)))
                    data = spectrum(nu, T)
                    for i in (1, 2):
                        tw = twisted_coordinates(mod, mod.z_act(i, elt))
                        diag = tw.pop((nu, t), 0)
                        assert diag == data[i - 1].z_eigenvalue.evaluate(point)
                        for (kappa, _), _c in tw.items():
                            assert composition_compare(nu, kappa) is Comparison.GREATER


class TestPairing:
    def test_gram_restriction(self, rng):
        mod = StandardModule(parse_multipartition("2,1|"), small_point(2, rng))
        for s in range(mod.irrep.dim):
            for t in range(mod.irrep.dim):
                val = mod.pairing(basis_vector(mod, s), basis_vector(mod, t))
                if s == t:
                    assert val == mod.irrep.gram[t]
                else:
                    assert val == 0

    def test_rank_one_factorial(self):
        mod = StandardModule(parse_multipartition("1"), ParameterPoint(1, Fraction(1, 5), [0]))
        for m in range(5):
            v = x_power(mod, (m,), basis_vector(mod, 0))
            assert mod.norm(v) == math.factorial(m)

    def test_self_adjointness_random(self, rng):
        mod = StandardModule(parse_multipartition("1|1"), small_point(2, rng))
        for _ in range(4):
            terms_u = {}
            terms_v = {}
            for nu in mod.monomials(2):
                for t in range(mod.irrep.dim):
                    if rng.random() < 0.5:
                        terms_u[(nu, t)] = rng.randint(-4, 4)
                    if rng.random() < 0.5:
                        terms_v[(nu, t)] = rng.randint(-4, 4)
            u, v = ModuleElement(mod, terms_u), ModuleElement(mod, terms_v)
            for i in (1, 2):
                assert mod.pairing(mod.z_act(i, u), v) == mod.pairing(u, mod.z_act(i, v))
            assert mod.pairing(u, v) == mod.pairing(v, u).conjugate()

    def test_leaves_no_reference_cycle(self, rng):
        # its lowered-vector cache must die with the call, not wait for the
        # cyclic collector (that wait set the oracle's peak memory)
        mod = StandardModule(parse_multipartition("2|1"), small_point(2, rng))
        v = x_power(mod, (2, 1, 1), basis_vector(mod, 0))
        gc.collect()
        gc.disable()
        try:
            mod.norm(v)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_an_operator_result_of_zero_is_empty_over_one(self, rng):
        # y kills degree 0; test_pairing_matches_lowering_term_by_term checks
        # that every other y- and z-image is canonical
        mod = StandardModule(parse_multipartition("1|1,1", 2), small_point(2, rng))
        zero = mod.y_act(2, basis_vector(mod, 1).scale(Fraction(3, 4)))
        assert (zero.nums, zero.den) == ({}, 1)


def _assert_canonical(elt):
    """No zero numerator and gcd 1, so equal elements have equal data."""
    assert elt.den > 0 and all(elt.nums.values())
    assert math.gcd(elt.den, *elt.nums.values()) == 1
    assert elt == ModuleElement(elt.module, elt.terms)


def _lowered_pairing(mod, u, v):
    """Reference for pairing: <u, v> term by term over u, each term pairing
    with v lowered from scratch through y_act, one exponent at a time, in a
    module of its own, so no lowered vector is shared."""
    ref = StandardModule(mod.shape, mod.point, irrep=mod.irrep)
    zero, total = (0,) * mod.n, Fraction(0)
    for (nu, t), c in u.terms.items():
        w = v
        for i, e in enumerate(nu, start=1):
            for _ in range(e):
                w = ref.y_act(i, w)
        total += c * w.terms.get((zero, t), 0) * mod.irrep.gram[t]
    return total


@st.composite
def _module_and_two_elements(draw):
    """A module with r <= 3, n <= 3 at a drawn point, and two elements of
    mixed degree up to 2 with drawn Fraction coefficients, each either as
    drawn, symmetrized, or its difference with its s_1-image, so that many
    of its terms cancel."""
    shape = draw(st.sampled_from([shape for r in (1, 2, 3) for n in (1, 2, 3)
                                  for shape in enumerate_multipartitions(r, n)]))
    fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    point = ParameterPoint(shape.r, draw(fraction), [draw(fraction) for _ in range(shape.r)])
    mod = StandardModule(shape, point, irrep=_cached_irrep(shape))
    basis = [(nu, t) for deg in range(3) for nu in mod.monomials(deg)
             for t in range(mod.irrep.dim)]
    elements = []
    for _ in range(2):
        elt = ModuleElement(mod, draw(st.dictionaries(st.sampled_from(basis), fraction,
                                                      max_size=6)))
        kind = draw(st.sampled_from(("drawn", "symmetrized", "antisymmetrized")))
        if kind == "symmetrized":
            elt = mod.symmetrize(elt)
        elif kind == "antisymmetrized" and mod.n > 1:
            elt = elt - mod.apply_perm(simple_transposition(mod.n, 1), elt)
        elements.append(elt)
    return mod, *elements


@settings(deadline=None, database=None, derandomize=True, max_examples=80)
@given(_module_and_two_elements())
def test_pairing_matches_lowering_term_by_term(case):
    mod, u, v = case
    form = mod.pairing(u, v)
    assert form == _lowered_pairing(mod, u, v) == mod.pairing(v, u)
    for i in range(1, mod.n + 1):
        _assert_canonical(mod.y_act(i, v))
        _assert_canonical(mod.z_act(i, v))


class TestEigenvectors:
    def test_degree_zero_is_twisted_tableau_vector(self, rng):
        shape = parse_multipartition("1|1")
        mod = StandardModule(shape, small_point(2, rng))
        n = shape.size
        for T in mod.irrep.tableaux:
            f = mod.eigenvector((0,) * n, T)
            expect = mod.apply_perm(perm_longest(n), tableau_vector(mod, T))
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
        assert ratio is not None and ratio != 0


class TestTwistedTable:
    @pytest.mark.parametrize("r, n", ORACLE_RANGE + [(1, 4)])
    def test_warm_module_gives_the_fresh_eigenvectors(self, r, n):
        # one module serves every (mu, T) from its table of twisted columns,
        # filled by the (mu, T) before; a fresh module at the same point
        # builds each from nothing
        rng = random.Random(7300 + 10 * r + n)
        checked = 0
        for shape in enumerate_multipartitions(r, n):
            irrep, point = build_irrep(shape), small_point(r, rng)
            warm = StandardModule(shape, point, irrep=irrep)
            for T, mu in itertools.product(irrep.tableaux, compositions(n, 2)):
                fresh = StandardModule(shape, point, irrep=irrep)
                try:
                    expect = fresh.eigenvector(mu, T)
                except EigenvalueCollision:
                    with pytest.raises(EigenvalueCollision):
                        warm.eigenvector(mu, T)
                    continue
                assert warm.eigenvector(mu, T) == expect, (shape.as_text(), mu, T.as_text())
                checked += 1
        assert checked > 0

    def test_repeated_eigenvector_makes_no_z_act_call(self, monkeypatch, rng):
        # the solve reads the irrep's twisted tables, which the module
        # specializes once per column: a repeat specializes nothing, and
        # neither call goes through z_act
        mod = StandardModule(parse_multipartition("2,1|1"), small_point(2, rng))
        T, mu, calls = mod.irrep.tableaux[1], (1, 0, 1, 0), []

        def counted(name):
            honest = getattr(mod, name)

            def call(*args):
                calls.append(name)
                return honest(*args)
            return call

        for name in ("z_act", "_specialize"):
            monkeypatch.setattr(mod, name, counted(name))
        first = mod.eigenvector(mu, T)
        assert calls and set(calls) == {"_specialize"}
        calls.clear()
        assert mod.eigenvector(mu, T) == first
        assert calls == []

    @pytest.mark.parametrize("r, n", ORACLE_RANGE + [(1, 4), (4, 2)])
    def test_specialized_tables_match_the_module_operators(self, r, n):
        # two points share one irrep, so the second specializes tables the
        # first built; the images are z_act of the twisted vector and the
        # diagonal its twisted coordinate, at either point
        rng = random.Random(7500 + 10 * r + n)
        for shape in enumerate_multipartitions(r, n):
            irrep = build_irrep(shape)
            points = [small_point(r, rng), small_point(r, rng)]
            assert points[0] != points[1]
            for point in points:
                mod = StandardModule(shape, point, irrep=irrep)
                for nu, s in itertools.product(compositions(n, 2), range(irrep.dim)):
                    den, vec, images, diag, diag_den = mod.twisted_column(nu, s)
                    elt = ModuleElement._reduced(mod, vec, den)
                    assert elt == x_power(mod, nu, mod.apply_perm(
                        perm_inverse(sorting_data(nu)[2]), basis_vector(mod, s)))
                    for i in range(1, n + 1):
                        image = ModuleElement._reduced(mod, images[i - 1], den)
                        assert image == mod.z_act(i, elt)
                        assert (Fraction(diag[i - 1], diag_den)
                                == twisted_coordinates(mod, image).get((nu, s), 0))

    def test_eigenvector_leaves_no_reference_cycle(self, rng):
        # the table holds term dicts, not elements, so nothing it keeps
        # points back at the module: the module and the call's locals die
        # by reference counting, not by the cyclic collector
        mod = StandardModule(parse_multipartition("2|1"), small_point(2, rng))
        T = mod.irrep.tableaux[0]
        gc.collect()
        gc.disable()
        try:
            mod.eigenvector((1, 0, 1), T)
            del mod
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestIntertwiners:
    def test_eigenvalue_and_residue_reject_what_is_not_an_eigenvector(self, rng):
        mod = StandardModule(parse_multipartition("1|1"), small_point(2, rng))
        for read in (mod.eigenvalue_of, mod.zeta_residue):
            with pytest.raises(ValueError, match="zero vector"):
                read(1, zero(mod))
        # x_1 v and v have zeta_1-residues one apart mod 2
        mixed = basis_vector(mod, 0) + basis_vector(mod, 0, (1, 0))
        with pytest.raises(ValueError, match="not a zeta_1 eigenvector"):
            mod.zeta_residue(1, mixed)

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
        res_eq = mod.zeta_residue(1, f) == mod.zeta_residue(2, f)
        if res_eq:
            g = Fraction(2) * mod.point.c0 / (
                mod.eigenvalue_of(1, f) - mod.eigenvalue_of(2, f))
        else:
            g = Fraction(0)
        assert mod.intertwiner_scalar(1, f) == g
        assert mod.intertwiner(1, sf) == f.scale(1 - g * g)
        if not sf.is_zero():
            assert mod.norm(sf) == (1 - g * g) * norm_before

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
        v = basis_vector(mod, 0)
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
        lead = mod.apply_perm(perm_longest(n), tableau_vector(mod, T)).scale(n_mu)
        got = {t: c for (nu, t), c in results[0].terms.items() if nu == mu_plus}
        want = {t: c for (nu, t), c in lead.terms.items()}
        assert got == want


def _permutation_sum(mod, v):
    """Reference: the symmetrizer as the sum of all n! permutations."""
    out = zero(mod)
    for w in itertools.permutations(range(1, mod.n + 1)):
        out = out + mod.apply_perm(tuple(w), v)
    return out


@pytest.mark.parametrize("r, n", ORACLE_RANGE + [(1, 4)])
def test_coset_symmetrizer_matches_the_permutation_sum(r, n):
    rng = random.Random(7700 + 10 * r + n)
    for shape in enumerate_multipartitions(r, n):
        mod = StandardModule(shape, small_point(r, rng))
        for degree in range(3):
            v = ModuleElement(mod, {(nu, t): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for nu in mod.monomials(degree) for t in range(mod.irrep.dim)
                if rng.random() < 0.5})
            assert mod.symmetrize(v) == _permutation_sum(mod, v), (shape.as_text(), degree)


class TestOracleNorm:
    def test_tableau_vector_norm_is_gram(self, rng):
        mod = StandardModule(parse_multipartition("2,1|"), small_point(2, rng))
        for t, T in enumerate(mod.irrep.tableaux):
            assert mod.norm(tableau_vector(mod, T)) == mod.irrep.gram[t]

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


class TestIntertwinerSkips:
    """The intertwiner check counts the identities it skips at a pole or at
    an eigenvalue collision, and its row says how many."""

    @staticmethod
    def _details(report):
        row = next(c for c in report["checks"] if c["name"].startswith("intertwiner"))
        assert row["status"] == "pass"
        return row["details"]

    def test_a_pole_at_the_drawn_point_is_reported(self):
        # one of the shape's three identities meets a pole at this point
        report = verify_report(1, 3, degree=3, seed=124, shape_text="3")
        assert self._details(report) == "2 intertwiner identities, 1 skipped at a pole or collision"
        assert report["ok"]

    def test_a_report_without_skips_says_nothing_more(self):
        assert self._details(verify_report(1, 3, degree=2, seed=7)) == "12 intertwiner identities"

    @pytest.mark.parametrize("error, method", [(ZeroGapError, "intertwiner_scalar"),
                                               (EigenvalueCollision, "eigenvector_generic")])
    def test_every_identity_is_certified_or_skipped(self, monkeypatch, error, method):
        # the check takes the first two tableaux of each shape, 4 at (1, 3),
        # each with two square identities and one braid identity
        def refuse(*_args):
            raise error("forced")

        monkeypatch.setattr(StandardModule, method, refuse)
        report = verify_report(1, 3, degree=2, seed=7)
        assert self._details(report) == "0 intertwiner identities, 12 skipped at a pole or collision"


class TestTableCertificates:
    """verify_report checks the defining relations and commutativity on the
    irrep's point-free tables, so a fault in one table entry fails the check
    even where it vanishes at the drawn point."""

    @pytest.mark.parametrize("kind, args, check", [
        ("y_table", (1, ((1, 0), 0)), "defining relations up to degree cap"),
        ("z_table", (1, ((1, 0), 0)), "y- and z-family commutativity"),
        # the last tableau of a degree-3 block, which is built whole
        ("y_table", (2, ((2, 1), 1)), "defining relations up to degree cap"),
    ])
    def test_poisoned_d_coefficient_fails(self, monkeypatch, kind, args, check):
        built = []

        def poisoned_build(shape):
            # one entry of the table moved in its d_0 coefficient only, in
            # the store of its exponent's block
            irrep = build_irrep(shape)
            clean = irrep.table(kind, *args)
            i, (nu, t) = args
            block = irrep._tables[kind][i, nu]
            assert None not in block   # built whole
            table = dict(clean)
            key = min(table)
            table[key] = table[key][:2] + (table[key][2] + 1,) + table[key][3:]
            block[t] = table
            built.append((irrep, clean, table))
            return irrep

        monkeypatch.setattr(oracle, "build_irrep", poisoned_build)
        # seed 86 draws d_0 = 0 at r = 2: the point cannot see the change
        report = verify_report(2, 2, degree=2, seed=86, shape_text="1|1")
        (irrep, clean, table), = built
        c0, d = report["point"]["c0"], report["point"]["d"]
        mod = StandardModule(irrep.shape, ParameterPoint(2, Fraction(c0), list(map(Fraction, d))),
                             irrep=irrep)
        assert d[0] == "0" and table != clean
        assert mod._specialize(table) == mod._specialize(clean)
        status = {c["name"]: c["status"] for c in report["checks"]}
        assert status[check] == "fail" and not report["ok"]


class TestBracketFaults:
    """verify_report against a faulty bracket_table.  The point-free rows
    certify the y- and z-tables against the brackets they are built from: a
    wrong off-diagonal bracket breaks the defining relations, but a diagonal
    one that stays consistent passes them and is caught at the point."""

    @staticmethod
    def _faulty(fault):
        honest = oracle.IrrepModel.bracket_table

        def faulty(self, i, j, key, table):
            if fault == "negated off-diagonal" and i != j:
                return {term: tuple(-x for x in vec) for term, vec in table.items()}
            if fault == "doubled off-diagonal" and i != j:
                return {term: tuple(2 * x for x in vec) for term, vec in table.items()}
            if fault == "diagonal plus one" and i == j:
                const, *rest = table[key]
                return {**table, key: (const + self.denominator, *rest)}
            if fault == "diagonal without d" and i == j:
                return {term: vec[:2] + (0,) * (len(vec) - 2) for term, vec in table.items()
                        if any(vec[:2])}
            return table

        def bracket_table(self, i, j, nu, ts):
            return [faulty(self, i, j, (nu, t), table)
                    for t, table in zip(ts, honest(self, i, j, nu, ts))]
        return bracket_table

    # at r = 1 the d-terms of [y_i, x_i] cancel, so dropping them is no fault
    @pytest.mark.parametrize("fault, row, r, n", [
        (fault, row, r, n) for fault, row in [
            ("negated off-diagonal", "defining relations up to degree cap"),
            ("doubled off-diagonal", "defining relations up to degree cap"),
            ("diagonal plus one", "z-matrix triangularity and diagonal"),
            ("diagonal without d", "z-matrix triangularity and diagonal")]
        for r, n in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]
        if r >= 2 or fault != "diagonal without d"])
    def test_the_report_fails(self, monkeypatch, fault, row, r, n):
        monkeypatch.setattr(oracle.IrrepModel, "bracket_table", self._faulty(fault))
        report = verify_report(r, n, degree=2, seed=7)
        status = {c["name"]: c["status"] for c in report["checks"]}
        assert not report["ok"] and status[row] == "fail"


def _double_theta(monkeypatch):
    # each s_i's off-diagonal entries doubled: s_i^2 = 1 fails where dim > 1,
    # so (1, 3) fails at its second shape, 2,1, and builds no third
    from cherednik_kit import irrep
    honest_rule, honest_build, built = irrep._swap_rule, oracle.build_irrep, []

    def swap_rule(T, i):
        rho, theta = honest_rule(T, i)
        return rho, 2 * theta

    def build(shape):
        built.append(shape.as_text())
        return honest_build(shape)

    monkeypatch.setattr(irrep, "_swap_rule", swap_rule)
    monkeypatch.setattr(oracle, "build_irrep", build)
    return lambda: built == ["3", "2,1"]


def _mu_twice(monkeypatch):
    # mu listed again second in each eigen plan: the eigenvector comes out
    # doubled, still a joint eigenvector, but its leading slice is twice x^mu v_T
    honest = oracle.IrrepModel.eigen_plan
    monkeypatch.setattr(oracle.IrrepModel, "eigen_plan",
                        lambda self, mu, residues: (lambda plan: [plan[0], *plan])(
                            honest(self, mu, residues)))


def _scalar_plus_one(monkeypatch):
    # sigma_i f = s_i f + (f_i + 1) f is no eigenvector, so the scalar of
    # sigma_i on it finds z_1 not acting by a scalar
    honest = StandardModule.intertwiner_scalar
    monkeypatch.setattr(StandardModule, "intertwiner_scalar",
                        lambda self, i, v: honest(self, i, v) + 1)


def _perm_doubled(monkeypatch):
    # each s_i acting as twice itself: the pairing is symmetric and z
    # self-adjoint, but <s_i u, s_i v> = 4 <u, v>
    honest = StandardModule.apply_perm
    monkeypatch.setattr(StandardModule, "apply_perm",
                        lambda self, w, elt: honest(self, w, elt).scale(2))


def _twisted_doubled(monkeypatch):
    # every coefficient of the twisted z-images doubled
    honest = oracle.IrrepModel.twisted_table
    monkeypatch.setattr(oracle.IrrepModel, "twisted_table", lambda self, nu, s: [
        {key: tuple(2 * x for x in vec) for key, vec in table.items()}
        for table in honest(self, nu, s)])


def _product_doubled(monkeypatch):
    # the product formula's n! doubled, leaving n! H E as it is
    from cherednik_kit import norms
    honest = norms._box_product
    monkeypatch.setattr(norms, "_box_product",
                        lambda S, boxes, coefficient: honest(S, boxes, 2 * coefficient))


def _sigma_doubled(monkeypatch):
    # 2 sigma_i squares to 4 (1 - f_i^2)
    honest = StandardModule.intertwiner
    monkeypatch.setattr(StandardModule, "intertwiner",
                        lambda self, i, v: honest(self, i, v).scale(2))


def _sigma_vanishes(monkeypatch):
    # sigma_i sends f to 0, and the 0 it made to (1 - f_i^2) f: the square
    # holds although sigma_i vanished
    honest, last = StandardModule.intertwiner_scalar, []

    def intertwiner(self, i, v):
        if not v.is_zero():
            last.append(v)
            return v.scale(0)
        f = last[-1]
        return f.scale(1 - honest(self, i, f) ** 2)

    monkeypatch.setattr(StandardModule, "intertwiner", intertwiner)


def _norm_plus_one(monkeypatch):
    monkeypatch.setattr(StandardModule, "norm", lambda self, v: self.pairing(v, v) + 1)


def _sigma_2_negated(monkeypatch):
    # -sigma_2 keeps every square and norm, and turns the braid's sides
    # into each other's negatives
    honest = StandardModule.intertwiner
    monkeypatch.setattr(StandardModule, "intertwiner",
                        lambda self, i, v: honest(self, i, v).scale(-1 if i == 2 else 1))


def _first_shape_dropped(monkeypatch):
    # the report runs without the shape 3, whose dim^2 is 1
    honest = oracle.enumerate_multipartitions
    monkeypatch.setattr(oracle, "enumerate_multipartitions", lambda r, n: honest(r, n)[1:])


def _identity_fails(monkeypatch):
    monkeypatch.setattr(oracle, "symmetrizer_identity_check", lambda n, z, c0, r: False)


class TestFailureBranches:
    """Each check's failure branch, reached by breaking one input at (1, 3):
    its row reads fail with the branch's message, and the report is not ok.
    A fault may return a check of its own, to hold after the report."""

    IRREP, EIGEN, MINIMAL, FORM, TRIANGULAR, SIGMA, SYMMETRIZER = (
        "irrep relations and dimension count", "eigenvector norms vs closed formula",
        "symmetrized minimal norms vs closed formula", "contravariant form properties",
        "z-matrix triangularity and diagonal", "intertwiner square, norm scaling, braid",
        "symmetrizer rational-function identity")

    BRANCHES = [
        (_double_theta, IRREP, "AssertionError: irrep validation failed: braid s_1 s_2 s_1; "
         "s_2 gram self-adjointness; s_2 zeta_2 s_2 = zeta_3; s_2^2 = 1"),
        (_mu_twice, EIGEN, "AssertionError: leading slice is not x^mu w_mu^{-1} v_T"),
        (_scalar_plus_one, SIGMA, "ValueError: not a z_1 eigenvector"),
        (_perm_doubled, FORM, "AssertionError: pairing not W-invariant"),
        (_twisted_doubled, TRIANGULAR,
         "AssertionError: twisted table image z_1 at (0, 0, 0), 1,2,3"),
        (_product_doubled, MINIMAL, "AssertionError: product formula disagrees with n! H E"),
        (_sigma_doubled, SIGMA, "AssertionError: sigma_1^2 != 1 - f^2"),
        (_sigma_vanishes, SIGMA, "AssertionError: sigma_1 vanished away from g = +-1"),
        (_norm_plus_one, SIGMA, "AssertionError: sigma_1 norm scaling"),
        (_sigma_2_negated, SIGMA, "AssertionError: braid relation"),
        (_first_shape_dropped, IRREP, "AssertionError: sum of dim^2 = 5, expected 6"),
        (_identity_fails, SYMMETRIZER, "AssertionError: identity failed at z=[Fraction(-8, 3), "
         "Fraction(11, 1), Fraction(8, 1)], c0=-4"),
    ]

    @pytest.mark.parametrize("fault, row, message", BRANCHES,
                             ids=[fault.__name__[1:] for fault, _, _ in BRANCHES])
    def test_the_row_fails_with_its_message(self, monkeypatch, fault, row, message):
        after = fault(monkeypatch)
        report = verify_report(1, 3, degree=2, seed=7)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks[row]["status"] == "fail" and not report["ok"]
        assert checks[row]["details"] == message
        assert after is None or after()


class TestCanonicalTables:
    """The irrep's tables are canonical as they are built: a key whose
    coefficients cancel is dropped, so no table holds a zero vector."""

    def test_add_coeffs_drops_a_cancelled_key_and_sets_it_again(self):
        table = {"a": (1, 2, 0), "b": (0, 1, 1)}
        _add_coeffs(table, [("a", (-1, -2, 0))])
        assert table == {"b": (0, 1, 1)}
        _add_coeffs(table, [("a", (0, 0, 3))])
        assert table == {"b": (0, 1, 1), "a": (0, 0, 3)}
        _add_coeffs(table, [("c", (0, 0, 0))])
        assert "c" not in table
        _add_coeffs(table, [("c", (1, 0, 0)), ("c", (-1, 0, 0)), ("b", (0, 1, 0))])
        assert table == {"b": (0, 2, 1), "a": (0, 0, 3)}

    @pytest.mark.parametrize("r, n", ORACLE_RANGE + [(1, 4)])
    def test_no_table_holds_a_zero_vector(self, r, n):
        for shape in enumerate_multipartitions(r, n):
            irrep = build_irrep(shape)
            for key in itertools.product(compositions(n, 2), range(irrep.dim)):
                for i in range(1, n + 1):
                    irrep.table("z_table", i, key)   # and the y-tables below it
                    for j in range(1, n + 1):
                        bracket, = irrep.bracket_table(i, j, key[0], [key[1]])
                        assert all(map(any, bracket.values()))
                irrep.twisted_table(*key)
            kept = {"y_table": [], "z_table": [], "twisted_table": []}
            for kind, store in irrep._tables.items():
                for value in store.values():
                    if kind in ("y_table", "z_table"):   # a block: a table per tableau
                        kept[kind].extend(table for table in value if table is not None)
                    elif kind == "twisted_table":
                        kept[kind].extend(value)
            assert all(kept.values())
            assert all(any(vec) for tables in kept.values() for table in tables
                       for vec in table.values())


def _reference_average(irrep, c, i, k, shift, nu, t):
    """Reference: c c0 (shift-average of s_ik) on the basis term (nu, t), as
    (key, vector) pairs: r s_ik[a, t] at (s_ik nu, a) where beta_i(a) =
    beta_i(t) + shift - (nu_i - nu_k) mod r, read off the kept s_ik column."""
    r, res = irrep.shape.r, irrep.zeta_residues[i - 1]
    nu2, w = list(nu), list(range(1, irrep.n + 1))
    nu2[i - 1], nu2[k - 1] = nu[k - 1], nu[i - 1]
    w[i - 1], w[k - 1] = k, i
    cols, den = irrep.perm_numerators(tuple(w))
    want = (res[t] + shift - nu[i - 1] + nu[k - 1]) % r
    return [((tuple(nu2), a), (0, c * r * q * irrep.denominator // den) + (0,) * r)
            for a, q in cols[t].items() if res[a] % r == want]


def _reference_bracket(irrep, i, j, nu, t):
    """Reference: [y_i, x_j] on one basis term, built term by term."""
    if i != j:
        table = {}
        _add_coeffs(table, _reference_average(irrep, 1, i, j, 1, nu, t))
        return table
    r, den = irrep.shape.r, irrep.denominator
    res = (irrep.zeta_residues[i - 1][t] - nu[i - 1]) % r
    own = [den] + [0] * (r + 1)
    own[2 + res] -= den
    own[2 + (res - 1) % r] += den
    table = {(nu, t): tuple(own)}
    for k in range(1, irrep.n + 1):
        if k != i:
            _add_coeffs(table, _reference_average(irrep, -1, i, k, 0, nu, t))
    return table


def _reference_y(irrep, i, nu, t, cache):
    """Reference: y_i on the basis term (nu, t) by the per-key recursion, y_i
    x_j = x_j y_i + [y_i, x_j] for the first j with nu_j > 0."""
    if (i, nu, t) not in cache:
        j = next((k for k, e in enumerate(nu) if e), None)
        table = {}
        if j is not None:
            low = nu[:j] + (nu[j] - 1,) + nu[j + 1:]
            table = {(kappa[:j] + (kappa[j] + 1,) + kappa[j + 1:], s): vec
                     for (kappa, s), vec in _reference_y(irrep, i, low, t, cache).items()}
            _add_coeffs(table, _reference_bracket(irrep, i, j + 1, low, t).items())
        cache[i, nu, t] = table
    return cache[i, nu, t]


def _reference_z(irrep, i, nu, t, cache):
    """Reference: z_i = y_i x_i + c0 phi_i on the basis term (nu, t)."""
    table = dict(_reference_y(irrep, i, nu[:i - 1] + (nu[i - 1] + 1,) + nu[i:], t, cache))
    for k in range(1, i):
        _add_coeffs(table, _reference_average(irrep, 1, i, k, 0, nu, t))
    return table


@st.composite
def _reads_in_any_order(draw):
    """A shape with r <= 3 and n <= 3, and single-tableau reads (kind, i, nu,
    t) of its y- and z-tables at exponents up to degree 8, in a drawn order."""
    r, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shape = draw(st.sampled_from(enumerate_multipartitions(r, n)))
    dim = _cached_irrep(shape).dim
    return shape, draw(st.lists(st.tuples(
        st.sampled_from(["y_table", "z_table"]), st.integers(1, n),
        st.sampled_from(list(compositions(n, 8))), st.integers(0, dim - 1)), max_size=8))


class TestBlockLayout:
    """The y- and z-tables are kept one block per (i, nu), holding the table
    of each tableau built so far: whole blocks up to irrep.BLOCK_DEGREE (in
    the y-degree), and one tableau at a time above it."""

    @pytest.mark.parametrize("r, n", [(1, 4), (2, 3), (3, 2)])
    def test_blocks_match_the_per_key_recursion(self, r, n):
        # single-tableau reads first, then whole blocks, on one irrep, up to
        # degree 6; each table against the per-key reference
        for shape in enumerate_multipartitions(r, n):
            irrep, cache = build_irrep(shape), {}
            last, exponents = irrep.dim - 1, sorted(compositions(n, 6), key=sum)
            top = [nu for nu in exponents if sum(nu) == 6]
            for nu, i in itertools.product(top, range(1, n + 1)):
                assert irrep.table("z_table", i, (nu, last)) == _reference_z(irrep, i, nu, last,
                                                                              cache)
                up = nu[:i - 1] + (nu[i - 1] + 1,) + nu[i:]
                for kind, exponent in (("z_table", nu), ("y_table", up)):
                    block = irrep._tables[kind][i, exponent]
                    assert [t for t, table in enumerate(block) if table is not None] == [last]
            for nu, i in itertools.product(exponents, range(1, n + 1)):
                ts = range(irrep.dim)
                assert irrep._block("y_table", i, nu, ts) == [
                    _reference_y(irrep, i, nu, t, cache) for t in ts]
                assert irrep._block("z_table", i, nu, ts) == [
                    _reference_z(irrep, i, nu, t, cache) for t in ts]

    @settings(deadline=None, database=None, derandomize=True, max_examples=80)
    @given(_reads_in_any_order())
    def test_reads_in_any_order_match_the_per_key_recursion(self, case):
        # a read may find the levels of its chain partly built by earlier
        # reads of other tableaux: single reads first, then their whole blocks
        shape, reads = case
        irrep, cache = build_irrep(shape), {}
        reference = {"y_table": _reference_y, "z_table": _reference_z}
        for kind, i, nu, t in reads:
            assert irrep.table(kind, i, (nu, t)) == reference[kind](irrep, i, nu, t, cache)
        for kind, i, nu, _ in reads:
            assert irrep._block(kind, i, nu, range(irrep.dim)) == [
                reference[kind](irrep, i, nu, t, cache) for t in range(irrep.dim)]

    @pytest.mark.parametrize("text, i, nu", [("1|1", 2, (0, 7)), ("2,1", 1, (3, 0, 4)),
                                             ("1|1,1", 3, (2, 5, 1))])
    def test_a_read_above_the_block_degree_keeps_each_level_of_its_chain(self, text, i, nu):
        # one y read far above BLOCK_DEGREE walks the first-nonzero chain down
        # to a whole block and raises back up it: each level on the way keeps
        # the table of the tableau read, and only that one
        steps = list(_descent(nu))
        assert [sum(kappa) for _, kappa in steps] == list(range(sum(nu) - 1, -1, -1))
        assert all(j == next(k for k, e in enumerate(prev) if e)
                   for (j, _), prev in zip(steps, [nu] + [kappa for _, kappa in steps]))
        irrep, cache = build_irrep(parse_multipartition(text)), {}
        last = irrep.dim - 1
        assert irrep.table("y_table", i, (nu, last)) == _reference_y(irrep, i, nu, last, cache)
        for _, kappa in steps:
            block = irrep._tables["y_table"][i, kappa]
            if sum(kappa) <= BLOCK_DEGREE:
                assert None not in block
                break
            assert [t for t, table in enumerate(block) if table is not None] == [last]
            assert block[last] == _reference_y(irrep, i, kappa, last, cache)

    def test_a_y_chain_far_above_the_block_degree_is_built_in_a_loop(self):
        # y_1 at degree 700 and the pairing's lowering read the first-nonzero
        # chain down to degree 0; each raise finds the exponent below it built
        mod = StandardModule(parse_multipartition("1"), ParameterPoint(1, Fraction(1, 5), [0]))
        v = x_power(mod, (700,), basis_vector(mod, 0))
        assert mod.y_act(1, v) == x_power(mod, (699,), basis_vector(mod, 0)).scale(700)
        assert mod.norm(v) == math.factorial(700)

    def test_a_minimal_norm_far_above_the_block_degree(self):
        # component 599 of r = 600: the minimal-norm check reads y at degree 599
        assert verify_report(600, 1, degree=2, seed=7, shape_text="|" * 599 + "1")["ok"]

    @pytest.mark.parametrize("r, n, y_entries, z_entries", [(2, 4, 3988, 236), (3, 4, 22921, 608)])
    def test_reads_above_the_block_degree_build_one_tableau(self, monkeypatch, r, n, y_entries,
                                                            z_entries):
        # the minimal-norm and intertwiner checks are the ones that read past
        # degree 4 at degree 2: after them, the stores hold no more entries
        # there than one table per basis term read, as counted when each
        # basis term had its own entry (seed 7)
        irreps = []

        def kept_build(shape):
            irreps.append(build_irrep(shape))
            return irreps[-1]

        monkeypatch.setattr(oracle, "build_irrep", kept_build)
        monkeypatch.setattr(oracle, "_CHECKS", tuple(
            c for c in oracle._CHECKS if c[1] in (oracle._check_minimal_norms,
                                                  oracle._check_intertwiners)))
        assert verify_report(r, n, degree=2, seed=7)["ok"]
        above = {kind: sum(len(block) - block.count(None) for irrep in irreps
                           for (_, nu), block in irrep._tables[kind].items()
                           if sum(nu) > 4)
                 for kind in ("y_table", "z_table")}
        assert above["y_table"] <= y_entries and above["z_table"] <= z_entries


def _outer_product_commutator_vanishes(op, i, j, key):
    """Reference: the commutator kernel as it was before it kept only the
    symmetric coefficients: full outer products of the numerator vectors,
    symmetrized after the sum."""
    out = {}
    for a, b, sign in ((i, j, 1), (j, i, -1)):
        for mid, u in op(b, key).items():
            u = tuple(sign * x for x in u)
            for end, v in op(a, mid).items():
                old = out.get(end, (0,) * (len(u) * len(v)))
                out[end] = tuple(x + y for x, y in zip(old, (x * y for x in u for y in v)))
    return not any(vec[p * w + q] + vec[q * w + p] for vec in out.values()
                   for w in [math.isqrt(len(vec))] for p in range(w) for q in range(p, w))


def _stub_irrep(op):
    """An irrep whose table(kind, i, key) is op(i, key), for every kind."""
    return types.SimpleNamespace(table=lambda kind, i, key: op(i, key))


@st.composite
def _commutator_tables(draw):
    """(kind, tables): op(i, key) = tables.get((i, key), {}) for i = 1, 2 on
    keys 0..2, with vectors of width r + 2.  "random" tables rarely commute;
    "equal" ones make op(1, .) = op(2, .); "antisymmetric" ones compose to
    u (x) v - v (x) u at key 0, a zero quadratic form that is not zero as a
    matrix; "perturbed" ones add one random entry to an antisymmetric pair."""
    r = draw(st.integers(1, 3))
    vec = st.lists(st.integers(-3, 3), min_size=r + 2, max_size=r + 2).map(tuple)
    table = st.dictionaries(st.integers(0, 2), vec, max_size=3)
    kind = draw(st.sampled_from(("random", "equal", "antisymmetric", "perturbed")))
    if kind in ("random", "equal"):
        tables = {(i, k): draw(table) for i in (1, 2) for k in range(3)}
        if kind == "equal":
            tables.update({(2, k): tables[1, k] for k in range(3)})
        return kind, tables
    u, v = draw(vec), draw(vec)
    tables = {(2, 0): {1: u}, (1, 1): {0: v}, (1, 0): {2: v}, (2, 2): {0: u}}
    if kind == "perturbed":
        tables[1, 1] = dict(tables[1, 1], **{"x": draw(vec)})
    return kind, tables


@settings(deadline=None, database=None, derandomize=True, max_examples=300)
@given(_commutator_tables())
def test_commutator_kernel_matches_the_outer_products(case):
    kind, tables = case

    def op(i, key):
        return tables.get((i, key), {})

    got = oracle._commutator_vanishes(_stub_irrep(op), "y_table", 1, 2, 0)
    assert got == _outer_product_commutator_vanishes(op, 1, 2, 0)
    if kind in ("equal", "antisymmetric"):
        assert got


def test_commutator_kernel_sees_a_symmetric_defect():
    # u (x) v + v (x) u is a nonzero quadratic form: both kernels reject it
    u, v = (1, 0, 2), (0, 3, -1)
    tables = {(2, 0): {1: u}, (1, 1): {0: v}, (1, 0): {2: v}, (2, 2): {0: tuple(-x for x in u)}}

    def op(i, key):
        return tables.get((i, key), {})

    assert not oracle._commutator_vanishes(_stub_irrep(op), "z_table", 1, 2, 0)
    assert not _outer_product_commutator_vanishes(op, 1, 2, 0)


def test_verify_report_frontier():
    # r = 4 is a degree-2 field with a non-trivial conjugation; (1, 4) is the
    # largest symmetric-group case
    assert verify_report(4, 2, degree=2, seed=7)["ok"]
    assert verify_report(1, 4, degree=2, seed=7)["ok"]
    # r = 5: Q(zeta_5) has degree 4
    assert verify_report(5, 2, degree=1, seed=7)["ok"]


def _perm_column(irrep, w, t):
    """Reference: column t of the matrix of w, the Fraction product of the s_i
    along reduced_word(w), applied to the basis vector t; kept on the irrep
    beside (not in) its _tables."""
    columns = vars(irrep).setdefault("reference_columns", {})
    if (w, t) not in columns:
        col = {t: Fraction(1)}
        for i in reversed(reduced_word(w)):
            col = _apply(irrep.s_mats[i - 1], col)
        columns[w, t] = col
    return columns[w, t]


_cached_irrep = functools.cache(build_irrep)


@st.composite
def _shape_and_two_perms(draw):
    """A shape over ORACLE_RANGE and (1, 4), and two permutations of its size."""
    shape = draw(st.sampled_from([shape for r, n in ORACLE_RANGE + [(1, 4)]
                                  for shape in enumerate_multipartitions(r, n)]))
    perm = st.permutations(range(1, shape.size + 1)).map(tuple)
    return shape, draw(perm), draw(perm)


@settings(deadline=None, database=None, derandomize=True, max_examples=200)
@given(_shape_and_two_perms())
def test_perm_numerators_multiply(case):
    # the matrix of v w is the product of those of v and w, each over its own
    # denominator, reduced by one gcd; and it is the Fraction product
    shape, v, w = case
    irrep = _cached_irrep(shape)
    (a, a_den), (b, b_den) = irrep.perm_numerators(v), irrep.perm_numerators(w)
    product = [_apply(a, col) for col in b]
    g = math.gcd(a_den * b_den, *(x for col in product for x in col.values()))
    cols, den = irrep.perm_numerators(perm_mul(v, w))
    assert (cols, den) == (tuple({k: x // g for k, x in col.items()} for col in product),
                           a_den * b_den // g)
    for t, col in enumerate(cols):
        assert _perm_column(irrep, perm_mul(v, w), t) == {k: Fraction(x, den) for k, x in col.items()}


def _leaves(x):
    """The scalars in nested dicts, lists and tuples, keys included."""
    if isinstance(x, dict):
        x = [*x.keys(), *x.values()]
    if isinstance(x, (list, tuple)):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


@pytest.mark.parametrize("text", ["2,1", "1|1", "1|1|1"])
def test_kept_tables_hold_only_integers(text, rng):
    # the group action and every table derived from it are kept once, as
    # integers: after validation, eigenvectors, symmetrization and twisted
    # coordinates, the irrep's _tables hold ints (and the names of its tables)
    irrep = build_irrep(parse_multipartition(text))
    mod = StandardModule(irrep.shape, small_point(irrep.shape.r, rng), irrep=irrep)
    for T in irrep.tableaux:
        f = mod.eigenvector_generic((1,) + (0,) * (mod.n - 1), T, rng)[1]
        twisted_coordinates(mod, mod.symmetrize(f))
    assert {type(x) for x in _leaves(irrep._tables)} == {int, str}


def _twisted_transposition(mod, i, j, l, nu, t):
    """Reference: zeta_i^l s_ij zeta_i^{-l} applied to the basis term (nu, t),
    with every power of zeta built: [(nu', t', coeff)]."""
    f = CyclotomicField(mod.r)
    res = mod.irrep.zeta_residues[i - 1]
    scalar = f.zeta_power(l * (nu[i - 1] - nu[j - 1]))
    nu2, w = list(nu), list(range(1, mod.n + 1))
    nu2[i - 1], nu2[j - 1] = nu2[j - 1], nu2[i - 1]
    w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
    col = _perm_column(mod.irrep, tuple(w), t)
    return [(tuple(nu2), a, scalar * f.zeta_power(l * (res[a] - res[t])) * coef)
            for a, coef in col.items()]


def _literal_bracket(mod, i, j, nu, t):
    """Reference: [y_i, x_j] on (nu, t) with the sum over l = 0..r-1 of the
    defining relation written out, over Q(zeta_r); the sum is rational."""
    f, p, r = CyclotomicField(mod.r), mod.point, mod.r
    c0 = f.from_rational(p.c0)
    terms = {}

    def add(key, coeff):
        terms[key] = terms[key] + coeff if key in terms else coeff

    if i == j:
        add((nu, t), f.one)
        for j2 in range(1, mod.n + 1):
            if j2 == i:
                continue
            for l in range(r):
                for nu2, t2, coeff in _twisted_transposition(mod, i, j2, l, nu, t):
                    add((nu2, t2), -(c0 * coeff))
        res = (mod.irrep.zeta_residues[i - 1][t] - nu[i - 1]) % r
        add((nu, t), f.from_rational(-(p.d[res] - p.d[(res - 1) % r])))
    else:
        for l in range(r):
            for nu2, t2, coeff in _twisted_transposition(mod, i, j, l, nu, t):
                add((nu2, t2), c0 * f.zeta_power(-l) * coeff)
    return ModuleElement(mod, {key: c.as_rational() for key, c in terms.items()})


def _literal_jm(mod, i, nu, t):
    """Reference: phi_i = sum_{j<i} sum_l zeta_i^l s_ij zeta_i^{-l} on (nu, t)."""
    terms = {}
    for j in range(1, i):
        for l in range(mod.r):
            for nu2, t2, coeff in _twisted_transposition(mod, i, j, l, nu, t):
                key = (nu2, t2)
                terms[key] = terms[key] + coeff if key in terms else coeff
    return ModuleElement(mod, {key: c.as_rational() for key, c in terms.items()})


@pytest.mark.parametrize("r, n", ORACLE_RANGE + [(4, 2), (5, 2), (6, 2)])
def test_averaged_transposition_matches_the_literal_sum(r, n):
    # the closed-form Z/r average in bracket_table against the sum over l
    rng = random.Random(1000 * r + n)
    for shape in enumerate_multipartitions(r, n):
        mod = StandardModule(shape, small_point(r, rng))
        for deg in range(3):
            for nu in mod.monomials(deg):
                for t in range(mod.irrep.dim):
                    for i in range(1, n + 1):
                        for j in range(1, n + 1):
                            assert _bracket_at(mod, i, j, nu, t) == _literal_bracket(mod, i, j, nu, t)


@st.composite
def _averaging_cases(draw):
    """A shape with r <= 4 and 2 <= n <= 4, and (i, j, shift, nu, t) for it:
    i != j, any shift (beyond r too), entries of nu up to 3, t a tableau."""
    r, n = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    shape = draw(st.sampled_from(enumerate_multipartitions(r, n)))
    i, j = draw(st.permutations(range(1, n + 1)))[:2]
    nu = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    t = draw(st.integers(0, _cached_irrep(shape).dim - 1))
    return shape, i, j, draw(st.integers(-r, 2 * r)), nu, t


@settings(deadline=None, database=None, derandomize=True, max_examples=150)
@given(_averaging_cases())
def test_averaged_transposition_is_the_literal_average(case):
    # the entries of one residue of the kept s_ij column against sum over l of
    # zeta^{-l*shift} zeta_i^l s_ij zeta_i^{-l} on (nu, t), built over Q(zeta_r)
    shape, i, j, shift, nu, t = case
    irrep = _cached_irrep(shape)
    f, r = CyclotomicField(shape.r), shape.r
    mod = StandardModule(shape, small_point(r, random.Random(0)), irrep=irrep)
    literal = {}
    for l in range(r):
        for nu2, a, coeff in _twisted_transposition(mod, i, j, l, nu, t):
            term = f.zeta_power(-l * shift) * coeff
            literal[nu2, a] = literal[nu2, a] + term if (nu2, a) in literal else term
    rows = irrep.averages(i, j, shift, 1)[(nu[i - 1] - nu[j - 1]) % r][t]
    assert all(vec[0] == 0 and not any(vec[2:]) for _, vec in rows)
    nu2 = _swapped(nu, i, j)
    assert {(nu2, a): f.from_rational(Fraction(vec[1], irrep.denominator)) for a, vec in rows} \
        == {key: c for key, c in literal.items() if c}
    assert irrep.averages(i, j, shift, -1)[(nu[i - 1] - nu[j - 1]) % r][t] == tuple(
        (a, tuple(-x for x in vec)) for a, vec in rows)


def _point_valued_y(mod, i, nu, t, cache):
    """Reference: y_i on x^nu v_t at the module's point by the point-valued
    recursion (y kills degree 0; y_i x_j = x_j y_i + [y_i, x_j] for the
    first j with nu_j > 0), with the bracket summed literally over l."""
    if (i, nu, t) not in cache:
        j = next((k + 1 for k, e in enumerate(nu) if e), None)
        if j is None:
            cache[i, nu, t] = zero(mod)
        else:
            low = nu[:j - 1] + (nu[j - 1] - 1,) + nu[j:]
            cache[i, nu, t] = (x_mul(mod, j, _point_valued_y(mod, i, low, t, cache))
                               + _literal_bracket(mod, i, j, low, t))
    return cache[i, nu, t]


def _point_valued_z(mod, i, nu, t, cache):
    """Reference: z_i = y_i x_i + c0 phi_i on x^nu v_t at the module's point."""
    up = nu[:i - 1] + (nu[i - 1] + 1,) + nu[i:]
    return (_point_valued_y(mod, i, up, t, cache)
            + _literal_jm(mod, i, nu, t).scale(mod.point.c0))


@pytest.mark.parametrize("r, n", ORACLE_RANGE + [(4, 2), (1, 4)])
def test_tables_specialize_to_the_point_valued_recursion(r, n):
    # two modules at different points share one irrep, so one point's
    # specialization runs on tables the other's built
    rng = random.Random(9000 + 10 * r + n)
    for shape in enumerate_multipartitions(r, n):
        irrep = build_irrep(shape)
        points = [small_point(r, rng), small_point(r, rng)]
        assert points[0] != points[1]
        for point in points:
            mod, cache = StandardModule(shape, point, irrep=irrep), {}
            keys = [(nu, t) for deg in range(4) for nu in mod.monomials(deg)
                    for t in range(irrep.dim)]
            for (nu, t), i in itertools.product(keys, range(1, n + 1)):
                e = basis_vector(mod, t, nu)
                assert mod.y_act(i, e) == _point_valued_y(mod, i, nu, t, cache)
                assert mod.z_act(i, e) == _point_valued_z(mod, i, nu, t, cache)
                for j in range(1, n + 1):
                    assert _bracket_at(mod, i, j, nu, t) == _literal_bracket(mod, i, j, nu, t)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_specialize_matches_a_fraction_sum(r):
    # _specialize sums each integer entry, over the table's denominator times
    # the point's, with the point scaled to integers; the reference sums
    # Fractions.  Denominators come from one small pool, so that equal, nested
    # and coprime ones all meet, numerators take both signs, and some entries
    # cancel
    rng = random.Random(7100 + r)
    pool = (1, 2, 3, 4, 5, 6, 7, 12)

    def q(zero_share=0.25):
        return Fraction(0) if rng.random() < zero_share else \
            Fraction(rng.randint(-9, 9), rng.choice(pool))

    def k(zero_share=0.25):
        return 0 if rng.random() < zero_share else rng.randint(-9, 9)

    shape = enumerate_multipartitions(r, 1)[0]
    irrep = build_irrep(shape)
    points = [ParameterPoint(r, q(), [q() for _ in range(r)]) for _ in range(30)]
    points += [random_point(r, rng) for _ in range(5)]
    for point in points:
        params = (point.c0,) + point.d
        den = rng.choice(pool)
        table = {}
        for key in range(16):
            const, *vec = (k() for _ in range(r + 2))
            if key % 4 == 0:   # an entry that sums to zero
                vec = [a * p.denominator for a, p in zip(vec, params)]
                const = -sum(a * p for a, p in zip(vec, params))
                assert const.denominator == 1
            table[(key,), 0] = (int(const), *vec)
        expect = {}
        for key, (const, *vec) in table.items():
            total = Fraction(const, den) + sum(
                (Fraction(a, den) * p for a, p in zip(vec, params)), Fraction(0))
            if total:
                expect[key] = total
        mod = StandardModule(shape, point, irrep=irrep)
        terms = mod._specialize(table)
        assert {key: Fraction(a, den * mod._point[0]) for key, a in terms.items()} == expect
        assert all(terms.values())


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
    f, n = CyclotomicField(mod.r), mod.n
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
             if tuple((res[t] - e) % mod.r for res, e in zip(mod.irrep.zeta_residues, nu))
             == target_res]
    pos = {key: k for k, key in enumerate(block)}
    stacked = []
    for i in range(1, n + 1):
        mat = [[f.zero] * len(block) for _ in block]
        for b, key in enumerate(block):
            for key2, c in mod.z_act(i, ModuleElement(mod, {key: 1})).terms.items():
                mat[pos[key2]][b] = f.from_rational(c)
            mat[b][b] = mat[b][b] - f.from_rational(target_z[i - 1])
        stacked.extend(mat)
    kernel = _kernel(stacked, len(block), f)
    if len(kernel) != 1:
        raise EigenvalueCollision(f"kernel dimension {len(kernel)}")
    lead = x_power(mod, mu, mod.apply_perm(perm_inverse(sorting_data(mu)[2]),
                                          tableau_vector(mod, T)))
    den, vec = mod.twisted_column(mu, mod.irrep.index[T])[:2]
    assert lead == ModuleElement._reduced(mod, vec, den)
    anchor, want = min(lead.terms.items())
    got = kernel[0][pos[anchor]]
    if got.is_zero():
        raise EigenvalueCollision("kernel vector misses the leading term")
    scale = want / got
    return ModuleElement(mod, {key: (c * scale).as_rational() for key, c in zip(block, kernel[0])})


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


def _walk_eigenvector(mod, mu, T):
    """Reference: the eigenvector as solved before the irrep kept a plan per
    (mu, residue), by a walk of the exponents that the module's specialized
    z-images reach from mu and a graphlib order of them, on every call.
    Returns (the vector, the exponents walked)."""
    n, irrep = mod.n, mod.irrep
    tau = irrep.index[T]
    _, _, _, lam, lam_den = mod.twisted_column(mu, tau)
    target = irrep.column_residues(mu)[tau]

    def coordinate(nums, nu, s):
        (twist, den), (untwist, _) = irrep.twist(nu)
        return sum(twist[a][s] * nums[nu, a] for a in untwist[s] if (nu, a) in nums), den

    block, above, pending = {}, {mu: set()}, [mu]
    while pending:
        nu = pending.pop()
        block[nu] = {s: mod.twisted_column(nu, s)
                     for s, res in enumerate(irrep.column_residues(nu)) if res == target}
        for _, _, zb, _, _ in block[nu].values():
            for kappa, _ in itertools.chain(*zb):
                if kappa not in above:
                    above[kappa] = set()
                    pending.append(kappa)
                if kappa != nu:
                    above[kappa].add(nu)
    solved, images, den = {}, [{} for _ in range(n)], 1
    for nu in graphlib.TopologicalSorter(above).static_order():
        coeffs = {tau: Fraction(1)} if nu == mu else {}
        for s, (_, _, _, diag, diag_den) in block[nu].items():
            if (nu, s) == (mu, tau):
                continue
            gaps = [lam[i] * diag_den - diag[i] * lam_den for i in range(n)]
            i = next((i for i, g in enumerate(gaps) if g), None)
            if i is None:
                raise EigenvalueCollision(f"{(mu, T.as_text())} vs {(nu, irrep.tableaux[s].as_text())}")
            row, twist_den = coordinate(images[i], nu, s)
            c = Fraction(row * lam_den * diag_den, twist_den * den * gaps[i])
            if c:
                coeffs[s] = c
        for s, c in coeffs.items():
            col_den, vec, zb, _, _ = block[nu][s]
            q = c.denominator * col_den
            k = q // math.gcd(den, q)
            den *= k
            for acc in (solved, *images):
                for key in acc:
                    acc[key] *= k
            w = c.numerator * (den // q)
            for acc, add in zip((solved, *images), (vec, *zb)):
                for key, a in add.items():
                    acc[key] = acc.get(key, 0) + w * a
    return ModuleElement._reduced(mod, solved, den), set(block)


def _compare_with_the_walk(shape, irrep, point, degree=2):
    """Every (mu, T) with |mu| <= degree at point, by the plan and by the
    walk, on two modules at that point; returns how many vectors agree."""
    planned = StandardModule(shape, point, irrep=irrep)
    walked = StandardModule(shape, point, irrep=irrep)
    agreed = 0
    for T, mu in itertools.product(irrep.tableaux, compositions(shape.size, degree)):
        try:
            expect, _ = _walk_eigenvector(walked, mu, T)
        except EigenvalueCollision:
            with pytest.raises(EigenvalueCollision):
                planned.eigenvector(mu, T)
            continue
        assert planned.eigenvector(mu, T) == expect, (shape.as_text(), mu, T.as_text())
        agreed += 1
    return agreed


class TestEigenPlan:
    @pytest.mark.parametrize("r, n", ORACLE_RANGE)
    def test_plan_matches_the_walk(self, r, n):
        # three points share one irrep, so the second and third solve along
        # plans the first built
        rng = random.Random(7700 + 10 * r + n)
        agreed = 0
        for shape in enumerate_multipartitions(r, n):
            irrep = build_irrep(shape)
            for _ in range(3):
                agreed += _compare_with_the_walk(shape, irrep, small_point(r, rng))
        assert agreed > 0

    @pytest.mark.parametrize("r, n", ORACLE_RANGE)
    def test_plan_matches_the_walk_at_c0_zero(self, r, n):
        # at c0 = 0 every z-image stays at its own exponent, so the point
        # reaches only mu while the plan lists more exponents; with integer
        # d some of those have every gap zero, and the solve must skip them,
        # collide exactly where the walk collides, and agree elsewhere
        agreed = wider = silent = 0
        for shape in enumerate_multipartitions(r, n):
            irrep = build_irrep(shape)
            for d in itertools.product(range(-1, 2), repeat=r):
                point = ParameterPoint(r, 0, list(d))
                agreed += _compare_with_the_walk(shape, irrep, point)
                mod = StandardModule(shape, point, irrep=irrep)
                for T, mu in itertools.product(irrep.tableaux, compositions(n, 2)):
                    try:
                        _, walked = _walk_eigenvector(mod, mu, T)
                    except EigenvalueCollision:
                        continue
                    tau = irrep.index[T]
                    _, _, _, lam, lam_den = mod.twisted_column(mu, tau)
                    plan = irrep.eigen_plan(mu, irrep.column_residues(mu)[tau])
                    assert walked == {mu}
                    wider += len(plan) > 1
                    silent += sum(all(Fraction(a, diag_den) == Fraction(b, lam_den)
                                      for a, b in zip(diag, lam))
                                  for nu, columns, _ in plan[1:] for s, _ in columns
                                  for _, _, _, diag, diag_den in [mod.twisted_column(nu, s)])
        assert agreed > 0 and wider > 0
        assert silent > 0 or r == 1

    @pytest.mark.parametrize("r, n", ORACLE_RANGE + [(1, 4)])
    def test_images_leave_their_exponent_only_through_c0(self, r, n):
        # what the solve relies on at c0 = 0: a twisted column's z-images
        # have only a c0 coefficient at every key off the column's exponent
        for shape in enumerate_multipartitions(r, n):
            irrep = build_irrep(shape)
            for nu, s in itertools.product(compositions(n, 2), range(irrep.dim)):
                for image in irrep.twisted_table(nu, s):
                    for (kappa, _), (const, c0, *d) in image.items():
                        assert kappa == nu or (const == 0 and c0 and not any(d))

    def test_a_second_module_builds_no_plan(self, monkeypatch):
        # the plans are point-free: a module at a new point on the same irrep
        # finds every one of them kept, and never runs graphlib
        rng = random.Random(7850)
        shape = parse_multipartition("2,1|1")
        irrep = build_irrep(shape)
        cases = list(itertools.product(irrep.tableaux, compositions(shape.size, 2)))
        first = StandardModule(shape, small_point(2, rng), irrep=irrep)
        for T, mu in cases:
            first.eigenvector(mu, T)
        plans = set(irrep._tables["eigen_plan"])
        assert plans
        point = small_point(2, rng)
        walked = StandardModule(shape, point, irrep=irrep)
        expect = [_walk_eigenvector(walked, mu, T)[0] for T, mu in cases]

        def refuse(*_args):
            raise AssertionError("a plan was built again")

        monkeypatch.setattr(graphlib, "TopologicalSorter", refuse)
        second = StandardModule(shape, point, irrep=irrep)
        assert [second.eigenvector(mu, T) for T, mu in cases] == expect
        assert set(irrep._tables["eigen_plan"]) == plans


def test_eigenvector_does_not_use_the_closed_spectrum(monkeypatch, rng):
    # the oracle holds no name from norms, so it could only read norms.spectrum
    from cherednik_kit import norms

    def closed_formula(*_args):
        raise AssertionError("the oracle read the closed-formula spectrum")

    point = small_point(2, rng)
    mod = StandardModule(parse_multipartition("1|1"), point)
    T = mod.irrep.tableaux[0]
    expect = mod.gram_weight(T) * nonsymmetric_norm((2, 1), T).evaluate(point)
    monkeypatch.setattr(norms, "spectrum", closed_formula)
    assert mod.norm(mod.eigenvector((2, 1), T)) == expect


def test_verify_report_rejects_a_shape_of_another_size():
    with pytest.raises(ValueError, match="size 3"):
        verify_report(1, 2, shape_text="3")


class TestReportShapeByShape:
    """verify_report runs shape by shape, dropping each shape's module before
    it builds the next, and each check draws from its own stream."""

    @staticmethod
    def _peak(**kwargs):
        tracemalloc.start()
        try:
            verify_report(2, 2, degree=2, seed=7, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_whole_report_peaks_near_its_largest_shape(self):
        largest = max(self._peak(shape_text=s.as_text()) for s in enumerate_multipartitions(2, 2))
        assert self._peak() <= 2.5 * largest

    @pytest.mark.parametrize("table", [
        lambda checks: [c for c in checks if c[0] != "eigenvector norms vs closed formula"],
        lambda checks: checks[::-1],
    ], ids=["without-eigenvector-norms", "reversed"])
    def test_a_check_reads_the_same_draws_whatever_runs_beside_it(self, monkeypatch, table):
        def rows():
            # at this seed the intertwiner count depends on the draws: a
            # shared stream moves it when another check's draws change
            report = verify_report(1, 3, degree=2, seed=63)
            return {c["name"]: (c["status"], c["details"]) for c in report["checks"]}

        full = rows()
        monkeypatch.setattr(oracle, "_CHECKS", tuple(table(oracle._CHECKS)))
        part = rows()
        assert len(part) == 2 + len(oracle._CHECKS)
        assert part == {name: full[name] for name in part}


@pytest.mark.parametrize("corruption", ["cycle", "off-diagonal"])
def test_eigenvector_rejects_a_z_action_that_is_not_triangular(corruption, rng):
    # r = 1, so every key is in the residue block; the solve takes its
    # coordinates from z_1 where it can, and the exact check must see z_3.
    # The corruption goes into the irrep's z-tables, so into every twisted
    # table built from them
    shape, point, mu = parse_multipartition("2,1"), small_point(1, rng), (1, 0, 1)
    T = build_irrep(shape).tableaux[0]
    lower = next(nu for nu, _ in StandardModule(shape, point).eigenvector(mu, T).terms
                 if nu != mu)
    mod = StandardModule(shape, point)
    irrep = mod.irrep
    honest = irrep.table

    def corrupted(kind, i, key):
        # add the basis term at `to` with coefficient 1, over the tables' denominator
        table = dict(honest(kind, i, key))
        to = {("cycle", 1, lower): mu, ("off-diagonal", 3, mu): lower}.get((corruption, i, key[0]))
        if kind == "z_table" and to is not None:
            const, *rest = table.get((to, key[1]), (0, 0, 0))
            table[to, key[1]] = (const + irrep.denominator, *rest)
        return table

    irrep.table = corrupted
    with pytest.raises(AssertionError, match="not triangular"):
        mod.eigenvector(mu, T)


def _fraction_triangular(mod, degree, rng):
    """Reference: the triangularity check with a Fraction per twisted
    coordinate, every coordinate compared with nu on its own."""
    from cherednik_kit.combinatorics import Comparison, composition_compare
    count = 0
    for nu, t in oracle._basis(mod, degree, 2):
        T = mod.irrep.tableaux[t]
        den, vec, images, diag, diag_den = mod.twisted_column(nu, t)
        elt = ModuleElement._reduced(mod, vec, den)
        for i, data in enumerate(spectrum(nu, T)):
            image = ModuleElement._reduced(mod, images[i], den)
            if image != mod.z_act(i + 1, elt):
                raise AssertionError(f"twisted table image z_{i + 1} at {nu}, {T.as_text()}")
            image = twisted_coordinates(mod, image)
            expect = data.z_eigenvalue.evaluate(mod.point)
            if not image.pop((nu, t), 0) == Fraction(diag[i], diag_den) == expect:
                raise AssertionError(f"diagonal at {nu}, {T.as_text()}")
            for (kappa, u), c in image.items():
                if composition_compare(nu, kappa) is not Comparison.GREATER:
                    raise AssertionError(f"non-triangular entry {(kappa, u)} from {(nu, t)}")
            count += 1
    return count, 0


class TestIntegerTriangularity:
    """The triangularity check compares integers: the twisted diagonal of
    each z-image with the twisted column's diag, and diag with the closed
    eigenvalue by one cross-product; and each exponent an image reaches with
    nu, once.  The mutations below keep a column's z-images, its diag and
    the module's z-action consistent with each other, so only those
    comparisons can see them."""

    @pytest.mark.parametrize("r, n", ORACLE_RANGE)
    def test_counts_match_the_fraction_reference(self, r, n):
        rng = random.Random(2800 + 10 * r + n)
        for shape in enumerate_multipartitions(r, n):
            mod = StandardModule(shape, small_point(r, rng))
            assert oracle._check_triangular(mod, 2, rng) == _fraction_triangular(mod, 2, rng)

    @staticmethod
    def _poisoned(text, nu, t, i, to=None, into=("image", "diag")):
        """A module whose twisted column (nu, t) is one basis vector x^nu v_a
        (w_nu v_a = v_t), with one more unit, over the column's denominator,
        in its z_{i+1}-image: at the basis term (to, b), b the other tableau
        when to is nu and 0 otherwise, or at (nu, a), on the diagonal, when
        to is None.  With "image" in `into`, the unit goes into the twisted
        table's image and into z_act's specialized image of x^nu v_a; with
        "diag", on the diagonal, into diag."""
        shape = parse_multipartition(text)
        mod = StandardModule(shape, small_point(shape.r, random.Random(2801)))
        assert oracle._check_triangular(mod, 2, None)[0]
        den, vec, images, diag, diag_den = mod.twisted_column(nu, t)
        ((_, a), c), = vec.items()
        swap = {a: t, t: a}   # w_nu, a permutation matrix
        assert c == den == diag_den == mod._den and mod.irrep.twist(nu)[0] == (
            tuple({swap.get(b, b): 1} for b in range(mod.irrep.dim)), 1)
        term = (nu, a) if to is None else (to, 1 - a if to == nu else 0)
        mod.z_act(i + 1, basis_vector(mod, a, nu))
        if "image" in into:
            for table in (images[i], mod._images["z_table"][i][nu, a]):
                table[term] = table.get(term, 0) + 1
        if "diag" in into and term == (nu, a):
            diag[i] += 1
        return mod

    @pytest.mark.parametrize("text, nu, t, i, to", [
        # exponents of nu's degree above it in the composition order
        ("2", (0, 1), 0, 0, (1, 0)), ("|2", (1, 1), 0, 1, (2, 0)), ("||2", (1, 1), 0, 0, (0, 2)),
        # nu itself, at the other tableau's coordinate
        ("1|1", (0, 0), 0, 0, (0, 0)), ("1|1", (1, 0), 1, 1, (1, 0)),
    ])
    @pytest.mark.parametrize("check", [oracle._check_triangular, _fraction_triangular],
                             ids=["integers", "fractions"])
    def test_an_entry_at_an_exponent_not_lower_fails(self, text, nu, t, i, to, check):
        mod = self._poisoned(text, nu, t, i, to)
        with pytest.raises(AssertionError, match="non-triangular entry"):
            check(mod, 2, None)

    @pytest.mark.parametrize("text, nu, t, i", [
        ("2", (0, 0), 0, 0), ("|2", (1, 0), 0, 1), ("||2", (1, 1), 0, 0), ("1|1", (0, 1), 1, 1),
    ])
    @pytest.mark.parametrize("into", [("image", "diag"), ("diag",), ("image",)],
                             ids=["image-and-diag", "diag-alone", "image-alone"])
    @pytest.mark.parametrize("check", [oracle._check_triangular, _fraction_triangular],
                             ids=["integers", "fractions"])
    def test_a_diagonal_off_by_one_unit_fails(self, text, nu, t, i, into, check):
        # against the closed eigenvalue, and the image against diag
        mod = self._poisoned(text, nu, t, i, into=into)
        with pytest.raises(AssertionError, match="diagonal at"):
            check(mod, 2, None)


@pytest.mark.parametrize("r, n", [(1, 3), (2, 3), (3, 2), (4, 2)])
def test_module_operators_build_no_cyclotomic_number(r, n, monkeypatch):
    # the module computes over Q: once build_irrep has checked the group
    # relations over Q(zeta_r), no operator builds a CycNumber
    rng = random.Random(7900 + r)
    shapes = enumerate_multipartitions(r, n)
    irreps = [build_irrep(shape) for shape in shapes]

    def refuse(*_args):
        raise AssertionError("a CycNumber was built")

    monkeypatch.setattr(CycNumber, "__init__", refuse)
    for shape, irrep in zip(shapes, irreps):
        mod = StandardModule(shape, small_point(r, rng), irrep=irrep)
        for T, mu in itertools.product(irrep.tableaux, [(0,) * n, (1,) + (0,) * (n - 1)]):
            mod2, f = mod.eigenvector_generic(mu, T, rng)
            expect = mod2.gram_weight(T) * nonsymmetric_norm(mu, T).evaluate(mod2.point)
            assert mod2.norm(f) == expect
            for i in range(1, n + 1):
                lam = mod2.eigenvalue_of(i, f)
                assert mod2.z_act(i, f) == f.scale(lam)
                assert mod2.pairing(mod2.z_act(i, f), f) == lam * expect
                xf = x_mul(mod2, i, f)
                assert mod2.pairing(xf, xf) == mod2.pairing(f, mod2.y_act(i, xf))
            s1f = mod2.apply_perm(simple_transposition(n, 1), f)
            assert mod2.symmetrize(s1f) == mod2.symmetrize(f)
            try:
                square = 1 - mod2.intertwiner_scalar(1, f) ** 2
            except ZeroGapError:
                continue
            assert mod2.intertwiner(1, mod2.intertwiner(1, f)) == f.scale(square)


@pytest.mark.parametrize("r", [2, 3])
def test_form_check_sees_a_cross_residue_term(r, monkeypatch):
    # a symmetric term between two basis terms of different zeta_1-residues
    # breaks the invariance under zeta_1 alone
    honest = StandardModule.pairing

    def leaky(self, u, v):
        keys = [(nu, t) for nu in self.monomials(2) for t in range(self.irrep.dim)]
        k1 = keys[0]
        k2 = next(k for k in keys if self.residue(1, k) != self.residue(1, k1))
        a, b = u.terms, v.terms
        return honest(self, u, v) + a.get(k1, 0) * b.get(k2, 0) + a.get(k2, 0) * b.get(k1, 0)

    assert verify_report(r, 2, degree=2, seed=7)["ok"]
    monkeypatch.setattr(StandardModule, "pairing", leaky)
    checks = {c["name"]: c for c in verify_report(r, 2, degree=2, seed=7)["checks"]}
    form = checks["contravariant form properties"]
    assert (form["status"], form["details"]) == ("fail", "AssertionError: pairing not W-invariant")


def test_each_check_draws_from_a_stream_of_its_own_shape(monkeypatch):
    # every per-shape check, the form check included, starts from the same
    # random state whether its shape runs alone or after other shapes
    seen = {}

    def recording(name, check):
        def wrapped(mod, degree, rng):
            seen[name, mod.shape.as_text()] = hash(rng.getstate())
            return check(mod, degree, rng)
        return wrapped

    checks = tuple((name, recording(name, check), details)
                   for name, check, details in oracle._CHECKS)
    monkeypatch.setattr(oracle, "_CHECKS", checks)
    monkeypatch.setattr(oracle, "_check_form",
                        next(check for name, check, _ in checks if name == "contravariant form properties"))
    report = verify_report(2, 2, degree=2, seed=7)
    assert report["ok"] and len(report["shapes"]) == 5
    together, seen = seen, {}
    for shape in report["shapes"]:
        assert verify_report(2, 2, degree=2, seed=7, shape_text=shape)["ok"]
    assert len(together) == 5 * len(checks)
    assert seen == together


def test_oracle_holds_nothing_from_the_closed_formulas():
    # the oracle certifies the closed formulas without sharing their code: no
    # module-level name of the oracle is defined in norms (verify_report
    # imports what it compares with locally)
    from cherednik_kit import norms
    assert not [name for name, value in vars(oracle).items()
                if value is norms or getattr(value, "__module__", None) == norms.__name__]


def test_no_library_module_imports_cyclotomic():
    # Q(zeta_r) is the tests' reference field and the benchmark's probe
    # target: the library computes over Q and imports it nowhere
    src = pathlib.Path(oracle.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "cyclotomic.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if any("cyclotomic" in name.split(".") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(src.glob("*.py"))) > 2 and found == []
