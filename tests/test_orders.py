import itertools
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from cherednik_kit.combinatorics import (
    BoxRef,
    Comparison,
    MultiPartition,
    as_partition,
    dominance_compare,
    enumerate_multipartitions,
    parse_multipartition,
    partitions_of,
)
from cherednik_kit.orders import (
    OrderContext,
    assemble,
    beta_numbers,
    charge_offset,
    counting_combination,
    counting_identity_check,
    disassemble,
    equiv_c,
    geq_c,
    geq_c_quotient,
    linkage_matching,
    quotient_compare,
)
from cherednik_kit.scalars import ParameterPoint


def ctx_of(r, c0, d):
    return OrderContext(ParameterPoint(r, c0, d))


def lattice_context(r, rng, span=2):
    c0 = Fraction(rng.randint(1, 2))
    a = [rng.randint(-span, span) for _ in range(r - 1)]
    a.append(-sum(a))
    d = [0] * r
    for i in range(1, r + 1):
        d[(r - i) % r] = r * c0 * a[i - 1]
    return OrderContext(ParameterPoint(r, c0, d))


def _charges(shape, ctx):
    return [(ctx.charge(b), b.component) for b in shape.boxes()]


def _count(charges, j, l):
    """Literal N(j, l) = #{b : theta(b) > j, or theta(b) = j and beta(b) <= l}
    over the (theta(b), beta(b)) of a shape's boxes."""
    return sum(1 for t, beta in charges if t > j or (t == j and beta <= l))


def _literal_geq_c(a, b, r):
    """N_a(j, l) >= N_b(j, l) at every realized threshold j and every l, for
    charge lists a, b; both counts are constant between realized thresholds."""
    thresholds = {t for t, _ in a + b}
    return all(_count(a, j, l) >= _count(b, j, l) for j in thresholds for l in range(r))


# per r: integer charges, charges tied across components, a generic point
LITERAL_POINTS = {
    1: [(1, [0]), (Fraction(1, 2), [Fraction(1, 3)]), (Fraction(7, 3), [Fraction(-2, 5)])],
    2: [(1, [2, -2]), (Fraction(1, 2), [1, 1]), (Fraction(2, 3), [Fraction(1, 3), Fraction(-2, 5)])],
    3: [(1, [3, 0, -3]), (Fraction(1, 3), [1, 1, 0]),
        (Fraction(3, 4), [Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)])],
}


class TestGeqC:
    def test_reflexive(self):
        lam = parse_multipartition("2,1|1")
        ctx = ctx_of(2, Fraction(1, 2), [Fraction(1, 3), Fraction(-2, 5)])
        assert geq_c(lam, lam, ctx)

    def test_reduces_to_dominance_r1(self):
        ctx = ctx_of(1, Fraction(7, 3), [0])
        for n in range(7):
            for a in enumerate_multipartitions(1, n):
                for b in enumerate_multipartitions(1, n):
                    expect = dominance_compare(a.components[0], b.components[0]) in (
                        Comparison.GREATER, Comparison.EQUAL)
                    assert geq_c(a, b, ctx) == expect

    def test_hand_example(self):
        ctx = ctx_of(2, 1, [1, -1])
        assert geq_c(parse_multipartition("1|"), parse_multipartition("|1"), ctx)
        assert not geq_c(parse_multipartition("|1"), parse_multipartition("1|"), ctx)

    def test_requires_positive_c0(self):
        ctx = ctx_of(1, Fraction(-1), [0])
        with pytest.raises(ValueError):
            geq_c(parse_multipartition("1"), parse_multipartition("1"), ctx)

    def test_dense_threshold_fallback(self, rng):
        # the sorted walk agrees with the literal counts at dense thresholds
        for _ in range(20):
            r = rng.randint(1, 2)
            n = rng.randint(1, 4)
            shapes = enumerate_multipartitions(r, n)
            a = shapes[rng.randrange(len(shapes))]
            b = shapes[rng.randrange(len(shapes))]
            ctx = ctx_of(r, Fraction(rng.randint(1, 4), rng.randint(1, 3)),
                         [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(r)])
            thresholds = sorted({ctx.charge(x) for s in (a, b) for x in s.boxes()})
            dense = thresholds + [t + Fraction(1, 7) for t in thresholds]
            dense += [thresholds[0] - 1] if thresholds else [Fraction(0)]
            ca, cb = _charges(a, ctx), _charges(b, ctx)
            verdict = all(_count(ca, j, l) >= _count(cb, j, l) for j in dense for l in range(r))
            assert geq_c(a, b, ctx) == verdict

    @pytest.mark.parametrize("r, n_max", [(1, 4), (2, 4), (3, 3)])
    def test_matches_literal_count_exhaustive(self, r, n_max):
        for c0, d in LITERAL_POINTS[r]:
            ctx = ctx_of(r, c0, d)
            for n in range(n_max + 1):
                shapes = enumerate_multipartitions(r, n)
                charges = [_charges(s, ctx) for s in shapes]
                for a, ca in zip(shapes, charges):
                    for b, cb in zip(shapes, charges):
                        assert geq_c(a, b, ctx) == _literal_geq_c(ca, cb, r), (
                            c0, d, a.as_text(), b.as_text())

    def test_partial_order_axioms(self, rng):
        for r in (1, 2):
            shapes = enumerate_multipartitions(r, 4)
            ctx = ctx_of(r, Fraction(rng.randint(1, 3), rng.randint(1, 2)),
                         [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(r)])
            rel = {(i, j): geq_c(a, b, ctx)
                   for i, a in enumerate(shapes) for j, b in enumerate(shapes)}
            m = len(shapes)
            for i in range(m):
                assert rel[(i, i)]
                for j in range(m):
                    if i != j:
                        assert not (rel[(i, j)] and rel[(j, i)])
                    for k in range(m):
                        if rel[(i, j)] and rel[(j, k)]:
                            assert rel[(i, k)]


class TestEquivC:
    def test_reflexive(self):
        lam = parse_multipartition("2|1,1")
        ctx = ctx_of(2, Fraction(2, 3), [Fraction(1, 5), Fraction(-1, 5)])
        assert equiv_c(lam, lam, ctx)

    def test_hand_examples(self):
        assert equiv_c(parse_multipartition("1|"), parse_multipartition("|1"),
                       ctx_of(2, Fraction(1, 2), [0, 1]))
        assert not equiv_c(parse_multipartition("1|"), parse_multipartition("|1"),
                           ctx_of(2, 1, [1, -1]))

    def test_rejects_zero_c0(self):
        with pytest.raises(ValueError):
            ctx_of(1, 0, [0])


class TestLinkage:
    def test_identity_matching(self):
        lam = parse_multipartition("2,1|1")
        ctx = ctx_of(2, Fraction(1, 2), [Fraction(1, 3), Fraction(-2, 7)])
        m = linkage_matching(lam, lam, ctx)
        assert m is not None and all(mu == 0 and x == y for x, y, mu in m)

    def test_congruence_blocks_matching(self):
        # mu_1 = d_0 - d_1 = 2 but beta shift 0 - 2 != 1 mod 2: no matching
        ctx = ctx_of(2, 1, [1, -1])
        assert linkage_matching(parse_multipartition("1|"),
                                parse_multipartition("|1"), ctx) is None

    def test_matching_implies_order_and_equiv(self, rng):
        checked = 0
        for r in (1, 2):
            for n in (2, 3, 4):
                shapes = enumerate_multipartitions(r, n)
                for _ in range(2):
                    ctx = lattice_context(r, rng)
                    for a in shapes:
                        for b in shapes:
                            if linkage_matching(a, b, ctx) is not None:
                                assert geq_c(a, b, ctx)
                                assert equiv_c(a, b, ctx)
                                checked += 1
        assert checked > 100


class TestBetaNumbers:
    def test_empty(self):
        bs = beta_numbers((), 0)
        assert bs.members_down_to(Fraction(-3)) == [0, -1, -2, -3]

    def test_three_one(self):
        bs = beta_numbers((3, 1), 0)
        assert bs.members_down_to(Fraction(-3)) == [3, 0, -2, -3]

    def test_first_members_are_shifted_contents(self):
        lam = (4, 2, 1)
        bs = beta_numbers(lam, Fraction(5, 2))
        members = bs.members_down_to(Fraction(-10))
        rightmost = [lam[i] - (i + 1) for i in range(len(lam))]
        assert members[: len(lam)] == [c + Fraction(5, 2) + 1 for c in rightmost]


class TestAssembleDisassemble:
    def test_empty(self):
        assert assemble((0,) * 3, MultiPartition(3, ((), (), ()))) == ()
        a, q = disassemble((), 3)
        assert a == (0, 0, 0) and q.size == 0

    def test_spec_example(self):
        assert assemble((0, 0), parse_multipartition("|1")) == (1, 1)
        a, q = disassemble((1, 1), 2)
        assert a == (0, 0) and q.as_text() == "|1"

    def test_roundtrip_all_partitions(self):
        for r in (1, 2, 3, 4):
            for n in range(13):
                for lam in partitions_of(n):
                    a, q = disassemble(lam, r)
                    assert assemble(a, q) == lam

    def test_size_affine(self, rng):
        for _ in range(60):
            r = rng.randint(1, 4)
            n = rng.randint(0, 4)
            shapes = enumerate_multipartitions(r, n)
            s = shapes[rng.randrange(len(shapes))]
            a = [rng.randint(-2, 2) for _ in range(r - 1)]
            a.append(-sum(a))
            empty = MultiPartition(r, ((),) * r)
            assert sum(assemble(a, s)) - sum(assemble(a, empty)) == r * n

    def test_rejects_off_lattice(self):
        with pytest.raises(ValueError):
            assemble((1, 0), parse_multipartition("|1"))


PROPERTY = settings(deadline=None, database=None, derandomize=True)

_PARTITIONS = st.lists(st.integers(1, 6), max_size=6).map(
    lambda parts: as_partition(sorted(parts, reverse=True)))


@st.composite
def _charged_quotients(draw):
    """(charges, quotient): r <= 4 integer charges summing to zero and an
    r-partition, the valid inputs of `assemble`."""
    r = draw(st.integers(1, 4))
    charges = draw(st.lists(st.integers(-3, 3), min_size=r - 1, max_size=r - 1))
    charges.append(-sum(charges))
    return tuple(charges), MultiPartition(r, tuple(draw(_PARTITIONS) for _ in range(r)))


class TestAssembleProperties:
    @PROPERTY
    @given(_PARTITIONS, st.integers(1, 4))
    def test_assemble_inverts_disassemble(self, lam, r):
        assert assemble(*disassemble(lam, r)) == lam

    @PROPERTY
    @given(_charged_quotients())
    def test_disassemble_inverts_assemble(self, pair):
        charges, quotient = pair
        assert disassemble(assemble(charges, quotient), quotient.r) == pair


def _tilted_charge(ctx, b):
    """Literal ttheta(b) = ct(b) + (d_beta(b) - beta(b))/(r c0)."""
    p = ctx.point
    l = b.component % p.r
    return b.content + (p.d[l] - l) / (p.r * p.c0)


def _literal_equiv_c(a, b, ctx):
    """The multisets of ttheta(x) mod 1/c0, decided as ttheta(x) c0 mod 1."""
    def classes(shape):
        return sorted((_tilted_charge(ctx, x) * ctx.c0) % 1 for x in shape.boxes())

    return classes(a) == classes(b)


def _literal_mu(ctx, b, b2):
    """mu = d_beta(b) - d_beta(b2) + r(ct(b) - ct(b2))c0 when it is a non-negative
    integer with beta(b) - mu = beta(b2) mod r, else None."""
    p = ctx.point
    mu = (p.d[b.component % p.r] - p.d[b2.component % p.r]
          + p.r * (b.content - b2.content) * p.c0)
    if mu.denominator != 1 or mu < 0 or (b.component - mu - b2.component) % p.r:
        return None
    return int(mu)


def _some_bijection_admissible(a, b, ctx):
    """Brute force over every bijection between the boxes of a and b."""
    left = a.boxes()
    return any(all(_literal_mu(ctx, x, y) is not None for x, y in zip(left, image))
               for image in permutations(b.boxes()))


@st.composite
def _off_lattice_cases(draw, positive=False):
    """(context, lam, chi) with r <= 3 and 1 <= |lam| = |chi| <= 4.  c0 = p/q
    with q <= 9 and either sign (c0 > 0 if `positive`), d_l = r c0 k_l + e_l
    with small integers k_l, which tie boxes across components, and e_l over
    one denominator up to 6, which moves the point off the lattice."""
    r = draw(st.integers(1, 3))
    c0 = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    if not positive and draw(st.booleans()):
        c0 = -c0
    e_den = draw(st.integers(1, 6))
    d = [r * c0 * draw(st.integers(-2, 2)) + Fraction(draw(st.integers(-6, 6)), e_den)
         for _ in range(r)]
    shapes = enumerate_multipartitions(r, draw(st.integers(1, 4)))
    lam, chi = (shapes[draw(st.integers(0, len(shapes) - 1))] for _ in range(2))
    return ctx_of(r, c0, d), lam, chi


OFF_LATTICE = settings(PROPERTY, max_examples=400)


class TestOrdersOffTheLattice:
    """The integer orders against literal `Fraction` references at points
    whose charges and classes have denominators."""

    @OFF_LATTICE
    @given(_off_lattice_cases(positive=True))
    def test_geq_c_matches_literal_counts(self, case):
        ctx, lam, chi = case
        assert geq_c(lam, chi, ctx) == _literal_geq_c(_charges(lam, ctx), _charges(chi, ctx),
                                                      ctx.point.r)

    @OFF_LATTICE
    @given(_off_lattice_cases())
    def test_equiv_c_matches_literal_classes(self, case):
        ctx, lam, chi = case
        assert equiv_c(lam, chi, ctx) == _literal_equiv_c(lam, chi, ctx)

    @OFF_LATTICE
    @given(_off_lattice_cases())
    def test_linkage_matching_matches_brute_force(self, case):
        ctx, lam, chi = case
        matching = linkage_matching(lam, chi, ctx)
        assert (matching is not None) == _some_bijection_admissible(lam, chi, ctx)
        if matching is not None:
            assert [x for x, _, _ in matching] == sorted(lam.boxes(), key=BoxRef.sort_key)
            assert sorted(y.sort_key() for _, y, _ in matching) == sorted(
                y.sort_key() for y in chi.boxes())
            assert all(mu == _literal_mu(ctx, x, y) for x, y, mu in matching)

    @OFF_LATTICE
    @given(_off_lattice_cases())
    def test_integer_charges_match_literal_charges(self, case):
        ctx, _, _ = case
        p = ctx.point
        literal = [p.d[(p.r - i) % p.r] / (p.r * p.c0) for i in range(1, p.r + 1)]
        expected = None if any(a.denominator != 1 for a in literal) else tuple(map(int, literal))
        assert ctx.integer_charges() == expected


class TestQuotientOrder:
    def test_reflexive(self, rng):
        ctx = lattice_context(2, rng)
        lam = parse_multipartition("2|1")
        assert geq_c_quotient(lam, lam, ctx)

    def test_r1_reduces_to_dominance(self):
        ctx = ctx_of(1, 2, [0])
        for n in range(6):
            for a in enumerate_multipartitions(1, n):
                for b in enumerate_multipartitions(1, n):
                    expect = dominance_compare(a.components[0], b.components[0]) in (
                        Comparison.GREATER, Comparison.EQUAL)
                    assert geq_c_quotient(a, b, ctx) == expect

    def test_geq_is_the_comparison_at_least_equal(self, rng):
        # geq_c_quotient reads quotient_compare, and swapping the shapes
        # reverses the comparison
        flip = {Comparison.GREATER: Comparison.LESS, Comparison.LESS: Comparison.GREATER}
        for r, n in ((1, 4), (2, 3), (3, 2)):
            ctx = lattice_context(r, rng)
            shapes = enumerate_multipartitions(r, n)
            for a, b in itertools.product(shapes, repeat=2):
                verdict = quotient_compare(a, b, ctx)
                assert geq_c_quotient(a, b, ctx) == (verdict in (Comparison.GREATER,
                                                                 Comparison.EQUAL))
                assert quotient_compare(b, a, ctx) is flip.get(verdict, verdict)
                assert (verdict is Comparison.EQUAL) == (a == b)

    def test_requires_integer_charges(self):
        ctx = ctx_of(2, 1, [1, -1])
        with pytest.raises(ValueError):
            geq_c_quotient(parse_multipartition("1|"), parse_multipartition("|1"), ctx)

    def test_implication_exhaustive(self, rng):
        tested = 0
        for r in (1, 2):
            for n in (2, 3, 4):
                shapes = enumerate_multipartitions(r, n)
                for _ in range(2):
                    ctx = lattice_context(r, rng)
                    for a in shapes:
                        for b in shapes:
                            if geq_c(a, b, ctx) and equiv_c(a, b, ctx):
                                assert geq_c_quotient(a, b, ctx)
                                tested += 1
        assert tested > 100


class TestCountingIdentity:
    def test_zero_charges_offset_vanishes(self):
        for r in (1, 2, 3):
            for j in (Fraction(-3), Fraction(-1, 2), Fraction(0), Fraction(5, 3)):
                assert charge_offset((0,) * r, j, r) == 0

    def test_spec_example(self):
        sh = parse_multipartition("|1")
        for j in range(-3, 4):
            rep = counting_identity_check(sh, (0, 0), j)
            assert rep.ok

    def test_randomized_200(self, rng):
        done = 0
        while done < 200:
            r = rng.randint(1, 3)
            n = rng.randint(0, 6)
            shapes = enumerate_multipartitions(r, n)
            s = shapes[rng.randrange(len(shapes))]
            a = [rng.randint(-2, 2) for _ in range(r - 1)]
            a.append(-sum(a))
            j = Fraction(rng.randint(-2 * (n + 2), 2 * (n + 2)), rng.randint(1, 2))
            rep = counting_identity_check(s, tuple(a), j)
            assert rep.ok, (r, s.as_text(), a, j)
            done += 1

    def test_beta_contents_case_formula(self, rng):
        # |{b : ct(b) = k}| from the beta-number window, both signs of k
        for _ in range(40):
            n = rng.randint(0, 9)
            parts = partitions_of(n)
            lam = parts[rng.randrange(len(parts))]
            s = Fraction(rng.randint(-4, 4))
            k = rng.randint(-5, 5)
            members = beta_numbers(lam, s).members_down_to(s - len(lam) - 8)
            count_beta = sum(1 for x in members if x >= k + s + 1)
            direct = sum(1 for i, row in enumerate(lam, start=1)
                         for col in range(1, row + 1) if col - i == k)
            if k >= 0:
                assert direct == count_beta
            else:
                assert direct == count_beta + k
