import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cherednik_kit.combinatorics import (
    BoxRef,
    Comparison,
    MultiPartition,
    ShapeAssignment,
    StandardTableau,
    as_partition,
    assignment_pair,
    box_stats,
    bruhat_interval_elements,
    bruhat_leq,
    composition_compare,
    conjugate,
    dominance_compare,
    dominance_via_contents,
    enumerate_multipartitions,
    enumerate_syt,
    multipartition_count,
    parse_assignment,
    parse_multipartition,
    parse_tableau,
    partitions_of,
    perm_act,
    perm_identity,
    perm_length,
    perm_longest,
    perm_mul,
    shape_assignment,
    sorting_data,
)

PAPER_SHAPE = parse_multipartition("3,2|2,2")
PAPER_T = parse_tableau("1,3,4/8,9|2,6/5,7", PAPER_SHAPE)
PICTURED_T = parse_tableau("2,4,6/3,9|1,5/7,8", PAPER_SHAPE)


class TestConjugate:
    def test_empty(self):
        assert conjugate(()) == ()

    def test_column_counting(self):
        assert conjugate((3, 1)) == (2, 1, 1)

    def test_involution(self):
        for n in range(9):
            for lam in partitions_of(n):
                assert conjugate(conjugate(lam)) == lam


class TestBoxStats:
    def test_pictured_tableau(self):
        b7 = PICTURED_T.box_of(7)
        assert box_stats(PAPER_SHAPE, b7)[1] == 1
        b3 = PICTURED_T.box_of(3)
        assert box_stats(PAPER_SHAPE, b3)[0] == -1

    def test_origin(self):
        assert box_stats(PAPER_SHAPE, BoxRef(0, 1, 1)) == (0, 0)

    def test_invalid_box(self):
        with pytest.raises(ValueError):
            box_stats(PAPER_SHAPE, BoxRef(0, 1, 4))


class TestSortingData:
    def test_paper_example(self):
        _, _, w, _ = sorting_data((2, 3, 2, 0, 4, 2, 5, 2, 2))
        assert w == (6, 7, 5, 1, 8, 4, 9, 3, 2)

    def test_constant_gives_longest(self):
        for n in (1, 2, 3, 4):
            _, _, w, _ = sorting_data((2,) * n)
            assert w == perm_longest(n)

    def test_two_entries(self):
        _, _, w, r = sorting_data((1, 0))
        assert w == (2, 1) and r == (1, 2)

    def test_rank_complement(self, rng):
        for _ in range(30):
            n = rng.randint(1, 8)
            mu = tuple(rng.randint(0, 3) for _ in range(n))
            _, _, w, r = sorting_data(mu)
            assert all(w[i] + r[i] == n + 1 for i in range(n))

    def test_sorts_to_nondecreasing(self, rng):
        for _ in range(50):
            n = rng.randint(1, 7)
            mu = tuple(rng.randint(0, 4) for _ in range(n))
            plus, minus, w, _ = sorting_data(mu)
            assert perm_act(w, mu) == minus
            assert minus == tuple(sorted(mu))
            assert plus == tuple(x for x in sorted(mu, reverse=True) if x > 0)

    def test_maximal_length_brute_force(self, rng):
        cases = [mu for n in (1, 2, 3) for mu in itertools.product(range(3), repeat=n)]
        for n in (4, 5):
            cases += [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(15)]
        for mu in cases:
            n = len(mu)
            _, minus, w, _ = sorting_data(mu)
            best = max(
                (p for p in itertools.permutations(range(1, n + 1)) if perm_act(p, mu) == minus),
                key=perm_length,
            )
            assert perm_length(w) == perm_length(best)
            assert perm_act(w, mu) == minus


class TestBruhat:
    def test_against_subword_closure(self):
        for n in (2, 3, 4):
            perms = list(itertools.permutations(range(1, n + 1)))
            for w in perms:
                interval = bruhat_interval_elements(w)
                for u in perms:
                    assert bruhat_leq(u, w) == (u in interval), (u, w)

    def test_reflexive_identity(self):
        assert bruhat_leq(perm_identity(3), perm_longest(3))
        assert not bruhat_leq(perm_longest(3), perm_identity(3))


class TestDominance:
    def test_basic(self):
        assert dominance_compare((2,), (1, 1)) is Comparison.GREATER
        assert dominance_compare((3, 3), (4, 1, 1)) is Comparison.INCOMPARABLE
        assert dominance_compare((2, 1), (2, 1)) is Comparison.EQUAL

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            dominance_compare((2,), (1,))

    def test_via_contents_examples(self):
        assert dominance_via_contents((2, 1), (1, 1, 1))
        assert dominance_via_contents((2, 1), (2, 1))

    def test_via_contents_agrees_up_to_8(self):
        for n in range(9):
            for lam in partitions_of(n):
                for chi in partitions_of(n):
                    expect = dominance_compare(lam, chi) in (Comparison.GREATER, Comparison.EQUAL)
                    assert dominance_via_contents(lam, chi) == expect


class TestCompositionOrder:
    def test_examples(self):
        assert composition_compare((2, 0), (2, 0)) is Comparison.EQUAL
        assert composition_compare((2, 0), (1, 1)) is Comparison.GREATER
        assert composition_compare((0, 1), (1, 0)) is Comparison.LESS

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            composition_compare((1, 0), (1, 0, 0))

    def test_strict_partial_order(self):
        for n in (2, 3, 4):
            for total in range(5):
                comps = [c for c in itertools.product(range(4), repeat=n) if sum(c) == total]
                rel = {}
                for a in comps:
                    for b in comps:
                        rel[(a, b)] = composition_compare(a, b)
                for a in comps:
                    assert rel[(a, a)] is Comparison.EQUAL
                    for b in comps:
                        if rel[(a, b)] is Comparison.GREATER:
                            assert rel[(b, a)] is Comparison.LESS
                            for c in comps:
                                if rel[(b, c)] is Comparison.GREATER:
                                    assert rel[(a, c)] is Comparison.GREATER


class TestEnumeration:
    def test_r1(self):
        assert len(enumerate_multipartitions(1, 3)) == 3

    def test_r2_n2(self):
        assert len(enumerate_multipartitions(2, 2)) == 5

    def test_generating_function(self):
        for r in (1, 2, 3):
            for n in range(7):
                assert len(enumerate_multipartitions(r, n)) == multipartition_count(r, n)

    def test_deterministic_and_distinct(self):
        a = enumerate_multipartitions(3, 4)
        b = enumerate_multipartitions(3, 4)
        assert a == b
        assert len({s.as_text() for s in a}) == len(a)
        assert len(a) == multipartition_count(3, 4)


class TestSYT:
    def test_two_cells(self):
        assert len(enumerate_syt(parse_multipartition("1|1"))) == 2

    def test_hook_shape(self):
        assert len(enumerate_syt(parse_multipartition("2,1"))) == 2

    def test_dimension_identity(self):
        import math
        for r, n in [(2, 3), (3, 2)]:
            total = sum(len(enumerate_syt(s)) ** 2 for s in enumerate_multipartitions(r, n))
            assert total == r ** n * math.factorial(n)

    def test_entries_unique(self):
        tabs = enumerate_syt(parse_multipartition("2,1|1"))
        assert len({t.as_text() for t in tabs}) == len(tabs)


class TestShapeAssignment:
    def test_paper_example(self):
        S = shape_assignment((2, 3, 2, 0, 4, 2, 5, 2, 2), PAPER_T)
        assert S.as_text() == "0,2,2/4,5|2,2/2,3"

    def test_zero(self):
        S = shape_assignment((0,) * 9, PAPER_T)
        assert all(S.value(b) == 0 for b in PAPER_SHAPE.boxes())

    def test_weakly_increasing_random(self, rng):
        for _ in range(40):
            shapes = enumerate_multipartitions(rng.randint(1, 3), rng.randint(1, 4))
            shape = shapes[rng.randrange(len(shapes))]
            tabs = enumerate_syt(shape)
            T = tabs[rng.randrange(len(tabs))]
            mu = tuple(rng.randint(0, 4) for _ in range(shape.size))
            shape_assignment(mu, T)  # constructor raises if not weakly increasing

    def test_pair_roundtrip(self):
        from conftest import enumerate_assignments
        for shape_text in ("2,1", "1,1|1", "2|1", "|2,1"):
            shape = parse_multipartition(shape_text)
            for S in enumerate_assignments(shape, 4):
                mu, T = assignment_pair(S)
                assert mu == tuple(sorted(mu))
                assert shape_assignment(mu, T).as_text() == S.as_text()


class TestTextFormats:
    def test_multipartition_roundtrip(self):
        text = "3,3,1|2,1||5,5,2,1"
        shape = parse_multipartition(text)
        assert shape.r == 4 and shape.size == 23
        assert shape.as_text() == text

    def test_empty(self):
        assert parse_multipartition("").components == ((),)
        assert parse_multipartition("||").r == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_multipartition("1,2")

    @pytest.mark.parametrize("shape_text, filling", [
        ("1|1", "1"),        # a component short
        ("2", "1,2|3"),      # a component too many
        ("1|1", "1|2|3"),
    ])
    def test_filling_with_wrong_component_count(self, shape_text, filling):
        shape = parse_multipartition(shape_text)
        for parse in (parse_tableau, parse_assignment):
            with pytest.raises(ValueError, match="components"):
                parse(filling, shape)
        entries = tuple(((v,),) for v in range(1, len(filling.split("|")) + 1))
        for cls in (StandardTableau, ShapeAssignment):
            with pytest.raises(ValueError, match="components"):
                cls(shape, entries)

    def test_as_partition_trailing_zeros(self):
        assert as_partition((3, 1, 0, 0)) == (3, 1)


# -- bijections and minimality as properties -----------------------------------

PROPERTY = settings(deadline=None, database=None, derandomize=True)


@st.composite
def _shapes(draw):
    """An r-partition of n, r <= 3, n <= 5."""
    return draw(st.sampled_from(enumerate_multipartitions(draw(st.integers(1, 3)),
                                                          draw(st.integers(0, 5)))))


@st.composite
def _assignments(draw):
    """A weakly increasing filling of a random shape: each box exceeds the
    larger of its left and upper neighbours by 0, 1 or 2."""
    shape = draw(_shapes())
    values = []
    for comp in shape.components:
        rows: list[tuple[int, ...]] = []
        for i, length in enumerate(comp):
            row: list[int] = []
            for j in range(length):
                floor = max(row[j - 1] if j else 0, rows[i - 1][j] if i else 0)
                row.append(floor + draw(st.integers(0, 2)))
            rows.append(tuple(row))
        values.append(tuple(rows))
    return ShapeAssignment(shape, tuple(values))


@st.composite
def _pairs(draw):
    """A composition mu with entries <= 4 and a standard tableau T of one shape."""
    shape = draw(_shapes())
    mu = tuple(draw(st.lists(st.integers(0, 4), min_size=shape.size, max_size=shape.size)))
    return mu, draw(st.sampled_from(enumerate_syt(shape)))


class TestProperties:
    @PROPERTY
    @given(_assignments())
    def test_assignment_pair_round_trips(self, S):
        mu, T = assignment_pair(S)
        assert mu == tuple(sorted(mu))
        assert shape_assignment(mu, T) == S

    @PROPERTY
    @given(_pairs())
    def test_shape_assignment_round_trips(self, pair):
        # assignment_pair picks one pair of each fiber of shape_assignment:
        # its mu is the sorted mu, and a strictly increasing mu is its own pick
        mu, T = pair
        S = shape_assignment(mu, T)
        mu2, T2 = assignment_pair(S)
        assert mu2 == tuple(sorted(mu)) and shape_assignment(mu2, T2) == S
        strict = tuple(sorted(set(mu)))
        if len(strict) == len(mu):
            assert assignment_pair(shape_assignment(strict, T)) == (strict, T)

    @PROPERTY
    @given(st.lists(st.integers(0, 3), max_size=5).map(tuple))
    def test_sorting_permutation_is_the_shortest_to_decreasing_order(self, nu):
        # w_nu is the longest permutation onto the non-decreasing order, so
        # w_0 w_nu is the unique shortest onto the non-increasing order
        n = len(nu)
        _, minus, w, _ = sorting_data(nu)
        shortest = perm_mul(perm_longest(n), w)
        onto = [p for p in itertools.permutations(range(1, n + 1))
                if perm_act(p, nu) == minus[::-1]]
        assert [p for p in onto if perm_length(p) <= perm_length(shortest)] == [shortest]

    @PROPERTY
    @given(st.lists(st.integers(0, 4), max_size=8).map(tuple))
    def test_sorting_permutation_matches_the_entrywise_formula(self, mu):
        # w_mu(i) = #{j < i : mu_j < mu_i} + #{j >= i : mu_j <= mu_i}
        n = len(mu)
        expect = tuple(sum(1 for j in range(i) if mu[j] < mu[i])
                       + sum(1 for j in range(i, n) if mu[j] <= mu[i]) for i in range(n))
        _, _, w, r = sorting_data(mu)
        assert w == expect and r == tuple(n + 1 - x for x in expect)
