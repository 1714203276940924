"""The closed norms against classical formulas that share no code with them.

Both sides are canonical FactoredScalars, products of affine forms in c0, so
each equality holds for every c0, with no point drawn and no oracle built.
"""
import itertools
import math

import pytest

from cherednik_kit.combinatorics import MultiPartition, enumerate_syt
from cherednik_kit.norms import minimal_norm, nonsymmetric_norm

from classical_norms import arm_leg_norm, vandermonde_norm

# (n, largest |eta|): 673 compositions in all
ARM_LEG_RANGE = [(1, 6), (2, 6), (3, 5), (4, 5), (5, 4), (6, 4), (7, 3)]


@pytest.mark.parametrize("n, top", ARM_LEG_RANGE)
def test_nonsymmetric_norm_is_the_arm_leg_norm(n, top):
    # at r = 1 the trivial shape's eigenvectors are the nonsymmetric Jack
    # polynomials; T_(n) is the one tableau of the row (n)
    T, = enumerate_syt(MultiPartition(1, ((n,),)))
    etas = [eta for eta in itertools.product(range(top + 1), repeat=n) if sum(eta) <= top]
    assert len(etas) == math.comb(n + top, n)
    for eta in etas:
        assert nonsymmetric_norm(eta, T) == arm_leg_norm(eta), eta


@pytest.mark.parametrize("n", range(1, 31))
def test_minimal_norm_of_the_column_is_the_vandermonde_norm(n):
    assert minimal_norm(MultiPartition(1, ((1,) * n,))) == vandermonde_norm(n)
