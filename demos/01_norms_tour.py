#!/usr/bin/env python3
"""Tour of the closed norm formulas.

Walks one multipartition through the whole norm story: the sorting data of a
composition, the assignment S(mu, T), the joint spectrum, the nonsymmetric
and symmetric norms, and the minimal invariant's n! * hook * extra
factorization with its Pochhammer rewrite.
"""
from fractions import Fraction

from cherednik_kit.combinatorics import (
    assignment_pair,
    enumerate_syt,
    parse_multipartition,
    parse_tableau,
    shape_assignment,
    sorting_data,
)
from cherednik_kit.norms import (
    extra_product,
    hook_product,
    minimal_assignment,
    minimal_norm,
    nonsymmetric_norm,
    pochhammer_products,
    spectrum,
    symmetric_norm,
)
from cherednik_kit.scalars import ParameterPoint, proportional

# ---------------------------------------------------------------------------
# sorting a composition

mu = (2, 3, 2, 0, 4, 2, 5, 2, 2)
mu_plus, mu_minus, w_mu, r_mu = sorting_data(mu)
print("composition  mu =", mu)
print("partition    mu+ =", mu_plus)
print("sorting permutation w_mu =", w_mu)
print()

# the running example: a 2-partition of 9 and a standard tableau on it
shape = parse_multipartition("3,2|2,2")
T = parse_tableau("1,3,4/8,9|2,6/5,7", shape)
S = shape_assignment(mu, T)
print("shape", shape, " tableau", T)
print("assignment S(mu, T) =", S, " column-strict:", S.is_column_strict())
print()

# ---------------------------------------------------------------------------
# spectra and norms on a small shape

small = parse_multipartition("1|1")
T0 = enumerate_syt(small)[0]
print("spectrum of (mu, T) on", small, "with mu = (1, 0):")
for d in spectrum((1, 0), T0):
    print(f"  z_{d.index}: residue {d.zeta_residue}, eigenvalue {d.z_eigenvalue}")
print("nonsymmetric norm:", nonsymmetric_norm((1, 0), T0))
print()

# a symmetric norm on the same shape: S = (0 | 1) is the minimal filling
S_min = minimal_assignment(small)
print("minimal assignment:", S_min)
print("symmetric norm  :", symmetric_norm(S_min))
print("n! * hook * extra:", minimal_norm(small))
print()

# ---------------------------------------------------------------------------
# hook/extra factorization and where it vanishes

column = parse_multipartition("1,1")
print("for the column (1,1) at r = 1:")
print("  hook   =", hook_product(column))
print("  extra  =", extra_product(column))
print("  norm   =", minimal_norm(column))
print("  value at c0 = -1/2:",
      minimal_norm(column).evaluate(ParameterPoint(1, Fraction(-1, 2), [0])))
print()

# ---------------------------------------------------------------------------
# the Pochhammer rewrite agrees up to a power of r

for text in ("1,1", "2,1"):
    sh = parse_multipartition(text)
    h_alt, e_alt = pochhammer_products(sh)
    a1 = proportional(hook_product(sh), h_alt)
    a2 = proportional(extra_product(sh), e_alt)
    print(f"shape {text}: hook = {a1} * (pochhammer form), extra = {a2} * (pochhammer form)")

sh = parse_multipartition("1,1|2")
h_alt, e_alt = pochhammer_products(sh)
print("shape 1,1|2: ratios", proportional(hook_product(sh), h_alt),
      proportional(extra_product(sh), e_alt))
print()

# round-trip: the minimal assignment is realized by a concrete (mu, T) pair
mu2, T2 = assignment_pair(S_min)
print("minimal assignment comes from mu =", mu2, "with tableau", T2)
print("round-trip:", shape_assignment(mu2, T2))
