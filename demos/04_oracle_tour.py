#!/usr/bin/env python3
"""Tour of the brute-force oracle.

Builds a standard module straight from the defining relations, finds a joint
eigenvector, and certifies the closed norm formulas against the
relation-driven contravariant pairing -- the independent check behind the
whole library.
"""
from fractions import Fraction

from cherednik_kit.combinatorics import assignment_pair, parse_multipartition
from cherednik_kit.norms import (
    minimal_assignment,
    minimal_norm,
    nonsymmetric_norm,
    symmetric_norm,
    symmetrization_block_factor,
)
from cherednik_kit.oracle import StandardModule, symmetrizer_identity_check, verify_report
from cherednik_kit.scalars import ParameterPoint

shape = parse_multipartition("1|1")
point = ParameterPoint(2, Fraction(2, 7), [Fraction(1, 3), Fraction(-1, 3)])
module = StandardModule(shape, point)
print("shape", shape, "at c0 =", point.c0, ", d =", point.d)
print("irrep dimension:", module.irrep.dim, " gram weights:", module.irrep.gram)
print()

# a joint eigenvector and its norm, against the closed formula
T = module.irrep.tableaux[0]
mu = (2, 1)
f = module.eigenvector(mu, T)
print(f"eigenvector for mu = {mu}, T = {T}: {len(f.terms)} terms")
oracle_norm = module.norm(f)
formula = nonsymmetric_norm(mu, T).evaluate(point)
gram = module.gram_weight(T)
print("oracle pairing:", oracle_norm)
print("closed formula * gram:", formula * gram)
assert oracle_norm == formula * gram
print()

# symmetrize the minimal eigenvector and compare with n! * hook * extra
S = minimal_assignment(shape)
mu_min, T_min = assignment_pair(S)
g = module.symmetrize(module.eigenvector(mu_min, T_min))
expect = (module.gram_weight(T_min)
          * symmetrization_block_factor(S).evaluate(point)
          * minimal_norm(shape).evaluate(point))
print("symmetrized minimal eigenvector norm:", module.norm(g))
print("gram * block factor * n!HE         :", expect)
assert module.norm(g) == expect
assert symmetric_norm(S).evaluate(point) == minimal_norm(shape).evaluate(point)
print()

# the rational-function identity behind the symmetrizer computation
print("symmetrizer identity at n = 3:",
      symmetrizer_identity_check(3, [0, 1, Fraction(7, 2)], Fraction(3, 5), r=2))
print()

# the full identity suite, as the CLI's `oracle verify` runs it
report = verify_report(2, 2, degree=2, seed=11)
for check in report["checks"]:
    print(f'{check["status"]:4s} {check["name"]} ({check["seconds"]}s)')
print("all checks pass:", report["ok"])
