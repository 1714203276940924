"""Classical norm formulas at r = 1, written from the literature and
independent of the closed products in `cherednik_kit.norms` (this module
imports nothing from it).

At r = 1 the standard module of the trivial shape (n) is the polynomial
representation, and its eigenvectors f_(eta, T_(n)) are the nonsymmetric Jack
polynomials.  Their norms have the arm/leg product of Knop and Sahi ("A
recursion and a combinatorial formula for Jack polynomials", Invent. Math.
128, 1997; see also Sahi, IMRN 1996, and Baker and Forrester, Duke Math. J.
95, 1998), which does not go through Griffeth's pairwise ratios.  With
k = -c0, over the boxes s = (i, j), 1 <= j <= eta_i, of the composition eta:

    prod_s (a(s) + 1 + k l(s)) (a'(s) + 1 + k (n - l'(s))) / (a(s) + 1 + k (l(s) + 1))

    a(s)  = eta_i - j
    l(s)  = #{m < i : j <= eta_m + 1 <= eta_i} + #{m > i : j <= eta_m <= eta_i}
    a'(s) = j - 1
    l'(s) = #{m < i : eta_m >= eta_i} + #{m > i : eta_m > eta_i}

The column (1^n) has one invariant of least degree, the Vandermonde
product, whose norm is n! prod_{1 <= i < j <= n} (i + j c0).
"""
from __future__ import annotations

import math

from cherednik_kit.scalars import AffineForm, FactoredScalar


def _form(const: int, k_coefficient: int) -> AffineForm:
    """const + k_coefficient * k at k = -c0."""
    return AffineForm(1, const=const, c0=-k_coefficient)


def arm_leg_norm(eta: tuple[int, ...]) -> FactoredScalar:
    """The Knop-Sahi arm/leg norm of the nonsymmetric Jack polynomial of eta."""
    n = len(eta)
    num, den = [], []
    for i, eta_i in enumerate(eta):
        coleg = (sum(1 for m in range(i) if eta[m] >= eta_i)
                 + sum(1 for m in range(i + 1, n) if eta[m] > eta_i))
        for j in range(1, eta_i + 1):
            arm = eta_i - j
            leg = (sum(1 for m in range(i) if j <= eta[m] + 1 <= eta_i)
                   + sum(1 for m in range(i + 1, n) if j <= eta[m] <= eta_i))
            num += [_form(arm + 1, leg), _form(j, n - coleg)]
            den.append(_form(arm + 1, leg + 1))
    return FactoredScalar(1, 1, num, den)


def vandermonde_norm(n: int) -> FactoredScalar:
    """n! prod_{1 <= i < j <= n} (i + j c0)."""
    return FactoredScalar(1, math.factorial(n), [
        AffineForm(1, const=i, c0=j) for j in range(1, n + 1) for i in range(1, j)])
