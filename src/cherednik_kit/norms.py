"""Closed-form spectra and norms for standard modules of G(r,1,n).

Everything here is a pure function of combinatorial data returning exact
AffineForm / FactoredScalar values:

- spectrum: joint eigenvalues of the cyclic generators and the commuting
  (Jucys-Murphy deformed) family z_i on the eigenbasis indexed by (mu, T);
- nonsymmetric_norm: contravariant norm of the eigenvector with leading term
  x^mu v_T^mu;
- symmetric_norm: norm of the symmetrized eigenvector attached to a
  column-strict assignment S with S(b) = beta(b) mod r;
- minimal_assignment / hook_product / extra_product / minimal_norm: the
  minimal-degree invariant and its hook x extra product factorization;
- pochhammer_products: the alternative Pochhammer-symbol expressions,
  proportional to hook/extra products by nonzero constants.

The closed norm products (nonsymmetric_norm, symmetric_norm, hook_product,
extra_product, minimal_norm, removal_correction) are products, to signed
powers, of the residue forms k - (d_hi - d_lo) - r*ct*c0 for 1 <= k <= top
with k = hi - lo mod r.  `_count` is the one place that writes this k-range:
it adds each form's power at its integer key (k, hi mod r, lo mod r, ct) in
one dict of net counts, and `_from_keys` turns each nonzero net key straight
into primitive integer numerators, so an AffineForm is built only for each
factor of the canonical FactoredScalar.  A range's length follows from its
ends, so `_count` keeps the running number of forms a product lists and
refuses, before counting them, a range that takes it past MAX_FORMS.  The
minimal-assignment products hand `_count` no empty range.  A box's own
factors are one count per residue lo that its range reaches.  nonsymmetric_norm
counts each box pair's ratio X(ct - 1) X(ct + 1) / X(ct)^2 in one call,
X(ct) being the pair's residue forms.  symmetric_norm's ratios over box
pairs (b, b2) telescope along each run of equal S-values in a row, to at
most two calls per run and none for a run whose value is at least S(b), so
it counts O(n * runs) ranges, not O(n^2).  `_hook_terms` and `_extra_terms`
list the minimal assignment's closed-form hook and extra terms
(top, hi, lo, ct) with top >= 1, one call per term: hook_product and
extra_product each build their own list, and minimal_norm both.
pochhammer_products, the independent reference, lists the forms of
its Pochhammer symbols as integer numerators over r.  Empty products are 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import factorial, gcd
from operator import itemgetter
from typing import Sequence

from .combinatorics import (
    BoxRef,
    MultiPartition,
    ShapeAssignment,
    StandardTableau,
    conjugate,
    sorting_permutation,
)
from .scalars import AffineForm, FactoredScalar

Term = tuple[int, int, int, int]  # (top, hi, lo, ct), see the module doc

# The most forms a product may list: counting takes about 0.4 us a form (a
# 192-box column lists 4.7 million), and the tests list at most about 23,000
MAX_FORMS = 10**7


@dataclass(frozen=True)
class SpectralDatum:
    index: int                # 1-based position
    zeta_residue: int         # exponent of the root of unity, mod r
    z_eigenvalue: AffineForm


def _eig_form(r: int, const: int, beta_hi: int, beta_lo: int, ct: int) -> AffineForm:
    """const - (d_{beta_hi} - d_{beta_lo}) - r*ct*c0."""
    numerators = [const, -r * ct] + [0] * r
    numerators[2 + beta_hi % r] -= 1
    numerators[2 + beta_lo % r] += 1
    return AffineForm.from_numerators(r, numerators)


def _indexed_boxes(mu: Sequence[int], T: StandardTableau) -> list[tuple[int, BoxRef]]:
    """(mu_i, T^{-1}(w_mu(i))) for each index i, in order."""
    mu = tuple(mu)
    if len(mu) != T.shape.size:
        raise ValueError("composition length must equal shape size")
    if mu and min(mu) < 0:
        raise ValueError("composition entries must be >= 0")
    return [(m, T.box_of(w)) for m, w in zip(mu, sorting_permutation(mu))]


def spectrum(mu: Sequence[int], T: StandardTableau) -> list[SpectralDatum]:
    """Per index i: the residue beta(T^{-1}(w_mu(i))) - mu_i mod r and the
    eigenvalue mu_i + 1 - (d_{beta(b)} - d_{beta(b)-mu_i-1}) - r*ct(b)*c0,
    with b = T^{-1}(w_mu(i))."""
    r = T.shape.r
    return [SpectralDatum(
        index=i,
        zeta_residue=(b.component - m) % r,
        z_eigenvalue=_eig_form(r, m + 1, b.component, b.component - m - 1, b.content),
    ) for i, (m, b) in enumerate(_indexed_boxes(mu, T), start=1)]


def _count(net: dict, r: int, top: int, hi: int, lo: int, cts, listed: int) -> int:
    """Add m at the key (k, hi mod r, lo mod r, ct) of the form
    _eig_form(r, k, hi, lo, ct) in net, for each (ct, m) of cts and each
    1 <= k <= top with k = hi - lo mod r, and return listed plus the number
    of forms added.  The range's ends give that number, so a product that
    would list more than MAX_FORMS forms is refused before they are counted."""
    hi, lo = hi % r, lo % r
    first = (hi - lo - 1) % r + 1
    if top >= first:
        listed += ((top - first) // r + 1) * len(cts)
        if listed > MAX_FORMS:
            raise ValueError(f"the product would list more than {MAX_FORMS} forms")
    for k in range(first, top + 1, r):
        for ct, m in cts:
            key = k, hi, lo, ct
            net[key] = net.get(key, 0) + m
    return listed


def _count_own(net: dict, r: int, top: int, beta: int, ct: int, listed: int) -> int:
    """A box's own factors _eig_form(r, k, beta, beta - k, ct), 1 <= k <= top,
    counted once each: one residue lo at a time, where its range holds a k."""
    for lo in range(r):
        if (beta - lo - 1) % r < top:
            listed = _count(net, r, top, beta, lo, ((ct, 1),), listed)
    return listed


def _from_keys(r: int, coefficient, net: dict) -> FactoredScalar:
    """coefficient times the forms _eig_form(r, *key) to the power m, over the
    net counts key -> m.  Each nonzero net key becomes primitive integer
    numerators directly: as k >= 1, the form is primitive when hi != lo; when
    hi = lo it is g * (k/g - (r*ct/g)*c0) with g = gcd(k, r*ct), a constant
    when ct = 0, and g^m joins the coefficient: the net power of each g is
    summed first, and the powers are multiplied by `_product`.  Keys with
    equal numerators merge, and only a surviving factor becomes a form."""
    zeros, prims, powers = [0] * r, {}, {}
    for (k, hi, lo, ct), m in net.items():
        if not m:
            continue
        if hi == lo:
            g = gcd(k, r * ct)
            powers[g] = powers.get(g, 0) + m
            if not ct:
                continue
            key = (k // g, -r * ct // g, *zeros)
        else:
            d = zeros.copy()
            d[hi], d[lo] = -1, 1
            key = (k, -r * ct, *d)
        prims[key] = prims.get(key, 0) + m
    num = _product([g ** m for g, m in powers.items() if m > 0])
    den = _product([g ** -m for g, m in powers.items() if m < 0])
    return FactoredScalar._canonical(r, Fraction(coefficient * num, den), {
        AffineForm.from_numerators(r, key): m for key, m in prims.items() if m})


def _product(values: list[int]) -> int:
    """The product of values, multiplied pairwise in a balanced tree: each
    level's operands have about equal size, so a product of many small
    integers costs about a few multiplications of the result's size, not one
    per value."""
    while len(values) > 1:
        values = [a * b for a, b in zip(values[::2], values[1::2])] + values[len(values) & ~1:]
    return values[0] if values else 1


def nonsymmetric_norm(mu: Sequence[int], T: StandardTableau) -> FactoredScalar:
    """Norm of the joint eigenvector with leading term x^mu v_T^mu, as a
    factored product of affine forms (squares kept as repeated factors,
    difference-of-squares split into two affine factors): each box's own
    factors, and per pair the ratio ((X - r c0)(X + r c0)) / X^2 =
    X(ct - 1) X(ct + 1) / X(ct)^2, ct = a_hi - a_lo, for k up to mu_i - mu_j
    at (i, j) and mu_j - mu_i - 1 at (j, i), all counted in one dict."""
    r = T.shape.r
    walk = [(m, b.component, b.content) for m, b in _indexed_boxes(mu, T)]
    net, listed = {}, 0
    for m, beta, ct in walk:
        if m > 0:
            listed = _count_own(net, r, m, beta, ct, listed)
    for i, (m_i, beta_i, a_i) in enumerate(walk):
        for m_j, beta_j, a_j in walk[i + 1:]:
            for top, hi, lo, ct in ((m_i - m_j, beta_i, beta_j, a_i - a_j),
                                    (m_j - m_i - 1, beta_j, beta_i, a_j - a_i)):
                if top > 0:
                    listed = _count(net, r, top, hi, lo,
                                    ((ct - 1, 1), (ct + 1, 1), (ct, -2)), listed)
    return _from_keys(r, 1, net)


def _runs(S: ShapeAssignment) -> list[tuple[int, int, int, int]]:
    """(value, component, first content, last content) of each maximal run of
    equal S-values within a row; contents grow by one along a row."""
    return [(v, l, js[0] - i, js[-1] - i)
            for l, rows in enumerate(S.values) for i, row in enumerate(rows, start=1)
            for v, group in groupby(enumerate(row, start=1), key=itemgetter(1))
            for js in [[j for j, _ in group]]]


def _box_product(S: ShapeAssignment, boxes, coefficient) -> FactoredScalar:
    """coefficient times the share of each box b of boxes in the
    symmetric-norm product: its own factors and, over every box b2 (b2 = b
    adds none), the ratios X(t - 1)/X(t) for k <= S(b) - S(b2) and
    X(t + 1)/X(t) for k <= S(b) - S(b2) - r, with X(t) the residue forms of
    (beta(b), beta(b2)) at t = ct(b) - ct(b2).  Over a run of b2 both tops
    are fixed, so its ratios telescope to
    X(t_lo - 1) X(t_hi + 1) / (X(t_hi) X(t_lo)); S being residue-compatible,
    the first range is empty exactly when S(b2) >= S(b), and the second
    when S(b2) >= S(b) - r."""
    r, runs, net, listed = S.shape.r, _runs(S), {}, 0
    for b in boxes:
        sb, beta, ct = S.value(b), b.component, b.content
        listed = _count_own(net, r, sb, beta, ct, listed)
        for v, l, c_first, c_last in runs:
            if v >= sb:             # both ranges are empty
                continue
            t_lo, t_hi = ct - c_last, ct - c_first
            listed = _count(net, r, sb - v, beta, l, ((t_lo - 1, 1), (t_hi, -1)), listed)
            if sb - v > r:
                listed = _count(net, r, sb - v - r, beta, l, ((t_hi + 1, 1), (t_lo, -1)),
                                listed)
    return _from_keys(r, coefficient, net)


def symmetric_norm(S: ShapeAssignment) -> FactoredScalar:
    """Norm of the symmetrized eigenvector g attached to a column-strict,
    residue-compatible assignment S: n! times a product over boxes and a
    double product of ratios over ordered box pairs, telescoped along each
    run of boxes b2 (one run per row under the minimal assignment), whose
    factors cancel as integer keys before any form is built."""
    if not S.is_column_strict():
        raise ValueError("assignment must be column-strict")
    if not S.satisfies_residues():
        raise ValueError("assignment must satisfy S(b) = beta(b) mod r")
    return _box_product(S, S.shape.boxes(), factorial(S.shape.size))


def symmetrization_block_factor(S: ShapeAssignment) -> FactoredScalar:
    """The scalar relating the closed product formula for the symmetrized
    eigenvector's norm to the norm of the symmetrization of the canonical
    monic eigenvector (assignment_pair's tableau choice).

    The symmetrized vector is only canonical up to a constant; the closed
    formula normalizes away the contribution of box pairs sharing an
    assignment value.  For the canonical tableau that contribution is
    prod over unordered pairs x < y (lex) with S(x) = S(y) of
    (D + r c0)/D, with D = (d_beta(y) - d_beta(x)) + r(ct(y) - ct(x)) c0;
    the oracle's norm of the symmetrized eigenvector equals
    gram(T) * this * closed formula.  For the minimal assignment this factor
    is the integer prod over rows of (row length)!."""
    r = S.shape.r
    rc0 = AffineForm(r, c0=r)
    boxes = sorted(S.shape.boxes(), key=BoxRef.sort_key)
    ds = [-_eig_form(r, 0, y.component, x.component, y.content - x.content)
          for a, x in enumerate(boxes) for y in boxes[a + 1:] if S.value(x) == S.value(y)]
    return FactoredScalar(r, 1, [d + rc0 for d in ds], ds)


def minimal_assignment(shape: MultiPartition) -> ShapeAssignment:
    """The minimal column-strict assignment: S(b) = l + (row(b)-1)*r for
    boxes of component l."""
    r = shape.r
    values = tuple(
        tuple(tuple(l + (i - 1) * r for _ in range(row)) for i, row in enumerate(comp, start=1))
        for l, comp in enumerate(shape.components)
    )
    return ShapeAssignment(shape, values)


def _hook_terms(shape: MultiPartition) -> list[Term]:
    """The hook terms under the minimal assignment, where a box b of
    component l in row i has S(b) = l + (i-1)*r and ct(b) = j - i: each box
    not directly above a box of its component, against the last box of each
    row, where S(b) exceeds that box's value."""
    r, comps = shape.r, shape.components
    lower = [(l, i, j) for l, comp in enumerate(comps) for i, row in enumerate(comp, start=1)
             for j in range((comp[i] if i < len(comp) else 0) + 1, row + 1)]
    right = [(l, i, row) for l, comp in enumerate(comps) for i, row in enumerate(comp, start=1)]
    return [(top, l, l2, (j - i) - (j2 - i2) - 1)
            for l, i, j in lower for l2, i2, j2 in right
            if (top := (i - i2) * r + l - l2) > 0]


def _extra_terms(shape: MultiPartition) -> list[Term]:
    """The extra terms under the minimal assignment: each box against each
    component l2, with h rows, where S(b) exceeds l2 + h*r."""
    r, comps = shape.r, shape.components
    return [(top, l, l2, j - i + len(comp))
            for l, rows in enumerate(comps) for i, row in enumerate(rows, start=1)
            for j in range(1, row + 1) for l2, comp in enumerate(comps)
            if (top := (i - 1 - len(comp)) * r + l - l2) > 0]


def _terms_product(r: int, coefficient, terms: list[Term]) -> FactoredScalar:
    """coefficient times the forms of each term (top, hi, lo, ct)."""
    net, listed = {}, 0
    for top, hi, lo, ct in terms:
        listed = _count(net, r, top, hi, lo, ((ct, 1),), listed)
    return _from_keys(r, coefficient, net)


def hook_product(shape: MultiPartition) -> FactoredScalar:
    """Product over (b not directly above a box of its component, b' the last
    box of a row) and 1 <= k <= S(b)-S(b'), k = beta(b)-beta(b') mod r, of
    k - (d_beta(b) - d_beta(b')) - r(ct(b) - ct(b') - 1)c0,
    with S the minimal assignment."""
    return _terms_product(shape.r, 1, _hook_terms(shape))


def extra_product(shape: MultiPartition) -> FactoredScalar:
    """Product over boxes b and components l, with h_l rows, of the factors
    k - (d_beta(b) - d_l) - r(ct(b) + h_l)c0
    for 1 <= k <= S(b) - l - h_l*r, k = beta(b) - l mod r, with S the minimal
    assignment.  This is the corner convention S_l = l + (h_l - 1)r,
    c_l = 1 - h_l for the lower-left box of each component, uniform over
    empty components: h_l = 0 puts their corner in row 0, column 1."""
    return _terms_product(shape.r, 1, _extra_terms(shape))


def minimal_norm(shape: MultiPartition) -> FactoredScalar:
    """n! * hook_product * extra_product, the norm of the minimal-degree
    invariant, as one product over both term lists."""
    return _terms_product(shape.r, factorial(shape.size),
                          _hook_terms(shape) + _extra_terms(shape))


def removal_correction(shape: MultiPartition, b: BoxRef) -> FactoredScalar:
    """The single-box recurrence factor: with chi = shape minus b (b must
    carry the maximal minimal-assignment value), minimal_norm(shape) equals
    n * minimal_norm(chi) * removal_correction(shape, b), the share of b in
    the symmetric-norm product of the minimal assignment."""
    if not shape.contains(b):
        raise ValueError("box must lie in the shape")
    S = minimal_assignment(shape)
    if any(S.value(b2) > S.value(b) for b2 in shape.boxes()):
        raise ValueError("box must carry a maximal assignment value")
    return _box_product(S, [b], 1)


def pochhammer_products(shape: MultiPartition) -> tuple[FactoredScalar, FactoredScalar]:
    """(H_alt, E_alt): quadruple products of Pochhammer symbols over
    conjugate-partition data, proportional to hook_product and extra_product
    by nonzero constants (powers of r up to sign).

    An empty component contributes conjugate (0), i.e. first column height 0.
    """
    r = shape.r
    comps = shape.components
    conj = [conjugate(c) for c in comps]

    def col_height(k: int, j: int) -> int:
        return conj[k][j - 1] if j - 1 < len(conj[k]) else 0

    def first_height(k: int) -> int:
        return conj[k][0] if conj[k] else 0

    def row_len(k: int, i: int) -> int:
        return comps[k][i - 1] if i - 1 < len(comps[k]) else 0

    # each form x + m, x = base/r + c*c0 - (d_k - d_l)/r, as integer
    # numerators (base + m*r, c*r, b_0, ..., b_{r-1}) over the denominator r
    h_nums: list[tuple[int, ...]] = []
    e_nums: list[tuple[int, ...]] = []
    for k in range(r):
        for l in range(r):
            d = [0] * r
            d[k] -= 1
            d[l] += 1
            base, shift = (k - l, 1) if l < k else (r + k - l, 0)
            # hook part
            for i in range(1, min(first_height(k), first_height(l)) + 1):
                for j in range(1, row_len(k, i) + 1):
                    c = col_height(k, j) + row_len(l, i) - i - j + 1
                    h_nums += ((base + m * r, c * r, *d)
                               for m in range(col_height(k, j) - i + shift))
            # extra part
            lo = first_height(l) + (1 if l < k else 2)
            for i in range(lo, first_height(k) + 1):
                for j in range(1, row_len(k, i) + 1):
                    c = i - j - first_height(l)
                    e_nums += ((base + m * r, c * r, *d)
                               for m in range(i - first_height(l) - (1 - shift)))
    return tuple(FactoredScalar(r, 1, [AffineForm.from_numerators(r, x, r) for x in nums])
                 for nums in (h_nums, e_nums))
