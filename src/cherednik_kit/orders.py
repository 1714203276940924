"""Orderings on r-partitions, beta numbers, and the core/quotient bijection.

For a rational parameter point with c0 != 0, each box b carries:

- charge     theta(b)  = d_beta(b)/(r c0) + ct(b)          (order >=_c)
- tilted     ttheta(b) = ct(b) + (d_beta(b) - beta(b))/(r c0)   (equiv ==_c)

The order >=_c compares, for every threshold j and every component cutoff l,
the counts N(j, l) = #{b : theta(b) > j, or theta(b) = j and beta(b) <= l},
which count the boxes with key (-theta(b), beta(b)) <= (-j, l): one walk over
the boxes sorted by that key sees every value of N_lam - N_chi.

Each quantity the orders read off a box is o_l + ct(b) s with l = beta(b)
mod r: theta(b) (o_l = d_l/(r c0), s = 1), ttheta(b) c0, which decides
ttheta(b) mod 1/c0 (o_l = (d_l - l)/r, s = c0), and the linkage term
d_l + r ct(b) c0 (o_l = d_l, s = r c0).  An OrderContext scales each one to
integers once, by the least common denominator m of its o_l and s, so the
per-box work is integer: sort by -m theta(b), compare m ttheta(b) c0 mod m,
and test whether m divides a difference of linkage terms.

The core/quotient machinery: beta numbers B_s(lam) = {lam_j + s - j + 1},
and a finite integer abacus that interleaves r charged beta sets into one
(assemble) and splits it again (disassemble).  With integer charges
a_i = d_{r-i}/(r c0), dominance order on assembled partitions gives the order
>='_c; the counting identity ties the content counts of the assembled
partition to the N(j, l) statistics.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm
from typing import Optional, Sequence

from .combinatorics import (
    BoxRef,
    Comparison,
    MultiPartition,
    Partition,
    as_partition,
    dominance_compare,
)
from .scalars import ParameterPoint


def _on_integers(offsets: Sequence[Fraction], step: Fraction) -> tuple[int, tuple[int, ...], int]:
    """(m, m*offsets, m*step) for the least m > 0 that makes them all integers."""
    m = lcm(step.denominator, *(o.denominator for o in offsets))
    return (m, tuple(o.numerator * (m // o.denominator) for o in offsets),
            step.numerator * (m // step.denominator))


class OrderContext:
    """Parameter data for the orderings; c0 must be a nonzero rational
    (geq_c additionally requires c0 > 0).  `charges`, `classes` and `links`
    are (m, offsets, step) from `_on_integers` for the three box quantities
    of the module docstring."""

    __slots__ = ("point", "charges", "classes", "links")

    def __init__(self, point: ParameterPoint):
        if point.c0 == 0:
            raise ValueError("c0 must be nonzero")
        self.point = point
        r, c0, d = point.r, point.c0, point.d
        self.charges = _on_integers([x / (r * c0) for x in d], Fraction(1))
        self.classes = _on_integers([(x - l) / r for l, x in enumerate(d)], c0)
        self.links = _on_integers(d, r * c0)

    @property
    def c0(self) -> Fraction:
        return self.point.c0

    def charge(self, b: BoxRef) -> Fraction:
        """d_beta(b)/(r c0) + ct(b)."""
        p = self.point
        return p.d[b.component % p.r] / (p.r * p.c0) + b.content

    def integer_charges(self) -> Optional[tuple[int, ...]]:
        """(a_1, ..., a_r) with a_i = d_{r-i}/(r c0), when all are integers."""
        m, theta, _ = self.charges
        if any(t % m for t in theta):
            return None
        r = len(theta)
        return tuple(theta[(r - i) % r] // m for i in range(1, r + 1))


def _scaled(shape: MultiPartition, q: tuple[int, tuple[int, ...], int]) -> list[tuple[int, int]]:
    """(offsets[l mod r] + ct(b) step, l) for each box b of shape, l = beta(b):
    the context's box quantity q = (m, offsets, step), times m."""
    _, offsets, step = q
    r = len(offsets)
    return [(offsets[l % r] + ct * step, l) for l, comp in enumerate(shape.components)
            for i, row in enumerate(comp) for ct in range(-i, row - i)]


def geq_c(lam: MultiPartition, chi: MultiPartition, ctx: OrderContext) -> bool:
    """lam >=_c chi: N_lam(j, l) >= N_chi(j, l) for every threshold j and
    every l in [0, r).  Each key (-theta, beta) gets +1 per box of lam and -1
    per box of chi: walking the keys in order, the running sum after a key is
    N_lam - N_chi there, and between realized keys it does not change."""
    if ctx.c0 <= 0:
        raise ValueError("geq_c needs c0 > 0")
    if lam.size != chi.size:
        raise ValueError("shapes must have equal size")
    net: dict[tuple[int, int], int] = {}
    for shape, sign in ((lam, 1), (chi, -1)):
        for theta, l in _scaled(shape, ctx.charges):
            net[-theta, l] = net.get((-theta, l), 0) + sign
    running = 0
    for key in sorted(net):
        running += net[key]
        if running < 0:
            return False
    return True


def equiv_c(lam: MultiPartition, chi: MultiPartition, ctx: OrderContext) -> bool:
    """lam ==_c chi: the multisets of tilted charges agree mod 1/c0, that is
    the multisets of ttheta(b) c0 mod 1, here scaled by m."""
    m = ctx.classes[0]

    def classes(shape: MultiPartition) -> list[int]:
        return sorted(x % m for x, _ in _scaled(shape, ctx.classes))

    return classes(lam) == classes(chi)


# ---------------------------------------------------------------------------
# linkage matchings


def _linkage_mu(left: tuple[int, int], right: tuple[int, int], m: int, r: int) -> Optional[int]:
    """mu_i for a pair of boxes with scaled linkage terms and components
    left = (term, beta) and right = (term2, beta2): the integer mu_i >= 0 with
    term - term2 = m mu_i and beta - mu_i = beta2 mod r, or None if the pair
    is not admissible."""
    (term, beta), (term2, beta2) = left, right
    if term < term2 or (term - term2) % m:
        return None
    mu = (term - term2) // m
    if (beta - mu - beta2) % r != 0:
        return None
    return mu


def _augment(i: int, adj: list[list[int]], match_right: list[Optional[int]],
             visited: set[int]) -> bool:
    """Whether an augmenting path starts at left vertex i, avoiding the right
    vertices in visited; if so, match_right is flipped along it."""
    for j in adj[i]:
        if j in visited:
            continue
        visited.add(j)
        if match_right[j] is None or _augment(match_right[j], adj, match_right, visited):
            match_right[j] = i
            return True
    return False


def linkage_matching(lam: MultiPartition, chi: MultiPartition,
                     ctx: OrderContext) -> Optional[list[tuple[BoxRef, BoxRef, int]]]:
    """A bijection b_i <-> b_i' between the boxes together with non-negative
    integers mu_i satisfying
        mu_i = d_beta(b_i) - d_beta(b_i') + r(ct(b_i) - ct(b_i'))c0   and
        beta(b_i) - mu_i = beta(b_i') mod r,
    found by maximum bipartite matching over admissible pairs (lex tie-break);
    None if no perfect matching exists."""
    if lam.size != chi.size:
        raise ValueError("shapes must have equal size")
    m, r = ctx.links[0], ctx.point.r
    # m (d_beta(b) + r ct(b) c0) and beta(b) per box, in the order of boxes()
    terms_left, terms_right = _scaled(lam, ctx.links), _scaled(chi, ctx.links)
    adj = [[j for j, y in enumerate(terms_right) if _linkage_mu(x, y, m, r) is not None]
           for x in terms_left]
    match_right: list[Optional[int]] = [None] * len(terms_right)
    if not all(_augment(i, adj, match_right, set()) for i in range(len(terms_left))):
        return None
    left, right = lam.boxes(), chi.boxes()
    # boxes() lists the boxes in BoxRef.sort_key order, so sorting by i sorts by left box
    return [(left[i], right[j], _linkage_mu(terms_left[i], terms_right[j], m, r))
            for i, j in sorted((i, j) for j, i in enumerate(match_right))]


# ---------------------------------------------------------------------------
# beta numbers and the core/quotient bijection


@dataclass(frozen=True)
class BetaSet:
    """The set {lam_j + s - j + 1 : j >= 1}, stored intensionally as
    (partition, shift); the infinite tail is never materialized."""

    partition: Partition
    shift: Fraction

    def member(self, j: int) -> Fraction:
        lam_j = self.partition[j - 1] if j - 1 < len(self.partition) else 0
        return self.shift + lam_j - j + 1

    def members_down_to(self, floor: Fraction) -> list[Fraction]:
        """All members >= floor (finitely many)."""
        out = []
        j = 1
        while True:
            x = self.member(j)
            if x < floor and j > len(self.partition):
                break
            if x >= floor:
                out.append(x)
            j += 1
        return out


def beta_numbers(lam: Partition, s) -> BetaSet:
    return BetaSet(as_partition(lam), Fraction(s))


def quotient_component(shape: MultiPartition, i: int) -> Partition:
    """Gordon-indexed component lam^(i) = lam^{r-i} for 1 <= i <= r."""
    return shape.components[(shape.r - i) % shape.r]


def shape_from_quotient(components: Sequence[Partition]) -> MultiPartition:
    """Inverse of quotient_component: the r-partition whose Gordon-indexed
    components lam^(1), ..., lam^(r) are the given ones, r = len(components)."""
    r = len(components)
    return MultiPartition(r, tuple(components[(r - l) % r - 1] for l in range(r)))


def assemble(a: Sequence[int], shape: MultiPartition) -> Partition:
    """The partition whose 0-shift beta set is the union over 1 <= i <= r of
    {i + r(x-1) : x in B_{a_i}(lam^(i))}; requires sum(a) = 0.  Runner i of
    the abacus holds a_i + depth beads, the members with x >= 1 - depth; every
    x below 1 - depth is a member on every runner."""
    r = shape.r
    a = tuple(int(x) for x in a)
    if len(a) != r:
        raise ValueError(f"expected {r} charges")
    if sum(a) != 0:
        raise ValueError("charges do not sum to zero (invalid beta set)")
    comps = [quotient_component(shape, i) for i in range(1, r + 1)]
    depth = max(len(comp) - a_i for comp, a_i in zip(comps, a))
    beads = sorted((i + r * ((comp[j] if j < len(comp) else 0) + a_i - j - 1)
                    for i, (comp, a_i) in enumerate(zip(comps, a), start=1)
                    for j in range(a_i + depth)), reverse=True)
    return as_partition(m + k for k, m in enumerate(beads))


def disassemble(lam: Partition, r: int) -> tuple[tuple[int, ...], MultiPartition]:
    """Inverse of assemble: the members lam_k - k of the 0-shift beta set down
    to -r*depth + 1 (all parts and at least one zero) go to runner i by their
    residue; a runner with a_i + depth beads has charge a_i."""
    lam = as_partition(lam)
    if r < 1:
        raise ValueError("r must be >= 1")
    depth = len(lam) // r + 1
    runners: list[list[int]] = [[] for _ in range(r)]
    for k in range(r * depth):
        m = (lam[k] if k < len(lam) else 0) - k
        runners[(m - 1) % r].append((m - 1) // r + 1)
    charges = tuple(len(xs) - depth for xs in runners)
    return charges, shape_from_quotient([as_partition(x - a_i + j for j, x in enumerate(xs))
                                         for xs, a_i in zip(runners, charges)])


def quotient_compare(lam: MultiPartition, chi: MultiPartition, ctx: OrderContext) -> Comparison:
    """lam against chi in the order >='_c, for integer charges summing to
    zero: the dominance comparison of the assembled partitions."""
    if lam.size != chi.size:
        raise ValueError("shapes must have equal size")
    a = ctx.integer_charges()
    if a is None:
        raise ValueError("charges d_l/(r c0) must be integers")
    if sum(a) != 0:
        raise ValueError("charges must lie in the root lattice (sum zero); "
                         "normalize d to sum to zero")
    return dominance_compare(assemble(a, lam), assemble(a, chi))


def geq_c_quotient(lam: MultiPartition, chi: MultiPartition, ctx: OrderContext) -> bool:
    """The order >='_c for integer charges: lam >='_c chi (quotient_compare)."""
    return quotient_compare(lam, chi, ctx) in (Comparison.GREATER, Comparison.EQUAL)


# ---------------------------------------------------------------------------
# the counting identity


def charge_offset(a: Sequence[int], j: Fraction, r: int) -> int:
    """The shape-independent offset f(a, j):
    sum_{j <= k < 0} k
      - sum_{k >= j} [ sum_{1 <= l <= m_k} min(q_k + 1 - a_l, 0)
                       + sum_{m_k < l <= r} min(q_k - a_l, 0) ]
    with k = q_k r + m_k, 0 <= m_k < r.  All sums are finite."""
    a = tuple(int(x) for x in a)
    j_ceil = ceil(j)
    total = 0
    for k in range(j_ceil, 0):
        total += k
    k_top = r * (max(a) + 2) + r if a else 0
    for k in range(j_ceil, max(j_ceil, k_top) + 1):
        q, m = divmod(k, r)
        for l in range(1, r + 1):
            if l <= m:
                total -= min(q + 1 - a[l - 1], 0)
            else:
                total -= min(q - a[l - 1], 0)
    return total


def counting_combination(shape: MultiPartition, a: Sequence[int], j: Fraction) -> int:
    """sum_{l=0}^{r-m-1} N(q, l) + sum_{l=r-m}^{r-1} N(q+1, l) where
    ceil(j) = q r + m and N uses the integer charges theta(b) = ct(b) +
    a_{r - beta(b)}."""
    r = shape.r
    a = tuple(int(x) for x in a)
    q, m = divmod(ceil(j), r)

    def n_count(level: int, l: int) -> int:
        total = 0
        for b in shape.boxes():
            theta = b.content + a[(r - b.component) % r - 1]
            if theta > level or (theta == level and b.component <= l):
                total += 1
        return total

    return (sum(n_count(q, l) for l in range(r - m))
            + sum(n_count(q + 1, l) for l in range(r - m, r)))


@dataclass(frozen=True)
class CountingIdentityReport:
    direct_count: int
    offset: int
    combination: int

    @property
    def ok(self) -> bool:
        return self.direct_count - self.offset == self.combination


def counting_identity_check(shape: MultiPartition, a: Sequence[int], j) -> CountingIdentityReport:
    """Check |{b in assemble(a, shape) : ct(b) >= j}| - f(a, j) equals the
    displayed combination of counting functions, all three computed
    independently."""
    j = Fraction(j)
    lam = assemble(a, shape)
    direct = sum(1 for i, row in enumerate(lam, start=1)
                 for col in range(1, row + 1) if col - i >= j)
    return CountingIdentityReport(
        direct_count=direct,
        offset=charge_offset(a, j, shape.r),
        combination=counting_combination(shape, a, j),
    )
