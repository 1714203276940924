"""The aspherical hyperplane arrangement for G(r,1,n), its twists by linear
characters, and the G(r,p,n) restriction.

Hyperplanes come in two kinds:

- c0-type: m*c0 + k = 0 for integers 1 <= k < m <= n;
- d-type:  d_l - d_{l-k} + r*m*c0 - k = 0 for integers k with k != 0 mod r.

Two enumerations are provided, which differ only in their index bounds: one
over rectangles (k <= l + (rows-1)*r with m the corner content), and one over
contents m with the row bound resolved by exact integer arithmetic (largest
x >= max(1, 1-m) with x*(x+m) <= n).  These two, the twists and the
G(r,p,n) restriction all list candidates as (kind, k, l, m, primitive
integer numerators) and share one dedup path, `_planes`: each plane keeps
its least descriptor as provenance.  tests/test_aspherical.py pins the
output of every enumeration.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional

from .combinatorics import enumerate_multipartitions
from .norms import minimal_norm
from .scalars import AffineForm, ParameterPoint


@dataclass(frozen=True)
class LinearCharacter:
    """sign_exponent in {0,1}; rotation >= 0, read mod r."""
    sign_exponent: int
    rotation: int

    def __post_init__(self):
        if self.sign_exponent not in (0, 1):
            raise ValueError("sign_exponent must be 0 or 1")
        if self.rotation < 0:
            raise ValueError("rotation must be >= 0")


@dataclass(frozen=True)
class Hyperplane:
    """A normalized vanishing locus with its (kind, k, l, m) descriptor.

    kind 'c0': locus of m*c0 + k (l is None); kind 'd': locus of
    d_l - d_{l-k} + r*m*c0 - k.  The form is primitive with positive first
    nonzero coefficient, and is the dedup key.
    """
    form: AffineForm
    kind: str
    k: int
    l: Optional[int]
    m: int

    def contains(self, p: ParameterPoint) -> bool:
        return self.form.evaluate(p) == 0

    def as_json_obj(self) -> dict:
        coeffs = [self.form.const, self.form.c0, *self.form.d]
        return {
            "kind": self.kind,
            "k": self.k,
            "l": self.l,
            "m": self.m,
            "form": [str(c) for c in coeffs],
        }


def _c0_candidates(r: int, n: int, sign: int) -> list[tuple]:
    """The loci of sign*m*c0 + k, 1 <= k < m <= n: (k, sign*m) over gcd(k, m)."""
    zeros = (0,) * r
    return [(0, k, -1, sign * m, (k // g, sign * m // g) + zeros)
            for m in range(2, n + 1) for k in range(1, m) for g in (gcd(k, m),)]


def _d_candidate(r: int, k: int, l: int, m: int) -> tuple:
    """The locus of d_l - d_{l-k} + r*m*c0 - k, k != 0 mod r: its d-coefficients
    are +-1, so its primitive numerators are k, -r*m, -1 at l, +1 at l - k."""
    nums = [k, -r * m] + [0] * r
    nums[2 + l % r], nums[2 + (l - k) % r] = -1, 1
    return (1, k, l % r, m, tuple(nums))


def _planes(candidates: Iterable[tuple]) -> list[Hyperplane]:
    """One Hyperplane per distinct numerators, with the least descriptor, in
    descriptor order.  A candidate is (0, k, -1, m, nums) for the c0-type
    locus of m*c0 + k, or (1, k, l, m, nums) for a d-type one, nums its
    primitive integer numerators (first nonzero entry positive): equal loci
    have equal nums, and tuple order is (kind, k, l, m) order."""
    least: dict[tuple, tuple] = {}
    for cand in candidates:
        old = least.get(cand[4])
        if old is None or cand < old:
            least[cand[4]] = cand
    return [Hyperplane(AffineForm.from_numerators(len(nums) - 2, nums),
                       "d" if kind else "c0", k, None if l < 0 else l, m)
            for kind, k, l, m, nums in sorted(least.values())]


def _rectangle_candidates(r: int, n: int, sign: int, j: int) -> list[tuple]:
    """hyperplanes_rectangle twisted by a sign and a rotation j: the loci of
    sign*m*c0 + k and of d_{l+j} - d_{l+j-k} + sign*r*ct(b)*c0 - k."""
    if r < 1 or n < 1:
        raise ValueError("need r >= 1, n >= 1")
    cands = _c0_candidates(r, n, sign)
    for rows in range(1, n + 1):
        for cols in range(1, n // rows + 1):
            for l in range(r):
                for k in range(1, l + (rows - 1) * r + 1):
                    if k % r != 0:
                        cands.append(_d_candidate(r, k, l + j, sign * (cols - rows)))
    return cands


def hyperplanes_rectangle(r: int, n: int) -> list[Hyperplane]:
    """Union of the c0-family with, for every rectangle of at most n boxes
    with corner box b, every l in [0,r) and k != 0 mod r with
    1 <= k <= l + (row(b)-1)*r, the hyperplane k = d_l - d_{l-k} + r*ct(b)*c0."""
    return _planes(_rectangle_candidates(r, n, 1, 0))


def max_rectangle_rows(n: int, m: int) -> Optional[int]:
    """Largest integer x >= max(1, 1-m) with x*(x+m) <= n, if any.

    This resolves the bound row(b) <= sqrt(n + m^2/4) - m/2 exactly: for
    integers x, x <= sqrt(n + m^2/4) - m/2 iff x*(x+m) <= n.
    """
    x = max(1, 1 - m)
    if x * (x + m) > n:
        return None
    while (x + 1) * (x + 1 + m) <= n:
        x += 1
    return x


def hyperplanes_sqrt(r: int, n: int) -> list[Hyperplane]:
    """The same arrangement enumerated by corner content m in
    [-(n-1), n-1], with the square-root row bound decided by integer
    comparisons (no floating point)."""
    if r < 1 or n < 1:
        raise ValueError("need r >= 1, n >= 1")
    cands = _c0_candidates(r, n, 1)
    for m in range(-(n - 1), n):
        x = max_rectangle_rows(n, m)
        if x is None:
            continue
        for l in range(r):
            for k in range(1, l + (x - 1) * r + 1):
                if k % r == 0:
                    continue
                cands.append(_d_candidate(r, k, l, m))
    return _planes(cands)


def is_aspherical(p: ParameterPoint, r: int, n: int) -> tuple[bool, list[Hyperplane]]:
    """Whether the point lies on the arrangement; returns all witnesses."""
    if p.r != r:
        raise ValueError("point has wrong r")
    witnesses = [h for h in hyperplanes_rectangle(r, n) if h.contains(p)]
    return bool(witnesses), witnesses


def hyperplanes_twisted(r: int, n: int, xi: LinearCharacter) -> list[Hyperplane]:
    """Arrangement for the twist by the linear character with sign exponent i
    and rotation j: c0 = (-1)^(i+1) k/m, and
    k = d_{l+j} - d_{l+j-k} + (-1)^i r ct(b) c0 over the same rectangles."""
    return _planes(_rectangle_candidates(r, n, (-1) ** xi.sign_exponent, xi.rotation))


def hyperplanes_rpn(r: int, p: int, n: int) -> list[Hyperplane]:
    """The restriction of the G(r,1,n) arrangement to the G(r,p,n)
    parameters, n >= 3: the G(r,1,n) hyperplanes restricted to the quotient
    coordinate space where d_i = d_j for i = j mod r/p, re-normalized and
    deduplicated there.  The returned forms live in a parameter space with
    r/p d-coordinates (the c0 coefficient still refers to the original r).

    This is not yet the G(r,p,n) aspherical set: at (2,2,3) it lists 9 c0
    values where S4's set has 5."""
    if n < 3:
        raise ValueError("G(r,p,n) restriction needs n >= 3 (fusion of reflections below that)")
    if p < 1 or r % p != 0:
        raise ValueError("p must divide r")
    rq = r // p
    reduced = []
    for kind, k, l, m, nums in _rectangle_candidates(r, n, 1, 0):
        d = [0] * rq
        for i, coef in enumerate(nums[2:]):
            d[i % rq] += coef
        if not (nums[1] or any(d)):
            # k = r*m*c0 with m = 0 collapses to the constant k >= 1: the
            # hyperplane misses the restricted space entirely.
            continue
        # the constant k >= 1 leads, so dividing by the gcd makes it primitive
        restricted = (nums[0], nums[1], *d)
        g = gcd(*restricted)
        reduced.append((kind, k, l, m, tuple(x // g for x in restricted)))
    return _planes(reduced)


@dataclass(frozen=True)
class CoverReport:
    """Two-directional audit between minimal-norm factors and the arrangement."""
    ok: bool
    uncovered_factors: tuple  # (shape text, factor text) with no hyperplane
    unhit_hyperplanes: tuple  # hyperplanes arising from no factor


def factor_cover_check(r: int, n: int) -> CoverReport:
    """Every non-constant affine factor of every minimal_norm(shape), shape an
    r-partition of n, vanishes on a hyperplane of the arrangement; and every
    hyperplane arises from such a factor."""
    planes = hyperplanes_rectangle(r, n)
    plane_keys = {h.form.key() for h in planes}
    seen: set[tuple] = set()
    uncovered = []
    for shape in enumerate_multipartitions(r, n):
        norm = minimal_norm(shape)
        if norm.den:
            raise AssertionError("minimal norm should be a polynomial product")
        for f in norm.num:
            key = f.key()
            seen.add(key)
            if key not in plane_keys:
                uncovered.append((shape.as_text(), str(f)))
    unhit = [h for h in planes if h.form.key() not in seen]
    return CoverReport(ok=not uncovered and not unhit,
                       uncovered_factors=tuple(uncovered),
                       unhit_hyperplanes=tuple(unhit))
