"""The aspherical hyperplane arrangement for G(r,1,n), its twists by linear
characters, and the G(r,p,n) restriction.

Hyperplanes come in two kinds:

- c0-type: m*c0 + k = 0 for integers 1 <= k < m <= n;
- d-type:  d_l - d_{l-k} + r*m*c0 - k = 0 for integers k with k != 0 mod r.

Two enumerations are provided: one over rectangles (the index bound is
k <= l + (rows-1)*r with m the corner content), and one over contents m with
the row bound resolved by exact integer arithmetic (largest x >= max(1, 1-m)
with x*(x+m) <= n); they produce identical sets.  Hyperplanes are
deduplicated by primitive normalized form; descriptors are kept as
provenance.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .combinatorics import enumerate_multipartitions
from .norms import minimal_norm
from .scalars import AffineForm, ParameterPoint


@dataclass(frozen=True)
class LinearCharacter:
    """sign_exponent in {0,1}; rotation in [0, r)."""
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

    def sort_key(self) -> tuple:
        return (0 if self.kind == "c0" else 1, self.k, -1 if self.l is None else self.l,
                self.m) + self.form.key()

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


def _normalized(form: AffineForm) -> AffineForm:
    prim, _ = form.primitive()
    return prim


def _c0_hyperplane(r: int, k: int, m: int) -> Hyperplane:
    form = _normalized(AffineForm(r, const=k, c0=m))
    return Hyperplane(form, "c0", k, None, m)


def _d_hyperplane(r: int, k: int, l: int, m: int) -> Hyperplane:
    form = _normalized(AffineForm(r, const=-k, c0=r * m, d={l: 1, l - k: -1}))
    return Hyperplane(form, "d", k, l % r, m)


def _dedup(planes: Iterable[Hyperplane]) -> list[Hyperplane]:
    by_form: dict[tuple, Hyperplane] = {}
    for h in planes:
        key = h.form.key()
        if key not in by_form or h.sort_key() < by_form[key].sort_key():
            by_form[key] = h
    return sorted(by_form.values(), key=Hyperplane.sort_key)


def _c0_family(r: int, n: int, sign: int = 1) -> list[Hyperplane]:
    return [_c0_hyperplane(r, k, sign * m) for m in range(2, n + 1) for k in range(1, m)]


def _rectangle_planes(r: int, n: int, sign: int, j: int) -> list[Hyperplane]:
    """hyperplanes_rectangle twisted by a sign and a rotation j: the loci of
    sign*m*c0 + k and of d_{l+j} - d_{l+j-k} + sign*r*ct(b)*c0 - k."""
    if r < 1 or n < 1:
        raise ValueError("need r >= 1, n >= 1")
    planes = _c0_family(r, n, sign)
    for rows in range(1, n + 1):
        for cols in range(1, n // rows + 1):
            for l in range(r):
                for k in range(1, l + (rows - 1) * r + 1):
                    if k % r != 0:
                        planes.append(_d_hyperplane(r, k, l + j, sign * (cols - rows)))
    return _dedup(planes)


def hyperplanes_rectangle(r: int, n: int) -> list[Hyperplane]:
    """Union of the c0-family with, for every rectangle of at most n boxes
    with corner box b, every l in [0,r) and k != 0 mod r with
    1 <= k <= l + (row(b)-1)*r, the hyperplane k = d_l - d_{l-k} + r*ct(b)*c0."""
    return _rectangle_planes(r, n, 1, 0)


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
    planes = _c0_family(r, n)
    for m in range(-(n - 1), n):
        x = max_rectangle_rows(n, m)
        if x is None:
            continue
        for l in range(r):
            for k in range(1, l + (x - 1) * r + 1):
                if k % r == 0:
                    continue
                planes.append(_d_hyperplane(r, k, l, m))
    return _dedup(planes)


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
    return _rectangle_planes(r, n, (-1) ** xi.sign_exponent, xi.rotation)


def hyperplanes_rpn(r: int, p: int, n: int) -> list[Hyperplane]:
    """The arrangement for G(r,p,n), n >= 3: the G(r,1,n) hyperplanes
    restricted to the quotient coordinate space where d_i = d_j for
    i = j mod r/p, re-normalized and deduplicated there.  The returned forms
    live in a parameter space with r/p d-coordinates (the c0 coefficient
    still refers to the original r)."""
    if n < 3:
        raise ValueError("G(r,p,n) restriction needs n >= 3 (fusion of reflections below that)")
    if p < 1 or r % p != 0:
        raise ValueError("p must divide r")
    rq = r // p
    reduced: list[Hyperplane] = []
    for h in hyperplanes_rectangle(r, n):
        const = h.form.const
        c0 = h.form.c0
        d = [Fraction(0)] * rq
        for l, coef in enumerate(h.form.d):
            d[l % rq] += coef
        form = AffineForm(rq, const, c0, d)
        if form.is_constant():
            # k = r*m*c0 with m = 0 collapses to a nonzero constant: the
            # hyperplane misses the restricted space entirely.
            if form.const != 0:
                continue
            raise AssertionError("restricted form vanished identically")
        reduced.append(Hyperplane(_normalized(form), h.kind, h.k, h.l, h.m))
    return _dedup(reduced)


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
