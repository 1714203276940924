"""Brute-force standard-module engine.

Builds the standard module of a specialized rational Cherednik algebra of
type G(r,1,n) degree by degree, straight from the defining relations, on the
irreducible representation and the point-free y- and z-tables that irrep.py
builds and keeps, both read through IrrepModel.table(kind, i, key):

- joint eigenvectors of the z_i are solved by back-substitution down their
  triangular order on the twisted basis x^nu (tensor) w_nu^{-1} v_S, with
  the eigenvalues read off the diagonal.  The irrep keeps the z-images of
  each twisted column (twisted_table) and, per (mu, residue), the reachable
  exponents in topological order (eigen_plan); a module derives a column's
  vector and diagonal from w_nu once (twisted_column) and solves along the
  plan;
- zeta_i acts on x^nu (tensor) v_t by the root of unity zeta^e, with e the
  residue beta_t(i) - nu_i mod r, so the zeta eigenvalues are read as residues;
- the intertwiner sigma_i is s_i + f_i, with f_i from intertwiner_scalar;
- the contravariant pairing moves x's on the left to y's on the right and
  reads the degree-0 gram form: for each exponent of its left argument it
  lowers the right one through the same numerator-level kernel as y_act,
  keeping each lowered vector as (numerators, denominator), canonical at
  every step, and builds one Fraction at the end.

The module is the standard module over Q(zeta_r), but every structure
constant it reads at a rational ParameterPoint is rational: a ModuleElement
holds integer numerators over one denominator, as the irrep's tables do.  No
oracle path builds a CycNumber, and no library module imports `cyclotomic`:
_kernel, kept for the tests and the benchmark, takes the elements of the
field it is given.  verify_report runs shape by shape, one module alive at a
time.  It certifies the defining relations and the y/z commutativity on the
irrep's point-free tables, for every parameter at once, on keys up to
POINT_FREE_DEGREE, and runs its other checks at the point, on keys up to
POINT_DEGREE: each draws from its own named stream, so a shape's results
depend only on the shape, the point, the degree and the seed.  Every check
returns (count, skipped); only the intertwiner check skips identities, at a
pole or an eigenvalue collision, and the report says how many.  It shares no
code with the closed norm formulas: only its triangularity check reads the
closed spectrum, to compare it with the z-diagonal, in integers.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import time
import types
from fractions import Fraction
from typing import Sequence

from .combinatorics import (
    Comparison,
    MultiPartition,
    StandardTableau,
    assignment_pair,
    composition_compare,
    enumerate_multipartitions,
    parse_multipartition,
    perm_inverse,
    simple_transposition,
)
from .irrep import (POINT_DEGREE, POINT_FREE_DEGREE, IrrepModel, Table, _bump,
                    _commutator_vanishes, _descent, build_irrep)
from .scalars import ParameterPoint, random_point


class EigenvalueCollision(RuntimeError):
    """The parameter point is not generic for the requested eigenvector."""


class ZeroGapError(ZeroDivisionError):
    """Intertwiner applied at a pole (matching residues, equal eigenvalues)."""


COLLISION_RETRIES = 5   # fresh points eigenvector_generic draws on collisions


# ---------------------------------------------------------------------------
# module elements


class ModuleElement:
    """Finite linear combination of x^nu (tensor) v_T, at one specialized
    parameter point, with rational coefficients: integer numerators over one
    positive denominator.  It is canonical when built (no zero numerator, and
    den and the numerators have gcd 1; zero is {} over 1), so equal elements
    have equal data."""

    __slots__ = ("module", "nums", "den")

    def __init__(self, module: "StandardModule", terms: dict):
        """The element with these rational coefficients (ints or Fractions)."""
        terms = {k: Fraction(c) for k, c in terms.items() if c}
        den = math.lcm(*(c.denominator for c in terms.values()))
        self.module, self.den = module, den
        self.nums = {k: c.numerator * (den // c.denominator) for k, c in terms.items()}

    @classmethod
    def _reduced(cls, module: "StandardModule", nums: dict, den: int) -> "ModuleElement":
        """nums/den for integer numerators, zeros allowed, and den > 0."""
        return cls._canonical(module, *_reduce(nums, den))

    @classmethod
    def _canonical(cls, module: "StandardModule", nums: dict, den: int) -> "ModuleElement":
        """nums/den for data already canonical, stored as given."""
        elt = cls.__new__(cls)
        elt.module, elt.nums, elt.den = module, nums, den
        return elt

    @property
    def terms(self) -> types.MappingProxyType:
        """A read-only view of the coefficients as Fractions."""
        return types.MappingProxyType({k: Fraction(a, self.den) for k, a in self.nums.items()})

    def is_zero(self) -> bool:
        return not self.nums

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        g = math.gcd(self.den, other.den)
        out = {k: a * (other.den // g) for k, a in self.nums.items()}
        _accumulate(out, other.nums, self.den // g)
        return ModuleElement._reduced(self.module, out, self.den // g * other.den)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + other.scale(-1)

    def scale(self, c) -> "ModuleElement":
        c = Fraction(c)
        nums = {k: a * c.numerator for k, a in self.nums.items()}
        return ModuleElement._reduced(self.module, nums, self.den * c.denominator)

    def __eq__(self, other):
        return (isinstance(other, ModuleElement) and self.den == other.den
                and self.nums == other.nums)

    def __repr__(self):
        items = sorted(self.terms.items())
        return " + ".join(f"{c}*x^{nu}v[{t}]" for (nu, t), c in items) or "0"


def _reduce(nums: dict, den: int) -> tuple[dict, int]:
    """Integer numerators over den > 0, zeros allowed, made canonical: the
    zeros dropped and one gcd divided out."""
    nums = {k: a for k, a in nums.items() if a}
    g = math.gcd(den, *nums.values())
    if g != 1:
        nums = {k: a // g for k, a in nums.items()}
    return nums, den // g


def _accumulate(out: dict, nums: dict, c: int) -> None:
    """out += c * nums on integer numerator dicts, in place, zeros kept."""
    for key, v in nums.items():
        out[key] = out[key] + c * v if key in out else c * v


class StandardModule:
    """The standard module attached to (shape, rational parameter point)."""

    def __init__(self, shape: MultiPartition, point: ParameterPoint,
                 irrep: IrrepModel | None = None):
        if point.r != shape.r:
            raise ValueError("point and shape disagree on r")
        self.shape, self.point, self.n, self.r = shape, point, shape.size, shape.r
        self.irrep = irrep if irrep is not None else build_irrep(shape)
        # (L, L c0, L d_0, ..): a table entry is vec . _point / (den L)
        self._point = point.integer_form
        self._den = self.irrep.denominator * self._point[0]   # of every y- and z-image
        # y_i and z_i of basis terms by the irrep's kind of table, numerator
        # dicts over _den: _images[kind][i - 1][key]; no cycle through self
        self._images = {kind: [{} for _ in range(self.n)] for kind in ("y_table", "z_table")}
        self._twisted: dict = {}   # (nu, s) -> twisted_column(nu, s)

    def gram_weight(self, T: StandardTableau) -> Fraction:
        return self.irrep.gram[self.irrep.index[T]]

    # -- group and multiplication actions ------------------------------------

    def apply_perm(self, w: tuple[int, ...], elt: ModuleElement) -> ModuleElement:
        cols, den = self.irrep.perm_numerators(w)
        w_inv = perm_inverse(w)
        out: dict = {}
        for (nu, t), c in elt.nums.items():
            nu2 = tuple(nu[w_inv[i] - 1] for i in range(self.n))
            for a, m in cols[t].items():
                key = (nu2, a)
                out[key] = out[key] + c * m if key in out else c * m
        return ModuleElement._reduced(self, out, elt.den * den)

    def residue(self, i: int, key: tuple) -> int:
        """e = beta_t(i) - nu_i mod r: zeta_i acts on the term key = (nu, t) by zeta^e."""
        return (self.irrep.zeta_residues[i - 1][key[1]] - key[0][i - 1]) % self.r

    # -- y- and z-operators: the irrep's tables at this point ------------------

    def _specialize(self, table: Table) -> dict:
        """A table over some den at this module's point: the integer numerators
        over den * point[0], zeros dropped, one integer dot product per entry
        and no gcd.  Over the irrep's denominator, that is over _den."""
        point, terms = self._point, {}
        for key, vec in table.items():
            num = sum(map(operator.mul, vec, point))
            if num:
                terms[key] = num
        return terms

    def _act(self, kind: str, i: int, nums: dict, den: int) -> tuple[dict, int]:
        """y_i or z_i (kind "y_table" or "z_table") on the vector nums/den,
        from the irrep's table of that kind on each basis term, specialized
        once into _images: integer multiply-adds over den * _den, and the
        result made canonical."""
        cache, out = self._images[kind][i - 1], {}
        for key, c in nums.items():
            image = cache.get(key)
            if image is None:
                image = cache[key] = self._specialize(self.irrep.table(kind, i, key))
            _accumulate(out, image, c)
        return _reduce(out, den * self._den)

    def y_act(self, i: int, elt: ModuleElement) -> ModuleElement:
        return ModuleElement._canonical(self, *self._act("y_table", i, elt.nums, elt.den))

    def z_act(self, i: int, elt: ModuleElement) -> ModuleElement:
        return ModuleElement._canonical(self, *self._act("z_table", i, elt.nums, elt.den))

    # -- contravariant pairing -------------------------------------------------

    def pairing(self, u: ModuleElement, v: ModuleElement) -> Fraction:
        """<u, v>, x adjoint to y: conjugate-linear in u and linear in v, so
        bilinear on these rational elements.  For each exponent nu of u, v is
        lowered by y_j for the first j with nu_j > 0, down to an exponent
        already lowered; each lowered vector is kept as (numerators, den)."""
        zero_exp = (0,) * self.n
        lowered = {zero_exp: (v.nums, v.den)}
        by_exp: dict[tuple, list] = {}
        for (nu, t), c in u.nums.items():
            by_exp.setdefault(nu, []).append((t, c))
        gram, gram_den = self.irrep.gram_numerators
        total, den = 0, 1   # integer numerator over den, the lcm of the lowered denominators
        for nu, terms in by_exp.items():
            steps, kappa = [], nu
            for j, below in _descent(nu):
                if kappa in lowered:
                    break
                steps.append((kappa, j))
                kappa = below
            w_nums, w_den = lowered[kappa]
            for kappa, j in reversed(steps):
                w_nums, w_den = lowered[kappa] = self._act("y_table", j + 1, w_nums, w_den)
            part = sum(c * w_nums.get((zero_exp, t), 0) * gram[t] for t, c in terms)
            if part:
                lcm = math.lcm(den, w_den)
                total, den = total * (lcm // den) + part * (lcm // w_den), lcm
        return Fraction(total, den * u.den * gram_den)

    def norm(self, v: ModuleElement) -> Fraction:
        return self.pairing(v, v)

    # -- eigenvectors ------------------------------------------------------------

    def monomials(self, degree: int) -> list[tuple[int, ...]]:
        return sorted(tuple(map(combo.count, range(self.n)))
                      for combo in itertools.combinations_with_replacement(range(self.n), degree))

    def eigenvector(self, mu: Sequence[int], T: StandardTableau) -> ModuleElement:
        """The joint eigenvector of the commuting family with leading term
        x^mu v_T^mu (v_T^mu = w_mu^{-1}.v_T), by back-substitution.

        Each z_i is triangular on the twisted basis x^nu (tensor) w_nu^{-1} v_S
        (Dunkl-Opdam, Knop-Sahi): it sends (nu, S) to diag_i(nu, S) times
        itself plus vectors at exponents that never lead back to nu.  Going
        down the irrep's eigen_plan, a topological order of the exponents
        reachable from mu kept per (mu, residue), the coordinate at (nu, S)
        is that of z_i applied to the part solved so far, over the first
        nonzero gap lambda_i - diag_i(nu, S); lambda is the diagonal at
        (mu, T).  The result is checked: z_i v = lambda_i v.

        Raises EigenvalueCollision when the point is not generic for (mu, T):
        some (nu, S) other than (mu, T) that the z-images reach at this point
        has every gap zero.  Off its own exponent, every entry of a z-image is
        a multiple of c0, so at c0 = 0 they reach no exponent but mu.
        """
        mu, n, irrep = tuple(mu), self.n, self.irrep
        tau = irrep.index[T]
        lead_den, lead, _, lam, lam_den = self.twisted_column(mu, tau)
        plan = irrep.eigen_plan(mu, irrep.column_residues(mu)[tau])

        # the part solved so far and its z_i-images, as numerators over den,
        # the lcm of the denominators of the terms solved so far
        solved, images, den = {}, [{} for _ in range(n)], 1
        for nu, columns, twist_den in plan:   # mu comes first
            coeffs = [(tau, 1, 1)] if nu == mu else []   # (s, numerator, denominator > 0)
            for s, row_s in columns:
                if s == tau and nu == mu:
                    continue
                _, _, _, diag, diag_den = self.twisted_column(nu, s)
                for i in range(n):
                    gap = lam[i] * diag_den - diag[i] * lam_den
                    if gap:
                        break
                else:
                    if nu == mu or self.point.c0:
                        raise EigenvalueCollision(
                            f"{(mu, T.as_text())} vs {(nu, irrep.tableaux[s].as_text())}")
                    break   # c0 = 0: the point does not reach nu
                row = sum(a * images[i].get(key, 0) for key, a in row_s)
                if row:
                    num, c_den = row * lam_den * diag_den, twist_den * den * gap
                    g = math.gcd(num, c_den) if c_den > 0 else -math.gcd(num, c_den)
                    coeffs.append((s, num // g, c_den // g))
            for s, num, c_den in coeffs:
                col_den, vec, zb, _, _ = self.twisted_column(nu, s)
                q = c_den * col_den
                if den % q:   # a new factor: bring everything over the lcm
                    k = q // math.gcd(den, q)
                    den *= k
                    for acc in (solved, *images):
                        for key in acc:
                            acc[key] *= k
                w = num * (den // q)
                _accumulate(solved, vec, w)
                for i in range(n):
                    _accumulate(images[i], zb[i], w)

        for image, eigenvalue in zip(images, lam):   # over den: lam_den z_i v = eigenvalue v
            if ({key: a * lam_den for key, a in image.items() if a}
                    != {key: a * eigenvalue for key, a in solved.items() if a and eigenvalue}):
                raise AssertionError("not a joint eigenvector: the z-action is not triangular")
        elt = ModuleElement._reduced(self, solved, den)
        if ({key: a * lead_den for key, a in elt.nums.items() if key[0] == mu}
                != {key: a * elt.den for key, a in lead.items()}):
            raise AssertionError("leading slice is not x^mu w_mu^{-1} v_T")
        return elt

    def twisted_column(self, nu: tuple[int, ...], s: int) -> tuple:
        """(den; x^nu (tensor) w_nu^{-1} v_s and its z_i-images, as numerator
        dicts over den; their coordinates at (nu, s), as a list of numerators
        over diag_den; diag_den), once per module: the vector from column s of
        w_nu^{-1}, and the images from the irrep's twisted table."""
        column = self._twisted.get((nu, s))
        if column is None:
            (twist, twist_den), (untwist, untwist_den) = self.irrep.twist(nu)
            images = [self._specialize(table) for table in self.irrep.twisted_table(nu, s)]
            den = self._den * untwist_den
            # row s of w_nu on the support of column s of w_nu^{-1} (w_nu is gram-unitary)
            diag = [sum(twist[a][s] * image.get((nu, a), 0) for a in untwist[s])
                    for image in images]
            column = self._twisted[nu, s] = (
                den, {(nu, a): c * self._den for a, c in untwist[s].items()}, images,
                diag, den * twist_den)
        return column

    def eigenvector_generic(self, mu: Sequence[int], T: StandardTableau,
                            rng: random.Random) -> tuple["StandardModule", ModuleElement]:
        """Retry wrapper: on collision, rebuild at a fresh random point."""
        module: StandardModule = self
        for _ in range(COLLISION_RETRIES):
            try:
                return module, module.eigenvector(mu, T)
            except EigenvalueCollision:
                module = StandardModule(self.shape, random_point(self.r, rng),
                                        irrep=self.irrep)
        return module, module.eigenvector(mu, T)

    # -- eigen-structure helpers -------------------------------------------------

    def eigenvalue_of(self, i: int, v: ModuleElement) -> Fraction:
        """The scalar by which z_i acts on the eigenvector v; verifies that v
        really is one."""
        if v.is_zero():
            raise ValueError("zero vector")
        image, key = self.z_act(i, v), min(v.nums)
        lam = Fraction(image.nums.get(key, 0) * v.den, image.den * v.nums[key])
        if image != v.scale(lam):
            raise ValueError(f"not a z_{i} eigenvector")
        return lam

    def zeta_residue(self, i: int, v: ModuleElement) -> int:
        """The residue e by which zeta_i acts on the eigenvector v, as zeta^e;
        verifies that v really is one."""
        if v.is_zero():
            raise ValueError("zero vector")
        residues = {self.residue(i, key) for key in v.nums}
        if len(residues) != 1:
            raise ValueError(f"not a zeta_{i} eigenvector")
        return residues.pop()

    def intertwiner_scalar(self, i: int, v: ModuleElement) -> Fraction:
        """The scalar f_i on the joint eigenvector v: r*c0/(z_i - z_{i+1}) when
        the zeta-residues at i, i+1 agree, 0 otherwise.  Raises ZeroGapError
        at a pole."""
        if self.zeta_residue(i, v) != self.zeta_residue(i + 1, v):
            return Fraction(0)
        gap = self.eigenvalue_of(i, v) - self.eigenvalue_of(i + 1, v)
        if not gap:
            raise ZeroGapError(f"zero spectral gap at position {i}")
        return self.r * self.point.c0 / gap

    def intertwiner(self, i: int, v: ModuleElement) -> ModuleElement:
        """sigma_i = s_i + f_i on a joint eigenvector (see intertwiner_scalar)."""
        if v.is_zero():
            return v
        s_v = self.apply_perm(simple_transposition(self.n, i), v)
        return s_v + v.scale(self.intertwiner_scalar(i, v))

    def symmetrize(self, v: ModuleElement) -> ModuleElement:
        """Apply the symmetrizer sum over S_n as the product of coset sums
        C_1 C_2 .. C_{n-1}, C_m = 1 + s_m + s_{m+1} s_m + .. + s_{n-1} .. s_m:
        n(n-1)/2 transpositions, not n! permutations."""
        for m in range(self.n - 1, 0, -1):
            term = total = v
            for j in range(m, self.n):
                term = self.apply_perm(simple_transposition(self.n, j), term)
                total = total + term
            v = total
        return v


def _kernel(rows: list[list], width: int, f) -> list[list]:
    """Kernel basis of the matrix given by rows of elements of the field f
    (its `zero`, `one`, and each element's `inverse`), by exact Gauss-Jordan
    elimination.  No oracle path calls it: the tests keep it as the reference
    that `StandardModule.eigenvector` is checked against, and the benchmark's
    tracer wraps it by name."""
    mat = [list(row) for row in rows if any(row)]
    pivots: list[int] = []
    for col in range(width):
        row_i = len(pivots)
        pivot = next((k for k in range(row_i, len(mat)) if mat[k][col]), None)
        if pivot is None:
            continue
        mat[row_i], mat[pivot] = mat[pivot], mat[row_i]
        prow = mat[row_i]
        inv = prow[col].inverse()
        # the pivot row's nonzero columns: every other column of a row
        # update would subtract factor * 0
        support = [j for j, c in enumerate(prow) if c]
        for j in support:
            prow[j] = prow[j] * inv
        for k, row in enumerate(mat):
            factor = row[col]
            if k != row_i and factor:
                for j in support:
                    row[j] = row[j] - factor * prow[j]
        pivots.append(col)
    basis = []
    for fc in (c for c in range(width) if c not in pivots):
        vec = [f.zero] * width
        vec[fc] = f.one
        for r_idx, pc in enumerate(pivots):
            vec[pc] = -mat[r_idx][fc]
        basis.append(vec)
    return basis


def _exponents(mod: StandardModule, degree: int, cap: int) -> list[tuple[int, ...]]:
    """Each exponent up to degree min(degree, cap), degree by degree."""
    return [nu for deg in range(min(degree, cap) + 1) for nu in mod.monomials(deg)]


def _basis(mod: StandardModule, degree: int, cap: int) -> list[tuple]:
    """(nu, t) for each basis term x^nu v_t up to degree min(degree, cap)."""
    return [(nu, t) for nu in _exponents(mod, degree, cap) for t in range(mod.irrep.dim)]


def _check_relations(mod: StandardModule, degree: int, rng: random.Random) -> tuple[int, int]:
    # y_i (nu + e_j) against the relation step for every j, a whole block of
    # tableaux at a time.  For j at or before nu's first nonzero entry that is
    # the step the y-block was built by; those identities are kept, so the
    # check does not depend on which j the builder picks
    irrep, ts = mod.irrep, range(mod.irrep.dim)
    exponents = _exponents(mod, degree, POINT_FREE_DEGREE)
    for nu in exponents:
        ups = [_bump(nu, j) for j in range(mod.n)]
        for i, j in itertools.product(range(1, mod.n + 1), repeat=2):
            if irrep._block("y_table", i, ups[j - 1], ts) != irrep.raised_table(
                    i, j, nu, ts, irrep._block("y_table", i, nu, ts)):
                raise AssertionError(f"relation y_{i} x_{j} at {nu}")
    return len(exponents) * irrep.dim * mod.n ** 2, 0


def _check_commutation(mod: StandardModule, degree: int, rng: random.Random) -> tuple[int, int]:
    irrep, basis = mod.irrep, _basis(mod, degree, POINT_FREE_DEGREE)
    for key in basis:
        for i, j in itertools.combinations(range(1, mod.n + 1), 2):
            for kind in ("y_table", "z_table"):
                if not _commutator_vanishes(irrep, kind, i, j, key):
                    raise AssertionError(f"[{kind[0]}_{i}, {kind[0]}_{j}] != 0")
    return len(basis) * math.comb(mod.n, 2), 0


def _random_element(mod: StandardModule, deg: int, rng: random.Random) -> ModuleElement:
    """Each term of degree deg kept on a draw < 0.6, then drawn its coefficient."""
    return ModuleElement(mod, {(nu, t): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for nu in mod.monomials(deg) for t in range(mod.irrep.dim)
                               if rng.random() < 0.6})


def _by_residue(elt: ModuleElement, keep) -> ModuleElement:
    """The part of elt on the basis terms whose zeta_1-residue passes keep."""
    nums = {key: a for key, a in elt.nums.items() if keep(elt.module.residue(1, key))}
    return ModuleElement._reduced(elt.module, nums, elt.den)


def _check_form(mod: StandardModule, degree: int, rng: random.Random) -> tuple[int, int]:
    # W-invariance on the generators s_1..s_{n-1} and zeta_1 of W: for a
    # sesquilinear form that is invariance under every element.  zeta_1 is
    # diagonal and unitary, so the form is invariant under it exactly when
    # terms of different zeta_1-residues pair to 0
    generators = [functools.partial(mod.apply_perm, simple_transposition(mod.n, i))
                  for i in range(1, mod.n)]
    for _ in range(2):
        u, v = (_random_element(mod, min(degree, POINT_DEGREE), rng) for _ in range(2))
        form = mod.pairing(u, v)
        if form != mod.pairing(v, u):
            raise AssertionError("pairing not conjugate-symmetric")
        for e in sorted({mod.residue(1, key) for key in u.nums}) if mod.n else ():
            if mod.pairing(_by_residue(u, lambda x: x == e), _by_residue(v, lambda x: x != e)):
                raise AssertionError("pairing not W-invariant")
        for i in range(1, mod.n + 1):
            if mod.pairing(mod.z_act(i, u), v) != mod.pairing(u, mod.z_act(i, v)):
                raise AssertionError(f"z_{i} not self-adjoint")
        for g in generators:
            if mod.pairing(g(u), g(v)) != form:
                raise AssertionError("pairing not W-invariant")
    return 2, 0


def _check_triangular(mod: StandardModule, degree: int, rng: random.Random) -> tuple[int, int]:
    # in integers: an image's twisted coordinates at nu are those of w_nu
    # applied to its nu-slice, all over diag_den, so the diagonal is an integer
    # to compare with diag and, by one cross-product, with the closed
    # eigenvalue; at any other exponent the twisted coordinates are nonzero
    # exactly where the slice is, so each exponent reached is compared once
    from .norms import spectrum
    count = 0
    for nu, t in _basis(mod, degree, POINT_DEGREE):
        T = mod.irrep.tableaux[t]
        den, vec, images, diag, diag_den = mod.twisted_column(nu, t)
        twist = mod.irrep.twist(nu)[0][0]
        elt = ModuleElement._reduced(mod, vec, den)
        reached = set()
        for i, data in enumerate(spectrum(nu, T)):
            if ModuleElement._reduced(mod, images[i], den) != mod.z_act(i + 1, elt):
                raise AssertionError(f"twisted table image z_{i + 1} at {nu}, {T.as_text()}")
            own: dict = {}   # the twisted coordinates at nu, numerators over diag_den
            for (kappa, b), c in images[i].items():
                if kappa == nu:
                    for u, m in twist[b].items():
                        own[u] = own.get(u, 0) + m * c
                else:
                    reached.add(kappa)
            expect = data.z_eigenvalue.evaluate(mod.point)
            if not (own.pop(t, 0) == diag[i]
                    and diag[i] * expect.denominator == expect.numerator * diag_den):
                raise AssertionError(f"diagonal at {nu}, {T.as_text()}")
            if any(own.values()):
                raise AssertionError(f"non-triangular entry at {nu} from {(nu, t)}")
            count += 1
        for kappa in reached:
            if composition_compare(nu, kappa) is not Comparison.GREATER:
                raise AssertionError(f"non-triangular entry at {kappa} from {(nu, t)}")
    return count, 0


def _check_eigen_norms(mod: StandardModule, degree: int, rng: random.Random) -> tuple[int, int]:
    from .norms import nonsymmetric_norm
    mus = sorted(_exponents(mod, degree, POINT_DEGREE))
    for T in mod.irrep.tableaux:
        gam = mod.gram_weight(T)
        for mu in mus:
            m2, f = mod.eigenvector_generic(mu, T, rng)
            if m2.norm(f) != gam * nonsymmetric_norm(mu, T).evaluate(m2.point):
                raise AssertionError(f"norm mismatch at mu={mu}, T={T.as_text()}")
    return len(mod.irrep.tableaux) * len(mus), 0


def _check_minimal_norms(mod: StandardModule, degree: int,
                         rng: random.Random) -> tuple[int, int]:
    from .norms import minimal_assignment, minimal_norm, symmetric_norm, symmetrization_block_factor
    S = minimal_assignment(mod.shape)
    mu, T = assignment_pair(S)
    m2, f = mod.eigenvector_generic(mu, T, rng)
    g = m2.symmetrize(f)
    closed = minimal_norm(mod.shape)
    expect = (m2.gram_weight(T) * symmetrization_block_factor(S).evaluate(m2.point)
              * closed.evaluate(m2.point))
    # <g, g> = n! <f, g>, as g is S_n-invariant and the form W-invariant
    if m2.pairing(f, g) * math.factorial(mod.n) != expect:
        raise AssertionError(f"minimal norm mismatch for {mod.shape.as_text()}")
    if symmetric_norm(S) != closed:
        raise AssertionError("product formula disagrees with n! H E")
    return 1, 0


def _check_intertwiners(mod: StandardModule, degree: int,
                        rng: random.Random) -> tuple[int, int]:
    """(identities certified, identities skipped): an identity is skipped
    at a pole (ZeroGapError), and every identity of a tableau whose
    eigenvector collides at each retry (EigenvalueCollision)."""
    count = skipped = 0
    for T in mod.irrep.tableaux[:2]:
        mu = tuple(rng.randint(0, max(0, degree - 1)) for _ in range(mod.n))
        try:
            m2, f = mod.eigenvector_generic(mu, T, rng)
        except EigenvalueCollision:
            skipped += mod.n - 1 + (mod.n >= 3)
            continue
        norm_f_val = m2.norm(f)
        for i in range(1, mod.n):
            try:
                sf = m2.intertwiner(i, f)
            except ZeroGapError:
                skipped += 1
                continue
            # sigma^2 = 1 - f^2 and the norm scaling
            g = m2.intertwiner_scalar(i, f)
            square = 1 - g * g
            if m2.intertwiner(i, sf) != f.scale(square):
                raise AssertionError(f"sigma_{i}^2 != 1 - f^2")
            if sf.is_zero():
                if square:
                    raise AssertionError(f"sigma_{i} vanished away from g = +-1")
            elif m2.norm(sf) != square * norm_f_val:
                raise AssertionError(f"sigma_{i} norm scaling")
            count += 1
        if mod.n >= 3:
            try:
                lhs = m2.intertwiner(1, m2.intertwiner(2, m2.intertwiner(1, f)))
                rhs = m2.intertwiner(2, m2.intertwiner(1, m2.intertwiner(2, f)))
                if lhs != rhs:
                    raise AssertionError("braid relation")
                count += 1
            except ZeroGapError:
                skipped += 1
    return count, skipped


# The checks verify_report runs on each shape's module, in order: a check
# takes (mod, degree, rng), draws only from rng, and returns (count, skipped),
# the identities it certified and those it skipped (only the intertwiner
# check skips any); its row's details are the format string applied to the
# sum of the counts over the shapes, and then the number skipped, if any.
_CHECKS = (
    ("defining relations up to degree cap", _check_relations, "{} operator identities"),
    ("y- and z-family commutativity", _check_commutation, "{} commutators"),
    ("contravariant form properties", _check_form, "symmetry, self-adjointness, W-invariance"),
    ("z-matrix triangularity and diagonal", _check_triangular,
     "{} columns triangular with predicted diagonal"),
    ("eigenvector norms vs closed formula", _check_eigen_norms,
     "{} eigenvector norms match the closed formula"),
    ("symmetrized minimal norms vs closed formula", _check_minimal_norms,
     "{} minimal symmetric norms match n! H E"),
    ("intertwiner square, norm scaling, braid", _check_intertwiners, "{} intertwiner identities"),
)


def _check_dimensions(r: int, n: int, total: int) -> None:
    expect = (r ** n) * math.factorial(n)
    if total != expect:
        raise AssertionError(f"sum of dim^2 = {total}, expected {expect}")


def _check_symmetrizer(r: int, n: int, rng: random.Random) -> None:
    for _ in range(5):
        z = []
        while len(set(z)) != n:
            z = [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n)]
        c0 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if not symmetrizer_identity_check(n, z, c0, r):
            raise AssertionError(f"identity failed at z={z}, c0={c0}")


def _record(row: dict, fn, *args):
    """fn(*args), its time added to row; None if it raises, failing the row."""
    t0 = time.perf_counter()
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - report, don't crash
        row["status"], row["details"] = "fail", f"{type(exc).__name__}: {exc}"
    finally:
        row["seconds"] += time.perf_counter() - t0


def verify_report(r: int, n: int, degree: int = 2, seed: int = 0,
                  shape_text: str | None = None) -> dict:
    """Structured pass/fail report over the oracle's identity suite for all
    r-partitions of n (or a single shape).

    Certified on the irrep's point-free tables, for every parameter at once
    and with nothing specialized, up to the degree cap: the defining relations
    y_i x_j - x_j y_i = [y_i, x_j], and the commutativity of the y- and
    z-families.  The point-free rows certify the tables against
    bracket_table, and a constant shift of [y_i, x_i] is caught at the
    point.  At a seeded random rational point: group relations and gram
    data at irrep construction, the sum of squared dimensions, pairing
    symmetry, z self-adjointness and W-invariance (on the generators s_i, and
    on zeta_1 as the orthogonality of its residues), triangularity of z with
    the predicted diagonal, eigenvector and minimal norms (<g, g> as
    n! <f, g>) against the closed formulas, intertwiner braid and square
    relations, and the S_n symmetrizer identity.
    The triangularity and eigenvector checks read the twisted columns
    (twisted_column, the irrep's twisted images specialized once per module);
    the triangularity check asserts that each image is z_act of its vector.

    The report runs shape by shape: it builds a shape's module (the irrep
    check), runs each check of _CHECKS on it and drops it, so only one module
    is alive at a time.  A failed check keeps its first message and skips
    later shapes.  Only the point draws from random.Random(seed); each check
    draws from its own stream, random.Random(f"{seed}/{name}/{shape}") (the
    symmetrizer's without the shape)."""
    rng = random.Random(seed)
    point = ParameterPoint(r, Fraction(rng.randint(1, 40), rng.randint(1, 40)),
                           [Fraction(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(r)])
    if shape_text is not None:
        shapes = [parse_multipartition(shape_text, r)]
        if shapes[0].size != n:
            raise ValueError(f"shape {shape_text!r} has size {shapes[0].size}, not n = {n}")
    else:
        shapes = enumerate_multipartitions(r, n)
    rows = [{"name": name, "status": "pass", "seconds": 0.0, "details": details, "count": 0,
             "skipped": 0}
            for name, details in [("irrep relations and dimension count",
                                   "sum dim^2 = {}" if shape_text is None else "1 shape(s) validated"),
                                  *((name, details) for name, _, details in _CHECKS),
                                  ("symmetrizer rational-function identity",
                                   "5 random evaluations equal n!")]]
    irreps, *per_shape, symmetrizer = rows
    for shape in shapes:
        mod = _record(irreps, StandardModule, shape, point)   # validates the irrep
        if mod is None:
            break
        irreps["count"] += mod.irrep.dim ** 2
        for row, (name, check, _) in zip(per_shape, _CHECKS):
            if row["status"] == "pass":
                stream = random.Random(f"{seed}/{name}/{shape}")
                count, skipped = _record(row, check, mod, degree, stream) or (0, 0)
                row["count"] += count
                row["skipped"] += skipped
        del mod   # before the next shape's module is built
    if shape_text is None and irreps["status"] == "pass":
        _record(irreps, _check_dimensions, r, n, irreps["count"])
    _record(symmetrizer, _check_symmetrizer, r, n, random.Random(f"{seed}/{symmetrizer['name']}"))
    for row in rows:
        count, skipped = row.pop("count"), row.pop("skipped")
        row["seconds"] = round(row["seconds"], 4)
        if row["status"] == "pass":
            row["details"] = row["details"].format(count)
            if skipped:
                row["details"] += f", {skipped} skipped at a pole or collision"
    return {"r": r, "n": n, "degree": degree, "seed": seed,
            "point": {"c0": str(point.c0), "d": [str(x) for x in point.d]},
            "shapes": [s.as_text() for s in shapes], "checks": rows,
            "ok": all(row["status"] == "pass" for row in rows)}


def symmetrizer_identity_check(n: int, z: Sequence[Fraction], c0, r: int = 1) -> bool:
    """Exact evaluation of
    sum_{w in S_n} prod_{inversions} (1 + rc0/(z_i - z_j))
                   prod_{non-inversions} (1 - rc0/(z_i - z_j)) = n!,
    multiplied through by prod_{i<j} g_ij, g_ij = z_i - z_j: the sum over w of
    prod (g_ij +- rc0) is n! prod g_ij.  z and rc0 are first scaled to
    integers by the lcm of their denominators, which scales both sides by the
    same power of it."""
    z = [Fraction(x) for x in z]
    if len(set(z)) != len(z):
        raise ValueError("z values must be distinct")
    q = Fraction(c0) * r
    scale = math.lcm(q.denominator, *(x.denominator for x in z))
    q = q.numerator * (scale // q.denominator)
    z = [x.numerator * (scale // x.denominator) for x in z]
    pairs = list(itertools.combinations(range(n), 2))
    gaps = [z[i] - z[j] for i, j in pairs]
    signed = [(g + q, g - q) for g in gaps]
    return math.factorial(n) * math.prod(gaps) == sum(
        math.prod(plus if w[i] > w[j] else minus for (i, j), (plus, minus) in zip(pairs, signed))
        for w in itertools.permutations(range(n)))
