"""Brute-force standard-module engine.

Builds the standard module of a specialized rational Cherednik algebra of
type G(r,1,n) degree by degree, straight from the defining relations:

- build_irrep constructs the underlying irreducible G(r,1,n) representation
  in rational seminormal form (basis indexed by standard tableaux, diagonal
  gram weights) and validates every group relation at construction;
- the y-operators act by relation-driven recursion (y kills degree 0 of the
  induced module, and commuting y past x inserts the group-algebra bracket);
- z_i = y_i x_i + c0 * phi_i with phi_i the Jucys-Murphy sums;
- joint eigenvectors of the z_i are solved by back-substitution down their
  triangular order on the twisted basis x^nu (tensor) w_nu^{-1} v_S, with
  the eigenvalues read off the diagonal;
- the contravariant pairing moves x's on the left to y's on the right and
  reads the degree-0 gram form.

Coefficients live in Q(zeta_r) exactly; parameters are specialized to a
rational ParameterPoint.  This certifies the closed norm formulas without
sharing their code: only verify_report's triangularity check reads the
closed spectrum, to compare it with the z-diagonal.
"""
from __future__ import annotations

import graphlib
import itertools
import math
import random
import time
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Optional, Sequence

from .combinatorics import (
    MultiPartition,
    StandardTableau,
    enumerate_syt,
    perm_identity,
    perm_inverse,
    reduced_word,
    simple_transposition,
    sorting_data,
)
from .cyclotomic import CycNumber, CyclotomicField
from .norms import spectrum
from .scalars import ParameterPoint, random_point


class EigenvalueCollision(RuntimeError):
    """The parameter point is not generic for the requested eigenvector."""


class ZeroGapError(ZeroDivisionError):
    """Intertwiner applied at a pole (matching residues, equal eigenvalues)."""


Matrix = tuple[tuple[CycNumber, ...], ...]  # mat[a][b]: coeff of a in image of b


def _mat_mul(m1: Matrix, m2: Matrix, zero: CycNumber) -> Matrix:
    dim = len(m1)
    out = []
    for a in range(dim):
        row = []
        for b in range(dim):
            acc = zero
            for k in range(dim):
                if not m1[a][k].is_zero() and not m2[k][b].is_zero():
                    acc = acc + m1[a][k] * m2[k][b]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_vec(m: Matrix, v: Sequence[CycNumber], zero: CycNumber) -> tuple[CycNumber, ...]:
    dim = len(m)
    return tuple(
        sum((m[a][b] * v[b] for b in range(dim) if not v[b].is_zero()), zero)
        for a in range(dim)
    )


def _identity_matrix(dim: int, field: CyclotomicField) -> Matrix:
    return tuple(
        tuple(field.one if a == b else field.zero for b in range(dim))
        for a in range(dim)
    )


@dataclass
class IrrepModel:
    """Rational seminormal model of the irreducible indexed by an r-partition."""

    shape: MultiPartition
    tableaux: list[StandardTableau]
    index: dict[StandardTableau, int]
    field: CyclotomicField
    s_mats: list[Matrix]            # s_1 .. s_{n-1}
    zeta_residues: list[tuple[int, ...]]  # zeta_residues[i-1][t] = beta of box of i in T_t
    gram: list[Fraction]
    _perm_cache: dict = dataclass_field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.tableaux)

    @property
    def n(self) -> int:
        return self.shape.size

    def zeta_matrix(self, i: int) -> Matrix:
        return _zeta_power_matrix(self, i, 1)

    def perm_matrix(self, w: tuple[int, ...]) -> Matrix:
        cache = self._perm_cache
        if w not in cache:
            mat = _identity_matrix(self.dim, self.field)
            for i in reduced_word(w):
                mat = _mat_mul(mat, self.s_mats[i - 1], self.field.zero)
            cache[w] = mat
        return cache[w]


def build_irrep(shape: MultiPartition, validate: bool = True) -> IrrepModel:
    """Construct the seminormal model and (by default) validate every group
    relation, gram compatibility, and the Jucys-Murphy diagonal."""
    r = shape.r
    n = shape.size
    field = CyclotomicField(r)
    tableaux = enumerate_syt(shape)
    if not tableaux:
        raise ValueError("shape has no standard tableaux")
    index = {t: k for k, t in enumerate(tableaux)}
    dim = len(tableaux)

    # gram weights by propagation from the first tableau
    gram: list[Optional[Fraction]] = [None] * dim
    gram[0] = Fraction(1)
    pending = [0]
    while pending:
        t = pending.pop()
        T = tableaux[t]
        for i in range(1, n):
            b, b2 = T.box_of(i), T.box_of(i + 1)
            if b.component == b2.component and (b.row == b2.row or b.column == b2.column):
                continue
            t2 = index[T.swap_adjacent(i)]
            if b.component == b2.component:
                rho = Fraction(1, b2.content - b.content)
            else:
                rho = Fraction(0)
            up = (b.component, b.row) < (b2.component, b2.row)
            ratio = (1 - rho * rho) if up else Fraction(1) / (1 - rho * rho)
            value = gram[t] * ratio
            if gram[t2] is None:
                gram[t2] = value
                pending.append(t2)
            elif gram[t2] != value:
                raise AssertionError("inconsistent gram propagation")
    if any(g is None for g in gram):
        raise AssertionError("tableau graph not connected under adjacent swaps")

    # s_i matrices, column by column
    s_mats = []
    for i in range(1, n):
        cols = []
        for t, T in enumerate(tableaux):
            col = [field.zero] * dim
            b, b2 = T.box_of(i), T.box_of(i + 1)
            if b.component == b2.component and b.row == b2.row:
                col[t] = field.one
            elif b.component == b2.component and b.column == b2.column:
                col[t] = -field.one
            else:
                t2 = index[T.swap_adjacent(i)]
                if b.component == b2.component:
                    rho = Fraction(1, b2.content - b.content)
                else:
                    rho = Fraction(0)
                up = (b.component, b.row) < (b2.component, b2.row)
                theta = Fraction(1) if up else 1 - rho * rho
                col[t] = field.from_rational(rho)
                col[t2] = field.from_rational(theta)
            cols.append(tuple(col))
        s_mats.append(tuple(zip(*cols)))   # rows from columns

    zeta_residues = [
        tuple(T.box_of(i).component for T in tableaux) for i in range(1, n + 1)
    ]

    model = IrrepModel(shape, tableaux, index, field, s_mats, zeta_residues,
                       [Fraction(g) for g in gram])
    if validate:
        errors = validate_irrep(model)
        if errors:
            raise AssertionError("irrep validation failed: " + "; ".join(errors))
    return model


def validate_irrep(model: IrrepModel) -> list[str]:
    """All G(r,1,n) relations, gram self-adjointness/unitarity, and the
    Jucys-Murphy diagonal.  Returns a list of failures (empty = valid)."""
    errors = []
    f = model.field
    n = model.n
    dim = model.dim
    ident = _identity_matrix(dim, f)
    zero = f.zero

    def close(name, got, expect):
        if got != expect:
            errors.append(name)

    for i in range(1, n):
        close(f"s_{i}^2 = 1", _mat_mul(model.s_mats[i - 1], model.s_mats[i - 1], zero), ident)
    for i in range(1, n - 1):
        a, b = model.s_mats[i - 1], model.s_mats[i]
        close(f"braid s_{i} s_{i+1} s_{i}",
              _mat_mul(a, _mat_mul(b, a, zero), zero),
              _mat_mul(b, _mat_mul(a, b, zero), zero))
    for i in range(1, n):
        for j in range(i + 2, n):
            a, b = model.s_mats[i - 1], model.s_mats[j - 1]
            close(f"s_{i} s_{j} commute", _mat_mul(a, b, zero), _mat_mul(b, a, zero))
    zetas = [model.zeta_matrix(i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        power = ident
        for _ in range(model.shape.r):
            power = _mat_mul(power, zetas[i - 1], zero)
        close(f"zeta_{i}^r = 1", power, ident)
    for i in range(1, n):
        got = _mat_mul(model.s_mats[i - 1], _mat_mul(zetas[i - 1], model.s_mats[i - 1], zero), zero)
        close(f"s_{i} zeta_{i} s_{i} = zeta_{i+1}", got, zetas[i])
        for j in range(1, n + 1):
            if j in (i, i + 1):
                continue
            close(f"s_{i} zeta_{j} commute",
                  _mat_mul(model.s_mats[i - 1], zetas[j - 1], zero),
                  _mat_mul(zetas[j - 1], model.s_mats[i - 1], zero))
    # gram conditions: s_i self-adjoint, zeta_i unitary (diagonal root of unity)
    for i in range(1, n):
        m = model.s_mats[i - 1]
        for a in range(dim):
            for b in range(dim):
                lhs = m[a][b] * model.gram[a]
                rhs = m[b][a].conjugate() * model.gram[b]
                if lhs != rhs:
                    errors.append(f"s_{i} gram self-adjointness")
    # Jucys-Murphy diagonal: phi_i = sum_{j<i} sum_l zeta_i^l s_ij zeta_i^-l
    for i in range(1, n + 1):
        phi = None
        for j in range(1, i):
            w = _transposition_matrix(model, i, j)
            acc = None
            for l in range(model.shape.r):
                zl = _zeta_power_matrix(model, i, l)
                zli = _zeta_power_matrix(model, i, -l)
                term = _mat_mul(zl, _mat_mul(w, zli, zero), zero)
                acc = term if acc is None else _mat_add(acc, term)
            phi = acc if phi is None else _mat_add(phi, acc)
        if phi is None:
            continue
        for t, T in enumerate(model.tableaux):
            expect = f.from_rational(model.shape.r * T.box_of(i).content)
            for a in range(dim):
                want = expect if a == t else zero
                if phi[a][t] != want:
                    errors.append(f"jucys-murphy phi_{i} not diagonal with r*ct")
                    break
    return sorted(set(errors))


def _mat_add(m1: Matrix, m2: Matrix) -> Matrix:
    return tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(m1, m2))


def _transposition_matrix(model: IrrepModel, i: int, j: int) -> Matrix:
    n = model.n
    w = list(range(1, n + 1))
    w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
    return model.perm_matrix(tuple(w))


def _zeta_power_matrix(model: IrrepModel, i: int, l: int) -> Matrix:
    f = model.field
    dim = model.dim
    return tuple(
        tuple(
            f.zeta_power(l * model.zeta_residues[i - 1][b]) if a == b else f.zero
            for b in range(dim)
        )
        for a in range(dim)
    )


# ---------------------------------------------------------------------------
# module elements


class ModuleElement:
    """Finite linear combination of x^nu (tensor) v_T over Q(zeta_r), at one
    specialized parameter point."""

    __slots__ = ("module", "terms")

    def __init__(self, module: "StandardModule", terms: dict):
        self.module = module
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return ModuleElement(self.module, out)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + other.scale(-1)

    def scale(self, c) -> "ModuleElement":
        if not isinstance(c, CycNumber):
            c = self.module.field.from_rational(c)
        return ModuleElement(self.module, {k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, ModuleElement) and self.terms == other.terms

    def __repr__(self):
        items = sorted(self.terms.items())
        return " + ".join(f"{c!r}*x^{nu}v[{t}]" for (nu, t), c in items) or "0"


def _accumulate(out: dict, elt: ModuleElement, c: CycNumber) -> None:
    """out += c * elt, in place on a term dict (zeros are dropped by the
    ModuleElement built from it)."""
    for key, v in elt.terms.items():
        add = v * c
        out[key] = out[key] + add if key in out else add


class StandardModule:
    """The standard module attached to (shape, rational parameter point)."""

    def __init__(self, shape: MultiPartition, point: ParameterPoint,
                 irrep: IrrepModel | None = None):
        if point.r != shape.r:
            raise ValueError("point and shape disagree on r")
        self.shape = shape
        self.point = point
        self.irrep = irrep if irrep is not None else build_irrep(shape)
        self.field = self.irrep.field
        self.n = shape.size
        self.r = shape.r
        self._y_cache: dict = {}
        self._z_cache: dict = {}

    # -- constructors --------------------------------------------------------

    def zero(self) -> ModuleElement:
        return ModuleElement(self, {})

    def basis_vector(self, t_idx: int, nu: tuple[int, ...] | None = None) -> ModuleElement:
        nu = nu if nu is not None else (0,) * self.n
        return ModuleElement(self, {(tuple(nu), t_idx): self.field.one})

    def tableau_vector(self, T: StandardTableau) -> ModuleElement:
        return self.basis_vector(self.irrep.index[T])

    def gram_weight(self, T: StandardTableau) -> Fraction:
        return self.irrep.gram[self.irrep.index[T]]

    # -- group and multiplication actions ------------------------------------

    def x_mul(self, i: int, elt: ModuleElement) -> ModuleElement:
        out = {}
        for (nu, t), c in elt.terms.items():
            nu2 = list(nu)
            nu2[i - 1] += 1
            out[(tuple(nu2), t)] = c
        return ModuleElement(self, out)

    def apply_perm(self, w: tuple[int, ...], elt: ModuleElement) -> ModuleElement:
        mat = self.irrep.perm_matrix(w)
        w_inv = perm_inverse(w)
        out: dict = {}
        for (nu, t), c in elt.terms.items():
            nu2 = tuple(nu[w_inv[i] - 1] for i in range(self.n))
            for a in range(self.irrep.dim):
                coef = mat[a][t]
                if coef.is_zero():
                    continue
                key = (nu2, a)
                add = c * coef
                out[key] = out[key] + add if key in out else add
        return ModuleElement(self, out)

    def zeta_act(self, i: int, elt: ModuleElement, power: int = 1) -> ModuleElement:
        out = {}
        for (nu, t), c in elt.terms.items():
            res = self.irrep.zeta_residues[i - 1][t] - nu[i - 1]
            out[(nu, t)] = c * self.field.zeta_power(power * res)
        return ModuleElement(self, out)

    def _twisted_transposition(self, i: int, j: int, l: int,
                               nu: tuple[int, ...], t: int) -> list[tuple]:
        """zeta_i^l s_{ij} zeta_i^{-l} applied to the basis term (nu, t):
        returns [(nu', t', coeff)]."""
        f = self.field
        scalar = f.zeta_power(l * (nu[i - 1] - nu[j - 1]))
        nu2 = list(nu)
        nu2[i - 1], nu2[j - 1] = nu2[j - 1], nu2[i - 1]
        nu2 = tuple(nu2)
        mat = _transposition_matrix(self.irrep, i, j)
        out = []
        for a in range(self.irrep.dim):
            coef = mat[a][t]
            if coef.is_zero():
                continue
            # conjugation by zeta_i^l on the tensor factor
            res_a = self.irrep.zeta_residues[i - 1][a]
            res_t = self.irrep.zeta_residues[i - 1][t]
            tensor_scalar = f.zeta_power(l * (res_a - res_t))
            out.append((nu2, a, scalar * tensor_scalar * coef))
        return out

    # -- the y-operators ------------------------------------------------------

    def y_act(self, i: int, elt: ModuleElement) -> ModuleElement:
        out: dict = {}
        for (nu, t), c in elt.terms.items():
            _accumulate(out, self._y_basis(i, nu, t), c)
        return ModuleElement(self, out)

    def _y_basis(self, i: int, nu: tuple[int, ...], t: int) -> ModuleElement:
        key = (i, nu, t)
        cached = self._y_cache.get(key)
        if cached is not None:
            return cached
        f = self.field
        if sum(nu) == 0:
            result = self.zero()
            self._y_cache[key] = result
            return result
        j = next(k + 1 for k, e in enumerate(nu) if e > 0)
        nu_low = list(nu)
        nu_low[j - 1] -= 1
        nu_low = tuple(nu_low)
        # x_j * y_i on the lower term
        result = self.x_mul(j, self._y_basis(i, nu_low, t))
        # plus the bracket [y_i, x_j] on the lower term
        result = result + self._bracket(i, j, nu_low, t)
        self._y_cache[key] = result
        return result

    def _bracket(self, i: int, j: int, nu: tuple[int, ...], t: int) -> ModuleElement:
        """[y_i, x_j] applied to the basis term (nu, t), straight from the
        defining relations."""
        f = self.field
        p = self.point
        r = self.r
        terms: dict = {}

        def add(nu2, t2, coeff):
            key = (nu2, t2)
            terms[key] = terms[key] + coeff if key in terms else coeff

        if i == j:
            add(nu, t, f.one)
            c0 = f.from_rational(p.c0)
            for j2 in range(1, self.n + 1):
                if j2 == i:
                    continue
                for l in range(r):
                    for nu2, t2, coeff in self._twisted_transposition(i, j2, l, nu, t):
                        add(nu2, t2, -(c0 * coeff))
            res = (self.irrep.zeta_residues[i - 1][t] - nu[i - 1]) % r
            dcoef = p.d[res] - p.d[(res - 1) % r]
            if dcoef:
                add(nu, t, f.from_rational(-dcoef))
        else:
            c0 = f.from_rational(p.c0)
            for l in range(r):
                weight = f.zeta_power(-l)
                for nu2, t2, coeff in self._twisted_transposition(i, j, l, nu, t):
                    add(nu2, t2, c0 * weight * coeff)
        return ModuleElement(self, terms)

    # -- z-operators and Jucys-Murphy sums ------------------------------------

    def jm_act(self, i: int, elt: ModuleElement) -> ModuleElement:
        """phi_i = sum_{j<i} sum_l zeta_i^l s_{ij} zeta_i^{-l}."""
        out: dict = {}
        for (nu, t), c in elt.terms.items():
            for j in range(1, i):
                for l in range(self.r):
                    for nu2, t2, coeff in self._twisted_transposition(i, j, l, nu, t):
                        key = (nu2, t2)
                        add = c * coeff
                        out[key] = out[key] + add if key in out else add
        return ModuleElement(self, out)

    def z_act(self, i: int, elt: ModuleElement) -> ModuleElement:
        out: dict = {}
        for key, c in elt.terms.items():
            _accumulate(out, self._z_basis(i, key), c)
        return ModuleElement(self, out)

    def _z_basis(self, i: int, key: tuple) -> ModuleElement:
        cached = self._z_cache.get((i, key))
        if cached is None:
            single = ModuleElement(self, {key: self.field.one})
            cached = (self.y_act(i, self.x_mul(i, single))
                      + self.jm_act(i, single).scale(self.point.c0))
            self._z_cache[(i, key)] = cached
        return cached

    # -- contravariant pairing -------------------------------------------------

    def pairing(self, u: ModuleElement, v: ModuleElement) -> CycNumber:
        """<u, v>: conjugate-linear in u, linear in v; x adjoint to y."""
        f = self.field
        total = f.zero
        zero_exp = (0,) * self.n
        cache: dict[tuple, ModuleElement] = {zero_exp: v}

        def lowered(nu: tuple[int, ...]) -> ModuleElement:
            if nu in cache:
                return cache[nu]
            j = next(k + 1 for k, e in enumerate(nu) if e > 0)
            nu_low = list(nu)
            nu_low[j - 1] -= 1
            nu_low = tuple(nu_low)
            result = self.y_act(j, lowered(nu_low))
            cache[nu] = result
            return result

        for (nu, t), c in sorted(u.terms.items()):
            w = lowered(nu)
            coef = w.terms.get((zero_exp, t))
            if coef is not None and not coef.is_zero():
                total = total + c.conjugate() * (coef * self.irrep.gram[t])
        return total

    def norm(self, v: ModuleElement) -> Fraction:
        return self.pairing(v, v).as_rational()

    # -- eigenvectors ------------------------------------------------------------

    def monomials(self, degree: int) -> list[tuple[int, ...]]:
        out = []
        for combo in itertools.combinations_with_replacement(range(self.n), degree):
            nu = [0] * self.n
            for c in combo:
                nu[c] += 1
            out.append(tuple(nu))
        return sorted(out)

    def residue_tuple(self, nu: tuple[int, ...], t: int) -> tuple[int, ...]:
        return tuple(
            (self.irrep.zeta_residues[i][t] - nu[i]) % self.r for i in range(self.n)
        )

    def eigenvector(self, mu: Sequence[int], T: StandardTableau) -> ModuleElement:
        """The joint eigenvector of the commuting family with leading term
        x^mu v_T^mu (v_T^mu = w_mu^{-1}.v_T), by back-substitution.

        Each z_i is triangular on the twisted basis x^nu (tensor) w_nu^{-1} v_S
        (Dunkl-Opdam, Knop-Sahi): it sends (nu, S) to diag_i(nu, S) times
        itself plus vectors at exponents that never lead back to nu.  Going
        down a topological order of the exponents reachable from mu, the
        coordinate at (nu, S) is that of z_i applied to the part solved so
        far, over the first nonzero gap lambda_i - diag_i(nu, S); lambda is
        the diagonal at (mu, T).  The result is checked: z_i v = lambda_i v.

        Raises EigenvalueCollision when the point is not generic for (mu, T):
        some reachable (nu, S) other than (mu, T) has every gap zero.
        """
        mu = tuple(mu)
        f, n, irrep = self.field, self.n, self.irrep
        tau = irrep.index[T]
        lead = self.x_power(mu, self.apply_perm(perm_inverse(sorting_data(mu)[2]),
                                                self.tableau_vector(T)))
        (target,) = {self.residue_tuple(nu, t) for nu, t in lead.terms}
        keys: dict[tuple, list[int]] = {}      # reachable exponent -> block keys
        above: dict[tuple, set] = {mu: set()}  # exponent -> exponents reaching it
        pending = [mu]
        while pending:
            nu = pending.pop()
            keys[nu] = [t for t in range(irrep.dim) if self.residue_tuple(nu, t) == target]
            for t, i in itertools.product(keys[nu], range(1, n + 1)):
                for kappa, _ in self._z_basis(i, (nu, t)).terms:
                    if kappa not in above:
                        above[kappa] = set()
                        pending.append(kappa)
                    if kappa != nu:
                        above[kappa].add(nu)
        try:
            order = list(graphlib.TopologicalSorter(above).static_order())
        except graphlib.CycleError as exc:
            raise AssertionError(f"z-action is not triangular: cycle {exc.args[1]}") from None

        images: list[dict] = [{} for _ in range(n)]   # z_i of the part solved so far
        solved: dict = {}
        for nu in order:   # mu comes first
            w = sorting_data(nu)[2]
            twist, untwist = irrep.perm_matrix(w), irrep.perm_matrix(perm_inverse(w))

            def coordinate(terms: dict, s: int) -> CycNumber:
                return sum((twist[s][a] * terms[nu, a] for a in keys[nu] if (nu, a) in terms),
                           f.zero)

            column = {}   # s -> (twisted basis vector, its z_i-images, diag_i(nu, s))
            for s in range(irrep.dim):
                b = ModuleElement(self, {(nu, a): untwist[a][s] for a in keys[nu]})
                if not b.is_zero():
                    zb = [self.z_act(i, b) for i in range(1, n + 1)]
                    column[s] = (b, zb, [coordinate(z.terms, s) for z in zb])
            coeffs = {}
            if nu == mu:
                lam, coeffs = column[tau][2], {tau: f.one}
            for s, (_, _, diag) in column.items():
                if (nu, s) == (mu, tau):
                    continue
                gap = next((i for i in range(n) if diag[i] != lam[i]), None)
                if gap is None:
                    raise EigenvalueCollision(
                        f"{(mu, T.as_text())} vs {(nu, irrep.tableaux[s].as_text())}")
                c = coordinate(images[gap], s) / (lam[gap] - diag[gap])
                if not c.is_zero():
                    coeffs[s] = c
            for s, c in coeffs.items():
                b, zb, _ = column[s]
                _accumulate(solved, b, c)
                for i in range(n):
                    _accumulate(images[i], zb[i], c)

        elt = ModuleElement(self, solved)
        if any(ModuleElement(self, images[i]) != elt.scale(lam[i]) for i in range(n)):
            raise AssertionError("not a joint eigenvector: the z-action is not triangular")
        if {key: c for key, c in elt.terms.items() if key[0] == mu} != lead.terms:
            raise AssertionError("leading slice is not x^mu w_mu^{-1} v_T")
        return elt

    def x_power(self, nu: Sequence[int], elt: ModuleElement) -> ModuleElement:
        out = elt
        for i, e in enumerate(nu, start=1):
            for _ in range(e):
                out = self.x_mul(i, out)
        return out

    def eigenvector_generic(self, mu: Sequence[int], T: StandardTableau,
                            rng: random.Random, retries: int = 5,
                            ) -> tuple["StandardModule", ModuleElement]:
        """Retry wrapper: on collision, rebuild at a fresh random point."""
        module: StandardModule = self
        for attempt in range(retries + 1):
            try:
                return module, module.eigenvector(mu, T)
            except EigenvalueCollision:
                if attempt == retries:
                    raise
                module = StandardModule(self.shape, random_point(self.r, rng),
                                        irrep=self.irrep)
        raise AssertionError("unreachable")

    # -- eigen-structure helpers -------------------------------------------------

    def eigenvalue_of(self, i: int, v: ModuleElement, kind: str = "z") -> CycNumber:
        """The scalar by which z_i (or zeta_i) acts on the eigenvector v;
        verifies v really is an eigenvector."""
        if v.is_zero():
            raise ValueError("zero vector")
        image = self.z_act(i, v) if kind == "z" else self.zeta_act(i, v)
        key = min(v.terms)
        lam = image.terms.get(key, self.field.zero) / v.terms[key]
        if image != v.scale(lam):
            raise ValueError(f"not a {kind}_{i} eigenvector")
        return lam

    def intertwiner(self, i: int, v: ModuleElement) -> ModuleElement:
        """sigma_i = s_i + f_i where f_i acts on a joint eigenvector by
        r*c0/(z_i - z_{i+1}) when the zeta-residues at i, i+1 agree and by 0
        otherwise.  Raises ZeroGapError at a pole."""
        if v.is_zero():
            return v
        res_i = self.eigenvalue_of(i, v, "zeta")
        res_j = self.eigenvalue_of(i + 1, v, "zeta")
        s_v = self.apply_perm(simple_transposition(self.n, i), v)
        if res_i != res_j:
            return s_v
        z_i = self.eigenvalue_of(i, v, "z")
        z_j = self.eigenvalue_of(i + 1, v, "z")
        gap = z_i - z_j
        if gap.is_zero():
            raise ZeroGapError(f"zero spectral gap at position {i}")
        g = self.field.from_rational(Fraction(self.r) * self.point.c0) / gap
        return s_v + v.scale(g)

    def symmetrize(self, v: ModuleElement) -> ModuleElement:
        """Apply the full symmetrizer sum over S_n."""
        out = self.zero()
        for w in itertools.permutations(range(1, self.n + 1)):
            out = out + self.apply_perm(tuple(w), v)
        return out

    def twisted_coordinates(self, elt: ModuleElement) -> dict:
        """Coordinates of elt in the basis x^nu (tensor) w_nu^{-1} v_S."""
        by_exp: dict[tuple, dict[int, CycNumber]] = {}
        for (nu, t), c in elt.terms.items():
            by_exp.setdefault(nu, {})[t] = c
        out = {}
        for nu, coeffs in by_exp.items():
            _, _, w_nu, _ = sorting_data(nu)
            mat = self.irrep.perm_matrix(w_nu)
            vec = [coeffs.get(t, self.field.zero) for t in range(self.irrep.dim)]
            twisted = _mat_vec(mat, vec, self.field.zero)
            for t, c in enumerate(twisted):
                if not c.is_zero():
                    out[(nu, t)] = c
        return out


def _kernel(rows: list[list[CycNumber]], width: int, f: CyclotomicField) -> list[list[CycNumber]]:
    """Kernel basis of the matrix given by rows, by exact Gauss-Jordan
    elimination.  No oracle path calls it: the tests keep it as the reference
    that `StandardModule.eigenvector` is checked against, and the benchmark's
    tracer wraps it by name."""
    mat = [list(row) for row in rows if any(not c.is_zero() for c in row)]
    pivots: list[int] = []
    row_i = 0
    for col in range(width):
        pivot = None
        for k in range(row_i, len(mat)):
            if not mat[k][col].is_zero():
                pivot = k
                break
        if pivot is None:
            continue
        mat[row_i], mat[pivot] = mat[pivot], mat[row_i]
        prow = mat[row_i]
        inv = prow[col].inverse()
        # the pivot row's nonzero columns: every other column of a row
        # update would subtract factor * 0
        support = [j for j, c in enumerate(prow) if not c.is_zero()]
        for j in support:
            prow[j] = prow[j] * inv
        for k, row in enumerate(mat):
            factor = row[col]
            if k != row_i and not factor.is_zero():
                for j in support:
                    row[j] = row[j] - factor * prow[j]
        pivots.append(col)
        row_i += 1
        if row_i == len(mat):
            break
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [f.zero] * width
        vec[fc] = f.one
        for r_idx, pc in enumerate(pivots):
            vec[pc] = -mat[r_idx][fc]
        basis.append(vec)
    return basis


def verify_report(r: int, n: int, degree: int = 2, seed: int = 0,
                  shape_text: str | None = None) -> dict:
    """Structured pass/fail report over the oracle's identity suite for all
    r-partitions of n (or a single shape), at a seeded random rational point.

    Checks: group relations and gram data at irrep construction, the sum of
    squared dimensions, the defining commutation relations up to the degree
    cap, commutativity and self-adjointness of the z-family, pairing symmetry
    and W-invariance, triangularity of z with the predicted diagonal,
    eigenvector norms against the closed formulas, intertwiner braid and
    square relations, and the S_n symmetrizer identity.
    """
    from .combinatorics import enumerate_multipartitions, parse_multipartition
    from .combinatorics import assignment_pair, composition_compare, Comparison
    from .norms import (minimal_assignment, minimal_norm, nonsymmetric_norm,
                        symmetric_norm, symmetrization_block_factor)

    rng = random.Random(seed)
    point = ParameterPoint(
        r,
        Fraction(rng.randint(1, 40), rng.randint(1, 40)),
        [Fraction(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(r)],
    )
    if shape_text is not None:
        shapes = [parse_multipartition(shape_text, r)]
        if shapes[0].size != n:
            raise ValueError(f"shape {shape_text!r} has size {shapes[0].size}, not n = {n}")
    else:
        shapes = enumerate_multipartitions(r, n)
    checks: list[dict] = []

    def run(name, fn):
        t0 = time.perf_counter()
        try:
            detail = fn()
            status = "pass"
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            detail = f"{type(exc).__name__}: {exc}"
            status = "fail"
        checks.append({
            "name": name,
            "status": status,
            "seconds": round(time.perf_counter() - t0, 4),
            "details": detail if isinstance(detail, str) else (detail or ""),
        })

    modules: dict[str, StandardModule] = {}

    def check_irreps():
        total = 0
        for s in shapes:
            modules[s.as_text()] = StandardModule(s, point)  # validates
            total += modules[s.as_text()].irrep.dim ** 2
        if shape_text is None:
            expect = (r ** n) * math.factorial(n)
            if total != expect:
                raise AssertionError(f"sum of dim^2 = {total}, expected {expect}")
            return f"sum dim^2 = {total}"
        return f"{len(shapes)} shape(s) validated"

    run("irrep relations and dimension count", check_irreps)

    def check_relations():
        count = 0
        for mod in modules.values():
            for deg in range(min(degree, 3) + 1):
                for nu in mod.monomials(deg):
                    for t in range(mod.irrep.dim):
                        e = mod.basis_vector(t, nu)
                        for i in range(1, n + 1):
                            for j in range(1, n + 1):
                                lhs = (mod.y_act(i, mod.x_mul(j, e))
                                       - mod.x_mul(j, mod.y_act(i, e)))
                                if lhs != mod._bracket(i, j, nu, t):
                                    raise AssertionError(f"relation y_{i} x_{j} at {nu}")
                                count += 1
        return f"{count} operator identities"

    run("defining relations up to degree cap", check_relations)

    def check_commutation():
        count = 0
        for mod in modules.values():
            for deg in range(min(degree, 3) + 1):
                for nu in mod.monomials(deg):
                    for t in range(mod.irrep.dim):
                        e = mod.basis_vector(t, nu)
                        for i in range(1, n + 1):
                            for j in range(i + 1, n + 1):
                                if not (mod.y_act(i, mod.y_act(j, e))
                                        - mod.y_act(j, mod.y_act(i, e))).is_zero():
                                    raise AssertionError(f"[y_{i}, y_{j}] != 0")
                                if not (mod.z_act(i, mod.z_act(j, e))
                                        - mod.z_act(j, mod.z_act(i, e))).is_zero():
                                    raise AssertionError(f"[z_{i}, z_{j}] != 0")
                                count += 1
        return f"{count} commutators"

    run("y- and z-family commutativity", check_commutation)

    def rand_elt(mod, deg):
        terms = {}
        for nu in mod.monomials(deg):
            for t in range(mod.irrep.dim):
                if rng.random() < 0.6:
                    terms[(nu, t)] = mod.field.from_rational(
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return ModuleElement(mod, terms)

    def check_form():
        for mod in modules.values():
            for _ in range(2):
                u, v = rand_elt(mod, min(degree, 2)), rand_elt(mod, min(degree, 2))
                if mod.pairing(u, v) != mod.pairing(v, u).conjugate():
                    raise AssertionError("pairing not conjugate-symmetric")
                for i in range(1, n + 1):
                    if mod.pairing(mod.z_act(i, u), v) != mod.pairing(u, mod.z_act(i, v)):
                        raise AssertionError(f"z_{i} not self-adjoint")
                for w in itertools.permutations(range(1, n + 1)):
                    if mod.pairing(mod.apply_perm(w, u), mod.apply_perm(w, v)) != mod.pairing(u, v):
                        raise AssertionError("pairing not W-invariant")
        return "symmetry, self-adjointness, W-invariance"

    run("contravariant form properties", check_form)

    def check_triangular():
        count = 0
        for mod in modules.values():
            for deg in range(min(degree, 2) + 1):
                for nu in mod.monomials(deg):
                    for t, T in enumerate(mod.irrep.tableaux):
                        basis_elt = mod.apply_perm(
                            perm_inverse(sorting_data(nu)[2]), mod.tableau_vector(T))
                        basis_elt = mod.x_power(nu, basis_elt)
                        data = spectrum(nu, T)
                        for i in range(1, n + 1):
                            image = mod.twisted_coordinates(mod.z_act(i, basis_elt))
                            diag = image.pop((nu, t), mod.field.zero)
                            expect = mod.field.from_rational(
                                data[i - 1].z_eigenvalue.evaluate(point))
                            if diag != expect:
                                raise AssertionError(f"diagonal at {nu}, {T.as_text()}")
                            for (kappa, u), c in image.items():
                                if composition_compare(nu, kappa) is not Comparison.GREATER:
                                    raise AssertionError(
                                        f"non-triangular entry {(kappa, u)} from {(nu, t)}")
                            count += 1
        return f"{count} columns triangular with predicted diagonal"

    run("z-matrix triangularity and diagonal", check_triangular)

    def check_eigen_norms():
        count = 0
        for mod in modules.values():
            mus = set()
            for total in range(min(degree, 2) + 1):
                for combo in itertools.combinations_with_replacement(range(n), total):
                    nu = [0] * n
                    for c in combo:
                        nu[c] += 1
                    mus.add(tuple(nu))
            for T in mod.irrep.tableaux:
                gam = mod.gram_weight(T)
                for mu in sorted(mus):
                    m2, f = mod.eigenvector_generic(mu, T, rng)
                    if m2.norm(f) != gam * nonsymmetric_norm(mu, T).evaluate(m2.point):
                        raise AssertionError(f"norm mismatch at mu={mu}, T={T.as_text()}")
                    count += 1
        return f"{count} eigenvector norms match the closed formula"

    run("eigenvector norms vs closed formula", check_eigen_norms)

    def check_minimal_norms():
        count = 0
        for s in shapes:
            mod = modules[s.as_text()]
            S = minimal_assignment(s)
            mu, T = assignment_pair(S)
            m2, f = mod.eigenvector_generic(mu, T, rng)
            g = m2.symmetrize(f)
            gam = m2.gram_weight(T)
            expect = (gam * symmetrization_block_factor(S).evaluate(m2.point)
                      * minimal_norm(s).evaluate(m2.point))
            if m2.norm(g) != expect:
                raise AssertionError(f"minimal norm mismatch for {s.as_text()}")
            if symmetric_norm(S).evaluate(m2.point) != minimal_norm(s).evaluate(m2.point):
                raise AssertionError("product formula disagrees with n! H E")
            count += 1
        return f"{count} minimal symmetric norms match n! H E"

    run("symmetrized minimal norms vs closed formula", check_minimal_norms)

    def check_intertwiners():
        count = 0
        for mod in modules.values():
            for T in mod.irrep.tableaux[:2]:
                mu = tuple(rng.randint(0, max(0, degree - 1)) for _ in range(n))
                try:
                    m2, f = mod.eigenvector_generic(mu, T, rng)
                except EigenvalueCollision:
                    continue
                norm_f_val = m2.norm(f)
                for i in range(1, n):
                    try:
                        sf = m2.intertwiner(i, f)
                    except ZeroGapError:
                        continue
                    # sigma^2 = 1 - f^2 and the norm scaling
                    res_i = m2.eigenvalue_of(i, f, "zeta")
                    res_j = m2.eigenvalue_of(i + 1, f, "zeta")
                    if res_i == res_j:
                        zi = m2.eigenvalue_of(i, f, "z")
                        zj = m2.eigenvalue_of(i + 1, f, "z")
                        g = m2.field.from_rational(
                            Fraction(m2.r) * m2.point.c0) / (zi - zj)
                    else:
                        g = m2.field.zero
                    back = m2.intertwiner(i, sf)
                    want = f.scale(m2.field.one - g * g)
                    if back != want:
                        raise AssertionError(f"sigma_{i}^2 != 1 - f^2")
                    if sf.is_zero():
                        if g * g != m2.field.one:
                            raise AssertionError(f"sigma_{i} vanished away from g = +-1")
                    elif m2.norm(sf) != ((m2.field.one - g * g)
                                         * m2.field.from_rational(norm_f_val)).as_rational():
                        raise AssertionError(f"sigma_{i} norm scaling")
                    count += 1
                if n >= 3:
                    try:
                        lhs = m2.intertwiner(1, m2.intertwiner(2, m2.intertwiner(1, f)))
                        rhs = m2.intertwiner(2, m2.intertwiner(1, m2.intertwiner(2, f)))
                        if lhs != rhs:
                            raise AssertionError("braid relation")
                        count += 1
                    except ZeroGapError:
                        pass
        return f"{count} intertwiner identities"

    run("intertwiner square, norm scaling, braid", check_intertwiners)

    def check_symmetrizer_identity():
        for trial in range(5):
            z = []
            while len(set(z)) != n:
                z = [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n)]
            c0 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if not symmetrizer_identity_check(n, z, c0, r):
                raise AssertionError(f"identity failed at z={z}, c0={c0}")
        return "5 random evaluations equal n!"

    run("symmetrizer rational-function identity", check_symmetrizer_identity)

    return {
        "r": r,
        "n": n,
        "degree": degree,
        "seed": seed,
        "point": {"c0": str(point.c0), "d": [str(x) for x in point.d]},
        "shapes": [s.as_text() for s in shapes],
        "checks": checks,
        "ok": all(c["status"] == "pass" for c in checks),
    }


def symmetrizer_identity_check(n: int, z: Sequence[Fraction], c0, r: int = 1) -> bool:
    """Exact evaluation of
    sum_{w in S_n} prod_{inversions} (1 + rc0/(z_i - z_j))
                   prod_{non-inversions} (1 - rc0/(z_i - z_j)) = n!."""
    z = [Fraction(x) for x in z]
    if len(set(z)) != len(z):
        raise ValueError("z values must be distinct")
    q = Fraction(c0) * r
    total = Fraction(0)
    for w in itertools.permutations(range(n)):
        prod = Fraction(1)
        for i in range(n):
            for j in range(i + 1, n):
                ratio = q / (z[i] - z[j])
                prod *= (1 + ratio) if w[i] > w[j] else (1 - ratio)
        total += prod
    return total == math.factorial(n)
