"""The irreducible G(r,1,n) representation under a standard module, and the
point-free tables of the module's operators that it keeps.

- build_irrep constructs the underlying irreducible G(r,1,n) representation
  in rational seminormal form (basis indexed by standard tableaux, sparse
  rational s_i columns from one rule, _swap_rule, and gram weights propagated
  over them), validates every group relation, the ones with a zeta on the
  integer residues (validate_irrep), and keeps the group action once, as
  integer columns (perm_numerators, the one kept form of each s_ij); each
  kind of kept table has its own store, _tables[kind]: a kind names a store,
  not a method.  A _per_irrep method keeps its results in the store of its
  name, keyed by its arguments, and is the only reader of it;
- the y- and z-images of basis terms are point-free integer tables over one
  denominator with no zero vector, specialized at each module's point, and
  kept per exponent: _tables["y_table"][i, nu] lists the table of y_i on
  x^nu v_t for each tableau t built so far, and _tables["z_table"] those of
  z_i.  One reader, table(kind, i, key), reads both kinds.
  Up to y-degree BLOCK_DEGREE a block is built whole, above it one tableau
  at a time.  y kills degree 0, and one relation step, raised_table, writes
  y_i x_j as x_j y_i + [y_i, x_j] on tableaux of one exponent; a y-block
  takes it for the first j with nu_j > 0, once per level of that chain
  (_descent, the one walk down it), and the relations row for every j.  The
  bracket (bracket_table) is affine in (1, c0, d_0..d_{r-1}), and its
  averages sum_l zeta^{-l*shift} zeta_i^l s_ij zeta_i^{-l} are r s_ij on
  the entries of zeta-weight shift mod r: one residue of the kept s_ij
  column, kept as ready table vectors per (i, j, shift, sign) (averages).
  One helper, _add_averages, adds c0 times their sum over k to tables: the
  diagonal bracket, and z_i = y_i x_i + c0 phi_i.  validate_irrep checks
  the sum on the Jucys-Murphy sums phi_i, reading the same kept columns.

Every structure constant here is rational: the tables hold integer
numerators over one denominator, and validate_irrep reads each relation with
a zeta on the integer residues, by sums of powers of zeta that are integers.
"""
from __future__ import annotations

import collections
import functools
import graphlib
import itertools
import math
import operator
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Optional

from .combinatorics import (
    MultiPartition,
    StandardTableau,
    enumerate_syt,
    perm_inverse,
    reduced_word,
    sorting_permutation,
)

# the point-free rows certify keys up to degree POINT_FREE_DEGREE, and the
# relations row reads y one degree up: up to this y-degree the y- and z-tables
# are built a whole block (every tableau of one exponent) at a time; the rows
# at the point (form, triangularity, eigenvector norms) read keys up to
# degree POINT_DEGREE
POINT_FREE_DEGREE = 3
BLOCK_DEGREE = POINT_FREE_DEGREE + 1
POINT_DEGREE = 2

# a matrix is its tuple of columns: mat[b] = {a: coefficient of a in the image
# of b}, nonzero entries only, in increasing a: Fractions in the seminormal
# s_i, and integers in the kept products (perm_numerators)
Matrix = tuple[dict, ...]


def _apply(mat: Matrix, vec: dict) -> dict:
    """The image of the vector {b: coefficient} under mat, zeros dropped."""
    out: dict = {}
    for b, c in vec.items():
        for a, m in mat[b].items():
            add = m * c
            out[a] = out[a] + add if a in out else add
    return {a: out[a] for a in sorted(out) if out[a]}


def _mat_mul(m1: Matrix, m2: Matrix) -> Matrix:
    return tuple(_apply(m1, col) for col in m2)


# a y- or z-image of a basis term at every point at once: {(nu, t): the
# integer numerators of the coefficients of (1, c0, d_0, .., d_{r-1}) in that
# coordinate}, over a denominator kept beside the table
Table = dict[tuple, tuple[int, ...]]


def _add_coeffs(table: Table, pairs) -> None:
    """table[key] += vec for each (key, vec) of pairs, in place; a key whose
    sum vanishes is dropped, so a table built by adding stays canonical: no
    zero vector."""
    for key, vec in pairs:
        old = table.get(key)
        if old is None:
            if any(vec):
                table[key] = vec
        else:
            new = tuple(map(operator.add, old, vec))
            if any(new):
                table[key] = new
            else:
                del table[key]


def _bump(nu: tuple[int, ...], j: int, by: int = 1) -> tuple[int, ...]:
    """nu with its entry j (counted from 0) moved by `by`."""
    return nu[:j] + (nu[j] + by,) + nu[j + 1:]


def _descent(nu: tuple[int, ...]):
    """The first-nonzero chain below nu: the steps (j, nu - e_j), j the first
    entry (counted from 0) with nu_j > 0, then the same from nu - e_j, down
    to degree 0."""
    for j in range(len(nu)):
        while nu[j]:
            nu = _bump(nu, j, -1)
            yield j, nu


def _swapped(nu: tuple[int, ...], i: int, k: int) -> tuple[int, ...]:
    """s_ik nu: nu with its entries i and k (counted from 1) exchanged."""
    out = list(nu)
    out[i - 1], out[k - 1] = nu[k - 1], nu[i - 1]
    return tuple(out)


def _per_irrep(build):
    """Keep an IrrepModel method's results in the store named after it,
    _tables[name], keyed by the argument tuple: built once per irrep, and
    read through the method.  A kind names a store, not a method: the y- and
    z-stores have no method of their name, and are read through table."""
    name = build.__name__

    @functools.wraps(build)
    def kept(self, *args):
        store = self._tables[name]
        value = store.get(args)
        if value is None:
            value = store[args] = build(self, *args)
        return value
    return kept


@dataclass
class IrrepModel:
    """Rational seminormal model of the irreducible indexed by an r-partition."""

    shape: MultiPartition
    tableaux: list[StandardTableau]
    index: dict[StandardTableau, int]
    s_mats: list[Matrix]            # s_1 .. s_{n-1}
    zeta_residues: list[tuple[int, ...]]  # zeta_residues[i-1][t] = beta of box of i in T_t
    gram: list[Fraction]
    # one store per kind of kept table: _tables[name][args] is name(*args)
    _tables: dict = dataclass_field(default_factory=lambda: collections.defaultdict(dict),
                                    repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.tableaux)

    @functools.cached_property
    def n(self) -> int:
        return self.shape.size

    @functools.cached_property
    def denominator(self) -> int:
        """The tables' denominator: the lcm of every s_ij entry's denominator."""
        return math.lcm(*(self.perm_numerators(_swapped(tuple(range(1, self.n + 1)), i, j))[1]
                          for i, j in itertools.combinations(range(1, self.n + 1), 2)))

    @functools.cached_property
    def _raised(self) -> list[dict]:
        """{nu: nu + e_j} for each j (counted from 0), filled as raised_table
        reads it, so that every table keyed at one exponent shares its tuple:
        verify_report at (1, 6) peaks at 148 MB RSS with it, 199 MB without."""
        return [{} for _ in range(self.n)]

    @functools.cached_property
    def gram_numerators(self) -> tuple[tuple[int, ...], int]:
        """The gram weights as integer numerators over one denominator."""
        den = math.lcm(*(g.denominator for g in self.gram))
        return tuple(g.numerator * (den // g.denominator) for g in self.gram), den

    @_per_irrep
    def perm_numerators(self, w: tuple[int, ...]) -> tuple[tuple[dict[int, int], ...], int]:
        """The product of the s_i along reduced_word(w), as integer columns
        over one denominator."""
        mat = tuple({b: Fraction(1)} for b in range(self.dim))
        for i in reduced_word(w):
            mat = _mat_mul(mat, self.s_mats[i - 1])
        den = math.lcm(*(q.denominator for col in mat for q in col.values()))
        return tuple({a: q.numerator * (den // q.denominator) for a, q in col.items()}
                     for col in mat), den

    @_per_irrep
    def twist(self, nu: tuple[int, ...]) -> tuple:
        """(w_nu, w_nu^{-1}) as perm_numerators, w_nu the sorting permutation of nu."""
        w = sorting_permutation(nu)
        return self.perm_numerators(w), self.perm_numerators(perm_inverse(w))

    @_per_irrep
    def column_residues(self, nu: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The residue tuple at nu of each column s of w_nu^{-1} (one block each)."""
        return [tuple((zs[min(col)] - e) % self.shape.r for zs, e in zip(self.zeta_residues, nu))
                for col in self.twist(nu)[1][0]]

    @_per_irrep
    def averages(self, i: int, k: int, shift: int, c: int) -> tuple:
        """c c0 (shift-average of s_ik) as ready table vectors, by the class
        m = nu_i - nu_k mod r of the exponent and the tableau t: [m][t] lists
        the pairs (a, vec) of its image sum_a vec x^(s_ik nu) v_a.

        The average is sum_{l<r} zeta^{-l*shift} zeta_i^l s_ik zeta_i^{-l}.
        Its l-th term has coefficient zeta^{l*e} s_ik[a, t] at (s_ik nu, a),
        with e = m + beta_i(a) - beta_i(t) - shift; as sum_{l<r} zeta^{l*e}
        is r when r | e and 0 otherwise, the sum keeps r s_ik[a, t] where
        beta_i(a) = beta_i(t) + shift - m (mod r) and nothing else: the
        entries of the kept column of s_ik (perm_numerators) with that
        residue, times r and the denominator in the c0 slot."""
        r, res, zeros = self.shape.r, self.zeta_residues[i - 1], (0,) * self.shape.r
        cols, den = self.perm_numerators(_swapped(tuple(range(1, self.n + 1)), i, k))
        scale = c * r * self.denominator // den
        return tuple(tuple(tuple((a, (0, q * scale) + zeros) for a, q in col.items()
                                 if (res[a] - res[t] - shift + m) % r == 0)
                           for t, col in enumerate(cols))
                     for m in range(r))

    def _add_averages(self, tables: list, c: int, i: int, ks, nu: tuple[int, ...], ts) -> list:
        """tables, with c c0 sum_{k of ks, k != i} (average of s_ik) on x^nu
        v_t added in place to the table of each t of ts."""
        r = self.shape.r
        groups = [(_swapped(nu, i, k), self.averages(i, k, 0, c)[(nu[i - 1] - nu[k - 1]) % r])
                  for k in ks if k != i]
        for table, t in zip(tables, ts):
            _add_coeffs(table, [((nu2, a), vec) for nu2, rows in groups for a, vec in rows[t]])
        return tables

    def bracket_table(self, i: int, j: int, nu: tuple[int, ...], ts) -> list[Table]:
        """[y_i, x_j] on x^nu v_t, for each t of ts: c0 (shift-1 average of
        s_ij) if i != j, else 1 - c0 sum_{k != i} (average of s_ik) - d_res +
        d_{res-1}, res the residue of the basis term."""
        if i != j:
            rows = self.averages(i, j, 1, 1)[(nu[i - 1] - nu[j - 1]) % self.shape.r]
            nu2 = _swapped(nu, i, j)
            return [{(nu2, a): vec for a, vec in rows[t]} for t in ts]
        r, ni, den, res = self.shape.r, nu[i - 1], self.denominator, self.zeta_residues[i - 1]
        tables = []
        for t in ts:
            own, e = [den] + [0] * (r + 1), (res[t] - ni) % r
            own[2 + e] -= den
            own[2 + (e - 1) % r] += den
            tables.append({(nu, t): tuple(own)})
        return self._add_averages(tables, -1, i, range(1, self.n + 1), nu, ts)

    def raised_table(self, i: int, j: int, nu: tuple[int, ...], ts, lows: list) -> list[Table]:
        """y_i x_j on x^nu v_t, for each t of ts and every point, from lows,
        the tables of y_i on those x^nu v_t, by the defining relation: x_j y_i
        (x^nu v_t) + [y_i, x_j] (x^nu v_t).  Moving every exponent up at j is
        injective on keys, so only the bracket is added term by term."""
        tables, up = [], self._raised[j - 1]
        for low, bracket in zip(lows, self.bracket_table(i, j, nu, ts)):
            table = {(up.get(kappa) or up.setdefault(kappa, _bump(kappa, j - 1)), s): vec
                     for (kappa, s), vec in low.items()}
            _add_coeffs(table, bracket.items())
            tables.append(table)
        return tables

    def _block(self, kind: str, i: int, nu: tuple[int, ...], ts) -> list[Table]:
        """The tables of y_i or z_i (kind "y_table" or "z_table") on x^nu v_t
        for the t of ts, increasing; all of them is the stored list itself,
        None where no table is built yet.  A missing one is built with its
        whole block up to y-degree BLOCK_DEGREE (nu's for y, one more for z),
        alone above it: y kills degree 0, y_i x_j (nu - e_j) is raised_table
        for the first j with nu_j > 0, and z_i = y_i x_i + c0 phi_i."""
        store = self._tables[kind]
        block = store.get((i, nu))
        if block is None:
            block = store[i, nu] = [None] * self.dim
        missing = [t for t in ts if block[t] is None]
        if missing:
            if sum(nu) + (kind == "z_table") <= BLOCK_DEGREE:   # z_i reads y_i one degree up
                missing = range(self.dim)
            if kind == "z_table":
                built = self._block("y_table", i, _bump(nu, i - 1), missing)
                if i > 1:   # z_1 = y_1 x_1: the same tables
                    built = self._add_averages([dict(y) for y in built], 1, i, range(1, i), nu,
                                               missing)
            elif not any(nu):   # y kills degree 0
                built = [{} for _ in missing]
            else:
                # walk down the first-nonzero chain to an exponent at or below
                # BLOCK_DEGREE, built whole, or whose asked tableaux are built;
                # then raise them up it once per level, keeping the tables each
                # level on the way has built
                levels = []
                for j, below in _descent(nu):
                    if sum(below) <= BLOCK_DEGREE:
                        break
                    low = store.get((i, below))
                    if low is not None and all(low[t] is not None for t in missing):
                        break
                    levels.append((j, below))
                low = self._block(kind, i, below, missing)
                built = self.raised_table(i, j + 1, below, missing, low)
                for j, below in reversed(levels):
                    level = store.setdefault((i, below), [None] * self.dim)
                    for t, table in zip(missing, built):
                        level[t] = level[t] or table
                    built = self.raised_table(i, j + 1, below, missing, built)
            for t, table in zip(missing, built):
                block[t] = table
        return block if len(ts) == len(block) else [block[t] for t in ts]

    def table(self, kind: str, i: int, key: tuple) -> Table:
        """y_i or z_i (kind "y_table" or "z_table") on the basis term key =
        (nu, t), for every point: one read of its block, built on a miss."""
        block = self._tables[kind].get((i, key[0]))
        table = None if block is None else block[key[1]]
        return self._block(kind, i, key[0], key[1:])[0] if table is None else table

    @_per_irrep
    def twisted_table(self, nu: tuple[int, ...], s: int) -> list[Table]:
        """The z_1..z_n-images of x^nu (tensor) w_nu^{-1} v_s, whose keys lie in
        one residue block, as tables over denominator * den of w_nu^{-1}."""
        column = self.twist(nu)[1][0][s]
        return [_combination([(c, self.table("z_table", i, (nu, a))) for a, c in column.items()])
                for i in range(1, self.n + 1)]

    @_per_irrep
    def eigen_plan(self, mu: tuple[int, ...], residues: tuple[int, ...]) -> list[tuple]:
        """The point-free part of eigenvector, once per irrep: the exponents
        that the z-images of the twisted columns with these residues reach
        from mu, in a topological order (mu first), as (nu, [(s, row s of w_nu
        as [((nu, a), entry)])] over the block's columns s, den of w_nu)."""
        block: dict[tuple, tuple] = {}         # reachable exponent -> (its columns, den)
        above: dict[tuple, set] = {mu: set()}  # exponent -> exponents reaching it
        pending = [mu]
        while pending:
            nu = pending.pop()
            (twist, den), (untwist, _) = self.twist(nu)
            columns = [s for s, res in enumerate(self.column_residues(nu)) if res == residues]
            block[nu] = [(s, [((nu, a), twist[a][s]) for a in untwist[s]]) for s in columns], den
            for kappa in {key[0] for s in columns for image in self.twisted_table(nu, s)
                          for key in image} - {nu}:
                if kappa not in above:
                    pending.append(kappa)
                above.setdefault(kappa, set()).add(nu)
        try:
            return [(nu, *block[nu]) for nu in graphlib.TopologicalSorter(above).static_order()]
        except graphlib.CycleError as exc:
            raise AssertionError(f"z-action is not triangular: cycle {exc.args[1]}") from None


def _combination(pairs: list) -> Table:
    """The sum of c * table over the (c, table) pairs, for integers c."""
    out: Table = {}
    for c, table in pairs:
        _add_coeffs(out, [(key, tuple(c * x for x in vec)) for key, vec in table.items()])
    return out


def _commutator_vanishes(irrep: IrrepModel, kind: str, i: int, j: int, key: tuple) -> bool:
    """Whether the commutator of the i-th and j-th operators of a kind (y or
    z), read through irrep.table, kills the basis term key at every point.  A
    composite is quadratic in (1, c0, d_0, ..): its entries are outer
    products of numerators, M with p^T M p at the point p, so only
    M_pq + M_qp (p < q) and M_pp count, summed here per basis term into a
    flat w x w list (w the vectors' width) at p * w + q, p <= q."""
    out: dict = {}
    read = irrep.table
    for a, b, sign in ((i, j, 1), (j, i, -1)):
        for mid, u in read(kind, b, key).items():
            w = len(u)
            u = [(p, sign * x) for p, x in enumerate(u) if x]
            for end, v in read(kind, a, mid).items():
                acc = out.get(end)
                if acc is None:
                    acc = out[end] = [0] * (w * w)
                for q, y in enumerate(v):
                    if y:
                        for p, x in u:
                            acc[p * w + q if p <= q else q * w + p] += x * y
    return not any(map(any, out.values()))


def _swap_rule(T: StandardTableau, i: int) -> tuple[Fraction, Fraction]:
    """(rho, theta) with s_i v_T = rho v_T + theta v_{s_i T}: rho = 1/(ct(i+1) -
    ct(i)) in one component, else 0; theta = 0 when i, i+1 share a row or a
    column (rho = +-1), else 1 if i's (component, row) comes first, else 1 - rho^2."""
    b, b2 = T.box_of(i), T.box_of(i + 1)
    rho = Fraction(1, b2.content - b.content) if b.component == b2.component else Fraction(0)
    if rho * rho == 1:
        return rho, Fraction(0)
    return rho, Fraction(1) if (b.component, b.row) < (b2.component, b2.row) else 1 - rho * rho


def build_irrep(shape: MultiPartition) -> IrrepModel:
    """Construct the seminormal model and validate every group relation,
    gram compatibility, and the Jucys-Murphy diagonal."""
    r, n = shape.r, shape.size
    tableaux = enumerate_syt(shape)
    if not tableaux:
        raise ValueError("shape has no standard tableaux")
    index = {t: k for k, t in enumerate(tableaux)}
    dim = len(tableaux)

    # s_i matrices, column by column: at most two entries each
    s_mats = []
    for i in range(1, n):
        cols = []
        for t, T in enumerate(tableaux):
            rho, theta = _swap_rule(T, i)
            col = {t: rho}
            if theta:
                col[index[T.swap_adjacent(i)]] = theta
            cols.append({a: q for a, q in sorted(col.items()) if q})
        s_mats.append(tuple(cols))

    # gram weights by propagation from the first tableau over the s_i columns:
    # gram[t2] = gram[t] (1 - s_i[t, t]^2) / s_i[t2, t]^2
    gram: list[Optional[Fraction]] = [None] * dim
    gram[0] = Fraction(1)
    pending = [0]
    while pending:
        t = pending.pop()
        for s_i in s_mats:
            rho = s_i[t].get(t, 0)
            for t2, theta in s_i[t].items():
                if gram[t2] is None:   # validate_irrep checks every other edge
                    gram[t2] = gram[t] * (1 - rho * rho) / (theta * theta)
                    pending.append(t2)
    if None in gram:
        raise AssertionError("tableau graph not connected under adjacent swaps")

    zeta_residues = [tuple(T.box_of(i).component for T in tableaux) for i in range(1, n + 1)]

    model = IrrepModel(shape, tableaux, index, s_mats, zeta_residues, gram)
    errors = validate_irrep(model)
    if errors:
        raise AssertionError("irrep validation failed: " + "; ".join(errors))
    return model


def validate_irrep(model: IrrepModel) -> list[str]:
    """That the s_i and gram weights are rational, and then all G(r,1,n)
    relations, gram self-adjointness/unitarity, and the Jucys-Murphy diagonal
    on the kept s_ij columns.  Returns a list of failures (empty = valid).

    zeta_i is diagonal with entries zeta^beta, beta its integer residues, so
    zeta_i^r = 1, and the other relations with a zeta are read on the
    residues mod r.  Column c of s_i zeta_i s_i - zeta_{i+1} is sum_e u_e
    zeta^e with u_e column c of s_i P_e s_i - P'_e (P_e, P'_e: the tableaux
    of residue e at i, at i + 1), rational; it vanishes exactly when it does
    under every zeta -> zeta^l with l a unit mod r, so, by Fourier inversion
    on Z/r, exactly when sum_e u_e c(e - k) = 0 for every k, c the Ramanujan
    sums.  s_i and zeta_j commute when each nonzero s_i entry's row and
    column have equal residues at j, and phi_i's sum over l is sum_l
    zeta^(l*k) = r [k = 0 mod r]."""
    if not all(type(q) is Fraction for q in itertools.chain(
            model.gram, *(col.values() for mat in model.s_mats for col in mat))):
        return ["s_i entries and gram weights rational"]
    errors, n, r = [], model.n, model.shape.r

    def close(name, got, expect):
        if got != expect:
            errors.append(name)

    for i in range(1, n - 1):
        a, b = model.s_mats[i - 1], model.s_mats[i]
        close(f"braid s_{i} s_{i+1} s_{i}",
              _mat_mul(a, _mat_mul(b, a)), _mat_mul(b, _mat_mul(a, b)))
    for i in range(1, n):
        for j in range(i + 2, n):
            a, b = model.s_mats[i - 1], model.s_mats[j - 1]
            close(f"s_{i} s_{j} commute", _mat_mul(a, b), _mat_mul(b, a))
    # s_i^2 and the zeta relations, column by column, on the residues mod r
    units = _ramanujan_sums(r)
    for i in range(1, n):
        s_i, res, res2 = model.s_mats[i - 1], model.zeta_residues[i - 1], model.zeta_residues[i]
        for c, col in enumerate(s_i):
            split: dict = {}   # column c of s_i P_e s_i - P'_e, by (row, e)
            for b, q in col.items():
                for a, p in s_i[b].items():
                    split[a, res[b] % r] = split.get((a, res[b] % r), 0) + p * q
            square: dict = {}
            for (a, _), x in split.items():
                square[a] = square.get(a, 0) + x
            close(f"s_{i}^2 = 1", {a: x for a, x in square.items() if x}, {c: 1})
            split[c, res2[c] % r] = split.get((c, res2[c] % r), 0) - 1
            close(f"s_{i} zeta_{i} s_{i} = zeta_{i+1}", any(
                sum(split.get((a, e), 0) * units[(e - k) % r] for e in range(r))
                for a in {a for a, _ in split} for k in range(r)), False)
        entries = [(a, b) for b, col in enumerate(s_i) for a, q in col.items() if q]
        for j in set(range(1, n + 1)) - {i, i + 1}:
            res_j = model.zeta_residues[j - 1]
            close(f"s_{i} zeta_{j} commute", any((res_j[a] - res_j[b]) % r for a, b in entries),
                  False)
    # gram conditions: s_i self-adjoint, zeta_i unitary (diagonal root of unity);
    # each nonzero entry is compared with its transposed entry, zero or not
    for i in range(1, n):
        m = model.s_mats[i - 1]
        for b, col in enumerate(m):
            for a, c in col.items():
                if c * model.gram[a] != m[a].get(b, 0) * model.gram[b]:
                    errors.append(f"s_{i} gram self-adjointness")
    # Jucys-Murphy diagonal: phi_i = sum_{j<i} sum_l zeta_i^l s_ij zeta_i^-l, on the
    # kept s_ij columns (perm_numerators) that the averages of the y- and z-tables
    # read, over the denominator; zeta_i is diagonal, so the l-th term is s_ij
    # with entry (a, t) times zeta^(l (beta_a - beta_t)), and the sum over l keeps
    # r s_ij[a, t] where beta_a = beta_t mod r
    for i, res in enumerate(model.zeta_residues[1:], 2):
        kept = [model.perm_numerators(_swapped(tuple(range(1, n + 1)), i, j)) for j in range(1, i)]
        for t, T in enumerate(model.tableaux):
            phi_t: dict = {}   # column t of phi_i
            for cols, den in kept:
                for a, q in cols[t].items():
                    if (res[a] - res[t]) % r == 0:
                        phi_t[a] = phi_t.get(a, 0) + r * q * (model.denominator // den)
            expect = r * model.denominator * T.box_of(i).content
            if {a: c for a, c in phi_t.items() if c} != ({t: expect} if expect else {}):
                errors.append(f"jucys-murphy phi_{i} not diagonal with r*ct")
    return sorted(set(errors))


@functools.cache
def _ramanujan_sums(r: int) -> tuple[int, ...]:
    """c(m) = sum of zeta^(l*m) over the units l mod r, for m < r: the integer
    sum of d mu(r/d) over the divisors d of gcd(m, r), mu the Moebius function."""
    def mu(k: int) -> int:
        sign, p = 1, 2
        while p * p <= k:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if k > 1 else sign

    terms = [(d, d * mu(r // d)) for d in range(1, r + 1) if r % d == 0]
    return tuple(sum(x for d, x in terms if math.gcd(m, r) % d == 0) for m in range(r))
