"""The benchmark's workloads.

Each workload turns a seed into a fixed list of cases during set-up.  A case
is one closed-loop call: the next case starts when the previous one returns.
`Case.run()` returns True when every result of the case equals its expected
value exactly, False on a mismatch, and raises on anything else.  The case
list is the same for every seed; the seed draws the parameter points, report
seeds and shapes that the cases use, so each seed gives the same mix of work
on different inputs.

Why each workload exists is written next to it and in README.md.
"""
from __future__ import annotations

import collections
import contextlib
import io
import itertools
import random
from fractions import Fraction

# A case redraws its point after an eigenvalue collision or a pole of a
# closed formula; after this many points it fails.
POINT_ATTEMPTS = 8
# How `verify_report` words a failed check that hit a non-generic point.
GENERIC_POINT_FAILURES = ("PoleError:", "EigenvalueCollision:")


class RedrawsExhausted(RuntimeError):
    """Every drawn point of a case hit a collision or a pole."""


class Stats:
    """What the benchmark itself observes while running cases."""

    def __init__(self):
        self.redraws = 0        # points thrown away by the benchmark's cases
        self.pole_redraws = 0   # of those, after a PoleError


# `run()` is True when every result of the case is right; see the module doc.
Case = collections.namedtuple("Case", "label run")


# ---------------------------------------------------------------------------
# input generation


def compositions(n: int, max_total: int) -> list[tuple[int, ...]]:
    """All length-n compositions with total <= max_total."""
    return sorted((mu for mu in itertools.product(range(max_total + 1), repeat=n)
                   if sum(mu) <= max_total), key=lambda mu: (sum(mu), mu))


def column_strict_fillings(lib, shape, max_entry: int) -> list:
    """Column-strict fillings with S(b) = beta(b) mod r and entries <= max_entry."""
    r = shape.r
    boxes = shape.boxes()
    out = []
    for values in itertools.product(*(range(b.component % r, max_entry + 1, r) for b in boxes)):
        grid = [[[0] * row for row in comp] for comp in shape.components]
        for b, v in zip(boxes, values):
            grid[b.component][b.row - 1][b.column - 1] = v
        try:
            S = lib.combinatorics.ShapeAssignment(
                shape, tuple(tuple(tuple(row) for row in comp) for comp in grid))
        except ValueError:      # not weakly increasing
            continue
        if S.is_column_strict() and S.satisfies_residues():
            out.append(S)
    return out


def small_point(lib, r: int, rng: random.Random, span: int = 30):
    """A rational point with small numerators and denominators."""
    return lib.scalars.ParameterPoint(
        r,
        Fraction(rng.randint(1, span), rng.randint(1, span)),
        [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(r)],
    )


def _count_k(top: int, residue: int, r: int) -> int:
    """#{1 <= k <= top : k = residue mod r}."""
    first = (residue - 1) % r + 1
    return 0 if top < first else (top - first) // r + 1


def product_factor_count(shape) -> int:
    """Number of affine factors `symmetric_norm(minimal_assignment(shape))`
    multiplies together before any cancellation (its cost grows with the
    square of this), counted from the loop bounds of the product formula."""
    r = shape.r
    boxes = [(l, i) for l, comp in enumerate(shape.components)
             for i, row in enumerate(comp, start=1) for _ in range(row)]
    values = [l + (i - 1) * r for l, i in boxes]
    total = sum(values)
    for (la, _), sa in zip(boxes, values):
        for (lb, _), sb in zip(boxes, values):
            total += 2 * (_count_k(sa - sb, la - lb, r) + _count_k(sa - sb - r, la - lb, r))
    return total


def random_partition(n: int, rng: random.Random) -> tuple[int, ...]:
    parts = []
    while n > 0:
        part = rng.randint(1, n)
        parts.append(part)
        n -= part
    return tuple(sorted(parts, reverse=True))


def shape_with_factor_count(lib, r: int, n: int, target: int, rng: random.Random):
    """A random r-partition of n whose product formula has `target` factors
    within 2%, so that every seed's shapes cost the same to evaluate."""
    while True:
        cuts = sorted(rng.randint(0, n) for _ in range(r - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        shape = lib.combinatorics.MultiPartition(
            r, tuple(random_partition(s, rng) for s in sizes))
        if abs(product_factor_count(shape) - target) <= 0.02 * target:
            return shape


# ---------------------------------------------------------------------------
# certify


class Certify:
    """Criterion-1/2-style certification of the closed norm formulas by the
    oracle, at a fresh point per case.

    Why: linear-algebra bound (`oracle._kernel` dominates criteria 1 and 2,
    and the r = 1, n = 3 fillings have the widest residue blocks); a new
    `StandardModule` per case keeps the module caches cold; mostly
    degree-1 fields (r <= 2).
    """

    name = "certify"
    min_rounds = 1
    # Every (mu, T) and every filling at `points` independent points.  The
    # slowest cases are a few wide (1, 3) blocks whose cost depends on the
    # point, so the tail needs more points, not more passes over the same
    # ones: at 4 points it falls among the 12 cases of the second-widest
    # blocks, not at the edge between two of them.
    FULL = dict(shapes=[(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)], degree=2, points=4)
    TINY = dict(shapes=[(1, 2), (2, 2)], degree=1, points=1)

    def setup(self, lib, seed: int, stats: Stats, tiny: bool = False) -> list[Case]:
        params = self.TINY if tiny else self.FULL
        rng = random.Random(seed)
        cases = []
        for r, n in params["shapes"]:
            mus = compositions(n, params["degree"])
            for shape in lib.combinatorics.enumerate_multipartitions(r, n):
                irrep = lib.oracle.build_irrep(shape)
                fillings = column_strict_fillings(lib, shape, params["degree"])
                for _ in range(params["points"]):
                    for T in irrep.tableaux:
                        for mu in mus:
                            points = [small_point(lib, r, rng) for _ in range(POINT_ATTEMPTS)]
                            cases.append(Case(f"norm-f {shape} {T} {mu}", self._nonsymmetric(
                                lib, stats, shape, irrep, mu, T, points)))
                    for S in fillings:
                        points = [small_point(lib, r, rng) for _ in range(POINT_ATTEMPTS)]
                        cases.append(Case(f"norm-g {shape} {S}", self._symmetric(
                            lib, stats, shape, irrep, S, points)))
        return cases

    @staticmethod
    def _at_generic_point(lib, stats, shape, irrep, points, check):
        oracle, scalars = lib.oracle, lib.scalars
        for point in points:
            module = oracle.StandardModule(shape, point, irrep=irrep)
            try:
                return check(module, point)
            except oracle.EigenvalueCollision:
                stats.redraws += 1
            except scalars.PoleError:
                stats.redraws += 1
                stats.pole_redraws += 1
        raise RedrawsExhausted(f"{len(points)} points hit a collision or a pole")

    def _nonsymmetric(self, lib, stats, shape, irrep, mu, T, points):
        norms = lib.norms

        def check(module, point):
            expect = module.gram_weight(T) * norms.nonsymmetric_norm(mu, T).evaluate(point)
            return module.norm(module.eigenvector(mu, T)) == expect

        return lambda: self._at_generic_point(lib, stats, shape, irrep, points, check)

    def _symmetric(self, lib, stats, shape, irrep, S, points):
        norms = lib.norms
        mu, T = lib.combinatorics.assignment_pair(S)

        def check(module, point):
            expect = (module.gram_weight(T)
                      * norms.symmetrization_block_factor(S).evaluate(point)
                      * norms.symmetric_norm(S).evaluate(point))
            g = module.symmetrize(module.eigenvector(mu, T))
            return module.norm(g) == expect

        return lambda: self._at_generic_point(lib, stats, shape, irrep, points, check)


# ---------------------------------------------------------------------------
# verify


class Verify:
    """The oracle's identity suite, `verify_report`, one shape per case.

    Why: operator bound with warm caches (one module per shape serves
    thousands of y/z/pairing calls), and it covers r = 3 and r = 4, where
    Q(zeta_r) has degree 2.  One shape per case, not one (r, n) per case,
    gives a run enough cases for a tail percentile, and a report seed (so a
    point) per shape keeps one unlucky point from setting a run's cost.
    """

    name = "verify"
    min_rounds = 1
    # (r, n, degree, report seeds per shape): a report's cost depends on its
    # point, so every shape runs at several points, and the costliest shapes,
    # which set the tail, at twice as many
    FULL = dict(shapes=[(1, 3, 2, 3), (2, 3, 3, 6), (3, 2, 3, 3), (4, 2, 2, 3), (2, 2, 2, 3)])
    TINY = dict(shapes=[(2, 2, 1, 1), (3, 1, 1, 2)])

    def setup(self, lib, seed: int, stats: Stats, tiny: bool = False) -> list[Case]:
        params = self.TINY if tiny else self.FULL
        rng = random.Random(seed)
        cases = []
        for r, n, degree, points in params["shapes"]:
            for shape in lib.combinatorics.enumerate_multipartitions(r, n):
                text = shape.as_text()
                for _ in range(points):
                    seeds = [rng.randrange(2 ** 31) for _ in range(POINT_ATTEMPTS)]
                    cases.append(Case(f"verify r={r} n={n} degree={degree} {text} "
                                      f"seed={seeds[0]}",
                                      self._report(lib, stats, r, n, degree, seeds, text)))
        return cases

    @staticmethod
    def _report(lib, stats, r, n, degree, seeds, text):
        """`verify_report` draws its point from its seed and redraws only
        after collisions inside `eigenvector_generic`; a check that fails on
        a pole of a closed formula (or on collisions at every retry) is a
        failure of the generic-point assumption, so the case redraws by
        taking the next seed, and counts it."""
        oracle = lib.oracle

        def run():
            for seed in seeds:
                report = oracle.verify_report(r, n, degree=degree, seed=seed, shape_text=text)
                failed = [c["details"] for c in report["checks"] if c["status"] != "pass"]
                if failed and all(d.startswith(GENERIC_POINT_FAILURES) for d in failed):
                    stats.redraws += 1
                    stats.pole_redraws += any(d.startswith("PoleError") for d in failed)
                    continue
                return (not failed and report["ok"] and report["shapes"] == [text]
                        and len(report["checks"]) == 9)
            raise RedrawsExhausted(f"{len(seeds)} report seeds hit a collision or a pole")

        return run


# ---------------------------------------------------------------------------
# formulas


class Formulas:
    """Closed formulas only: no oracle and no `CycNumber`.

    Why: `FactoredScalar` products and `normalize` grow quadratically with the
    number of factors, and that cost lives here alone.  Large shapes are
    drawn with a fixed unreduced factor count, so each seed does the same
    amount of scalar work.
    """

    name = "formulas"
    min_rounds = 3
    # (n, unreduced factor count of the product formula, shapes per r) for
    # r = 1, 2, 3; the n = 48 shapes set the tail, so there are enough of them
    FULL = dict(large=[(17, 400, 1), (27, 1000, 1), (48, 1800, 3)], sweep_n=6,
                pochhammer_n=5, aspherical=(4, 6), core_n=12, order_n=(2, 3, 4))
    TINY = dict(large=[(7, 48, 1)], sweep_n=3, pochhammer_n=3,
                aspherical=(2, 3), core_n=4, order_n=(2,))

    def setup(self, lib, seed: int, stats: Stats, tiny: bool = False) -> list[Case]:
        p = self.TINY if tiny else self.FULL
        comb = lib.combinatorics
        rng = random.Random(seed)
        cases = []
        for n, target, per_r in p["large"]:
            for r in (1, 2, 3):
                for _ in range(per_r):
                    shape = shape_with_factor_count(lib, r, n, target, rng)
                    cases.append(Case(f"large {shape}", self._large(lib, shape)))
        for r in (1, 2, 3):
            for n in range(p["sweep_n"]):
                for shape in comb.enumerate_multipartitions(r, n):
                    cases.append(Case(f"minimal {shape}", self._minimal(lib, shape)))
        for r in (1, 2, 3):
            for n in range(p["pochhammer_n"]):
                for shape in comb.enumerate_multipartitions(r, n):
                    cases.append(Case(f"pochhammer {shape}", self._pochhammer(lib, shape)))
        max_r, max_n = p["aspherical"]
        for r in range(1, max_r + 1):
            for n in range(1, max_n + 1):
                cases.append(Case(f"aspherical r={r} n={n}", self._aspherical(lib, r, n)))
        for r in (1, 2, 3, 4):
            for n in range(p["core_n"] + 1):
                for lam in comb.partitions_of(n):
                    cases.append(Case(f"core-quotient r={r} {lam}",
                                      self._core_quotient(lib, lam, r)))
        for r in (1, 2):
            for n in p["order_n"]:
                shapes = comb.enumerate_multipartitions(r, n)
                for _ in range(2):
                    ctx = self._lattice_context(lib, r, rng)
                    for a in shapes:
                        for b in shapes:
                            cases.append(Case(f"order {a} {b}", self._order(lib, a, b, ctx)))
        return cases

    @staticmethod
    def _cli(lib, argv) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli exit {code}: {argv}")
        return buf.getvalue()

    def _large(self, lib, shape):
        norms = lib.norms
        r, text = str(shape.r), shape.as_text()

        def run():
            product = norms.symmetric_norm(norms.minimal_assignment(shape))
            if product != norms.minimal_norm(shape):
                return False
            rendered = str(product)
            hook = (f"hook: {norms.hook_product(shape).normalize()}\n"
                    f"extra: {norms.extra_product(shape).normalize()}\n"
                    f"minimal_norm: {rendered}\n")
            return (self._cli(lib, ["norm-min", "--r", r, "--shape", text]) == rendered + "\n"
                    and self._cli(lib, ["hook", "--r", r, "--shape", text]) == hook)

        return run

    @staticmethod
    def _minimal(lib, shape):
        """The n! H E identity and the single-box recurrence (criterion 3)."""
        norms = lib.norms

        def run():
            S = norms.minimal_assignment(shape)
            product = norms.symmetric_norm(S).normalize()
            whole = norms.minimal_norm(shape)
            if product != whole or product.den:
                return False
            if shape.size == 0:
                return True
            top = max(S.value(b) for b in shape.boxes())
            for b in shape.boxes():
                comp = shape.components[b.component]
                removable = (b.column == comp[b.row - 1]
                             and not (b.row < len(comp) and comp[b.row] >= b.column))
                if S.value(b) != top or not removable:
                    continue
                rows = list(comp)
                rows[b.row - 1] -= 1
                comps = list(shape.components)
                comps[b.component] = tuple(x for x in rows if x > 0)
                chi = type(shape)(shape.r, tuple(comps))
                if whole != (norms.minimal_norm(chi) * shape.size
                             * norms.removal_correction(shape, b)):
                    return False
            return True

        return run

    @staticmethod
    def _pochhammer(lib, shape):
        """Pochhammer forms proportional to the hook and extra products
        (criterion 4)."""
        norms, proportional = lib.norms, lib.scalars.proportional

        def run():
            h_alt, e_alt = norms.pochhammer_products(shape)
            a1 = proportional(norms.hook_product(shape), h_alt)
            a2 = proportional(norms.extra_product(shape), e_alt)
            return a1 is not None and a1 != 0 and a2 is not None and a2 != 0

        return run

    @staticmethod
    def _aspherical(lib, r, n):
        asph = lib.aspherical

        def run():
            return ([h.form.key() for h in asph.hyperplanes_rectangle(r, n)]
                    == [h.form.key() for h in asph.hyperplanes_sqrt(r, n)])

        return run

    @staticmethod
    def _core_quotient(lib, lam, r):
        orders = lib.orders

        def run():
            charges, quotient = orders.disassemble(lam, r)
            return orders.assemble(charges, quotient) == lam

        return run

    @staticmethod
    def _lattice_context(lib, r, rng):
        """A point whose charges d_l/(r c0) are integers summing to zero."""
        c0 = Fraction(rng.randint(1, 2))
        a = [rng.randint(-2, 2) for _ in range(r - 1)]
        a.append(-sum(a))
        d = [0] * r
        for i in range(1, r + 1):
            d[(r - i) % r] = r * c0 * a[i - 1]
        return lib.orders.OrderContext(lib.scalars.ParameterPoint(r, c0, d))

    @staticmethod
    def _order(lib, a, b, ctx):
        """Linkage implies the order and the equivalence; both imply the
        quotient order (criterion 6)."""
        orders = lib.orders

        def run():
            geq, equiv = orders.geq_c(a, b, ctx), orders.equiv_c(a, b, ctx)
            if orders.linkage_matching(a, b, ctx) is not None and not (geq and equiv):
                return False
            return not (geq and equiv) or orders.geq_c_quotient(a, b, ctx)

        return run


WORKLOADS = {w.name: w for w in (Certify(), Verify(), Formulas())}
