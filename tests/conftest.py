import random
import warnings
from fractions import Fraction

import pytest

from cherednik_kit.combinatorics import BoxRef, MultiPartition, ShapeAssignment
from cherednik_kit.irrep import _apply
from cherednik_kit.scalars import ParameterPoint

# hypothesis imports this module when it reports a failing property; under
# `-W error` the DeprecationWarning that the import raises (mypy_extensions'
# TypedDict) would end the run in an INTERNALERROR that names no failed test.
# Imported once here with that warning ignored, it is cached for the report.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def small_point(r: int, rng: random.Random, span: int = 30) -> ParameterPoint:
    """Random rational point with small numerators (fast exact arithmetic);
    genericity failures are detected and retried by the callers that care."""
    return ParameterPoint(
        r,
        Fraction(rng.randint(1, span), rng.randint(1, span)),
        [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(r)],
    )


def tableau_vector(mod, T):
    """The basis vector v_T = x^0 v_T of the module."""
    return mod.basis_vector(mod.irrep.index[T])


def x_mul(mod, i: int, elt):
    """x_i elt: x_power of the unit exponent e_i."""
    return mod.x_power(tuple(int(k == i) for k in range(1, mod.n + 1)), elt)


def twisted_coordinates(mod, elt) -> dict:
    """Coordinates of elt in the basis x^nu (tensor) w_nu^{-1} v_S, as
    Fractions: w_nu applied to each exponent's slice of elt."""
    by_exp: dict = {}
    for (nu, t), c in elt.nums.items():
        by_exp.setdefault(nu, {})[t] = c
    out = {}
    for nu, nums in by_exp.items():
        twist, den = mod.irrep.twist(nu)[0]
        for t, c in _apply(twist, nums).items():
            out[nu, t] = Fraction(c, elt.den * den)
    return out


def compositions(n: int, max_total: int):
    """All length-n compositions with total <= max_total."""
    def rec(slots, remaining):
        if slots == 0:
            yield ()
            return
        for first in range(remaining + 1):
            for rest in rec(slots - 1, remaining - first):
                yield (first,) + rest

    out = []
    for total in range(max_total + 1):
        out.extend(c for c in rec(n, total) if sum(c) == total)
    return out


def enumerate_assignments(shape: MultiPartition, max_entry: int,
                          column_strict: bool = True, residues: bool = True):
    """All fillings of the shape with entries <= max_entry, filtered to
    weakly-increasing (constructor), optionally column-strict and
    residue-compatible.  Boxes are filled row by row, so each entry starts at
    the floor its left and upper neighbours set."""
    r = shape.r
    boxes = shape.boxes()
    index = {b: k for k, b in enumerate(boxes)}
    out = []

    def rec(k, acc):
        if k == len(boxes):
            vals = [[[0] * rl for rl in comp] for comp in shape.components]
            for b, v in zip(boxes, acc):
                vals[b.component][b.row - 1][b.column - 1] = v
            try:
                S = ShapeAssignment(shape, tuple(
                    tuple(tuple(row) for row in comp) for comp in vals))
            except ValueError:
                return
            if column_strict and not S.is_column_strict():
                return
            if residues and not S.satisfies_residues():
                return
            out.append(S)
            return
        b = boxes[k]
        start = b.component % r if residues else 0
        step = r if residues else 1
        floor = acc[k - 1] if b.column > 1 else 0
        if b.row > 1:
            above = acc[index[BoxRef(b.component, b.row - 1, b.column)]]
            floor = max(floor, above + 1 if column_strict else above)
        for v in range(start, max_entry + 1, step):
            if v >= floor:
                rec(k + 1, acc + (v,))

    rec(0, ())
    return out


@pytest.fixture
def rng():
    return random.Random(20110831)
