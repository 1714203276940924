import operator
import random
import warnings
from fractions import Fraction

import pytest

from cherednik_kit.combinatorics import (BoxRef, MultiPartition, ShapeAssignment, perm_inverse,
                                         reduced_word, simple_transposition)
from cherednik_kit.irrep import _apply
from cherednik_kit.oracle import ModuleElement
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


def zero(mod):
    """The zero vector of the module."""
    return ModuleElement(mod, {})


def basis_vector(mod, t_idx: int, nu=None):
    """The basis vector x^nu v_t (x^0 v_t when nu is None)."""
    return ModuleElement(mod, {((0,) * mod.n if nu is None else tuple(nu), t_idx): 1})


def tableau_vector(mod, T):
    """The basis vector v_T = x^0 v_T of the module."""
    return basis_vector(mod, mod.irrep.index[T])


def x_power(mod, nu, elt):
    """x^nu elt: each exponent of elt raised by nu."""
    out = {(tuple(map(operator.add, kappa, nu)), t): c for (kappa, t), c in elt.nums.items()}
    return ModuleElement._reduced(mod, out, elt.den)


def x_mul(mod, i: int, elt):
    """x_i elt: x_power of the unit exponent e_i."""
    return x_power(mod, tuple(int(k == i) for k in range(1, mod.n + 1)), elt)


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


# -- permutations of {1..n} in one-line notation, as the tests read them --

def perm_identity(n: int):
    return tuple(range(1, n + 1))


def perm_longest(n: int):
    return tuple(range(n, 0, -1))


def perm_mul(v, w):
    """(v*w)(i) = v(w(i))."""
    return tuple(v[w[i] - 1] for i in range(len(w)))


def perm_length(w) -> int:
    """Coxeter length = inversion count."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def perm_act(w, mu):
    """The left action (w.mu)_i = mu_{w^{-1}(i)}."""
    inv = perm_inverse(w)
    return tuple(mu[inv[i] - 1] for i in range(len(mu)))


def bruhat_interval_elements(w) -> set:
    """Brute-force {u : u <= w}: closure of subwords of one reduced word."""
    word = reduced_word(w)
    n = len(w)
    elems = {perm_identity(n)}
    for i in word:
        s = simple_transposition(n, i)
        elems |= {perm_mul(u, s) for u in elems}
    return elems


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
