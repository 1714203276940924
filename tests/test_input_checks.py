"""Each input check of the library, read through a public call: the
exception class and its message, or the value that stands for no answer."""
from fractions import Fraction

import pytest

from cherednik_kit.aspherical import (LinearCharacter, hyperplanes_sqrt, is_aspherical,
                                      max_rectangle_rows)
from cherednik_kit.combinatorics import (
    MultiPartition,
    bruhat_leq,
    composition_compare,
    dominance_via_contents,
    enumerate_syt,
    parse_multipartition,
    partitions_of,
    sorting_data,
)
from cherednik_kit.norms import nonsymmetric_norm
from cherednik_kit.oracle import StandardModule
from cherednik_kit.orders import OrderContext, geq_c, linkage_matching, quotient_compare
from cherednik_kit.scalars import AffineForm, FactoredScalar, ParameterPoint


def _point(r, d=None):
    return ParameterPoint(r, Fraction(1), d if d is not None else [0] * r)


def _shape(text):
    return parse_multipartition(text, 2)


CASES = [
    # aspherical
    ("linear-character-sign", lambda: LinearCharacter(2, 0),
     (ValueError, "sign_exponent must be 0 or 1")),
    ("linear-character-rotation", lambda: LinearCharacter(0, -1), (ValueError, "rotation must be >= 0")),
    ("max-rectangle-rows-none", lambda: max_rectangle_rows(1, 1), None),
    ("hyperplanes-sqrt-range", lambda: hyperplanes_sqrt(1, 0), (ValueError, "need r >= 1, n >= 1")),
    ("is-aspherical-r", lambda: is_aspherical(_point(1), 2, 2), (ValueError, "point has wrong r")),
    # combinatorics
    ("partitions-of-negative", lambda: partitions_of(-1), (ValueError, "n must be >= 0")),
    ("multipartition-r", lambda: MultiPartition(0, ()), (ValueError, "r must be >= 1")),
    ("multipartition-components", lambda: MultiPartition(2, ((1,),)),
     (ValueError, "expected 2 components, got 1")),
    ("bruhat-length", lambda: bruhat_leq((1, 2), (1,)), (ValueError, "length mismatch")),
    ("sorting-data-negative", lambda: sorting_data((1, -1)),
     (ValueError, "composition entries must be >= 0")),
    ("dominance-size", lambda: dominance_via_contents((2,), (1,)),
     (ValueError, "dominance compares partitions of equal size")),
    ("composition-size", lambda: composition_compare((1, 0), (1, 1)),
     (ValueError, "compositions must have equal size")),
    ("box-of-absent", lambda: enumerate_syt(_shape("2|"))[0].box_of(3),
     (ValueError, "value 3 not present")),
    # norms
    ("norm-length", lambda: nonsymmetric_norm((1,), enumerate_syt(_shape("2|"))[0]),
     (ValueError, "composition length must equal shape size")),
    # oracle
    ("module-r", lambda: StandardModule(_shape("1|"), _point(1)),
     (ValueError, "point and shape disagree on r")),
    # orders
    ("geq-c-size", lambda: geq_c(_shape("1|"), _shape("2|"), OrderContext(_point(2))),
     (ValueError, "shapes must have equal size")),
    ("linkage-size", lambda: linkage_matching(_shape("1|"), _shape("2|"), OrderContext(_point(2))),
     (ValueError, "shapes must have equal size")),
    ("quotient-size", lambda: quotient_compare(_shape("1|"), _shape("2|"), OrderContext(_point(2))),
     (ValueError, "shapes must have equal size")),
    ("quotient-root-lattice",
     lambda: quotient_compare(_shape("1|"), _shape("|1"), OrderContext(_point(2, d=[2, 0]))),
     (ValueError, "charges must lie in the root lattice (sum zero); normalize d to sum to zero")),
    # scalars
    ("point-d-length", lambda: ParameterPoint(2, 1, [0]), (ValueError, "expected 2 d-values, got 1")),
    ("form-r", lambda: AffineForm(0), (ValueError, "r must be >= 1")),
    ("form-d-length", lambda: AffineForm(2, d=[1]),
     (ValueError, "d coefficient sequence must have length r")),
    ("form-add-r", lambda: AffineForm(1, 1) + AffineForm(2, 1), (ValueError, "mixed r")),
    ("form-evaluate-r", lambda: AffineForm(2, 1).evaluate(_point(1)), (ValueError, "point has wrong r")),
    ("scalar-factor-r", lambda: FactoredScalar(1, num=[AffineForm(2, 0, 1)]),
     (ValueError, "factor has wrong r")),
    ("scalar-mixed-r", lambda: FactoredScalar(1) * FactoredScalar(2), (ValueError, "mixed r")),
    ("scalar-reciprocal-zero", lambda: FactoredScalar(1, 0).reciprocal(),
     (ZeroDivisionError, "reciprocal of zero scalar")),
    ("scalar-evaluate-r", lambda: FactoredScalar(2).evaluate(_point(1)), (ValueError, "point has wrong r")),
    ("scalar-equals-non-scalar", lambda: FactoredScalar(1, 2) == 2, False),
]


@pytest.mark.parametrize("call, expected", [pytest.param(call, expected, id=name)
                                            for name, call, expected in CASES])
def test_input_check(call, expected):
    try:
        outcome = call()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        outcome = type(exc), str(exc)
    assert outcome == expected and type(outcome) is type(expected)
