"""The library's recursive walks leave no reference cycles: once an entry
point has run once (so its lazily built module state exists), a second call
leaves nothing for the cyclic collector.  A self-calling nested function
holds itself through its closure cell, so every call to its enclosing
function would leave one such cycle behind."""
import gc
from fractions import Fraction

import pytest

from cherednik_kit.combinatorics import (
    enumerate_multipartitions,
    enumerate_syt,
    parse_multipartition,
    partitions_of,
)
from cherednik_kit.oracle import build_irrep, verify_report
from cherednik_kit.orders import OrderContext, linkage_matching
from cherednik_kit.scalars import ParameterPoint

SHAPE = parse_multipartition("2,1|1")
CONTEXT = OrderContext(ParameterPoint(2, Fraction(1, 2), (0, 1)))

CALLS = {
    "partitions_of": lambda: partitions_of(6),
    "enumerate_multipartitions": lambda: enumerate_multipartitions(3, 3),
    "enumerate_syt": lambda: enumerate_syt(SHAPE),
    "build_irrep": lambda: build_irrep(SHAPE),
    "linkage_matching": lambda: linkage_matching(
        parse_multipartition("2|1"), parse_multipartition("1|2"), CONTEXT),
    "verify_report": lambda: verify_report(2, 3, degree=3, seed=5),
}


@pytest.mark.parametrize("name", CALLS)
def test_call_leaves_no_cyclic_garbage(name):
    call = CALLS[name]
    call()
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
