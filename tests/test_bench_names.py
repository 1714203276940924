"""The names the benchmark reads from the library, checked in the tier-1
suite: a rename that bench/ does not follow fails here, not only when the
benchmark runs.  The benchmark's modules are imported from bench/, which is
read and left unchanged (no bytecode is written there)."""
import importlib
import pathlib
import sys
import time
import types

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    """bench/run.py and its workloads, and the namespace of run.LAYERS built
    from the library modules already imported (run.load_library would
    import fresh copies and drop these from sys.modules)."""
    sys.path.insert(0, str(BENCH))
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        run = importlib.import_module("run")
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(str(BENCH))
    lib = types.SimpleNamespace(**{name: importlib.import_module(f"{run.PACKAGE}.{name}")
                                   for name in run.LAYERS})
    return run, lib


def test_the_tracer_wraps_and_restores_every_name(bench):
    run, lib = bench
    tracer = run.Tracer(lib)
    tracer.install()
    try:
        wrapped = list(tracer._undo)
        assert wrapped and all(vars(owner)[attr] is not original
                               for owner, attr, original in wrapped)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in wrapped)


def test_every_tiny_case_runs_traced(bench):
    run, lib = bench
    tracer = run.Tracer(lib)
    start = time.perf_counter()
    for name, workload in sorted(run.WORKLOADS.items()):
        cases = workload.setup(lib, 3, run.Stats(), tiny=True)
        tracer.install()
        try:
            failed = [case.label for case in cases if not case.run()]
        finally:
            tracer.uninstall()
        assert cases and not failed, (name, failed)
        assert tracer.take(), name
    assert time.perf_counter() - start < 3
