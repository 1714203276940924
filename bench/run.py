"""Benchmark of cherednik-kit: exact certification by the oracle and the
closed formulas on their own.

    python3 bench/run.py --workload certify|verify|formulas --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/` there.
Set-up (import, input generation from the seed, point draws) is repeated
and its median reported.  Passes over the workload's cases repeat until
`--seconds` have been measured and at least `min_rounds` passes are done.
Every case is checked by exact equality; any failure makes the exit code 1,
and the metrics still print.  Times are scaled to a nominal machine speed
measured between cases (see `SpeedProbe`).

With `--trace 0` the last line carries the end-to-end metrics.  With
`--trace 1` passes alternate between untraced and traced, and the last line
carries per-layer metrics of the traced passes: counts from one pass (they
must repeat exactly) and the median self time over passes.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = "cherednik_kit"
LAYERS = ("combinatorics", "cyclotomic", "scalars", "norms", "aspherical", "orders",
          "oracle", "cli")
SETUP_REPEATS = 3
REFERENCE_NOMINAL_S = 0.0005
REFERENCE_EVERY_S = 0.05

if HERE not in sys.path:
    sys.path.insert(0, HERE)

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Stats  # noqa: E402

END_TO_END = {
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "oracle.kernel.calls": "count",
    "oracle.kernel.self_s": "s",
    "oracle.kernel.cells": "count",
    "oracle.kernel.width_max": "count",
    "oracle.eigenvector.calls": "count",
    "oracle.eigenvector.self_s": "s",
    "norms.spectrum.calls": "count",
    "norms.spectrum.self_s": "s",
    "oracle.redraws": "count",
    "oracle.redraw_frac": "ratio",
    "oracle.y_act.calls": "count",
    "oracle.y_act.self_s": "s",
    "oracle.z_act.calls": "count",
    "oracle.z_act.self_s": "s",
    "oracle.pairing.calls": "count",
    "oracle.pairing.self_s": "s",
    "oracle.apply_perm.calls": "count",
    "oracle.apply_perm.self_s": "s",
    "oracle.symmetrize.self_s": "s",
    "oracle.build_irrep.self_s": "s",
    "oracle.verify_report.self_s": "s",
    "cyclotomic.mul.calls": "count",
    "cyclotomic.add.calls": "count",
    "cyclotomic.inverse.calls": "count",
    "cyclotomic.conjugate.calls": "count",
    "scalars.factored_mul.calls": "count",
    "scalars.normalize.calls": "count",
    "scalars.normalize.self_s": "s",
    "scalars.normalize.factors_in": "count",
    "scalars.evaluate.calls": "count",
    "scalars.evaluate.self_s": "s",
    "norms.symmetric_norm.self_s": "s",
    "norms.nonsymmetric_norm.self_s": "s",
    "norms.minimal_norm.self_s": "s",
    "aspherical.self_s": "s",
    "orders.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def load_library():
    """Import a fresh copy of the package from the checkout's src/."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module(PACKAGE)
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"{PACKAGE} imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS})


def tail_percentile(min_cases: int) -> float:
    """The highest percentile, to 0.1, with at least 10 of `min_cases` beyond it.

    It depends only on the number of cases in the shortest run a workload
    makes, not on how many passes fit in a run, so a faster program keeps
    reporting the same percentile."""
    return math.floor(1000 * (1 - 10 / min_cases)) / 10


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def reference_kernel() -> Fraction:
    """A fixed piece of exact rational arithmetic, like the library's own."""
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
    return total


class SpeedProbe:
    """Times `reference_kernel` between cases, at most every
    `REFERENCE_EVERY_S`, so that each case's time can be scaled to a machine
    on which the kernel takes `REFERENCE_NOMINAL_S`.

    The machine this benchmark was written on changes speed by up to 2x
    within seconds (other tenants share its cores), so unscaled times of two
    runs a minute apart differ by 15% or more."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(times))
        self._last = time.perf_counter()

    def mark(self) -> int:
        """Sample if one is due; return the index of the next sample."""
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.sample()
        return len(self.samples)

    def scale(self, mark: int) -> float:
        """Nominal over measured kernel time, from the samples on either side
        of a span that started at `mark`."""
        return REFERENCE_NOMINAL_S / statistics.fmean(self.samples[max(mark - 1, 0):mark + 1])


def run_pass(cases, probe, failures) -> tuple[float, list[float]]:
    """Run every case once and append its failures.  Returns the pass's
    unscaled time and the scaled latency of each case."""
    start = time.perf_counter()
    timed = []
    for case in cases:
        mark = probe.mark()
        t0 = time.perf_counter()
        try:
            ok = case.run()
        except Exception as exc:  # noqa: BLE001 - a failing case is counted, not fatal
            ok = False
            detail = f"{case.label}: {type(exc).__name__}: {exc}"
        else:
            detail = f"{case.label}: mismatch"
        timed.append((time.perf_counter() - t0, mark))
        if not ok:
            failures.append(detail)
    elapsed = time.perf_counter() - start
    probe.sample()
    return elapsed, [seconds * probe.scale(mark) for seconds, mark in timed]


def source_digest() -> str:
    digest = hashlib.sha256()
    pkg_dir = os.path.join(SRC, PACKAGE)
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Run one workload and return its metrics, counts and metadata."""
    workload = WORKLOADS[workload_name]
    probe = SpeedProbe()
    setup_times, raw_setup_times = [], []
    for _ in range(SETUP_REPEATS):
        mark = probe.mark()
        t0 = time.perf_counter()
        lib = load_library()
        stats = Stats()
        cases = workload.setup(lib, seed, stats, tiny=tiny)
        # spread each kind of case over the whole pass, so that no metric
        # samples the machine's speed during a few seconds only
        random.Random(seed).shuffle(cases)
        raw_setup_times.append(time.perf_counter() - t0)
        probe.sample()
        setup_times.append(raw_setup_times[-1] * probe.scale(mark))

    min_rounds = max(workload.min_rounds, 2 if trace else 1)
    failures: list[str] = []
    plain_passes, traced_times, layer_passes = [], [], []
    tracer = Tracer(lib) if trace else None
    measured = 0.0
    rounds = 0
    while rounds < min_rounds or measured < seconds:
        first_sample = len(probe.samples)
        if trace and rounds % 2 == 1:
            tracer.install()
            try:
                elapsed, latencies = run_pass(cases, probe, failures)
            finally:
                tracer.uninstall()
            factor = REFERENCE_NOMINAL_S / statistics.median(probe.samples[first_sample:])
            layer_passes.append({k: v * factor if k.endswith("_s") else v
                                 for k, v in tracer.take().items()})
            traced_times.append(math.fsum(latencies))
        else:
            elapsed, latencies = run_pass(cases, probe, failures)
            plain_passes.append(latencies)
        measured += elapsed
        rounds += 1
        if rounds == 1:
            redraws_per_pass, pole_redraws_per_pass = stats.redraws, stats.pole_redraws

    attempted = rounds * len(cases)
    tail_pct = tail_percentile(workload.min_rounds * len(cases))
    meta = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cases_per_pass": len(cases),
        "passes": rounds,
        "cases": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "tail_pct": tail_pct,
        "redraws_per_pass": redraws_per_pass,
        "pole_redraws_per_pass": pole_redraws_per_pass,
        "first_failures": failures[:5],
        "reference_ms": 1000 * statistics.median(probe.samples),
        "unscaled_cases_per_s": attempted / measured,
        "unscaled_setup_s": statistics.median(raw_setup_times),
    }
    if trace:
        plain_times = [math.fsum(p) for p in plain_passes]
        metrics, counts_repeat = layer_metrics(layer_passes, plain_times, traced_times,
                                               pole_redraws_per_pass)
        meta["counts_repeat"] = counts_repeat
    else:
        latencies = sorted(itertools.chain.from_iterable(plain_passes))
        metrics = {
            "cases_per_s": attempted / math.fsum(latencies),
            "case_p50_ms": 1000 * statistics.median(latencies),
            "case_tail_ms": 1000 * percentile(latencies, tail_pct),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {"metrics": metrics, "meta": meta, "attempted": attempted,
            "failed": meta["failed"]}


def layer_metrics(passes, plain_times, traced_times, pole_redraws):
    """Per-layer metrics from the traced passes: a count is taken from the
    first pass, a time is the median over passes."""
    counts_repeat = all(
        {k: v for k, v in p.items() if not k.endswith("_s")}
        == {k: v for k, v in passes[0].items() if not k.endswith("_s")}
        for p in passes)
    first = passes[0]
    metrics = {}
    for name in PER_LAYER:
        if name.endswith("_s"):
            metrics[name] = statistics.median(p.get(name, 0.0) for p in passes)
        else:
            metrics[name] = first.get(name, 0)
    redraws = first.get("oracle.eigenvector.errors", 0) + pole_redraws
    metrics["oracle.redraws"] = redraws
    attempts = first.get("oracle.eigenvector.calls", 0)
    metrics["oracle.redraw_frac"] = redraws / attempts if attempts else 0.0
    metrics["trace.overhead_frac"] = (statistics.median(traced_times)
                                      / statistics.median(plain_times) - 1)
    return metrics, counts_repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    meta = result["meta"]
    print(f"# {meta['workload']} seed={meta['seed']} passes={meta['passes']} "
          f"cases={meta['cases']} failed={meta['failed']} fail_frac={meta['fail_frac']} "
          f"tail=p{meta['tail_pct']}")
    for failure in meta["first_failures"]:
        print(f"# FAILED {failure}")
    for name, value in result["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({"meta": meta}, sort_keys=True))
    failed = result["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
