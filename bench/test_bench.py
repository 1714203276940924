"""Tests of the benchmark itself, on tiny workloads.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = [name for name in run.PER_LAYER
          if name.endswith(".calls") or name in (
              "oracle.kernel.cells", "oracle.kernel.width_max", "oracle.redraws")]


def _declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            {w["name"] for w in spec["workloads"]})


def test_declared_metrics_match_the_benchmark():
    end_to_end, per_layer, workloads = _declared()
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert workloads == set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_present_and_counts_repeat(workload):
    plain = run.measure(workload, seed=3, seconds=0, trace=False, tiny=True)
    assert plain["failed"] == 0, plain["meta"]["first_failures"]
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert all(value > 0 for value in plain["metrics"].values())

    first = run.measure(workload, seed=3, seconds=0, trace=True, tiny=True)
    second = run.measure(workload, seed=3, seconds=0, trace=True, tiny=True)
    assert set(first["metrics"]) == set(run.PER_LAYER)
    assert first["meta"]["counts_repeat"] and second["meta"]["counts_repeat"]
    assert {k: first["metrics"][k] for k in COUNTS} == {k: second["metrics"][k] for k in COUNTS}
    assert first["meta"]["tail_pct"] == plain["meta"]["tail_pct"]


def test_layers_land_on_their_workloads():
    traced = {w: run.measure(w, seed=5, seconds=0, trace=True, tiny=True)["metrics"]
              for w in WORKLOADS}
    oracle_or_cyclotomic = [k for k in COUNTS if k.startswith(("oracle.", "cyclotomic."))]
    assert all(traced["formulas"][k] == 0 for k in oracle_or_cyclotomic)
    assert traced["formulas"]["scalars.normalize.calls"] > 0
    assert traced["formulas"]["cli.main.self_s"] > 0
    assert traced["certify"]["oracle.kernel.calls"] > 0
    assert traced["certify"]["oracle.verify_report.self_s"] == 0
    assert traced["verify"]["oracle.verify_report.self_s"] > 0


def test_a_mismatch_fails_the_run_and_metrics_still_print(monkeypatch, capsys):
    formulas = WORKLOADS["formulas"]
    monkeypatch.setattr(formulas, "FULL", formulas.TINY)
    setup = formulas.setup

    def with_a_wrong_case(lib, seed, stats, tiny=False):
        cases = setup(lib, seed, stats, tiny)
        cases.append(type(cases[0])("always wrong", lambda: False))
        return cases

    monkeypatch.setattr(formulas, "setup", with_a_wrong_case)
    code = run.main(["--workload", "formulas", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == formulas.min_rounds    # once per pass
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
