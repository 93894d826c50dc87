"""The benchmark's own test: python3 -m pytest perfbench"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from cases import WORKLOADS, build_cases

ROOT = Path(run.__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_reduced_run_emits_every_metric(tmp_path, workload, trace):
    result = run.run_workload(ROOT, tmp_path / "work", workload, seed=5, seconds=0.1,
                              trace=trace, reduced=True, setup_repeats=1)
    assert result["attempted"] >= len(build_cases(workload, 5))
    assert result["failed"] == 0, result["failures"]
    metrics = run.metrics_of(result, trace)
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert [(name, m["unit"]) for name, m in metrics.items()] == [(d[0], d[1]) for d in declared]
    for m in metrics.values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload, offset", [("shipped", 1e-3), ("mcwf", 0.5),
                                              ("many-quanta", 1e-3)])
def test_perturbed_oracle_fails_every_case(tmp_path, workload, offset):
    result = run.run_workload(ROOT, tmp_path / "work", workload, seed=5, seconds=0.1,
                              trace=False, reduced=True, perturb=offset, setup_repeats=1)
    assert result["failed"] == result["attempted"] > 0


def test_cases_follow_the_seed():
    for workload in WORKLOADS:
        assert build_cases(workload, 3) == build_cases(workload, 3)
    assert build_cases("mcwf", 3) != build_cases("mcwf", 4)
    for workload in WORKLOADS:
        for case in build_cases(workload, 4):
            p = case["config"]["params"]
            if "g11" in p:
                assert abs(p.get("g12", 0.0)) ** 2 <= p["g11"] * p["g22"] + 1e-15


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "shipped"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
