"""The benchmark command, run as a user runs it: ``perfbench/run.py``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))


def _run(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout)


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _run(tmp_path, "--workload", "train", "--seed", "1", "--seconds",
               "1", "--trace", "0", timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
    assert "no repro sources" in out.stderr


def test_benchmark_json_names_the_metrics_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import run
        from perfbench.trace import LAYER_METRICS
    finally:
        sys.path.remove(os.path.join(ROOT, "perfbench"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, *__ in LAYER_METRICS]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


@pytest.mark.slow
@pytest.mark.parametrize("workload, trace", [
    ("train", "0"), ("serve-fleet", "0"), ("serve-mixed", "0"),
    ("serve-fleet", "1"),
])
def test_tiny_run_is_correct(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", trace)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout[-3000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
