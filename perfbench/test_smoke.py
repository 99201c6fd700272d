"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "loop-clean": {"episodes": 30, "warmup_successes": 5},
    "loop-noisy-history": {"episodes": 10, "preseed_td": 200},
    "plan-oneshot": {"sizes": range(4, 7)},
}


def run_tiny(workload, trace, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, sizes=TINY[workload]) == 0
    out = capsys.readouterr().out.splitlines()
    return out, json.loads(out[-1])


def test_workloads_are_the_declared_ones():
    assert run.WORKLOADS == tuple(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload, capsys, monkeypatch, tmp_path):
    lines, result = run_tiny(workload, 0, capsys, monkeypatch, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert any(line.startswith("error_ratio 0.000000") for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_self_times_account_for_the_traced_wall(workload, capsys, monkeypatch, tmp_path):
    _, result = run_tiny(workload, 1, capsys, monkeypatch, tmp_path)
    assert result["correct"]
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    covered = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_ms"))
    assert math.isclose(covered, metrics["harness.wall_ms"]["value"], rel_tol=1e-9)
    assert metrics["harness.self_ms"]["value"] >= 0
    assert list(tmp_path.glob(f"spans-{workload}-seed1.jsonl"))


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "plan-oneshot", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
