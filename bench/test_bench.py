"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest bench

Each test starts the benchmark as a separate process and reads the JSON
object on the last line of its output.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
STATUS_COUNTS = [
    "channel.status.intact",
    "channel.status.corrected",
    "channel.status.failed_multi_loss",
    "channel.status.failed_gates",
]


def run_bench(workload: str, trace: int, seed: int = 7, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=root, timeout=300,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]] == {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    result = last_json(run_bench(workload, trace=0))
    assert_metrics(result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_with_units(workload):
    result = last_json(run_bench(workload, trace=1))
    assert_metrics(result, SPEC["per_layer"])


@pytest.mark.parametrize("workload", ["chain_wide", "chain_deep"])
def test_status_counts_repeat_at_one_seed(workload):
    first = last_json(run_bench(workload, trace=1))["metrics"]
    second = last_json(run_bench(workload, trace=1))["metrics"]
    counts = [first[name]["value"] for name in STATUS_COUNTS]
    assert sum(counts) == first["channel.stage.calls"]["value"] > 0
    assert counts == [second[name]["value"] for name in STATUS_COUNTS]


def test_refuses_to_run_without_sources(tmp_path):
    """A tree holding only BENCHMARK.json and bench/ has nothing to measure."""
    (tmp_path / "bench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = run_bench("chain_wide", trace=0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
