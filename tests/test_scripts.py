"""The scripts under scripts/ run end to end at small sizes; bench_pairs.py, which
starts benchmark runs, is checked on canned numbers.  tests/test_golden.py checks
golden.py."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_python(*args, cwd):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_scripts_and_sample_config_run(tmp_path):
    demo = run_python(SCRIPTS / "memory_demo.py", "--trials", "200", cwd=tmp_path)
    assert demo.returncode == 0, demo.stderr
    assert "mean surviving cycles" in demo.stdout
    assert "implied dwell time" in demo.stdout

    outdir = tmp_path / "figures"
    figures = run_python(SCRIPTS / "reproduce_figures.py", "--outdir", outdir, cwd=tmp_path)
    assert figures.returncode == 0, figures.stderr
    assert f"datasets written under {outdir}/" in figures.stdout
    for name in ("ratio_grid.csv", "transponder_success.csv", "threshold.json"):
        assert (outdir / name).stat().st_size > 0
    assert json.loads((outdir / "threshold.json").read_text())["threshold_n"] == 56

    chain = run_python(
        "-m", "lossguard", "chain", "--config", SCRIPTS / "chain_config.json", "--trials", "200",
        cwd=tmp_path,
    )
    assert chain.returncode == 0, chain.stderr
    report = json.loads(chain.stdout)
    assert report["empirical"]["trials"] == 200
    assert report["params"]["n"] == 160


def test_bench_pairs_alternates_sides_and_summarizes_canned_runs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    assert [pairs.pair_order(i) for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"),
    ]
    # canned last lines of bench/run.py: the change is faster in 3 of 4 pairs
    parent_s, change_s = [4.0, 1.0, 3.0, 2.0], [1.5, 1.2, 0.5, 1.0]
    runs = [
        {
            "seed": 10 + i,
            "parent": {"correct": True, "metrics": {"sweep_r_s": {"value": p}, "ok_ratio": {"value": 1.0}}},
            "change": {"correct": i != 2, "metrics": {"sweep_r_s": {"value": c}, "ok_ratio": {"value": 1.0}}},
        }
        for i, (p, c) in enumerate(zip(parent_s, change_s))
    ]
    report = pairs.summarize(runs, {"sweep_r_s": "lower", "ok_ratio": "higher"})
    assert report["pairs"] == 4 and report["seeds"] == [10, 11, 12, 13]
    assert report["correct"] == {"parent": 4, "change": 3}
    sweep = report["metrics"]["sweep_r_s"]
    # inclusive quartiles of 1, 2, 3, 4 and of 0.5, 1.0, 1.2, 1.5
    assert (sweep["parent"]["q1"], sweep["parent"]["median"], sweep["parent"]["q3"]) == (1.75, 2.5, 3.25)
    assert sweep["change"]["median"] == pytest.approx(1.1)
    assert (sweep["change"]["q1"], sweep["change"]["q3"]) == pytest.approx((0.875, 1.275))
    assert sweep["parent"]["values"] == parent_s
    assert sweep["change_wins"] == 3
    assert sweep["ratio"] == pytest.approx(1.1 / 2.5)
    # ties win for neither side, whichever way the metric points
    assert report["metrics"]["ok_ratio"]["change_wins"] == 0
    assert pairs.change_wins([1.0, 2.0], [2.0, 2.0], "higher") == 1
    one = pairs.summary([7.0])
    assert (one["q1"], one["median"], one["q3"]) == (7.0, 7.0, 7.0)
