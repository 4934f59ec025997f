"""The scripts under scripts/ run end to end at small sizes; bench_pairs.py, which
starts benchmark runs, and cli_bytes.py and api_equal.py, which compare two trees,
are checked on canned numbers and records and on one run of this tree."""

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


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_pairs():
    return _load_script("bench_pairs")


def test_bench_pairs_alternates_sides_and_summarizes_canned_runs():
    pairs = _bench_pairs()
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


def test_cli_bytes_names_each_differing_field():
    cli_bytes = _load_script("cli_bytes")
    base = {"exit": 0, "stdout": b"wrote\n", "stderr": b"", "files": {"a.csv": b"1\n", "b.csv": b"2\n"}}
    assert cli_bytes.compare(base, dict(base)) == []
    change = {"exit": 2, "stdout": b"wrote\n", "stderr": b"error\n", "files": {"a.csv": b"1.0\n", "c.csv": b""}}
    assert cli_bytes.compare(base, change) == ["exit", "stderr", "file a.csv", "file b.csv", "file c.csv"]
    assert cli_bytes.compare(base, dict(base, stdout=b"")) == ["stdout"]


def test_cli_bytes_threshold_run_matches_itself():
    # a real run of this tree against itself, each in its own fresh directory
    cli_bytes = _load_script("cli_bytes")
    command, inputs = cli_bytes.commands()["threshold"]
    first = cli_bytes.run_command(ROOT, command, inputs)
    second = cli_bytes.run_command(ROOT, command, inputs)
    assert first["exit"] == 0 and set(first["files"]) == {"threshold.json"}
    assert b"break-even ancilla count: n = 56" in first["stdout"]
    assert cli_bytes.compare(first, second) == []


def test_cli_bytes_writes_bytes_inputs_as_given():
    # a non-UTF-8 config reaches the CLI byte for byte, and an input is not reported as output
    cli_bytes = _load_script("cli_bytes")
    command, inputs = cli_bytes.commands()["usage-config-not-utf8"]
    assert inputs == {"bad.json": b"\xff\xfe{}"}
    run = cli_bytes.run_command(ROOT, command, inputs)
    assert run["exit"] == 2 and run["files"] == {} and run["stdout"] == b""
    assert run["stderr"].startswith(b"error: config bad.json is not UTF-8: ")


def test_api_equal_chain_run_matches_itself():
    # a real run of this tree against itself, each in its own fresh interpreter
    api_equal = _load_script("api_equal")
    spec = api_equal.configs()["chain_deep-seed-1"]
    first, second = api_equal.run_config(ROOT, spec), api_equal.run_config(ROOT, spec)
    assert first["exit"] == 0, first["stderr"]
    assert first["stdout"].startswith(b"{'trials': 200, 'num_stages': 10, ")
    assert api_equal.compare(first, second) == []
    assert api_equal.compare(first, dict(second, stdout=b"{}\n")) == ["stdout"]
