"""The scripts under scripts/ run end to end at small sizes."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
