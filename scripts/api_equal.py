#!/usr/bin/env python3
"""Compare the reports of a fixed list of library runs between a base commit and this tree.

    python3 scripts/api_equal.py --base HEAD

The base is the committed tree of ``--base``, unpacked with
``bench_pairs.unpack`` into a temporary directory that is removed afterwards.
Each config runs ``lossguard.run_chain``, ``run_loop`` or ``compare_modes``
once per side, each run in a fresh interpreter with PYTHONPATH set to that
side's ``src`` and one BLAS thread, and prints ``repr(report.to_dict())``.
Exit code, that text and stderr are compared; one line per config reads
``SAME name`` or ``DIFF name: <fields>``, and the exit code is 1 when any
config differs.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, unpack  # noqa: E402
from cli_bytes import compare  # noqa: E402

RUN_TIMEOUT_S = 600

# the parameters of the benchmark's chain_wide, chain_deep and loop_per_gate workloads
PAPER = dict(alpha=1.0 / 30.0, d=10.0, n=160, eta=1.0 - 1e-5)
DEEP = dict(alpha=1.0 / 30.0, d=3.0, n=1000, eta=1.0)
LOOP = dict(alpha=1.0 / 30.0, d=1.0, n=160, eta=1.0 - 1e-5)

CHILD = """\
import json, sys
import lossguard
spec = json.loads(sys.argv[1])
config = lossguard.ChainConfig(params=lossguard.TransponderParams(**spec["params"]), **spec["config"])
print(repr(getattr(lossguard, spec["run"])(config, workers=spec["workers"]).to_dict()))
"""


def _spec(run: str, params: dict, workers: int = 1, **config) -> dict:
    return {"run": run, "params": params, "config": config, "workers": workers}


def configs() -> dict[str, dict]:
    """name -> {run: the lossguard function, params, config: ChainConfig fields, workers}."""
    out = {
        "chain-1-stage": _spec("run_chain", PAPER, trials=3000, seed=7),
        "chain-10-stages": _spec("run_chain", DEEP, num_stages=10, trials=2000, seed=9),
        "chain-per-gate-1-stage": _spec("run_chain", PAPER, mode="per_gate", trials=2000, seed=5),
        "chain-per-gate-10-stages": _spec("run_chain", DEEP, mode="per_gate", num_stages=10, trials=1000,
                                          seed=6),
        "chain-ideal-gates": _spec("run_chain", PAPER, num_stages=10, trials=2000, seed=3, p_t_override=1.0),
        # two chunks, so the pooled run sums two records
        "chain-workers-1": _spec("run_chain", PAPER, num_stages=2, trials=7000, seed=4),
        "chain-workers-2": _spec("run_chain", PAPER, workers=2, num_stages=2, trials=7000, seed=4),
        "loop-aggregate": _spec("run_loop", LOOP, trials=3000, seed=11),
        "loop-ideal-gates": _spec("run_loop", LOOP, trials=500, seed=12, p_t_override=1.0),
        "loop-workers-2": _spec("run_loop", LOOP, workers=2, mode="per_gate", trials=7000, seed=13),
        "compare-modes-1-stage": _spec("compare_modes", PAPER, trials=2000, seed=14),
        "compare-modes-10-stages": _spec("compare_modes", DEEP, num_stages=10, trials=500, seed=15),
    }
    for seed in (1, 2, 3):
        out[f"chain_wide-seed-{seed}"] = _spec("run_chain", PAPER, trials=10_000, seed=seed)
        out[f"chain_deep-seed-{seed}"] = _spec("run_chain", DEEP, num_stages=10, trials=200, seed=seed)
        out[f"loop_per_gate-seed-{seed}"] = _spec("run_loop", LOOP, mode="per_gate", trials=2000, seed=seed)
    return out


def run_config(tree: Path, spec: dict) -> dict:
    """One run on `tree` in a fresh interpreter: exit code, the report's repr, and stderr."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(spec)], cwd=tree, env=env,
                          capture_output=True, timeout=RUN_TIMEOUT_S)
    return {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr, "files": {}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    args = parser.parse_args(argv)
    differs = False
    with tempfile.TemporaryDirectory(prefix="api-equal-base-") as tmp:
        print(f"base {unpack(args.base, Path(tmp))}", flush=True)
        for name, spec in configs().items():
            fields = compare(run_config(Path(tmp), spec), run_config(ROOT, spec))
            differs = differs or bool(fields)
            print(f"DIFF {name}: {', '.join(fields)}" if fields else f"SAME {name}", flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
