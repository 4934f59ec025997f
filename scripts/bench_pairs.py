#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarized as BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --pr 8 --base HEAD --pairs cli_tools=10 \\
        --pairs chain_wide=5 --pairs chain_deep=5 --pairs loop_per_gate=5

The parent is the committed tree of ``--base``, unpacked with ``git archive``
into a temporary directory that is removed afterwards (nothing is added to
``.git``, even when the run is killed).  The change is this working tree.
Pair i runs ``bench/run.py --workload W --seed S --trace 0`` once on each
side at seed ``--seed0 + i``; even pairs run the parent first and odd pairs
the change, so a drift of the host does not favour one side.  For every
end-to-end metric of BENCHMARK.json the report holds each side's median and
quartiles and the number of pairs the change won (strictly better in the
metric's direction).  Stdlib only; set TMPDIR to choose where the parent
tree goes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 900


def pair_order(index: int) -> tuple[str, str]:
    """Which side runs first in pair `index`: the parent in even pairs."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's values."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def change_wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change is strictly better than the parent."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def summarize(runs: list[dict], directions: dict[str, str]) -> dict:
    """Report for one workload.  runs[i][side] is the last stdout line of
    bench/run.py for that side of pair i, already parsed."""
    out = {
        "pairs": len(runs),
        "seeds": [run["seed"] for run in runs],
        "correct": {side: sum(run[side]["correct"] for run in runs) for side in SIDES},
        "metrics": {},
    }
    for name, better in directions.items():
        values = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in SIDES}
        parent, change = summary(values["parent"]), summary(values["change"])
        out["metrics"][name] = {
            "better": better,
            "parent": parent,
            "change": change,
            "change_wins": change_wins(values["parent"], values["change"], better),
            "ratio": change["median"] / parent["median"] if parent["median"] else None,
        }
    return out


def unpack(rev: str, dest: Path) -> str:
    """Write the committed tree of `rev` to dest; returns its full hash."""
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", rev], check=True, capture_output=True, text=True
    ).stdout.strip()
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", sha], check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(blob.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def run_once(tree: Path, workload: str, seed: int) -> dict:
    command = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 2 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def parse_pairs(text: str) -> tuple[str, int]:
    workload, _, count = text.partition("=")
    if not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=PAIRS, got {text!r}")
    return workload, int(count)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD", help="git revision of the parent (default HEAD)")
    parser.add_argument("--pairs", type=parse_pairs, action="append", required=True,
                        metavar="WORKLOAD=N", help="run N pairs of this workload (repeatable)")
    parser.add_argument("--seed0", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {
        "command": "bench/run.py --workload W --seed S --trace 0",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        report["base"] = unpack(args.base, Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        for workload, count in args.pairs:
            runs = []
            for i in range(count):
                run = {"seed": args.seed0 + i}
                for side in pair_order(i):
                    run[side] = run_once(trees[side], workload, run["seed"])
                print(f"{workload} pair {i + 1}/{count} seed {run['seed']} done", flush=True)
                runs.append(run)
            report["workloads"][workload] = summarize(runs, directions)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
