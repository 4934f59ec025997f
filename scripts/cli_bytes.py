#!/usr/bin/env python3
"""Compare the bytes of a fixed list of CLI commands between a base commit and this tree.

    python3 scripts/cli_bytes.py --base HEAD

The base is the committed tree of ``--base``, unpacked with
``bench_pairs.unpack`` into a temporary directory that is removed afterwards.
Each command runs as ``python -m lossguard ...`` once per side, in a fresh
temporary directory, with PYTHONPATH set to that side's ``src`` and one BLAS
thread.  Config files are written into the run directory and named
relatively, so no path differs between the sides; a config given as ``bytes``
is written as those bytes, a ``str`` as UTF-8.  Exit code, stdout, stderr
and the bytes of every file the command writes are compared; one line per
command reads ``SAME name`` or ``DIFF name: <fields>``, and the exit code is
1 when any command differs.  Stdlib only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, unpack  # noqa: E402

RUN_TIMEOUT_S = 600


def commands() -> dict[str, tuple[list[str], dict[str, str | bytes]]]:
    """name -> (argv after ``python -m lossguard``, {config file name: text or bytes})."""
    chain_config = (ROOT / "scripts" / "chain_config.json").read_text(encoding="utf-8")
    return {
        "chain": (["chain", "--trials", "20000", "--seed", "7"], {}),
        "chain-10-stages": (["chain", "--trials", "20000", "--stages", "10", "--seed", "9"], {}),
        "chain-per-gate": (["chain", "--mode", "per_gate", "--trials", "3000", "--seed", "5"], {}),
        "chain-config": (["chain", "--config", "chain.json", "--out", "rep.json"],
                         {"chain.json": chain_config}),
        "chain-threshold": (["chain", "--threshold"], {}),
        "chain-threshold-out": (["chain", "--threshold", "--out", "t.json"], {}),
        "chain-ideal": (["chain", "--config", "ideal.json", "--trials", "400", "--seed", "3"],
                        {"ideal.json": '{"alpha": 0.0, "p_t_override": 1.0}\n'}),
        "chain-d0": (["chain", "--config", "d0.json", "--trials", "400", "--seed", "3"],
                     {"d0.json": '{"d": 0}\n'}),
        "loop-ideal": (["loop", "--config", "ideal.json", "--trials", "2000", "--seed", "3"],
                       {"ideal.json": '{"p_t_override": 1.0}\n'}),
        # alpha * d at the float limits: 0 for a positive alpha and d, and inf
        "chain-x-underflow": (["chain", "--config", "x.json", "--trials", "50", "--seed", "1"],
                              {"x.json": '{"alpha": 1e-5, "d": 1e-320}\n'}),
        "chain-x-overflow": (["chain", "--config", "x.json", "--trials", "50", "--seed", "1"],
                             {"x.json": '{"alpha": 1e308, "d": 1e308}\n'}),
        "loop-x-overflow": (["loop", "--config", "x.json", "--trials", "50", "--seed", "1"],
                            {"x.json": '{"alpha": 1e308, "d": 1e308}\n'}),
        "loop": (["loop", "--trials", "20000", "--seed", "11"], {}),
        "loop-per-gate": (["loop", "--mode", "per_gate", "--trials", "2000", "--seed", "13"], {}),
        "verify": (["verify"], {}),
        "verify-states": (["verify", "--states", "50", "--seed", "3"], {}),
        "verify-list-tables": (["verify", "--list-tables"], {}),
        "verify-qubit-loss": (["verify", "--qubit-loss", "2", "--outcome", "10"], {}),
        "sweep-r": (["sweep-r", "--out", "r.csv"], {}),
        "sweep-r-json": (["sweep-r", "--format", "json", "--out", "r.json"], {}),
        "sweep-r-7x5": (["sweep-r", "--x-steps", "7", "--pt-steps", "5", "--out", "small.csv"], {}),
        # the 10**6-row limit (a ~59 MB file), and an x axis whose contour row reads inf
        "sweep-r-limit": (["sweep-r", "--x-steps", "1000", "--pt-steps", "1000", "--out", "limit.csv"], {}),
        "sweep-r-x-800": (["sweep-r", "--x-hi", "800", "--x-steps", "2", "--pt-steps", "2",
                           "--out", "x800.csv"], {}),
        # JSON at 10**5 rows (the limit would take the base's payload tree over 1.2 GiB), and with null
        "sweep-r-json-1000x100": (["sweep-r", "--format", "json", "--x-steps", "1000", "--pt-steps", "100",
                                   "--out", "big.json"], {}),
        "sweep-r-json-x-800": (["sweep-r", "--format", "json", "--x-hi", "800", "--x-steps", "2",
                                "--pt-steps", "2", "--out", "x800.json"], {}),
        # a long x axis, where the contour is the larger output per x: 10**6 rows in each format
        "sweep-r-long-x": (["sweep-r", "--x-steps", "500000", "--pt-steps", "2", "--out", "long.csv"], {}),
        "sweep-r-json-long-x": (["sweep-r", "--format", "json", "--x-steps", "500000", "--pt-steps", "2",
                                 "--out", "long.json"], {}),
        "sweep-pt": (["sweep-pt", "--out", "pt.csv"], {}),
        "sweep-pt-json": (["sweep-pt", "--format", "json", "--out", "pt.json"], {}),
        "threshold": (["threshold", "--out", "threshold.json"], {}),
        "resources": (["resources", "--all", "--n", "3", "--out", "resources.json"], {}),
        "usage-sweep-r-steps": (["sweep-r", "--out", "r.csv", "--x-steps", "1"], {}),
        "usage-sweep-pt-n-range": (["sweep-pt", "--out", "pt.csv", "--n-lo", "5", "--n-hi", "5"],
                                   {}),
        "usage-sweep-pt-n-hi-overflow": (["sweep-pt", "--out", "pt.csv", "--n-hi", str(10**400)],
                                         {}),
        "usage-verify-states": (["verify", "--states", "0"], {}),
        "usage-config-key": (["chain", "--config", "bad.json"], {"bad.json": '{"bogus": 1}\n'}),
        "usage-out-missing-dir": (["resources", "--n", "3", "--out", "missing/r.json"], {}),
        "usage-config-not-utf8": (["chain", "--config", "bad.json"], {"bad.json": b"\xff\xfe{}"}),
        "usage-chain-budget": (["chain", "--trials", "10000000", "--stages", "10"], {}),
        "loop-config-num-stages": (["loop", "--config", "stages.json", "--trials", "1000"],
                                   {"stages.json": '{"num_stages": 100000}\n'}),
        "usage-config-huge-int": (["loop", "--config", "big.json"],
                                  {"big.json": '{"trials": ' + "9" * 5000 + "}\n"}),
    }


def run_command(tree: Path, argv: list[str], inputs: dict[str, str | bytes]) -> dict:
    """One CLI run on `tree` in a fresh directory: exit code, stdout, stderr
    and {name: bytes} of every file it wrote."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="cli-bytes-") as tmp:
        run_dir = Path(tmp)
        for name, content in inputs.items():
            data = content if isinstance(content, bytes) else content.encode("utf-8")
            (run_dir / name).write_bytes(data)
        done = subprocess.run([sys.executable, "-m", "lossguard", *argv], cwd=run_dir, env=env,
                              capture_output=True, timeout=RUN_TIMEOUT_S)
        files = {
            str(path.relative_to(run_dir)): path.read_bytes()
            for path in sorted(run_dir.rglob("*"))
            if path.is_file() and path.name not in inputs
        }
    return {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr, "files": files}


def compare(base: dict, change: dict) -> list[str]:
    """The fields in which two run records differ, in a fixed order."""
    fields = [key for key in ("exit", "stdout", "stderr") if base[key] != change[key]]
    for name in sorted(set(base["files"]) | set(change["files"])):
        if base["files"].get(name) != change["files"].get(name):
            fields.append(f"file {name}")
    return fields


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    args = parser.parse_args(argv)
    differs = False
    with tempfile.TemporaryDirectory(prefix="cli-bytes-base-") as tmp:
        print(f"base {unpack(args.base, Path(tmp))}", flush=True)
        for name, (command, inputs) in commands().items():
            fields = compare(run_command(Path(tmp), command, inputs), run_command(ROOT, command, inputs))
            differs = differs or bool(fields)
            print(f"DIFF {name}: {', '.join(fields)}" if fields else f"SAME {name}", flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
