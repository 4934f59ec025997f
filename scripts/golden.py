#!/usr/bin/env python3
"""Check this tree's CLI and library outputs against the digests recorded in tests/golden.json.

    python3 scripts/golden.py            # run every case; exit 1 if any record moved
    python3 scripts/golden.py --write    # record every case again

Every case runs in-process.  A CLI case runs ``cli.main`` in a fresh directory holding its config
files (``bytes`` as given, ``str`` as UTF-8), with LOSSGUARD_THREADS unset, and records the exit code
and the sha256 of stdout, stderr and each file it writes; a library case records the sha256 of
``repr(report.to_dict())``, stdout and stderr.  A warning goes to stderr as a path-free ``Category:
message`` line, and an uncaught exception stops the run.  One line per case reads ``SAME name`` or
``DIFF name: <fields>``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import warnings
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import numpy as np  # noqa: E402

import lossguard  # noqa: E402
from lossguard import cli  # noqa: E402

TABLE = ROOT / "tests" / "golden.json"
HOST = {"numpy": np.__version__, "python": platform.python_version()}
# ~6 s together, so the tier-1 check leaves them to this script; their own tests bound their memory
LONG = ("cli sweep-r-limit", "cli sweep-r-long-x", "cli sweep-r-json-long-x")

# the parameters of the benchmark's chain_wide, chain_deep and loop_per_gate workloads
PAPER = dict(alpha=1.0 / 30.0, d=10.0, n=160, eta=1.0 - 1e-5)
DEEP = dict(alpha=1.0 / 30.0, d=3.0, n=1000, eta=1.0)
LOOP = dict(alpha=1.0 / 30.0, d=1.0, n=160, eta=1.0 - 1e-5)


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
        # alpha * nu is 0 for a positive alpha and nu: the bare half-decay time is inf
        "loop-alpha-nu-underflow": (["loop", "--config", "c.json", "--trials", "20", "--seed", "1"],
                                    {"c.json": '{"alpha": 5e-324, "nu": 0.1}\n'}),
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
        # JSON at 10**5 rows, and with null
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
        "usage-sweep-pt-n-range": (["sweep-pt", "--out", "pt.csv", "--n-lo", "5", "--n-hi", "5"], {}),
        "usage-sweep-pt-n-hi-overflow": (["sweep-pt", "--out", "pt.csv", "--n-hi", str(10**400)], {}),
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


def _run(call: Callable[[], object]) -> tuple[object, bytes, bytes]:
    """(call(), its stdout, its stderr), each warning on stderr once per location without its path."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, category, *_: stderr.write(f"{category.__name__}: {message}\n")
        result = call()
    return result, stdout.getvalue().encode(), stderr.getvalue().encode()


def run_command(argv: list[str], inputs: dict[str, str | bytes]) -> dict[str, int | bytes]:
    """One CLI run: {"exit": code, "stdout", "stderr", "file <name>": bytes}."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp, mock.patch.dict(os.environ):
        os.environ.pop("LOSSGUARD_THREADS", None)
        run_dir = Path(tmp)
        for name, content in inputs.items():
            (run_dir / name).write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        os.chdir(run_dir)
        try:
            code, stdout, stderr = _run(partial(cli.main, argv))
        finally:
            os.chdir(cwd)
        files = {f"file {path.relative_to(run_dir)}": path.read_bytes() for path in sorted(run_dir.rglob("*"))
                 if path.is_file() and path.name not in inputs}
    return {"exit": code, "stdout": stdout, "stderr": stderr, **files}


def run_config(spec: dict) -> dict[str, bytes]:
    """One library run: {"repr": repr(report.to_dict()), "stdout", "stderr"}."""
    config = lossguard.ChainConfig(params=lossguard.TransponderParams(**spec["params"]), **spec["config"])
    report, stdout, stderr = _run(partial(getattr(lossguard, spec["run"]), config, workers=spec["workers"]))
    return {"repr": repr(report.to_dict()).encode(), "stdout": stdout, "stderr": stderr}


def cases() -> dict[str, Callable[[], dict]]:
    """Every case by name ("cli <command>" or "api <config>"), as a call that returns its outputs."""
    out = {f"cli {name}": partial(run_command, *case) for name, case in commands().items()}
    return out | {f"api {name}": partial(run_config, spec) for name, spec in configs().items()}


def record(outputs: dict) -> dict:
    """A case's record: the exit code as it is, and the sha256 of each output's bytes."""
    return {key: value if key == "exit" else hashlib.sha256(value).hexdigest()
            for key, value in outputs.items()}


def compare(recorded: dict, current: dict) -> list[str]:
    """The fields in which two records differ, in the order they are recorded."""
    return [key for key in dict.fromkeys([*recorded, *current]) if recorded.get(key) != current.get(key)]


def load() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def check(table: dict, names: Iterable[str]) -> Iterator[tuple[str, list[str]]]:
    """(name, the fields that moved) per named case, run in turn; a case on one side only moves wholly."""
    runs = cases()
    for name in names:
        try:
            current = record(runs[name]()) if name in runs else {}
        except Exception as exc:
            raise RuntimeError(f"golden case {name!r} raised {type(exc).__name__}") from exc
        yield name, compare(table["cases"].get(name, {}), current)


def line(name: str, fields: list[str]) -> str:
    return f"DIFF {name}: {', '.join(fields)}" if fields else f"SAME {name}"


def host_line(table: dict) -> str:
    """The table's numpy and Python beside this host's, to tell a host change from a code change."""
    recorded = table["host"]
    return (f"table recorded with numpy {recorded['numpy']} on Python {recorded['python']}; "
            f"running numpy {HOST['numpy']} on Python {HOST['python']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"record every case again into {TABLE.name}")
    args = parser.parse_args(argv)
    if args.write:
        table = {"host": HOST, "cases": {name: record(run()) for name, run in cases().items()}}
        TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(table['cases'])} cases to {TABLE}")
        return 0
    table, differs = load(), False
    for name, fields in check(table, dict.fromkeys([*cases(), *table["cases"]])):
        differs = differs or bool(fields)
        print(line(name, fields), flush=True)
    if differs:
        print(host_line(table))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
