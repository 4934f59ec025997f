"""Command-line front end.

Subcommands: verify, sweep-r, sweep-pt, chain, loop, resources, threshold.
All outputs are UTF-8 with LF line endings; floats are written with 17
significant digits so files are bit-stable under a fixed --seed.  Exit
codes: 0 success, 1 verification failure, 2 usage, config or file error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import asdict, fields, replace
from functools import cache
from pathlib import Path

import numpy as np

from lossguard import analytics, chainsim, losscode
from lossguard.analytics import TransponderParams
from lossguard.channel import MODES
from lossguard.losscode import DATA_QUBITS, OUTCOMES, RECOVERY_TOL, RecoveryError, TableDerivationError
from lossguard.simcore import ATOL

DEFAULT_PARAMS = TransponderParams(alpha=1.0 / 30.0, d=10.0, n=160, eta=1.0 - 1e-5)

SWEEP_PT_ETAS = (1.0, 1.0 - 1e-6, 1.0 - 1e-5, 1.0 - 10.0**-4.5)
# default grids: sweep-r 60,000 rows, sweep-pt at most 800; sweep-r's CSV and JSON stream one x row
# at a time
MAX_SWEEP_ROWS = 10**6
MAX_VERIFY_STATES = 10**6  # ~0.05 ms per state: under a minute at the bound
VERIFY_BLOCK = 1024  # states per array pass of verify's round-trip check

_PARAM_FIELDS = tuple(f.name for f in fields(TransponderParams))
# each run flag stores to the field it sets; flags win over the config file
_RUN_FIELDS = ("trials", "num_stages", "seed", "mode", "p_t_override", "max_cycles")


class CliError(Exception):
    """Usage or configuration problem; maps to exit code 2."""


def _checked(check, *args, **kwargs):
    """`check(*args, **kwargs)`, with the ValueError of a rule it owns as a CliError."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc))


# ---------------------------------------------------------------------------
# formatting


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


def _jsonable(obj):
    """Round-trip-safe JSON tree: non-finite floats become null."""
    if isinstance(obj, Mapping):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _dumps(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"


def _json_number(value: float) -> str:
    """A float as _dumps writes it: repr, or null where it is not finite."""
    return repr(value) if math.isfinite(value) else "null"


def _json_items(items: Iterable[str]) -> Iterator[str]:
    """A JSON array's item texts with _dumps' separator between them."""
    separator = ""
    for item in items:
        yield separator + item
        separator = ",\n"


def _emit(pieces: Iterable[str], out: str | None, what: str | None = None) -> None:
    """Write the pieces in turn to stdout, or to the file out and then, if `what` names it, say so."""
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
        if what is not None:
            print(f"wrote {what} to {out}")


def _csv(header: str, rows: list[tuple]) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _workers() -> int:
    raw = os.environ.get("LOSSGUARD_THREADS", "1")
    try:
        return analytics.check_count("LOSSGUARD_THREADS", int(raw), 1)
    except ValueError:
        raise CliError(f"LOSSGUARD_THREADS must be an integer >= 1, got {raw!r}")


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(
            f"config {path} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    except UnicodeDecodeError as exc:
        raise CliError(f"config {path} is not UTF-8: {exc}")
    except ValueError as exc:
        raise CliError(f"config {path} is not readable JSON: {exc}")
    if not isinstance(raw, dict):
        raise CliError(f"config {path} must be a flat JSON object")
    allowed = set(_PARAM_FIELDS) | set(_RUN_FIELDS)
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise CliError(
            f"config {path}: unknown field(s) {', '.join(unknown)}; "
            f"expected {', '.join(sorted(allowed))}"
        )
    return raw


def _build_run_config(args, raw: dict) -> chainsim.ChainConfig:
    run_kwargs = {"seed": 42} | {name: raw[name] for name in _RUN_FIELDS if name in raw}
    run_kwargs |= {name: getattr(args, name) for name in _RUN_FIELDS
                   if getattr(args, name, None) is not None}
    try:
        params = replace(DEFAULT_PARAMS, **{k: raw[k] for k in _PARAM_FIELDS if k in raw})
        config = chainsim.ChainConfig(params=params, **run_kwargs)
        chainsim.check_budget(config, loop=args.command == "loop")
        return config
    except ValueError as exc:
        raise CliError(f"bad configuration: {exc}")


# ---------------------------------------------------------------------------
# verify


def _check_codeword_table() -> str | None:
    for word in losscode.codewords():
        expected = np.zeros(1 << DATA_QUBITS)
        expected[[int(ket, 2) for ket in losscode.CODEWORD_KETS[word.logical_bits]]] = math.sqrt(0.5)
        if not np.abs(word.state.amplitudes - expected).max() <= ATOL:
            return _dumps({"property": "codeword-table", "logical_bits": word.logical_bits})
    return None


def _check_correction_tables() -> str | None:
    expected = {"00": "I", "01": "X", "10": "Z", "11": "XZ"}
    for table in losscode.all_correction_tables():
        if table.entries != expected:
            return _dumps(
                {
                    "property": "correction-tables",
                    "loss_position": table.loss_position,
                    "entries": table.entries,
                }
            )
    return None


def _inputs(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` random_state(2, rng) rows from one draw, bit for bit: norm(..., axis=1) would not be."""
    normals = rng.standard_normal((count, 2, 4))
    logical = normals[:, 0] + 1j * normals[:, 1]
    return logical / np.array([np.linalg.norm(row) for row in logical])[:, None]


def _check_recovery(states: int, seed: int) -> str | None:
    """All states, loss positions and readouts in one array pass per VERIFY_BLOCK states, which keeps
    each readout's tests; the first failure is read from them in state, position, readout order."""
    rng = chainsim.input_rng(seed)
    code = np.stack([word.state.amplitudes for word in losscode.codewords()])
    for start in range(0, states, VERIFY_BLOCK):
        logical = _inputs(rng, min(VERIFY_BLOCK, states - start))
        encoded = logical @ code
        passes = []
        for position in range(DATA_QUBITS):
            images, weights = losscode.recovery_images(encoded[:, losscode.SPLITS[position]], position)
            kept, mixed = losscode.corrected_blocks(images, weights)
            probs, norms = weights.sum(axis=-1), np.linalg.norm(kept, axis=-1) ** 2
            fid = np.abs(kept.conj() @ encoded[:, :, None])[..., 0] ** 2
            sound = (mixed <= RECOVERY_TOL) & (np.abs(norms - 1.0) <= ATOL) & (fid >= 1.0 - RECOVERY_TOL)
            passes.append((probs, mixed, kept, np.abs(probs - 0.25) <= ATOL, sound))
        ok = np.stack([np.all(uniform & sound, axis=-1) for *_, uniform, sound in passes], axis=1)
        if not ok.all():
            i, position = np.argwhere(~ok)[0].tolist()
            probs, mixed, kept, uniform, sound = (a[i] for a in passes[position])
            where = {"state_index": start + i, "loss_position": position}
            if not uniform.all():
                return _dumps({"property": "outcome-uniformity", **where, "probabilities": probs.tolist()})
            m = int(np.argmin(sound))  # the first readout mixed (refused here), off norm or unfaithful
            losscode.check_readout(float(probs[m]), float(mixed[m]))
            fid = float(np.abs(np.vdot(kept[m], encoded[i])) ** 2)  # as simcore.fidelity, bit for bit
            return _dumps({"property": "round-trip", **where, "outcome": OUTCOMES[m], "fidelity": fid,
                           "logical_real": logical[i].real.tolist(), "logical_imag": logical[i].imag.tolist()})
    return None


def cmd_verify(args) -> int:
    _checked(analytics.check_count, "--seed", args.seed, 0)
    _checked(analytics.check_count, "--states", args.states, 1, MAX_VERIFY_STATES + 1)
    if (args.qubit_loss is None) != (args.outcome is None):
        raise CliError("--qubit-loss and --outcome must be given together")
    if args.qubit_loss is not None:
        table = _checked(losscode.derive_correction_table, args.qubit_loss)
        if args.outcome not in OUTCOMES:
            raise CliError(f"--outcome must be one of {', '.join(OUTCOMES)}")
        word = table.entries[args.outcome]
        print(
            f"loss at qubit {args.qubit_loss}, ancilla outcome {args.outcome} "
            f"-> correction {word}"
        )
        return 0
    if args.list_tables:
        records = [rec for t in losscode.all_correction_tables() for rec in t.to_records()]
        sys.stdout.write(_dumps(records))
        return 0

    checks = [
        ("codeword-table", _check_codeword_table),
        ("correction-tables", _check_correction_tables),
        ("round-trip", lambda: _check_recovery(args.states, args.seed)),
    ]
    for name, check in checks:
        try:
            failure = check()
        except (RecoveryError, TableDerivationError) as exc:
            failure = _dumps({"property": name, "error": str(exc)})
        if failure is not None:
            print(f"FAIL {name}")
            sys.stderr.write(failure)
            return 1
        print(f"PASS {name}")
    return 0


# ---------------------------------------------------------------------------
# sweeps


def _check_rows(rows: int) -> None:
    """Refuse a sweep of more than MAX_SWEEP_ROWS rows before any array is built."""
    if rows > MAX_SWEEP_ROWS:
        raise CliError(f"sweep of {rows} rows exceeds the limit of {MAX_SWEEP_ROWS}")


def _grid(lo: float, hi: float, steps: int, log: bool, name: str) -> np.ndarray:
    _checked(analytics.check_count, f"{name}: steps", steps, 2)
    if not lo < hi:
        raise CliError(f"{name}: need lo < hi, got [{lo}, {hi}]")
    for side, bound in (("lo", lo), ("hi", hi)):
        _checked(analytics.check_real, f"{name}: {side}", bound, -math.inf, math.inf)
    if log:
        if lo <= 0:
            raise CliError(f"{name}: log grid needs lo > 0")
        return np.exp(np.linspace(math.log(lo), math.log(hi), steps))
    return np.linspace(lo, hi, steps)


def cmd_sweep_r(args) -> int:
    _check_rows(args.x_steps * args.pt_steps)
    xs = _grid(args.x_lo, args.x_hi, args.x_steps, log=True, name="x range")
    pts = _grid(args.pt_lo, args.pt_hi, args.pt_steps, log=False, name="p_t range")
    pt_list = pts.tolist()
    grid = _checked(analytics.r, xs[:, None], pts[None, :])
    contour = analytics.break_even_pt(xs)
    x_star, pt_star = analytics.min_break_even_pt()

    if args.format == "csv":
        # _csv's bytes, streamed one x at a time with no list over the x axis: one % per x
        template = [""] + [f",{_fmt(pt)},%.17g\n" for pt in pt_list]
        rows = (_fmt(x).join(template) % tuple(r_row.tolist()) for x, r_row in zip(xs, grid))
        _emit(itertools.chain(["x,p_t,r\n"], rows), args.out, f"{grid.size} rows")
        points = map("%.17g,%.17g\n".__mod__, zip(xs, contour))
        _emit(itertools.chain(["x,p_t\n"], points), str(Path(args.out).with_suffix(".contour.csv")),
              "r = 1 contour")
    else:
        # _dumps' bytes (sorted keys, indent 2), streamed: one % per contour point and per x row
        head = ('{\n  "contour_minimum": {\n    "p_t": %s,\n    "x": %s\n  },\n  "contour_r_equals_1": [\n'
                % (_json_number(pt_star), _json_number(x_star)))
        points = ('    {\n      "p_t": %s,\n      "x": %s\n    }' % (_json_number(pt), _json_number(x))
                  for x, pt in zip(map(float, xs), map(float, contour)))
        # a grid entry ends in its row's x: the p_t axis' entries joined by the x and a close
        entries = [f'    {{\n      "p_t": {_json_number(pt)},\n      "r": %s,\n      "x": ' for pt in pt_list]
        rows = (((x + "\n    },\n").join(entries) + x + "\n    }") % tuple(map(_json_number, r_row.tolist()))
                for x, r_row in zip(map(_json_number, map(float, xs)), grid))
        _emit(itertools.chain([head], _json_items(points), ['\n  ],\n  "grid": [\n'], _json_items(rows),
                              ["\n  ]\n}\n"]), args.out)
    print(f"r = 1 contour minimum: p_t = {_fmt(pt_star)} at x = {_fmt(x_star)}")
    return 0


def cmd_sweep_pt(args) -> int:
    etas = tuple(args.eta) if args.eta else SWEEP_PT_ETAS
    _check_rows(args.n_steps * len(etas))
    n_axis = _grid(args.n_lo, args.n_hi, args.n_steps, log=True, name="n range")
    ns = sorted(set(int(round(v)) for v in n_axis))
    grid = [_checked(TransponderParams, alpha=0.0, d=0.0, n=n, eta=eta) for n in ns for eta in etas]
    rows = [(params.n, float(params.eta), analytics.p_t_full(params)) for params in grid]
    reference = analytics.min_break_even_pt()[1]

    if args.format == "csv":
        _emit([_csv("n,eta,p_t_full", rows)], args.out, f"{len(rows)} rows")
    else:
        payload = {
            "grid": [{"n": n, "eta": eta, "p_t_full": pt} for n, eta, pt in rows],
            "reference_p_t": reference,
        }
        _emit([_dumps(payload)], args.out)
    print(f"reference line: p_t = {_fmt(reference)}")
    return 0


# ---------------------------------------------------------------------------
# chain / loop


def _threshold_report() -> dict:
    x_star, pt_star = analytics.min_break_even_pt()
    n_star = analytics.threshold_n()
    return {
        "threshold_n": n_star,
        "ancilla_qubits_per_gate": 2 * n_star,
        "p_t_at_threshold": analytics.p_t_aggregate(n_star),
        "required_p_t": pt_star,
        "optimal_x": x_star,
    }


def _run_report(args, config: chainsim.ChainConfig, workers: int, run, analytic) -> int:
    """Run the configured simulation and write its report with the closed forms beside it."""
    report = {
        "command": args.command,
        "mode": config.mode,
        "seed": config.seed,
        "params": asdict(config.params),
        "p_t_override": config.p_t_override,
        "empirical": run(config, workers=workers).to_dict(),
        "analytic": analytic(config),
    }
    _emit([_dumps(report)], args.out, "report")
    return 0


def cmd_chain(args) -> int:
    config, workers = _build_run_config(args, _load_config(args.config)), _workers()  # read before --threshold
    if args.threshold:
        return cmd_threshold(args)
    return _run_report(args, config, workers, chainsim.run_chain, chainsim.analytic_chain)


def cmd_loop(args) -> int:
    config = _build_run_config(args, _load_config(args.config))
    return _run_report(args, config, _workers(), chainsim.run_loop, chainsim.analytic_loop)


# ---------------------------------------------------------------------------
# resources / threshold


_RESOURCE_COLUMNS = ("spg", "qnd", "cnot", "cz", "one_qubit", "pd")


def cmd_resources(args) -> int:
    levels = analytics.REDUCTION_LEVELS if args.all else (args.level,)
    counts = [_checked(analytics.resources, args.n, level) for level in levels]
    header = ("level",) + _RESOURCE_COLUMNS
    table = [header] + [
        (c.reduction_level,) + tuple(str(getattr(c, col)) for col in _RESOURCE_COLUMNS)
        for c in counts
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    print(f"per-transponder hardware at n = {args.n}")
    for row in table:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    if args.out is not None:
        _emit([_dumps([c.as_dict() | {"n": args.n} for c in counts])], args.out, "report")
    return 0


def cmd_threshold(args) -> int:
    report = _threshold_report()
    print(f"break-even ancilla count: n = {report['threshold_n']}")
    print(f"each teleported two-qubit gate then consumes "
          f"{report['ancilla_qubits_per_gate']} ancilla qubits")
    print(f"p_t at n = {report['threshold_n']}: {_fmt(report['p_t_at_threshold'])}")
    print(f"minimum usable p_t: {_fmt(report['required_p_t'])} "
          f"at x = {_fmt(report['optimal_x'])}")
    if args.out is not None:
        _emit([_dumps(report)], args.out, "report")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat JSON file of run parameters")
    sub.add_argument("--trials", type=int, help="Monte Carlo trials")
    sub.add_argument("--seed", type=int, default=None, help="run seed (default 42)")
    sub.add_argument("--mode", choices=MODES, default=None, help="gate failure model")
    sub.add_argument("--out", help="write the JSON report here instead of stdout")


@cache  # one parser per process, shared by every caller: parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossguard",
        description="Loss-code recovery checks, attenuation sweeps, and "
        "transponder chain simulations.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("verify", help="run the recovery self-checks")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--states", type=int, default=20, help="random inputs to test")
    p.add_argument("--qubit-loss", type=int, default=None, help="report the correction for this lost qubit")
    p.add_argument("--outcome", default=None, help="ancilla readout bits, e.g. 01")
    p.add_argument("--list-tables", action="store_true", help="dump all correction tables as JSON")
    p.set_defaults(func=cmd_verify)

    p = subparsers.add_parser("sweep-r", help="grid of the attenuation ratio r(x, p_t)")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--x-lo", type=float, default=0.01)
    p.add_argument("--x-hi", type=float, default=3.0)
    p.add_argument("--x-steps", type=int, default=300)
    p.add_argument("--pt-lo", type=float, default=0.5)
    p.add_argument("--pt-hi", type=float, default=1.0)
    p.add_argument("--pt-steps", type=int, default=200)
    p.set_defaults(func=cmd_sweep_r)

    p = subparsers.add_parser("sweep-pt", help="transponder success vs. ancilla count")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--n-lo", type=int, default=1)
    p.add_argument("--n-hi", type=int, default=1000)
    p.add_argument("--n-steps", type=int, default=200)
    p.add_argument(
        "--eta",
        type=float,
        action="append",
        help="detector efficiency (repeatable; default four standard curves)",
    )
    p.set_defaults(func=cmd_sweep_pt)

    p = subparsers.add_parser("chain", help="Monte Carlo over a transponder chain")
    _add_run_flags(p)
    p.add_argument("--stages", type=int, dest="num_stages", metavar="STAGES", help="stages in the chain")
    p.add_argument(
        "--threshold",
        action="store_true",
        help="print the break-even ancilla count instead of simulating",
    )
    p.set_defaults(func=cmd_chain)

    p = subparsers.add_parser("loop", help="Monte Carlo over the cyclic fiber memory")
    _add_run_flags(p)
    p.add_argument("--max-cycles", type=int, help="censoring cap per trial")
    p.set_defaults(func=cmd_loop)

    p = subparsers.add_parser("resources", help="per-transponder hardware table")
    p.add_argument("--level", choices=analytics.REDUCTION_LEVELS, default="iii")
    p.add_argument("--n", type=int, default=1, help="ancilla pairs per teleported gate")
    p.add_argument("--all", action="store_true", help="print every reduction level")
    p.add_argument("--out", help="also write the rows as JSON")
    p.set_defaults(func=cmd_resources)

    p = subparsers.add_parser("threshold", help="break-even ancilla count")
    p.add_argument("--out", help="also write the report as JSON")
    p.set_defaults(func=cmd_threshold)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore"):  # an overflow reads inf, the IEEE answer, with no warning
            return args.func(args)
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
