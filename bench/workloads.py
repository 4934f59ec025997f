"""The benchmark's workloads: the calls each one makes and how each is checked.

Every call's seed and Haar-random logical input are drawn here from the
benchmark's own seed; lossguard receives only the generated inputs.  The
correctness checks are statistical (|z| <= 4 against the closed forms) or
exact anchors from the paper, never byte digests, so they survive a
declared change of the program's random stream.  README.md in this
directory says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import lossguard
from lossguard import analytics, cli

Z_LIMIT = 4.0
FIDELITY_FLOOR = 1.0 - 1e-10
EXACT_TOL = 1e-12
THRESHOLD_N = 56
CONTOUR_MIN_PT = 0.75
CONTOUR_MIN_X = math.log(1.5)
CONTOUR_TOL = 1e-6

# The paper / CLI default point, a high-fidelity point where most blocks
# cross ten stations, and a short loop where per-device gate coins dominate.
PAPER = dict(alpha=1.0 / 30.0, d=10.0, n=160, eta=1.0 - 1e-5)
DEEP = dict(alpha=1.0 / 30.0, d=3.0, n=1000, eta=1.0)
LOOP = dict(alpha=1.0 / 30.0, d=1.0, n=160, eta=1.0 - 1e-5)

VERIFY_PASS_LINES = 3
SWEEP_R_GRID = (300, 200)  # sweep-r defaults: x steps, p_t steps


@dataclass
class Call:
    """One call into lossguard: `run` does the timed work, `check` judges it."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    trials: int = 0
    pool: str | None = None  # outcomes of calls sharing a pool are tested together


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    bytes_out: int


@dataclass
class Sizes:
    trials: int  # Monte Carlo trials per call (chain and loop workloads)
    traced_rounds: int
    verify_states: int = 20
    sweep_r: tuple[int, int] = SWEEP_R_GRID
    sweep_pt_steps: int = 200
    cli_chain_trials: int = 20_000


@dataclass
class Workload:
    name: str
    sizes: Sizes
    out_dir: str
    make_round: Callable[["Workload", np.random.Generator], list[Call]]
    pooled: Callable[[dict[str, list]], list[tuple[str, str | None]]]
    tail: bool = True  # time verify and sweep-r after the rounds, which lack them

    def round_calls(self, rng: np.random.Generator) -> list[Call]:
        return self.make_round(self, rng)

    def tail_calls(self, rng: np.random.Generator) -> list[Call]:
        if not self.tail:
            return []
        return [verify_call(self, rng), sweep_r_call(self)]


# -- inputs -----------------------------------------------------------------


def draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def haar_logical(rng: np.random.Generator) -> lossguard.PureState:
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return lossguard.PureState(2, vec / np.linalg.norm(vec))


# -- statistics ---------------------------------------------------------------


def binomial_z(successes: int, trials: int, q: float) -> float:
    spread = math.sqrt(trials * q * (1.0 - q))
    diff = successes - trials * q
    return diff / spread if spread > 0 else (0.0 if diff == 0 else math.inf)


def stage_success(params: dict) -> float:
    """Closed-form per-stage success p_f * p_t at one parameter point."""
    p = analytics.survival_prob(params["alpha"], params["d"])
    return analytics.p_f(p) * analytics.p_t_full(lossguard.TransponderParams(**params))


def z_failure(what: str, z: float) -> str | None:
    return None if abs(z) <= Z_LIMIT else f"{what}: |z| = {abs(z):.2f} > {Z_LIMIT}"


# -- chain and loop workloads ---------------------------------------------------


def _check_chain(stats, trials: int, stages: int) -> str | None:
    if stats.trials != trials or stats.num_stages != stages:
        return f"chain stats report {stats.trials} trials x {stats.num_stages} stages"
    for name in ("per_stage_success_rate", "end_to_end_success"):
        value = getattr(stats, name)
        if not 0.0 <= value <= 1.0:
            return f"{name} = {value!r} outside [0, 1]"
    if stats.end_to_end_success > stats.per_stage_success_rate:
        return "end-to-end success exceeds first-stage success"
    if stats.end_to_end_success > 0 and not stats.mean_fidelity_given_success >= FIDELITY_FLOOR:
        return f"mean fidelity of survivors {stats.mean_fidelity_given_success!r} < 1 - 1e-10"
    return None


def _chain_call(params: dict, stages: int, trials: int, rng: np.random.Generator) -> Call:
    config = lossguard.ChainConfig(
        params=lossguard.TransponderParams(**params),
        num_stages=stages,
        trials=trials,
        seed=draw_seed(rng),
    )
    logical = haar_logical(rng)
    return Call(
        label="run_chain",
        run=lambda: lossguard.run_chain(config, logical, workers=1),
        check=lambda stats: _check_chain(stats, trials, stages),
        trials=trials,
        pool="run_chain",
    )


def _chain_wide_round(w: Workload, rng) -> list[Call]:
    return [_chain_call(PAPER, 1, w.sizes.trials, rng)]


def _chain_wide_pooled(pools):
    outcomes = pools.get("run_chain", [])
    ok = sum(round(s.per_stage_success_rate * s.trials) for s in outcomes)
    n = sum(s.trials for s in outcomes)
    z = binomial_z(ok, n, stage_success(PAPER))
    return [("run_chain", z_failure("per-stage success vs p_f*p_t", z))]


def _chain_deep_round(w: Workload, rng) -> list[Call]:
    return [_chain_call(DEEP, 10, w.sizes.trials, rng)]


def _chain_deep_pooled(pools):
    outcomes = pools.get("run_chain", [])
    ok = sum(round(s.end_to_end_success * s.trials) for s in outcomes)
    n = sum(s.trials for s in outcomes)
    z = binomial_z(ok, n, stage_success(DEEP) ** 10)
    return [("run_chain", z_failure("end-to-end success vs (p_f*p_t)^10", z))]


def _loop_config(trials: int, seed: int):
    return lossguard.ChainConfig(
        params=lossguard.TransponderParams(**LOOP), trials=trials, seed=seed, mode="per_gate"
    )


def _check_loop(stats, trials: int) -> str | None:
    if stats.trials != trials:
        return f"loop stats report {stats.trials} trials"
    if stats.censored_fraction != 0.0:
        return f"loop reached its cycle cap in {stats.censored_fraction!r} of trials"
    if not stats.mean_cycles >= 0.0:
        return f"mean cycles {stats.mean_cycles!r}"
    return None


def _loop_round(w: Workload, rng) -> list[Call]:
    trials = w.sizes.trials
    config = _loop_config(trials, draw_seed(rng))
    return [
        Call(
            label="run_loop",
            run=lambda: lossguard.run_loop(config, workers=1),
            check=lambda stats: _check_loop(stats, trials),
            trials=trials,
            pool="run_loop",
        )
    ]


def _loop_pooled(pools):
    outcomes = pools.get("run_loop", [])
    n = sum(s.trials for s in outcomes)
    if n == 0:
        return []
    mean = sum(round(s.mean_cycles * s.trials) for s in outcomes) / n
    mu = lossguard.chainsim.analytic_loop_mean_cycles(_loop_config(1, 0))
    # surviving cycles are geometric: variance q/(1-q)^2 = mu (1 + mu)
    z = (mean - mu) / math.sqrt(mu * (1.0 + mu) / n)
    return [("run_loop", z_failure("mean cycles vs analytic_loop_mean_cycles", z))]


# -- CLI workload ---------------------------------------------------------------


def run_cli(argv: list[str], files: tuple[str, ...] = ()) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    written = sum(os.path.getsize(p) for p in files if os.path.exists(p))
    return CliResult(code, text, err.getvalue(), len(text.encode()) + written)


def _cli_exit(res: CliResult) -> str | None:
    if res.code != 0:
        return f"exit code {res.code}: {res.stderr.strip()[:200]}"
    return None


def _check_verify(res: CliResult) -> str | None:
    if (bad := _cli_exit(res)) is not None:
        return bad
    lines = res.stdout.splitlines()
    passed = [line for line in lines if line.startswith("PASS ")]
    if len(passed) != VERIFY_PASS_LINES or len(passed) != len(lines):
        return f"verify printed {lines!r}"
    return None


def verify_call(w: Workload, rng) -> Call:
    argv = ["verify", "--seed", str(draw_seed(rng)), "--states", str(w.sizes.verify_states)]
    return Call("cli.verify", lambda: run_cli(argv), _check_verify)


def _relative_error(got: np.ndarray, want) -> float:
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)), initial=0.0))


def _read_csv(path: str, header: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{os.path.basename(path)} header {first!r}, expected {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _check_sweep_r(res: CliResult, out: str, grid: tuple[int, int]) -> str | None:
    if (bad := _cli_exit(res)) is not None:
        return bad
    rows = _read_csv(out, "x,p_t,r")
    if rows.shape != (grid[0] * grid[1], 3):
        return f"sweep-r wrote {rows.shape[0]} rows, expected {grid[0] * grid[1]}"
    if (err := _relative_error(rows[:, 2], analytics.r(rows[:, 0], rows[:, 1]))) > EXACT_TOL:
        return f"sweep-r rows differ from analytics.r by {err!r}"
    contour = _read_csv(out[: -len(".csv")] + ".contour.csv", "x,p_t")
    if (err := _relative_error(contour[:, 1], analytics.break_even_pt(contour[:, 0]))) > EXACT_TOL:
        return f"sweep-r contour differs from analytics.break_even_pt by {err!r}"
    last = res.stdout.splitlines()[-1]
    prefix = "r = 1 contour minimum: p_t = "
    if not last.startswith(prefix):
        return f"sweep-r summary line {last!r}"
    pt_star, x_star = (float(v) for v in last[len(prefix):].split(" at x = "))
    if abs(pt_star - CONTOUR_MIN_PT) > CONTOUR_TOL or abs(x_star - CONTOUR_MIN_X) > CONTOUR_TOL:
        return f"contour minimum p_t = {pt_star!r} at x = {x_star!r}, expected 0.75 at ln 1.5"
    if contour[:, 1].min() < pt_star - EXACT_TOL:
        return "a contour grid point lies below the reported minimum"
    return None


def sweep_r_call(w: Workload) -> Call:
    out = os.path.join(w.out_dir, "sweep_r.csv")
    x_steps, pt_steps = w.sizes.sweep_r
    argv = ["sweep-r", "--out", out, "--x-steps", str(x_steps), "--pt-steps", str(pt_steps)]
    contour = out[: -len(".csv")] + ".contour.csv"
    return Call(
        "cli.sweep-r",
        lambda: run_cli(argv, (out, contour)),
        lambda res: _check_sweep_r(res, out, w.sizes.sweep_r),
    )


def _check_sweep_pt(res: CliResult, out: str) -> str | None:
    if (bad := _cli_exit(res)) is not None:
        return bad
    rows = _read_csv(out, "n,eta,p_t_full")
    if rows.shape[0] == 0:
        return "sweep-pt wrote no rows"
    want = [
        analytics.p_t_full(lossguard.TransponderParams(alpha=0.0, d=0.0, n=int(n), eta=eta))
        for n, eta, _ in rows
    ]
    if (err := _relative_error(rows[:, 2], want)) > EXACT_TOL:
        return f"sweep-pt rows differ from analytics.p_t_full by {err!r}"
    return None


def _check_threshold(res: CliResult) -> str | None:
    if (bad := _cli_exit(res)) is not None:
        return bad
    if f"break-even ancilla count: n = {THRESHOLD_N}" not in res.stdout.splitlines():
        return f"threshold did not report n = {THRESHOLD_N}: {res.stdout[:200]!r}"
    return None


def _check_cli_chain(res: CliResult, trials: int) -> str | None:
    if (bad := _cli_exit(res)) is not None:
        return bad
    empirical = json.loads(res.stdout)["empirical"]
    if empirical["trials"] != trials:
        return f"chain report has {empirical['trials']} trials"
    fid = empirical["mean_fidelity_given_success"]
    if empirical["end_to_end_success"] > 0 and not (fid is not None and fid >= FIDELITY_FLOOR):
        return f"mean fidelity of survivors {fid!r} < 1 - 1e-10"
    return None


def _cli_round(w: Workload, rng) -> list[Call]:
    s = w.sizes
    pt_out = os.path.join(w.out_dir, "sweep_pt.csv")
    pt_argv = ["sweep-pt", "--out", pt_out, "--n-steps", str(s.sweep_pt_steps)]
    chain_argv = ["chain", "--seed", str(draw_seed(rng)), "--trials", str(s.cli_chain_trials)]
    return [
        verify_call(w, rng),
        sweep_r_call(w),
        Call("cli.sweep-pt", lambda: run_cli(pt_argv, (pt_out,)),
             lambda res: _check_sweep_pt(res, pt_out)),
        Call("cli.threshold", lambda: run_cli(["threshold"]), _check_threshold),
        Call("cli.chain", lambda: run_cli(chain_argv),
             lambda res: _check_cli_chain(res, s.cli_chain_trials),
             trials=s.cli_chain_trials, pool="cli.chain"),
    ]


def _cli_pooled(pools):
    reports = [json.loads(res.stdout)["empirical"] for res in pools.get("cli.chain", [])]
    ok = sum(round(e["per_stage_success_rate"] * e["trials"]) for e in reports)
    n = sum(e["trials"] for e in reports)
    z = binomial_z(ok, n, stage_success(PAPER))
    return [("cli.chain", z_failure("chain per-stage success vs p_f*p_t", z))]


# -- registry -------------------------------------------------------------------

_SMOKE_CLI = dict(verify_states=2, sweep_r=(12, 8), sweep_pt_steps=10, cli_chain_trials=300)

# (full sizes, smoke sizes); the smoke sizes serve the benchmark's own tests.
SIZES = {
    "chain_wide": (Sizes(10_000, traced_rounds=3), Sizes(300, traced_rounds=1, **_SMOKE_CLI)),
    "chain_deep": (Sizes(200, traced_rounds=3), Sizes(20, traced_rounds=1, **_SMOKE_CLI)),
    "loop_per_gate": (Sizes(2_000, traced_rounds=3), Sizes(100, traced_rounds=1, **_SMOKE_CLI)),
    "cli_tools": (Sizes(0, traced_rounds=1), Sizes(0, traced_rounds=1, **_SMOKE_CLI)),
}

_DEFINITIONS = {
    "chain_wide": (_chain_wide_round, _chain_wide_pooled, True),
    "chain_deep": (_chain_deep_round, _chain_deep_pooled, True),
    "loop_per_gate": (_loop_round, _loop_pooled, True),
    "cli_tools": (_cli_round, _cli_pooled, False),
}

def make(name: str, smoke: bool, out_dir: str) -> Workload:
    make_round, pooled, tail = _DEFINITIONS[name]
    return Workload(name, SIZES[name][int(smoke)], out_dir, make_round, pooled, tail)
