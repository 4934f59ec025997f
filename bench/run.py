"""lossguard benchmark: one workload per run, closed loop, one caller, workers=1.

    python3 bench/run.py --workload chain_wide --seed 1 --seconds 12 --trace 0

Run it from anywhere; it imports the package from the ``src/`` directory
next to this one and writes scratch files to ``.bench_out/`` there.  With
``--trace 0`` it measures the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it replays a fixed number of rounds untraced and then traced
and reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the run manifest, the raw wall-clock
timings and a readable table.  Exit code 0 means every correctness check
passed, 1 that one failed, 2 that the run could not start.  ``--smoke``
shrinks every size, for the benchmark's own tests.

End-to-end times are reported at a fixed reference machine speed: a small
calibration kernel runs before and after every timed call, and each call's
wall time is scaled by ``CALIBRATION_REF_S`` over the median kernel time
within ``CALIBRATION_WINDOW_S`` of it.  On a shared host the speed of a
virtual CPU drifts by 25-40% between runs; the scaled figures of repeated
short calls drift by a few percent.  The raw wall times are printed on the
``timing`` line.  BLAS runs on one thread, like the single caller.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 2  # fresh interpreters timed besides the run's own set-up
MIN_ROUNDS = 4
TAIL_REPEATS = 3  # verify and sweep-r samples on workloads whose rounds lack them
TAIL_DEADLINE_S = 90.0  # after this long, a stalled host gets no further tail repeats
CALIBRATION_REF_S = 0.006  # kernel time that defines the reference speed
CALIBRATION_WINDOW_S = 2.0  # kernels this close to a call set its speed
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLI_COMMANDS = ("verify", "sweep-r", "sweep-pt", "threshold", "chain")


def calibration_kernel() -> float:
    """Median seconds of three runs of a fixed mix of the kinds of work the
    workloads do: LAPACK and matrix products on 64x64 complex matrices, many
    small-array numpy calls, and interpreter-bound allocation.  The median
    keeps a single stall of the host from reading as a slow machine."""
    import numpy as np

    rng = np.random.default_rng(0)
    c = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    h = c + c.conj().T
    v = c[0, :16]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(7):
            np.linalg.eigvalsh(h)
        for _ in range(14):
            h @ h
        for _ in range(500):
            np.abs(v) ** 2
            rng.random(4)
        pairs = [(i, i * i) for i in range(7_000)]
        del pairs
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_setup(tracer=None) -> tuple[float, float, object]:
    """Import lossguard and finish its lazy set-up; return (import_s, tables_s, package)."""
    start = time.perf_counter()
    import lossguard

    imported = time.perf_counter()
    if tracer is not None:
        tracer.install(lossguard)
        tracer.call_id = 0
    lossguard.losscode.all_correction_tables()
    lossguard.losscode.codewords()
    done = time.perf_counter()
    if tracer is not None:
        tracer.call_id = None
        tracer.uninstall()
        tracer.end_setup()
    return imported - start, done - imported, lossguard


def probe_setup() -> list[dict]:
    """Time set-up in a fresh interpreter, as a user's first call pays it.
    A probe that a stalled host keeps past its timeout yields no sample."""
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            capture_output=True, text=True, cwd=ROOT, timeout=30, check=True,
        )
    except subprocess.TimeoutExpired:
        return []
    return [json.loads(proc.stdout.splitlines()[-1])]


def setup_sample(import_s: float, tables_s: float) -> dict:
    return {"import_s": import_s, "tables_s": tables_s, "kernel_s": calibration_kernel()}


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree; never looks above ROOT."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"p25 {q1:.6g}  p75 {q3:.6g}  n={len(values)}"


class Runner:
    """Runs calls, records their times and outcomes, and tallies failures."""

    def __init__(self, workload, tracer=None, calibrate: bool = False) -> None:
        self.workload = workload
        self.tracer = tracer
        self.calibrate = calibrate
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.pools: dict[str, list] = {}
        self.bytes_out = 0
        self.timed: list[tuple[str, float, float, int]] = []  # (label, start, end, trials)
        self.marks: list[tuple[float, float]] = []  # (time, calibration kernel seconds)
        self._call_id = 0

    def fail(self, label: str, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(f"{self.workload.name} {label}: {message}")

    def _mark(self) -> None:
        at = time.perf_counter()
        self.marks.append((at, calibration_kernel()))

    def _invoke(self, call, tracer):
        if tracer is None:
            return call.run()
        tracer.call_id = self._call_id
        try:
            if call.label.startswith("cli."):
                with tracer.span(call.label):
                    return call.run()
            return call.run()
        finally:
            tracer.call_id = None

    def run_round(self, calls, traced: bool = False) -> tuple[list[tuple], list]:
        """Run and check one round of calls; return ([(label, start, end, trials)], outcomes)."""
        tracer = self.tracer if traced else None
        timed, outcomes = [], []
        for call in calls:
            self.attempted += 1
            self._call_id += 1
            if self.calibrate and not self.marks:
                self._mark()
            outcome = None
            start = time.perf_counter()
            try:
                outcome = self._invoke(call, tracer)
            except Exception as exc:  # a raising call is a failed call, not a crash
                self.fail(call.label, f"raised {type(exc).__name__}: {exc}")
            end = time.perf_counter()
            if self.calibrate:
                self._mark()
            timed.append((call.label, start, end, call.trials))
            outcomes.append(outcome)
            if outcome is not None:
                self._check(call, outcome, traced)
        self.timed += timed
        return timed, outcomes

    def scaled(self, start: float, end: float) -> float:
        """A call's time at the reference speed: its wall time times
        CALIBRATION_REF_S over the median kernel time measured within
        CALIBRATION_WINDOW_S of it."""
        kernels = [k for at, k in self.marks
                   if start - CALIBRATION_WINDOW_S <= at <= end + CALIBRATION_WINDOW_S]
        return (end - start) * CALIBRATION_REF_S / statistics.median(kernels)

    def _check(self, call, outcome, traced: bool) -> None:
        if traced:
            self.bytes_out += getattr(outcome, "bytes_out", 0)
        try:
            problem = call.check(outcome)
        except Exception as exc:  # unreadable output fails the check
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            self.fail(call.label, problem)
        elif call.pool is not None and not traced:
            self.pools.setdefault(call.pool, []).append(outcome)

    def check_pools(self) -> None:
        for pool, problem in self.workload.pooled(self.pools):
            if problem is not None:
                self.fail(pool, problem, count=len(self.pools.get(pool, [])))


def input_stream(seed: int, stream: int):
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def measure(args, workload, setups: list[dict]) -> tuple[dict, dict, Runner]:
    """Untraced run: rounds for --seconds (at least MIN_ROUNDS), then the tail."""
    runner = Runner(workload, calibrate=True)
    inputs = input_stream(args.seed, 1)
    rounds = []
    min_rounds = 1 if args.smoke else MIN_ROUNDS
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
        rounds.append(runner.run_round(workload.round_calls(inputs))[0])
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_inputs = input_stream(args.seed, 2)
    for repeat in range(1 if args.smoke else TAIL_REPEATS):
        if repeat and time.perf_counter() - STARTED > TAIL_DEADLINE_S:
            break
        runner.run_round(workload.tail_calls(tail_inputs))
    runner.check_pools()

    def per_label(label: str, scale: bool = True) -> list[float]:
        return [runner.scaled(a, b) if scale else b - a
                for name, a, b, _ in runner.timed if name == label]

    scaled_rounds = [[(runner.scaled(a, b), n) for _, a, b, n in calls] for calls in rounds]
    samples = {
        "setup_s": [
            (s["import_s"] + s["tables_s"]) * CALIBRATION_REF_S / s["kernel_s"] for s in setups
        ],
        "wall_s": [sum(t for t, _ in calls) for calls in scaled_rounds],
        "trials_per_s": [
            sum(n for _, n in calls) / sum(t for t, n in calls if n)
            for calls in scaled_rounds if any(n for _, n in calls)
        ],
        "verify_s": per_label("cli.verify"),
        "sweep_r_s": per_label("cli.sweep-r"),
        "peak_rss_mb": [peak_rss_mb],
    }
    metrics = {name: median(values) for name, values in samples.items()}
    metrics["ok_ratio"] = (runner.attempted - runner.failed) / max(runner.attempted, 1)
    timing = {
        "rounds": len(rounds),
        "measured_s": measured_s,
        "untraced_wall_s": median([sum(b - a for _, a, b, _ in calls) for calls in rounds]),
        "verify_wall_s": median(per_label("cli.verify", scale=False)),
        "sweep_r_wall_s": median(per_label("cli.sweep-r", scale=False)),
        "setup_wall_s": median([s["import_s"] + s["tables_s"] for s in setups]),
        "kernel_s": median([k for _, k in runner.marks]),
    }
    return metrics, {"samples": samples, "timing": timing}, runner


def layer_metrics(tracer, overhead_s: float, setup: dict) -> dict[str, float]:
    """Per-layer metrics of the traced rounds.  Set-up spans feed only
    losscode.derive_correction_table.s; a boundary the package no longer
    has reads 0 and is listed in the manifest's absent_boundaries."""
    calls, total, self_s, counts = tracer.calls, tracer.total_s, tracer.self_s, tracer.counts

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    m: dict[str, float] = {}
    m["chainsim.self_s"] = self_s["chainsim.run_chain"] + self_s["chainsim.run_loop"]
    m["chainsim.trials"] = counts["trials"]
    decodes = tracer.child_calls[("chainsim.run_chain", "losscode.decode")]
    m["chainsim.fidelity_hit_ratio"] = 1.0 - ratio(decodes, counts["survivors"]) if counts["survivors"] else 0.0
    m["channel.stage.calls"] = calls["channel.stage"]
    m["channel.stage.self_s"] = self_s["channel.stage"]
    for name in ("channel.transmit_segment", "channel.gates_succeed"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
    for status in ("intact", "corrected", "failed_multi_loss", "failed_gates"):
        m[f"channel.status.{status}"] = counts[f"status.{status}"]
    m["channel.stage.success_ratio"] = ratio(
        counts["status.intact"] + counts["status.corrected"], calls["channel.stage"]
    )
    recovery = "losscode.recovery_branches"
    m[f"{recovery}.calls"] = calls[recovery]
    m[f"{recovery}.s"] = total[recovery]
    corrected = counts["status.corrected"]
    m["losscode.recovery_hit_ratio"] = (
        1.0 - calls[recovery] / corrected if corrected and recovery not in tracer.absent else 0.0
    )
    for name in ("losscode.decode", "losscode.recover_forced", "losscode.outcome_probabilities"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
    derive = "losscode.derive_correction_table"
    m[f"{derive}.s"] = tracer.setup_total_s.get(derive, 0.0) + total[derive]
    for name in ("simcore.DensityMatrix", "simcore.pure_from_density",
                 "simcore.apply_gate_dm", "simcore.fidelity"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
    m["analytics.r.calls"] = calls["analytics.r"]
    m["analytics.r.points"] = counts["r.points"]
    m["analytics.r.s"] = total["analytics.r"]
    m["analytics.break_even_pt.calls"] = calls["analytics.break_even_pt"]
    m["analytics.break_even_pt.s"] = total["analytics.break_even_pt"]
    m["analytics.min_break_even_pt.s"] = total["analytics.min_break_even_pt"]
    m["analytics.threshold_n.s"] = total["analytics.threshold_n"]
    m["analytics.p_t_full.calls"] = calls["analytics.p_t_full"]
    m["analytics.p_t_full.s"] = total["analytics.p_t_full"]
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = total[f"cli.{command}"]
    m["cli.self_s"] = sum(self_s[f"cli.{c}"] for c in CLI_COMMANDS)
    m["setup.import_s"] = setup["import_s"]
    m["setup.tables_s"] = setup["tables_s"]
    m["trace.overhead_s"] = overhead_s
    return m


def fingerprint(outcome) -> str:
    if hasattr(outcome, "to_dict"):
        return repr(outcome.to_dict())
    return repr((outcome.code, outcome.stdout))


def traced_run(args, workload, lossguard, setup: dict, tracer):
    """Replay the first traced_rounds rounds untraced, then traced, with the
    same inputs, so per-layer counts repeat exactly at one seed."""
    runner = Runner(workload, tracer)
    inputs = input_stream(args.seed, 1)
    rounds = [workload.round_calls(inputs) for _ in range(workload.sizes.traced_rounds)]
    untraced = [runner.run_round(calls) for calls in rounds]
    runner.check_pools()
    tracer.install(lossguard)
    try:
        traced = [runner.run_round(calls, traced=True) for calls in rounds]
    finally:
        tracer.uninstall()
    for (_, first), (_, second) in zip(untraced, traced):
        for a, b in zip(first, second):
            if a is not None and b is not None and fingerprint(a) != fingerprint(b):
                runner.fail("trace", "traced call returned a different result")

    def wall(timed) -> float:
        return sum(end - start for _, start, end, _ in timed)

    untraced_wall = median([wall(timed) for timed, _ in untraced])
    traced_wall = median([wall(timed) for timed, _ in traced])
    metrics = layer_metrics(tracer, traced_wall - untraced_wall, setup)
    metrics["cli.bytes_out"] = runner.bytes_out
    traced_total = sum(wall(timed) for timed, _ in traced)
    timing = {
        "rounds": len(rounds),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "traced_total_s": traced_total,
    }
    return metrics, {"timing": timing, "shares": shares(tracer, traced_total)}, runner


def shares(tracer, traced_total: float) -> dict[str, float]:
    """Self time of each traced boundary as a share of the traced wall time."""
    if traced_total <= 0:
        return {}
    ranked = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
    return {name: round(value / traced_total, 4) for name, value in ranked
            if value / traced_total >= 0.005}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy loads: on a two-core host a second
    # BLAS thread spins against the caller, doubling the CPU a call burns and
    # making its time depend on what else the host runs.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "lossguard" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: need {spec_path} and the lossguard sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps(setup_sample(*timed_setup()[:2])))
        return 0
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")

    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    import_s, tables_s, lossguard = timed_setup(tracer)
    if not Path(lossguard.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported lossguard from {lossguard.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setups = [setup_sample(import_s, tables_s)]

    import numpy as np
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.smoke, str(OUT_DIR))
    if args.trace:
        metrics, extra, runner = traced_run(args, workload, lossguard, setups[0], tracer)
        declared = spec["per_layer"]
    else:
        for _ in range(0 if args.smoke else SETUP_PROBES):
            setups += probe_setup()
        metrics, extra, runner = measure(args, workload, setups)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "lossguard": getattr(lossguard, "__version__", "unknown"),
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "workers": 1,
        "callers": 1,
        "blas_threads": 1,
        "trials_per_call": workload.sizes.trials or workload.sizes.cli_chain_trials,
        "calls_per_round": [c.label for c in workload.round_calls(input_stream(args.seed, 1))],
        "traced_rounds": workload.sizes.traced_rounds if args.trace else 0,
        "tail_calls": [] if args.trace else [c.label for c in workload.tail_calls(input_stream(0, 2))],
        "calibration_ref_s": CALIBRATION_REF_S,
        "absent_boundaries": tracer.absent if tracer else [],
    }
    if tracer is not None:
        trace_path = OUT_DIR / f"trace-{args.workload}.jsonl"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed})
        manifest["trace_file"] = str(trace_path.relative_to(ROOT))
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print("timing " + json.dumps(extra["timing"], sort_keys=True))
    if "shares" in extra:
        print("shares " + json.dumps(extra["shares"]))
    samples = extra.get("samples", {})
    for m in declared:
        name = m["name"]
        print(f"  {args.workload:<14} {name:<36} {metrics[name]:<14.6g} {m['unit']:<9} "
              f"{quartiles(samples[name]) if name in samples else ''}")
    if not args.trace:
        print(f"  {args.workload:<14} {'failed_ratio':<36} "
              f"{runner.failed / max(runner.attempted, 1):<14.6g} {'ratio':<9} "
              f"failed {runner.failed} of {runner.attempted} calls")
    for error in runner.errors:
        print(f"FAIL {error}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
