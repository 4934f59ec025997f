"""Monte Carlo driver for transponder chains and cyclic-memory loops.

Both runs count how many trials survived exactly k stages (or cycles), and
the rates, the mean, its stderr and the censored fraction are read from
those counts; they also count each stage evaluation's status, next to its
expectation and z.  Every live trial runs stage (or cycle) k before any
runs k + 1, and each evaluation reads one `channel.stage` row, so at one
seed a loop capped at N cycles and an N-stage chain read the same rows.
Trials run in fixed chunks of `_CHUNK`, and each chunk draws
from one generator: chunk k uses the run seed's spawn key (k + 1,), while
key (0,) draws the logical input.  Chunk boundaries never depend on the
worker count, so results are reproducible bit for bit at any number of
workers.
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from lossguard import analytics, channel, losscode
from lossguard.analytics import TransponderParams, check_count, p_f, p_t_full
from lossguard.channel import MODE_AGGREGATE, MODE_PER_GATE, STATUSES, SegmentModel
from lossguard.losscode import DATA_QUBITS
from lossguard.simcore import PureState, random_state

_CHUNK = 5000  # fixed so chunk boundaries never depend on worker count


@dataclass(frozen=True)
class ChainConfig:
    """One Monte Carlo run over a chain of identical stages."""

    params: TransponderParams
    num_stages: int = 1
    trials: int = 10_000
    seed: int = 0
    mode: str = MODE_AGGREGATE
    p_t_override: float | None = None
    max_cycles: int = 1_000_000
    max_stage_evals: int = 50_000_000

    def __post_init__(self) -> None:
        for name in ("num_stages", "trials", "seed", "max_cycles", "max_stage_evals"):
            lo = 0 if name == "seed" else 1
            object.__setattr__(self, name, check_count(name, getattr(self, name), lo))
        channel.coin_bounds(self.params, self.mode, self.p_t_override)

    def effective_p_t(self) -> float:
        return channel.coin_bounds(self.params, MODE_AGGREGATE, self.p_t_override)[0]

    def stage_success(self) -> float:
        """Closed-form per-stage (or per-cycle) success p_f * p_t."""
        p = analytics.survival_prob(self.params.alpha, self.params.d)
        return p_f(p) * self.effective_p_t()


class _Report:
    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ChainStats(_Report):
    """Empirical summary of a chain run."""

    trials: int
    num_stages: int
    per_stage_success_rate: float
    per_stage_success_stderr: float
    end_to_end_success: float
    end_to_end_stderr: float
    mean_fidelity_given_success: float
    empirical_alpha_prime: float
    alpha_prime_is_censored: bool
    status_counts: dict[str, int] = field(hash=False)  # unhashable, so left out of the report's hash
    status_expected: dict[str, float] = field(hash=False)
    status_z: dict[str, float] = field(hash=False)


@dataclass(frozen=True)
class LoopStats(_Report):
    """Empirical summary of a cyclic-memory run."""

    trials: int
    mean_cycles: float
    mean_cycles_stderr: float
    censored_fraction: float
    cycle_cap: int
    implied_storage_time: float
    status_counts: dict[str, int] = field(hash=False)  # unhashable, so left out of the report's hash
    status_expected: dict[str, float] = field(hash=False)
    status_z: dict[str, float] = field(hash=False)


@dataclass(frozen=True)
class ModeComparison(_Report):
    """Aggregate-coin vs per-device-coin cross-check."""

    aggregate: ChainStats
    per_gate: ChainStats
    analytic_p_t: float
    z_score: float
    agree_within_4_sigma: bool


def check_budget(config: ChainConfig, loop: bool = False) -> None:
    """Refuse a run whose work passes max_stage_evals: a chain costs trials x
    num_stages stage evaluations, a loop trials x min(max_cycles, 1 / (1 - q))
    expected cycles at per-cycle success q.  The product is compared as an
    exact ratio of integers, so no integer is converted to a float."""
    trials, budget = config.trials, config.max_stage_evals
    if loop:
        q = config.stage_success()
        per_trial = config.max_cycles if q >= 1.0 else min(config.max_cycles, 1.0 / (1.0 - q))
        shown = f"{per_trial:.6g}" if per_trial <= sys.float_info.max else per_trial
        what = f"loop of {trials} trials x {shown} expected cycles"
    else:
        per_trial, what = config.num_stages, f"run of {trials} x {config.num_stages} stages"
    num, den = per_trial.as_integer_ratio()
    if trials * num > budget * den:
        raise ValueError(f"{what} exceeds the budget of {budget} stage evaluations")


def input_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk + 1,)))


def _chain_chunk(
    config: ChainConfig,
    encoded: PureState,
    logical: PureState,
    rng: np.random.Generator,
    trials: int,
) -> tuple[Counter, Counter, float]:
    """One chunk's depths (trials that survived exactly k of the num_stages
    stages, by k), its stage statuses, and the summed decoded fidelity of the
    survivors.  Every live trial runs stage k, in trial order, before any
    runs stage k + 1, so the chunk reads its rows in the loop's order."""
    model = SegmentModel(config.params.alpha, config.params.d)
    # resolved once per chunk, so no stage recomputes p_t_full
    p_t = config.effective_p_t() if config.mode == MODE_AGGREGATE else None
    depths, statuses, states = Counter(), Counter(), [encoded] * trials
    for depth in range(config.num_stages):
        stage_statuses, survivors = [], []
        for state in states:
            result = channel.stage(state, model, config.params, rng, mode=config.mode,
                                   p_t_override=p_t, check_code_space=False)
            stage_statuses.append(result.status)
            if result.state is not None:
                survivors.append(result.state)
        statuses.update(stage_statuses)
        if len(survivors) < len(states):
            depths[depth] = len(states) - len(survivors)
        if not survivors:
            return depths, statuses, 0.0
        states = survivors
    depths[config.num_stages] = len(states)
    decoded = losscode.decode_amplitudes(np.array([state.amplitudes for state in states]))
    fidelities = np.abs(decoded.conj() @ logical.amplitudes) ** 2
    return depths, statuses, float(np.sum(fidelities))


def _pool_size(requested: int, chunks: int, cpus: int | None) -> int:
    """Worker processes worth starting: no more than the CPUs or the chunks."""
    return max(1, min(requested, chunks, cpus or 1))


def _run_chunks(chunk_fn, args: tuple, config: ChainConfig, workers: int) -> list:
    """chunk_fn(*args, rng, trials) over the fixed trial chunks, pooled when workers > 1."""
    chunks = [
        args + (_chunk_rng(config.seed, k), min(_CHUNK, config.trials - lo))
        for k, lo in enumerate(range(0, config.trials, _CHUNK))
    ]
    workers = _pool_size(check_count("workers", workers, 1), len(chunks), os.cpu_count())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(chunk_fn, *zip(*chunks)))
    return [chunk_fn(*chunk) for chunk in chunks]


def _binomial_stderr(rate: float, trials: int) -> float:
    return math.sqrt(rate * (1.0 - rate) / trials)


def _z(diff: float, spread: float) -> float:
    return diff / spread if spread > 0 else (0.0 if diff == 0 else math.inf)


def _status_fields(config: ChainConfig, statuses: Counter) -> dict:
    """The status histogram over stage evaluations, each count beside its
    probability per evaluation and its binomial z."""
    p = analytics.survival_prob(config.params.alpha, config.params.d)
    p_t, kept = config.effective_p_t(), p_f(p)
    expected = dict(zip(STATUSES, (p**4 * p_t, 4 * p**3 * (1 - p) * p_t, 1 - kept, kept * (1 - p_t))))
    counts = {status: statuses[status] for status in STATUSES}
    evals = sum(counts.values())
    z = {s: _z(counts[s] - evals * q, math.sqrt(evals * q * (1 - q))) for s, q in expected.items()}
    return {"status_counts": counts, "status_expected": expected, "status_z": z}


def run_chain(
    config: ChainConfig,
    logical: PureState | None = None,
    workers: int = 1,
) -> ChainStats:
    """Encode once, push the block through num_stages stages per trial,
    decode the survivors, and tally success rates."""
    check_budget(config)
    if logical is None:
        logical = random_state(2, input_rng(config.seed))
    encoded = losscode.encode(logical)

    parts = _run_chunks(_chain_chunk, (config, encoded, logical), config, workers)
    depths, statuses = (sum((p[i] for p in parts), Counter()) for i in (0, 1))
    fidelity_sum = math.fsum(p[2] for p in parts)

    trials, survived = config.trials, depths[config.num_stages]
    per_stage = (trials - depths[0]) / trials
    end_to_end = survived / trials
    mean_fid = fidelity_sum / survived if survived else math.nan
    d = config.params.d
    if survived == 0:
        emp_alpha_prime, censored = math.inf, True
    elif d > 0:
        # abs, not minus: every trial surviving gives +0.0, not -0.0
        emp_alpha_prime, censored = abs(math.log(end_to_end)) / (config.num_stages * d), False
    else:
        emp_alpha_prime, censored = math.nan, False
    return ChainStats(
        trials=trials,
        num_stages=config.num_stages,
        per_stage_success_rate=per_stage,
        per_stage_success_stderr=_binomial_stderr(per_stage, trials),
        end_to_end_success=end_to_end,
        end_to_end_stderr=_binomial_stderr(end_to_end, trials),
        mean_fidelity_given_success=mean_fid,
        empirical_alpha_prime=emp_alpha_prime,
        alpha_prime_is_censored=censored,
        **_status_fields(config, statuses),
    )


def _loop_chunk(config: ChainConfig, rng: np.random.Generator, trials: int) -> tuple[Counter, Counter]:
    """One chunk's depths (trials that completed exactly k cycles, by k, with
    the trials still alive at max_cycles counted at the cap) and its cycle
    statuses.

    Only the event layer runs here: a corrected cycle returns the block to
    its exact input state (the recovery round-trip tests establish that),
    so cycle counts do not depend on the quantum state.  Each cycle draws
    one `stage` row per live trial, readout column included, so a loop of
    max_cycles = N reads the stream of an N-stage chain.  Trials are
    exchangeable, so only the live count is kept.  A cycle in which no
    trial fails adds no key, so the record holds at most one key per
    trial, however high the cap.
    """
    survival = SegmentModel(config.params.alpha, config.params.d).survival
    coins = channel.coin_bounds(config.params, config.mode, config.p_t_override)
    bounds = np.array([survival] * DATA_QUBITS + coins)
    # a row's failed columns, as bits (rails first, then coins), index its
    # status in STATUSES order: intact, corrected, multi-loss, gates failed
    bits = np.arange(2 ** len(bounds))
    lost = sum((bits >> k) & 1 for k in range(DATA_QUBITS))
    status_of = np.where(lost >= 2, 2, np.where(bits >> DATA_QUBITS, 3, lost))
    weights = 2.0 ** np.arange(len(bounds))
    depths, statuses, live = Counter(), np.zeros(len(STATUSES), dtype=np.int64), trials
    for cycle in range(config.max_cycles):
        if not live:
            break
        row = rng.random((live, len(bounds) + 1))
        failed = ((row[:, :-1] >= bounds) @ weights).astype(np.intp)
        counts = np.bincount(status_of[failed], minlength=len(STATUSES))
        statuses += counts
        passed = int(counts[0] + counts[1])
        if passed < live:
            depths[cycle] = live - passed
        live = passed
    if live:
        depths[config.max_cycles] = live
    return depths, Counter(dict(zip(STATUSES, statuses.tolist())))


def run_loop(config: ChainConfig, workers: int = 1) -> LoopStats:
    """Cycle a block around a fiber loop of circumference d until it fails.

    Surviving cycle counts are geometric; trials still alive at max_cycles
    are censored at the cap.
    """
    check_budget(config, loop=True)
    parts = _run_chunks(_loop_chunk, (config,), config, workers)
    depths, statuses = (sum((p[i] for p in parts), Counter()) for i in (0, 1))
    trials = config.trials
    mean = sum(k * n for k, n in depths.items()) / trials
    if trials > 1:
        squares = sum(k * k * n for k, n in depths.items())
        variance = max(0.0, (squares - trials * mean * mean) / (trials - 1))
        stderr = math.sqrt(variance / trials)
    else:
        stderr = 0.0
    return LoopStats(
        trials=trials,
        mean_cycles=mean,
        mean_cycles_stderr=stderr,
        censored_fraction=depths[config.max_cycles] / trials,
        cycle_cap=config.max_cycles,
        implied_storage_time=mean * config.params.d / config.params.nu,
        **_status_fields(config, statuses),
    )


def analytic_loop_mean_cycles(config: ChainConfig) -> float:
    """Expected surviving cycles q / (1 - q) at per-cycle success q."""
    q = config.stage_success()
    if q >= 1.0:
        return math.inf
    return q / (1.0 - q)


def analytic_chain(config: ChainConfig) -> dict:
    """The chain's closed forms; alpha' and r need x = alpha * d > 0, r also p_t > 0."""
    params, pt, per_stage = config.params, config.effective_p_t(), config.stage_success()
    p = analytics.survival_prob(params.alpha, params.d)
    out = {"survival_prob": p, "p_f": p_f(p), "p_t": pt, "per_stage_success": per_stage,
           "end_to_end_success": per_stage**config.num_stages}
    if params.x > 0:  # a positive alpha and d can still multiply to 0, where r is refused
        out["alpha_prime"] = analytics.alpha_prime(params.alpha, params.d)
        if pt > 0:
            out["r"] = analytics.r(params.x, pt)
            out["alpha_prime_with_gates"] = 2.0 * params.alpha * out["r"]
    return out


def analytic_loop(config: ChainConfig) -> dict:
    """The loop's closed forms; the bare fiber's half-decay time needs alpha > 0."""
    params, mean = config.params, analytic_loop_mean_cycles(config)
    out = {"per_cycle_success": config.stage_success(), "mean_cycles": mean,
           "storage_time": mean * params.d / params.nu if math.isfinite(mean) else math.inf}
    if params.alpha > 0:
        out["bare_half_decay_time"] = analytics.storage_time(params.alpha, params.nu)
    return out


def compare_modes(config: ChainConfig, workers: int = 1) -> ModeComparison:
    """Run both gate-failure models on the same seed and compare rates.

    A z-score beyond 4 flags an exponent bookkeeping error between the
    aggregate product and the per-device coins.
    """
    configs = [replace(config, mode=mode) for mode in (MODE_AGGREGATE, MODE_PER_GATE)]
    aggregate, per_gate = (run_chain(c, workers=workers) for c in configs)
    spread = math.hypot(
        aggregate.per_stage_success_stderr, per_gate.per_stage_success_stderr
    )
    z = _z(aggregate.per_stage_success_rate - per_gate.per_stage_success_rate, spread)
    return ModeComparison(
        aggregate=aggregate,
        per_gate=per_gate,
        analytic_p_t=p_t_full(config.params),
        z_score=z,
        agree_within_4_sigma=abs(z) <= 4.0,
    )
