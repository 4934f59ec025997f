"""Monte Carlo driver for transponder chains and cyclic-memory loops.

Trials are independent: trial t draws its generator from the run seed's
spawn key (t + 1,), so results are reproducible bit for bit regardless of
how trials are batched across workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from lossguard import analytics, channel, losscode
from lossguard.analytics import TransponderParams, p_f, p_t_full
from lossguard.channel import (
    MODE_AGGREGATE,
    MODES,
    SUCCESS_STATUSES,
    SegmentModel,
)
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
        if self.num_stages < 1 or self.trials < 1:
            raise ValueError("num_stages and trials must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        if self.trials * self.num_stages > self.max_stage_evals:
            raise ValueError(
                f"run of {self.trials} x {self.num_stages} stages exceeds the "
                f"budget of {self.max_stage_evals} stage evaluations"
            )
        if self.p_t_override is not None:
            if self.mode != MODE_AGGREGATE:
                raise ValueError("p_t_override only applies to aggregate_pt")
            if not 0.0 <= self.p_t_override <= 1.0:
                raise ValueError("p_t_override must lie in [0, 1]")

    def effective_p_t(self) -> float:
        if self.p_t_override is not None:
            return self.p_t_override
        return p_t_full(self.params)


@dataclass(frozen=True)
class ChainStats:
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

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "num_stages": self.num_stages,
            "per_stage_success_rate": self.per_stage_success_rate,
            "per_stage_success_stderr": self.per_stage_success_stderr,
            "end_to_end_success": self.end_to_end_success,
            "end_to_end_stderr": self.end_to_end_stderr,
            "mean_fidelity_given_success": self.mean_fidelity_given_success,
            "empirical_alpha_prime": self.empirical_alpha_prime,
            "alpha_prime_is_censored": self.alpha_prime_is_censored,
        }


@dataclass(frozen=True)
class LoopStats:
    """Empirical summary of a cyclic-memory run."""

    trials: int
    mean_cycles: float
    mean_cycles_stderr: float
    censored_fraction: float
    cycle_cap: int
    implied_storage_time: float

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "mean_cycles": self.mean_cycles,
            "mean_cycles_stderr": self.mean_cycles_stderr,
            "censored_fraction": self.censored_fraction,
            "cycle_cap": self.cycle_cap,
            "implied_storage_time": self.implied_storage_time,
        }


@dataclass(frozen=True)
class ModeComparison:
    """Aggregate-coin vs per-device-coin cross-check."""

    aggregate: ChainStats
    per_gate: ChainStats
    analytic_p_t: float
    z_score: float
    agree_within_4_sigma: bool

    def to_dict(self) -> dict:
        return {
            "aggregate": self.aggregate.to_dict(),
            "per_gate": self.per_gate.to_dict(),
            "analytic_p_t": self.analytic_p_t,
            "z_score": self.z_score,
            "agree_within_4_sigma": self.agree_within_4_sigma,
        }


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial + 1,)))


def _input_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))


def _chain_chunk(
    config: ChainConfig,
    encoded: PureState,
    logical: PureState,
    start: int,
    stop: int,
) -> tuple[int, int, float]:
    """Totals over trials [start, stop): first-stage successes, end-to-end
    successes, summed decoded fidelity of the survivors."""
    model = SegmentModel(config.params.alpha, config.params.d)
    first_stage = 0
    survivors = []
    for trial in range(start, stop):
        rng = _trial_rng(config.seed, trial)
        state = encoded
        for stage_index in range(config.num_stages):
            result = channel.stage(
                state,
                model,
                config.params,
                rng,
                mode=config.mode,
                p_t_override=config.p_t_override,
                check_code_space=False,
            )
            if result.status not in SUCCESS_STATUSES:
                break
            if stage_index == 0:
                first_stage += 1
            state = result.state
        else:
            survivors.append(state.amplitudes)
    if not survivors:
        return first_stage, 0, 0.0
    decoded = losscode.decode_amplitudes(np.array(survivors))
    fidelities = np.abs(decoded.conj() @ logical.amplitudes) ** 2
    return first_stage, len(survivors), float(np.sum(fidelities))


def _run_chunks(chunk_fn, args: tuple, trials: int, workers: int) -> list:
    """chunk_fn(*args, lo, hi) over the fixed trial chunks, pooled when workers > 1."""
    chunks = [args + (lo, min(lo + _CHUNK, trials)) for lo in range(0, trials, _CHUNK)]
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(chunk_fn, *zip(*chunks)))
    return [chunk_fn(*chunk) for chunk in chunks]


def _binomial_stderr(rate: float, trials: int) -> float:
    return math.sqrt(rate * (1.0 - rate) / trials)


def run_chain(
    config: ChainConfig,
    logical: PureState | None = None,
    workers: int = 1,
) -> ChainStats:
    """Encode once, push the block through num_stages stages per trial,
    decode the survivors, and tally success rates."""
    if logical is None:
        logical = random_state(2, _input_rng(config.seed))
    elif logical.num_qubits != 2:
        raise ValueError("logical input must be a two-qubit state")
    encoded = losscode.encode(logical)

    parts = _run_chunks(_chain_chunk, (config, encoded, logical), config.trials, workers)

    first_stage = sum(p[0] for p in parts)
    survived = sum(p[1] for p in parts)
    fidelity_sum = math.fsum(p[2] for p in parts)

    trials = config.trials
    per_stage = first_stage / trials
    end_to_end = survived / trials
    mean_fid = fidelity_sum / survived if survived else math.nan
    d = config.params.d
    if survived == 0:
        emp_alpha_prime, censored = math.inf, True
    elif d > 0:
        emp_alpha_prime, censored = -math.log(end_to_end) / (config.num_stages * d), False
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
    )


def _loop_chunk(config: ChainConfig, start: int, stop: int) -> tuple[int, float, int]:
    """Totals over trials [start, stop): cycles, squared cycles, censored count.

    Only the event layer runs here: a corrected cycle returns the block to
    its exact input state (the recovery round-trip tests establish that),
    so cycle counts do not depend on the quantum state.
    """
    model = SegmentModel(config.params.alpha, config.params.d)
    total = 0
    total_sq = 0.0
    censored = 0
    for trial in range(start, stop):
        rng = _trial_rng(config.seed, trial)
        cycles = 0
        while cycles < config.max_cycles:
            event = channel.transmit_segment(model, rng)
            if event.num_lost >= 2:
                break
            if not channel.gates_succeed(
                config.params, rng, config.mode, config.p_t_override
            ):
                break
            cycles += 1
        if cycles >= config.max_cycles:
            censored += 1
        total += cycles
        total_sq += float(cycles) ** 2
    return total, total_sq, censored


def run_loop(config: ChainConfig, workers: int = 1) -> LoopStats:
    """Cycle a block around a fiber loop of circumference d until it fails.

    Surviving cycle counts are geometric; trials still alive at max_cycles
    are censored at the cap.
    """
    parts = _run_chunks(_loop_chunk, (config,), config.trials, workers)
    trials = config.trials
    total = sum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    censored = sum(p[2] for p in parts)
    mean = total / trials
    if trials > 1:
        variance = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
        stderr = math.sqrt(variance / trials)
    else:
        stderr = 0.0
    return LoopStats(
        trials=trials,
        mean_cycles=mean,
        mean_cycles_stderr=stderr,
        censored_fraction=censored / trials,
        cycle_cap=config.max_cycles,
        implied_storage_time=mean * config.params.d / config.params.nu,
    )


def analytic_loop_mean_cycles(config: ChainConfig) -> float:
    """Expected surviving cycles q / (1 - q) at per-cycle success q."""
    q = p_f(analytics.survival_prob(config.params.alpha, config.params.d))
    q *= config.effective_p_t()
    if q >= 1.0:
        return math.inf
    return q / (1.0 - q)


def compare_modes(config: ChainConfig, workers: int = 1) -> ModeComparison:
    """Run both gate-failure models on the same seed and compare rates.

    A z-score beyond 4 flags an exponent bookkeeping error between the
    aggregate product and the per-device coins.
    """
    if config.p_t_override is not None:
        raise ValueError("mode comparison requires the physical gate model")
    aggregate = run_chain(replace(config, mode=MODE_AGGREGATE), workers=workers)
    per_gate = run_chain(replace(config, mode="per_gate"), workers=workers)
    spread = math.hypot(
        aggregate.per_stage_success_stderr, per_gate.per_stage_success_stderr
    )
    diff = aggregate.per_stage_success_rate - per_gate.per_stage_success_rate
    z = diff / spread if spread > 0 else (0.0 if diff == 0 else math.inf)
    return ModeComparison(
        aggregate=aggregate,
        per_gate=per_gate,
        analytic_p_t=p_t_full(config.params),
        z_score=z,
        agree_within_4_sigma=abs(z) <= 4.0,
    )
