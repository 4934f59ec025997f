"""Monte Carlo chain and loop drivers."""

import dataclasses
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lossguard import analytics, chainsim, losscode
from lossguard.analytics import TransponderParams, p_f, p_t_full, survival_prob
from lossguard.chainsim import ChainConfig, compare_modes, run_chain, run_loop
from lossguard.channel import MODE_AGGREGATE, MODE_PER_GATE, STATUSES
from lossguard.simcore import random_state

MID_PARAMS = TransponderParams(alpha=1.0 / 30.0, d=10.0, n=160, eta=1.0 - 1e-5)
IDEAL_PARAMS = TransponderParams(alpha=0.0, d=1.0, n=1)


def analytic_stage_success(config: ChainConfig) -> float:
    p = survival_prob(config.params.alpha, config.params.d)
    return p_f(p) * config.effective_p_t()


def test_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(params=MID_PARAMS, trials=0)
    with pytest.raises(ValueError):
        ChainConfig(params=MID_PARAMS, num_stages=0)
    with pytest.raises(ValueError):
        ChainConfig(params=MID_PARAMS, mode="bogus")
    with pytest.raises(ValueError):
        ChainConfig(params=MID_PARAMS, p_t_override=1.5)
    with pytest.raises(ValueError):
        ChainConfig(params=MID_PARAMS, max_cycles=0)
    with pytest.raises(ValueError, match="budget"):
        chainsim.check_budget(ChainConfig(params=MID_PARAMS, trials=10**6, num_stages=10**6))
    for name in ("trials", "num_stages", "seed", "max_cycles", "max_stage_evals"):
        for bad in (2.0, True, float("nan")):
            with pytest.raises(ValueError, match=name):
                ChainConfig(params=MID_PARAMS, **{name: bad})
    with pytest.raises(ValueError, match="seed"):
        ChainConfig(params=MID_PARAMS, seed=-1)
    assert type(ChainConfig(params=MID_PARAMS, seed=np.int64(3)).seed) is int


def test_config_rejects_override_with_per_gate_coins():
    with pytest.raises(ValueError):
        ChainConfig(params=MID_PARAMS, mode="per_gate", p_t_override=0.5)


def test_effective_p_t_prefers_override():
    cfg = ChainConfig(params=MID_PARAMS, p_t_override=0.5)
    assert cfg.effective_p_t() == 0.5
    cfg = ChainConfig(params=MID_PARAMS)
    assert cfg.effective_p_t() == p_t_full(MID_PARAMS)


def test_stage_success_is_the_product_model():
    for cfg in (ChainConfig(params=MID_PARAMS), ChainConfig(params=MID_PARAMS, p_t_override=0.5)):
        assert cfg.stage_success() == analytic_stage_success(cfg)


def test_chunk_rngs_decorrelate_by_seed_and_chunk():
    a = chainsim._chunk_rng(1, 0).random()
    b = chainsim._chunk_rng(1, 1).random()
    c = chainsim._chunk_rng(2, 0).random()
    logical = chainsim.input_rng(1).random()
    assert len({a, b, c, logical}) == 4
    assert chainsim._chunk_rng(1, 0).random() == a


def test_pool_size_is_capped_by_cpus_and_chunks():
    assert chainsim._pool_size(10**6, 3, 64) == 3
    assert chainsim._pool_size(10**6, 10**6, 2) == 2
    assert chainsim._pool_size(4, 10**6, 64) == 4
    assert chainsim._pool_size(0, 10**6, 64) == 1
    assert chainsim._pool_size(10**6, 10**6, None) == 1


@pytest.mark.parametrize("run", [run_chain, run_loop])
@pytest.mark.parametrize("workers", [0, -3, True, 1.5, "2"])
def test_workers_must_be_a_positive_integer(run, workers):
    cfg = ChainConfig(params=MID_PARAMS, trials=20, seed=5)
    with pytest.raises(ValueError, match="workers"):
        run(cfg, workers=workers)


def test_single_worker_runs_do_not_import_the_process_pool():
    code = (
        "import sys, lossguard\n"
        "from lossguard.chainsim import ChainConfig, run_chain, run_loop\n"
        "cfg = ChainConfig(params=lossguard.TransponderParams(alpha=0.1, d=1.0, n=4), trials=20)\n"
        "run_chain(cfg, workers=1)\n"
        "run_loop(cfg, workers=1)\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    src = str(Path(chainsim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_run_chain_is_deterministic():
    cfg = ChainConfig(params=MID_PARAMS, trials=3_000, seed=5)
    assert run_chain(cfg) == run_chain(cfg)


def test_run_chain_worker_count_does_not_change_results():
    cfg = ChainConfig(params=MID_PARAMS, trials=11_000, seed=5)
    assert run_chain(cfg, workers=1) == run_chain(cfg, workers=3)


def test_run_chain_per_gate_worker_count_does_not_change_results():
    cfg = ChainConfig(params=MID_PARAMS, trials=11_000, seed=6, mode="per_gate")
    assert run_chain(cfg, workers=1) == run_chain(cfg, workers=3)


def test_run_chain_trivial_channel_never_fails():
    cfg = ChainConfig(
        params=IDEAL_PARAMS, trials=400, num_stages=3, seed=1, p_t_override=1.0
    )
    stats = run_chain(cfg)
    assert stats.per_stage_success_rate == 1.0
    assert stats.end_to_end_success == 1.0
    assert stats.mean_fidelity_given_success == pytest.approx(1.0, abs=1e-10)
    assert stats.empirical_alpha_prime == 0.0
    assert math.copysign(1.0, stats.empirical_alpha_prime) == 1.0
    assert not stats.alpha_prime_is_censored


def test_run_chain_hopeless_channel_censors_alpha_prime():
    params = TransponderParams(alpha=2.0, d=10.0, n=1)
    stats = run_chain(ChainConfig(params=params, trials=300, seed=2, p_t_override=1.0))
    assert stats.end_to_end_success == 0.0
    assert math.isinf(stats.empirical_alpha_prime)
    assert stats.alpha_prime_is_censored
    assert math.isnan(stats.mean_fidelity_given_success)


def test_run_chain_without_distance_has_no_alpha_prime():
    params = TransponderParams(alpha=0.05, d=0.0, n=1)
    stats = run_chain(ChainConfig(params=params, trials=50, seed=4, p_t_override=0.9))
    assert 0.0 < stats.end_to_end_success < 1.0
    assert math.isnan(stats.empirical_alpha_prime)
    assert not stats.alpha_prime_is_censored


def test_chunk_depths_count_every_trial_of_their_chunk(monkeypatch):
    monkeypatch.setattr(chainsim, "_CHUNK", 70)
    cfg = ChainConfig(params=MID_PARAMS, trials=200, num_stages=3, seed=6, max_cycles=4)
    logical = random_state(2, np.random.default_rng(6))
    args = (cfg, losscode.encode(logical), logical)
    chain = [depths for depths, _, _ in chainsim._run_chunks(chainsim._chain_chunk, args, cfg, 1)]
    loop = [depths for depths, _ in chainsim._run_chunks(chainsim._loop_chunk, (cfg,), cfg, 1)]
    for records, cap in ((chain, cfg.num_stages), (loop, cfg.max_cycles)):
        assert [sum(depths.values()) for depths in records] == [70, 70, 60]
        assert all(isinstance(depths, Counter) for depths in records)
        assert set().union(*records) <= set(range(cap + 1))
    assert len(set().union(*chain)) > 1


def test_never_failing_loop_keeps_one_depth():
    cfg = ChainConfig(params=IDEAL_PARAMS, trials=3, p_t_override=1.0, max_cycles=20_000)
    depths, _ = chainsim._loop_chunk(cfg, chainsim._chunk_rng(cfg.seed, 0), cfg.trials)
    assert depths == Counter({20_000: 3})
    assert len(depths) == 1


@pytest.mark.parametrize("mode", [MODE_AGGREGATE, MODE_PER_GATE])
@pytest.mark.parametrize("stages", [1, 3, 10])
def test_loop_and_chain_read_the_same_rows(monkeypatch, mode, stages):
    # the loop skips recovery (a corrected cycle returns the block) and the
    # chain runs it; at one seed both must reach exactly the same depths
    monkeypatch.setattr(chainsim, "_CHUNK", 3000)
    cfg = ChainConfig(params=MID_PARAMS, trials=6000, num_stages=stages, max_cycles=stages,
                      seed=12, mode=mode)
    logical = random_state(2, np.random.default_rng(12))
    args = (cfg, losscode.encode(logical), logical)
    chain = chainsim._run_chunks(chainsim._chain_chunk, args, cfg, 1)
    loop = chainsim._run_chunks(chainsim._loop_chunk, (cfg,), cfg, 1)
    assert len(chain) == len(loop) == 2
    assert [part[:2] for part in chain] == loop
    chain_stats, loop_stats = run_chain(cfg, logical), run_loop(cfg)
    assert chain_stats.status_counts == loop_stats.status_counts
    depths = chain[0][0] + chain[1][0]
    assert sum(chain_stats.status_counts.values()) == stage_evaluations(depths, stages)


def stage_evaluations(depths, cap):
    """Stages (or cycles) behind a depths record: a trial that failed after
    k of them ran k + 1, and one that reached the cap ran cap."""
    return sum((k + (k < cap)) * n for k, n in depths.items())


@pytest.mark.parametrize(
    "mode, override", [(MODE_AGGREGATE, None), (MODE_AGGREGATE, 0.6), (MODE_PER_GATE, None)]
)
def test_status_histogram_sits_beside_its_expectation(mode, override):
    cfg = ChainConfig(params=MID_PARAMS, trials=4_000, num_stages=3, max_cycles=3, seed=14,
                      mode=mode, p_t_override=override)
    p, p_t = survival_prob(MID_PARAMS.alpha, MID_PARAMS.d), cfg.effective_p_t()
    expected = [p**4 * p_t, 4 * p**3 * (1 - p) * p_t, 1 - p_f(p), p_f(p) * (1 - p_t)]
    chain, loop = run_chain(cfg), run_loop(cfg)
    for stats, survived in ((chain, chain.end_to_end_success), (loop, loop.censored_fraction)):
        counts = stats.status_counts
        assert list(counts) == list(stats.status_expected) == list(stats.status_z) == list(STATUSES)
        assert list(stats.status_expected.values()) == pytest.approx(expected, rel=1e-12)
        assert sum(stats.status_expected.values()) == pytest.approx(1.0, rel=1e-12)
        # every trial that fails does so once; the others reached the cap
        assert counts["failed_multi_loss"] + counts["failed_gates"] == round(cfg.trials * (1 - survived))
        evals = sum(counts.values())
        for status, q in zip(STATUSES, expected):
            z = (counts[status] - evals * q) / math.sqrt(evals * q * (1 - q))
            assert stats.status_z[status] == pytest.approx(z, rel=1e-9)
            assert abs(z) <= 4.0


def test_status_histogram_of_an_ideal_channel():
    cfg = ChainConfig(params=IDEAL_PARAMS, trials=50, num_stages=3, seed=2, p_t_override=1.0)
    stats = run_chain(cfg)
    assert stats.status_counts == {"intact": 150, "corrected": 0, "failed_multi_loss": 0, "failed_gates": 0}
    assert stats.status_expected == {"intact": 1.0, "corrected": 0.0, "failed_multi_loss": 0.0,
                                     "failed_gates": 0.0}
    assert stats.status_z == dict.fromkeys(STATUSES, 0.0)


def test_run_chain_single_stage_matches_analytics():
    cfg = ChainConfig(
        params=TransponderParams(alpha=0.02, d=10.0, n=1),
        trials=20_000,
        seed=8,
        p_t_override=0.9,
    )
    stats = run_chain(cfg)
    target = analytic_stage_success(cfg)
    assert abs(stats.per_stage_success_rate - target) < 3.0 * stats.per_stage_success_stderr
    assert stats.mean_fidelity_given_success == pytest.approx(1.0, abs=1e-10)


def test_run_chain_multi_stage_success_compounds():
    cfg = ChainConfig(params=MID_PARAMS, trials=12_000, num_stages=4, seed=13)
    stats = run_chain(cfg)
    target = analytic_stage_success(cfg) ** 4
    assert abs(stats.end_to_end_success - target) < 3.0 * stats.end_to_end_stderr
    # empirical effective attenuation is -ln(success) / total length
    expected_alpha = -math.log(target) / (4 * MID_PARAMS.d)
    assert stats.empirical_alpha_prime == pytest.approx(expected_alpha, rel=0.05)


def test_run_chain_accepts_fixed_logical_input():
    logical = random_state(2, np.random.default_rng(3))
    cfg = ChainConfig(params=IDEAL_PARAMS, trials=50, seed=4, p_t_override=1.0)
    stats = run_chain(cfg, logical=logical)
    assert stats.mean_fidelity_given_success == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        run_chain(cfg, logical=random_state(3, np.random.default_rng(0)))


def test_chain_stats_dict_round_trip():
    cfg = ChainConfig(params=IDEAL_PARAMS, trials=20, seed=0, p_t_override=1.0)
    d = run_chain(cfg).to_dict()
    assert d["trials"] == 20
    assert d["num_stages"] == 1
    assert set(d) == {
        "trials",
        "num_stages",
        "per_stage_success_rate",
        "per_stage_success_stderr",
        "end_to_end_success",
        "end_to_end_stderr",
        "mean_fidelity_given_success",
        "empirical_alpha_prime",
        "alpha_prime_is_censored",
        "status_counts",
        "status_expected",
        "status_z",
    }


def test_reports_stay_hashable():
    cfg = ChainConfig(params=MID_PARAMS, trials=20, seed=0)
    for report in (run_chain(cfg), run_loop(cfg), compare_modes(cfg)):
        assert hash(report) == hash(dataclasses.replace(report))


def test_run_loop_mean_matches_geometric_law():
    cfg = ChainConfig(
        params=TransponderParams(alpha=0.05, d=10.0, n=1),
        trials=20_000,
        seed=21,
        p_t_override=0.8,
        max_cycles=10_000,
    )
    stats = run_loop(cfg)
    q = analytic_stage_success(cfg)
    assert chainsim.analytic_loop_mean_cycles(cfg) == pytest.approx(q / (1 - q))
    assert abs(stats.mean_cycles - q / (1 - q)) < 3.0 * stats.mean_cycles_stderr
    # surviving cycles are geometric, with variance q / (1 - q)^2
    assert stats.mean_cycles_stderr == pytest.approx(
        math.sqrt(q / (1 - q) ** 2 / cfg.trials), rel=0.1
    )
    assert stats.censored_fraction == 0.0
    assert stats.implied_storage_time == pytest.approx(
        stats.mean_cycles * 10.0 / 2.0e5, rel=1e-12
    )


def test_run_loop_censors_at_the_cycle_cap():
    cfg = ChainConfig(
        params=IDEAL_PARAMS, trials=60, seed=3, p_t_override=1.0, max_cycles=25
    )
    stats = run_loop(cfg)
    assert stats.mean_cycles == 25.0
    assert stats.censored_fraction == 1.0
    assert stats.mean_cycles_stderr == 0.0
    assert math.isinf(chainsim.analytic_loop_mean_cycles(cfg))


def test_single_trial_loop_has_zero_stderr():
    cfg = ChainConfig(params=MID_PARAMS, trials=1, seed=8, p_t_override=0.5, max_cycles=50)
    stats = run_loop(cfg)
    assert stats.mean_cycles_stderr == 0.0
    assert stats.mean_cycles in range(51)


def test_run_loop_refuses_work_beyond_its_budget():
    # no cycle ever fails, so every trial would run to the default cap of 10**6
    endless = ChainConfig(params=IDEAL_PARAMS, trials=10_000, p_t_override=1.0)
    with pytest.raises(ValueError, match="budget"):
        run_loop(endless)
    # the expected work counts min(max_cycles, 1 / (1 - q)) cycles per trial
    lossy = ChainConfig(params=MID_PARAMS, trials=1000, p_t_override=0.5)
    work = 1000 * (1.0 / (1.0 - lossy.stage_success()))
    chainsim.check_budget(dataclasses.replace(lossy, max_stage_evals=math.ceil(work)), loop=True)
    with pytest.raises(ValueError, match="budget"):
        chainsim.check_budget(dataclasses.replace(lossy, max_stage_evals=math.floor(work)), loop=True)
    capped = dataclasses.replace(endless, max_cycles=25, max_stage_evals=250_000)
    chainsim.check_budget(capped, loop=True)
    with pytest.raises(ValueError, match="budget"):
        chainsim.check_budget(dataclasses.replace(capped, max_stage_evals=249_999), loop=True)


def test_run_loop_checks_its_cycles_not_the_chain_stages():
    # 100 x 10**6 stages would pass the budget of 10**5 as a chain, but the
    # loop never reads num_stages: it expects about 1.5 cycles per trial
    cfg = ChainConfig(params=MID_PARAMS, trials=100, num_stages=10**6, seed=4,
                      p_t_override=0.5, max_stage_evals=10**5)
    assert run_loop(cfg) == run_loop(dataclasses.replace(cfg, num_stages=1))
    with pytest.raises(ValueError, match="budget"):
        chainsim.check_budget(cfg)


def test_chain_budget_is_checked_when_the_chain_runs(monkeypatch):
    cfg = ChainConfig(params=MID_PARAMS, trials=10**6, num_stages=10**6)

    def no_draws(*args):
        raise AssertionError("drew before the budget check")

    monkeypatch.setattr(chainsim, "input_rng", no_draws)
    monkeypatch.setattr(chainsim, "_run_chunks", no_draws)
    with pytest.raises(ValueError, match="budget"):
        run_chain(cfg)
    with pytest.raises(ValueError, match="budget"):
        compare_modes(cfg)
    endless = ChainConfig(params=IDEAL_PARAMS, trials=10_000, p_t_override=1.0)
    with pytest.raises(ValueError, match="budget"):
        run_loop(endless)


@pytest.mark.parametrize(
    "loop, kwargs",
    [
        (False, {"trials": 10**400}),
        (True, {"trials": 10**400}),
        # 20 expected cycles per trial, so the product passes the budget
        (True, {"trials": 10**399, "max_stage_evals": 10**400}),
        # no cycle fails, so every trial runs to a cap beyond float range
        (True, {"max_cycles": 10**400, "p_t_override": 1.0}),
    ],
    ids=["chain", "loop", "loop-trials-beyond-float-range", "loop-cycles-beyond-float-range"],
)
def test_check_budget_refuses_huge_runs_without_overflow(loop, kwargs):
    cfg = ChainConfig(params=IDEAL_PARAMS, **({"p_t_override": 0.95} | kwargs))
    with pytest.raises(ValueError, match="budget"):
        chainsim.check_budget(cfg, loop=loop)


def test_run_loop_is_deterministic_across_workers():
    cfg = ChainConfig(
        params=TransponderParams(alpha=0.05, d=10.0, n=1),
        trials=11_000,
        seed=9,
        p_t_override=0.7,
        max_cycles=1_000,
    )
    assert run_loop(cfg, workers=1) == run_loop(cfg, workers=3)


def test_run_loop_per_gate_is_deterministic_across_workers():
    # 11,000 trials make three chunks, each drawing its coins as one
    # (live, 4) array of failure counts per cycle
    cfg = ChainConfig(
        params=TransponderParams(alpha=0.05, d=1.0, n=100, eta=1.0 - 1e-4),
        trials=11_000,
        seed=10,
        mode="per_gate",
        max_cycles=1_000,
    )
    stats = run_loop(cfg, workers=1)
    assert stats == run_loop(cfg, workers=3)
    assert stats.mean_cycles > 0.5


def test_compare_modes_agrees_at_moderate_n():
    cfg = ChainConfig(params=MID_PARAMS, trials=8_000, seed=41)
    result = compare_modes(cfg)
    assert result.agree_within_4_sigma
    assert result.analytic_p_t == pytest.approx(p_t_full(MID_PARAMS), rel=1e-12)
    assert abs(result.z_score) < 4.0
    d = result.to_dict()
    assert set(d) == {"aggregate", "per_gate", "analytic_p_t", "z_score", "agree_within_4_sigma"}


def test_compare_modes_rejects_override(monkeypatch):
    cfg = ChainConfig(params=MID_PARAMS, trials=100, seed=1, p_t_override=0.5)

    def no_draws(*args):
        raise AssertionError("drew before the override was refused")

    monkeypatch.setattr(chainsim, "input_rng", no_draws)
    monkeypatch.setattr(chainsim, "_run_chunks", no_draws)
    with pytest.raises(ValueError, match="p_t_override only applies"):
        compare_modes(cfg)


def test_config_is_frozen():
    cfg = ChainConfig(params=MID_PARAMS, trials=10)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.trials = 20


# ---------------------------------------------------------------------------
# closed forms beside a run

CHAIN_KEYS = {"survival_prob", "p_f", "p_t", "per_stage_success", "end_to_end_success"}
CHAIN_GATED = CHAIN_KEYS | {"alpha_prime", "r", "alpha_prime_with_gates"}
LOOP_KEYS = {"per_cycle_success", "mean_cycles", "storage_time"}


@pytest.mark.parametrize(
    "params, override, chain_keys, loop_keys",
    [
        (MID_PARAMS, None, CHAIN_GATED, LOOP_KEYS | {"bare_half_decay_time"}),
        (dataclasses.replace(MID_PARAMS, d=0.0), None, CHAIN_KEYS, LOOP_KEYS | {"bare_half_decay_time"}),
        (dataclasses.replace(MID_PARAMS, alpha=0.0), None, CHAIN_KEYS, LOOP_KEYS),
        (MID_PARAMS, 0.0, CHAIN_KEYS | {"alpha_prime"}, LOOP_KEYS | {"bare_half_decay_time"}),
        (MID_PARAMS, 1.0, CHAIN_GATED, LOOP_KEYS | {"bare_half_decay_time"}),
        # alpha * d underflows to 0 for a positive alpha and d
        (dataclasses.replace(MID_PARAMS, alpha=1e-5, d=1e-320), None, CHAIN_KEYS,
         LOOP_KEYS | {"bare_half_decay_time"}),
        (dataclasses.replace(MID_PARAMS, alpha=1e-320, d=1e-5), None, CHAIN_KEYS,
         LOOP_KEYS | {"bare_half_decay_time"}),
    ],
    ids=["paper", "d-0", "alpha-0", "p_t-0", "p_t-1", "x-underflow-d", "x-underflow-alpha"],
)
def test_analytic_blocks_keys_by_branch(params, override, chain_keys, loop_keys):
    cfg = ChainConfig(params=params, num_stages=3, p_t_override=override)
    chain, loop = chainsim.analytic_chain(cfg), chainsim.analytic_loop(cfg)
    assert set(chain) == chain_keys and set(loop) == loop_keys
    q = analytic_stage_success(cfg)
    assert chain["survival_prob"] == survival_prob(params.alpha, params.d)
    assert chain["p_t"] == cfg.effective_p_t()
    assert chain["per_stage_success"] == q == loop["per_cycle_success"]
    assert chain["end_to_end_success"] == q**3
    assert loop["mean_cycles"] == chainsim.analytic_loop_mean_cycles(cfg)
    assert loop["storage_time"] == loop["mean_cycles"] * params.d / params.nu


def test_analytic_chain_at_the_paper_point():
    chain = chainsim.analytic_chain(ChainConfig(params=MID_PARAMS))
    assert chain["alpha_prime"] == analytics.alpha_prime(MID_PARAMS.alpha, MID_PARAMS.d)
    assert chain["r"] == analytics.r(MID_PARAMS.x, p_t_full(MID_PARAMS))
    assert chain["alpha_prime_with_gates"] == 2.0 * MID_PARAMS.alpha * chain["r"]


def test_analytic_blocks_at_overflowing_x_read_the_ieee_limits():
    cfg = ChainConfig(params=dataclasses.replace(MID_PARAMS, alpha=1e308, d=1e308))
    with np.errstate(over="ignore"):
        chain, loop = chainsim.analytic_chain(cfg), chainsim.analytic_loop(cfg)
    assert set(chain) == CHAIN_GATED
    assert chain["survival_prob"] == chain["p_f"] == chain["end_to_end_success"] == 0.0
    assert chain["r"] == 1.5  # the asymptote of f
    assert math.isinf(chain["alpha_prime"]) and math.isinf(chain["alpha_prime_with_gates"])
    assert loop == {"per_cycle_success": 0.0, "mean_cycles": 0.0, "storage_time": 0.0,
                    "bare_half_decay_time": 0.0}


def test_analytic_loop_ignores_a_censoring_cap():
    cfg = ChainConfig(params=IDEAL_PARAMS, p_t_override=1.0, max_cycles=30)
    loop = chainsim.analytic_loop(cfg)
    assert loop == {"per_cycle_success": 1.0, "mean_cycles": math.inf, "storage_time": math.inf}
    assert chainsim.analytic_loop(dataclasses.replace(cfg, max_cycles=10**6)) == loop
