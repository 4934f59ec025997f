"""Monte Carlo chain and loop drivers."""

import dataclasses
import math

import numpy as np
import pytest

from lossguard import chainsim
from lossguard.analytics import TransponderParams, p_f, p_t_full, survival_prob
from lossguard.chainsim import ChainConfig, compare_modes, run_chain, run_loop
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
    with pytest.raises(ValueError):
        ChainConfig(params=MID_PARAMS, trials=10**6, num_stages=10**6)


def test_config_rejects_override_with_per_gate_coins():
    with pytest.raises(ValueError):
        ChainConfig(params=MID_PARAMS, mode="per_gate", p_t_override=0.5)


def test_effective_p_t_prefers_override():
    cfg = ChainConfig(params=MID_PARAMS, p_t_override=0.5)
    assert cfg.effective_p_t() == 0.5
    cfg = ChainConfig(params=MID_PARAMS)
    assert cfg.effective_p_t() == p_t_full(MID_PARAMS)


def test_trial_rngs_decorrelate_by_seed_and_trial():
    a = chainsim._trial_rng(1, 0).random()
    b = chainsim._trial_rng(1, 1).random()
    c = chainsim._trial_rng(2, 0).random()
    assert a != b and a != c
    assert chainsim._trial_rng(1, 0).random() == a


def test_run_chain_is_deterministic():
    cfg = ChainConfig(params=MID_PARAMS, trials=3_000, seed=5)
    assert run_chain(cfg) == run_chain(cfg)


def test_run_chain_worker_count_does_not_change_results():
    cfg = ChainConfig(params=MID_PARAMS, trials=11_000, seed=5)
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
    assert not stats.alpha_prime_is_censored


def test_run_chain_hopeless_channel_censors_alpha_prime():
    params = TransponderParams(alpha=2.0, d=10.0, n=1)
    stats = run_chain(ChainConfig(params=params, trials=300, seed=2, p_t_override=1.0))
    assert stats.end_to_end_success == 0.0
    assert math.isinf(stats.empirical_alpha_prime)
    assert stats.alpha_prime_is_censored
    assert math.isnan(stats.mean_fidelity_given_success)


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
    }


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


def test_run_loop_is_deterministic_across_workers():
    cfg = ChainConfig(
        params=TransponderParams(alpha=0.05, d=10.0, n=1),
        trials=11_000,
        seed=9,
        p_t_override=0.7,
        max_cycles=1_000,
    )
    assert run_loop(cfg, workers=1) == run_loop(cfg, workers=3)


def test_compare_modes_agrees_at_moderate_n():
    cfg = ChainConfig(params=MID_PARAMS, trials=8_000, seed=41)
    result = compare_modes(cfg)
    assert result.agree_within_4_sigma
    assert result.analytic_p_t == pytest.approx(p_t_full(MID_PARAMS), rel=1e-12)
    assert abs(result.z_score) < 4.0
    d = result.to_dict()
    assert set(d) == {"aggregate", "per_gate", "analytic_p_t", "z_score", "agree_within_4_sigma"}


def test_compare_modes_rejects_override():
    cfg = ChainConfig(params=MID_PARAMS, trials=100, seed=1, p_t_override=0.5)
    with pytest.raises(ValueError):
        compare_modes(cfg)


def test_config_is_frozen():
    cfg = ChainConfig(params=MID_PARAMS, trials=10)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.trials = 20
