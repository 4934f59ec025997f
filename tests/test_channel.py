"""Stage-level loss events and gate coins."""

import numpy as np
import pytest
from scipy import stats as sps

from lossguard import channel, losscode
from lossguard.analytics import TransponderParams, p_f, p_t_full, survival_prob
from lossguard.channel import (
    MODE_AGGREGATE,
    MODE_PER_GATE,
    STATUS_CORRECTED,
    STATUS_FAILED_GATES,
    STATUS_FAILED_MULTI,
    STATUS_INTACT,
    LossEvent,
    SegmentModel,
    StageResult,
    gates_succeed,
    stage,
    transmit_segment,
)
from lossguard.simcore import PureState, fidelity, partial_trace, random_state

PARAMS = TransponderParams(alpha=0.05, d=10.0, n=160, eta=1.0 - 1e-5)


def encoded_state(seed=3):
    return losscode.encode(random_state(2, np.random.default_rng(seed)))


def test_segment_model_survival():
    model = SegmentModel(alpha=0.1, d=10.0)
    assert model.survival == pytest.approx(np.exp(-1.0), rel=1e-12)
    with pytest.raises(ValueError):
        SegmentModel(alpha=-0.1, d=10.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_segment_model_rejects_non_finite_values(bad):
    with pytest.raises(ValueError):
        SegmentModel(alpha=bad, d=10.0)
    with pytest.raises(ValueError):
        SegmentModel(alpha=0.1, d=bad)


def test_loss_event_accounting():
    event = LossEvent((True, False, True, True))
    assert event.num_lost == 1
    assert event.lost_position() == 1
    with pytest.raises(ValueError):
        LossEvent((True, False, False, True)).lost_position()
    with pytest.raises(ValueError):
        LossEvent((True, True, True))


def test_transmit_segment_loss_counts_match_binomial():
    model = SegmentModel(alpha=0.05, d=10.0)
    rng = np.random.default_rng(99)
    draws = 20_000
    counts = np.zeros(5, dtype=int)
    rail_survivals = np.zeros(4, dtype=int)
    for _ in range(draws):
        event = transmit_segment(model, rng)
        counts[event.num_lost] += 1
        rail_survivals += np.asarray(event.survival_mask, dtype=int)
    p = model.survival
    expected = draws * np.array(
        [sps.binom.pmf(k, 4, 1.0 - p) for k in range(5)]
    )
    # merge tail bins so every expected count is comfortably large
    observed = np.array([counts[0], counts[1], counts[2] + counts[3] + counts[4]])
    predicted = np.array([expected[0], expected[1], expected[2:].sum()])
    result = sps.chisquare(observed, predicted)
    assert result.pvalue > 1e-4
    # each rail individually survives at rate p
    for hits in rail_survivals:
        rate = hits / draws
        assert abs(rate - p) < 4.0 * np.sqrt(p * (1 - p) / draws)


def test_gates_succeed_aggregate_rate():
    rng = np.random.default_rng(17)
    draws = 20_000
    hits = sum(gates_succeed(PARAMS, rng) for _ in range(draws))
    target = p_t_full(PARAMS)
    assert abs(hits / draws - target) < 4.0 * np.sqrt(target * (1 - target) / draws)


def test_gates_succeed_per_gate_rate():
    params = TransponderParams(alpha=0.0, d=0.0, n=200)
    rng = np.random.default_rng(23)
    draws = 5_000
    hits = sum(gates_succeed(params, rng, MODE_PER_GATE) for _ in range(draws))
    target = p_t_full(params)
    assert abs(hits / draws - target) < 4.0 * np.sqrt(target * (1 - target) / draws)


def test_gates_succeed_override_rules():
    rng = np.random.default_rng(0)
    assert gates_succeed(PARAMS, rng, p_t_override=1.0)
    assert not gates_succeed(PARAMS, rng, p_t_override=0.0)
    with pytest.raises(ValueError):
        gates_succeed(PARAMS, rng, MODE_PER_GATE, p_t_override=0.5)
    with pytest.raises(ValueError):
        gates_succeed(PARAMS, rng, p_t_override=1.5)
    with pytest.raises(ValueError):
        gates_succeed(PARAMS, rng, mode="other")


def test_stage_result_consistency_checks():
    state = encoded_state()
    clean = LossEvent((True,) * 4)
    single = LossEvent((True, True, False, True))
    double = LossEvent((False, True, False, True))
    with pytest.raises(ValueError):
        StageResult(STATUS_INTACT, None, clean)
    with pytest.raises(ValueError):
        StageResult(STATUS_FAILED_MULTI, state, double)
    with pytest.raises(ValueError):
        StageResult(STATUS_CORRECTED, state, clean)
    with pytest.raises(ValueError):
        StageResult(STATUS_FAILED_MULTI, None, single)
    StageResult(STATUS_CORRECTED, state, single)
    StageResult(STATUS_FAILED_GATES, None, clean)


def test_stage_intact_passes_state_through():
    state = encoded_state()
    model = SegmentModel(alpha=0.0, d=1.0)
    result = stage(
        state, model, PARAMS, np.random.default_rng(1), p_t_override=1.0
    )
    assert result.status == STATUS_INTACT
    assert result.state is state
    assert result.event.num_lost == 0


def test_stage_gate_coin_applies_even_without_loss():
    # transponder hardware fires every stage; a clean segment still fails
    # when the gate draw fails
    state = encoded_state()
    model = SegmentModel(alpha=0.0, d=1.0)
    result = stage(
        state, model, PARAMS, np.random.default_rng(1), p_t_override=0.0
    )
    assert result.status == STATUS_FAILED_GATES
    assert result.state is None


def test_stage_forced_single_loss_corrects():
    state = encoded_state(9)
    model = SegmentModel(alpha=0.05, d=10.0)
    for position in range(4):
        mask = tuple(i != position for i in range(4))
        result = stage(
            state,
            model,
            PARAMS,
            np.random.default_rng(100 + position),
            p_t_override=1.0,
            force_event=LossEvent(mask),
        )
        assert result.status == STATUS_CORRECTED
        assert fidelity(result.state, state) >= 1.0 - 1e-10
        assert result.event.lost_position() == position


def test_stage_forced_single_loss_fails_when_gates_fail():
    state = encoded_state(9)
    model = SegmentModel(alpha=0.05, d=10.0)
    result = stage(
        state,
        model,
        PARAMS,
        np.random.default_rng(4),
        p_t_override=0.0,
        force_event=LossEvent((True, False, True, True)),
    )
    assert result.status == STATUS_FAILED_GATES


def test_stage_multi_loss_always_fails():
    state = encoded_state()
    model = SegmentModel(alpha=0.05, d=10.0)
    result = stage(
        state,
        model,
        PARAMS,
        np.random.default_rng(4),
        p_t_override=1.0,
        force_event=LossEvent((False, False, True, True)),
    )
    assert result.status == STATUS_FAILED_MULTI
    assert result.state is None


def test_stage_rejects_states_outside_the_code():
    model = SegmentModel(alpha=0.0, d=1.0)
    with pytest.raises(ValueError):
        stage(PureState.basis("0001"), model, PARAMS, np.random.default_rng(0))


def test_stage_rejects_a_recovery_that_leaves_a_mixed_state():
    # outside the code space the lost rail can stay entangled with the rest,
    # and both recovery paths must refuse the mixed result
    amps = PureState.basis("0000").amplitudes + PureState.basis("1011").amplitudes
    block = PureState(4, amps / np.sqrt(2.0))
    with pytest.raises(losscode.RecoveryError):
        stage(
            block,
            SegmentModel(alpha=0.05, d=10.0),
            PARAMS,
            np.random.default_rng(0),
            p_t_override=1.0,
            force_event=LossEvent((False, True, True, True)),
            check_code_space=False,
        )
    with pytest.raises(losscode.RecoveryError):
        losscode.recovery_branches(partial_trace(block.to_density_matrix(), 0), 0)


def test_stage_success_rate_matches_product_model():
    state = encoded_state(2)
    model = SegmentModel(alpha=0.05, d=10.0)
    rng = np.random.default_rng(77)
    trials = 20_000
    p_t = 0.85
    wins = 0
    for _ in range(trials):
        result = stage(
            state,
            model,
            PARAMS,
            rng,
            p_t_override=p_t,
            check_code_space=False,
        )
        if result.status in (STATUS_INTACT, STATUS_CORRECTED):
            wins += 1
    target = p_f(survival_prob(0.05, 10.0)) * p_t
    assert abs(wins / trials - target) < 3.0 * np.sqrt(target * (1 - target) / trials)


def test_long_walk_from_haar_input_stays_in_code_space():
    # every stage loses one rail, so the block goes through 300 recoveries
    # in a row; rounding noise must not push it out of the code space
    logical = random_state(2, np.random.default_rng(21))
    state = losscode.encode(logical)
    model = SegmentModel(alpha=0.3, d=10.0)
    rng = np.random.default_rng(5)
    for _ in range(300):
        position = int(rng.integers(4))
        result = stage(
            state,
            model,
            PARAMS,
            rng,
            p_t_override=1.0,
            force_event=LossEvent(tuple(i != position for i in range(4))),
        )
        assert result.status == STATUS_CORRECTED
        state = result.state
        assert losscode.in_code_space(state)
        assert fidelity(losscode.decode(state), logical) >= 1.0 - 1e-10


def test_corrected_states_stay_in_the_code_space():
    state = encoded_state(13)
    model = SegmentModel(alpha=0.2, d=10.0)
    rng = np.random.default_rng(31)
    seen = 0
    while seen < 25:
        result = stage(state, model, PARAMS, rng, p_t_override=1.0)
        if result.status == STATUS_CORRECTED:
            assert losscode.in_code_space(result.state)
            seen += 1


def test_aggregate_and_per_gate_agree_on_average():
    params = TransponderParams(alpha=0.0, d=0.0, n=64)
    draws = 4_000
    rng_a = np.random.default_rng(55)
    rng_b = np.random.default_rng(56)
    agg = sum(gates_succeed(params, rng_a, MODE_AGGREGATE) for _ in range(draws))
    per = sum(gates_succeed(params, rng_b, MODE_PER_GATE) for _ in range(draws))
    p = p_t_full(params)
    sigma = np.sqrt(2 * p * (1 - p) / draws)
    assert abs(agg / draws - per / draws) < 4.0 * sigma
