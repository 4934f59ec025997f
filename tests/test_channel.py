"""Stage-level loss events and gate coins."""

import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import stats as sps

from lossguard import channel, losscode
from lossguard.analytics import TransponderParams, gate_devices, p_f, p_t_full, survival_prob
from lossguard.chainsim import ChainConfig, run_chain
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
    coin_bounds,
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
    for alpha, d in [(0.1, 10.0), (1.0 / 30.0, 10.0), (0.05, 7.3), (0.0, 1.0)]:
        assert SegmentModel(alpha, d).survival == float(np.exp(-alpha * d))
    with pytest.raises(ValueError):
        SegmentModel(alpha=-0.1, d=10.0)
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match="booleans"):
            SegmentModel(alpha=flag, d=10.0)
        with pytest.raises(ValueError, match="booleans"):
            SegmentModel(alpha=0.1, d=flag)


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf"), 10**400], ids=["nan", "inf", "-inf", "10**400"]
)
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


@pytest.mark.parametrize("bad", [float("nan"), 2, 0.5, "1", None, -1])
def test_loss_event_entries_must_be_true_or_false(bad):
    with pytest.raises(ValueError, match="survival mask"):
        LossEvent((True, True, bad, False))


def test_loss_event_accepts_booleans_and_zero_one():
    for mask in [(True, True, False, True), (np.True_, np.True_, np.False_, np.True_), (1, 1, 0, 1)]:
        event = LossEvent(mask)
        assert event.survival_mask == (True, True, False, True)
        assert all(type(kept) is bool for kept in event.survival_mask)


def test_one_prebuilt_event_per_loss_pattern():
    # the 16 events are built once; the segment and the stage hand out the same objects
    events = {}
    for mask in itertools.product((True, False), repeat=4):
        rails = [0.25 if kept else 0.75 for kept in mask]
        event = channel._loss_event(rails, 0.5)
        assert event == LossEvent(mask) and event.num_lost == LossEvent(mask).num_lost
        assert channel._loss_event(rails, 0.5) is event
        events[mask] = event
    rng = np.random.default_rng(12)
    model = SegmentModel(alpha=0.05, d=10.0)
    drawn = [transmit_segment(model, rng) for _ in range(200)]
    drawn += [stage(encoded_state(), model, PARAMS, rng, p_t_override=1.0).event for _ in range(200)]
    assert all(event is events[event.survival_mask] for event in drawn)
    assert {event.num_lost for event in drawn} >= {0, 1, 2}


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


LOSSLESS = SegmentModel(alpha=0.0, d=1.0)


def gates_fired(params, draws, rng, **gate_model):
    """How many of `draws` stages on a lossless segment fired their gates."""
    state = encoded_state()
    return sum(
        stage(state, LOSSLESS, params, rng, check_code_space=False, **gate_model).status == STATUS_INTACT
        for _ in range(draws)
    )


def test_gates_succeed_aggregate_rate():
    rng = np.random.default_rng(17)
    draws = 20_000
    [target] = coin_bounds(PARAMS, MODE_AGGREGATE)
    assert target == p_t_full(PARAMS)
    hits = gates_fired(PARAMS, draws, rng)
    assert abs(hits / draws - target) < 4.0 * np.sqrt(target * (1 - target) / draws)


def test_gates_succeed_per_gate_rate():
    params = TransponderParams(alpha=0.0, d=0.0, n=200)
    rng = np.random.default_rng(23)
    draws = 5_000
    assert len(coin_bounds(params, MODE_PER_GATE)) == len(gate_devices(params))
    hits = gates_fired(params, draws, rng, mode=MODE_PER_GATE)
    target = p_t_full(params)
    assert abs(hits / draws - target) < 4.0 * np.sqrt(target * (1 - target) / draws)


# lossy and large: 3.2 million guns and as many detectors per stage, p_t ~ 0.73
LARGE_N = TransponderParams(alpha=0.0, d=0.0, n=10**5, eta=1.0 - 1e-7)


def assert_coin_law(params, rows, seed):
    """Run `rows` per_gate stages on a lossless segment and read the coin
    columns of the rows they drew from a twin generator: each column fires
    at p**k of its device kind, and the gates stay intact exactly where
    every column fires, at p_t_full."""
    state, rng = encoded_state(), np.random.default_rng(seed)
    statuses = [stage(state, LOSSLESS, params, rng, mode=MODE_PER_GATE, check_code_space=False).status
                for _ in range(rows)]
    bounds = coin_bounds(params, MODE_PER_GATE)
    assert bounds == [p**k for p, k in gate_devices(params)]
    assert np.prod(bounds) == pytest.approx(p_t_full(params), rel=1e-12)
    coins = np.random.default_rng(seed).random((rows, 4 + len(bounds) + 1))[:, 4:-1] < bounds
    assert [s == STATUS_INTACT for s in statuses] == coins.all(axis=1).tolist()
    assert set(statuses) == {STATUS_INTACT, STATUS_FAILED_GATES}
    for kind, column in zip(bounds, coins.T):
        assert abs(column.mean() - kind) <= 4.0 * np.sqrt(kind * (1 - kind) / rows)
    target = p_t_full(params)
    assert abs(coins.all(axis=1).mean() - target) <= 4.0 * np.sqrt(target * (1 - target) / rows)


def test_per_gate_coin_columns_fire_at_p_to_the_k():
    params = TransponderParams(alpha=0.0, d=0.0, n=20, eta=0.9999, p_one=0.999, p_spg=0.998)
    assert all(0.0 < bound < 1.0 for bound in coin_bounds(params, MODE_PER_GATE))
    assert_coin_law(params, 5_000, 4)


def test_per_gate_coins_fire_at_the_product_rate_for_large_n():
    target = p_t_full(LARGE_N)
    assert 0.7 < target < 0.75
    assert_coin_law(LARGE_N, 20_000, 31)


def test_per_gate_coins_memory_does_not_grow_with_the_device_count():
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        coin_bounds(LARGE_N, MODE_PER_GATE)
        stage(encoded_state(), LOSSLESS, LARGE_N, rng, mode=MODE_PER_GATE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def status_of_row(row, survival, bounds, force_event=None):
    """The status a stage must return for one drawn row."""
    kept = row[:4] < survival if force_event is None else np.array(force_event.survival_mask)
    lost = 4 - int(kept.sum())
    if lost >= 2:
        return STATUS_FAILED_MULTI
    if not (row[4:-1] < bounds).all():
        return STATUS_FAILED_GATES
    return STATUS_INTACT if lost == 0 else STATUS_CORRECTED


@pytest.mark.parametrize("mode, override", [(MODE_AGGREGATE, 0.8), (MODE_PER_GATE, None)])
@pytest.mark.parametrize("forced", [None, (True, False, True, True)], ids=["drawn", "forced"])
def test_stage_draws_one_row_per_call(mode, override, forced):
    # N stage calls read the rows of one (N, width) draw and leave the
    # generator where that draw leaves it, on every status path; the row's
    # rails, coins and readout decide the result
    model = SegmentModel(alpha=0.05, d=10.0)
    event = None if forced is None else LossEvent(forced)
    bounds = coin_bounds(PARAMS, mode, override)
    calls = 400
    singles, batched = np.random.default_rng(8), np.random.default_rng(8)
    state = encoded_state()
    results = [stage(state, model, PARAMS, singles, mode=mode, p_t_override=override,
                     force_event=event) for _ in range(calls)]
    rows = batched.random((calls, 4 + len(bounds) + 1))
    assert singles.bit_generator.state == batched.bit_generator.state
    want = [status_of_row(row, model.survival, bounds, event) for row in rows]
    assert [result.status for result in results] == want
    assert set(want) >= {STATUS_FAILED_GATES, STATUS_CORRECTED}
    if forced is None:
        assert set(want) == {STATUS_INTACT, STATUS_CORRECTED, STATUS_FAILED_MULTI, STATUS_FAILED_GATES}
        masks = [tuple((row[:4] < model.survival).tolist()) for row in rows]
        assert [result.event.survival_mask for result in results] == masks


def test_gates_succeed_override_rules():
    assert coin_bounds(PARAMS, MODE_AGGREGATE, 1.0) == [1.0]
    assert coin_bounds(PARAMS, MODE_AGGREGATE, 0.0) == [0.0]
    assert coin_bounds(PARAMS, MODE_AGGREGATE, None) == [p_t_full(PARAMS)]
    rng = np.random.default_rng(0)
    assert gates_fired(PARAMS, 50, rng, p_t_override=1.0) == 50
    assert gates_fired(PARAMS, 50, rng, p_t_override=0.0) == 0


@pytest.mark.parametrize(
    "mode, override",
    [
        (MODE_PER_GATE, 0.5),
        (MODE_AGGREGATE, 1.5),
        (MODE_AGGREGATE, True),
        ("other", None),
        (MODE_AGGREGATE, np.True_),
    ],
)
def test_gate_model_rules_are_shared_by_config_and_coin(mode, override):
    with pytest.raises(ValueError) as coin:
        coin_bounds(PARAMS, mode, override)
    with pytest.raises(ValueError) as config:
        ChainConfig(params=PARAMS, mode=mode, p_t_override=override)
    assert str(coin.value) == str(config.value)


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


@pytest.mark.parametrize(
    "mode, override", [("bogus", None), (MODE_AGGREGATE, 7.0), (MODE_PER_GATE, 0.5)]
)
def test_stage_checks_its_gate_model_before_any_draw(mode, override):
    # every rail is lost, so without the check first the stage would return
    # failed_multi_loss before it ever read the gate model
    model = SegmentModel(alpha=100.0, d=1.0)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="mode|p_t_override"):
        stage(encoded_state(), model, PARAMS, rng, mode=mode, p_t_override=override)
    assert rng.bit_generator.state == before


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


@pytest.mark.parametrize("eps, refused", [(3e-5, True), (3e-6, False)])
def test_both_recovery_paths_share_the_purity_tolerance(eps, refused):
    # a lost rail entangled with weight eps**2 leaves about 5e-10 to 8e-10
    # of each readout's weight off its heaviest image at eps = 3e-5, and
    # about 100 times less at eps = 3e-6; RECOVERY_TOL = 1e-10 sits between
    rng = np.random.default_rng(8)
    phi, chi = random_state(3, rng).amplitudes, random_state(3, rng).amplitudes
    chi = chi - np.vdot(phi, chi) * phi
    amps = np.zeros(16, dtype=complex)
    amps[losscode.SPLITS[1]] = np.column_stack([phi, eps * chi / np.linalg.norm(chi)])
    block = PureState(4, amps / np.linalg.norm(amps))
    damaged = partial_trace(block.to_density_matrix(), 1)
    model = SegmentModel(alpha=0.05, d=10.0)
    forced = dict(p_t_override=1.0, force_event=LossEvent((True, False, True, True)))
    for seed in range(8):  # the seeds pick different readouts
        rng = np.random.default_rng(seed)
        if refused:
            with pytest.raises(losscode.RecoveryError):
                stage(block, model, PARAMS, rng, check_code_space=False, **forced)
        else:
            result = stage(block, model, PARAMS, rng, check_code_space=False, **forced)
            assert result.status == STATUS_CORRECTED
    if refused:
        with pytest.raises(losscode.RecoveryError):
            losscode.recovery_branches(damaged, 1)
    else:
        assert len(losscode.recovery_branches(damaged, 1)) == 4


class FixedDraws:
    """Stands in for a Generator whose random() returns the listed values in
    turn: a float for random(), an array of `size` uniforms for random(size)."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self, size=None):
        value = self.values.pop(0)
        assert np.shape(value) == (() if size is None else (size,))
        return value


def product_block(position, seed):
    """A block whose lost rail is unentangled with the rest: outside the code
    space, yet every readout leaves a pure state, with unequal probabilities."""
    rng = np.random.default_rng(seed)
    amps = np.zeros(16, dtype=complex)
    amps[losscode.SPLITS[position]] = np.outer(
        random_state(3, rng).amplitudes, random_state(1, rng).amplitudes
    )
    return PureState(4, amps)


@pytest.mark.parametrize("position", range(4))
def test_stage_and_recovery_branches_agree_on_every_readout(position):
    # stage runs the kernel on a block's split columns, recovery_branches on
    # its factored density matrix; both must give the same branches
    for block in (encoded_state(17 + position), product_block(position, 40 + position)):
        damaged = partial_trace(block.to_density_matrix(), position)
        branches = losscode.recovery_branches(damaged, position)
        probs = [b.measurement.outcome_probability for b in branches]
        event = LossEvent(tuple(i != position for i in range(4)))
        for m, branch in enumerate(branches):
            lo, hi = sum(probs[:m]), sum(probs[: m + 1])
            # the row's coin column fires and its last column picks the readout:
            # a uniform 1e-12 inside either end of readout m's interval picks it
            for u in (lo + 1e-12, hi - 1e-12):
                result = stage(
                    block,
                    SegmentModel(alpha=0.05, d=10.0),
                    PARAMS,
                    FixedDraws(np.array([0.5, 0.5, 0.5, 0.5, 0.0, u])),
                    p_t_override=1.0,
                    force_event=event,
                    check_code_space=False,
                )
                assert fidelity(result.state, branch.corrected_state) >= 1.0 - 1e-12
                # recover draws its readout from the same single uniform
                picked = losscode.recover(damaged, position, FixedDraws(u))
                assert picked.measurement.outcome_bits == branch.measurement.outcome_bits


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
    agg = gates_fired(params, draws, rng_a, mode=MODE_AGGREGATE)
    per = gates_fired(params, draws, rng_b, mode=MODE_PER_GATE)
    p = p_t_full(params)
    sigma = np.sqrt(2 * p * (1 - p) / draws)
    assert abs(agg / draws - per / draws) < 4.0 * sigma


# ---------------------------------------------------------------------------
# the corrected path's per-block table


def readout_pick(block, rail, m):
    """The uniform mid-way in readout m's interval after a loss at `rail`, and readout m's images
    and weights, from recovery_images and draw_readout directly."""
    images, weights = losscode.recovery_images(block.amplitudes[losscode.SPLITS[rail]], rail)
    weights = weights.tolist()
    probs = [w0 + w1 for w0, w1 in weights]
    edges = [0.0, *losscode.readout_bounds(probs), 1.0]
    u = (edges[m] + edges[m + 1]) / 2
    assert losscode.draw_readout(probs, u) == m
    return u, images[m], weights[m]


def corrected_by_stage(block, rail, u):
    """stage's block after a loss at `rail` and the readout uniform u, from one stub row."""
    row = np.array([0.999 if i == rail else 0.0 for i in range(4)] + [0.0, u])
    result = stage(block, SegmentModel(alpha=0.05, d=10.0), PARAMS, FixedDraws(row), p_t_override=1.0,
                   check_code_space=False)
    assert result.status == STATUS_CORRECTED
    return result.state


def test_table_blocks_are_bit_equal_to_the_direct_recovery():
    first = encoded_state(21)
    second = corrected_by_stage(first, 2, readout_pick(first, 2, 3)[0])  # a corrected block, run again
    for block in (first, second):
        for rail, m in itertools.product(range(4), range(4)):
            u, images, weights = readout_pick(block, rail, m)
            kept = losscode.corrected_block(images, weights)
            got = corrected_by_stage(block, rail, u)
            assert np.array_equal(got.amplitudes, kept) and got.amplitudes.tobytes() == kept.tobytes()
            assert corrected_by_stage(block, rail, u) is got


def test_table_hands_out_one_block_per_readout_while_it_lives():
    block = encoded_state(22)
    u = readout_pick(block, 1, 2)[0]
    kept = corrected_by_stage(block, 1, u)
    assert corrected_by_stage(block, 1, u) is kept
    assert corrected_by_stage(block, 1, readout_pick(block, 1, 0)[0]) is not kept
    ref, data = weakref.ref(kept), kept.amplitudes.tobytes()
    del kept
    gc.collect()
    assert ref() is None  # the table does not keep a handed-out block alive
    assert corrected_by_stage(block, 1, u).amplitudes.tobytes() == data
    # nor the block it is keyed on
    block_ref, size = weakref.ref(block), len(channel._RECOVERIES)
    del block
    gc.collect()
    assert block_ref() is None and len(channel._RECOVERIES) == size - 1


def test_table_is_empty_after_a_chain_run(monkeypatch):
    class CountingTable(weakref.WeakKeyDictionary):
        stored = 0

        def __setitem__(self, key, value):
            self.stored += 1
            super().__setitem__(key, value)

    table = CountingTable()
    monkeypatch.setattr(channel, "_RECOVERIES", table)
    stats = run_chain(ChainConfig(params=PARAMS, num_stages=5, trials=300, seed=4))
    assert stats.status_counts[STATUS_CORRECTED] > 0 and table.stored > 0
    assert len(table) == 0


def test_stage_refuses_a_mixed_readout_of_a_fresh_block(monkeypatch):
    # readout m's map at one position blended with the next readout's after an X on the lost
    # rail: its two images are no longer parallel, so the kept block is mixed
    position, m, maps_of = 2, 2, losscode.branch_maps

    def mixed(pos):
        maps = maps_of(pos)
        if pos == position:
            maps = maps.copy()
            flip = (np.arange(16) ^ (8 >> pos)).tolist()
            maps[m] = math.cos(0.3) * maps[m] + math.sin(0.3) * maps[m + 1][flip]
        return maps

    monkeypatch.setattr(losscode, "branch_maps", mixed)
    block = encoded_state(23)
    u = readout_pick(block, position, m)[0]
    for _ in range(2):  # a refused readout is not stored, so it is refused again
        with pytest.raises(losscode.RecoveryError, match="not pure"):
            corrected_by_stage(block, position, u)
