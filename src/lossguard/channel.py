"""Physical layer: per-rail photon survival and one transponder stage.

A stage is one fiber segment followed by a transponder.  The four rails
lose photons independently; the QND readout heralds which rail, if any,
went dark.  Zero losses pass the block through, one loss runs the recovery
circuit, two or more are unrecoverable.  The transponder circuit is in
line every stage, so its gates must fire whether or not a loss occurred.

Every stage evaluation reads one row of uniforms: four rail columns (a
photon survives where u < survival), one gate-coin column per bound of
`coin_bounds`, and one readout column.  The chain draws one row per
`stage` call and the loop one row per live trial and cycle, so both read
the same stream.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from lossguard import losscode
from lossguard.analytics import TransponderParams, check_real, gate_devices, p_t_full, survival_prob
from lossguard.losscode import DATA_QUBITS
from lossguard.simcore import PureState

MODE_AGGREGATE = "aggregate_pt"
MODE_PER_GATE = "per_gate"
MODES = (MODE_AGGREGATE, MODE_PER_GATE)

STATUS_INTACT = "intact"
STATUS_CORRECTED = "corrected"
STATUS_FAILED_MULTI = "failed_multi_loss"
STATUS_FAILED_GATES = "failed_gates"
STATUSES = (STATUS_INTACT, STATUS_CORRECTED, STATUS_FAILED_MULTI, STATUS_FAILED_GATES)
SUCCESS_STATUSES = (STATUS_INTACT, STATUS_CORRECTED)


@dataclass(frozen=True)
class SegmentModel:
    """One fiber segment: attenuation rate alpha over length d."""

    alpha: float
    d: float

    def __post_init__(self) -> None:
        check_real("alpha", self.alpha, 0.0, math.inf)
        check_real("d", self.d, 0.0, math.inf)

    @cached_property
    def survival(self) -> float:
        return survival_prob(self.alpha, self.d)


@dataclass(frozen=True)
class LossEvent:
    """Which of the four rails kept their photon, and how many lost it."""

    survival_mask: tuple[bool, bool, bool, bool]
    num_lost: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        raw = tuple(self.survival_mask)
        mask = tuple(map(bool, raw))
        # refuses entries unequal to their bool (NaN, 0.5, 2, "1", None); bools cost 4 `is` tests
        if len(mask) != DATA_QUBITS or mask != raw:
            raise ValueError(f"survival mask must be {DATA_QUBITS} True/False entries, got {raw!r}")
        object.__setattr__(self, "survival_mask", mask)
        object.__setattr__(self, "num_lost", mask.count(False))

    def lost_position(self) -> int:
        if self.num_lost != 1:
            raise ValueError("lost_position is defined only for single losses")
        return self.survival_mask.index(False)


@dataclass(frozen=True, eq=False)
class StageResult:
    status: str
    state: PureState | None
    event: LossEvent

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status in SUCCESS_STATUSES and self.state is None:
            raise ValueError(f"status {self.status} requires a state")
        if self.status not in SUCCESS_STATUSES and self.state is not None:
            raise ValueError(f"status {self.status} must not carry a state")
        if self.status == STATUS_CORRECTED and self.event.num_lost != 1:
            raise ValueError("corrected requires exactly one loss")
        if self.status == STATUS_FAILED_MULTI and self.event.num_lost < 2:
            raise ValueError("failed_multi_loss requires at least two losses")


# the 16 loss patterns, built and checked once; a LossEvent is frozen, so every stage shares them
_EVENTS = {mask: LossEvent(mask) for mask in itertools.product((True, False), repeat=DATA_QUBITS)}


def _loss_event(rails: list[float], survival: float) -> LossEvent:
    """The rails whose uniform lies below the survival probability kept their photon."""
    a, b, c, d = rails
    return _EVENTS[a < survival, b < survival, c < survival, d < survival]


def transmit_segment(model: SegmentModel, rng: np.random.Generator) -> LossEvent:
    """Independent Bernoulli survival of the four rail photons."""
    return _loss_event(rng.random(DATA_QUBITS).tolist(), model.survival)


def coin_bounds(params: TransponderParams, mode: str, p_t_override: float | None = None) -> list[float]:
    """The gate-coin columns' bounds: [p_t_override] if given, else [p_t_full]
    in aggregate_pt, or p**k for each `gate_devices` kind in per_gate, the
    chance that all k devices of the kind fire.  The gates fire when every
    coin's uniform lies below its bound.  Only aggregate_pt takes an override,
    the one way to express ideal gates (the product is < 1 for every finite n)."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if p_t_override is not None:
        if mode != MODE_AGGREGATE:
            raise ValueError("p_t_override only applies to aggregate_pt")
        return [check_real("p_t_override", p_t_override, 0.0, 1.0)]
    if mode == MODE_AGGREGATE:
        return [p_t_full(params)]
    return [p**k for p, k in gate_devices(params)]


def stage(
    encoded: PureState,
    model: SegmentModel,
    gate_model: TransponderParams,
    rng: np.random.Generator,
    *,
    mode: str = MODE_AGGREGATE,
    p_t_override: float | None = None,
    force_event: LossEvent | None = None,
    check_code_space: bool = True,
) -> StageResult:
    """Send a code block through one segment and its transponder.

    Reads one row of uniforms (rails, gate coins, readout), also when
    `force_event` pins the loss pattern (test hook).  A single loss runs the
    recovery kernel of losscode on the block's two split columns.
    """
    bounds = coin_bounds(gate_model, mode, p_t_override)
    if check_code_space and not losscode.in_code_space(encoded):
        raise ValueError("stage input is not in the code space")
    row = rng.random(DATA_QUBITS + len(bounds) + 1).tolist()
    event = force_event if force_event is not None else _loss_event(row[:DATA_QUBITS], model.survival)
    if event.num_lost >= 2:
        return StageResult(STATUS_FAILED_MULTI, None, event)
    if not all(map(operator.lt, row[DATA_QUBITS:-1], bounds)):
        return StageResult(STATUS_FAILED_GATES, None, event)
    if event.num_lost == 0:
        return StageResult(STATUS_INTACT, encoded, event)
    return StageResult(STATUS_CORRECTED, _corrected(encoded, event.lost_position(), row[-1]), event)


# block -> {lost rail: (readout bounds, images, weights, weak references to the readouts' blocks)}, one
# entry per (block, rail).  Keys and blocks are held weakly, so the table keeps none alive.  Bit-equal blocks
# of one input are one object; a loss is undone exactly, so it holds ~one block per correction count.
_RECOVERIES: weakref.WeakKeyDictionary[PureState, dict] = weakref.WeakKeyDictionary()


def _corrected(encoded: PureState, position: int, u: float) -> PureState:
    """The block left by the readout that u picks after a loss at `position`: built and judged by
    corrected_block on that readout's first pick, then read from the table while it lives."""
    rails = _RECOVERIES.get(encoded)
    if rails is None:
        rails = _RECOVERIES[encoded] = {}
    entry = rails.get(position)
    if entry is None:
        images, weights = losscode.recovery_images(encoded.amplitudes[losscode.SPLITS[position]], position)
        weights = weights.tolist()
        bounds = losscode.readout_bounds([w0 + w1 for w0, w1 in weights])
        entry = rails[position] = bounds, images, weights, [None] * len(weights)
    bounds, images, weights, refs = entry
    choice = bisect_right(bounds, u)
    kept = refs[choice] and refs[choice]()
    if kept is None:
        amplitudes = losscode.corrected_block(images[choice], weights[choice])
        live = (ref() for *_, handed in rails.values() for ref in handed if ref)
        same = (block for block in live if block is not None and np.array_equal(block.amplitudes, amplitudes))
        kept = next(same, None) or PureState(DATA_QUBITS, amplitudes)
        refs[choice] = weakref.ref(kept)
    return kept
