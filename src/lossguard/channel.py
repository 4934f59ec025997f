"""Physical layer: per-rail photon survival and one transponder stage.

A stage is one fiber segment followed by a transponder.  The four rails
lose photons independently; the QND readout heralds which rail, if any,
went dark.  Zero losses pass the block through, one loss runs the recovery
circuit, two or more are unrecoverable.  The transponder circuit is in
line every stage, so its gates must fire whether or not a loss occurred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Which of the four rails kept their photon."""

    survival_mask: tuple[bool, bool, bool, bool]

    def __post_init__(self) -> None:
        raw = tuple(self.survival_mask)
        mask = tuple(map(bool, raw))
        # refuses entries unequal to their bool (NaN, 0.5, 2, "1", None); bools cost 4 `is` tests
        if len(mask) != DATA_QUBITS or mask != raw:
            raise ValueError(f"survival mask must be {DATA_QUBITS} True/False entries, got {raw!r}")
        object.__setattr__(self, "survival_mask", mask)

    @property
    def num_lost(self) -> int:
        return DATA_QUBITS - sum(self.survival_mask)

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


def transmit_segment(model: SegmentModel, rng: np.random.Generator) -> LossEvent:
    """Independent Bernoulli survival of the four rail photons."""
    return LossEvent(tuple((rng.random(DATA_QUBITS) < model.survival).tolist()))


def coin_p_t(params: TransponderParams, mode: str, p_t_override: float | None) -> float | None:
    """The gate coin's probability: `p_t_override` if given, else p_t_full, or
    None for per_gate's per-device coins.  Only aggregate_pt takes an override,
    the one way to express ideal gates (the product is < 1 for every finite n)."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if p_t_override is not None:
        if mode != MODE_AGGREGATE:
            raise ValueError("p_t_override only applies to aggregate_pt")
        return check_real("p_t_override", p_t_override, 0.0, 1.0)
    return p_t_full(params) if mode == MODE_AGGREGATE else None


def gate_coins(params: TransponderParams, p_t: float | None, rng: np.random.Generator, rows=None):
    """Did every device fire?  One bool, or one per stage for `rows` stages, from
    the same stream as `rows` one-stage calls.  A float `p_t` is one coin per
    stage; None draws how many devices of each `gate_devices` kind failed and
    fires where none did, exact since P(no failure among k devices) = p**k."""
    if p_t is not None:
        return rng.random(rows) < p_t
    probs, counts = zip(*gate_devices(params))
    size = None if rows is None else (rows, len(counts))
    return ~rng.binomial(counts, 1.0 - np.array(probs), size=size).any(axis=-1)


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

    `force_event` pins the loss pattern (test hook).  A single loss runs the
    recovery kernel of losscode on the block's two split columns.
    """
    p_t = coin_p_t(gate_model, mode, p_t_override)
    if check_code_space and not losscode.in_code_space(encoded):
        raise ValueError("stage input is not in the code space")
    event = force_event if force_event is not None else transmit_segment(model, rng)
    if event.num_lost >= 2:
        return StageResult(STATUS_FAILED_MULTI, None, event)
    if not gate_coins(gate_model, p_t, rng):
        return StageResult(STATUS_FAILED_GATES, None, event)
    if event.num_lost == 0:
        return StageResult(STATUS_INTACT, encoded, event)
    position = event.lost_position()
    # The two values of the lost rail split the block into two columns; one
    # product sends both through all four readout maps.
    columns = encoded.amplitudes[losscode.SPLITS[position]]
    images, weights = losscode.recovery_images(columns, position)
    choice = losscode.draw_readout([w0 + w1 for w0, w1 in weights], rng)
    kept = losscode.corrected_block(images[choice], weights[choice])
    return StageResult(STATUS_CORRECTED, PureState(DATA_QUBITS, kept), event)
