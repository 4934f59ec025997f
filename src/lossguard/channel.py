"""Physical layer: per-rail photon survival and one transponder stage.

A stage is one fiber segment followed by a transponder.  The four rails
lose photons independently; the QND readout heralds which rail, if any,
went dark.  Zero losses pass the block through, one loss runs the recovery
circuit, two or more are unrecoverable.  The transponder circuit is in
line every stage, so its gates must fire whether or not a loss occurred.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from lossguard import analytics, losscode
from lossguard.analytics import TransponderParams, gate_success, p_t_full
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

RAILS = 4

# _SPLITS[k][i, b]: index of the amplitude with surviving rails in state i and rail k = b
_RAIL_AXES = np.arange(1 << RAILS).reshape((2,) * RAILS)
_SPLITS = [np.moveaxis(_RAIL_AXES, k, -1).reshape(-1, 2) for k in range(RAILS)]


@dataclass(frozen=True)
class SegmentModel:
    """One fiber segment: attenuation rate alpha over length d."""

    alpha: float
    d: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.d)):
            raise ValueError("alpha and d must be finite")
        if self.alpha < 0 or self.d < 0:
            raise ValueError("alpha and d must be nonnegative")

    @property
    def survival(self) -> float:
        return float(np.exp(-self.alpha * self.d))


@dataclass(frozen=True)
class LossEvent:
    """Which of the four rails kept their photon."""

    survival_mask: tuple[bool, bool, bool, bool]

    def __post_init__(self) -> None:
        mask = tuple(bool(b) for b in self.survival_mask)
        if len(mask) != RAILS:
            raise ValueError(f"survival mask must cover {RAILS} rails")
        object.__setattr__(self, "survival_mask", mask)

    @property
    def num_lost(self) -> int:
        return RAILS - sum(self.survival_mask)

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
    draws = rng.random(RAILS)
    return LossEvent(tuple(bool(u < model.survival) for u in draws))


@lru_cache(maxsize=64)
def _aggregate_pt(params: TransponderParams) -> float:
    return p_t_full(params)


def gates_succeed(
    params: TransponderParams,
    rng: np.random.Generator,
    mode: str = MODE_AGGREGATE,
    p_t_override: float | None = None,
) -> bool:
    """Did every transponder device fire this stage?

    aggregate_pt draws one coin at the full product probability; per_gate
    draws a coin per device so the exponent bookkeeping can be
    cross-checked.  `p_t_override` replaces the aggregate probability,
    which is the only way to express ideal gates (the product is < 1 for
    every finite n).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if p_t_override is not None:
        if mode != MODE_AGGREGATE:
            raise ValueError("p_t_override only applies to aggregate_pt")
        if not 0.0 <= p_t_override <= 1.0:
            raise ValueError("p_t_override must lie in [0, 1]")
        return bool(rng.random() < p_t_override)
    if mode == MODE_AGGREGATE:
        return bool(rng.random() < _aggregate_pt(params))
    ancilla_events = 10 + 32 * params.n
    ok = bool(np.all(rng.random(analytics.ONE_QUBIT_GATE_COUNT) < params.p_one))
    ok &= bool(np.all(rng.random(analytics.TWO_QUBIT_GATE_COUNT) < gate_success(params.n)))
    ok &= bool(np.all(rng.random(ancilla_events) < params.p_spg))
    ok &= bool(np.all(rng.random(ancilla_events) < params.eta))
    return ok


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

    `force_event` pins the loss pattern (test hook).  A single loss applies
    the compiled recovery maps of its position to the block's amplitudes.
    """
    if check_code_space and not losscode.in_code_space(encoded):
        raise ValueError("stage input is not in the code space")
    event = force_event if force_event is not None else transmit_segment(model, rng)
    if event.num_lost >= 2:
        return StageResult(STATUS_FAILED_MULTI, None, event)
    gates_ok = gates_succeed(gate_model, rng, mode, p_t_override)
    if event.num_lost == 0:
        if not gates_ok:
            return StageResult(STATUS_FAILED_GATES, None, event)
        return StageResult(STATUS_INTACT, encoded, event)
    if not gates_ok:
        return StageResult(STATUS_FAILED_GATES, None, event)
    position = event.lost_position()
    # The two values of the lost rail split the block into two surviving-rail
    # vectors; one product sends both through all four readout maps.
    images = losscode.branch_maps(position) @ encoded.amplitudes[_SPLITS[position]]
    weights = (images * images.conj()).real.sum(axis=1).tolist()  # [readout][lost-rail value]
    probs = [w0 + w1 for w0, w1 in weights]
    total = sum(probs)
    # the last bound is left out, which reads it as exactly 1
    cumulative = list(accumulate(p / total for p in probs))[:-1]
    choice = bisect_right(cumulative, rng.random())
    # Tracing out the lost rail mixes the two images of the chosen readout;
    # the result is pure only when they are parallel.
    first, second = images[choice, :, 0], images[choice, :, 1]
    w0, w1 = weights[choice]
    mixed = (w0 * w1 - abs(np.vdot(first, second)) ** 2) / probs[choice] ** 2
    if mixed > losscode.RECOVERY_TOL:
        raise losscode.RecoveryError(f"post-measurement state not pure: mixed weight {mixed:.3g}")
    kept, weight = (first, w0) if w0 >= w1 else (second, w1)
    return StageResult(STATUS_CORRECTED, PureState(RAILS, kept / np.sqrt(weight)), event)
