"""Two-to-four qubit erasure code: encoding, decoding, heralded-loss recovery.

Two logical qubits are spread over four rails so that losing any single
photon, at a known position, can be undone.  Loss recovery substitutes a
fresh |0> for the missing photon, entangles all four rails with an ancilla
pair (CNOTs from the first ancilla, CZs from the second), reads the
ancillae out in the X basis, and applies a conditional Pauli correction on
the substituted rail.

Every circuit here is a fixed linear map, compiled once by running basis
states through `simcore.run_circuit`; there are three caches.  `_encoder` is
the 16x16 encoding circuit: `encode` and `codewords` read its columns and
`decode_amplitudes` its conjugate, and `codewords` keeps its four states.
`_compile(position)` runs the recovery circuit on the eight surviving-rail
basis states, giving one 16x8 map per ancilla readout, picks each readout's
Pauli word with an exact code-space test, and returns the correction table
with the corrected maps; `derive_correction_table` and `branch_maps` read it.

`recovery_images` and `corrected_blocks` apply the maps to stacks of blocks, each
as columns C with rho = C C^dagger, and `check_readout` judges every kept image; a
pure block is two split columns, the case `stage` runs alone in `corrected_block`.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from lossguard.analytics import check_count
from lossguard.simcore import (
    ZERO_BRANCH_TOL,
    DensityMatrix,
    Gate,
    ImpossibleBranchError,
    MeasurementRecord,
    PureState,
    fidelity,
    run_circuit,
)

DATA_QUBITS = 4
ANCILLA_QUBITS = (4, 5)
OUTCOMES = ("00", "01", "10", "11")
PAULI_WORDS = ("I", "X", "Z", "XZ")

CODE_SPACE_TOL = 1e-10
RECOVERY_TOL = 1e-10

# SPLITS[k][i, b]: index of the amplitude with surviving rails in state i and rail k = b
_RAIL_AXES = np.arange(1 << DATA_QUBITS).reshape((2,) * DATA_QUBITS)
SPLITS = [np.moveaxis(_RAIL_AXES, k, -1).reshape(-1, 2) for k in range(DATA_QUBITS)]

# Truth table of the code: logical bits -> the pair of basis kets whose
# equal-weight superposition is the codeword.
CODEWORD_KETS = {
    "00": ("0000", "1111"),
    "01": ("0110", "1001"),
    "10": ("1010", "0101"),
    "11": ("1100", "0011"),
}

# Logical wires enter on qubits 0 and 1; qubits 2 and 3 start in |0>.
ENCODING_GATES = (
    Gate("H", (3,)),
    Gate("CNOT", (3, 2)),
    Gate("CNOT", (3, 1)),
    Gate("CNOT", (3, 0)),
    Gate("CNOT", (0, 2)),
    Gate("CNOT", (1, 2)),
)

# Recovery circuit on the six-qubit register (data 0..3, ancillae 4 and 5).
# The coupling pattern is the same for every loss position; only the final
# conditional correction targets the substituted rail.
RECOVERY_GATES = (
    (Gate("H", (4,)), Gate("H", (5,)))
    + tuple(Gate("CNOT", (4, j)) for j in range(DATA_QUBITS))
    + tuple(Gate("CZ", (5, j)) for j in range(DATA_QUBITS))
    + (Gate("H", (4,)), Gate("H", (5,)))
)

class CodeSpaceError(ValueError):
    """Input state is not in the code space."""


class RecoveryError(RuntimeError):
    """Loss recovery did not return the expected encoded state."""


class TableDerivationError(RuntimeError):
    """No unique Pauli word restores every code block for some outcome."""


@dataclass(frozen=True, eq=False)
class Codeword:
    logical_bits: str
    state: PureState


@dataclass(frozen=True)
class CorrectionTable:
    """Measurement outcome -> Pauli word on the substituted rail (a read-only copy)."""

    loss_position: int
    entries: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "loss_position",
                           check_count("loss position", self.loss_position, 0, DATA_QUBITS))
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        if set(self.entries) != set(OUTCOMES):
            raise ValueError(f"table must cover outcomes {OUTCOMES}")
        bad = set(self.entries.values()) - set(PAULI_WORDS)
        if bad:
            raise ValueError(f"unknown Pauli words {bad}")

    def to_records(self) -> list[dict]:
        return [
            {
                "loss_position": self.loss_position,
                "outcome_bits": outcome,
                "pauli_word": self.entries[outcome],
            }
            for outcome in OUTCOMES
        ]


@dataclass(frozen=True, eq=False)
class RecoveryOutcome:
    measurement: MeasurementRecord
    corrected_state: PureState
    applied_correction: str


@lru_cache(maxsize=1)
def _encoder() -> np.ndarray:
    """The encoding circuit on all four wires, as a 16x16 unitary: column i
    is basis state i run through ENCODING_GATES."""
    matrix = run_circuit(ENCODING_GATES, np.eye(1 << DATA_QUBITS)).T
    matrix.setflags(write=False)
    return matrix


def encode(logical: PureState) -> PureState:
    """Encode a two-qubit state onto the four rails."""
    if logical.num_qubits != 2:
        raise ValueError("encode expects a two-qubit logical state")
    # the logical wires are the high bits: |ab00> is column ab << 2
    return PureState(DATA_QUBITS, _encoder()[:, ::4] @ logical.amplitudes)


def decode_amplitudes(encoded: np.ndarray, tol: float = CODE_SPACE_TOL) -> np.ndarray:
    """Decode rows of four-rail amplitudes to normalized two-qubit amplitudes.

    Raises CodeSpaceError when any row leaks more than `tol` of its weight
    onto the ancilla wires, or has no weight to normalize.
    """
    # rows times the transpose of the inverse, _encoder()^dagger
    grid = (encoded @ _encoder().conj()).reshape(-1, 4, 4)
    leak = np.sum(np.abs(grid[:, :, 1:]) ** 2, axis=(1, 2))
    if not np.all(leak <= tol):
        raise CodeSpaceError(f"ancilla wires not |00>: leaked weight {float(leak.max())!r}")
    logical = grid[:, :, 0]
    norms = np.linalg.norm(logical, axis=1, keepdims=True)
    if not np.all(norms > 0):
        raise CodeSpaceError("a row has zero norm")
    return logical / norms


def decode(encoded: PureState) -> PureState:
    """Invert the encoding; reject states outside the code space."""
    if encoded.num_qubits != DATA_QUBITS:
        raise ValueError("decode expects a four-qubit state")
    return PureState(2, decode_amplitudes(encoded.amplitudes[None, :])[0])


def in_code_space(state: PureState, tol: float = CODE_SPACE_TOL) -> bool:
    if state.num_qubits != DATA_QUBITS:
        return False
    try:
        decode_amplitudes(state.amplitudes[None, :], tol)
    except CodeSpaceError:
        return False
    return True


@lru_cache(maxsize=1)
def codewords() -> tuple[Codeword, ...]:
    """The four encoded logical basis states."""
    return tuple(
        Codeword(bits, encode(PureState.basis(bits))) for bits in CODEWORD_KETS
    )


def branch_maps(loss_position: int) -> np.ndarray:
    """Compiled loss recovery at one position, shape (4, 16, 8).

    maps[m] takes the three surviving rails to the corrected four-rail state
    for ancilla readout OUTCOMES[m], with the correction from
    derive_correction_table folded in.  A damaged state rho goes to
    A rho A^dagger, whose trace is the probability of the readout.
    """
    return _compile(check_count("loss position", loss_position, 0, DATA_QUBITS))[1]


def recovery_images(columns: np.ndarray, loss_position: int) -> tuple[np.ndarray, np.ndarray]:
    """Images (..., 4, 16, c), branch_maps(pos) @ columns for columns (..., 8, c), and weights
    (..., 4, c), their squared column norms; weights[..., m, :] sums to readout m's probability.

    One 2-D product of the maps flattened to (64, 8): bit-equal to the per-readout products,
    since a map row has at most one nonzero entry, so each image entry is one rounded product."""
    maps = branch_maps(loss_position)
    images = maps.reshape(-1, maps.shape[-1]) @ columns
    images = images.reshape(columns.shape[:-2] + maps.shape[:2] + columns.shape[-1:])
    return images, (images * images.conj()).real.sum(axis=-2)


def check_readout(total: float, mixed: float) -> None:
    """Refuse a readout of probability `total` with the fraction `mixed` of its weight off its kept
    image: ImpossibleBranchError unless total > ZERO_BRANCH_TOL, then RecoveryError unless pure."""
    if not total > ZERO_BRANCH_TOL:
        raise ImpossibleBranchError(f"readout has probability {total!r}")
    if not mixed <= RECOVERY_TOL:
        raise RecoveryError(f"post-measurement state not pure: mixed weight {mixed:.3g}")


def corrected_block(images: np.ndarray, weights: list[float]) -> np.ndarray:
    """corrected_blocks on one readout of a pure block's two split columns, refused by check_readout:
    the kernel `stage` runs, as on a stack of one corrected_blocks costs several times as much."""
    k = int(weights[1] > weights[0])
    kept, weight, total = images[:, k], weights[k], sum(weights)
    off = total - weight - abs(np.vdot(kept, images[:, 1 - k])) ** 2 / (weight or math.nan)  # no 0/0 warning
    check_readout(total, off / total)
    return kept / math.sqrt(weight)


def corrected_blocks(images: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each readout's heaviest image, normalized, over stacks images (..., 16, c) and weights (..., c):
    the kept blocks (..., 16) and the fractions of weight off them, pure when <= RECOVERY_TOL."""
    k = weights.argmax(axis=-1)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero or NaN weight gives NaN
        kept = np.take_along_axis(images, k[..., None, :], axis=-1)[..., 0]
        kept = kept / np.sqrt(np.take_along_axis(weights, k, axis=-1))
        overlaps = np.abs(kept.conj()[..., None, :] @ images) ** 2
        return kept, 1.0 - overlaps.sum(axis=(-2, -1)) / weights.sum(axis=-1)


def readout_bounds(probs: list[float]) -> list[float]:
    """Upper bounds of the uniform for each readout but the last, readout m weighted by probs[m]."""
    total = sum(probs)
    # the last bound is left out, which reads it as exactly 1
    return list(itertools.accumulate([p / total for p in probs[:-1]]))


def draw_readout(probs: list[float], u: float) -> int:
    """Index of the ancilla readout that the uniform u in [0, 1) selects,
    readout m weighted by probs[m]."""
    return bisect_right(readout_bounds(probs), u)


def _factor(damaged: DensityMatrix) -> np.ndarray:
    """C with damaged.matrix = C C^dagger (one eigh, clipped at 0)."""
    if damaged.num_qubits != DATA_QUBITS - 1:
        raise ValueError("damaged state must have three qubits")
    values, vectors = np.linalg.eigh(damaged.matrix)
    return vectors * np.sqrt(np.clip(values, 0.0, None))


def _recover(
    damaged: DensityMatrix,
    loss_position: int,
    outcomes: tuple[str, ...],
    expected: PureState | None,
) -> tuple[RecoveryOutcome, ...]:
    """Corrected branches of a heralded loss, one per listed readout."""
    images, weights = recovery_images(_factor(damaged), loss_position)
    kept, mixed = corrected_blocks(images, weights)
    probs = [sum(w) for w in weights.tolist()]
    words = derive_correction_table(loss_position).entries
    branches = []
    for outcome in outcomes:
        if outcome not in OUTCOMES:
            raise ValueError(f"outcome must be one of {OUTCOMES}, got {outcome!r}")
        m = OUTCOMES.index(outcome)
        check_readout(probs[m], float(mixed[m]))
        state = PureState(DATA_QUBITS, kept[m])
        if expected is not None:
            fid = fidelity(state, expected)
            if not fid >= 1.0 - RECOVERY_TOL:
                raise RecoveryError(f"outcome {outcome} recovered with fidelity {fid!r}")
        record = MeasurementRecord(ANCILLA_QUBITS, tuple(int(b) for b in outcome), probs[m])
        branches.append(RecoveryOutcome(record, state, words[outcome]))
    return tuple(branches)


def recovery_branches(damaged: DensityMatrix, loss_position: int) -> tuple[RecoveryOutcome, ...]:
    """All four corrected measurement branches for a heralded loss."""
    return _recover(damaged, loss_position, OUTCOMES, None)


def recover(
    damaged: DensityMatrix,
    loss_position: int,
    rng: np.random.Generator,
    expected: PureState | None = None,
) -> RecoveryOutcome:
    """Run loss recovery, sampling the ancilla readout.

    When `expected` is given, every branch is checked against it and a
    RecoveryError is raised if any falls below fidelity 1 - 1e-10.
    """
    branches = _recover(damaged, loss_position, OUTCOMES, expected)
    return branches[draw_readout([b.measurement.outcome_probability for b in branches], rng.random())]


def recover_forced(
    damaged: DensityMatrix,
    loss_position: int,
    outcome: str,
    expected: PureState | None = None,
) -> RecoveryOutcome:
    """Loss recovery with the ancilla readout pinned to one outcome."""
    return _recover(damaged, loss_position, (outcome,), expected)[0]


def _restores(corrected: np.ndarray, loss_position: int) -> bool:
    """Whether a corrected readout map returns every code block, pure or mixed.

    With C the codeword columns and C_b their rows where the lost rail is b,
    that holds exactly when corrected @ C_b = lambda_b C for b = 0 and 1:
    the residual may be at most RECOVERY_TOL of the total weight, itself > 0.
    """
    code = _encoder()[:, ::4]
    halves = corrected @ code[SPLITS[loss_position].T]
    scales = np.sum(code.conj() * halves, axis=(1, 2)) / code.shape[1]
    residual = np.sum(np.abs(halves - scales[:, None, None] * code) ** 2)
    total = np.sum(np.abs(halves) ** 2)
    return bool(total > 0 and residual <= RECOVERY_TOL * total)


@lru_cache(maxsize=DATA_QUBITS)
def _compile(loss_position: int) -> tuple[CorrectionTable, np.ndarray]:
    """Correction table and corrected branch maps of one loss position.

    The recovery circuit runs on the eight surviving-rail basis states, with
    |0> at the lost rail and the ancillae (the low index bits) in |00>.  Per
    readout, the one Pauli word passing _restores is the table entry.
    """
    inputs = np.eye(1 << (DATA_QUBITS + 2))[SPLITS[loss_position][:, 0] << 2]
    # row i holds the 16 rail amplitudes of each of the 4 readouts; raw[m] is 16x8
    raw = run_circuit(RECOVERY_GATES, inputs).reshape(len(inputs), -1, len(OUTCOMES)).T
    paulis = {}
    for word in PAULI_WORDS:
        gates = [Gate(c, (loss_position,)) for c in reversed(word) if c != "I"]
        paulis[word] = run_circuit(gates, np.eye(1 << DATA_QUBITS)).T
    entries, maps = {}, []
    for outcome, a in zip(OUTCOMES, raw):
        corrected = {word: pauli @ a for word, pauli in paulis.items()}
        candidates = [word for word, c in corrected.items() if _restores(c, loss_position)]
        if len(candidates) != 1:
            raise TableDerivationError(f"position {loss_position}, outcome {outcome}: {candidates}")
        entries[outcome] = candidates[0]
        maps.append(corrected[candidates[0]])
    stacked = np.stack(maps)
    stacked.setflags(write=False)
    return CorrectionTable(loss_position, entries), stacked


def derive_correction_table(loss_position: int) -> CorrectionTable:
    """Brute-force the outcome -> Pauli word table for one loss position:
    per ancilla outcome, the one word of {I, X, Z, XZ} on the substituted
    rail that returns every code block unchanged (see _restores)."""
    return _compile(check_count("loss position", loss_position, 0, DATA_QUBITS))[0]


def all_correction_tables() -> list[CorrectionTable]:
    return [derive_correction_table(pos) for pos in range(DATA_QUBITS)]
