"""Two-to-four qubit erasure code: encoding, decoding, heralded-loss recovery.

Two logical qubits are spread over four rails so that losing any single
photon, at a known position, can be undone.  Loss recovery substitutes a
fresh |0> for the missing photon, entangles all four rails with an ancilla
pair (CNOTs from the first ancilla, CZs from the second), reads the
ancillae out in the X basis, and applies a conditional Pauli correction on
the substituted rail.

Circuit, readout and correction together are linear: for each loss
position and ancilla readout, recovery is one fixed 16x8 map from the three
surviving rails to the corrected four-rail state.  `branch_maps` compiles
the four maps of a position once, from the circuit definition below.

`recovery_images` and `corrected_block` apply them to a damaged block given
as columns C with rho = C C^dagger: the two split columns of a pure block,
or a factored density matrix.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from lossguard.simcore import (
    ZERO_BRANCH_TOL,
    DensityMatrix,
    Gate,
    ImpossibleBranchError,
    MeasurementRecord,
    PureState,
    apply_gate,
    fidelity,
    random_state,
    tensor,
)

DATA_QUBITS = 4
ANCILLA_QUBITS = (4, 5)
OUTCOMES = ("00", "01", "10", "11")
PAULI_WORDS = ("I", "X", "Z", "XZ")

_RAIL_KETS = [format(i, f"0{DATA_QUBITS}b") for i in range(1 << DATA_QUBITS)]
_SURVIVOR_KETS = [format(i, f"0{DATA_QUBITS - 1}b") for i in range(1 << (DATA_QUBITS - 1))]

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
    """No unique Pauli word restores every codeword for some outcome."""


@dataclass(frozen=True, eq=False)
class Codeword:
    logical_bits: str
    state: PureState


@dataclass(frozen=True)
class CorrectionTable:
    """Measurement outcome -> Pauli word on the substituted rail."""

    loss_position: int
    entries: dict[str, str]

    def __post_init__(self) -> None:
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


def _check_position(loss_position: int) -> int:
    try:
        position = None if isinstance(loss_position, bool) else operator.index(loss_position)
    except TypeError:
        position = None
    if position is None or not 0 <= position < DATA_QUBITS:
        raise ValueError(f"loss position must be 0..3, got {loss_position}")
    return position


def encode(logical: PureState) -> PureState:
    """Encode a two-qubit state onto the four rails."""
    if logical.num_qubits != 2:
        raise ValueError("encode expects a two-qubit logical state")
    state = tensor(logical, PureState.basis("00"))
    for gate in ENCODING_GATES:
        state = apply_gate(state, gate)
    return state


def _circuit_matrix(gates: tuple[Gate, ...], inputs: list[str]) -> np.ndarray:
    """Column i is the gate sequence applied to the basis state inputs[i]."""
    columns = []
    for bits in inputs:
        state = PureState.basis(bits)
        for gate in gates:
            state = apply_gate(state, gate)
        columns.append(state.amplitudes)
    return np.column_stack(columns)


@lru_cache(maxsize=1)
def _decoder() -> np.ndarray:
    """The inverse of the encoding circuit on all four wires, as a 16x16 matrix."""
    matrix = _circuit_matrix(ENCODING_GATES[::-1], _RAIL_KETS)
    matrix.setflags(write=False)
    return matrix


def decode_amplitudes(encoded: np.ndarray, tol: float = CODE_SPACE_TOL) -> np.ndarray:
    """Decode rows of four-rail amplitudes to normalized two-qubit amplitudes.

    Raises CodeSpaceError when any row leaks more than `tol` of its weight
    onto the ancilla wires.
    """
    grid = (encoded @ _decoder().T).reshape(-1, 4, 4)
    leak = np.sum(np.abs(grid[:, :, 1:]) ** 2, axis=(1, 2))
    if np.any(leak > tol):
        raise CodeSpaceError(f"ancilla wires not |00>: leaked weight {float(leak.max())!r}")
    logical = grid[:, :, 0]
    return logical / np.linalg.norm(logical, axis=1, keepdims=True)


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


def apply_pauli_word(state: PureState, word: str, qubit: int) -> PureState:
    """Apply a product of Paulis, rightmost letter first, to one qubit."""
    if word not in PAULI_WORDS:
        raise ValueError(f"unknown Pauli word {word!r}")
    for letter in reversed(word):
        if letter != "I":
            state = apply_gate(state, Gate(letter, (qubit,)))
    return state


@lru_cache(maxsize=DATA_QUBITS)
def _circuit_maps(loss_position: int) -> np.ndarray:
    """The recovery circuit before correction: one 16x8 map per ancilla readout.

    Column i runs surviving-rail basis state i, with |0> at the lost rail and
    the ancillae (the last two wires, hence the low index bits) in |00>.
    """
    inputs = [b[:loss_position] + "0" + b[loss_position:] + "00" for b in _SURVIVOR_KETS]
    columns = _circuit_matrix(RECOVERY_GATES, inputs)
    return columns.reshape(len(_RAIL_KETS), len(OUTCOMES), -1).transpose(1, 0, 2)


@lru_cache(maxsize=len(PAULI_WORDS) * DATA_QUBITS)
def _pauli_matrix(word: str, qubit: int) -> np.ndarray:
    return np.column_stack([apply_pauli_word(PureState.basis(b), word, qubit).amplitudes for b in _RAIL_KETS])


def branch_maps(loss_position: int) -> np.ndarray:
    """Compiled loss recovery at one position, shape (4, 16, 8).

    maps[m] takes the three surviving rails to the corrected four-rail state
    for ancilla readout OUTCOMES[m], with the correction from
    derive_correction_table folded in.  A damaged state rho goes to
    A rho A^dagger, whose trace is the probability of the readout.
    """
    return _branch_maps(_check_position(loss_position))


@lru_cache(maxsize=DATA_QUBITS)
def _branch_maps(loss_position: int) -> np.ndarray:
    words, raw = derive_correction_table(loss_position).entries, _circuit_maps(loss_position)
    maps = np.stack([_pauli_matrix(words[o], loss_position) @ a for o, a in zip(OUTCOMES, raw)])
    maps.setflags(write=False)
    return maps


def recovery_images(columns: np.ndarray, loss_position: int) -> tuple[np.ndarray, list]:
    """images[m] = branch_maps(pos)[m] @ columns, and weights[m][j] = |images[m][:, j]|^2
    as Python floats; readout m has probability sum(weights[m])."""
    images = branch_maps(loss_position) @ columns
    return images, (images * images.conj()).real.sum(axis=1).tolist()


def corrected_block(images: np.ndarray, weights: list[float]) -> np.ndarray:
    """One readout's corrected four-rail amplitudes: its heaviest image, normalized.

    Raises RecoveryError when more than RECOVERY_TOL of the readout's weight
    lies off that image, i.e. when images images^dagger is not pure."""
    total = sum(weights)
    if total <= ZERO_BRANCH_TOL:
        raise ImpossibleBranchError(f"readout has probability {total!r}")
    k = weights.index(max(weights))
    kept, weight = images[:, k], weights[k]
    off = total - weight
    for j in range(len(weights)):
        if j != k:
            off -= abs(np.vdot(kept, images[:, j])) ** 2 / weight
    if off > RECOVERY_TOL * total:
        raise RecoveryError(f"post-measurement state not pure: mixed weight {off / total:.3g}")
    return kept / math.sqrt(weight)


def draw_readout(probs: list[float], rng: np.random.Generator) -> int:
    """Index of the ancilla readout that one uniform draw selects, readout m
    weighted by probs[m]."""
    total = sum(probs)
    # the last bound is left out, which reads it as exactly 1
    cumulative = list(itertools.accumulate([p / total for p in probs[:-1]]))
    return bisect_right(cumulative, rng.random())


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
    words = derive_correction_table(loss_position).entries
    branches = []
    for outcome in outcomes:
        if outcome not in OUTCOMES:
            raise ValueError(f"outcome must be one of {OUTCOMES}, got {outcome!r}")
        m = OUTCOMES.index(outcome)
        state = PureState(DATA_QUBITS, corrected_block(images[m], weights[m]))
        if expected is not None:
            fid = fidelity(state, expected)
            if fid < 1.0 - RECOVERY_TOL:
                raise RecoveryError(f"outcome {outcome} recovered with fidelity {fid!r}")
        record = MeasurementRecord(ANCILLA_QUBITS, tuple(int(b) for b in outcome), sum(weights[m]))
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
    return branches[draw_readout([b.measurement.outcome_probability for b in branches], rng)]


def recover_forced(
    damaged: DensityMatrix,
    loss_position: int,
    outcome: str,
    expected: PureState | None = None,
) -> RecoveryOutcome:
    """Loss recovery with the ancilla readout pinned to one outcome."""
    return _recover(damaged, loss_position, (outcome,), expected)[0]


def _restores(word: str, loss_position: int, a: np.ndarray, rng: np.random.Generator) -> bool:
    # The four codewords first, then three random superpositions, drawn only
    # while the word still passes.  Tracing out the lost rail mixes the two
    # corrected images of its values; that block, pure or mixed, is the
    # input up to a phase only when all of its weight lies along the input.
    corrected = _pauli_matrix(word, loss_position) @ a
    superpositions = (encode(random_state(2, rng)) for _ in range(3))
    for encoded in itertools.chain((c.state for c in codewords()), superpositions):
        images = corrected @ encoded.amplitudes[SPLITS[loss_position]]
        along = np.sum(np.abs(encoded.amplitudes.conj() @ images) ** 2)
        if not abs(along / np.vdot(images, images).real - 1.0) <= RECOVERY_TOL:
            return False
    return True


def derive_correction_table(loss_position: int) -> CorrectionTable:
    """Brute-force the outcome -> Pauli word table for one loss position.

    For each ancilla outcome, search {I, X, Z, XZ} on the substituted rail
    for the word that restores all four codewords and random superpositions
    through the uncorrected circuit map.  Superpositions travel through both
    values of the lost rail, which keep all relative phases, so they rule out
    corrections that only fix the codewords up to inconsistent signs.
    """
    return _derive_correction_table(_check_position(loss_position))


@lru_cache(maxsize=DATA_QUBITS)
def _derive_correction_table(loss_position: int) -> CorrectionTable:
    rng = np.random.default_rng(20240 + loss_position)
    entries: dict[str, str] = {}
    for outcome, a in zip(OUTCOMES, _circuit_maps(loss_position)):
        candidates = [w for w in PAULI_WORDS if _restores(w, loss_position, a, rng)]
        if len(candidates) != 1:
            raise TableDerivationError(
                f"position {loss_position}, outcome {outcome}: "
                f"{len(candidates)} candidate corrections {candidates}"
            )
        entries[outcome] = candidates[0]
    return CorrectionTable(loss_position, entries)


def all_correction_tables() -> list[CorrectionTable]:
    return [derive_correction_table(pos) for pos in range(DATA_QUBITS)]


def outcome_probabilities(damaged: DensityMatrix, loss_position: int) -> np.ndarray:
    """Ancilla readout distribution; uniform 1/4 for any code-space input."""
    _, weights = recovery_images(_factor(damaged), loss_position)
    return np.array([sum(w) for w in weights])
