"""Density-matrix reference engine for the tests.

The library runs circuits as compiled linear maps on state vectors.  This
module keeps the independent oracle the tests check those maps against:
gates applied one at a time to a pure state or a density matrix, fresh
qubits embedded, ancillae projected, the rank-one result turned back into a
state vector and a Pauli word applied letter by letter; and the Kronecker
product of two pure states.  It also keeps `verify`'s round-trip check as
a loop over one state, loss position and readout at a time, the order in
which the CLI's stacked check must report its first failure.
"""

from __future__ import annotations

import numpy as np

from lossguard import chainsim, cli, losscode
from lossguard.losscode import PAULI_WORDS
from lossguard.simcore import (
    ATOL,
    PSD_TOL,
    ZERO_BRANCH_TOL,
    DensityMatrix,
    Gate,
    ImpossibleBranchError,
    MeasurementRecord,
    PureState,
    _checked_matrix,
    random_state,
)


def apply_gate(state: PureState, gate: Gate) -> PureState:
    """Apply a gate to a pure state."""
    u = _checked_matrix(gate, state.num_qubits)
    return PureState(state.num_qubits, u @ state.amplitudes)


def apply_pauli_word(state: PureState, word: str, qubit: int) -> PureState:
    """Apply a product of Paulis, rightmost letter first, to one qubit."""
    if word not in PAULI_WORDS:
        raise ValueError(f"unknown Pauli word {word!r}")
    for letter in reversed(word):
        if letter != "I":
            state = apply_gate(state, Gate(letter, (qubit,)))
    return state


def apply_gate_dm(rho: DensityMatrix, gate: Gate) -> DensityMatrix:
    """Conjugate a density matrix by a gate's unitary."""
    u = _checked_matrix(gate, rho.num_qubits)
    return DensityMatrix(rho.num_qubits, u @ rho.matrix @ u.conj().T)


def tensor(a: PureState, b: PureState) -> PureState:
    return PureState(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


def embed(rho: DensityMatrix, fresh: PureState, position: int) -> DensityMatrix:
    """Tensor a fresh single-qubit pure state into the register at `position`.

    Existing qubits at `position` and below shift down by one; `position`
    may equal the register size, meaning append at the bottom.
    """
    if fresh.num_qubits != 1:
        raise ValueError("fresh state must be a single qubit")
    n = rho.num_qubits
    if not 0 <= position <= n:
        raise ValueError(f"position {position} out of range for {n} qubits")
    big = np.kron(rho.matrix, np.outer(fresh.amplitudes, fresh.amplitudes.conj()))
    tensor = big.reshape([2] * (2 * (n + 1)))
    # the fresh qubit enters as the last axis; rotate it into place
    row_order = list(range(position)) + [n] + list(range(position, n))
    order = row_order + [a + n + 1 for a in row_order]
    dim = 1 << (n + 1)
    return DensityMatrix(n + 1, np.transpose(tensor, order).reshape(dim, dim))


def _check_subset(qubits: tuple[int, ...], num_qubits: int) -> tuple[int, ...]:
    qubits = tuple(int(q) for q in qubits)
    if not qubits or len(set(qubits)) != len(qubits):
        raise ValueError(f"bad qubit subset {qubits}")
    if min(qubits) < 0 or max(qubits) >= num_qubits:
        raise ValueError(f"qubit subset {qubits} out of range")
    return qubits


def _as_bits(outcome, k: int) -> tuple[int, ...]:
    if isinstance(outcome, str):
        if len(outcome) != k or set(outcome) - {"0", "1"}:
            raise ValueError(f"bad outcome string {outcome!r} for {k} qubits")
        return tuple(int(c) for c in outcome)
    bits = tuple(int(b) for b in outcome)
    if len(bits) != k or set(bits) - {0, 1}:
        raise ValueError(f"bad outcome {outcome!r} for {k} qubits")
    return bits


def project(
    rho: DensityMatrix, qubits: tuple[int, ...], outcome
) -> tuple[MeasurementRecord, DensityMatrix]:
    """Deterministically select one measurement branch and renormalize it."""
    qubits = _check_subset(qubits, rho.num_qubits)
    bits = _as_bits(outcome, len(qubits))
    n = rho.num_qubits
    keep = np.ones(1 << n, dtype=bool)
    for q, b in zip(qubits, bits):
        keep &= ((np.arange(1 << n) >> (n - 1 - q)) & 1) == b
    projected = rho.matrix * keep[:, None] * keep[None, :]
    prob = float(np.real(np.trace(projected)))
    if prob <= ZERO_BRANCH_TOL:
        raise ImpossibleBranchError(
            f"branch {bits} on qubits {qubits} has probability {prob!r}"
        )
    record = MeasurementRecord(qubits, bits, prob)
    return record, DensityMatrix(n, projected / prob)


def pure_from_density(rho: DensityMatrix, tol: float = PSD_TOL) -> PureState:
    """Extract the state vector of a rank-one density matrix.

    The returned vector's largest-magnitude amplitude is made real and
    positive so extraction is deterministic.  Raises ValueError when the
    top eigenvalue is not 1 within `tol`.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(rho.matrix)
    if abs(eigenvalues[-1] - 1.0) > tol:
        raise ValueError(f"state is not pure: top eigenvalue {eigenvalues[-1]!r}")
    vec = eigenvectors[:, -1]
    k = int(np.argmax(np.abs(vec)))
    vec = vec * (vec[k].conj() / abs(vec[k]))
    return PureState(rho.num_qubits, vec / np.linalg.norm(vec))


def check_recovery(states: int, seed: int) -> str | None:
    """`verify`'s round-trip check, one branch at a time: per state, per loss
    position, readout uniformity, then per readout purity (RecoveryError), norm
    and fidelity.  Returns the first failure as the CLI's JSON record."""
    rng = chainsim.input_rng(seed)
    for index in range(states):
        logical = random_state(2, rng)
        encoded = losscode.encode(logical)
        for position in range(losscode.DATA_QUBITS):
            where = {"state_index": index, "loss_position": position}
            columns = encoded.amplitudes[losscode.SPLITS[position]]
            images, weights = losscode.recovery_images(columns, position)
            weights = weights.tolist()
            probs = [sum(w) for w in weights]
            if not all(abs(p - 0.25) <= ATOL for p in probs):
                return cli._dumps({"property": "outcome-uniformity", **where, "probabilities": probs})
            for outcome, branch, branch_weights in zip(losscode.OUTCOMES, images, weights):
                kept = losscode.corrected_block(branch, branch_weights)
                norm = np.linalg.norm(kept) ** 2
                fid = float(np.abs(np.vdot(kept, encoded.amplitudes)) ** 2)
                if not (abs(norm - 1.0) <= ATOL and fid >= 1.0 - losscode.RECOVERY_TOL):
                    return cli._dumps(
                        {
                            "property": "round-trip",
                            **where,
                            "outcome": outcome,
                            "fidelity": fid,
                            "logical_real": [float(a.real) for a in logical.amplitudes],
                            "logical_imag": [float(a.imag) for a in logical.amplitudes],
                        }
                    )
    return None
