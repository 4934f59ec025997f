"""Dense exact state-vector simulation of small qubit registers.

Wire convention: qubit 0 is the topmost wire and the most significant bit of
a basis index, so on four qubits |0110> is basis index 6.  Registers are
capped at 8 qubits, where full 256x256-and-smaller matrix algebra is
trivially fast and numerically exact, so no sparse or tensor-network
machinery is used anywhere.  Density matrices appear only as validated
inputs; the gate-by-gate density-matrix engine is the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from lossguard.analytics import check_count

ATOL = 1e-12          # exactness tolerance for state algebra
PSD_TOL = 1e-10       # eigenvalue floor accepted for density matrices
ZERO_BRANCH_TOL = 1e-12
MAX_QUBITS = 8

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_ONE_QUBIT = {
    "H": np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_CONTROLLED = {"CNOT": "X", "CZ": "Z"}  # controlled kind -> the gate on its target
GATE_KINDS = tuple(_ONE_QUBIT) + tuple(_CONTROLLED)


class ImpossibleBranchError(ValueError):
    """Raised when a measurement branch of probability zero is requested."""


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over `num_qubits` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        check_count("register size", self.num_qubits, 1, MAX_QUBITS + 1)
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, got {amps.shape}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= ATOL:
            raise ValueError(f"state not normalized: sum |a|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, bits: str) -> "PureState":
        """Computational basis state from a bit string, e.g. "0110"."""
        if not bits or set(bits) - {"0", "1"}:
            raise ValueError(f"bad bit string {bits!r}")
        amps = np.zeros(1 << len(bits), dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(len(bits), amps)

    def to_density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.num_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite operator on the register."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        check_count("register size", self.num_qubits, 1, MAX_QUBITS + 1)
        dim = 1 << self.num_qubits
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        if not np.max(np.abs(mat - mat.conj().T)) <= ATOL:
            raise ValueError("density matrix is not hermitian")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= ATOL:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        if not float(np.min(np.linalg.eigvalsh(mat))) >= -PSD_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class Gate:
    """One of H, X, Z, CNOT, CZ.  For two-qubit kinds the control is listed first."""

    kind: str
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        targets = tuple(check_count("gate target", t, 0) for t in self.targets)
        arity = 1 if self.kind in _ONE_QUBIT else 2
        if len(targets) != arity:
            raise ValueError(f"{self.kind} takes {arity} target(s), got {targets}")
        if len(set(targets)) != len(targets):
            raise ValueError(f"bad targets {targets}")
        object.__setattr__(self, "targets", targets)


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome of a computational-basis measurement on a qubit subset."""

    qubit_indices: tuple[int, ...]
    outcome_bits: tuple[int, ...]
    outcome_probability: float

    def __post_init__(self) -> None:
        qubits = tuple(check_count("qubit index", q, 0, MAX_QUBITS) for q in self.qubit_indices)
        bits = tuple(check_count("outcome bit", b, 0, 2) for b in self.outcome_bits)
        if len(set(qubits)) != len(qubits) or len(qubits) != len(bits):
            raise ValueError(f"need one distinct qubit per outcome bit, got {qubits} and {bits}")
        if not -ATOL <= self.outcome_probability <= 1.0 + ATOL:
            raise ValueError(f"bad probability {self.outcome_probability}")
        object.__setattr__(self, "qubit_indices", qubits)
        object.__setattr__(self, "outcome_bits", bits)


@lru_cache(maxsize=None)
def _gate_matrix(kind: str, targets: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """H, X or Z on the last target; a controlled kind keeps those rows only where
    the control (the first target) reads 1, and identity rows elsewhere."""
    q, u = targets[-1], _ONE_QUBIT[_CONTROLLED.get(kind, kind)]
    full = np.kron(np.kron(np.eye(1 << q), u), np.eye(1 << (num_qubits - q - 1)))
    if kind in _CONTROLLED:
        on = (np.arange(1 << num_qubits) >> (num_qubits - 1 - targets[0])) & 1
        full = np.where(on[:, None] == 1, full, np.eye(1 << num_qubits))
    full.setflags(write=False)
    return full


def _checked_matrix(gate: Gate, num_qubits: int) -> np.ndarray:
    if max(gate.targets) >= num_qubits:
        raise ValueError(f"gate {gate} out of range for {num_qubits} qubits")
    return _gate_matrix(gate.kind, gate.targets, num_qubits)


def run_circuit(gates, states: np.ndarray) -> np.ndarray:
    """Run each row of amplitudes through the gates, one matvec per row per gate:
    each row is bit-equal to applying the gates to it one by one, which a
    stacked matmul is not."""
    states = np.array(states, dtype=complex, ndmin=2)
    num_qubits = states.shape[1].bit_length() - 1
    for gate in gates:
        u = _checked_matrix(gate, num_qubits)
        states = np.stack([u @ row for row in states])
    return states


def partial_trace(rho: DensityMatrix, qubit: int) -> DensityMatrix:
    """Trace out one qubit; the remaining wires keep their relative order."""
    n = rho.num_qubits
    if n < 2:
        raise ValueError("cannot trace the last remaining qubit")
    qubit = check_count("qubit", qubit, 0, n)
    tensor = rho.matrix.reshape([2] * (2 * n))
    reduced = np.trace(tensor, axis1=qubit, axis2=n + qubit)
    dim = 1 << (n - 1)
    return DensityMatrix(n - 1, reduced.reshape(dim, dim))


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2; insensitive to global phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("fidelity needs equal register sizes")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def random_state(num_qubits: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state."""
    num_qubits = check_count("register size", num_qubits, 1, MAX_QUBITS + 1)
    dim = 1 << num_qubits
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(num_qubits, vec / np.linalg.norm(vec))
