"""Dense exact simulation of small qubit registers.

Wire convention: qubit 0 is the topmost wire and the most significant bit of
a basis index, so on four qubits |0110> is basis index 6.  Registers are
capped at 8 qubits, where full 256x256-and-smaller matrix algebra is
trivially fast and numerically exact, so no sparse or tensor-network
machinery is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
_TWO_QUBIT = ("CNOT", "CZ")
GATE_KINDS = tuple(_ONE_QUBIT) + _TWO_QUBIT


class ImpossibleBranchError(ValueError):
    """Raised when a measurement branch of probability zero is requested."""


def _bit(index: int, qubit: int, num_qubits: int) -> int:
    return (index >> (num_qubits - 1 - qubit)) & 1


def _check_register_size(num_qubits: int) -> None:
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"register size must be 1..{MAX_QUBITS}, got {num_qubits}")


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over `num_qubits` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_register_size(self.num_qubits)
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, got {amps.shape}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > ATOL:
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
        _check_register_size(self.num_qubits)
        dim = 1 << self.num_qubits
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL:
            raise ValueError("density matrix is not hermitian")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        if float(np.min(np.linalg.eigvalsh(mat))) < -PSD_TOL:
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
        targets = tuple(int(t) for t in self.targets)
        arity = 1 if self.kind in _ONE_QUBIT else 2
        if len(targets) != arity:
            raise ValueError(f"{self.kind} takes {arity} target(s), got {targets}")
        if len(set(targets)) != len(targets) or min(targets) < 0:
            raise ValueError(f"bad targets {targets}")
        object.__setattr__(self, "targets", targets)


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome of a computational-basis measurement on a qubit subset."""

    qubit_indices: tuple[int, ...]
    outcome_bits: tuple[int, ...]
    outcome_probability: float

    def __post_init__(self) -> None:
        if len(self.qubit_indices) != len(self.outcome_bits):
            raise ValueError("qubit/outcome length mismatch")
        if set(self.outcome_bits) - {0, 1}:
            raise ValueError(f"bad outcome bits {self.outcome_bits}")
        if not -ATOL <= self.outcome_probability <= 1.0 + ATOL:
            raise ValueError(f"bad probability {self.outcome_probability}")


@lru_cache(maxsize=None)
def _gate_matrix(kind: str, targets: tuple[int, ...], num_qubits: int) -> np.ndarray:
    dim = 1 << num_qubits
    if kind in _ONE_QUBIT:
        (q,) = targets
        full = np.kron(
            np.kron(np.eye(1 << q), _ONE_QUBIT[kind]),
            np.eye(1 << (num_qubits - q - 1)),
        ).astype(complex)
    else:
        control, target = targets
        full = np.zeros((dim, dim), dtype=complex)
        target_mask = 1 << (num_qubits - 1 - target)
        for i in range(dim):
            if _bit(i, control, num_qubits) == 0:
                full[i, i] = 1.0
            elif kind == "CNOT":
                full[i ^ target_mask, i] = 1.0
            else:  # CZ
                full[i, i] = -1.0 if _bit(i, target, num_qubits) else 1.0
    full.setflags(write=False)
    return full


def _checked_matrix(gate: Gate, num_qubits: int) -> np.ndarray:
    if max(gate.targets) >= num_qubits:
        raise ValueError(f"gate {gate} out of range for {num_qubits} qubits")
    return _gate_matrix(gate.kind, gate.targets, num_qubits)


def apply_gate(state: PureState, gate: Gate) -> PureState:
    """Apply a gate to a pure state."""
    u = _checked_matrix(gate, state.num_qubits)
    return PureState(state.num_qubits, u @ state.amplitudes)


def apply_gate_dm(rho: DensityMatrix, gate: Gate) -> DensityMatrix:
    """Conjugate a density matrix by a gate's unitary."""
    u = _checked_matrix(gate, rho.num_qubits)
    return DensityMatrix(rho.num_qubits, u @ rho.matrix @ u.conj().T)


def partial_trace(rho: DensityMatrix, qubit: int) -> DensityMatrix:
    """Trace out one qubit; the remaining wires keep their relative order."""
    n = rho.num_qubits
    if n < 2:
        raise ValueError("cannot trace the last remaining qubit")
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    tensor = rho.matrix.reshape([2] * (2 * n))
    reduced = np.trace(tensor, axis1=qubit, axis2=n + qubit)
    dim = 1 << (n - 1)
    return DensityMatrix(n - 1, reduced.reshape(dim, dim))


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


def branch_probabilities(rho: DensityMatrix, qubits: tuple[int, ...]) -> np.ndarray:
    """Born probabilities for all 2^k outcomes on the listed qubits, first qubit
    listed = most significant outcome bit."""
    qubits = _check_subset(qubits, rho.num_qubits)
    n = rho.num_qubits
    diag = np.real(np.diagonal(rho.matrix))
    index = np.zeros(1 << n, dtype=np.int64)
    for q in qubits:
        index = (index << 1) | ((np.arange(1 << n) >> (n - 1 - q)) & 1)
    return np.bincount(index, weights=diag, minlength=1 << len(qubits))


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


def measure(
    rho: DensityMatrix, qubits: tuple[int, ...], rng: np.random.Generator
) -> tuple[MeasurementRecord, DensityMatrix]:
    """Sample a computational-basis measurement of the listed qubits."""
    qubits = _check_subset(qubits, rho.num_qubits)
    probs = branch_probabilities(rho, qubits)
    choice = int(rng.choice(len(probs), p=probs / probs.sum()))
    bits = tuple((choice >> (len(qubits) - 1 - i)) & 1 for i in range(len(qubits)))
    return project(rho, qubits, bits)


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2; insensitive to global phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("fidelity needs equal register sizes")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def tensor(a: PureState, b: PureState) -> PureState:
    return PureState(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


def random_state(num_qubits: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state."""
    _check_register_size(num_qubits)
    dim = 1 << num_qubits
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(num_qubits, vec / np.linalg.norm(vec))


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
