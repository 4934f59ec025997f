"""Closed-form figures of merit for the loss-coded transponder chain.

Everything here is a plain function of real parameters; the Monte Carlo
side lives in chainsim.  `x` always means the normalized spacing
alpha * d (fiber attenuation rate times stage separation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Number of one-qubit gates, two-qubit gates, single-photon guns and
# photodetectors per transponder after folding the QND devices and CNOTs
# into CZ-based realizations (levels follow the resource table).
ONE_QUBIT_GATE_COUNT = 38
TWO_QUBIT_GATE_COUNT = 16
REDUCTION_LEVELS = ("raw", "i", "ii", "iii")

X_SEARCH_LIMIT = 10.0
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TransponderParams:
    """Physical parameters of one transponder stage.

    alpha: fiber attenuation rate, 1/km
    d: stage separation (or loop circumference), km
    n: ancilla photon pairs backing each teleported two-qubit gate
    eta: photodetector efficiency
    p_one, p_spg: one-qubit gate and single-photon gun success probabilities
    nu: signal velocity in fiber, km/s (only storage times depend on it)
    """

    alpha: float
    d: float
    n: int
    eta: float = 1.0
    p_one: float = 1.0
    p_spg: float = 1.0
    nu: float = 2.0e5

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.alpha, self.d, self.nu)):
            raise ValueError("alpha, d and nu must be finite")
        if self.alpha < 0 or self.d < 0:
            raise ValueError("alpha and d must be nonnegative")
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        for name in ("eta", "p_one", "p_spg"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")

    @property
    def x(self) -> float:
        return self.alpha * self.d


@dataclass(frozen=True)
class ResourceCount:
    """One row of the per-transponder hardware budget."""

    reduction_level: str
    spg: int
    qnd: int
    cnot: int
    cz: int
    one_qubit: int
    pd: int

    def as_dict(self) -> dict:
        return {
            "reduction_level": self.reduction_level,
            "spg": self.spg,
            "qnd": self.qnd,
            "cnot": self.cnot,
            "cz": self.cz,
            "one_qubit": self.one_qubit,
            "pd": self.pd,
        }


def _scalarize(value: np.ndarray):
    return float(value) if np.ndim(value) == 0 else value


def survival_prob(alpha, d):
    """Probability a photon survives distance d at attenuation rate alpha."""
    alpha = np.asarray(alpha, dtype=float)
    d = np.asarray(d, dtype=float)
    if np.any(alpha < 0) or np.any(d < 0):
        raise ValueError("alpha and d must be nonnegative")
    return _scalarize(np.exp(-alpha * d))


def p_f(p):
    """Probability a four-rail block arrives with at most one photon lost."""
    p = np.asarray(p, dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("p must lie in [0, 1]")
    return _scalarize(p**4 + 4 * p**3 * (1 - p))


def alpha_prime(alpha, d):
    """Effective attenuation rate of the encoded channel with ideal gates."""
    alpha = np.asarray(alpha, dtype=float)
    d = np.asarray(d, dtype=float)
    if np.any(alpha < 0):
        raise ValueError("alpha must be nonnegative")
    if np.any(d <= 0):
        raise ValueError("d must be positive")
    return _scalarize(3 * alpha - np.log(4 - 3 * np.exp(-alpha * d)) / d)


def f(x):
    """Ratio of encoded to bare attenuation rate at normalized spacing x.

    Rises from 0 through 1 at x = ln 3 toward the asymptote 3/2.  The
    expm1/log1p form keeps the x -> 0 limit finite without a series branch.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("x must be positive")
    return _scalarize(1.5 - np.log1p(3.0 * (-np.expm1(-x))) / (2.0 * x))


def gate_success(n: int) -> float:
    """Success probability of a teleported two-qubit gate backed by n pairs."""
    if int(n) != n or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return (n / (n + 1.0)) ** 2


def r(x, p_t):
    """Encoded-to-bare attenuation ratio including transponder failures."""
    x = np.asarray(x, dtype=float)
    p_t = np.asarray(p_t, dtype=float)
    if np.any((p_t <= 0) | (p_t > 1)):
        raise ValueError("p_t must lie in (0, 1]")
    return _scalarize(f(x) + (-np.log(p_t)) / (2.0 * x))


def p_t_aggregate(n: int) -> float:
    """Transponder success counting only the eight in-circuit two-qubit gates."""
    return gate_success(n) ** 8


def p_t_full(params: TransponderParams) -> float:
    """Transponder success from the full hardware budget.

    38 one-qubit gates, 16 two-qubit gates, and 10 + 32n single-photon
    guns each heralded by a detector.  Evaluated in the log domain so huge
    ancilla counts cannot underflow.
    """
    ancilla_events = 10 + 32 * params.n
    factors = (
        (params.p_one, ONE_QUBIT_GATE_COUNT),
        (gate_success(params.n), TWO_QUBIT_GATE_COUNT),
        (params.p_spg, ancilla_events),
        (params.eta, ancilla_events),
    )
    log_total = 0.0
    for base, count in factors:
        if base == 0.0:
            return 0.0
        log_total += count * math.log(base)
    return math.exp(log_total)


def golden_section_min(fn, lo: float, hi: float, tol: float = 1e-9, max_iter: int = 200) -> float:
    """Minimize a unimodal scalar function on [lo, hi] to |interval| < tol."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def min_r_over_x(p_t: float, tol: float = 1e-9) -> tuple[float, float]:
    """Best attainable attenuation ratio over stage spacings x in (0, 10]."""
    if not 0.0 < p_t <= 1.0:
        raise ValueError("p_t must lie in (0, 1]")
    x_star = golden_section_min(lambda x: r(x, p_t), 1e-9, X_SEARCH_LIMIT, tol=tol)
    return x_star, r(x_star, p_t)


def threshold_n(tol: float = 1e-9, max_n: int = 10_000) -> int:
    """Smallest ancilla-pair count n whose best ratio beats bare fiber."""
    for n in range(1, max_n + 1):
        if min_r_over_x(p_t_aggregate(n), tol=tol)[1] < 1.0:
            return n
    raise RuntimeError(f"no break-even n found up to {max_n}")


def break_even_pt(x):
    """Transponder success needed for r = 1 at normalized spacing x."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("x must be positive")
    return _scalarize(np.exp(-2.0 * x * (1.0 - f(x))))


def min_break_even_pt(tol: float = 1e-9) -> tuple[float, float]:
    """Lowest point of the break-even curve: (x at minimum, p_t there)."""
    x_star = golden_section_min(break_even_pt, 1e-9, math.log(3.0), tol=tol)
    return x_star, float(break_even_pt(x_star))


def resources(n: int, reduction_level: str) -> ResourceCount:
    """Per-transponder hardware budget at one reduction level.

    raw:  the circuit as drawn (QND devices still abstract).
    i:    QND via one CNOT, one fresh photon, one detection each.
    ii:   CNOTs rewritten as CZ plus one-qubit gates.
    iii:  each CZ teleported through 2n ancilla photons.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    n = int(n)
    if reduction_level not in REDUCTION_LEVELS:
        raise ValueError(f"unknown reduction level {reduction_level!r}")
    rows = {
        "raw": (2, 4, 4, 4, 6, 2),
        "i": (10, 0, 12, 4, 14, 10),
        "ii": (10, 0, 0, 16, 38, 10),
        "iii": (10 + 32 * n, 0, 0, 16, 38, 10 + 32 * (n + 1)),
    }
    spg, qnd, cnot, cz, one_qubit, pd = rows[reduction_level]
    return ResourceCount(reduction_level, spg, qnd, cnot, cz, one_qubit, pd)


def storage_time(alpha: float, nu: float) -> float:
    """Bare half-attenuation dwell time of a fiber loop, 1 / (2 alpha nu)."""
    if alpha <= 0 or nu <= 0:
        raise ValueError("alpha and nu must be positive")
    return 1.0 / (2.0 * alpha * nu)


def improved_storage_time(alpha: float, nu: float, r_value: float) -> float:
    """Dwell time of the loss-corrected loop: bare time stretched by 1/r."""
    if r_value <= 0:
        raise ValueError("r must be positive")
    return storage_time(alpha, nu) / r_value
