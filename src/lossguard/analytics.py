"""Closed-form figures of merit for the loss-coded transponder chain.

Everything here is a plain function of real parameters; the Monte Carlo
side lives in chainsim.  `x` always means the normalized spacing
alpha * d (fiber attenuation rate times stage separation).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import asdict, dataclass

import numpy as np

# Rows of the per-transponder hardware table, `resources`: each level folds
# more of the circuit into CZ-based, teleported realizations.
REDUCTION_LEVELS = ("raw", "i", "ii", "iii")

X_SEARCH_LIMIT = 10.0
_THRESHOLD_MAX_N = 10_000
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_BOOLS = (bool, np.bool_)
_FLOAT_MAX = sys.float_info.max


def check_count(name: str, value, lo: int, hi: float = math.inf) -> int:
    """`value` as a Python int in [lo, hi), else a ValueError naming the field;
    booleans fail, as does whatever `operator.index` refuses (1.5, 2.0, NaN, None)."""
    try:
        count = None if isinstance(value, _BOOLS) else operator.index(value)
    except TypeError:
        count = None
    if count is None or not lo <= count < hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")
    return count


def check_real(name: str, value, lo: float, hi: float):
    """`value` unchanged if it is a finite real number in [lo, hi], else a ValueError
    naming the field: booleans, strings, None, NaN, infinities and integers beyond
    float range fail.  The happy path is comparisons only, since the gate model is
    checked once per chain stage."""
    try:
        if lo <= value <= hi and -_FLOAT_MAX <= value <= _FLOAT_MAX and not isinstance(value, _BOOLS):
            return value
    except TypeError:
        pass
    raise ValueError(f"{name} must be a finite number in [{lo}, {hi}], not booleans; got {value!r}")


def check_array(name: str, value, lo: float, hi: float = math.inf, *, open_lo: bool = False) -> np.ndarray:
    """`value` as a float array whose every entry lies in [lo, hi], or (lo, hi] when
    `open_lo`, else a ValueError naming the field and one offending entry; NaN fails."""
    arr = np.asarray(value, dtype=float)
    ok = ((arr > lo) if open_lo else (arr >= lo)) & (arr <= hi)
    if not ok.all():
        bounds = f"{'(' if open_lo else '['}{lo:g}, {hi:g}]"
        raise ValueError(f"{name} must lie in {bounds}, got {float(arr[~ok][0])!r}")
    return arr


def _check_n(value, hi: float) -> int:
    """The ancilla count n as an int in [1, hi); a float holding an integer counts."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return check_count("n", value, 1, hi)


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
        for name, hi in (("alpha", math.inf), ("d", math.inf), ("nu", math.inf),
                         ("eta", 1.0), ("p_one", 1.0), ("p_spg", 1.0)):
            check_real(name, getattr(self, name), 0.0, hi)
        if self.nu == 0:
            raise ValueError("nu must be positive")
        # above 2**53 the gate success n / (n + 1) rounds to 1; far above, floats overflow
        object.__setattr__(self, "n", _check_n(self.n, 2**53))

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
        return asdict(self)


def _scalarize(value: np.ndarray):
    return float(value) if np.ndim(value) == 0 else value


def survival_prob(alpha, d):
    """Probability a photon survives distance d at attenuation rate alpha."""
    alpha = check_array("alpha", alpha, 0.0)
    d = check_array("d", d, 0.0)
    return _scalarize(np.exp(-alpha * d))


def p_f(p):
    """Probability a four-rail block arrives with at most one photon lost."""
    p = check_array("p", p, 0.0, 1.0)
    return _scalarize(p**4 + 4 * p**3 * (1 - p))


def alpha_prime(alpha, d):
    """Effective attenuation rate of the encoded channel with ideal gates."""
    alpha = check_array("alpha", alpha, 0.0)
    d = check_array("d", d, 0.0, open_lo=True)
    return _scalarize(3 * alpha - np.log(4 - 3 * np.exp(-alpha * d)) / d)


def f(x):
    """Ratio of encoded to bare attenuation rate at normalized spacing x.

    Rises from 0 through 1 at x = ln 3 toward the asymptote 3/2.  The
    expm1/log1p form keeps the x -> 0 limit finite without a series branch.
    """
    x = check_array("x", x, 0.0, open_lo=True)
    return _scalarize(1.5 - np.log1p(3.0 * (-np.expm1(-x))) / (2.0 * x))


def gate_success(n: int) -> float:
    """Success probability of a teleported two-qubit gate backed by n pairs."""
    n = _check_n(n, sys.float_info.max)
    return (n / (n + 1.0)) ** 2


def r(x, p_t):
    """Encoded-to-bare attenuation ratio including transponder failures."""
    p_t = check_array("p_t", p_t, 0.0, 1.0, open_lo=True)
    x = np.asarray(x, dtype=float)
    return _scalarize(f(x) + (-np.log(p_t)) / (2.0 * x))


def p_t_aggregate(n: int) -> float:
    """Transponder success counting only the eight in-circuit two-qubit gates."""
    return gate_success(n) ** 8


def gate_devices(params: TransponderParams) -> tuple[tuple[float, int], ...]:
    """(success probability, count) of each device kind in one transponder, read
    from the "iii" row of `resources`: the one-qubit gates, the teleported CZs,
    and the single-photon guns, each heralded by one detector at efficiency
    eta.  eta's exponent is that gun count, 10 + 32n, not the row's pd =
    10 + 32(n + 1): the other 32 detectors are not in p_t_full."""
    spg, _, _, cz, one_qubit, _ = _teleported_row(params.n)
    return (
        (params.p_one, one_qubit),
        (gate_success(params.n), cz),
        (params.p_spg, spg),
        (params.eta, spg),
    )


def p_t_full(params: TransponderParams) -> float:
    """Transponder success from the full hardware budget of `gate_devices`.

    Evaluated in the log domain so huge ancilla counts cannot underflow.
    """
    log_total = 0.0
    for base, count in gate_devices(params):
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
    x_star = golden_section_min(lambda x: r(x, p_t), 1e-9, X_SEARCH_LIMIT, tol=tol)
    return x_star, r(x_star, p_t)


def threshold_n(max_n: int = _THRESHOLD_MAX_N) -> int:
    """Smallest n whose best ratio beats bare fiber: r(x, p_t) < 1 exactly when p_t >
    break_even_pt(x), so the first n with p_t_aggregate(n) above that curve's minimum."""
    pt_star = min_break_even_pt()[1]
    for n in range(1, max_n + 1):
        if p_t_aggregate(n) > pt_star:
            return n
    raise RuntimeError(f"no break-even n found up to {max_n}")


def break_even_pt(x):
    """Transponder success needed for r = 1 at normalized spacing x."""
    x = check_array("x", x, 0.0, open_lo=True)
    return _scalarize(np.exp(-2.0 * x * (1.0 - f(x))))


def min_break_even_pt() -> tuple[float, float]:
    """Lowest point of the break-even curve: (x at minimum, p_t there) = (ln 3/2, 3/4).

    With u = e^x, break_even_pt(x) = e^x / (4 - 3e^-x) = u^2 / (4u - 3), whose
    derivative 2u(2u - 3) / (4u - 3)^2 vanishes only at u = 3/2, where the curve
    equals 3/4; in floats break_even_pt(log(1.5)) is 0.75 exactly.
    """
    return math.log(1.5), 0.75


def _teleported_row(n: int) -> tuple[int, int, int, int, int, int]:
    """Level iii of `resources` at n ancilla pairs: (spg, qnd, cnot, cz, one_qubit, pd)."""
    return (10 + 32 * n, 0, 0, 16, 38, 10 + 32 * (n + 1))


def resources(n: int, reduction_level: str) -> ResourceCount:
    """Per-transponder hardware budget at one reduction level.

    raw:  the circuit as drawn (QND devices still abstract).
    i:    QND via one CNOT, one fresh photon, one detection each.
    ii:   CNOTs rewritten as CZ plus one-qubit gates.
    iii:  each CZ teleported through 2n ancilla photons.
    """
    n = _check_n(n, math.inf)
    if reduction_level not in REDUCTION_LEVELS:
        raise ValueError(f"unknown reduction level {reduction_level!r}")
    rows = {
        "raw": (2, 4, 4, 4, 6, 2),
        "i": (10, 0, 12, 4, 14, 10),
        "ii": (10, 0, 0, 16, 38, 10),
        "iii": _teleported_row(n),
    }
    spg, qnd, cnot, cz, one_qubit, pd = rows[reduction_level]
    return ResourceCount(reduction_level, spg, qnd, cnot, cz, one_qubit, pd)


def storage_time(alpha: float, nu: float) -> float:
    """Bare half-attenuation dwell time of a fiber loop, 1 / (2 alpha nu), or inf if 2 alpha nu underflows."""
    if check_real("alpha", alpha, 0.0, math.inf) == 0 or check_real("nu", nu, 0.0, math.inf) == 0:
        raise ValueError("alpha and nu must be positive")
    return 1.0 / rate if (rate := 2.0 * alpha * nu) else math.inf
