"""Closed-form stage model: survival, effective attenuation, budgets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossguard import analytics
from lossguard.analytics import (
    ResourceCount,
    TransponderParams,
    alpha_prime,
    break_even_pt,
    f,
    gate_success,
    golden_section_min,
    improved_storage_time,
    min_break_even_pt,
    min_r_over_x,
    p_f,
    p_t_aggregate,
    p_t_full,
    r,
    resources,
    storage_time,
    survival_prob,
    threshold_n,
)

LN3 = math.log(3.0)
LN_3_HALVES = math.log(1.5)

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# below ~1e-3 the naive 4 - 3e^{-x} form cancels catastrophically, which is
# the very thing the implementation avoids; compare only where it is accurate
moderate_x = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)


# ---------------------------------------------------------------------------
# survival and the loss-correctable fraction


def test_survival_prob_basics():
    assert survival_prob(1.0 / 30.0, 30.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert survival_prob(0.0, 50.0) == 1.0
    with pytest.raises(ValueError):
        survival_prob(-0.1, 1.0)


@settings(max_examples=100, deadline=None)
@given(probs)
def test_p_f_matches_expanded_polynomial(p):
    assert p_f(p) == pytest.approx(4 * p**3 - 3 * p**4, abs=1e-14)


def test_p_f_endpoints_and_monotonicity():
    assert p_f(0.0) == 0.0
    assert p_f(1.0) == 1.0
    grid = np.linspace(0, 1, 500)
    values = p_f(grid)
    assert np.all(np.diff(values) >= 0)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=0.5, allow_nan=False),
    st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
)
def test_alpha_prime_reproduces_stage_success(alpha, d):
    # e^{-alpha' d} is exactly the probability the stage stays correctable
    lhs = math.exp(-alpha_prime(alpha, d) * d)
    assert lhs == pytest.approx(p_f(survival_prob(alpha, d)), rel=1e-12)


def test_alpha_prime_requires_positive_distance():
    with pytest.raises(ValueError):
        alpha_prime(0.1, 0.0)


# ---------------------------------------------------------------------------
# the attenuation ratio f and r


def test_f_unity_crossing():
    assert f(LN3) == pytest.approx(1.0, abs=1e-12)


def test_f_small_x_limit():
    # f(x) -> 3x as x -> 0; the log1p/expm1 form stays accurate there
    assert f(1e-8) == pytest.approx(3e-8, rel=1e-6)
    assert f(1e-12) == pytest.approx(3e-12, rel=1e-4)


@settings(max_examples=100, deadline=None)
@given(moderate_x)
def test_f_matches_direct_formula(x):
    direct = 1.5 - math.log(4.0 - 3.0 * math.exp(-x)) / (2.0 * x)
    assert f(x) == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_f_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        f(0.0)
    with pytest.raises(ValueError):
        f(-1.0)


def test_f_is_vectorized():
    xs = np.array([0.1, 0.5, LN3, 2.0])
    vec = f(xs)
    assert vec.shape == (4,)
    for xi, vi in zip(xs, vec):
        assert vi == f(float(xi))


def test_r_reduces_to_f_at_perfect_gates():
    for x in (0.05, 0.4, 1.0, 2.5):
        assert r(x, 1.0) == pytest.approx(f(x), abs=1e-15)


def test_r_grows_as_gates_degrade():
    values = [r(0.4, pt) for pt in (1.0, 0.9, 0.8, 0.7)]
    assert values == sorted(values)
    with pytest.raises(ValueError):
        r(0.4, 0.0)
    with pytest.raises(ValueError):
        r(0.4, 1.1)


# ---------------------------------------------------------------------------
# gate success products


def test_gate_success_form():
    assert gate_success(1) == pytest.approx(0.25, abs=1e-15)
    assert gate_success(56) == pytest.approx(0.9652200677131424, rel=1e-12)
    with pytest.raises(ValueError):
        gate_success(0)


def test_p_t_aggregate_is_eight_gate_product():
    for n in (1, 7, 56, 160):
        assert p_t_aggregate(n) == pytest.approx(gate_success(n) ** 8, rel=1e-15)
    assert p_t_aggregate(56) == pytest.approx(0.7533741965926746, rel=1e-12)


def test_p_t_full_reference_points():
    p16 = p_t_full(TransponderParams(alpha=0.0, d=0.0, n=16, eta=1.0 - 1e-5))
    p160 = p_t_full(TransponderParams(alpha=0.0, d=0.0, n=160, eta=1.0 - 1e-5))
    assert p16 == pytest.approx(0.14295749592097537, rel=1e-12)
    assert p160 == pytest.approx(0.7782730529925322, rel=1e-12)
    # headline values
    assert p16 == pytest.approx(0.14, abs=0.01)
    assert p160 == pytest.approx(0.78, abs=0.01)


def test_p_t_full_factorizes():
    params = TransponderParams(alpha=0.0, d=0.0, n=12, eta=0.999, p_one=0.998, p_spg=0.997)
    events = 10 + 32 * 12
    expected = (
        0.998**38 * gate_success(12) ** 16 * 0.997**events * 0.999**events
    )
    assert p_t_full(params) == pytest.approx(expected, rel=1e-12)


def test_p_t_full_handles_extreme_exponents():
    tiny = p_t_full(TransponderParams(alpha=0.0, d=0.0, n=100_000, eta=0.9999))
    assert 0.0 < tiny < 1e-100
    dead = p_t_full(TransponderParams(alpha=0.0, d=0.0, n=4, eta=0.0))
    assert dead == 0.0


def test_p_t_full_is_monotone_in_n_at_perfect_detectors():
    values = [p_t_full(TransponderParams(alpha=0.0, d=0.0, n=n)) for n in (1, 4, 16, 64, 256)]
    assert values == sorted(values)
    assert values[-1] < 1.0


# ---------------------------------------------------------------------------
# optimization and the break-even budget


def test_golden_section_recovers_parabola_minimum():
    x = golden_section_min(lambda t: (t - 2.0) ** 2 + 1.0, 0.0, 5.0)
    assert x == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(ValueError):
        golden_section_min(lambda t: t, 1.0, 1.0)


def test_min_r_over_x_at_three_quarters():
    x_star, r_star = min_r_over_x(0.75)
    assert x_star == pytest.approx(LN_3_HALVES, abs=1e-6)
    assert r_star == pytest.approx(1.0, abs=1e-9)


def test_break_even_pt_closed_form():
    # exp(-2x (1 - f(x))) touches 3/4 exactly at x = ln(3/2)
    assert break_even_pt(LN_3_HALVES) == pytest.approx(0.75, abs=1e-12)
    x_star, pt_star = min_break_even_pt()
    assert x_star == pytest.approx(LN_3_HALVES, abs=1e-6)
    assert pt_star == pytest.approx(0.75, abs=1e-9)


def test_threshold_n_is_fifty_six():
    assert threshold_n() == 56
    assert min_r_over_x(p_t_aggregate(55))[1] > 1.0
    assert min_r_over_x(p_t_aggregate(56))[1] < 1.0


def test_threshold_margins():
    assert min_r_over_x(p_t_aggregate(55))[1] == pytest.approx(1.000756, abs=1e-4)
    assert min_r_over_x(p_t_aggregate(56))[1] == pytest.approx(0.994426, abs=1e-4)


# ---------------------------------------------------------------------------
# hardware budget


def test_resource_rows():
    expected = {
        "raw": (2, 4, 4, 4, 6, 2),
        "i": (10, 0, 12, 4, 14, 10),
        "ii": (10, 0, 0, 16, 38, 10),
    }
    for level, row in expected.items():
        for n in (1, 16, 160):
            count = resources(n, level)
            assert (
                count.spg,
                count.qnd,
                count.cnot,
                count.cz,
                count.one_qubit,
                count.pd,
            ) == row


def test_resource_row_with_teleported_gates_scales_with_n():
    for n in (1, 16, 160):
        count = resources(n, "iii")
        assert count.spg == 10 + 32 * n
        assert count.pd == 10 + 32 * (n + 1)
        assert (count.qnd, count.cnot, count.cz, count.one_qubit) == (0, 0, 16, 38)
    assert resources(16, "iii").spg == 522
    assert resources(16, "iii").pd == 554


def test_resources_validation_and_dict():
    with pytest.raises(ValueError):
        resources(0, "raw")
    with pytest.raises(ValueError):
        resources(4, "iv")
    d = resources(2, "raw").as_dict()
    assert d["reduction_level"] == "raw"
    assert set(d) == {"reduction_level", "spg", "qnd", "cnot", "cz", "one_qubit", "pd"}
    assert isinstance(resources(1, "raw"), ResourceCount)


# ---------------------------------------------------------------------------
# storage times


def test_storage_time_reference():
    assert storage_time(1.0 / 30.0, 2.0e5) == pytest.approx(7.5e-5, rel=1e-12)
    assert improved_storage_time(1.0 / 30.0, 2.0e5, 0.5) == pytest.approx(
        1.5e-4, rel=1e-12
    )
    with pytest.raises(ValueError):
        storage_time(0.0, 2.0e5)
    with pytest.raises(ValueError):
        improved_storage_time(0.1, 2.0e5, 0.0)


# ---------------------------------------------------------------------------
# parameter container


def test_params_validation():
    with pytest.raises(ValueError):
        TransponderParams(alpha=-0.1, d=1.0, n=1)
    with pytest.raises(ValueError):
        TransponderParams(alpha=0.1, d=1.0, n=0)
    with pytest.raises(ValueError):
        TransponderParams(alpha=0.1, d=1.0, n=1, eta=1.2)
    with pytest.raises(ValueError):
        TransponderParams(alpha=0.1, d=1.0, n=1, nu=0.0)
    params = TransponderParams(alpha=0.05, d=12.0, n=8)
    assert params.x == pytest.approx(0.6, rel=1e-15)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["alpha", "d", "nu"])
def test_params_reject_non_finite_values(name, bad):
    kwargs = dict(alpha=0.05, d=12.0, n=8, nu=2.0e5)
    kwargs[name] = bad
    with pytest.raises(ValueError):
        TransponderParams(**kwargs)
