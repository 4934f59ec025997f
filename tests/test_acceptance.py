"""Release gate: one test per headline claim, one printed verdict each.

The verdict lines bypass pytest's capture so they stay visible on every
run; each claim also asserts, so a failure here fails the suite.
"""

import json
import math
import time

import numpy as np
import pytest

from lossguard import analytics, chainsim, cli, losscode
from lossguard.analytics import TransponderParams
from lossguard.chainsim import ChainConfig
from lossguard.simcore import PureState, fidelity, partial_trace, random_state

LN3 = math.log(3.0)
LN_3_HALVES = math.log(1.5)


@pytest.fixture()
def report(capsys):
    def _report(name: str, ok: bool, detail: str = "") -> None:
        tag = "PASS" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        with capsys.disabled():
            print(f"{tag}  {name}{suffix}", flush=True)
        assert ok, f"{name}{suffix}"

    return _report


def _ket(*terms, signs=None):
    signs = signs or [1.0] * len(terms)
    vec = sum(s * PureState.basis(b).amplitudes for s, b in zip(signs, terms))
    return vec / np.linalg.norm(vec)


def test_criterion_1_codeword_table(report):
    start = time.perf_counter()
    expected = {
        "00": _ket("0000", "1111"),
        "01": _ket("0110", "1001"),
        "10": _ket("1010", "0101"),
        "11": _ket("1100", "0011"),
    }
    ok = all(
        np.allclose(
            losscode.encode(PureState.basis(bits)).amplitudes, vec, atol=1e-12
        )
        for bits, vec in expected.items()
    )
    report(
        "1 codeword table exact",
        ok,
        f"{time.perf_counter() - start:.2f}s",
    )


def test_criterion_2_recovery_walkthrough(report):
    from lossguard.losscode import ANCILLA_QUBITS, RECOVERY_GATES
    from reference import apply_gate_dm, embed, project, pure_from_density

    start = time.perf_counter()
    codeword = losscode.encode(PureState.basis("01"))

    def dm_of(pairs):
        dim = len(pairs[0][0])
        rho = np.zeros((dim, dim), dtype=complex)
        for vec, w in pairs:
            rho += w * np.outer(vec, vec.conj())
        return rho

    steps_ok = True
    state = partial_trace(codeword.to_density_matrix(), 3)
    steps_ok &= np.allclose(
        state.matrix, dm_of([(_ket("011"), 0.5), (_ket("100"), 0.5)]), atol=1e-12
    )
    state = embed(state, PureState.basis("0"), 3)
    steps_ok &= np.allclose(
        state.matrix, dm_of([(_ket("0110"), 0.5), (_ket("1000"), 0.5)]), atol=1e-12
    )
    state = embed(embed(state, PureState.basis("0"), 4), PureState.basis("0"), 5)
    steps_ok &= np.allclose(
        state.matrix, dm_of([(_ket("011000"), 0.5), (_ket("100000"), 0.5)]), atol=1e-12
    )
    for gate in RECOVERY_GATES[:2]:
        state = apply_gate_dm(state, gate)
    steps_ok &= np.allclose(
        state.matrix,
        dm_of(
            [
                (_ket("011000", "011001", "011010", "011011"), 0.5),
                (_ket("100000", "100001", "100010", "100011"), 0.5),
            ]
        ),
        atol=1e-12,
    )
    for gate in RECOVERY_GATES[2:]:
        state = apply_gate_dm(state, gate)
    branch_a = (
        PureState.basis("011000").amplitudes
        + PureState.basis("100100").amplitudes
        + PureState.basis("011010").amplitudes
        - PureState.basis("100110").amplitudes
    ) / 2.0
    branch_b = (
        PureState.basis("100001").amplitudes
        + PureState.basis("011101").amplitudes
        + PureState.basis("100011").amplitudes
        - PureState.basis("011111").amplitudes
    ) / 2.0
    steps_ok &= np.allclose(
        state.matrix, dm_of([(branch_a, 0.5), (branch_b, 0.5)]), atol=1e-12
    )

    projected = {
        "00": _ket("0110", "1001"),
        "01": _ket("1000", "0111"),
        "10": _ket("0110", "1001", signs=[1, -1]),
        "11": _ket("1000", "0111", signs=[1, -1]),
    }
    for outcome, vec in projected.items():
        record, post = project(state, ANCILLA_QUBITS, outcome)
        steps_ok &= abs(record.outcome_probability - 0.25) < 1e-12
        data = pure_from_density(partial_trace(partial_trace(post, 5), 4))
        steps_ok &= abs(abs(np.vdot(data.amplitudes, vec)) ** 2 - 1.0) < 1e-12

    table_ok = losscode.derive_correction_table(3).entries == {
        "00": "I",
        "01": "X",
        "10": "Z",
        "11": "XZ",
    }
    report(
        "2 recovery walkthrough and readout table",
        bool(steps_ok and table_ok),
        f"{time.perf_counter() - start:.2f}s",
    )


def test_criterion_3_universal_recovery(report):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_fid = 1.0
    worst_prob_dev = 0.0
    for _ in range(100):
        encoded = losscode.encode(random_state(2, rng))
        for position in range(4):
            damaged = partial_trace(encoded.to_density_matrix(), position)
            branches = losscode.recovery_branches(damaged, position)
            for branch in branches:
                worst_fid = min(
                    worst_fid, fidelity(branch.corrected_state, encoded)
                )
                worst_prob_dev = max(
                    worst_prob_dev,
                    abs(branch.measurement.outcome_probability - 0.25),
                )
    ok = worst_fid >= 1.0 - 1e-10 and worst_prob_dev <= 1e-12
    report(
        "3 universal recovery, 100 random inputs x 4 rails x 4 readouts",
        ok,
        f"min fidelity {worst_fid:.3e}, max prob dev {worst_prob_dev:.1e}, "
        f"{time.perf_counter() - start:.1f}s",
    )


def test_criterion_4_analytic_anchors(report):
    start = time.perf_counter()
    checks = []
    checks.append(abs(analytics.f(LN3) - 1.0) <= 1e-12)
    x_star, pt_star = analytics.min_break_even_pt()
    checks.append(abs(pt_star - 0.750) <= 1e-3)
    checks.append(abs(x_star - LN_3_HALVES) <= 1e-6)
    checks.append(analytics.threshold_n() == 56)
    checks.append(analytics.min_r_over_x(analytics.p_t_aggregate(55))[1] > 1.0)
    p16 = analytics.p_t_full(TransponderParams(alpha=0.0, d=0.0, n=16, eta=1 - 1e-5))
    p160 = analytics.p_t_full(TransponderParams(alpha=0.0, d=0.0, n=160, eta=1 - 1e-5))
    checks.append(abs(p16 - 0.14) <= 0.01)
    checks.append(abs(p160 - 0.78) <= 0.01)
    report(
        "4 analytic anchors",
        all(checks),
        f"f(ln3)={analytics.f(LN3):.15f}, n*=56, p16={p16:.4f}, p160={p160:.4f}, "
        f"{time.perf_counter() - start:.2f}s",
    )


def test_criterion_5_hardware_budget_rows(report):
    start = time.perf_counter()
    fixed = {
        "raw": (2, 4, 4, 4, 6, 2),
        "i": (10, 0, 12, 4, 14, 10),
        "ii": (10, 0, 0, 16, 38, 10),
    }
    ok = True
    for n in (1, 16, 160):
        for level, row in fixed.items():
            c = analytics.resources(n, level)
            ok &= (c.spg, c.qnd, c.cnot, c.cz, c.one_qubit, c.pd) == row
        c = analytics.resources(n, "iii")
        ok &= (c.spg, c.qnd, c.cnot, c.cz, c.one_qubit, c.pd) == (
            10 + 32 * n,
            0,
            0,
            16,
            38,
            10 + 32 * (n + 1),
        )
    report(
        "5 hardware budget rows for n in {1, 16, 160}",
        bool(ok),
        f"{time.perf_counter() - start:.2f}s",
    )


def test_criterion_6_monte_carlo_vs_analytic(report):
    start = time.perf_counter()
    details = []
    ok = True

    mid_range = [
        ChainConfig(
            params=TransponderParams(alpha=1 / 30, d=10.0, n=160, eta=1 - 1e-5),
            trials=100_000,
            seed=101,
        ),
        ChainConfig(
            params=TransponderParams(alpha=0.05, d=10.0, n=56),
            trials=100_000,
            seed=102,
        ),
        ChainConfig(
            params=TransponderParams(alpha=0.02, d=15.0, n=100, eta=1 - 1e-6),
            trials=100_000,
            seed=103,
        ),
        ChainConfig(
            params=TransponderParams(alpha=1 / 30, d=5.0, n=1),
            trials=100_000,
            seed=104,
            p_t_override=0.9,
        ),
        ChainConfig(
            params=TransponderParams(alpha=0.04, d=20.0, n=1),
            trials=100_000,
            seed=105,
            p_t_override=0.75,
        ),
    ]
    runs = []
    for config in mid_range:
        stats = chainsim.run_chain(config)
        runs.append(stats)
        p = analytics.survival_prob(config.params.alpha, config.params.d)
        target = analytics.p_f(p) * config.effective_p_t()
        z = (stats.per_stage_success_rate - target) / stats.per_stage_success_stderr
        details.append(f"z={z:+.2f}")
        ok &= abs(z) <= 3.0

    base = TransponderParams(alpha=1 / 30, d=10.0, n=160, eta=1 - 1e-5)
    per_stage = analytics.p_f(analytics.survival_prob(base.alpha, base.d)) * analytics.p_t_full(base)
    for stages, seed in ((2, 201), (5, 202), (10, 203)):
        config = ChainConfig(params=base, trials=30_000, num_stages=stages, seed=seed)
        stats = chainsim.run_chain(config)
        runs.append(stats)
        target = per_stage**stages
        z = (stats.end_to_end_success - target) / stats.end_to_end_stderr
        details.append(f"N{stages} z={z:+.2f}")
        ok &= abs(z) <= 3.0

    comparison = chainsim.compare_modes(
        ChainConfig(params=base, trials=20_000, seed=301)
    )
    details.append(f"mode z={comparison.z_score:+.2f}")
    ok &= comparison.agree_within_4_sigma

    # each run's status histogram against its per-evaluation expectation
    runs += [comparison.aggregate, comparison.per_gate]
    worst = max(abs(z) for stats in runs for z in stats.status_z.values())
    details.append(f"status max |z|={worst:.2f}")
    ok &= worst <= 4.0

    report(
        "6 Monte Carlo matches the product model",
        bool(ok),
        ", ".join(details) + f", {time.perf_counter() - start:.0f}s",
    )


def test_criterion_7_sweep_datasets(tmp_path, report):
    start = time.perf_counter()
    grid_path = tmp_path / "grid.csv"
    assert cli.main(["sweep-r", "--out", str(grid_path)]) == 0
    lines = grid_path.read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    finite = bool(np.all(np.isfinite(rows)))
    pointwise = bool(
        np.max(np.abs(rows[:, 2] - analytics.r(rows[:, 0], rows[:, 1]))) <= 1e-12
    )

    contour_path = tmp_path / "grid.contour.csv"
    contour = np.array(
        [
            [float(v) for v in line.split(",")]
            for line in contour_path.read_text().splitlines()[1:]
        ]
    )
    pts = contour[:, 1]
    # the x grid is log spaced, so test convexity on divided differences
    slopes = np.diff(pts) / np.diff(contour[:, 0])
    convex = bool(np.all(np.diff(slopes) > -1e-9))
    interior_min = bool(0 < int(np.argmin(pts)) < len(pts) - 1)
    min_matches = bool(
        abs(np.min(pts) - 0.75) <= 1e-3
        and abs(contour[int(np.argmin(pts)), 0] - LN_3_HALVES) <= 0.02
    )

    pt_path = tmp_path / "pt.csv"
    assert cli.main(["sweep-pt", "--out", str(pt_path)]) == 0
    ordered = True
    per_n = {}
    for line in pt_path.read_text().splitlines()[1:]:
        n, eta, pt = (float(v) for v in line.split(","))
        per_n.setdefault(n, []).append((eta, pt))
    for curve in per_n.values():
        curve.sort(reverse=True)
        values = [pt for _, pt in curve]
        ordered &= values == sorted(values, reverse=True)

    ok = finite and pointwise and convex and interior_min and min_matches and ordered
    report(
        "7 sweep datasets: finite, exact, convex contour, ordered curves",
        ok,
        f"{time.perf_counter() - start:.1f}s",
    )


def test_criterion_8_byte_identical_reruns(tmp_path, report):
    start = time.perf_counter()
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"alpha": 0.03, "d": 10.0, "n": 32, "trials": 6000, "seed": 11})
    )
    ok = True
    for command, out_a, out_b in (
        (["chain", "--config", str(config)], "a.json", "b.json"),
        (["loop", "--config", str(config), "--max-cycles", "200"], "la.json", "lb.json"),
        (["sweep-r", "--x-steps", "12", "--pt-steps", "9"], "sa.csv", "sb.csv"),
        (["sweep-pt", "--n-steps", "10"], "pa.csv", "pb.csv"),
    ):
        path_a = tmp_path / out_a
        path_b = tmp_path / out_b
        assert cli.main(command + ["--out", str(path_a)]) == 0
        assert cli.main(command + ["--out", str(path_b)]) == 0
        ok &= path_a.read_bytes() == path_b.read_bytes()
    report(
        "8 byte-identical reruns under a fixed seed",
        bool(ok),
        f"{time.perf_counter() - start:.1f}s",
    )
