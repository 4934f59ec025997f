"""Command-line contract: exit codes, file formats, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from lossguard import analytics, chainsim, cli, losscode
from lossguard.analytics import TransponderParams
from lossguard.channel import MODES
from lossguard.losscode import OUTCOMES, CorrectionTable
from lossguard.simcore import random_state


def run_cli(*argv):
    return cli.main(list(argv))


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_reports(capsys):
    assert run_cli("verify", "--states", "2") == 0
    out = capsys.readouterr().out
    assert "PASS codeword-table" in out
    assert "PASS correction-tables" in out
    assert "PASS round-trip" in out


def test_verify_reports_requested_correction(capsys):
    assert run_cli("verify", "--qubit-loss", "3", "--outcome", "01") == 0
    assert "correction X" in capsys.readouterr().out
    assert run_cli("verify", "--qubit-loss", "0", "--outcome", "11") == 0
    assert "correction XZ" in capsys.readouterr().out


def test_verify_flag_pairing_enforced(capsys):
    assert run_cli("verify", "--qubit-loss", "3") == 2
    assert run_cli("verify", "--outcome", "01") == 2
    assert run_cli("verify", "--qubit-loss", "9", "--outcome", "01") == 2
    assert run_cli("verify", "--qubit-loss", "1", "--outcome", "21") == 2
    # no random states would pass vacuously
    assert run_cli("verify", "--states", "0") == 2
    assert run_cli("verify", "--states", "-3") == 2


def test_verify_list_tables(capsys):
    assert run_cli("verify", "--list-tables") == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 16
    assert {r["loss_position"] for r in records} == {0, 1, 2, 3}
    assert set(records[0]) == {"loss_position", "outcome_bits", "pauli_word"}


def test_verify_fails_on_a_wrong_codeword_and_names_the_first(monkeypatch, capsys):
    # swapping the states of "10" and "11" makes both words wrong; "10" comes first
    words = {word.logical_bits: word for word in losscode.codewords()}
    swap = {"10": "11", "11": "10"}
    wrong = tuple(losscode.Codeword(bits, words[swap.get(bits, bits)].state) for bits in words)
    monkeypatch.setattr(losscode, "codewords", lambda: wrong)
    assert run_cli("verify", "--states", "1") == 1
    captured = capsys.readouterr()
    assert captured.out == "FAIL codeword-table\n"
    assert json.loads(captured.err) == {"property": "codeword-table", "logical_bits": "10"}


def test_verify_failure_serializes_counterexample(monkeypatch, capsys):
    wrong = {"00": "X", "01": "I", "10": "Z", "11": "XZ"}
    monkeypatch.setattr(
        cli.losscode,
        "derive_correction_table",
        lambda position: CorrectionTable(position, dict(wrong)),
    )
    assert run_cli("verify", "--states", "1") == 1
    captured = capsys.readouterr()
    assert "FAIL correction-tables" in captured.out
    detail = json.loads(captured.err)
    assert detail["property"] == "correction-tables"
    assert detail["loss_position"] == 0


def test_verify_fails_closed_on_nan_readout_weights(monkeypatch, capsys):
    images = losscode.recovery_images

    def nan_weights(columns, position):
        branches, weights = images(columns, position)
        return branches, np.full_like(weights, math.nan)

    monkeypatch.setattr(losscode, "recovery_images", nan_weights)
    assert run_cli("verify", "--states", "2") == 1
    captured = capsys.readouterr()
    assert "FAIL round-trip" in captured.out
    detail = json.loads(captured.err)
    assert detail["property"] == "outcome-uniformity"
    assert (detail["state_index"], detail["loss_position"]) == (0, 0)


class _NoDraws:
    """An input stream that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"verify drew ({name}) before checking --states")


def test_verify_refuses_more_states_than_the_bound(monkeypatch, capsys):
    monkeypatch.setattr(chainsim, "input_rng", lambda seed: _NoDraws())
    # the patch is live: a run within the bound draws and fails
    with pytest.raises(AssertionError, match="before checking --states"):
        run_cli("verify", "--states", "1")
    assert run_cli("verify", "--states", str(cli.MAX_VERIFY_STATES + 1)) == 2
    bound = cli.MAX_VERIFY_STATES + 1
    expected = f"error: --states must be an integer in [1, {bound}), got {bound}\n"
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("count", [1, 3, 1024])
def test_verify_draws_each_block_as_random_state_one_at_a_time(count):
    for seed in range(50):
        block, one_at_a_time = chainsim.input_rng(seed), chainsim.input_rng(seed)
        rows = cli._inputs(block, count)
        expected = np.stack([random_state(2, one_at_a_time).amplitudes for _ in range(count)])
        assert rows.tobytes() == expected.tobytes()
        # and the stream stops at the same place
        assert block.bit_generator.state == one_at_a_time.bit_generator.state


# verify's stacked round-trip check against reference.check_recovery, the same
# check run one state, loss position and readout at a time


def _input_block(seed, state_index, position):
    """The split columns of verify's input number `state_index` at one position."""
    rng = chainsim.input_rng(seed)
    for _ in range(state_index + 1):
        logical = random_state(2, rng)
    return losscode.encode(logical).amplitudes[losscode.SPLITS[position]]


def _nan_weights_at(monkeypatch, seed, state_index, position):
    """NaN readout weights for one input state at one loss position, stacked or not."""
    target, images_of = _input_block(seed, state_index, position), losscode.recovery_images

    def patched(columns, pos):
        images, weights = images_of(columns, pos)
        if pos == position:
            weights[np.all(columns == target, axis=(-2, -1))] = math.nan
        return images, weights

    monkeypatch.setattr(losscode, "recovery_images", patched)


def _corrupt_map(monkeypatch, position, outcome, kind):
    """One readout map made wrong: "phase" flips the sign of |0000> and |1111> (pure,
    uniform, but not the input), "mixed" blends in the next readout's map after an X
    on the lost rail (uniform, but its two images are not parallel), "scale" makes it
    1% too long (pure and the input, but not uniform)."""
    maps_of, m = losscode.branch_maps, OUTCOMES.index(outcome)

    def patched(pos):
        maps = maps_of(pos)
        if pos == position:
            maps = maps.copy()
            if kind == "phase":
                maps[m, [0, 15]] *= -1.0
            elif kind == "scale":
                maps[m] *= 1.01
            else:
                flip = (np.arange(16) ^ (8 >> pos)).tolist()
                maps[m] = math.cos(0.3) * maps[m] + math.sin(0.3) * maps[m + 1][flip]
        return maps

    monkeypatch.setattr(losscode, "branch_maps", patched)


def _stacked_and_oracle(monkeypatch, capsys, *argv):
    """(exit code, stdout, stderr) of `verify` as it runs, then with the oracle in its place."""
    results = []
    for check in (cli._check_recovery, reference.check_recovery):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_check_recovery", check)
            code = run_cli("verify", *argv)
        results.append((code,) + tuple(capsys.readouterr()))
    return results


@pytest.mark.parametrize(
    "faults, expected",
    [
        ([], None),
        ([("nan", 3, 1)], {"property": "outcome-uniformity", "state_index": 3, "loss_position": 1}),
        ([("phase", 1, "01")], {"property": "round-trip", "state_index": 0, "loss_position": 1,
                                "outcome": "01"}),
        ([("mixed", 2, "10")], {"property": "round-trip",
                                "error": "post-measurement state not pure: mixed weight 0.0873"}),
        ([("scale", 3, "00")], {"property": "outcome-uniformity", "state_index": 0, "loss_position": 3}),
        # state before position: every state fails at position 2, state 3 also at 0
        ([("nan", 3, 0), ("phase", 2, "11")], {"state_index": 0, "loss_position": 2}),
    ],
    ids=["pass", "nan-state-3", "phase-map", "mixed-map", "scaled-map", "state-major"],
)
def test_verify_reports_the_oracles_first_failure(monkeypatch, capsys, faults, expected):
    for kind, where, what in faults:
        if kind == "nan":
            _nan_weights_at(monkeypatch, 11, where, what)
        else:
            _corrupt_map(monkeypatch, where, what, kind)
    stacked, oracle = _stacked_and_oracle(monkeypatch, capsys, "--states", "6", "--seed", "11")
    assert stacked == oracle
    code, out, err = stacked
    if expected is None:
        assert (code, err) == (0, "") and "PASS round-trip" in out
    else:
        detail = json.loads(err)
        assert code == 1 and "FAIL round-trip" in out
        assert {key: detail[key] for key in expected} == expected


@pytest.mark.parametrize("nan_state", [None, 3, 6], ids=["pass", "block-start", "last-partial-block"])
def test_verify_blocks_read_as_one_unblocked_pass(monkeypatch, capsys, nan_state):
    if nan_state is not None:
        _nan_weights_at(monkeypatch, 5, nan_state, 2)
    monkeypatch.setattr(cli, "VERIFY_BLOCK", 3)
    stacked, oracle = _stacked_and_oracle(monkeypatch, capsys, "--states", "7", "--seed", "5")
    assert stacked == oracle
    if nan_state is not None:
        assert json.loads(stacked[2])["state_index"] == nan_state


def test_verify_reports_a_flag_of_the_array_pass_as_final(monkeypatch, capsys):
    # state 2's kept blocks 1% too long: pure, and faithful by |<kept|input>|^2, but off norm.
    # Both kernels take the patch: the stacked one runs in verify, the one-block one in the oracle.
    rng = chainsim.input_rng(42)
    state_two = [losscode.encode(random_state(2, rng)) for _ in range(3)][2].amplitudes
    blocks_of, block_of = losscode.corrected_blocks, losscode.corrected_block

    def lengthen_state_two(kept):
        return np.where(np.abs(kept.conj() @ state_two)[..., None] ** 2 > 1 - 1e-6, 1.01 * kept, kept)

    def long_blocks(images, weights):
        kept, mixed = blocks_of(images, weights)
        return lengthen_state_two(kept), mixed

    monkeypatch.setattr(losscode, "corrected_blocks", long_blocks)
    monkeypatch.setattr(losscode, "corrected_block", lambda *args: lengthen_state_two(block_of(*args)))
    stacked, oracle = _stacked_and_oracle(monkeypatch, capsys, "--states", "4")
    assert stacked == oracle
    code, out, err = stacked
    assert code == 1 and "FAIL round-trip" in out
    detail = json.loads(err)
    assert {key: detail[key] for key in ("property", "state_index", "loss_position", "outcome")} == {
        "property": "round-trip", "state_index": 2, "loss_position": 0, "outcome": "00"}
    assert detail["fidelity"] == pytest.approx(1.01**2, rel=1e-12)


# ---------------------------------------------------------------------------
# sweep-r


def test_sweep_r_csv_contract(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = run_cli(
        "sweep-r",
        "--out",
        str(out),
        "--x-steps",
        "6",
        "--pt-steps",
        "5",
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["x", "p_t", "r"]
    assert len(rows) == 30
    for x, pt, rv in rows:
        assert rv == analytics.r(x, pt)  # 17 digits round-trip exactly
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    contour = tmp_path / "grid.contour.csv"
    c_header, c_rows = read_csv(contour)
    assert c_header == ["x", "p_t"]
    assert len(c_rows) == 6
    for x, pt in c_rows:
        assert pt == analytics.break_even_pt(x)
    stdout = capsys.readouterr().out
    assert "contour minimum" in stdout
    assert "0.75" in stdout


def test_sweep_r_column_at_perfect_gates_equals_f(tmp_path):
    out = tmp_path / "grid.csv"
    run_cli(
        "sweep-r",
        "--out",
        str(out),
        "--x-steps",
        "5",
        "--pt-steps",
        "2",
        "--pt-lo",
        "0.5",
        "--pt-hi",
        "1.0",
    )
    _, rows = read_csv(out)
    perfect = [(x, rv) for x, pt, rv in rows if pt == 1.0]
    assert len(perfect) == 5
    for x, rv in perfect:
        assert rv == pytest.approx(analytics.f(x), abs=1e-12)


def test_sweep_r_json_payload(tmp_path):
    out = tmp_path / "grid.json"
    run_cli(
        "sweep-r", "--out", str(out), "--format", "json",
        "--x-steps", "4", "--pt-steps", "3",
    )
    payload = json.loads(out.read_text())
    assert len(payload["grid"]) == 12
    assert len(payload["contour_r_equals_1"]) == 4
    assert payload["contour_minimum"]["p_t"] == pytest.approx(0.75, abs=1e-3)
    assert payload["contour_minimum"]["x"] == pytest.approx(math.log(1.5), abs=1e-6)


def _sweep_r_reference(xs, pts):
    """The texts sweep-r wrote when it evaluated r one grid point at a time."""
    rows = [
        (float(x), float(pt), float(analytics.r(float(x), float(pt))))
        for x in xs
        for pt in pts
    ]
    contour = [(float(x), float(analytics.break_even_pt(float(x)))) for x in xs]
    x_star, pt_star = analytics.min_break_even_pt()
    payload = {
        "grid": [{"x": x, "p_t": pt, "r": rv} for x, pt, rv in rows],
        "contour_r_equals_1": [{"x": x, "p_t": pt} for x, pt in contour],
        "contour_minimum": {"x": x_star, "p_t": pt_star},
    }
    return cli._csv("x,p_t,r", rows), cli._csv("x,p_t", contour), cli._dumps(payload)


def test_sweep_r_bytes_match_the_per_point_reference(tmp_path):
    inputs = [
        # a non-square grid, so that a transposed evaluation cannot pass
        (np.exp(np.linspace(math.log(0.05), math.log(2.5), 7)), np.linspace(0.55, 1.0, 5),
         ["--x-lo", "0.05", "--x-hi", "2.5", "--x-steps", "7",
          "--pt-lo", "0.55", "--pt-hi", "1.0", "--pt-steps", "5"]),
        # the default 300 x 200 grid
        (np.exp(np.linspace(math.log(0.01), math.log(3.0), 300)), np.linspace(0.5, 1.0, 200), []),
    ]
    for xs, pts, grid in inputs:
        csv_text, contour_text, json_text = _sweep_r_reference(xs, pts)
        out = tmp_path / "grid.csv"
        assert run_cli("sweep-r", "--out", str(out), *grid) == 0
        assert out.read_text(encoding="utf-8") == csv_text
        assert (tmp_path / "grid.contour.csv").read_text(encoding="utf-8") == contour_text
        out = tmp_path / "grid.json"
        assert run_cli("sweep-r", "--out", str(out), "--format", "json", *grid) == 0
        assert out.read_text(encoding="utf-8") == json_text


def test_sweep_r_rejects_bad_ranges(tmp_path, capsys):
    out = str(tmp_path / "grid.csv")
    refusals = [
        # 10**12 cells: refused before any array is built, not a MemoryError
        ["--x-steps", "1000000", "--pt-steps", "1000000"],
        ["--x-steps", "1"],
        ["--x-lo", "2.0", "--x-hi", "1.0"],
        ["--pt-lo", "0.0"],
        ["--pt-hi", "1.5"],
        ["--x-hi", "inf"],
    ]
    for bad in refusals:
        assert run_cli("sweep-r", "--out", out, *bad) == 2
        # every check runs before the rows stream: a refused sweep opens no file
        assert not (tmp_path / "grid.csv").exists()
        assert not (tmp_path / "grid.contour.csv").exists()
        if bad == refusals[0]:
            assert f"exceeds the limit of {cli.MAX_SWEEP_ROWS}" in capsys.readouterr().err


def test_sweep_r_csv_peaks_below_its_file_size(tmp_path):
    out = tmp_path / "grid.csv"
    argv = ("sweep-r", "--out", str(out), "--x-steps", "300", "--pt-steps", "100")
    assert run_cli(*argv) == 0  # warm-up: caches and lazy imports stay out of the peak
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size  # the whole CSV in memory took 3.6x its size


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_r_writes_a_long_contour_in_less_than_its_file_size(tmp_path, fmt):
    # at two p_t steps the contour is the larger output per x, and the arrays alone (r's and
    # break_even_pt's temporaries included) peak near the contour file's size: writing the files
    # must add less than that size to the arrays' peak (a contour held whole added 2.5x it in
    # JSON and 7x in CSV)
    steps, out = 50_000, tmp_path / f"grid.{fmt}"
    argv = ("sweep-r", "--x-steps", str(steps), "--pt-steps", "2", "--format")
    assert run_cli(*argv, "csv", "--out", str(tmp_path / "grid.csv")) == 0  # also warms up
    contour_size = (tmp_path / "grid.contour.csv").stat().st_size
    args = cli.build_parser().parse_args(["sweep-r", "--out", str(out)])
    tracemalloc.start()
    try:
        xs = cli._grid(args.x_lo, args.x_hi, steps, log=True, name="x range")
        pts = cli._grid(args.pt_lo, args.pt_hi, 2, log=False, name="p_t range")
        arrays = analytics.r(xs[:, None], pts[None, :]), analytics.break_even_pt(xs)
        _, arrays_peak = tracemalloc.get_traced_memory()
        del xs, pts, arrays
        tracemalloc.reset_peak()
        assert run_cli(*argv, fmt, "--out", str(out)) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - arrays_peak < contour_size


def test_sweep_r_json_peaks_below_its_file_size(tmp_path):
    out = tmp_path / "grid.json"
    argv = ("sweep-r", "--out", str(out), "--format", "json", "--x-steps", "300", "--pt-steps", "100")
    assert run_cli(*argv) == 0  # warm-up: caches and lazy imports stay out of the peak
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size  # the whole payload tree in memory took 11x its size


@pytest.mark.parametrize(
    "bound, row, p_t",
    [(["--x-hi", "800"], -1, math.inf), (["--x-hi", "1.7976931348623157e308"], -1, math.inf),
     (["--x-lo", "1e-320"], 0, 1.0)],
    ids=["x-800", "x-max", "x-subnormal"],
)
def test_sweep_r_writes_ieee_limits_without_warnings(tmp_path, capsys, bound, row, p_t):
    # numpy's overflow warnings would name the installed analytics.py on stderr
    out = tmp_path / "r.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("sweep-r", "--out", str(out), *bound, "--x-steps", "2", "--pt-steps", "2") == 0
    assert capsys.readouterr().err == ""
    _, contour = read_csv(out.with_suffix(".contour.csv"))
    assert contour[row][1] == p_t
    # the streamed JSON is _dumps' text of its own payload, a non-finite value as null
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("sweep-r", "--out", str(out), "--format", "json", *bound, "--x-steps", "2",
                       "--pt-steps", "2") == 0
    text = out.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert cli._dumps(payload) == text
    assert payload["contour_r_equals_1"][row]["p_t"] == (None if math.isinf(p_t) else p_t)


# ---------------------------------------------------------------------------
# sweep-pt


def test_sweep_pt_reference_rows(tmp_path):
    out = tmp_path / "pt.csv"
    # log grid endpoints land exactly on the requested n values
    assert run_cli("sweep-pt", "--out", str(out), "--n-lo", "16", "--n-hi", "160", "--n-steps", "2") == 0
    header, rows = read_csv(out)
    assert header == ["n", "eta", "p_t_full"]
    assert len(rows) == 8
    by_key = {(int(n), eta): pt for n, eta, pt in rows}
    assert by_key[(16, 1.0 - 1e-5)] == pytest.approx(0.14, abs=0.01)
    assert by_key[(160, 1.0 - 1e-5)] == pytest.approx(0.78, abs=0.01)
    for (n, eta), pt in by_key.items():
        params = TransponderParams(alpha=0.0, d=0.0, n=n, eta=eta)
        assert pt == analytics.p_t_full(params)


def test_sweep_pt_eta_curves_are_ordered(tmp_path):
    out = tmp_path / "pt.csv"
    run_cli("sweep-pt", "--out", str(out), "--n-lo", "1", "--n-hi", "500", "--n-steps", "12")
    _, rows = read_csv(out)
    per_n = {}
    for n, eta, pt in rows:
        per_n.setdefault(n, []).append((eta, pt))
    for n, curve in per_n.items():
        curve.sort(reverse=True)  # eta descending
        values = [pt for _, pt in curve]
        assert values == sorted(values, reverse=True), n


def test_sweep_pt_perfect_detectors_increase_with_n(tmp_path):
    out = tmp_path / "pt.csv"
    run_cli(
        "sweep-pt", "--out", str(out), "--eta", "1.0",
        "--n-lo", "1", "--n-hi", "1000", "--n-steps", "20",
    )
    _, rows = read_csv(out)
    values = [pt for _, _, pt in rows]
    assert values == sorted(values)
    assert values[-1] < 1.0


def test_sweep_pt_json_carries_reference(tmp_path):
    out = tmp_path / "pt.json"
    run_cli("sweep-pt", "--out", str(out), "--format", "json", "--n-steps", "4")
    payload = json.loads(out.read_text())
    assert payload["reference_p_t"] == 0.75
    assert all(set(row) == {"n", "eta", "p_t_full"} for row in payload["grid"])


def test_sweep_pt_rejects_bad_ranges(tmp_path, capsys):
    out = str(tmp_path / "pt.csv")
    assert run_cli("sweep-pt", "--out", out, "--n-steps", "1000000000000") == 2
    assert f"exceeds the limit of {cli.MAX_SWEEP_ROWS}" in capsys.readouterr().err
    assert run_cli("sweep-pt", "--out", out, "--n-lo", "0") == 2
    assert run_cli("sweep-pt", "--out", out, "--eta", "1.5") == 2
    # n beyond TransponderParams' range is a usage error, not a traceback
    assert run_cli("sweep-pt", "--out", out, "--n-hi", "100000000000000000000") == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n-lo", "5", "--n-hi", "5"], "n range: need lo < hi, got [5, 5]"),
        (["--n-lo", "0"], "n range: log grid needs lo > 0"),
        (["--n-lo", "-3"], "n range: log grid needs lo > 0"),
        (["--n-steps", "1"], "n range: steps must be an integer in [2, inf), got 1"),
    ],
    ids=["empty", "zero", "negative", "one-step"],
)
def test_sweep_pt_n_range_follows_the_grid_rules(tmp_path, capsys, flags, message):
    out = tmp_path / "pt.csv"
    assert run_cli("sweep-pt", "--out", str(out), *flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# chain / loop


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(
        json.dumps(
            {
                "alpha": 0.02,
                "d": 10.0,
                "n": 16,
                "eta": 1.0,
                "trials": 2000,
                "seed": 3,
                "p_t_override": 0.9,
            }
        )
    )
    return str(path)


def test_chain_report_matches_analytics(config_file, tmp_path):
    out = tmp_path / "report.json"
    assert run_cli("chain", "--config", config_file, "--out", str(out)) == 0
    report = json.loads(out.read_text())
    emp = report["empirical"]
    ana = report["analytic"]
    assert ana["p_t"] == 0.9
    assert ana["per_stage_success"] == pytest.approx(
        analytics.p_f(math.exp(-0.2)) * 0.9, rel=1e-12
    )
    z = (emp["per_stage_success_rate"] - ana["per_stage_success"]) / emp[
        "per_stage_success_stderr"
    ]
    assert abs(z) < 4.0
    assert report["params"]["n"] == 16
    assert report["seed"] == 3


@pytest.mark.parametrize("command", ["chain", "loop"])
def test_report_analytic_block_is_the_librarys(config_file, tmp_path, command):
    out = tmp_path / "report.json"
    assert run_cli(command, "--config", config_file, "--out", str(out)) == 0
    config = chainsim.ChainConfig(params=TransponderParams(alpha=0.02, d=10.0, n=16, eta=1.0),
                                  trials=2000, seed=3, p_t_override=0.9)
    analytic = chainsim.analytic_chain if command == "chain" else chainsim.analytic_loop
    assert json.loads(out.read_text())["analytic"] == analytic(config)


@pytest.mark.parametrize("params", [{"alpha": 1e-5, "d": 1e-320}, {"alpha": 1e-320, "d": 1e-5}],
                         ids=["d-subnormal", "alpha-subnormal"])
def test_chain_with_underflowing_x_reports_without_alpha_prime(tmp_path, params):
    # alpha * d is 0 though both are positive: no alpha' or r, which need x > 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(params))
    out = tmp_path / "report.json"
    assert run_cli("chain", "--config", str(cfg), "--trials", "50", "--seed", "1", "--out", str(out)) == 0
    analytic = json.loads(out.read_text())["analytic"]
    assert analytic["survival_prob"] == 1.0
    assert not {"alpha_prime", "r", "alpha_prime_with_gates"} & set(analytic)


@pytest.mark.parametrize("command", ["chain", "loop"])
def test_run_reports_write_ieee_limits_without_warnings(tmp_path, capsys, command):
    # alpha * d overflows: survival 0 and alpha' inf, as null, with nothing on stderr
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 1e308, "d": 1e308}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(command, "--config", str(cfg), "--trials", "50", "--seed", "1") == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    analytic = json.loads(captured.out)["analytic"]
    if command == "chain":
        assert analytic["survival_prob"] == 0.0 and analytic["alpha_prime"] is None
    else:
        assert analytic["per_cycle_success"] == 0.0 and analytic["mean_cycles"] == 0.0


def test_loop_with_underflowing_alpha_nu_reports_an_unbounded_bare_time(tmp_path, capsys):
    # alpha * nu is 0 though both are positive: the bare half-decay time is inf, written as null
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 5e-324, "nu": 0.1}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("loop", "--config", str(cfg), "--trials", "20", "--seed", "1") == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["analytic"]["bare_half_decay_time"] is None


def test_chain_cli_flags_override_config(config_file, tmp_path):
    out = tmp_path / "report.json"
    assert (
        run_cli(
            "chain", "--config", config_file,
            "--trials", "500", "--stages", "2", "--seed", "9",
            "--out", str(out),
        )
        == 0
    )
    report = json.loads(out.read_text())
    assert report["empirical"]["trials"] == 500
    assert report["empirical"]["num_stages"] == 2
    assert report["seed"] == 9


def test_chain_reports_are_byte_identical(config_file, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("chain", "--config", config_file, "--out", str(a))
    run_cli("chain", "--config", config_file, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_chain_seed_changes_the_report(config_file, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("chain", "--config", config_file, "--out", str(a))
    run_cli("chain", "--config", config_file, "--seed", "4", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


def test_chain_threshold_banner(capsys):
    assert run_cli("chain", "--threshold") == 0
    out = capsys.readouterr().out
    assert "n = 56" in out
    assert "112 ancilla qubits" in out


def test_chain_threshold_is_the_threshold_command(tmp_path, capsys):
    assert run_cli("threshold", "--out", str(tmp_path / "t.json")) == 0
    threshold = capsys.readouterr().out
    assert run_cli("chain", "--threshold", "--out", str(tmp_path / "c.json")) == 0
    chain = capsys.readouterr().out
    assert chain == threshold.replace("t.json", "c.json")
    assert (tmp_path / "c.json").read_bytes() == (tmp_path / "t.json").read_bytes()


@pytest.mark.parametrize(
    "bad",
    [["--trials", "-5"], ["--seed", "-1"], ["--stages", "0"], ["--config", "missing.json"],
     ["LOSSGUARD_THREADS=x"]],
    ids=["trials", "seed", "stages", "missing-config", "threads-env"],
)
def test_chain_threshold_refuses_bad_run_flags_like_a_run(bad, tmp_path, capsys, monkeypatch):
    for name, value in (arg.split("=") for arg in bad if "=" in arg):
        monkeypatch.setenv(name, value)
    bad = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in bad if "=" not in arg]
    assert run_cli("chain", *bad) == 2
    run = capsys.readouterr()
    assert run.out == "" and run.err.startswith("error: ")
    assert run_cli("chain", "--threshold", *bad) == 2
    assert capsys.readouterr() == run


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-r"],
        ["sweep-pt"],
        ["threshold"],
        ["resources"],
        ["chain", "--trials", "20"],
        ["loop", "--trials", "20"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(out) in err


@pytest.mark.parametrize(
    "argv, notices",
    [
        (["sweep-r", "--x-steps", "3", "--pt-steps", "2", "--out", "r.csv"],
         ["wrote 6 rows to r.csv", "wrote r = 1 contour to r.contour.csv"]),
        (["sweep-r", "--x-steps", "3", "--pt-steps", "2", "--format", "json", "--out", "r.json"],
         []),
        (["sweep-pt", "--n-lo", "16", "--n-hi", "160", "--n-steps", "2", "--out", "pt.csv"],
         ["wrote 8 rows to pt.csv"]),
        (["sweep-pt", "--n-steps", "2", "--format", "json", "--out", "pt.json"], []),
        (["threshold", "--out", "t.json"], ["wrote report to t.json"]),
        (["resources", "--out", "res.json"], ["wrote report to res.json"]),
        (["chain", "--trials", "20", "--out", "chain.json"], ["wrote report to chain.json"]),
        (["loop", "--trials", "20", "--out", "loop.json"], ["wrote report to loop.json"]),
    ],
    ids=["sweep-r-csv", "sweep-r-json", "sweep-pt-csv", "sweep-pt-json", "threshold", "resources",
         "chain", "loop"],
)
def test_each_written_file_is_announced_once(tmp_path, monkeypatch, capsys, argv, notices):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("wrote")] == notices
    assert all((tmp_path / line.split(" to ")[-1]).exists() for line in notices)


def test_chain_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run_cli("chain", "--config", str(bad)) == 2
    bad.write_text(json.dumps({"alhpa": 0.1}))
    assert run_cli("chain", "--config", str(bad)) == 2
    bad.write_text(json.dumps({"alpha": -2.0}))
    assert run_cli("chain", "--config", str(bad)) == 2
    bad.write_text(json.dumps([1, 2]))
    assert run_cli("chain", "--config", str(bad)) == 2
    assert run_cli("chain", "--config", str(tmp_path / "missing.json")) == 2


def test_config_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert run_cli("chain", "--config", str(bad)) == 2
    assert capsys.readouterr().err.startswith(f"error: config {bad} is not UTF-8: ")


@pytest.mark.parametrize("command", ["chain", "loop"])
@pytest.mark.parametrize("name", ["alpha", "d", "nu"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_run_config_rejects_non_finite_values(tmp_path, command, name, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({name: bad, "trials": 10}))
    assert run_cli(command, "--config", str(path)) == 2


@pytest.mark.parametrize("command", ["chain", "loop"])
def test_run_config_rejects_override_with_per_gate_coins(tmp_path, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p_t_override": 0.5, "trials": 10}))
    assert run_cli(command, "--config", str(path), "--mode", "per_gate") == 2


_TEXT = st.text(max_size=4)
_LIST = st.lists(st.integers(), max_size=2)
_HUGE = st.integers(min_value=2**1100, max_value=2**1200)  # beyond float range
_OUT_OF_RANGE = st.one_of(_HUGE, _HUGE.map(lambda v: -v))
_COUNT = st.one_of(st.integers(max_value=0), st.floats(), st.booleans(), _TEXT, _LIST, st.none())
_BAD_PROBABILITY = st.one_of(
    st.floats().filter(lambda v: not 0.0 <= v <= 1.0),
    _OUT_OF_RANGE,
    st.booleans(),
    _TEXT,
    _LIST,
    st.none(),
)
_BAD_NONNEGATIVE = st.one_of(
    st.floats().filter(lambda v: not (math.isfinite(v) and v >= 0.0)),
    _OUT_OF_RANGE,
    st.booleans(),
    _TEXT,
    _LIST,
    st.none(),
)
_INVALID_FIELDS = {
    "trials": _COUNT,
    "num_stages": _COUNT,
    "max_cycles": _COUNT,
    "seed": st.one_of(st.integers(max_value=-1), st.floats(), st.booleans(), _TEXT, _LIST, st.none()),
    "mode": st.one_of(_TEXT.filter(lambda m: m not in MODES), st.integers(), st.none()),
    "p_t_override": _BAD_PROBABILITY.filter(lambda v: v is not None),
    "alpha": _BAD_NONNEGATIVE,
    "d": _BAD_NONNEGATIVE,
    "nu": st.one_of(
        st.floats().filter(lambda v: not (math.isfinite(v) and v > 0.0)),
        _OUT_OF_RANGE,
        st.booleans(),
        _TEXT,
        _LIST,
    ),
    "n": st.one_of(
        st.integers(max_value=0),
        st.integers(min_value=2**53),
        st.floats().filter(lambda v: not (math.isfinite(v) and v.is_integer() and v >= 1.0)),
        st.booleans(),
        _OUT_OF_RANGE,
        _TEXT,
        _LIST,
        st.none(),
    ),
    "eta": _BAD_PROBABILITY,
    "p_one": _BAD_PROBABILITY,
    "p_spg": _BAD_PROBABILITY,
}


@given(
    command=st.sampled_from(["chain", "loop"]),
    field=st.sampled_from(sorted(_INVALID_FIELDS)).flatmap(
        lambda name: st.tuples(st.just(name), _INVALID_FIELDS[name])
    ),
)
@settings(max_examples=300, deadline=timedelta(seconds=5))
def test_run_config_rejects_every_invalid_field(command, field):
    name, value = field
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.json"
        path.write_text(json.dumps({"trials": 10, name: value}), encoding="utf-8")
        assert run_cli(command, "--config", str(path)) == 2


@pytest.mark.parametrize("command", [["chain", "--trials", "10"], ["loop", "--trials", "10"], ["verify"]])
def test_negative_seed_is_a_usage_error(command):
    assert run_cli(*command, "--seed", "-1") == 2


def test_chain_runs_without_config(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli("chain", "--trials", "200", "--seed", "1", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["params"]["alpha"] == pytest.approx(1.0 / 30.0)
    assert report["empirical"]["trials"] == 200


def test_loop_report(config_file, tmp_path):
    out = tmp_path / "loop.json"
    assert (
        run_cli(
            "loop", "--config", config_file,
            "--trials", "1000", "--max-cycles", "500", "--out", str(out),
        )
        == 0
    )
    report = json.loads(out.read_text())
    emp = report["empirical"]
    ana = report["analytic"]
    assert emp["cycle_cap"] == 500
    q = ana["per_cycle_success"]
    assert ana["mean_cycles"] == pytest.approx(q / (1 - q), rel=1e-12)
    z = (emp["mean_cycles"] - ana["mean_cycles"]) / emp["mean_cycles_stderr"]
    assert abs(z) < 4.0
    assert ana["bare_half_decay_time"] == pytest.approx(1.0 / (2 * 0.02 * 2.0e5))


@pytest.mark.parametrize("mode", ["aggregate_pt", "per_gate"])
def test_chain_and_loop_print_equal_status_counts(tmp_path, mode):
    # at one seed a loop capped at 3 cycles reads the rows of a 3-stage chain
    empirical = {}
    for command, cap in (("chain", "--stages"), ("loop", "--max-cycles")):
        out = tmp_path / f"{command}.json"
        argv = (command, cap, "3", "--seed", "17", "--trials", "3000", "--mode", mode, "--out", str(out))
        assert run_cli(*argv) == 0
        empirical[command] = json.loads(out.read_text())["empirical"]
    chain, loop = empirical["chain"], empirical["loop"]
    assert chain["status_counts"] == loop["status_counts"]
    assert chain["status_z"] == loop["status_z"]
    assert chain["end_to_end_success"] == loop["censored_fraction"] > 0


def test_loop_without_failures_is_refused_before_it_runs(tmp_path):
    # at per-cycle success 1 each of the 10,000 default trials would run to
    # the 10**6-cycle cap; the budget refuses the run before any draw
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0, "p_t_override": 1}))
    start = time.perf_counter()
    assert run_cli("loop", "--config", str(cfg)) == 2
    assert time.perf_counter() - start < 10.0


def test_loop_ignores_the_chain_stage_budget(tmp_path):
    # 1000 x 100,000 stages would pass the 5 x 10^7 chain budget, but a loop
    # does not read num_stages
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"num_stages": 100000}))
    out = tmp_path / "loop.json"
    assert run_cli("loop", "--config", str(cfg), "--trials", "1000", "--out", str(out)) == 0
    assert json.loads(out.read_text())["empirical"]["trials"] == 1000


def test_chain_over_budget_exits_2_before_it_runs(capsys):
    assert run_cli("chain", "--trials", "10000000", "--stages", "10") == 2
    assert capsys.readouterr().err == (
        "error: bad configuration: run of 10000000 x 10 stages exceeds the budget "
        "of 50000000 stage evaluations\n"
    )


@pytest.mark.parametrize("name", ["trials", "num_stages", "max_cycles", "seed", "n"])
def test_json_booleans_are_not_counts(tmp_path, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 10, name: True}))
    for command in ("chain", "loop"):
        assert run_cli(command, "--config", str(cfg)) == 2


def test_loop_censored_run_reports_null_analytic_mean(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"alpha": 0.0, "d": 1.0, "n": 1, "p_t_override": 1.0, "trials": 40}
        )
    )
    out = tmp_path / "loop.json"
    assert run_cli("loop", "--config", str(cfg), "--max-cycles", "30", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["empirical"]["mean_cycles"] == 30.0
    assert report["empirical"]["censored_fraction"] == 1.0
    assert report["analytic"]["mean_cycles"] is None  # infinite, sanitized


# ---------------------------------------------------------------------------
# resources / threshold


def test_resources_raw_row(capsys):
    assert run_cli("resources", "--level", "raw") == 0
    row = capsys.readouterr().out.splitlines()[-1].split()
    assert row == ["raw", "2", "4", "4", "4", "6", "2"]


def test_resources_teleported_row_at_sixteen(capsys):
    assert run_cli("resources", "--level", "iii", "--n", "16") == 0
    row = capsys.readouterr().out.splitlines()[-1].split()
    assert row == ["iii", "522", "0", "0", "16", "38", "554"]


def test_resources_all_rows(capsys, tmp_path):
    out = tmp_path / "rows.json"
    assert run_cli("resources", "--all", "--n", "2", "--out", str(out)) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) >= 6  # banner + header + four rows + write notice
    rows = json.loads(out.read_text())
    assert [row["reduction_level"] for row in rows] == ["raw", "i", "ii", "iii"]
    assert rows[3]["spg"] == 74
    assert run_cli("resources", "--n", "0") == 2


def test_threshold_report(capsys, tmp_path):
    out = tmp_path / "threshold.json"
    assert run_cli("threshold", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "n = 56" in stdout
    assert "112 ancilla qubits" in stdout
    report = json.loads(out.read_text())
    assert report["threshold_n"] == 56
    assert report["ancilla_qubits_per_gate"] == 112
    assert report["p_t_at_threshold"] == pytest.approx(0.7533741965926746, rel=1e-12)


def test_threshold_report_searches_the_break_even_curve_once(monkeypatch, tmp_path):
    calls = []
    search = analytics.golden_section_min

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(analytics, "golden_section_min", counting)
    # the minimum is the closed form, so no command searches for it
    report = cli._threshold_report()
    assert report["threshold_n"] == analytics.threshold_n() == 56
    assert run_cli("sweep-r", "--out", str(tmp_path / "r.csv"), "--x-steps", "3", "--pt-steps", "2") == 0
    assert len(calls) == 0


def test_correction_table_entries_serialize():
    entries = losscode.derive_correction_table(1).entries
    assert json.loads(cli._dumps(entries)) == {"00": "I", "01": "X", "10": "Z", "11": "XZ"}


# ---------------------------------------------------------------------------
# misc


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli()
    assert err.value.code == 2


def test_the_parser_is_built_once_and_reused_without_leftovers(monkeypatch, tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    # one call's --eta list does not become the next call's default
    once, default = tmp_path / "once.csv", tmp_path / "default.csv"
    assert run_cli("sweep-pt", "--eta", "0.9", "--out", str(once), "--n-steps", "2") == 0
    assert run_cli("sweep-pt", "--out", str(default), "--n-steps", "2") == 0
    assert {eta for _, eta, _ in read_csv(once)[1]} == {0.9}
    assert {eta for _, eta, _ in read_csv(default)[1]} == set(cli.SWEEP_PT_ETAS)

    def verify_after(bad_argv):
        """(exit code, stdout, stderr) of `verify` run after `bad_argv`'s usage error, if any."""
        if bad_argv:
            with pytest.raises(SystemExit) as err:
                run_cli(*bad_argv)
            assert err.value.code == 2
            capsys.readouterr()
        return (run_cli("verify", "--states", "5", "--seed", "3"),) + tuple(capsys.readouterr())

    errors = [("verify", "--states", "many"), ("verify", "--bogus"), ("chain", "--mode", "x"), ("nope",)]
    reused = [verify_after(argv) for argv in errors]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = verify_after(None)
    assert fresh[0] == 0 and "PASS round-trip" in fresh[1]
    assert reused == [fresh] * len(errors)


def test_import_pins_one_blas_thread_unless_set():
    # the console script imports lossguard before numpy, so the pin applies
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    code = f"import os, lossguard; print(*(os.environ[name] for name in {names!r}))"
    env = {k: v for k, v in os.environ.items() if k not in names}
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])

    def pinned():
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        return run.stdout.split()

    assert pinned() == ["1", "1"]
    env["OPENBLAS_NUM_THREADS"] = "2"
    assert pinned() == ["2", "1"]


def test_threads_env_validation(monkeypatch, capsys, config_file):
    for raw in ("soon", "0", "-4"):
        monkeypatch.setenv("LOSSGUARD_THREADS", raw)
        assert run_cli("chain", "--config", config_file) == 2
        assert "LOSSGUARD_THREADS" in capsys.readouterr().err


def test_threads_env_does_not_change_output(monkeypatch, tmp_path, config_file):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("chain", "--config", config_file, "--trials", "7000", "--out", str(a))
    monkeypatch.setenv("LOSSGUARD_THREADS", "3")
    run_cli("chain", "--config", config_file, "--trials", "7000", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# every flag and config field fails closed, with cases built from the parser


_HUGE_INT = str(10**400)  # beyond float range
_FLAG_VALUES = {
    int: {"-1": "-1", "0": "0", "10**400": _HUGE_INT},
    float: {value: value for value in ("-1", "0", "nan", "inf", "-inf", "1e400")},
}
_FIELD_VALUES = {"-1": "-1", "0": "0", "1e400": "1e400", "10**400": _HUGE_INT, "true": "true",
                 "null": "null", "string": '"x"', "list": "[1]", "object": "{}", "NaN": "NaN",
                 "Infinity": "Infinity", "5000 digits": "9" * 5000}


def _subcommands() -> dict:
    """Subcommand name -> its argparse parser, read from `cli.build_parser()`."""
    parser = cli.build_parser()
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _flag_cases():
    for command, sub in _subcommands().items():
        for action in sub._actions:
            for label, value in _FLAG_VALUES.get(action.type, {}).items():
                flag = action.option_strings[0]
                yield pytest.param(command, flag, value, id=f"{command} {flag}={label}")


def _bounded_argv(command: str, tmp_path, trials: bool = True) -> list[str]:
    """`command` writing into tmp_path where it has --out, and with --trials 50 on a
    Monte Carlo run unless `trials` is false, so that no large run starts."""
    options = _subcommands()[command]._option_string_actions
    argv = [command]
    if "--out" in options:
        argv += ["--out", str(tmp_path / "out")]
    if "--trials" in options and trials:
        argv += ["--trials", "50"]
    return argv


def _exit_code(argv: list[str]) -> int:
    """`main`'s exit code; any exception other than SystemExit escapes and fails the test."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command, flag, value", list(_flag_cases()))
def test_every_numeric_flag_fails_closed(tmp_path, capsys, command, flag, value):
    argv = _bounded_argv(command, tmp_path, trials=flag != "--trials") + [f"{flag}={value}"]
    assert _exit_code(argv) in (0, 1, 2)


@pytest.mark.parametrize("command", ["chain", "loop"])
@pytest.mark.parametrize("field", cli._PARAM_FIELDS + cli._RUN_FIELDS)
@pytest.mark.parametrize("value", list(_FIELD_VALUES.values()), ids=list(_FIELD_VALUES))
def test_every_config_field_fails_closed(tmp_path, capsys, command, field, value):
    config = tmp_path / "run.json"
    config.write_text(f'{{"{field}": {value}}}', encoding="utf-8")
    argv = _bounded_argv(command, tmp_path, trials=field != "trials") + ["--config", str(config)]
    assert _exit_code(argv) in (0, 1, 2)
