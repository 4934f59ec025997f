"""Command-line contract: exit codes, file formats, determinism."""

import json
import math

import numpy as np
import pytest

from lossguard import analytics, cli, losscode
from lossguard.analytics import TransponderParams
from lossguard.losscode import CorrectionTable


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


def test_verify_list_tables(capsys):
    assert run_cli("verify", "--list-tables") == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 16
    assert {r["loss_position"] for r in records} == {0, 1, 2, 3}
    assert set(records[0]) == {"loss_position", "outcome_bits", "pauli_word"}


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


def test_sweep_r_rejects_bad_ranges(tmp_path):
    out = str(tmp_path / "grid.csv")
    assert run_cli("sweep-r", "--out", out, "--x-steps", "1") == 2
    assert run_cli("sweep-r", "--out", out, "--x-lo", "2.0", "--x-hi", "1.0") == 2
    assert run_cli("sweep-r", "--out", out, "--pt-lo", "0.0") == 2
    assert run_cli("sweep-r", "--out", out, "--pt-hi", "1.5") == 2


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


def test_sweep_pt_rejects_bad_ranges(tmp_path):
    out = str(tmp_path / "pt.csv")
    assert run_cli("sweep-pt", "--out", out, "--n-lo", "0") == 2
    assert run_cli("sweep-pt", "--out", out, "--eta", "1.5") == 2


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


# ---------------------------------------------------------------------------
# misc


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli()
    assert err.value.code == 2


def test_threads_env_validation(monkeypatch, config_file):
    monkeypatch.setenv("LOSSGUARD_THREADS", "soon")
    assert run_cli("chain", "--config", config_file) == 2


def test_threads_env_does_not_change_output(monkeypatch, tmp_path, config_file):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("chain", "--config", config_file, "--trials", "7000", "--out", str(a))
    monkeypatch.setenv("LOSSGUARD_THREADS", "3")
    run_cli("chain", "--config", config_file, "--trials", "7000", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
