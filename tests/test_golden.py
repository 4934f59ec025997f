"""The byte contract: each case of tests/golden.json but the three long sweeps, recomputed in-process by
scripts/golden.py, gives the recorded exit code and bytes."""

import importlib.util
import warnings
from pathlib import Path

from lossguard import cli

SPEC = importlib.util.spec_from_file_location("golden", Path(__file__).parents[1] / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(golden)


def test_every_fast_case_matches_its_recorded_digests():
    table = golden.load()
    assert set(table["cases"]) == set(golden.cases())
    names = [name for name in table["cases"] if name not in golden.LONG]
    moved = [golden.line(name, fields) for name, fields in golden.check(table, names) if fields]
    assert not moved, "\n".join([*moved, golden.host_line(table)])


def test_the_threshold_cli_run_matches_itself_and_its_record():
    # two runs of the threshold command, each in its own fresh directory
    table = golden.load()
    first, second = (golden.run_command(*golden.commands()["threshold"]) for _ in range(2))
    assert first["exit"] == 0 and [key for key in first if key.startswith("file ")] == ["file threshold.json"]
    assert b"break-even ancilla count: n = 56" in first["stdout"]
    assert golden.compare(first, second) == []
    assert golden.compare(table["cases"]["cli threshold"], golden.record(first)) == []


def test_the_chain_deep_library_run_matches_itself_and_its_record():
    table = golden.load()
    spec = golden.configs()["chain_deep-seed-1"]
    first, second = golden.run_config(spec), golden.run_config(spec)
    assert first["repr"].startswith(b"{'trials': 200, 'num_stages': 10, ")
    assert golden.compare(first, second) == []
    assert golden.compare(first, dict(second, stdout=b"{}\n")) == ["stdout"]
    assert golden.compare(table["cases"]["api chain_deep-seed-1"], golden.record(first)) == []


def test_a_moved_byte_or_a_warning_names_its_case_and_field(monkeypatch):
    report = cli._threshold_report
    monkeypatch.setattr(cli, "_fmt", lambda value: "%.16g" % float(value))  # one digit fewer in CSVs
    monkeypatch.setattr(cli, "_threshold_report", lambda: warnings.warn("moved", stacklevel=1) or report())
    table = golden.load()
    moved = dict(golden.check(table, ["cli sweep-pt", "cli threshold", "cli verify"]))
    assert moved == {"cli sweep-pt": ["file pt.csv"], "cli threshold": ["stderr", "stdout"], "cli verify": []}
    assert golden.line("cli sweep-pt", moved["cli sweep-pt"]) == "DIFF cli sweep-pt: file pt.csv"
    assert f"recorded with numpy {table['host']['numpy']} on Python" in golden.host_line(table)
    # the warning is on the case's stderr without its path, whatever filters pytest has set
    assert golden.run_command(["threshold"], {})["stderr"] == b"UserWarning: moved\n"
    assert golden.compare({"exit": 0, "file a": "1"}, {"exit": 2, "file b": "1"}) == ["exit", "file a", "file b"]


def test_a_bytes_config_reaches_the_cli_as_given():
    # a non-UTF-8 config is written byte for byte, and an input is not reported as an output
    argv, inputs = golden.commands()["usage-config-not-utf8"]
    assert inputs == {"bad.json": b"\xff\xfe{}"}
    assert golden.run_command(argv, inputs) == {
        "exit": 2,
        "stdout": b"",
        "stderr": b"error: config bad.json is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
                  b"invalid start byte\n",
    }
