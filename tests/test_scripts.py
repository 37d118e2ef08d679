"""Smoke tests: the scripts under scripts/ run against the current library."""

import importlib
from pathlib import Path

import pytest

from affmon.cli import main as affmon_main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("star_monoid_survey", ["--max-entry", "4", "--coord-bound", "12"]),
        (
            "convergence_scan",
            ["--monoid", "0,1;1,2;3,5", "--vector", "7,13", "--k-max", "6"],
        ),
    ],
)
def test_script_runs_cleanly(name, argv, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    assert importlib.import_module(name).main(argv) == 0
    assert capsys.readouterr().out


def _convergence_scan(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module("convergence_scan")


def test_convergence_scan_rejects_k_max_below_one(monkeypatch, capsys):
    script = _convergence_scan(monkeypatch)
    for k_max in ("0", "abc"):
        with pytest.raises(SystemExit) as exc:
            script.main(["--monoid", "0,1;1,2;3,5", "--vector", "7,13", "--k-max", k_max])
        assert exc.value.code == 2
        assert "--k-max: must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "monoid, vector, code, status",
    [
        ("0,1;1,3;2,1", "2,1", "StarRequired", 2),  # three generators, not a star
        ("0,1;1,2", "1,2", "StarRequired", 2),  # two generators
        ("0,1;1,2;3,5", "1,0", "NotMember", 1),
        ("0,1;1,2;3,5;1,1", "7,13", "SyntaxError", 2),  # four generators
        ("0,1;2,3;1,1", "7,13", "NotMinimallyGenerated", 2),  # c | a: (2,3) is redundant
    ],
)
def test_convergence_scan_reports_errors_like_the_cli(monkeypatch, capsys, monoid, vector, code, status):
    script = _convergence_scan(monkeypatch)
    assert script.main(["--monoid", monoid, "--vector", vector, "--k-max", "3"]) == status
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error[{code}]: ")


def test_convergence_scan_prints_what_affmon_scan_prints(monkeypatch, capsys, tmp_path):
    script = _convergence_scan(monkeypatch)
    # The README sample.
    assert affmon_main(["scan", "0,1;1,2;3,5", "7,13", "--k-max", "6"]) == 0
    expected = capsys.readouterr().out
    argv = ["--monoid", "0,1;1,2;3,5", "--vector", "7,13", "--k-max", "6"]
    assert script.main(argv) == 0
    out = capsys.readouterr()
    assert out.out == expected
    assert out.err == "scanned k=1..6: limit 15/11, first exact hit at k=3, final gap 0\n"
    path = tmp_path / "scan.csv"
    assert script.main([*argv, "--out", str(path)]) == 0
    assert path.read_text() == expected
