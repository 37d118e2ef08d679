"""Smoke tests: the scripts under scripts/ run against the current library."""

import importlib
from pathlib import Path

import pytest

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
