"""The README's samples print what the README says they print."""

import importlib.util
import re
import shlex
from pathlib import Path

import pytest

import affmon
from affmon.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")

# The sample parser of ci/readme_samples.py, which checks the same samples
# on the installed console script: the README is parsed in one place.
_spec = importlib.util.spec_from_file_location("readme_samples", ROOT / "ci" / "readme_samples.py")
samples = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(samples)

CLI_SAMPLES = samples.cli_samples(README)


def test_the_cli_section_has_seven_samples():
    assert len(CLI_SAMPLES) == 7
    assert all(command.startswith("affmon ") for command, _ in CLI_SAMPLES)


@pytest.mark.parametrize(
    "command, expected",
    CLI_SAMPLES,
    ids=[f"{i}-{shlex.split(command)[1]}" for i, (command, _) in enumerate(CLI_SAMPLES)],
)
def test_cli_sample(capsys, command, expected):
    status = main(shlex.split(command)[1:])
    out = capsys.readouterr()
    assert (out.out, out.err) == (expected, "")
    assert status == samples.expected_status(expected)


def test_library_sample(capsys):
    code = samples.fenced(README, "Library", "python")
    exec(compile(code, "README.md", "exec"), {})
    comments = [
        line.partition("#")[2].strip() for line in code.splitlines() if line.startswith("print(")
    ]
    assert comments
    assert capsys.readouterr().out.splitlines() == comments


def test_public_name_counts_match_the_package():
    counts = re.findall(r"(?:all|same) (\d+) (?:of them|names)", README)
    assert len(counts) == 2
    assert [int(n) for n in counts] == [len(affmon.__all__)] * 2
