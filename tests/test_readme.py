"""The README's samples print what the README says they print."""

import re
import shlex
from pathlib import Path

import pytest

from affmon.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _fenced(section: str, lang: str) -> str:
    """The first ```lang block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def _cli_samples() -> list[tuple[str, str]]:
    """(command line, expected stdout) for each ``$ affmon ...`` block."""
    samples = []
    for block in _fenced("CLI", "text").strip().split("\n\n"):
        command, _, output = block.partition("\n")
        samples.append((command.removeprefix("$ "), output + "\n"))
    return samples


CLI_SAMPLES = _cli_samples()


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
    assert status == (1 if "member: no\n" in expected else 0)


def test_library_sample(capsys):
    code = _fenced("Library", "python")
    exec(compile(code, "README.md", "exec"), {})
    comments = [
        line.partition("#")[2].strip() for line in code.splitlines() if line.startswith("print(")
    ]
    assert comments
    assert capsys.readouterr().out.splitlines() == comments
