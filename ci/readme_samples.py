"""Check the README's CLI samples against the ``affmon`` command on PATH.

Usage: python ci/readme_samples.py

Each sample is a paragraph of the first ```text block under the README's
``## CLI`` heading: a ``$ affmon ...`` line, then the stdout it prints.  The
runner runs every sample's command line through the ``affmon`` console
script found on PATH, so it checks the command as installed, not an import
of the package.  A sample passes when stdout equals the sample's text
exactly, stderr is empty, and the exit status is 1 for a sample that prints
``member: no`` and 0 otherwise.  Exits 1 when any sample fails, and 2 when
there is no ``affmon`` on PATH.  Needs only the standard library;
``tests/test_readme.py`` reads the samples with the same parser.
"""

from __future__ import annotations

import difflib
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced(text: str, section: str, lang: str) -> str:
    """The first ```lang block under the ``## section`` heading of ``text``."""
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def cli_samples(text: str) -> list[tuple[str, str]]:
    """(command line, expected stdout) for each ``$ affmon ...`` sample."""
    samples = []
    for block in fenced(text, "CLI", "text").strip().split("\n\n"):
        command, _, output = block.partition("\n")
        samples.append((command.removeprefix("$ "), output + "\n"))
    return samples


def expected_status(stdout: str) -> int:
    """The exit status of a command that prints ``stdout``."""
    return 1 if "member: no\n" in stdout else 0


def main() -> int:
    exe = shutil.which("affmon")
    if exe is None:
        print("no affmon command on PATH", file=sys.stderr)
        return 2
    failed = 0
    samples = cli_samples(README.read_text(encoding="utf-8"))
    for command, expected in samples:
        done = subprocess.run([exe, *shlex.split(command)[1:]], capture_output=True, text=True)
        ok = (done.stdout, done.stderr, done.returncode) == (expected, "", expected_status(expected))
        failed += not ok
        print(f"{'ok' if ok else 'FAILED':6}  {command}")
        if not ok:
            print(f"        exit status {done.returncode}, stderr {done.stderr!r}")
            diff = difflib.unified_diff(
                expected.splitlines(True), done.stdout.splitlines(True), "README", "stdout"
            )
            sys.stdout.writelines(diff)
    print(f"{len(samples) - failed} of {len(samples)} samples match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
