"""Check that the test suite kills every mutant in ``MUTANTS``.

Usage: python ci/mutants.py

Each entry is (file under src/affmon, exact source snippet, replacement,
test files).  For each one the runner copies ``src/`` and ``tests/`` into a
fresh temporary directory, requires the snippet to occur exactly once in the
file, applies the replacement and runs the named test files with
``pytest -x``.  A mutant whose tests all pass has survived, and the runner
exits 1.  The unmutated copy runs the same test files first, so a failure
unrelated to the mutant never counts as a kill.

A survivor is a finding: add a test that kills it.  Never delete an entry to
make the run pass.  Needs only the standard library, pytest and hypothesis.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    # The gap denominator of a scan row: ld in place of ld * q.
    (
        "asymptotics.py",
        "n, d = abs(ln * q - p * ld), ld * q",
        "n, d = abs(ln * q - p * ld), ld",
        ["test_asymptotics.py"],
    ),
    # The gap left unreduced: the second gcd of a scan row dropped.
    (
        "asymptotics.py",
        "rows[k - 1] = (k, p, q, n // g, d // g)",
        "rows[k - 1] = (k, p, q, n, d)",
        ["test_asymptotics.py"],
    ),
    # The multiply-back of a scan row's j = J end skipped.
    (
        "asymptotics.py",
        "or vj * m_a + wj * m_c != kx or uj + vj * m_b + wj * m_d != ky",
        "or False",
        ["test_asymptotics.py"],
    ),
    # A scan row's start not checked to be j = 0 (alpha < c/g).
    (
        "asymptotics.py",
        "or v >= c_g",
        "or False",
        ["test_asymptotics.py"],
    ),
    # A scan row's end not checked to be j = J (delta < D/g or beta < a/g).
    (
        "asymptotics.py",
        "or (uj >= d_g and wj >= a_g)",
        "or False",
        ["test_asymptotics.py"],
    ),
    # The per-class step never applied: past k = P every row repeats its class's first.
    (
        "asymptotics.py",
        "u, v, w, uj, vj, wj = u + su, v + sv, w + sw, uj + suj, vj + svj, wj + swj",
        "pass",
        ["test_asymptotics.py"],
    ),
    # count one past the end of the line: J + 2 points.
    (
        "solve3.py",
        "min(beta // a_g, dlt // d_g) + 1",
        "min(beta // a_g, dlt // d_g) + 2",
        ["test_solve3.py"],
    ),
    # count one short: the j = J point is lost.
    (
        "solve3.py",
        "min(beta // a_g, dlt // d_g) + 1",
        "min(beta // a_g, dlt // d_g)",
        ["test_solve3.py"],
    ),
    # D not divided by g in the line constants.
    (
        "monoids.py",
        "(self.b * self.c - self.a * self.d) // g",
        "(self.b * self.c - self.a * self.d)",
        ["test_solve3.py"],
    ),
    # The oracle's Cramer branch drops solutions that do not use h.
    (
        "oracle.py",
        "and mg >= 0 and mh >= 0 else []",
        "and mg >= 0 and mh > 0 else []",
        ["test_oracle.py"],
    ),
    # The multiply-back of Factorization.checked no longer compares the target.
    (
        "factorization.py",
        "if x != target.x or y != target.y:",
        "if False:",
        ["test_factorization.py"],
    ),
    # The per-point multiply-back of the listed line skipped
    # (test_solve3.py::TestMember3General::test_rejects_a_corrupted_line).
    (
        "solve3.py",
        "if pv * a + pw * c != x or pu + pv * b + pw * d != y:",
        "if False:",
        ["test_solve3.py"],
    ),
    # A multiplicity of -1 let through: the constructor's sign check off by one
    # (test_solve3.py::TestMember3General::test_rejects_a_corrupted_line[past-J]).
    (
        "factorization.py",
        "if min(self.mults) < 0:",
        "if min(self.mults) < -1:",
        ["test_solve3.py"],
    ),
    # A non-member of a two-generator monoid reports "not computed".
    (
        "solve2.py",
        "factorizations=(), reason=DIVISIBILITY_FAILS",
        "reason=DIVISIBILITY_FAILS",
        ["test_solve2.py"],
    ),
    # The JSON writer's key separator without its space.
    (
        "cli.py",
        '_json_str(k) + ": " + _json_text(v, inner)',
        '_json_str(k) + ":" + _json_text(v, inner)',
        ["test_cli.py"],
    ),
    # The scan row writer's key separator without its space.
    (
        "cli.py",
        '{i}"gap": {_json_str(r["gap"])}',
        '{i}"gap":{_json_str(r["gap"])}',
        ["test_cli.py"],
    ),
    # The factorization writer's key separator without its space
    # (test_cli.py::TestJsonText::test_factorization_lists_equal_json_dumps).
    (
        "cli.py",
        '{i}"length": {f["length"]}',
        '{i}"length":{f["length"]}',
        ["test_cli.py"],
    ),
    # The factorization writer's multiplicities one indent level short
    # (test_cli.py::TestJsonText::test_factorization_lists_equal_json_dumps).
    (
        "cli.py",
        'sep = ",\\n          "',
        'sep = ",\\n        "',
        ["test_cli.py"],
    ),
    # The JSON writer prints false as true.
    (
        "cli.py",
        'return "true" if value else "false"',
        'return "true"',
        ["test_cli.py"],
    ),
    # An integer ratio printed as "p/1".
    (
        "cli.py",
        'return str(p) if q == 1 else f"{p}/{q}"',
        'return f"{p}/{q}"',
        ["test_cli.py"],
    ),
    # Value equality compares only the first field.
    (
        "rationals.py",
        "return self._astuple() == other._astuple()",
        "return self._astuple()[:1] == other._astuple()[:1]",
        ["test_values.py"],
    ),
    # A value's hash skips its last field.
    (
        "rationals.py",
        "return hash(self._astuple())",
        "return hash(self._astuple()[:-1])",
        ["test_values.py"],
    ),
    # A value's field can be reassigned.
    (
        "rationals.py",
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        ["test_values.py"],
    ),
    # The package answers None for a name it does not have.
    (
        "__init__.py",
        'raise AttributeError(f"module {__name__!r} has no attribute {name!r}")',
        "return None",
        ["test_imports.py"],
    ),
    # A query skips the minimality check unless asked for it.
    (
        "cli.py",
        "check_minimality: bool = True,",
        "check_minimality: bool = False,",
        ["test_values.py"],
    ),
    # The elasticity of a three-generator member inverted: min length over max.
    (
        "solve3.py",
        "return Fraction(hi, lo)",
        "return Fraction(lo, hi)",
        ["test_solve3.py"],
    ),
    # The limit's tau = +1 and tau = -1 forms swapped.
    (
        "asymptotics.py",
        "return Fraction(num, den) if self.tau == 1 else Fraction(den, num)",
        "return Fraction(den, num) if self.tau == 1 else Fraction(num, den)",
        ["test_asymptotics.py"],
    ),
    # The oracle command's rho inverted.
    (
        "cli.py",
        "rho = Fraction(lengths[-1], lengths[0])",
        "rho = Fraction(lengths[0], lengths[-1])",
        ["test_cli.py"],
    ),
    # The elasticity of a two-generator member is not 1.
    (
        "solve2.py",
        "return Fraction(1)",
        "return Fraction(2)",
        ["test_solve2.py"],
    ),
    # The oracle's elasticity inverted.
    (
        "oracle.py",
        "return Fraction(lengths[-1], lengths[0])",
        "return Fraction(lengths[0], lengths[-1])",
        ["test_oracle.py"],
    ),
    # A scan's k_max too large for the row list ends in MemoryError, not InputTooLarge.
    (
        "asymptotics.py",
        "except (OverflowError, MemoryError):",
        "except OverflowError:",
        ["test_asymptotics.py"],
    ),
]


def _copy(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(
            ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__", "*.pyc")
        )


def _run_tests(tree: Path, tests: list[str]) -> bool:
    """Whether the named test files pass in ``tree``, stopping at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           f"--rootdir={tree}", *(str(tree / "tests" / t) for t in tests)]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    return done.returncode == 0


def _mutate(tree: Path, file: str, snippet: str, replacement: str) -> None:
    path = tree / "src" / "affmon" / file
    text = path.read_text()
    found = text.count(snippet)
    if found != 1:
        raise SystemExit(f"{file}: snippet {snippet!r} occurs {found} times, not once")
    path.write_text(text.replace(snippet, replacement))


def main() -> int:
    every_test = sorted({t for *_, tests in MUTANTS for t in tests})
    with tempfile.TemporaryDirectory(prefix="affmon-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        if not _run_tests(base, every_test):
            print(f"unmutated tests fail: {' '.join(every_test)}", file=sys.stderr)
            return 2
        survivors = 0
        for i, (file, snippet, replacement, tests) in enumerate(MUTANTS):
            tree = Path(tmp) / f"m{i}"
            _copy(tree)
            _mutate(tree, file, snippet, replacement)
            start = time.perf_counter()
            killed = not _run_tests(tree, tests)
            survivors += not killed
            verdict = "killed" if killed else "SURVIVED"
            print(f"{verdict:8} {time.perf_counter() - start:5.1f}s  {file}: "
                  f"{snippet!r} -> {replacement!r}")
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
