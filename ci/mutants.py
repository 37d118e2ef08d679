"""Check that the test suite kills every mutant in ``MUTANTS``.

Usage: python ci/mutants.py

Each entry is (file under src/affmon, exact source snippet, replacement,
test files).  For each one the runner copies ``src/`` and ``tests/`` into a
fresh temporary directory, requires the snippet to occur exactly once in the
file, applies the replacement and runs the named test files with
``pytest -x``.  A mutant whose tests all pass has survived, and the runner
exits 1.  A mutant whose tests run past ``TIMEOUT_S`` prints ``timeout`` and
counts as killed.  The unmutated copy runs the same test files first, so a failure
unrelated to the mutant never counts as a kill.

A survivor is a finding: add a test that kills it.  Never delete an entry to
make the run pass.  A mutant that changes no answer goes in ``EQUIVALENT``
with the reason, as (file, snippet, replacement, reason); the runner runs no
tests for it and only requires its snippet to occur exactly once.  Needs only
the standard library, pytest and hypothesis.
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

# Seconds one mutant's tests may run; a mutant that makes them loop past it
# counts as killed.
TIMEOUT_S = 300

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
    # The line check (the constructor of solve3.Line), killed by the table of
    # corrupted ends, conftest.CORRUPTED_ENDS, read by member3, member3_general
    # and elasticity3
    # (test_solve3.py::TestCheckedLine::test_every_reader_rejects_a_corrupted_line)
    # or by a scan's first row
    # (test_asymptotics.py::TestScanMultiples::test_rejects_a_corrupted_line).
    # The multiply-back of the j = J end skipped (end-off-target).
    (
        "solve3.py",
        "or vj * m_a + wj * m_c != x or uj + vj * m_b + wj * m_d != y",
        "or False",
        ["test_asymptotics.py"],
    ),
    # The multiply-back of the j = 0 start skipped (start-off-target).
    (
        "solve3.py",
        "or v * m_a + w * m_c != x or u + v * m_b + w * m_d != y",
        "",
        ["test_solve3.py"],
    ),
    # The sign test of the start skipped (start-negative).
    (
        "solve3.py",
        "u < 0 or v < 0 or w < 0 or ",
        "",
        ["test_solve3.py"],
    ),
    # The sign test of the end skipped (end-negative).
    (
        "solve3.py",
        "uj < 0 or vj < 0 or wj < 0 or ",
        "",
        ["test_asymptotics.py"],
    ),
    # The start not checked to be j = 0 (alpha < c/g).
    (
        "solve3.py",
        "or v >= c_g",
        "or False",
        ["test_asymptotics.py"],
    ),
    # The start check off by one: alpha = c/g exactly passes as j = 0
    # (start-alpha-is-c-over-g).
    (
        "solve3.py",
        "or v >= c_g",
        "or v > c_g",
        ["test_solve3.py"],
    ),
    # The end not checked to be j = J (delta < D/g or beta < a/g).
    (
        "solve3.py",
        "or (uj >= d_g and wj >= a_g)",
        "or False",
        ["test_solve3.py"],
    ),
    # The end check off by one: beta = a/g exactly passes as j = J
    # (end-beta-is-a-over-g).
    (
        "solve3.py",
        "wj >= a_g)",
        "wj > a_g)",
        ["test_asymptotics.py"],
    ),
    # The same for delta = D/g exactly (end-delta-is-d-over-g).
    (
        "solve3.py",
        "(uj >= d_g and",
        "(uj > d_g and",
        ["test_solve3.py"],
    ),
    # line builds its Line without the check, so factorize --all, --extremes
    # and check take the ends _line returns as they are
    # (test_cli.py::TestRunFactorize::test_rejects_a_corrupted_line).
    (
        "solve3.py",
        "    return Line(s, ends[:3], ends[3:], m)",
        "    unchecked = object.__new__(Line)\n"
        "    unchecked.__dict__.update(target=s, start=ends[:3], end=ends[3:], monoid=m)\n"
        "    return unchecked",
        ["test_cli.py"],
    ),
    # member3 builds its witness from _line without the check
    # (test_solve3.py::TestCheckedLine::test_every_reader_rejects_a_corrupted_line).
    (
        "solve3.py",
        "    ln = line(m, s)\n"
        "    if isinstance(ln, Membership):\n"
        "        return ln\n"
        "    return Membership(member=True, factorization=Factorization.checked(ln.start,",
        "    ln = _line(m, s.x, s.y)\n"
        "    if isinstance(ln, Membership):\n"
        "        return ln\n"
        "    return Membership(member=True, factorization=Factorization.checked(ln[:3],",
        ["test_solve3.py"],
    ),
    # elasticity3 takes its two lengths from _line's ends without the check, as
    # --extremes did through extreme_factorizations (the same test).
    (
        "solve3.py",
        "    ln = line(m, s)\n"
        "    if isinstance(ln, Membership):\n"
        '        raise NotMemberError(f"({s.x}, {s.y}) is not in the monoid ({ln.reason})")\n'
        "    lo, hi = sorted(f.length for f in ln.ends())",
        "    ln = _line(m, s.x, s.y)\n"
        "    if isinstance(ln, Membership):\n"
        '        raise NotMemberError(f"({s.x}, {s.y}) is not in the monoid ({ln.reason})")\n'
        "    lo, hi = sorted(Factorization.checked(e, m.gens, s).length"
        " for e in (ln[:3], ln[3:]))",
        ["test_solve3.py"],
    ),
    # The per-class step never applied: past k = P every row repeats its class's first.
    (
        "asymptotics.py",
        "lo, hi = lo + dlo, hi + dhi",
        "pass",
        ["test_asymptotics.py"],
    ),
    # A class's last row not checked: a step read from a corrupted line goes
    # out unchecked (test_asymptotics.py::TestScanMultiples::
    # test_rejects_a_class_step_read_from_a_corrupted_line).
    (
        "asymptotics.py",
        "Line(Vec2(k * x, k * y), end[:3], end[3:], m)",
        "None",
        ["test_asymptotics.py"],
    ),
    # The line's j = J end one point past J.
    (
        "solve3.py",
        "j = min(beta // a_g, dlt // d_g)",
        "j = min(beta // a_g, dlt // d_g) + 1",
        ["test_solve3.py"],
    ),
    # The line's j = J end one point short of J.
    (
        "solve3.py",
        "j = min(beta // a_g, dlt // d_g)",
        "j = min(beta // a_g, dlt // d_g) - 1",
        ["test_solve3.py"],
    ),
    # The line's count one past its end: J + 2 points.
    (
        "solve3.py",
        "return (self.end[1] - self.start[1]) // self.monoid.line_consts[1] + 1",
        "return (self.end[1] - self.start[1]) // self.monoid.line_consts[1] + 2",
        ["test_solve3.py"],
    ),
    # The line's count one short: J points.
    (
        "solve3.py",
        "return (self.end[1] - self.start[1]) // self.monoid.line_consts[1] + 1",
        "return (self.end[1] - self.start[1]) // self.monoid.line_consts[1]",
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
    # A multiplicity of -1 let through: the constructor's sign check off by one
    # (test_factorization.py::test_rejects_a_negative_multiplicity;
    # solve3.Line rejects a past-J point before any Factorization is built).
    (
        "factorization.py",
        "if min(self.mults) < 0:",
        "if min(self.mults) < -1:",
        ["test_factorization.py"],
    ),
    # A column of the listed line filled with its step's sign flipped: the
    # range runs away from the j = 0 start.
    (
        "solve3.py",
        "flat[0::4] = range(eu, u - du, -du)",
        "flat[0::4] = range(eu, u - du, du)",
        ["test_solve3.py"],
    ),
    # The length of a factorization listed by --all drops the (0, 1) count
    # (the length column is filled by solve3._points from the end's length).
    (
        "solve3.py",
        "n, dn = eu + ev + ew, du + dv + dw",
        "n, dn = ev + ew, du + dv + dw",
        ["test_cli.py"],
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
        'put(sep + _json_str(k) + ": ")',
        'put(sep + _json_str(k) + ":")',
        ["test_cli.py"],
    ),
    # The scan row writer's key separator without its space.
    (
        "cli.py",
        '{i}"gap": "\'',
        '{i}"gap":"\'',
        ["test_cli.py"],
    ),
    # The factorization writer's key separator without its space
    # (test_cli.py::TestJsonText::test_factorization_lists_equal_json_dumps).
    (
        "cli.py",
        '{i}],{i}"length": \'',
        '{i}],{i}"length":\'',
        ["test_cli.py"],
    ),
    # A Report takes a listing, its lengths or scan rows not in the form
    # _FORMS names: a plain list reaches the renderers
    # (test_cli.py::TestFactBlock::test_a_plain_list_is_refused_even_empty).
    (
        "cli.py",
        "if key in result and type(result[key]) is not form:",
        "if False:",
        ["test_cli.py"],
    ),
    # The block writer's length conversion put before the piece that names it
    # (test_cli.py::TestFactBlock::test_human_listing_is_each_fact_line_indented).
    (
        "cli.py",
        '+ mid + "%d" + end',
        '+ "%d" + mid + end',
        ["test_cli.py"],
    ),
    # The factorization writer's multiplicities one indent level short
    # (test_cli.py::TestJsonText::test_factorization_lists_equal_json_dumps).
    (
        "cli.py",
        'f",{i}  ", f',
        'f",{i}", f',
        ["test_cli.py"],
    ),
    # Every listed JSON form ("factorizations", "lengths", "rows") one indent
    # level short (test_cli.py::TestJsonText).
    (
        "cli.py",
        'inner = newline + "  "\n        i = inner + "  "',
        'inner = newline\n        i = inner + "  "',
        ["test_cli.py"],
    ),
    # The JSON lengths after the first one indent level short
    # (test_cli.py::TestJsonText::test_factorization_lists_equal_json_dumps).
    (
        "cli.py",
        '_ints_text(value, "," + inner)',
        '_ints_text(value, "," + newline)',
        ["test_cli.py"],
    ),
    # A listing's lengths not a form: a Report takes a plain list for them and
    # its result holds the tuple, not the JSON list
    # (test_cli.py::TestFactBlock::test_a_plain_list_is_refused_even_empty).
    (
        "cli.py",
        '_FORMS = {"factorizations": _Flat, "lengths": _Ints, "rows": _Rows}',
        '_FORMS = {"factorizations": _Flat, "rows": _Rows}',
        ["test_cli.py"],
    ),
    # The JSON writer prints false as true.
    (
        "cli.py",
        'put("true" if value else "false")',
        'put("true")',
        ["test_cli.py"],
    ),
    # An integer ratio printed as "p/1", in the result and in every render.
    (
        "cli.py",
        '_RATIO = ("%d/%d", "%d%.0s")',
        '_RATIO = ("%d/%d", "%d/%d")',
        ["test_cli.py"],
    ),
    # A rendered scan row's gap always takes the "p/q" template, so a gap of
    # 0 prints "0/1" (test_cli.py::TestRunScan::test_csv_rendering).
    (
        "cli.py",
        "forms[q == 1][d == 1]",
        "forms[q == 1][0]",
        ["test_cli.py"],
    ),
    # A flat listing that is not whole elements accepted: the last element
    # is dropped silently
    # (test_cli.py::TestRunFactorize::test_all_rejects_a_walk_that_is_not_whole_points).
    (
        "cli.py",
        "if rest:",
        "if False:",
        ["test_cli.py"],
    ),
    # Report.result rebuilt on every read instead of once
    # (test_cli.py::TestResultBuiltOnRead::test_two_reads_return_the_same_object).
    (
        "cli.py",
        'if "result" not in d:',
        "if True:",
        ["test_cli.py"],
    ),
    # The digit rule dropped: a non-ASCII digit parses as a coordinate
    # (test_cli.py::TestParsing::test_coordinates_are_ascii_digits).
    (
        "cli.py",
        "return text.isascii() and text.isdigit()",
        "return text.isdigit()",
        ["test_cli.py"],
    ),
    # The parser built anew on every call
    # (test_cli.py::TestMain::test_calls_share_one_parser).
    (
        "cli.py",
        "@cache\ndef _build_parser",
        "def _build_parser",
        ["test_cli.py"],
    ),
    # The witness of member3 taken at j = J instead of j = 0
    # (test_solve3.py::TestMember3::test_member_gets_canonical_factorization).
    (
        "solve3.py",
        "Factorization.checked(ln.start, m.gens, s))",
        "Factorization.checked(ln.end, m.gens, s))",
        ["test_solve3.py"],
    ),
    # The minimality test flipped: a redundant middle generator passes
    # (test_monoids.py::TestMinimalGeneration).
    (
        "monoids.py",
        "m.a % m.c != 0",
        "m.a % m.c == 0",
        ["test_monoids.py"],
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
    # On the slope-a/b boundary the limit reports the high-slope LFT
    # (test_cli.py::TestRunLimit::test_slope_boundary_prints_the_low_slope_lft).
    (
        "asymptotics.py",
        "if low <= high:",
        "if low < high:",
        ["test_cli.py"],
    ),
    # k = 1 refused by the periodic formulas, though a*c = 1 divides it
    # (test_asymptotics.py::TestAgainstEachOther::test_specials_at_k_one).
    (
        "asymptotics.py",
        "if k < 1:",
        "if k <= 1:",
        ["test_asymptotics.py"],
    ),
    # The same, with the bound raised to 2.
    (
        "asymptotics.py",
        "if k < 1:",
        "if k < 2:",
        ["test_asymptotics.py"],
    ),
    # An LFT numerator of exactly 0 accepted as positive
    # (test_asymptotics.py::TestLimitLFT::test_rejects_a_form_that_is_exactly_zero).
    (
        "asymptotics.py",
        "if num <= 0 or",
        "if num < 0 or",
        ["test_asymptotics.py"],
    ),
    # An LFT denominator of exactly 0 accepted as positive (the same test).
    (
        "asymptotics.py",
        "or den <= 0:",
        "or den < 0:",
        ["test_asymptotics.py"],
    ),
    # The canonical form's shift taken as -y, the least one only when y = -1
    # (test_monoids.py::TestCanonicalize::test_shift_is_the_least_that_repairs_the_second_row).
    # Rounding changes such as "(-y + x) // x" changed no shift on any pair
    # of generators with entries <= 40: there -y < x / 2, so the shift is 0 or 1.
    (
        "monoids.py",
        "(-y + x - 1) // x",
        "-y",
        ["test_monoids.py"],
    ),
    # A canonical monoid with a = 0 accepted
    # (test_monoids.py::TestConstructorInvariants::test_dim3_validates_its_entries).
    (
        "monoids.py",
        "if self.a < 1 or self.b < 0 or self.c < 1 or self.d < 0:",
        "if False:",
        ["test_monoids.py"],
    ),
    # A three-generator canonical monoid's (a, b) not checked for gcd 1 (the same test).
    (
        "monoids.py",
        "if gcd(self.a, self.b) != 1:\n"
        '            raise NotPhiMinimalError(f"({self.a}, {self.b}) has coordinate gcd > 1")\n'
        "        if gcd(self.c, self.d)",
        "if False:\n            pass\n        if gcd(self.c, self.d)",
        ["test_monoids.py"],
    ),
    # A matrix of determinant 0 accepted as unimodular
    # (test_intlin.py::test_unimat_rejects_a_determinant_other_than_plus_or_minus_one).
    (
        "intlin.py",
        "if self.det not in (1, -1):",
        "if False:",
        ["test_intlin.py"],
    ),
    # A two-generator canonical monoid with a = 0 accepted: the one check that
    # keeps a two-generator image in the quadrant
    # (test_monoids.py::TestConstructorInvariants::test_dim2_validates).
    (
        "monoids.py",
        "if self.a < 1 or self.b < 0:",
        "if False:",
        ["test_monoids.py"],
    ),
    # A factorization with no multiplicities accepted
    # (test_factorization.py::test_rejects_an_empty_factorization).
    (
        "factorization.py",
        "if len(self.mults) < 1:",
        "if False:",
        ["test_factorization.py"],
    ),
    # elasticity, limit and scan go on with a vector outside the cone
    # (test_cli.py::test_vector_outside_the_cone_is_not_a_member).
    (
        "cli.py",
        "if cs is None:\n        raise NotMemberError",
        "if False:\n        raise NotMemberError",
        ["test_cli.py"],
    ),
    # An in-process scan without a positive k_max reaches scan_multiples
    # (test_cli.py::TestRunScan::test_in_process_scan_needs_a_positive_k_max).
    (
        "cli.py",
        "if query.k_max is None or query.k_max < 1:",
        "if False:",
        ["test_cli.py"],
    ),
    # An --approx beyond float range stored as inf, which strict JSON cannot
    # print (test_cli.py::TestApproxBeyondFloatRange::test_json_stays_strict).
    (
        "cli.py",
        "except OverflowError:\n        return None",
        "except OverflowError:\n        return math.inf",
        ["test_cli.py"],
    ),
    # The human report prints an approx beyond float range as "None", not "inf"
    # (test_cli.py::TestApproxBeyondFloatRange::test_human_output_reads_inf).
    (
        "cli.py",
        'return " (~ inf)" if approx is None',
        'return " (~ None)" if approx is None',
        ["test_cli.py"],
    ),
    # The human report of a scan is not its CSV
    # (test_cli.py::TestRunScan::test_human_output_is_the_csv).
    (
        "cli.py",
        'if report.command == "scan":',
        "if False:",
        ["test_cli.py"],
    ),
]

EQUIVALENT: list[tuple[str, str, str, str]] = []


def _copy(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(
            ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__", "*.pyc")
        )


def _run_tests(tree: Path, tests: list[str]) -> bool | None:
    """Whether the named test files pass in ``tree``, stopping at the first
    failure; None if they run longer than ``TIMEOUT_S``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           f"--rootdir={tree}", *(str(tree / "tests" / t) for t in tests)]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
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
        if _run_tests(base, every_test) is not True:
            print(f"unmutated tests fail: {' '.join(every_test)}", file=sys.stderr)
            return 2
        survivors = 0
        for file, snippet, replacement, reason in EQUIVALENT:
            _mutate(base, file, snippet, snippet)  # only requires the snippet once
            print(f"equivalent       {file}: {snippet!r} -> {replacement!r}: {reason}")
        for i, (file, snippet, replacement, tests) in enumerate(MUTANTS):
            tree = Path(tmp) / f"m{i}"
            _copy(tree)
            _mutate(tree, file, snippet, replacement)
            start = time.perf_counter()
            passed = _run_tests(tree, tests)
            survivors += passed is True
            verdict = "timeout" if passed is None else "SURVIVED" if passed else "killed"
            print(f"{verdict:8} {time.perf_counter() - start:5.1f}s  {file}: "
                  f"{snippet!r} -> {replacement!r}")
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
