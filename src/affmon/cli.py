"""Command-line front end.

Monoids are written as semicolon-separated generator pairs ("0,1;1,2;3,5"),
vectors as a single pair ("6,13"); whitespace is ignored.  ``run`` is the
one place that routes a query and builds its ``Report``: it parses,
canonicalizes, and sends two generators to ``solve2`` and three to
``solve3`` (``limit`` and ``scan`` to ``asymptotics``, for star monoids
only); ``oracle`` alone runs the brute-force enumeration, on the raw
generators.  The solver label is ``oracle`` for ``oracle``,
``dim3-star-theorem`` for ``limit`` and ``scan``, else ``dim2-theorem`` or
``dim3-line`` by the canonical monoid's type.  The answer is printed as a
human-readable report, a JSON report (--json), or CSV for ``scan``.

List-shaped answers stay the checked ints they were computed as.  A listing
(``factorize --all``, ``oracle``) is a ``_Flat``: one int tuple of each
factorization's multiplicities and length in turn, as ``solve3._points``
lists a three-generator monoid's ``Line``; its sorted ``lengths`` are an
``_Ints``.  A scan is a ``_Rows``: the limit's text and the (k, p, q, n, d)
rows of ``scan_multiples``.  ``_FORMS`` maps each answer key to its form:
these are the only forms a ``Report`` holds such a list in.  Each renderer
writes one with a single ``%`` of a ``%d`` template repeated per element
(``_fact_block``, ``_ints_text``, ``_scan_block``), and ``Report.result``
builds the plain lists from the same ints only when a caller first reads it.
The JSON report is what ``json.dumps(payload, indent=2)`` prints, byte for
byte: two-space indent, ASCII escapes, keys in insertion order.
``_json_text`` writes it directly, in one pass into one list joined once,
because given an indent ``json`` drops to its pure-Python encoder, which took
almost half of a ``large_x`` benchmark pass.  It writes each form with its
template, indented for the place it meets the form at.

Imports: the solvers (``solve2``, ``solve3``), ``monoids``, ``argparse`` and
``json`` load with this module.  ``oracle`` is imported by the ``oracle``
command alone (in ``_oracle``), and ``asymptotics`` by ``limit`` and ``scan``
alone, after the star check (in ``_solve``), so ``check``, ``factorize`` and
``elasticity`` never load either.

Values are exact ``fractions.Fraction``s and print as "7/5" or "3".
``--approx`` adds ``float(value)``, made here and nowhere else in the
package.  Beyond float range it is ``None``, as JSON prints it (``null``);
the human report prints it as ``(~ inf)``.

A coordinate longer than ``MAX_DIGITS`` digits is refused (InputTooLarge)
before any work.  Canonical entries then stay near 2,000 digits and LFT
coefficients near 4,000, under CPython's 4,300-digit int-to-str limit.  A
``--k-max`` with more rows than a list can hold is refused the same way,
before any row is computed.

Exit codes: 0 when the query succeeded (member / value computed), 1 when the
result says "member": False or a NotMember error is raised, 2 for input errors,
141 (128 + SIGPIPE) when the reader closed stdout before the output was written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Sequence
from fractions import Fraction
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str

from .errors import (
    AffmonError,
    DuplicateGeneratorError,
    InputTooLargeError,
    MonoidParseError,
    NotMemberError,
    NotMinimallyGeneratedError,
    StarRequiredError,
    ZeroGeneratorError,
)
from .factorization import PHI_OUT_OF_RANGE, Factorization, Membership
from .monoids import (
    CanonicalMonoid2,
    CanonicalMonoid3,
    Monoid,
    canonical_coords,
    canonicalize,
    validate_minimal_generation,
)
from .rationals import Vec2, _Frozen
from .solve2 import elasticity2, member2
from .solve3 import _points, elasticity3, line, member3

__all__ = ["Query", "Report", "SCAN_CSV_HEADER", "parse_monoid", "parse_vector", "run", "main"]

SOLVER_DIM2 = "dim2-theorem"
SOLVER_DIM3 = "dim3-line"
SOLVER_DIM3_STAR = "dim3-star-theorem"  # limit and scan
SOLVER_ORACLE = "oracle"

MAX_DIGITS = 1000  # per input coordinate

SCAN_CSV_HEADER = "k,rho_exact,rho_limit,gap"


# ---------------------------------------------------------------------------
# parsing


def _is_digits(text: str) -> bool:
    # int() would also take "1_3", "+6" and non-ASCII digits.
    return text.isascii() and text.isdigit()


def _parse_component(part: str, base: int) -> int:
    stripped = part.strip()
    if not stripped:
        raise MonoidParseError("empty coordinate", base)
    pos = base + part.index(stripped[0])
    if len(stripped) > MAX_DIGITS:
        # Checked before int(); the message does not echo the input.
        raise InputTooLargeError(f"coordinate at offset {pos} is longer than {MAX_DIGITS} digits")
    if not _is_digits(stripped.removeprefix("-")):
        raise MonoidParseError(f"{stripped!r} is not an integer", pos)
    value = int(stripped)
    if value < 0:
        raise MonoidParseError("coordinates must be nonnegative", pos)
    return value


def _parse_pair(segment: str, base: int) -> tuple[int, int]:
    comma = segment.find(",")
    if comma < 0:
        raise MonoidParseError("expected a pair 'x,y'", base)
    x = _parse_component(segment[:comma], base)
    y = _parse_component(segment[comma + 1 :], base + comma + 1)
    return x, y


def parse_vector(text: str) -> Vec2:
    """Parse a single "x,y" pair into a vector."""
    x, y = _parse_pair(text, 0)
    return Vec2(x, y)


def parse_monoid(text: str) -> tuple[Vec2, ...]:
    """Parse "x,y;x,y;..." into a generator tuple, with positional errors."""
    gens: list[Vec2] = []
    seen: set[tuple[int, int]] = set()
    base = 0
    for segment in text.split(";"):
        x, y = _parse_pair(segment, base)
        if (x, y) == (0, 0):
            raise ZeroGeneratorError("(0, 0) is not a valid generator")
        if (x, y) in seen:
            raise DuplicateGeneratorError(f"generator ({x}, {y}) appears twice")
        seen.add((x, y))
        gens.append(Vec2(x, y))
        base += len(segment) + 1
    return tuple(gens)


# ---------------------------------------------------------------------------
# queries and reports


class Query(_Frozen):
    """One CLI invocation, decoupled from argparse for in-process use."""

    _fields = (
        "command", "monoid_text", "vector_text", "k_max", "mode", "check_minimality", "output",
        "approx",
    )

    def __init__(
        self,
        command: str,
        monoid_text: str,
        vector_text: str,
        k_max: int | None = None,
        mode: str = "one",  # factorize: one | all | extremes
        check_minimality: bool = True,
        output: str = "human",  # human | json | csv
        approx: bool = False,
    ) -> None:
        object.__setattr__(self, "command", command)
        object.__setattr__(self, "monoid_text", monoid_text)
        object.__setattr__(self, "vector_text", vector_text)
        object.__setattr__(self, "k_max", k_max)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "check_minimality", check_minimality)
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "approx", approx)


class Report(_Frozen):
    """The answer to a query, ready for rendering in any output format.

    A listing's or a scan's lists are held only as the checked ints ``run``
    builds, in the form ``_FORMS`` names for their key (``_Flat`` under
    "factorizations", ``_Ints`` under "lengths", ``_Rows`` under "rows"), and
    the renderers write from those; any other value under those keys raises
    ``TypeError``.  ``result`` is the answer as the ``--json`` report's
    "result" holds it; its plain lists are built from the ints on the first
    read and kept, so a report compares, hashes, prints and pickles
    alike whether or not it has been read.  Any other answer is ``result``
    itself.
    """

    _fields = (
        "command", "generators", "canonical", "input", "result", "solver_used", "exit_code",
    )

    def __init__(
        self,
        command: str,
        generators: tuple[Vec2, ...],
        canonical: Monoid | None,
        input: Vec2,
        result: dict,
        solver_used: str,
        exit_code: int,
    ) -> None:
        for key, form in _FORMS.items():
            if key in result and type(result[key]) is not form:
                raise TypeError(f"result[{key!r}] must be a {form.__name__}, as run builds it, "
                                f"not a {type(result[key]).__name__}")
        object.__setattr__(self, "command", command)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "_answer", result)
        object.__setattr__(self, "solver_used", solver_used)
        object.__setattr__(self, "exit_code", exit_code)

    @property
    def result(self) -> dict:
        d = self.__dict__
        if "result" not in d:
            answer = d["_answer"]
            if any(key in answer for key in _FORMS):
                answer = {k: v.plain() if k in _FORMS else v for k, v in answer.items()}
            d["result"] = answer
        return d["result"]

    def _astuple(self) -> tuple:
        self.result  # built first: a report compares by its result's value
        return super()._astuple()

    @property
    def star(self) -> bool | None:
        if isinstance(self.canonical, CanonicalMonoid3):
            return self.canonical.star
        return None


def _fact_payload(fact: Factorization) -> dict:
    """A factorization as ``check`` and ``--extremes`` report it."""
    return {"mults": list(fact.mults), "length": fact.length}


class _Flat:
    """A list of factorizations as one flat int tuple: each element's k
    multiplicities and then its length, u, v, w, n, u, v, w, n, ... for k = 3.
    The renderers' ``%`` templates take ``ints`` as they are."""

    def __init__(self, k: int, ints: Sequence[int]) -> None:
        count, rest = divmod(len(ints), k + 1)
        if rest:
            raise ValueError(f"{len(ints)} ints are not whole elements of {k} multiplicities")
        self.k, self.count, self.ints = k, count, tuple(ints)

    def plain(self) -> list:
        k, ints = self.k, self.ints
        return [{"mults": list(ints[i : i + k]), "length": ints[i + k]}
                for i in range(0, len(ints), k + 1)]


class _Ints(tuple):
    """A listing's lengths, sorted."""

    __slots__ = ()

    def plain(self) -> list:
        return list(self)


def _listing(member: bool, flat: _Flat) -> dict:
    """The result of ``factorize --all`` or ``oracle``, its lists kept as ints."""
    return {"member": member, "count": flat.count, "factorizations": flat,
            "lengths": _Ints(sorted(flat.ints[flat.k :: flat.k + 1]))}


class _Rows:
    """Scan rows as ``scan_multiples`` returns them, (k, p, q, n, d) each,
    with the limit's text."""

    def __init__(self, limit: str, rows: list) -> None:
        self.limit, self.rows = limit, rows

    def plain(self) -> list:
        lim = self.limit
        return [{"k": k, "rho_exact": _ratio_text(p, q), "rho_limit": lim, "gap": _ratio_text(n, d)}
                for k, p, q, n, d in self.rows]


# The answers' lists, each in the one form a Report holds, the writer writes
# and Report.result builds the plain list from.
_FORMS = {"factorizations": _Flat, "lengths": _Ints, "rows": _Rows}


def _factorize(m: Monoid, cs: Vec2 | None, mode: str) -> dict:
    """Factorize in one of three modes; ``check`` is mode "one".  cs is None
    when the transform already put the vector outside the monoid's cone."""
    if mode not in ("one", "all", "extremes"):
        raise ValueError(f"unknown factorize mode {mode!r}")
    if cs is None:
        return {"member": False, "reason": PHI_OUT_OF_RANGE}
    dim2 = isinstance(m, CanonicalMonoid2)
    if mode != "one" and not dim2:
        ln = line(m, cs)
        if isinstance(ln, Membership):
            return {"member": False, "reason": ln.reason}
        if mode == "all":
            return _listing(True, _Flat(3, _points(ln)))
        short, long_ = sorted(ln.ends(), key=lambda f: f.length)
        return {
            "member": True,
            # The side of slope a/b that s lies on: which bound fixes J.
            "branch": "low-slope" if cs.x * m.b <= cs.y * m.a else "high-slope",
            "t_max": ln.count - 1,
            "shortest": _fact_payload(short),
            "longest": _fact_payload(long_),
        }
    mem = member2(m, cs) if dim2 else member3(m, cs)
    if not mem.member:
        return {"member": False, "reason": mem.reason}
    if mode == "one":
        return {"member": True, "factorization": _fact_payload(mem.factorization)}
    # Two generators: the factorization is unique.
    f = mem.factorization
    if mode == "all":
        return _listing(True, _Flat(2, (*f.mults, f.length)))
    fact = _fact_payload(f)
    return {"member": True, "shortest": fact, "longest": fact}


def _solve(query: Query, m: Monoid, cs: Vec2 | None) -> dict:
    """``elasticity``, ``limit`` or ``scan``: each needs the vector in the
    cone, and ``limit`` and ``scan`` a star monoid, checked first."""
    command = query.command
    if command != "elasticity" and not (isinstance(m, CanonicalMonoid3) and m.star):
        what = "the limit formula" if command == "limit" else "scanning multiples"
        raise StarRequiredError(f"{what} needs three generators with b*c - a*d = 1")
    if cs is None:
        raise NotMemberError("vector is outside the monoid's cone")
    if command != "elasticity":
        from .asymptotics import rho_limit, scan_multiples  # imported by limit and scan only
    if command == "scan":
        if query.k_max is None or query.k_max < 1:
            raise ValueError("scan needs --k-max >= 1")
        limit, rows = scan_multiples(m, cs, query.k_max)
        return {"rows": _Rows(str(limit), rows)}
    if command == "limit":
        lft, value = rho_limit(m, cs)
        result = {
            "tau": lft.tau,
            "lft": {"p": lft.p, "q": lft.q, "r": lft.r, "t": lft.t},
            "rho_limit": str(value),
        }
    else:
        value = (elasticity2 if isinstance(m, CanonicalMonoid2) else elasticity3)(m, cs)
        result = {"rho": str(value)}
    if query.approx:
        result["approx"] = _approx(value)
    return result


# The %-template of p/q in lowest terms, indexed by q == 1: "%d%.0s" prints
# p alone and consumes q, as str(Fraction(p, 1)) prints no denominator.
_RATIO = ("%d/%d", "%d%.0s")


def _ratio_text(p: int, q: int) -> str:
    """``str(Fraction(p, q))`` for p/q already in lowest terms."""
    return _RATIO[q == 1] % (p, q)


def _oracle(gens: tuple[Vec2, ...], vec: Vec2, approx: bool) -> dict:
    from .oracle import enumerate_factorizations

    fs = enumerate_factorizations(gens, vec)
    ints = [n for f in fs.facts for n in (*f.mults, f.length)]
    result = _listing(fs.member, _Flat(len(gens), ints))
    if fs.member and not vec.is_zero:
        lengths = result["lengths"]
        rho = Fraction(lengths[-1], lengths[0])
        result["rho"] = str(rho)
        if approx:
            result["approx"] = _approx(rho)
    return result


def run(query: Query) -> Report:
    """Execute a query in-process and return the full report (routing, label
    and exit code as in the module docstring)."""
    gens = parse_monoid(query.monoid_text)
    vec = parse_vector(query.vector_text)
    m: Monoid | None = None
    if query.command == "oracle":
        result, solver = _oracle(gens, vec, query.approx), SOLVER_ORACLE
    else:
        if len(gens) not in (2, 3):
            raise MonoidParseError(f"expected 2 or 3 generators, got {len(gens)}", 0)
        m = canonicalize(gens)
        if query.check_minimality and not validate_minimal_generation(m):
            raise NotMinimallyGeneratedError(
                "a generator is a combination of the others; "
                "rerun with --no-minimality-check to query anyway"
            )
        cs = canonical_coords(m, vec)
        if query.command in ("check", "factorize"):
            result = _factorize(m, cs, query.mode if query.command == "factorize" else "one")
        elif query.command in ("elasticity", "limit", "scan"):
            result = _solve(query, m, cs)
        else:
            raise ValueError(f"unknown command {query.command!r}")
        if query.command in ("limit", "scan"):
            solver = SOLVER_DIM3_STAR
        else:
            solver = SOLVER_DIM2 if isinstance(m, CanonicalMonoid2) else SOLVER_DIM3
    return Report(
        command=query.command,
        generators=gens,
        canonical=m,
        input=vec,
        result=result,
        solver_used=solver,
        exit_code=1 if result.get("member") is False else 0,
    )


# ---------------------------------------------------------------------------
# rendering


def _monoid_json(report: Report) -> dict:
    m = report.canonical
    return {
        "generators": [[g.x, g.y] for g in report.generators],
        "canonical": None if m is None else [[g.x, g.y] for g in m.gens],
        "star": report.star,
        "transform": None if m is None else [list(r) for r in m.transform.as_rows()],
    }


def render_json(report: Report) -> str:
    return _json_text({
        "command": report.command,
        "monoid": _monoid_json(report),
        "input": [report.input.x, report.input.y],
        "result": report._answer,
        "solver_used": report.solver_used,
    })


def _json_text(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for the types a report
    holds, and the forms of ``_FORMS``; anything else raises rather than printing
    differently.  The whole text is written into one list and joined once."""
    out: list[str] = []
    _write(value, "\n", out.append)
    return "".join(out)


def _write(value, newline: str, put) -> None:
    """Write ``value`` by ``put``; ``newline`` is a line break plus the indent
    of the line ``value`` starts on."""
    kind = type(value)
    if kind is int:
        put(int.__repr__(value))
    elif kind is str:
        put(_json_str(value))
    elif kind is dict or kind is list:
        inner = newline + "  "
        if not value:
            put("{}" if kind is dict else "[]")
        elif kind is list:
            sep = "[" + inner
            for v in value:
                put(sep)
                _write(v, inner, put)
                sep = "," + inner
            put(newline + "]")
        else:
            sep = "{" + inner
            for k, v in value.items():
                if type(k) is not str:
                    raise TypeError(f"JSON keys must be str, not {type(k).__name__}")
                put(sep + _json_str(k) + ": ")
                _write(v, inner, put)
                sep = "," + inner
            put(newline + "}")
    elif kind is _Flat or kind is _Ints or kind is _Rows:
        # Every element with one %-template, indented from where the list sits.
        inner = newline + "  "
        i = inner + "  "
        if kind is _Flat:
            head, sep, mid = f'{{{i}"mults": [{i}  ', f",{i}  ", f'{i}],{i}"length": '
            block = _fact_block(value, head, sep, mid, inner + "}", "," + inner)
        elif kind is _Ints:
            block = _ints_text(value, "," + inner)
        else:
            head = f'{{{i}"k": %d,{i}"rho_exact": "'
            mid = f'",{i}"rho_limit": {_json_str(value.limit)},{i}"gap": "'
            block = _scan_block(value, head, mid, '"' + inner + "}", "," + inner)
        if block:  # the block alone: joined to its brackets it would be copied
            put("[" + inner)
            put(block)
            put(newline + "]")
        else:
            put("[]")
    elif value is None:
        put("null")
    elif kind is bool:
        put("true" if value else "false")
    elif kind is float:
        if not math.isfinite(value):
            raise ValueError(f"{value!r} has no strict JSON form")
        put(float.__repr__(value))
    else:
        raise TypeError(f"{kind.__name__} is not a JSON type")


def render_csv(report: Report) -> str:
    rows = report._answer.get("rows")
    if rows is None:
        raise ValueError("CSV output is only defined for scan reports")
    body = _scan_block(rows, "%d,", f",{rows.limit},", "", "\n")
    return SCAN_CSV_HEADER + "\n" + body if body else SCAN_CSV_HEADER


def _scan_block(scan: _Rows, head: str, mid: str, end: str, joiner: str) -> str:
    """Each row as head, its exact value, mid, its gap and end, the rows
    joined by ``joiner``: one ``%`` for the whole list, k filling head's
    ``%d``.  A ratio is written by its ``_RATIO`` template.  Only head may
    hold a ``%``; mid holds the limit's text, digits and "/" only."""
    forms = [[head + r + mid + g + end for g in _RATIO] for r in _RATIO]
    rows = scan.rows
    text = joiner.join([forms[q == 1][d == 1] for _, _, q, _, d in rows])
    return text % tuple(chain.from_iterable(rows))


def _fact_block(flat: _Flat, head: str, sep: str, mid: str, end: str, joiner: str) -> str:
    """Each element of ``flat`` as head, its multiplicities joined by sep, mid,
    its length and end, the elements joined by ``joiner``: one ``%`` for the
    whole list.  No piece may hold a ``%``: the callers pass literals that
    hold none."""
    one = head + sep.join(["%d"] * flat.k) + mid + "%d" + end
    return joiner.join([one] * flat.count) % flat.ints


def _ints_text(ints: _Ints, joiner: str) -> str:
    """The ints joined by ``joiner``, with one ``%d`` template."""
    return joiner.join(["%d"] * len(ints)) % ints


def _fact_line(payload: dict) -> str:
    return f"({', '.join(map(str, payload['mults']))})  length={payload['length']}"


def render_human(report: Report) -> str:
    res = report._answer
    if report.command == "scan":
        return render_csv(report)
    lines: list[str] = []
    if "member" in res:
        lines.append("member: " + ("yes" if res["member"] else "no"))
    if res.get("reason"):
        lines.append(f"reason: {res['reason']}")
    if "factorization" in res:
        lines.append("factorization: " + _fact_line(res["factorization"]))
    if "factorizations" in res:
        lines.append(f"factorizations ({res['count']}):")
        flat = res["factorizations"]
        if flat.count:  # _fact_line's text, indented
            lines.append(_fact_block(flat, "  (", ", ", ")  length=", "", "\n"))
    if "lengths" in res:
        lines.append("lengths: " + _ints_text(res["lengths"], " "))
    if "branch" in res:
        lines.append(f"branch: {res['branch']}")
        lines.append(f"t_max: {res['t_max']}")
    if "shortest" in res:
        lines.append("shortest: " + _fact_line(res["shortest"]))
        lines.append("longest: " + _fact_line(res["longest"]))
    if "tau" in res:
        lines.append(f"tau: {res['tau']}")
        lft = res["lft"]
        lines.append(f"lft: ({lft['p']}x{lft['q']:+d}y) / ({lft['r']}x{lft['t']:+d}y)")
    if "rho_limit" in res:
        lines.append(f"rho_limit = {res['rho_limit']}" + _approx_suffix(res))
    if "rho" in res:
        lines.append(f"rho = {res['rho']}" + _approx_suffix(res))
    lines.append(f"solver: {report.solver_used}")
    return "\n".join(lines)


def _approx(value: Fraction) -> float | None:
    """The ``--approx`` value: None beyond float range, which JSON prints as
    ``null`` and the human report as ``(~ inf)``."""
    try:
        return float(value)
    except OverflowError:
        return None


def _approx_suffix(res: dict) -> str:
    if "approx" not in res:
        return ""
    approx = res["approx"]
    return " (~ inf)" if approx is None else f" (~ {approx:.6g})"


def render(report: Report, output: str) -> str:
    if output == "json":
        return render_json(report)
    if output == "csv":
        return render_csv(report)
    return render_human(report)


# ---------------------------------------------------------------------------
# argparse entry point


def _positive_int(text: str) -> int:
    digits = text.strip()
    try:
        value = int(digits) if _is_digits(digits) else 0
    except ValueError:
        value = 0  # past CPython's int-to-str digit limit: refused with the same message
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Each dest is a ``Query`` field;
    metavars keep the printed names."""
    parser = argparse.ArgumentParser(
        prog="affmon",
        description="Exact membership, factorization, and elasticity queries "
        "on affine submonoids of N0^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("monoid_text", metavar="monoid", help="generators, e.g. '0,1;1,2;3,5'")
        p.add_argument("vector_text", metavar="vector", help="target vector, e.g. '6,13'")
        p.add_argument(
            "--json", dest="output", action="store_const", const="json", help="emit a JSON report"
        )
        p.add_argument("--approx", action="store_true", help="include decimal approximations")
        p.add_argument(
            "--no-minimality-check",
            dest="check_minimality",
            action="store_false",
            help="skip validating that no generator is redundant",
        )
        p.set_defaults(output="human")

    common(sub.add_parser("check", help="decide membership"))
    fact = sub.add_parser("factorize", help="compute factorizations")
    common(fact)
    fact.set_defaults(mode="one")
    mode = fact.add_mutually_exclusive_group()
    flags = {"all": "list every factorization", "extremes": "only the shortest and longest"}
    for flag, text in flags.items():
        mode.add_argument(f"--{flag}", dest="mode", action="store_const", const=flag, help=text)
    common(sub.add_parser("elasticity", help="max length over min length"))
    common(sub.add_parser("limit", help="limit elasticity of multiples k*s"))
    scan = sub.add_parser("scan", help="tabulate elasticity of k*s vs the limit (CSV)")
    common(scan)
    scan.set_defaults(output="csv")
    scan.add_argument("--k-max", type=_positive_int, required=True, help="scan k=1..N")
    common(sub.add_parser("oracle", help="brute-force enumeration (any generator count)"))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    query = Query(**vars(_build_parser().parse_args(argv)))
    try:
        report = run(query)
    except AffmonError as exc:
        code = 1 if isinstance(exc, NotMemberError) else 2
        if query.output != "json":
            print(f"error[{exc.code}]: {exc}", file=sys.stderr)
            return code
        text = json.dumps({"error": {"code": exc.code, "message": str(exc)}})
    else:
        text, code = render(report, query.output), report.exit_code
    try:
        print(text)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
    except BrokenPipeError:
        # Point fd 1 at devnull so the interpreter's exit flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a writer stopped by it
    return code


if __name__ == "__main__":
    sys.exit(main())
