"""Tests for the command-line interface, from parsing to exit codes."""

import argparse
import ast
import copy
import importlib
import json
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import affmon
from affmon import cli, solve3
from affmon.cli import (
    SCAN_CSV_HEADER,
    SOLVER_DIM2,
    SOLVER_DIM3,
    SOLVER_DIM3_STAR,
    SOLVER_ORACLE,
    Query,
    Report,
    _approx,
    _fact_line,
    _json_text,
    _ratio_text,
    main,
    parse_monoid,
    parse_vector,
    render,
    render_csv,
    render_human,
    render_json,
    run,
)
from affmon.errors import (
    DuplicateGeneratorError,
    InputTooLargeError,
    MonoidParseError,
    NotMemberError,
    NotMinimallyGeneratedError,
    StarRequiredError,
    ZeroGeneratorError,
)
from affmon.asymptotics import rho_limit, scan_multiples
from affmon.intlin import IDENTITY
from affmon.monoids import CanonicalMonoid3, canonical_coords
from affmon.rationals import Vec2
from affmon.solve3 import elasticity3

from conftest import CORRUPTED_ENDS, members3, not_line, shifted, star_monoids

STAR_TEXT = "0,1;1,2;3,5"
WORKED_TEXT = "0,1;11,10;10,3"
DIM2_TEXT = "0,1;3,2"


class TestParsing:
    def test_monoid_round_trip(self):
        assert parse_monoid(STAR_TEXT) == (Vec2(0, 1), Vec2(1, 2), Vec2(3, 5))

    def test_whitespace_tolerated(self):
        assert parse_monoid(" 0 , 1 ; 1 , 2 ") == (Vec2(0, 1), Vec2(1, 2))
        assert parse_vector(" 6 , 13 ") == Vec2(6, 13)

    def test_zero_generator_rejected(self):
        with pytest.raises(ZeroGeneratorError):
            parse_monoid("0,0;1,2")

    def test_duplicate_generator_rejected(self):
        with pytest.raises(DuplicateGeneratorError):
            parse_monoid("1,2;1,2")

    def test_error_offsets_point_at_the_bad_character(self):
        with pytest.raises(MonoidParseError) as exc:
            parse_monoid("0,1;x,2")
        assert exc.value.offset == 4
        with pytest.raises(MonoidParseError) as exc:
            parse_monoid("0,1;-1,2")
        assert exc.value.offset == 4
        assert str(exc.value) == "coordinates must be nonnegative (offset 4)"
        with pytest.raises(MonoidParseError) as exc:
            parse_vector("6")
        assert exc.value.offset == 0
        with pytest.raises(MonoidParseError) as exc:
            parse_vector("6,")
        assert exc.value.offset == 2

    # int() alone reads each of these as a number: an underscore, a plus
    # sign, full-width "13" and Arabic-Indic "6".
    @pytest.mark.parametrize("bad", ["1_3", "+6", "\uff11\uff13", "\u0666"])
    @pytest.mark.parametrize(
        "parse, template, offset",
        [(parse_monoid, "0,1;2, {} ", 7), (parse_vector, " {} ,13", 1)],
        ids=["generator", "vector"],
    )
    def test_coordinates_are_ascii_digits(self, bad, parse, template, offset):
        with pytest.raises(MonoidParseError) as exc:
            parse(template.format(bad))
        assert exc.value.offset == offset
        assert str(exc.value) == f"{bad!r} is not an integer (offset {offset})"

    def test_non_digit_coordinate_exits_two(self, capsys):
        assert main(["check", STAR_TEXT, "6,1_3"]) == 2
        assert capsys.readouterr().err == "error[SyntaxError]: '1_3' is not an integer (offset 2)\n"


def q(command, monoid, vector, **kw):
    return Query(command=command, monoid_text=monoid, vector_text=vector, **kw)


# One row per route through ``run``: the query, then the (solver_used,
# exit_code) it reports or the error it raises.
ROUTES = [
    pytest.param("check", DIM2_TEXT, "6,5", {}, (SOLVER_DIM2, 0), id="check-dim2"),
    pytest.param("check", STAR_TEXT, "6,13", {}, (SOLVER_DIM3, 0), id="check-dim3"),
    pytest.param("factorize", DIM2_TEXT, "6,5", {}, (SOLVER_DIM2, 0), id="one-dim2"),
    pytest.param("factorize", STAR_TEXT, "6,13", {}, (SOLVER_DIM3, 0), id="one-dim3"),
    pytest.param("factorize", DIM2_TEXT, "6,5", {"mode": "all"}, (SOLVER_DIM2, 0), id="all-dim2"),
    pytest.param("factorize", STAR_TEXT, "6,13", {"mode": "all"}, (SOLVER_DIM3, 0), id="all-dim3"),
    pytest.param(
        "factorize", DIM2_TEXT, "6,5", {"mode": "extremes"}, (SOLVER_DIM2, 0), id="extremes-dim2"
    ),
    pytest.param(
        "factorize", STAR_TEXT, "6,13", {"mode": "extremes"}, (SOLVER_DIM3, 0), id="extremes-dim3"
    ),
    pytest.param("factorize", STAR_TEXT, "1,0", {}, (SOLVER_DIM3, 1), id="factorize-out-of-cone"),
    pytest.param("elasticity", DIM2_TEXT, "6,5", {}, (SOLVER_DIM2, 0), id="elasticity-dim2"),
    pytest.param("elasticity", STAR_TEXT, "6,13", {}, (SOLVER_DIM3, 0), id="elasticity-dim3"),
    pytest.param("limit", STAR_TEXT, "6,13", {}, (SOLVER_DIM3_STAR, 0), id="limit"),
    pytest.param("scan", STAR_TEXT, "6,13", {"k_max": 2}, (SOLVER_DIM3_STAR, 0), id="scan"),
    pytest.param("oracle", STAR_TEXT, "6,13", {}, (SOLVER_ORACLE, 0), id="oracle-member"),
    pytest.param("oracle", STAR_TEXT, "6,9", {}, (SOLVER_ORACLE, 1), id="oracle-non-member"),
    pytest.param("bogus", STAR_TEXT, "6,13", {}, ValueError, id="unknown-command"),
    pytest.param("factorize", STAR_TEXT, "6,13", {"mode": "bogus"}, ValueError, id="unknown-mode"),
]


@pytest.mark.parametrize("command, monoid, vector, fields, expected", ROUTES)
def test_run_derives_the_solver_and_exit_code(command, monoid, vector, fields, expected):
    if expected is ValueError:
        with pytest.raises(ValueError, match="unknown"):
            run(q(command, monoid, vector, **fields))
    else:
        report = run(q(command, monoid, vector, **fields))
        assert (report.solver_used, report.exit_code) == expected


@pytest.mark.parametrize("command", ["elasticity", "limit", "scan"])
def test_vector_outside_the_cone_is_not_a_member(command, capsys):
    # The sheared star monoid's transform sends (0, 1) outside N0^2.
    monoid, vector = "1,1;3,2;8,5", "0,1"
    with pytest.raises(NotMemberError, match="outside the monoid's cone"):
        run(q(command, monoid, vector, k_max=2))
    k_max = ["--k-max", "2"] if command == "scan" else []
    assert main([command, monoid, vector, *k_max]) == 1
    assert capsys.readouterr().err == "error[NotMember]: vector is outside the monoid's cone\n"


class TestRunCheck:
    def test_non_member_exits_one(self):
        report = run(q("check", WORKED_TEXT, "199,119"))
        assert report.exit_code == 1
        assert report.result["member"] is False
        assert report.result["reason"] is None
        assert report.solver_used == SOLVER_DIM3

    def test_member_exits_zero(self):
        report = run(q("check", WORKED_TEXT, "199,120"))
        assert report.exit_code == 0
        assert report.result["factorization"]["mults"] == [0, 9, 10]
        assert report.star is False

    def test_star_monoid_uses_the_closed_form(self):
        report = run(q("check", STAR_TEXT, "6,13"))
        assert report.solver_used == SOLVER_DIM3
        assert report.result["factorization"]["mults"] == [3, 0, 2]
        assert report.star is True

    def test_non_star_witness_is_the_canonical_factorization(self):
        # D = 5: (4,12) = (10,0,2) = (5,2,1) = (0,4,0); the witness is j = 0.
        report = run(q("check", "0,1;1,3;2,1", "4,12"))
        assert report.result["factorization"]["mults"] == [10, 0, 2]
        assert report.solver_used == SOLVER_DIM3

    def test_dim2_uses_the_divisibility_theorem(self):
        report = run(q("check", DIM2_TEXT, "6,5"))
        assert report.solver_used == SOLVER_DIM2
        assert report.result["factorization"]["mults"] == [1, 2]

    def test_vector_outside_the_cone_after_normalization(self):
        report = run(q("check", "2,1;3,1", "1,5"))
        assert report.exit_code == 1
        assert report.result["reason"] == "PhiOutOfRange"

    def test_normalized_coordinates_are_used(self):
        report = run(q("check", "2,1;3,1", "5,2"))
        assert report.exit_code == 0
        assert report.canonical.transform.as_rows() == ((1, -2), (0, 1))


class TestRunFactorize:
    def test_all_lists_every_factorization(self):
        report = run(q("factorize", STAR_TEXT, "6,13", mode="all"))
        assert report.result["count"] == 3
        assert report.result["lengths"] == [5, 6, 7]
        assert [f["mults"] for f in report.result["factorizations"]] == [
            [1, 6, 0],
            [2, 3, 1],
            [3, 0, 2],
        ]
        assert report.solver_used == SOLVER_DIM3

    def test_extremes_on_a_star_monoid(self):
        report = run(q("factorize", STAR_TEXT, "6,13", mode="extremes"))
        assert report.result["branch"] == "low-slope"
        assert report.result["t_max"] == 2
        assert report.result["shortest"]["mults"] == [3, 0, 2]
        assert report.result["longest"]["mults"] == [1, 6, 0]
        assert report.solver_used == SOLVER_DIM3

    def test_extremes_on_a_non_star_monoid(self):
        report = run(q("factorize", WORKED_TEXT, "199,120", mode="extremes"))
        assert report.result["branch"] == "high-slope"
        assert report.result["t_max"] == 0
        assert report.result["shortest"] == report.result["longest"]
        assert report.solver_used == SOLVER_DIM3

    def test_non_member_factorize_all(self):
        report = run(q("factorize", STAR_TEXT, "6,9", mode="all"))
        assert report.exit_code == 1
        assert report.result["member"] is False

    def test_non_member_extremes_carry_the_reason(self):
        report = run(q("factorize", WORKED_TEXT, "199,119", mode="extremes"))
        assert report.exit_code == 1
        assert report.result == {"member": False, "reason": None}
        report = run(q("factorize", DIM2_TEXT, "5,5", mode="extremes"))
        assert report.result == {"member": False, "reason": "DivisibilityFails"}

    @pytest.mark.parametrize("name", CORRUPTED_ENDS)
    @pytest.mark.parametrize(
        "command, mode", [("factorize", "all"), ("factorize", "extremes"), ("check", "one")],
        ids=["all", "extremes", "check"],
    )
    def test_rejects_a_corrupted_line(self, monkeypatch, name, command, mode):
        # Each reads a solve3.Line, checked when it is built.  --all lists the
        # line's points without Factorization objects, and the three ids
        # whose ends lie one step inward are factorizations, so only the
        # line check refuses them.
        s, shift, ends, _ = CORRUPTED_ENDS[name]
        line = solve3._line
        monkeypatch.setattr(solve3, "_line", lambda m, x, y: shifted(line(m, x, y), shift))
        for output in ("human", "json"):
            with pytest.raises(ValueError, match=not_line(ends, s.x, s.y)):
                run(q(command, STAR_TEXT, f"{s.x},{s.y}", mode=mode, output=output))

    def test_all_rejects_a_walk_that_is_not_whole_points(self, monkeypatch):
        # A flat list one int short of whole (u, v, w, n) points is refused
        # before any report is built.
        monkeypatch.setattr(cli, "_points", lambda ln: solve3._points(ln)[:-1])
        with pytest.raises(ValueError, match="11 ints are not whole elements of 3 multiplicities"):
            run(q("factorize", STAR_TEXT, "6,13", mode="all"))


class TestRunElasticity:
    def test_star_monoid(self):
        report = run(q("elasticity", STAR_TEXT, "6,13"))
        assert report.result["rho"] == "7/5"
        assert report.solver_used == SOLVER_DIM3

    def test_dim2_is_always_one(self):
        report = run(q("elasticity", DIM2_TEXT, "6,5"))
        assert report.result["rho"] == "1"
        assert report.solver_used == SOLVER_DIM2

    def test_non_star_monoid_uses_the_line(self):
        report = run(q("elasticity", WORKED_TEXT, "199,120"))
        assert report.result["rho"] == "1"
        assert report.solver_used == SOLVER_DIM3

    def test_approx_included_on_request(self):
        report = run(q("elasticity", STAR_TEXT, "6,13", approx=True))
        assert report.result["approx"] == pytest.approx(1.4)

    def test_non_member_raises(self):
        with pytest.raises(NotMemberError):
            run(q("elasticity", STAR_TEXT, "6,9"))


class TestRunLimit:
    def test_limit_report(self):
        report = run(q("limit", STAR_TEXT, "6,13"))
        assert report.result["rho_limit"] == "7/5"
        assert report.result["tau"] == 1
        assert report.result["lft"] == {"p": -3, "q": 3, "r": -4, "t": 3}

    def test_slope_boundary_prints_the_low_slope_lft(self, capsys):
        # (2, 4) lies on slope a/b = 1/2, where both forms give 3/2; the
        # low-slope one is reported (the high-slope one is (-9x+6y) / (-4x+3y)).
        assert main(["limit", STAR_TEXT, "2,4"]) == 0
        out = capsys.readouterr().out
        assert "lft: (-3x+3y) / (-4x+3y)\n" in out
        assert "rho_limit = 3/2\n" in out

    def test_requires_a_star_monoid(self):
        with pytest.raises(StarRequiredError):
            run(q("limit", DIM2_TEXT, "6,5"))
        with pytest.raises(StarRequiredError):
            run(q("limit", WORKED_TEXT, "199,120"))


class TestRunScan:
    def test_rows_and_gaps(self):
        report = run(q("scan", STAR_TEXT, "6,13", k_max=5))
        rows = report.result["rows"]
        assert [r["k"] for r in rows] == [1, 2, 3, 4, 5]
        assert all(r["rho_exact"] == "7/5" for r in rows)
        assert all(r["gap"] == "0" for r in rows)

    def test_csv_rendering(self):
        report = run(q("scan", STAR_TEXT, "7,13", k_max=3))
        text = render_csv(report)
        lines = text.splitlines()
        assert lines[0] == "k,rho_exact,rho_limit,gap"
        assert lines[1] == "1,5/4,15/11,5/44"
        assert lines[3] == "3,15/11,15/11,0"

    def test_csv_header(self):
        assert SCAN_CSV_HEADER == "k,rho_exact,rho_limit,gap"

    def test_csv_of_constant_and_stepped_classes_is_each_rows_elasticity(self):
        # <(0,1),(3,2),(2,1)> at s = (27, 18) has P = 6: the even classes have
        # gap 0 and are filled from their first row, the odd ones step.  The
        # expected text is written from elasticity3 with str(Fraction), not by
        # _scan_block, for k_max = 3P + 1.
        report = run(q("scan", "0,1;3,2;2,1", "27,18", k_max=19, output="csv"))
        m, s = report.canonical, report.input
        assert (m.a, m.b, m.c, m.d, m.transform) == (3, 2, 2, 1, IDENTITY)
        limit = rho_limit(m, s)[1]
        rhos = [elasticity3(m, k * s) for k in range(1, 20)]
        assert [rho == limit for rho in rhos[:6]] == [False, True] * 3
        lines = [f"{k},{rho},{limit},{abs(limit - rho)}" for k, rho in enumerate(rhos, 1)]
        assert render(report, "csv") == "\n".join([SCAN_CSV_HEADER, *lines])

    @given(data=st.data())
    def test_rows_are_scan_multiples_through_a_transform(self, data):
        # The star monoid is presented sheared, (x, y) -> (x + t*y, y), so
        # canonicalize has to undo a non-identity transform.
        m0 = data.draw(star_monoids(max_a=5, max_b=5, max_extra=2))
        s0 = data.draw(members3(m0, max_mult=4))
        t = data.draw(st.integers(1, 3))
        k_max = data.draw(st.integers(1, 40))
        monoid_text = ";".join(f"{g.x + t * g.y},{g.y}" for g in m0.gens)
        report = run(q("scan", monoid_text, f"{s0.x + t * s0.y},{s0.y}", k_max=k_max))
        m = report.canonical
        assert m.transform != IDENTITY
        limit, rows = scan_multiples(m, canonical_coords(m, report.input), k_max)
        expected = [
            {"k": k, "rho_exact": str(Fraction(p, q)), "rho_limit": str(limit),
             "gap": str(Fraction(n, d))}
            for k, p, q, n, d in rows
        ]
        assert report.result["rows"] == expected
        csv = [SCAN_CSV_HEADER] + [",".join(str(v) for v in r.values()) for r in expected]
        assert render_csv(report) == "\n".join(csv)
        assert json.loads(render_json(report))["result"]["rows"] == expected

    def test_ratio_text_is_the_fraction_str(self):
        big_p, big_q = 10**1999 + 1, 10**2000 - 3  # coprime, about 2,000 digits each
        assert math.gcd(big_p, big_q) == 1
        pairs = [(0, 1), (1, 1), (7, 5), (5, 1), (big_p, 1), (big_p, big_q), (big_q, big_p)]
        for num, den in pairs:
            assert _ratio_text(num, den) == str(Fraction(num, den))

    @pytest.mark.parametrize("k_max", [None, 0])
    def test_in_process_scan_needs_a_positive_k_max(self, k_max):
        # argparse refuses both; run checks a Query built in-process itself.
        with pytest.raises(ValueError, match="scan needs --k-max >= 1"):
            run(q("scan", STAR_TEXT, "7,13", k_max=k_max))

    def test_human_output_is_the_csv(self):
        report = run(q("scan", STAR_TEXT, "7,13", k_max=3))
        assert render(report, "human") == render_csv(report)

    def test_csv_refused_for_other_commands(self):
        report = run(q("check", STAR_TEXT, "6,13"))
        with pytest.raises(ValueError):
            render_csv(report)


class TestRunOracle:
    def test_oracle_member(self):
        report = run(q("oracle", STAR_TEXT, "6,13"))
        assert report.exit_code == 0
        assert report.result["count"] == 3
        assert report.result["rho"] == "7/5"
        assert report.solver_used == SOLVER_ORACLE
        assert report.canonical is None

    def test_oracle_non_member(self):
        report = run(q("oracle", STAR_TEXT, "6,9"))
        assert report.exit_code == 1
        assert report.result["count"] == 0

    def test_oracle_accepts_any_generator_count(self):
        report = run(q("oracle", "0,1;1,2;3,5;2,3", "2,3"))
        assert report.exit_code == 0


class TestMinimality:
    def test_redundant_generator_is_rejected_by_default(self):
        with pytest.raises(NotMinimallyGeneratedError):
            run(q("check", "0,1;1,2;1,1", "2,3"))

    def test_opt_out_still_answers_correctly(self):
        report = run(
            q("check", "0,1;1,2;1,1", "2,3", check_minimality=False)
        )
        assert report.exit_code == 0
        assert report.result["factorization"]["mults"] == [1, 0, 2]

    def test_generator_count_is_validated(self):
        with pytest.raises(MonoidParseError):
            run(q("check", "0,1", "1,1"))


class TestRendering:
    def test_json_round_trip(self):
        report = run(q("elasticity", STAR_TEXT, "6,13"))
        payload = json.loads(render_json(report))
        assert payload["command"] == "elasticity"
        assert payload["monoid"]["generators"] == [[0, 1], [1, 2], [3, 5]]
        assert payload["monoid"]["canonical"] == [[0, 1], [1, 2], [3, 5]]
        assert payload["monoid"]["star"] is True
        assert payload["monoid"]["transform"] == [[1, 0], [0, 1]]
        assert payload["input"] == [6, 13]
        assert payload["result"]["rho"] == "7/5"
        assert payload["solver_used"] == "dim3-line"

    def test_human_check_output(self):
        report = run(q("check", STAR_TEXT, "6,13"))
        text = render_human(report)
        assert "member: yes" in text
        assert "(3, 0, 2)  length=5" in text
        assert "solver: dim3-line" in text

    def test_human_non_member_output(self):
        report = run(q("check", STAR_TEXT, "6,9"))
        text = render_human(report)
        assert "member: no" in text
        assert "reason: PhiOutOfRange" in text

    def test_human_limit_output(self):
        report = run(q("limit", STAR_TEXT, "6,13"))
        text = render_human(report)
        assert "tau: 1" in text
        assert "rho_limit = 7/5" in text


class TestMain:
    def test_member_exit_zero(self, capsys):
        assert main(["check", STAR_TEXT, "6,13"]) == 0
        assert "member: yes" in capsys.readouterr().out

    def test_non_member_exit_one(self, capsys):
        assert main(["check", WORKED_TEXT, "199,119"]) == 1
        assert "member: no" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert main(["elasticity", STAR_TEXT, "6,13", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["rho"] == "7/5"

    def test_approx_flag(self, capsys):
        assert main(["elasticity", STAR_TEXT, "6,13", "--approx"]) == 0
        assert "rho = 7/5 (~ 1.4)" in capsys.readouterr().out

    def test_scan_defaults_to_csv(self, capsys):
        assert main(["scan", STAR_TEXT, "6,13", "--k-max", "100"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,rho_exact,rho_limit,gap"
        assert len(lines) == 101
        # This member's elasticity is already at its limit for every k, so
        # every gap in the scan is exactly zero.
        assert all(line.endswith(",0") for line in lines[1:])
        assert lines[100] == "100,7/5,7/5,0"

    def test_scan_json(self, capsys):
        assert main(["scan", STAR_TEXT, "7,13", "--k-max", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["result"]["rows"]) == 3

    def test_k_max_that_is_not_an_integer_is_refused(self, capsys):
        # The coordinate rule: int() alone would take all but "abc".
        for k_max in ("abc", "1_0", "+5", "\uff11\uff10", "\u0662"):
            with pytest.raises(SystemExit) as exc:
                main(["scan", STAR_TEXT, "7,13", "--k-max", k_max])
            assert exc.value.code == 2
            assert "argument --k-max: must be a positive integer" in capsys.readouterr().err

    def test_k_max_below_one_is_refused(self, capsys):
        for k_max in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main(["scan", STAR_TEXT, "7,13", "--k-max", k_max])
            assert exc.value.code == 2
            assert "argument --k-max: must be a positive integer" in capsys.readouterr().err

    # At sys.maxsize // 10 the list of five ints a row has an index-sized
    # length, so it fails by MemoryError, not OverflowError.
    @pytest.mark.parametrize("k_max", [2**63, 10**20, sys.maxsize // 4, sys.maxsize // 10])
    def test_k_max_no_row_list_can_hold_is_too_large(self, capsys, k_max):
        argv = ["scan", STAR_TEXT, "6,13", "--k-max", str(k_max)]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error[InputTooLarge]: ")
        assert str(k_max) not in out.err
        assert main([*argv, "--json"]) == 2
        out = capsys.readouterr()
        assert json.loads(out.out)["error"]["code"] == "InputTooLarge"
        assert str(k_max) not in out.out and out.err == ""

    def test_parse_error_exit_two(self, capsys):
        assert main(["check", STAR_TEXT, "x,2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[SyntaxError]:")

    def test_parse_error_json(self, capsys):
        assert main(["check", STAR_TEXT, "x,2", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["code"] == "SyntaxError"

    def test_not_member_error_exit_one(self, capsys):
        assert main(["elasticity", STAR_TEXT, "6,9"]) == 1
        assert "error[NotMember]" in capsys.readouterr().err

    def test_star_required_exit_two(self, capsys):
        assert main(["limit", DIM2_TEXT, "6,5"]) == 2
        assert "error[StarRequired]" in capsys.readouterr().err

    def test_minimality_opt_out_flag(self, capsys):
        assert main(["check", "0,1;1,2;1,1", "2,3"]) == 2
        capsys.readouterr()
        assert main(["check", "0,1;1,2;1,1", "2,3", "--no-minimality-check"]) == 0

    def test_factorize_flag_plumbing(self, capsys):
        assert main(["factorize", STAR_TEXT, "6,13", "--all"]) == 0
        out = capsys.readouterr().out
        assert "factorizations (3):" in out
        assert main(["factorize", STAR_TEXT, "6,13", "--extremes"]) == 0
        out = capsys.readouterr().out
        assert "branch: low-slope" in out
        assert "shortest: (3, 0, 2)  length=5" in out

    def test_calls_share_one_parser(self, capsys, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def recording(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        assert main(["check", STAR_TEXT, "6,13"]) == 0
        assert main(["elasticity", STAR_TEXT, "6,13", "--json"]) == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    def test_oracle_subcommand(self, capsys):
        assert main(["oracle", "0,1;11,10;10,3", "199,119"]) == 1
        out = capsys.readouterr().out
        assert "member: no" in out


@pytest.mark.parametrize(
    "monoid, vector, code, status",
    [
        pytest.param("0,1;1,3;2,1", "2,1", "StarRequired", 2, id="not-star"),
        pytest.param("0,1;1,2", "1,2", "StarRequired", 2, id="two-generators"),
        pytest.param(STAR_TEXT, "1,0", "NotMember", 1, id="outside-the-cone"),
        pytest.param("0,1;1,2;3,5;1,1", "7,13", "SyntaxError", 2, id="four-generators"),
        # c | a: (2,3) = 2*(1,1) + (0,1) is redundant.
        pytest.param("0,1;2,3;1,1", "7,13", "NotMinimallyGenerated", 2, id="c-divides-a"),
    ],
)
def test_scan_errors_go_to_stderr_only(capsys, monoid, vector, code, status):
    assert main(["scan", monoid, vector, "--k-max", "3"]) == status
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error[{code}]: ")


# A star monoid whose element (X, X) has rho = X/2, beyond float range.
HUGE = 10**309
HUGE_ARGS = [f"0,1;1,1;{HUGE},{HUGE - 1}", f"{HUGE},{HUGE}", "--approx"]


class TestApproxBeyondFloatRange:
    def test_approx(self):
        assert _approx(Fraction(7, 5)) == pytest.approx(1.4)
        assert _approx(Fraction(10**400, 3)) is None  # beyond float range: JSON's null
        assert _approx(Fraction(10**400, 10**399)) == pytest.approx(10.0)

    def test_human_output_reads_inf(self, capsys):
        assert main(["elasticity", *HUGE_ARGS]) == 0
        out = capsys.readouterr().out
        assert f"rho = {HUGE // 2} (~ inf)" in out

    def test_json_stays_strict(self, capsys):
        assert main(["elasticity", *HUGE_ARGS, "--json"]) == 0
        out = capsys.readouterr().out
        assert "Infinity" not in out
        result = json.loads(out)["result"]
        assert result == {"rho": str(HUGE // 2), "approx": None}

    def test_limit(self, capsys):
        assert main(["limit", *HUGE_ARGS]) == 0
        assert f"rho_limit = {HUGE // 2} (~ inf)" in capsys.readouterr().out
        assert main(["limit", *HUGE_ARGS, "--json"]) == 0
        out = capsys.readouterr().out
        assert "Infinity" not in out
        result = json.loads(out)["result"]
        assert (result["rho_limit"], result["approx"]) == (str(HUGE // 2), None)


# Nested JSON values with ints past 64 bits, finite floats, and text with
# quotes, backslashes, control and non-ASCII characters.
JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u2028\xe9\U0001f600'))
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**300), 10**300)
    | st.floats(allow_nan=False, allow_infinity=False)
    | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)

# One query per report shape: every subcommand, members and non-members,
# and --approx at and beyond float range.
JSON_QUERIES = [
    pytest.param("check", STAR_TEXT, "6,13", {}, id="check-member"),
    pytest.param("check", WORKED_TEXT, "199,119", {}, id="check-non-member"),
    pytest.param("check", STAR_TEXT, "1,0", {}, id="check-out-of-cone"),
    pytest.param("check", DIM2_TEXT, "6,5", {}, id="check-dim2"),
    pytest.param("factorize", STAR_TEXT, "6,13", {}, id="factorize-one"),
    pytest.param("factorize", STAR_TEXT, "6,13", {"mode": "all"}, id="factorize-all"),
    pytest.param("factorize", STAR_TEXT, "6,9", {"mode": "all"}, id="factorize-all-non-member"),
    pytest.param("factorize", STAR_TEXT, "6,13", {"mode": "extremes"}, id="extremes-dim3"),
    pytest.param("factorize", DIM2_TEXT, "6,5", {"mode": "extremes"}, id="extremes-dim2"),
    pytest.param("elasticity", STAR_TEXT, "6,13", {"approx": True}, id="elasticity"),
    pytest.param("elasticity", DIM2_TEXT, "6,5", {}, id="elasticity-dim2"),
    pytest.param("elasticity", *HUGE_ARGS[:2], {"approx": True}, id="elasticity-approx-overflow"),
    pytest.param("limit", STAR_TEXT, "7,13", {"approx": True}, id="limit"),
    pytest.param("limit", *HUGE_ARGS[:2], {"approx": True}, id="limit-approx-overflow"),
    pytest.param("scan", STAR_TEXT, "7,13", {"k_max": 6, "approx": True}, id="scan"),
    pytest.param("oracle", STAR_TEXT, "6,13", {"approx": True}, id="oracle-member"),
    pytest.param("oracle", STAR_TEXT, "6,9", {}, id="oracle-non-member"),
    pytest.param("oracle", STAR_TEXT, "0,0", {}, id="oracle-zero"),
]


def _scan_payload(report):
    """The JSON payload of a scan report, built here from its fields."""
    m = report.canonical
    return {
        "command": "scan",
        "monoid": {
            "generators": [[g.x, g.y] for g in report.generators],
            "canonical": [[g.x, g.y] for g in m.gens],
            "star": True,
            "transform": [list(r) for r in m.transform.as_rows()],
        },
        "input": [report.input.x, report.input.y],
        "result": report.result,
        "solver_used": SOLVER_DIM3_STAR,
    }


def _report_payload(report):
    """The JSON payload of any report, built here from its fields."""
    m = report.canonical
    return {
        "command": report.command,
        "monoid": {
            "generators": [[g.x, g.y] for g in report.generators],
            "canonical": None if m is None else [[g.x, g.y] for g in m.gens],
            "star": m.star if isinstance(m, CanonicalMonoid3) else None,
            "transform": None if m is None else [list(r) for r in m.transform.as_rows()],
        },
        "input": [report.input.x, report.input.y],
        "result": report.result,
        "solver_used": report.solver_used,
    }


# Factorization lists of every size the JSON writer sees, with their counts:
# (3N, 6N) has N + 1 factorizations in STAR_TEXT, and (4000, 8000) has 2,001
# in the non-star <(0,1), (1,2), (2,1)>.
FACT_LIST_QUERIES = [
    pytest.param("factorize", WORKED_TEXT, "199,119", 0, id="all-non-member"),
    pytest.param("factorize", STAR_TEXT, "0,1", 1, id="all-one"),
    pytest.param("factorize", STAR_TEXT, "6,13", 3, id="all-readme"),
    pytest.param("factorize", STAR_TEXT, f"{3 * 2047},{6 * 2047}", 2048, id="all-star-2048"),
    pytest.param("factorize", "0,1;1,2;2,1", "4000,8000", 2001, id="all-non-star-2001"),
    pytest.param("factorize", DIM2_TEXT, "6,5", 1, id="all-dim2"),
    pytest.param("factorize", STAR_TEXT, "0,0", 1, id="all-zero"),
    pytest.param("oracle", STAR_TEXT, "6,13", 3, id="oracle-3-gens"),
    pytest.param("oracle", "0,1;1,2;3,5;2,1", "6,13", 7, id="oracle-4-gens"),
    pytest.param("oracle", "1,2;2,1;1,1;1,3;3,1", "20,20", 78, id="oracle-5-gens"),
    pytest.param("oracle", STAR_TEXT, "6,9", 0, id="oracle-non-member"),
    pytest.param("oracle", STAR_TEXT, "0,0", 1, id="oracle-zero"),
]


class TestJsonText:
    """``render_json`` prints exactly what ``json.dumps(payload, indent=2)`` does."""

    @given(JSON_VALUES)
    def test_equals_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("command, monoid, vector, fields", JSON_QUERIES)
    def test_every_report_equals_json_dumps(self, command, monoid, vector, fields):
        report = run(q(command, monoid, vector, output="json", **fields))
        text = render_json(report)
        assert text == json.dumps(_report_payload(report), indent=2)
        # The result is the printed one, approx beyond float range included.
        assert report.result == json.loads(text)["result"]

    @pytest.mark.parametrize("k_max", [1, 2, 5, 2000])
    @pytest.mark.parametrize(
        "monoid, vector", [(STAR_TEXT, "7,13"), ("1,1;3,2;8,5", "12,8")], ids=["identity", "sheared"]
    )
    def test_scan_reports_equal_json_dumps(self, monoid, vector, k_max):
        # The rows are written with one %-template, the rest value by value.
        report = run(q("scan", monoid, vector, k_max=k_max, output="json"))
        assert (report.canonical.transform == IDENTITY) == (monoid == STAR_TEXT)
        assert len(report.result["rows"]) == k_max
        assert render_json(report) == json.dumps(_scan_payload(report), indent=2)

    def test_scan_row_strings_are_escaped(self):
        # The limit's text is the one string a row's template takes whole; it
        # is escaped as json.dumps escapes it, whatever it holds.
        text = '"\\/\x00\n\xe9 \U0001f600'
        ran = run(q("scan", STAR_TEXT, "7,13", k_max=2))
        report = Report(
            command=ran.command,
            generators=ran.generators,
            canonical=ran.canonical,
            input=ran.input,
            result={"rows": cli._Rows(text, ran._answer["rows"].ints)},
            solver_used=ran.solver_used,
            exit_code=ran.exit_code,
        )
        assert [row["rho_limit"] for row in report.result["rows"]] == [text, text]
        assert render_json(report) == json.dumps(_scan_payload(report), indent=2)

    @pytest.mark.parametrize("approx", [False, True], ids=["exact", "approx"])
    @pytest.mark.parametrize("command, monoid, vector, count", FACT_LIST_QUERIES)
    def test_factorization_lists_equal_json_dumps(self, command, monoid, vector, count, approx):
        # The whole list is one _fact_block %-format and the lengths one join.
        report = run(q(command, monoid, vector, mode="all", output="json", approx=approx))
        assert report.result.get("count", 0) == count
        assert len(report.result.get("factorizations", ())) == count
        assert render_json(report) == json.dumps(_report_payload(report), indent=2)

    @pytest.mark.parametrize(
        "command, vector, order",
        [
            ("factorize", "6,13", ["lengths", "count", "factorizations", "member"]),
            ("oracle", "6,13", ["approx", "rho", "lengths", "factorizations", "count", "member"]),
            ("scan", "7,13", ["before", "rows", "after"]),
        ],
        ids=["factorize-all", "oracle", "scan"],
    )
    def test_list_keys_in_any_order_equal_json_dumps(self, command, vector, order):
        # Pre-written lists are placed wherever the stored answer holds them.
        ran = run(q(command, STAR_TEXT, vector, mode="all", k_max=3, approx=True))
        answer, extra = ran._answer, {"before": [], "after": {"k": [1, 2]}}
        report = Report(
            command=ran.command,
            generators=ran.generators,
            canonical=ran.canonical,
            input=ran.input,
            result={key: answer[key] if key in answer else extra[key] for key in order},
            solver_used=ran.solver_used,
            exit_code=ran.exit_code,
        )
        text = render_json(report)
        assert list(json.loads(text)["result"]) == order
        assert text == json.dumps(_report_payload(report), indent=2)

    @pytest.mark.parametrize("command, vector, fields", [
        ("factorize", "6,13", {"mode": "all"}),
        ("oracle", "6,9", {}),
    ], ids=["all", "oracle-non-member"])
    def test_forms_at_any_depth_equal_json_dumps(self, command, vector, fields):
        # Each form is indented from where the writer meets it, not from where
        # a report holds it; an empty form is an empty list.
        answer = run(q(command, STAR_TEXT, vector, **fields))._answer
        rows = run(q("scan", STAR_TEXT, "7,13", k_max=3))._answer["rows"]
        forms = {"b": answer["factorizations"], "c": answer["lengths"], "d": rows}
        plain = {key: form.plain() for key, form in forms.items()}
        for key in forms:
            assert _json_text(forms[key]) == json.dumps(plain[key], indent=2)
        assert _json_text({"a": [forms]}) == json.dumps({"a": [plain]}, indent=2)
        assert _json_text([[forms, 1], forms]) == json.dumps([[plain, 1], plain], indent=2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, [{"a": math.inf}]])
    def test_non_finite_float_raises(self, value):
        with pytest.raises(ValueError, match="no strict JSON form"):
            _json_text(value)

    @pytest.mark.parametrize("value", [{1: 2}, {None: 1}, [{"a": {(1, 2): 3}}]])
    def test_non_str_key_raises(self, value):
        with pytest.raises(TypeError, match="keys must be str"):
            _json_text(value)

    @pytest.mark.parametrize(
        "value", [(1, 2), {1, 2}, Fraction(7, 5), Vec2(1, 2), b"x", ["ok", (1,)]]
    )
    def test_unsupported_type_raises(self, value):
        with pytest.raises(TypeError, match="is not a JSON type"):
            _json_text(value)


class TestFactBlock:
    """``_fact_block`` writes a whole factorization list with one ``%``."""

    @pytest.mark.parametrize("command, monoid, vector, count", FACT_LIST_QUERIES)
    def test_human_listing_is_each_fact_line_indented(self, command, monoid, vector, count):
        report = run(q(command, monoid, vector, mode="all"))
        lines = render_human(report).splitlines()
        if "factorizations" not in report.result:  # a non-member of --all
            assert count == 0 and not any(line.startswith("factorizations") for line in lines)
            return
        at = lines.index(f"factorizations ({count}):") + 1
        expected = ["  " + _fact_line(p) for p in report.result["factorizations"]]
        assert lines[at : at + count] == expected
        assert lines[at + count].startswith("lengths:")

    @pytest.mark.parametrize("key, form, command, fields", [
        ("factorizations", "_Flat", "oracle", {}),
        ("lengths", "_Ints", "oracle", {}),
        ("rows", "_Rows", "scan", {"k_max": 3}),
    ])
    def test_a_plain_list_is_refused_even_empty(self, key, form, command, fields):
        # The refusal goes by the type of the stored answer, not by its
        # contents: an empty list, which holds nothing to misprint, is refused.
        ran = run(q(command, STAR_TEXT, "6,13", **fields))
        public = {name: getattr(ran, name) for name in Report._fields}
        with pytest.raises(TypeError, match=rf"result\['{key}'\] must be a {form}, .* not a list$"):
            Report(**{**public, "result": {**ran._answer, key: []}})


# Every listing and scan shape: --all on two and three generators (star and
# not), oracle on one to five generators, non-members, the zero vector, and
# scans through an identity and a non-identity transform.
LISTED_QUERIES = [
    pytest.param("factorize", STAR_TEXT, "6,13", {"mode": "all"}, id="all-star"),
    pytest.param("factorize", "0,1;1,2;2,1", "40,80", {"mode": "all"}, id="all-non-star"),
    pytest.param("factorize", DIM2_TEXT, "6,5", {"mode": "all"}, id="all-dim2"),
    pytest.param("factorize", WORKED_TEXT, "199,119", {"mode": "all"}, id="all-non-member"),
    pytest.param("factorize", STAR_TEXT, "0,0", {"mode": "all"}, id="all-zero"),
    pytest.param("oracle", "1,2", "3,6", {}, id="oracle-1-gen"),
    pytest.param("oracle", DIM2_TEXT, "6,5", {}, id="oracle-2-gens"),
    pytest.param("oracle", STAR_TEXT, "6,13", {"approx": True}, id="oracle-3-gens"),
    pytest.param("oracle", "0,1;1,2;3,5;2,1", "6,13", {}, id="oracle-4-gens"),
    pytest.param("oracle", "1,2;2,1;1,1;1,3;3,1", "8,8", {}, id="oracle-5-gens"),
    pytest.param("oracle", STAR_TEXT, "6,9", {}, id="oracle-non-member"),
    pytest.param("oracle", STAR_TEXT, "0,0", {}, id="oracle-zero"),
    pytest.param("scan", STAR_TEXT, "7,13", {"k_max": 6}, id="scan"),
    pytest.param("scan", "1,1;3,2;8,5", "12,8", {"k_max": 5}, id="scan-sheared"),
]


def _renders(report):
    """Every text the report renders to: CSV for a scan, human and JSON for all."""
    texts = [render_human(report), render_json(report)]
    if report.command == "scan":
        texts.append(render_csv(report))
    return texts


class TestResultBuiltOnRead:
    """``Report.result`` of a listing or scan is built from its ints on the
    first read and kept; rendering never builds it."""

    @pytest.mark.parametrize("command, monoid, vector, fields", LISTED_QUERIES)
    def test_result_is_the_json_result_read_before_or_after_rendering(
        self, command, monoid, vector, fields
    ):
        query = q(command, monoid, vector, **fields)
        before = run(query)
        result = before.result
        texts = _renders(before)
        assert result == json.loads(texts[1])["result"]
        after = run(query)
        assert _renders(after) == texts
        assert after.result == json.loads(render_json(after))["result"] == result
        assert _renders(after) == texts

    @pytest.mark.parametrize("command, monoid, vector, fields", LISTED_QUERIES)
    def test_two_reads_return_the_same_object(self, command, monoid, vector, fields):
        report = run(q(command, monoid, vector, **fields))
        assert report.result is report.result

    @pytest.mark.parametrize("command, monoid, vector, fields", LISTED_QUERIES)
    def test_rendering_builds_no_result(self, monkeypatch, command, monoid, vector, fields):
        report = run(q(command, monoid, vector, **fields))

        def refuse(self):
            raise AssertionError("plain lists built while rendering")

        monkeypatch.setattr(cli._Flat, "plain", refuse)
        monkeypatch.setattr(cli._Ints, "plain", refuse)
        monkeypatch.setattr(cli._Rows, "plain", refuse)
        _renders(report)
        assert "result" not in vars(report)
        monkeypatch.undo()
        assert report.result == json.loads(render_json(report))["result"]

    @pytest.mark.parametrize("command, monoid, vector, fields", LISTED_QUERIES)
    def test_built_and_unbuilt_reports_behave_alike(self, command, monoid, vector, fields):
        query = q(command, monoid, vector, **fields)
        read = run(query)
        read.result
        assert run(query) == read and read == run(query) and not run(query) != read
        assert repr(run(query)) == repr(read)
        for report in (run(query), read):
            with pytest.raises(TypeError):  # a result is a dict
                hash(report)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(run(query), protocol))
            assert "result" not in vars(back)
            assert _renders(back) == _renders(read)
            assert back == read and pickle.loads(pickle.dumps(read, protocol)) == back
        for how in (copy.copy, copy.deepcopy):
            assert how(run(query)) == read

    @pytest.mark.parametrize("command, monoid, vector, fields", LISTED_QUERIES)
    def test_a_report_built_from_its_result_is_refused(self, command, monoid, vector, fields):
        # A Report takes a listing or a scan only as run builds it: given the
        # built dicts it raises, naming the key.  An answer with neither key
        # (the --all non-member) is taken and renders alike.
        ran = run(q(command, monoid, vector, **fields))
        public = {name: getattr(ran, name) for name in Report._fields}
        forms = {"factorizations": "_Flat", "rows": "_Rows"}
        listed = [key for key in forms if key in ran.result]
        if not listed:
            copied = Report(**public)
            assert copied == ran
            assert _renders(copied) == _renders(ran)
            return
        (key,) = listed
        with pytest.raises(TypeError, match=rf"result\['{key}'\] must be a {forms[key]}, "):
            Report(**public)


# The largest X with every coordinate of <(0,1), (1,2), (X, 2X-1)> and of
# s = (X, 2X-1) within the 1,000-digit bound: 2X - 1 = 10**1000 - 3.  Its LFT
# coefficients have about 2,000 digits, and rho(s) = rho_limit = 1.
BIG_X = 5 * 10**999 - 1
BIG_ARGS = [f"0,1;1,2;{BIG_X},{2 * BIG_X - 1}", f"{BIG_X},{2 * BIG_X - 1}"]


class TestInputSize:
    @pytest.mark.parametrize(
        "command, line",
        [
            (["limit"], "rho_limit = 1"),
            (["scan", "--k-max", "2"], "2,1,1,0"),
            (["elasticity", "--approx"], "rho = 1 (~ 1)"),
            (["factorize", "--extremes"], "longest: (0, 0, 1)  length=1"),
        ],
    )
    def test_largest_accepted_input_prints(self, capsys, command, line):
        assert main([command[0], *BIG_ARGS, *command[1:]]) == 0
        out = capsys.readouterr()
        assert line in out.out.splitlines()
        assert out.err == ""
        assert main([command[0], *BIG_ARGS, *command[1:], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["input"] == [BIG_X, 2 * BIG_X - 1]

    def test_limit_coefficients_are_exact(self, capsys):
        assert main(["limit", *BIG_ARGS, "--json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        x = BIG_X
        lft = {"p": -x * (2 * x - 3), "q": x * (x - 1), "r": -(2 * x - 2), "t": x}
        assert result == {"tau": 1, "lft": lft, "rho_limit": "1"}

    @pytest.mark.parametrize(
        "monoid, vector",
        [
            # X = 10**1000 - 1 puts 2X - 1 at 1,001 digits.
            (f"0,1;1,2;{10**1000 - 1},{2 * 10**1000 - 3}", "1,2"),
            ("0,1;1,2;3,5", f"{10**1000},1"),
            ("0,1;1,2;3,5", "6," + "0" * 1001),
            ("0,1;1,2;3,5", "6," + "x" * 1001),
        ],
        ids=["generator", "vector-x", "leading-zeros", "not-digits"],
    )
    def test_more_than_a_thousand_digits_is_refused(self, capsys, monoid, vector):
        assert main(["limit", monoid, vector]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error[InputTooLarge]: ")
        assert len(out.err) < 200
        assert main(["check", monoid, vector, "--json"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "InputTooLarge"
        assert len(error["message"]) < 200

    def test_boundary(self):
        assert parse_vector(f"{10**1000 - 1},1") == Vec2(10**1000 - 1, 1)
        with pytest.raises(InputTooLargeError):
            parse_vector(f"{10**1000},1")


def _child_env() -> dict:
    # The child imports the same affmon as this process, however that was found.
    src = str(Path(affmon.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "affmon", "check", STAR_TEXT, "6,13"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "member: yes" in proc.stdout


def test_reader_closing_the_pipe_exits_141_without_traceback():
    # About 550 KB of CSV, far more than a pipe holds, so the child is still
    # writing when the reader closes its end after one line (`| head -1`).
    proc = subprocess.Popen(
        [sys.executable, "-m", "affmon", "scan", STAR_TEXT, "7,13", "--k-max", "20000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    assert proc.stdout.readline() == b"k,rho_exact,rho_limit,gap\n"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait() == 141


def test_no_assert_statements_in_the_package():
    # python -O strips assert; invariants must be explicit checks.
    sources = sorted(Path(affmon.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = [
        f"{src.name}:{node.lineno}"
        for src in sources
        for node in ast.walk(ast.parse(src.read_text(), filename=str(src)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_exports_each_module_all_once():
    # The package re-exports every module's __all__ and declares no name itself.
    modules = [
        importlib.import_module(f"affmon.{src.stem}")
        for src in sorted(Path(affmon.__file__).parent.glob("*.py"))
        if not src.stem.startswith("__")
    ]
    joined = [name for module in modules for name in module.__all__]
    assert len(set(affmon.__all__)) == len(affmon.__all__)
    assert sorted(affmon.__all__) == sorted(joined)
    for module in modules:
        for name in module.__all__:
            assert getattr(affmon, name) is getattr(module, name), name
    from affmon import D2_INCONCLUSIVE, D2_NOT_MEMBER

    assert (D2_NOT_MEMBER, D2_INCONCLUSIVE) == ("not_member", "inconclusive")


def test_public_surface_and_error_codes_are_pinned():
    # Removing or renaming a public name or an error code is an interface
    # change; it must show up as an edit of these literals.
    assert sorted(affmon.__all__) == [
        "AffmonError", "BothZeroError", "CanonicalMonoid2",
        "CanonicalMonoid3", "D2_INCONCLUSIVE", "D2_NOT_MEMBER", "DIVISIBILITY_FAILS",
        "DuplicateGeneratorError", "ExtRat", "Factorization",
        "FactorizationSet", "InputTooLargeError", "LimitLFT", "Line", "Membership", "Monoid",
        "MonoidParseError", "NotMemberError", "NotMinimallyGeneratedError",
        "NotPhiMinimalError", "PHI_OUT_OF_RANGE",
        "PeriodicityViolatedError", "Query", "Report", "SCAN_CSV_HEADER", "StarRequiredError",
        "UniMat2", "Vec2", "WrongBranchError", "X_NOT_REPRESENTABLE", "ZeroElementError",
        "ZeroGeneratorError", "canonical_coords", "canonical_rep", "canonicalize", "d2_test",
        "det_divisors", "elasticity2", "elasticity3",
        "elasticity_oracle", "enumerate_factorizations", "ext_gcd",
        "is_phi_minimal", "line", "main", "member2", "member3", "member3_general", "parse_monoid",
        "parse_vector", "rho_limit", "rho_special_ac", "rho_special_c", "run",
        "scan_multiples", "slope_compare", "tau", "validate_minimal_generation",
    ]
    error_classes = [
        obj
        for obj in vars(affmon.errors).values()
        if isinstance(obj, type) and issubclass(obj, affmon.AffmonError)
    ]
    assert all(cls.__name__ in affmon.__all__ for cls in error_classes)
    assert {cls.__name__: cls.code for cls in error_classes} == {
        "AffmonError": "Error",
        "BothZeroError": "BothZero",
        "NotPhiMinimalError": "NotPhiMinimal",
        "StarRequiredError": "StarRequired",
        "NotMemberError": "NotMember",
        "ZeroElementError": "ZeroElement",
        "PeriodicityViolatedError": "PeriodicityViolated",
        "WrongBranchError": "WrongBranch",
        "ZeroGeneratorError": "ZeroGenerator",
        "DuplicateGeneratorError": "DuplicateGenerator",
        "NotMinimallyGeneratedError": "NotMinimallyGenerated",
        "MonoidParseError": "SyntaxError",
        "InputTooLargeError": "InputTooLarge",
    }
