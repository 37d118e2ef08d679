"""Tests of the benchmark itself (not of affmon).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import affmon  # noqa: E402
import affmon.cli  # noqa: E402
import answers as A  # noqa: E402
import run as R  # noqa: E402
import spec as S  # noqa: E402
import tracing as T  # noqa: E402
import workloads as W  # noqa: E402
from affmon.monoids import canonicalize  # noqa: E402
from affmon.rationals import Vec2  # noqa: E402


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert W.build(workload, 7) == W.build(workload, 7)
    assert W.build(workload, 7) != W.build(workload, 8)


def test_schedule_is_round_robin_over_strata():
    queries = W.build("query_mix", 1)
    n = len(W.QUERY_MIX_STRATA)
    assert [q["stratum"] for q in queries[:n]] == list(W.QUERY_MIX_STRATA)
    assert [q["stratum"] for q in queries[n:2 * n]] == list(W.QUERY_MIX_STRATA)


def _snapshot():
    state = {}
    for name, mod in list(sys.modules.items()):
        if name == "affmon" or name.startswith("affmon."):
            state[name] = dict(vars(mod))
    for cls in (affmon.Vec2, affmon.ExtRat, affmon.Factorization):
        state[cls.__qualname__] = dict(vars(cls))
    return state


def test_traced_run_restores_every_wrapped_function():
    before = _snapshot()
    query = affmon.cli.Query(command="elasticity", monoid_text="0,1;1,2;3,5", vector_text="6,13")
    with T.Tracer() as tracer:
        assert affmon.cli.run is not before["affmon.cli"]["run"]
        assert affmon.Vec2.__post_init__ is not before["Vec2"]["__post_init__"]
        affmon.cli.render(affmon.cli.run(query), "human")
    names = {tracer.names[n] for n in tracer.sp_name}
    assert {"cli.run", "monoids.canonicalize", "solve3.elasticity3", "cli.render_human"} <= names
    assert tracer.counts["rationals.Vec2.constructed"] > 0
    assert tracer.counts["factorization.Factorization.checked.calls"] > 0
    after = _snapshot()
    assert before.keys() == after.keys()
    for key in before:
        assert before[key].keys() == after[key].keys(), key
        for attr, value in before[key].items():
            assert after[key][attr] is value, f"{key}.{attr} not restored"


def test_tracer_skips_a_target_the_program_no_longer_has(monkeypatch):
    monkeypatch.delattr(affmon.solve3, "member3_general")
    query = affmon.cli.Query(command="check", monoid_text="0,1;1,2;3,5", vector_text="6,13")
    with T.Tracer() as tracer:
        affmon.cli.run(query)
    assert "solve3.member3_general" not in tracer.names
    assert "cli.run" in tracer.names


def test_self_time_on_nested_spans():
    # a [0,10] > b [1,4], c [5,9] > d [6,7]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    assert T.self_times(parent, start, end) == [3.0, 3.0, 3.0, 1.0]


def test_tracer_links_parents_with_its_clock():
    ticks = iter(range(100))
    tracer = T.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    outer()
    spans = tracer.spans()
    assert [(n, p) for n, _, _, p, _ in spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    # outer 0..5, inners 1..2 and 3..4
    assert tracer.self_times() == [3.0, 1.0, 1.0]


def test_walked_representations_matches_a_direct_walk():
    for t in W.NONSTAR[:60] + W.STAR[:20]:
        m = canonicalize([Vec2(*g) for g in W.canon_gens(t)])
        for x in range(0, 40, 3):
            for y in range(0, 60, 7):
                s = Vec2(x, y)
                if x * m.d > y * m.c:
                    want = 0
                else:
                    want = sum(1 for al in range(x // m.a + 1)
                               if (x - al * m.a) % m.c == 0)
                assert T.walked_representations(m, s) == want, (t, x, y)


def _runner(workload="query_mix", seed=3, count=None):
    recorded = W.load_recorded()
    queries = W.build(workload, seed, recorded)[:count]
    expector = A.Expector(affmon.oracle, Vec2, recorded)
    return R.Runner(affmon, queries, [expector.expected(q) for q in queries])


def test_every_query_mix_answer_checks_out():
    runner = _runner()
    runner.verify_all()
    assert runner.failed == 0, runner.failures
    assert runner.attempted == len(runner.queries)


def test_corrupted_answer_is_counted_as_failed():
    runner = _runner(count=len(W.QUERY_MIX_STRATA))
    runner.verify_all()
    assert runner.failed == 0
    i = next(i for i, q in enumerate(runner.queries) if q["stratum"] == "elasticity.star")
    lat, report, text, err = runner.execute(i)
    assert runner.check(i, report, text, err)
    # A corrupted result no longer matches its verified output or the oracle.
    report.result["rho"] = str(A.rat(report.result["rho"]) + 1)
    text = affmon.cli.render(report, runner.objs[i].output)
    assert not runner.check(i, report, text, err)
    assert runner.failed == 1
    assert "rho" in runner.failures[-1]["reason"]
    # So does a corrupted expectation; the run goes on counting.
    runner.signature[i] = None
    runner.expected[i] = dict(runner.expected[i], rho=Fraction(99, 98))
    _, report, text, err = runner.execute(i)
    assert not runner.check(i, report, text, err)
    assert runner.failed == 2


def test_factorization_that_does_not_multiply_back_fails():
    runner = _runner(count=len(W.QUERY_MIX_STRATA))
    i = next(i for i, q in enumerate(runner.queries) if q["stratum"] == "factorize.nonstar.all")
    _, report, text, err = runner.execute(i)
    assert runner.full_check(i, report, text, err) is None
    mults = report.result["factorizations"][0]["mults"]
    mults[0] += 1
    report.result["factorizations"][0]["length"] += 1
    assert runner.full_check(i, report, text, err) == "a factorization does not multiply back"


def test_tail_is_the_eleventh_largest():
    value, pct = R.tail(list(range(100)))
    assert value == 89 and pct == 90.0


def test_benchmark_json_matches_spec():
    on_disk = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert on_disk == S.benchmark_json()
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    assert len(names) == len(set(names)) and len(on_disk["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in on_disk["workloads"])
