"""What the benchmark measures and why: workloads, end-to-end metrics, and the
per-layer metrics with the end-to-end metric and workload each should move.

``BENCHMARK.json`` at the repository root holds the names, units and bounds
(its schema has no room for the rest); ``python3 bench/run.py --describe``
prints this module's full record, and ``test_bench.py`` keeps the two in step.
"""

from __future__ import annotations

from probes import AFFMON_MODULES, STDLIB_GROUPS
from tracing import TRACED
import workloads as W

_SHAPE = "closed loop, 1 client, 1 thread, in-process cli.run(Query) + cli.render"


def _strata(name: str, strata) -> str:
    return f"{len(strata)} strata x {W.INSTANCES[name]} seeded instances, round-robin"


WORKLOADS = {
    "query_mix": {
        "why": "fixed per-query costs dominate: parsing, canonicalization, the oracle-based "
               "minimality check, value-type validation and rendering (ROADMAP item 4).",
        "shape": _SHAPE,
        "mix": _strata("query_mix", W.QUERY_MIX_STRATA) + ": check (2gen/star/nonstar, member "
               "and non-member), factorize --all/--extremes (star/nonstar), elasticity "
               "(2gen/star/nonstar), limit, scan k_max 2 and 5, oracle on 3-5 generators, 8 "
               "expected-error classes; human, json and csv output alternate",
        "sizes": "generator entries <= 12, target coordinates <= 200",
    },
    "large_x": {
        "why": "the linear walk in solve3.member3_general and the oracle fallback for non-star "
               "elasticity dominate (ROADMAP item 2); --all beside check uses one layer two ways.",
        "shape": _SHAPE,
        "mix": _strata("large_x", W.LARGE_X_STRATA) + ": non-star <(0,1),(1,b),(2,d)> "
               "(D = 3, 5, 7) check member and non-member, --extremes, elasticity (oracle "
               "fallback), --all; star check, --extremes, elasticity (weighted twice, so p50 is a "
               "closed form); star --all; two-generator check and --all",
        "sizes": "non-star x ~ 1e3, 1e4, 1e5 (1% jitter) with x/40 factorizations (non-members "
                 "walk all x/2); star coordinates ~ 1e2, 1e20, 1e60, --all at 1e2 and 1e3; "
                 "two-generator 1e20 and 1e60",
    },
    "multiples": {
        "why": "asymptotics.scan_multiples calls elasticity3 once per k and the CSV/JSON render "
               "writes k rows: the only workload where the asymptotics layer does most of the work.",
        "shape": _SHAPE,
        "mix": _strata("multiples", W.MULTIPLES_STRATA) + ": scan k_max 1000 and 2000, and "
               "limit, for tau = +1 and -1 and the low and high slope branch (2 scans : 1 limit)",
        "sizes": "star generator entries <= 8 with a*c <= 12, member coordinates <= 120",
    },
    "cli_cold": {
        "why": "interpreter start-up and imports are over 99% of a CLI call: the only workload "
               "that shows import-path work (eager cli/argparse/json import).",
        "shape": "closed loop, 1 client: sequential `python -m affmon ...` processes with "
                 "PYTHONPATH=src, one at a time",
        "mix": _strata("cli_cold", W.CLI_COLD_STRATA) + ": every subcommand, human / --json / "
               "CSV output, exit codes 0, 1 and 2",
        "sizes": "as query_mix",
    },
}

END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "import affmon + the warm-up queries, in a fresh process; median of 9 processes"},
    {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.25,
     "what": "executions / summed latency, each execution counted at its query's best "
             "latency in the run (run + render, or one CLI process)"},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "what": "median over executions of the query's best latency in the run"},
    {"name": "latency_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "what": "highest percentile with at least ten samples beyond it (the 11th largest), "
             "same latencies; percentile and sample count are in the detail line"},
    {"name": "correct_frac", "unit": "frac", "better": "higher", "bound": 0.01,
     "what": "1 - failed_frac: answers that matched, over queries attempted (failed_frac is "
             "printed in the detail line; a metric must never read 0)"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15,
     "what": "peak resident set size of the benchmark process; for cli_cold the largest child"},
)

_IN_QM = "query_mix.latency_p50_ms"
_LX = "large_x.queries_per_s"
_MU = "multiples.queries_per_s"
_CC = "cli_cold.latency_p50_ms"

_FUNC_MOVES = {
    "cli.parse_monoid": _IN_QM, "cli.parse_vector": _IN_QM, "cli.run": _IN_QM,
    "cli.render": _IN_QM, "cli.render_human": _IN_QM, "cli.render_json": _IN_QM,
    "cli.render_csv": f"{_IN_QM}, {_MU}",
    "monoids.canonicalize": _IN_QM, "intlin.row_swapped_hnf": _IN_QM,
    "monoids.canonical_coords": _IN_QM, "monoids.validate_minimal_generation": _IN_QM,
    "oracle.enumerate_factorizations": f"{_LX}, {_IN_QM}", "oracle.elasticity_oracle": _LX,
    "solve2.member2": "reported on every in-process workload", "solve2.elasticity2": _IN_QM,
    "solve3.member3_star": "reported on every in-process workload",
    "solve3.member3_general": _LX,
    "solve3.extreme_factorizations": "reported on every in-process workload",
    "solve3.elasticity3": _MU, "asymptotics.rho_limit": _MU, "asymptotics.scan_multiples": _MU,
}

LAYERS = ("cli", "monoids", "intlin", "oracle", "solve2", "solve3", "asymptotics")
MEMBER3_GENERAL_BUCKETS = ("x1e3", "x1e4", "x1e5")
STAR_BUCKETS = ("c1e2", "c1e20", "c1e60")
ORACLE_SWEEP = ("g3", "g4", "g5")


def per_layer() -> list:
    """(name, unit, better, moves) for every per-layer metric."""
    out = []
    for mod, fn in TRACED:
        name = f"{mod}.{fn}"
        out.append((f"{name}.calls", "1/query", "lower", _FUNC_MOVES[name]))
        out.append((f"{name}.self_us", "us/query", "lower", _FUNC_MOVES[name]))
    out += [
        ("oracle.enumerate_factorizations.in_minimality.calls", "1/query", "lower", _IN_QM),
        ("oracle.enumerate_factorizations.in_minimality.self_us", "us/query", "lower", _IN_QM),
    ]
    out += [(f"layer.{layer}.self_us", "us/query", "lower", "sum of the layer's spans")
            for layer in LAYERS]
    out += [
        ("solve3.member3_general.useful_ratio", "ratio", "higher", _LX),
        ("solve3.elasticity3.calls_per_k", "1/k", "lower", _MU),
        ("factorization.Factorization.checked.calls", "1/query", "lower", f"{_IN_QM}, {_MU}"),
        ("rationals.Vec2.constructed", "1/query", "lower", f"{_IN_QM}, {_MU}"),
        ("rationals.ExtRat.constructed", "1/query", "lower", f"{_IN_QM}, {_MU}"),
    ]
    out += [(f"solve3.member3_general.{b}.self_us", "us/call", "lower", _LX)
            for b in MEMBER3_GENERAL_BUCKETS]
    out += [(f"solve3.member3_star.{b}.self_us", "us/call", "lower", _LX) for b in STAR_BUCKETS]
    out += [(f"solve3.elasticity3.{b}.total_us", "us/call", "lower", _LX) for b in STAR_BUCKETS]
    out += [(f"sweep.oracle.{g}.us", "us/call", "lower", "oracle work budget (ROADMAP item 5)")
            for g in ORACLE_SWEEP]
    out += [(f"sweep.member3_general.{b}.us", "us/call", "lower", _LX)
            for b in MEMBER3_GENERAL_BUCKETS]
    out += [(f"sweep.member3_star.{b}.us", "us/call", "lower", _LX) for b in STAR_BUCKETS]
    out += [(f"sweep.elasticity3.{b}.us", "us/call", "lower", _LX) for b in STAR_BUCKETS]
    out += [
        ("interp.startup_ms", "ms", "lower", "control: should not move"),
        ("interp.site_ms", "ms", "lower", "control: site start-up incl. .pth hooks"),
        ("import.affmon_ms", "ms", "lower", _CC),
    ]
    out += [(f"import.{m}.self_us", "us", "lower", _CC) for m in AFFMON_MODULES]
    out += [(f"import.stdlib.{g}.self_us", "us", "lower", _CC) for g in STDLIB_GROUPS + ("other",)]
    out += [
        ("cli.remainder_ms", "ms", "lower", _CC),
        ("trace.overhead_frac", "frac", "lower", "tracing cost, traced vs untraced pass"),
        ("trace.queries", "count", "higher", "queries in the traced pass"),
    ]
    return out


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 20,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")} for m in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in per_layer()],
    }


def describe() -> dict:
    return {
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b, "moves": m} for n, u, b, m in per_layer()],
    }
