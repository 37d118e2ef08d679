"""The affmon benchmark.

    python3 bench/run.py --workload query_mix --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --describe

Run from the root of a checkout.  Workloads: query_mix, large_x, multiples,
cli_cold (see ``spec.py``).  The benchmark generates its inputs from
``--seed``, measures set-up in fresh processes, checks every answer, then
runs a closed loop for ``--seconds``.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it runs an untraced and a traced pass
over the same queries plus the process probes and the scaling sweep, and
prints the per-layer metrics.  Every line but the last is detail (JSON); the
last line is the result object.  Exit status 0 means a result was printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import answers as A  # noqa: E402
import probes as P  # noqa: E402
import spec as S  # noqa: E402
import tracing as T  # noqa: E402
import workloads as W  # noqa: E402

SETUP_RUNS = 9
PROBE_RUNS = 5
COLD_PROBE_QUERIES = 8
TRACE_CAP = 3000  # queries in the traced pass at most (bounds span memory)


def load_affmon():
    """Import affmon from this checkout's src/, never from anywhere else."""
    pkg = ROOT / "src" / "affmon"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"no affmon sources under {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import affmon
    import affmon.cli
    import affmon.errors
    import affmon.oracle
    import affmon.rationals

    if Path(affmon.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"affmon imported from {affmon.__file__}, not {pkg}")
    return affmon


class Runner:
    """Executes queries in-process and checks them against expectations."""

    def __init__(self, affmon, queries, expected):
        self.cli = affmon.cli
        self.AffmonError = affmon.errors.AffmonError
        self.NotMemberError = affmon.errors.NotMemberError
        self.queries = queries
        self.expected = expected
        self.objs = [self.cli.Query(command=q["command"], monoid_text=q["monoid"],
                                    vector_text=q["vector"], k_max=q["k_max"], mode=q["mode"],
                                    check_minimality=q["check_min"], output=q["output"],
                                    approx=q["approx"]) for q in queries]
        self.signature = [None] * len(queries)  # verified (exit, code, text) per query
        self.failures: list = []
        self.failed = 0
        self.attempted = 0

    def execute(self, i):
        """(latency seconds, report, text, error) for query i."""
        cli, obj = self.cli, self.objs[i]
        t0 = time.perf_counter()
        try:
            report = cli.run(obj)
            text = cli.render(report, obj.output)
            err = None
        except self.AffmonError as exc:
            report, text, err = None, None, exc
        except Exception as exc:  # an unexpected exception is a failed answer
            report, text, err = None, None, exc
        return time.perf_counter() - t0, report, text, err

    def _exit(self, report, err) -> int:
        if err is None:
            return report.exit_code
        return 1 if isinstance(err, self.NotMemberError) else 2

    def check(self, i, report, text, err) -> bool:
        """Count one answer; full verification unless it repeats a verified one."""
        self.attempted += 1
        code = getattr(err, "code", None) if isinstance(err, self.AffmonError) else None
        sig = (self._exit(report, err), code, text)
        if sig == self.signature[i]:
            return True
        reason = self.full_check(i, report, text, err)
        if reason is None:
            if self.signature[i] is None:
                self.signature[i] = sig
            return True
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append({"stratum": self.queries[i]["stratum"], "query": W.argv(self.queries[i]),
                                  "reason": reason})
        return False

    def full_check(self, i, report, text, err):
        q = self.queries[i]
        if err is not None and not isinstance(err, self.AffmonError):
            return f"unexpected exception {type(err).__name__}: {err}"
        if err is not None:
            out = {"exit": self._exit(None, err), "error": err.code, "result": None}
        else:
            m = report.canonical
            out = {"exit": report.exit_code, "error": None, "result": report.result,
                   "canonical": None if m is None else [[g.x, g.y] for g in m.gens],
                   "transform": None if m is None else m.transform.as_rows()}
        reason = A.verify(q, self.expected[i], out)
        if reason is None and err is None and not A.render_matches(q, report.result, text):
            reason = "rendered output does not carry the result"
        return reason

    def verify_all(self):
        """Run and fully check every distinct query once (also the warm-up)."""
        for i in range(len(self.queries)):
            _, report, text, err = self.execute(i)
            self.check(i, report, text, err)

    def loop(self, seconds=None, max_queries=None, on_query=None):
        def step(pos, i):
            if on_query is not None:
                on_query(pos)
            lat, report, text, err = self.execute(i)
            self.check(i, report, text, err)
            return lat

        return closed_loop(step, len(self.queries), seconds, max_queries)


class ColdRunner:
    """Runs queries as fresh `python -m affmon` processes; expected output is
    that of ``cli.main`` in-process on the same arguments, itself checked
    semantically by an in-process ``Runner``."""

    def __init__(self, affmon, queries, inproc: Runner, split: bool = False):
        self.queries = queries
        self.inproc = inproc
        # With split, children run cold_child.py, which also reports how long
        # the import and cli.main took; ``splits`` collects those pairs.
        self.entry = [str(HERE / "cold_child.py")] if split else ["-m", "affmon"]
        self.splits: list = []
        self.expected_output = []
        for q in queries:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = affmon.cli.main(W.argv(q))
            self.expected_output.append((rc, out.getvalue(), err.getvalue()))

    def execute(self, i):
        lat, proc = P.run_child(ROOT, [*self.entry, *W.argv(self.queries[i])])
        stderr = proc.stderr
        if len(self.entry) == 1:
            stderr, _, last = stderr.rstrip("\n").rpartition("\n")
            stderr = stderr + "\n" if stderr else ""
            t_import, t_main = map(float, last.split())
            self.splits.append((t_import, t_main))
        return lat, (proc.returncode, proc.stdout, stderr)

    def check(self, i, got) -> bool:
        self.inproc.attempted += 1
        if got == self.expected_output[i] and self.inproc.signature[i] is not None:
            return True
        self.inproc.failed += 1
        if len(self.inproc.failures) < 20:
            self.inproc.failures.append({"stratum": self.queries[i]["stratum"],
                                         "query": W.argv(self.queries[i]),
                                         "reason": f"cold output differs (exit {got[0]})"})
        return False

    def loop(self, seconds=None, max_queries=None):
        def step(pos, i):
            lat, got = self.execute(i)
            self.check(i, got)
            return lat

        return closed_loop(step, len(self.queries), seconds, max_queries)


def closed_loop(step, cycle: int, seconds=None, max_queries=None) -> list:
    """One client, next query when the last one finished, cycling the schedule.

    Stops after ``max_queries``, or at the first end of a schedule cycle once
    ``seconds`` have passed.  Returns [(query index, latency)]."""
    samples = []
    deadline = time.perf_counter() + seconds if seconds is not None else None
    while True:
        pos = len(samples)
        samples.append((pos % cycle, step(pos, pos % cycle)))
        if max_queries is not None and len(samples) >= max_queries:
            return samples
        if deadline is not None and len(samples) % cycle == 0 and time.perf_counter() >= deadline:
            return samples


# ---------------------------------------------------------------------------
# metrics


def tail(latencies):
    """(value, percentile): the highest percentile with >= 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(samples, runner, setup, peak_rss_mb, queries):
    """End-to-end metrics from the closed loop.

    On a shared 2-core Xeon VM the CPU speed drifts by a third over fractions
    of a second, while a query's fastest execution is steady.  So every execution counts
    with the best latency its query reached in the run (each query runs many
    times, spread over the whole run, and the loop ends on a whole schedule
    cycle).  p50 and the tail are over executions; queries_per_s is
    executions over the sum of those latencies.  The raw per-execution
    figures are in the detail line."""
    best: dict = {}
    for i, lat in samples:
        if lat < best.get(i, float("inf")):
            best[i] = lat
    lats = [best[i] for i, _ in samples]
    tail_value, tail_pct = tail(lats)
    raw = [lat for _, lat in samples]
    raw_tail, raw_pct = tail(raw)
    share = Counter()
    for i, _ in samples:
        share[queries[i]["cls"]] += best[i]
    total = sum(lats)
    metrics = {
        "setup_s": statistics.median(setup),
        "queries_per_s": len(lats) / total,
        "latency_p50_ms": 1000 * statistics.median(lats),
        "latency_tail_ms": 1000 * tail_value,
        "correct_frac": 1 - runner.failed / runner.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "tail": {"percentile": round(tail_pct, 3), "samples": len(lats)},
        "distinct_queries_run": len(best),
        "raw": {"queries_per_s": len(raw) / sum(raw), "latency_p50_ms": 1000 * statistics.median(raw),
                "latency_tail_ms": 1000 * raw_tail, "tail_percentile": round(raw_pct, 3)},
        "failed_frac": runner.failed / runner.attempted,
        "setup_s_samples": setup,
        "class_time_share": {k: round(v / total, 4) for k, v in sorted(share.items())},
    }
    return metrics, detail


def calibration_us() -> float:
    """Best of 5 timings of a fixed pure-Python loop that uses no affmon code:
    printed beside each result, so a slow machine phase can be told apart
    from a slower program."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def span_metrics(tracer, nq: int) -> dict:
    """Per-layer metrics from the traced pass, normalized per query."""
    names = tracer.names
    self_t = tracer.self_times()
    calls, self_sum = Counter(), defaultdict(float)
    in_min_calls, in_min_self = 0, 0.0
    scan_e3_calls = 0
    buckets = defaultdict(lambda: [0, 0.0])
    for i, (nid, parent, size) in enumerate(zip(tracer.sp_name, tracer.sp_parent, tracer.sp_size)):
        name = names[nid]
        calls[name] += 1
        self_sum[name] += self_t[i]
        pname = names[tracer.sp_name[parent]] if parent >= 0 else None
        if name == "oracle.enumerate_factorizations" and pname == "monoids.validate_minimal_generation":
            in_min_calls += 1
            in_min_self += self_t[i]
        if name == "solve3.elasticity3" and pname == "asymptotics.scan_multiples":
            scan_e3_calls += 1
        if size >= 0:
            if name == "solve3.member3_general":
                b = "x1e3" if size <= 12 else "x1e4" if size <= 15 else "x1e5"
                buckets[(name, b, "self_us")][0] += 1
                buckets[(name, b, "self_us")][1] += self_t[i]
            else:
                b = "c1e2" if size < 34 else "c1e20" if size < 134 else "c1e60"
                kind = "self_us" if name == "solve3.member3_star" else "total_us"
                dur = self_t[i] if kind == "self_us" else tracer.sp_end[i] - tracer.sp_start[i]
                buckets[(name, b, kind)][0] += 1
                buckets[(name, b, kind)][1] += dur
    out = {}
    for mod, fn in T.TRACED:
        name = f"{mod}.{fn}"
        out[f"{name}.calls"] = calls[name] / nq
        out[f"{name}.self_us"] = 1e6 * self_sum[name] / nq
    out["oracle.enumerate_factorizations.in_minimality.calls"] = in_min_calls / nq
    out["oracle.enumerate_factorizations.in_minimality.self_us"] = 1e6 * in_min_self / nq
    for layer in S.LAYERS:
        out[f"layer.{layer}.self_us"] = 1e6 * sum(v for k, v in self_sum.items()
                                                  if k.split(".")[0] == layer) / nq
    c = tracer.counts
    walked = c["member3_general.walked"]
    out["solve3.member3_general.useful_ratio"] = c["member3_general.returned"] / walked if walked else 0.0
    k_total = c["scan_multiples.k"]
    out["solve3.elasticity3.calls_per_k"] = scan_e3_calls / k_total if k_total else 0.0
    for key in ("factorization.Factorization.checked.calls", "rationals.Vec2.constructed",
                "rationals.ExtRat.constructed"):
        out[key] = c[key] / nq
    for b in S.MEMBER3_GENERAL_BUCKETS:
        n, t = buckets[("solve3.member3_general", b, "self_us")]
        out[f"solve3.member3_general.{b}.self_us"] = 1e6 * t / n if n else 0.0
    for b in S.STAR_BUCKETS:
        n, t = buckets[("solve3.member3_star", b, "self_us")]
        out[f"solve3.member3_star.{b}.self_us"] = 1e6 * t / n if n else 0.0
        n, t = buckets[("solve3.elasticity3", b, "total_us")]
        out[f"solve3.elasticity3.{b}.total_us"] = 1e6 * t / n if n else 0.0
    return out


def _time_us(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(samples)


def sweep() -> dict:
    """Each layer timed alone over a size range (untraced).  A solver the
    program no longer has reads 0."""
    from affmon.monoids import canonicalize
    from affmon.oracle import enumerate_factorizations
    from affmon.rationals import Vec2

    def timed(name, call, reps):
        fn = T.lookup("affmon", "solve3", name)
        return _time_us(lambda: call(fn), reps) if fn is not None else 0.0

    out = {}
    gens = [Vec2(0, 1), Vec2(1, 2), Vec2(3, 5), Vec2(1, 1), Vec2(2, 1)]
    for g in S.ORACLE_SWEEP:
        n = int(g[1:])
        out[f"sweep.oracle.{g}.us"] = _time_us(lambda: enumerate_factorizations(gens[:n], Vec2(30, 45)), 3)
    m = canonicalize((Vec2(0, 1), Vec2(1, 3), Vec2(2, 1)))
    for b, x in zip(S.MEMBER3_GENERAL_BUCKETS, (10**3, 10**4, 10**5)):
        # D = 5; exactly x/40 of the x/2 + 1 representations lift.
        s = Vec2(x, 3 * x - 5 * (x // 2 - x // 40 + 1))
        out[f"sweep.member3_general.{b}.us"] = timed("member3_general", lambda f: f(m, s), 3)
    star = canonicalize((Vec2(0, 1), Vec2(1, 2), Vec2(3, 5)))
    for b, e in zip(S.STAR_BUCKETS, (2, 20, 60)):
        s = Vec2(7 * 10**e, 13 * 10**e)
        out[f"sweep.member3_star.{b}.us"] = timed("member3_star", lambda f: f(star, s), 101)
        out[f"sweep.elasticity3.{b}.us"] = timed("elasticity3", lambda f: f(star, s), 101)
    return out


def process_probes(affmon, seed: int, runner: Runner) -> tuple[dict, dict]:
    """Interpreter, import and cold-CLI probes; the cold queries are checked."""
    startup = P.startup_ms(ROOT, PROBE_RUNS)
    site = P.site_profile(ROOT, 3)
    imports = P.import_profile(ROOT, 3)
    cold_qs = W.build("cli_cold", seed)[:COLD_PROBE_QUERIES]
    expector = A.Expector(affmon.oracle, affmon.rationals.Vec2, {})
    probe_runner = Runner(affmon, cold_qs, [expector.expected(q) for q in cold_qs])
    probe_runner.verify_all()
    cold = ColdRunner(affmon, cold_qs, probe_runner, split=True)
    walls = [lat for _, lat in cold.loop(max_queries=len(cold_qs))]
    runner.attempted += probe_runner.attempted
    runner.failed += probe_runner.failed
    runner.failures += probe_runner.failures
    out = {
        "interp.startup_ms": startup,
        "interp.site_ms": site["site_ms"],
        "import.affmon_ms": 1000 * statistics.median(t for t, _ in cold.splits),
    }
    out.update({f"import.{m}.self_us": float(imports[m]) for m in P.AFFMON_MODULES})
    out.update({f"import.stdlib.{g}.self_us": float(imports[f"stdlib.{g}"])
                for g in P.STDLIB_GROUPS + ("other",)})
    out["cli.remainder_ms"] = 1000 * statistics.median(t for _, t in cold.splits)
    return out, {"site": site, "cold_probe_ms": 1000 * statistics.median(walls),
                 "importtime_affmon_ms": imports["cumulative"] / 1000}


def traced_run(affmon, runner: Runner, seconds: float, seed: int) -> tuple[dict, dict]:
    """Per-layer metrics: the same queries untraced and traced, the process
    probes, and the sweep."""
    untraced = runner.loop(seconds / 4, max_queries=TRACE_CAP)
    n = len(untraced)
    tracer = T.Tracer()

    def on_query(pos):
        tracer.query = pos

    with tracer:
        traced = runner.loop(max_queries=n, on_query=on_query)
    t0 = sum(lat for _, lat in untraced)
    t1 = sum(lat for _, lat in traced)
    metrics = span_metrics(tracer, n)
    metrics["trace.overhead_frac"] = t1 / t0 - 1
    metrics["trace.queries"] = n
    probe_metrics, probe_detail = process_probes(affmon, seed, runner)
    metrics.update(probe_metrics)
    metrics.update(sweep())
    detail = {"spans": len(tracer.sp_start), "traced_s": t1, "untraced_s": t0, **probe_detail}
    return metrics, detail


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true", help="print what is measured and exit")
    args = parser.parse_args(argv)
    if args.describe:
        print(json.dumps(S.describe(), indent=1))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    # Fail before measuring anything when the program is not in this checkout.
    if not (ROOT / "src" / "affmon" / "__init__.py").is_file():
        print(f"error: no affmon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = P.environment(args.seed)
    recorded = W.load_recorded()
    queries = W.build(args.workload, args.seed, recorded)
    setup = P.setup_times(ROOT, W.warmup(queries), SETUP_RUNS)

    affmon = load_affmon()
    expector = A.Expector(affmon.oracle, affmon.rationals.Vec2, recorded)
    expected = [expector.expected(q) for q in queries]
    runner = Runner(affmon, queries, expected)
    runner.verify_all()

    calibration = [calibration_us()]
    if args.trace == 0:
        if args.workload == "cli_cold":
            samples = ColdRunner(affmon, queries, runner).loop(args.seconds)
            rss = peak_rss_mb(children=True)
        else:
            samples = runner.loop(args.seconds)
            rss = peak_rss_mb(children=False)
        metrics, detail = end_to_end(samples, runner, setup, rss, queries)
        units = {m["name"]: m["unit"] for m in S.END_TO_END}
    else:
        metrics, detail = traced_run(affmon, runner, args.seconds, args.seed)
        units = {name: unit for name, unit, _, _ in S.per_layer()}
    calibration.append(calibration_us())
    detail.update({"workload": args.workload, "env": env, "distinct_queries": len(queries),
                   "calibration_us": {"before": calibration[0], "after": calibration[1]},
                   "failed": runner.failed, "attempted": runner.attempted,
                   "failures": runner.failures})
    print(json.dumps(detail))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
