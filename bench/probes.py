"""Child-process measurements: set-up time, interpreter start-up, imports,
cold CLI latency, and the environment record.

Every child runs with ``PYTHONPATH=<checkout>/src`` and the checkout as its
working directory, one at a time; each is waited for before the next starts.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHILD_TIMEOUT_S = 120

# Modules the import probe reports by name: the affmon package and its
# submodules, and the standard library they pull in beyond interpreter start-up.
AFFMON_MODULES = ("affmon", "affmon.errors", "affmon.rationals", "affmon.factorization",
                  "affmon.intlin", "affmon.oracle", "affmon.monoids", "affmon.solve2",
                  "affmon.solve3", "affmon.asymptotics", "affmon.cli")
STDLIB_GROUPS = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext", "json")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(root: Path, args: list, stdin: str = "") -> tuple[float, subprocess.CompletedProcess]:
    """Run one child to completion; returns (wall seconds, completed process)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True, text=True,
                          cwd=root, env=child_env(root), timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def setup_times(root: Path, warm_queries: list, runs: int) -> list:
    """Seconds each fresh child spends importing affmon and running the warm-up."""
    child = str(Path(__file__).with_name("setup_child.py"))
    payload = json.dumps(warm_queries)
    out = []
    for _ in range(runs):
        _, proc = run_child(root, [child], payload)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def startup_ms(root: Path, runs: int) -> float:
    """Median wall time of a bare ``python -c pass``."""
    return 1000 * statistics.median(run_child(root, ["-c", "pass"])[0] for _ in range(runs))


def parse_importtime(stderr: str) -> list:
    """(self_us, cumulative_us, depth, name) for each -X importtime line."""
    out = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line.split(":", 1)[1].split("|", 2)
        stripped = name.lstrip()
        depth = (len(name) - len(stripped) - 1) // 2
        out.append((int(self_us), int(cum_us), depth, stripped.strip()))
    return out


def subtree(entries: list, root_name: str) -> list:
    """The entries of the top-level import ``root_name`` and its descendants.

    importtime prints children before their parent, so the subtree is the run
    of entries after the previous top-level entry, up to ``root_name``."""
    start = 0
    for i, (_, _, depth, name) in enumerate(entries):
        if depth == 0:
            if name == root_name:
                return entries[start:i + 1]
            start = i + 1
    return []


def import_profile(root: Path, runs: int) -> dict:
    """Median import times (microseconds) of affmon and what it pulls in."""
    samples: dict[str, list] = {}
    for _ in range(runs):
        _, proc = run_child(root, ["-X", "importtime", "-c", "import affmon"])
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        row = {name: 0 for name in AFFMON_MODULES}
        row.update({f"stdlib.{g}": 0 for g in STDLIB_GROUPS + ("other",)})
        tree = subtree(parse_importtime(proc.stderr), "affmon")
        for self_us, cum_us, _, name in tree:
            if name == "affmon":
                row["cumulative"] = cum_us
            if name.startswith("affmon"):
                row[name] = row.get(name, 0) + self_us
            else:
                group = name.split(".")[0]
                key = f"stdlib.{group}" if group in STDLIB_GROUPS else "stdlib.other"
                row[key] += self_us
        for key, value in row.items():
            samples.setdefault(key, []).append(value)
    return {key: statistics.median(vals) for key, vals in samples.items()}


def site_profile(root: Path, runs: int) -> dict:
    """Median cumulative time of ``site`` at start-up and its slowest children
    (``.pth`` hooks such as certifi are imported here)."""
    site_us, children = [], {}
    for _ in range(runs):
        _, proc = run_child(root, ["-X", "importtime", "-c", "pass"])
        tree = subtree(parse_importtime(proc.stderr), "site")
        for _, cum_us, depth, name in tree:
            if depth == 0:
                site_us.append(cum_us)
            elif depth == 1:
                children.setdefault(name, []).append(cum_us)
    slow = {n: statistics.median(v) for n, v in children.items() if statistics.median(v) >= 1000}
    return {"site_ms": statistics.median(site_us) / 1000 if site_us else 0.0,
            "site_children_over_1ms": {n: round(v / 1000, 2) for n, v in sorted(slow.items())}}


def environment(seed: int) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model or platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "seed": seed,
    }
