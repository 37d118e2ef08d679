"""Check that affmon prints what ``ci/golden.txt`` pins.

Usage:
    python ci/golden.py             compare every group with ci/golden.txt
    python ci/golden.py --update    rewrite ci/golden.txt
    python ci/golden.py --diff REV  on a mismatch, rerun each differing group
                                    on a git worktree of REV and print the
                                    first query whose output differs

Each group is a fixed list of command lines.  The runner calls
``affmon.cli.main`` in process on each one and hashes its argv, exit status,
stdout and stderr into one sha256 per group:

- ``workloads``: every query of the four benchmark workloads
  (``bench/workloads.py``) at seeds 1-3, as generated and with ``--json``
  toggled;
- ``grid``: the 41 minimally generated canonical monoids <(0,1),(a,b),(c,d)>
  with entries <= 4, at every vector with coordinates <= 8, for ``check``,
  ``factorize`` (one, ``--all``, ``--extremes``), ``elasticity``, ``limit``,
  ``scan --k-max 7`` and ``oracle``, each as printed by default and with
  ``--json``;
- ``canonical``: every ordered pair and ordered triple of distinct nonzero
  generators with entries <= 3, as ``check --json`` at (5, 7).  This pins the
  canonical form, its transform and every canonicalization error.

A change that alters output on purpose rewrites the file with ``--update``
and names the changed groups.  Needs only the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from itertools import permutations
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.txt")

sys.dont_write_bytecode = True  # leave no bytecode beside bench/workloads.py
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  (pure Python; never imports affmon)


def _workload_queries() -> list:
    out = []
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for q in workloads.build(name, seed):
                args = workloads.argv(q)
                toggled = [a for a in args if a != "--json"]
                if toggled == args:
                    toggled.append("--json")
                out += [args, toggled]
    return out


_GRID_COMMANDS = (
    ["check"], ["factorize"], ["factorize", "--all"], ["factorize", "--extremes"],
    ["elasticity"], ["limit"], ["scan", "--k-max", "7"], ["oracle"],
)


def _grid_queries() -> list:
    r = range(5)
    monoids = [
        f"0,1;{a},{b};{c},{d}"
        for a in r for b in r for c in r for d in r
        if a and c and gcd(a, b) == 1 and gcd(c, d) == 1 and a * d < b * c and a % c
    ]
    vectors = [f"{x},{y}" for x in range(9) for y in range(9)]
    return [
        [cmd[0], m, v, *cmd[1:], *out]
        for m in monoids for v in vectors for cmd in _GRID_COMMANDS for out in ([], ["--json"])
    ]


def _canonical_queries() -> list:
    vecs = [f"{x},{y}" for x in range(4) for y in range(4) if x or y]
    return [
        ["check", ";".join(gens), "5,7", "--json"]
        for k in (2, 3) for gens in permutations(vecs, k)
    ]


GROUPS = {
    "workloads": _workload_queries,
    "grid": _grid_queries,
    "canonical": _canonical_queries,
}


def _call(main, args: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(args)
        except SystemExit as exc:  # argparse refusing the command line
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def _records(main, queries: list):
    """(argv, status, stdout, stderr) of each query, as hashed."""
    for args in queries:
        yield args, *_call(main, args)


def _digest(records) -> tuple[str, int]:
    h, n = hashlib.sha256(), 0
    for rec in records:
        h.update(json.dumps(rec).encode() + b"\n")
        n += 1
    return h.hexdigest(), n


def _load_main(src: Path):
    """``cli.main`` of the affmon package under ``src``, imported afresh."""
    for name in [m for m in sys.modules if m == "affmon" or m.startswith("affmon.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        from affmon.cli import main
    finally:
        sys.path.remove(str(src))
    return main


def _read_golden() -> dict:
    pinned = {}
    for line in GOLDEN.read_text().splitlines():
        name, count, digest = line.split()
        pinned[name] = (digest, int(count))
    return pinned


def _first_difference(group: str, rev: str) -> None:
    queries = GROUPS[group]()
    ours = list(_records(_load_main(ROOT / "src"), queries))
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(tree), rev],
                       check=True, capture_output=True)
        try:
            theirs = _records(_load_main(tree / "src"), queries)
            for new, old in zip(ours, theirs):
                if new != old:
                    print(f"first difference in {group}: affmon {' '.join(new[0])}")
                    for label, rec in ((rev, old), ("work tree", new)):
                        print(f"--- {label}: exit {rec[1]}\nstdout:\n{rec[2]}stderr:\n{rec[3]}")
                    return
            print(f"{group}: no difference from {rev}")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True, capture_output=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="rewrite ci/golden.txt")
    parser.add_argument("--diff", metavar="REV",
                        help="print the first query of each differing group whose output differs at REV")
    args = parser.parse_args(argv)
    main_fn = _load_main(ROOT / "src")
    got = {name: _digest(_records(main_fn, make())) for name, make in GROUPS.items()}
    if args.update:
        GOLDEN.write_text("".join(f"{name} {n} {d}\n" for name, (d, n) in got.items()))
        print(f"wrote {GOLDEN.relative_to(ROOT)}: {sum(n for _, n in got.values())} calls")
        return 0
    pinned = _read_golden()
    bad = [name for name in GROUPS if got[name] != pinned.get(name)]
    bad += [name for name in pinned if name not in GROUPS]
    for name in GROUPS:
        print(f"{name}: {got[name][1]} calls, {'ok' if name not in bad else 'DIFFERS'}")
    if not bad:
        return 0
    print(f"output differs from ci/golden.txt in: {', '.join(bad)}", file=sys.stderr)
    if args.diff:
        for name in bad:
            if name in GROUPS:
                _first_difference(name, args.diff)
    return 1


if __name__ == "__main__":
    sys.exit(main())
