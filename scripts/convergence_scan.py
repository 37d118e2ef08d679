#!/usr/bin/env python3
"""Tabulate the elasticity of k*s against its k -> infinity limit.

Writes one CSV row per k with the exact elasticity of k*s, the limit value,
and the exact gap between them, e.g.:

    python3 scripts/convergence_scan.py --monoid '0,1;1,2;3,5' \
        --vector 7,13 --k-max 200 --out scan.csv

The table is the one ``affmon scan`` prints, built by the same pipeline
(``cli.run`` and ``cli.render``), with the same errors and exit statuses.
Everything is exact rational arithmetic; the CSV contains no floats.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from affmon.cli import Query, _positive_int, render, run
from affmon.errors import AffmonError, NotMemberError


@dataclass(frozen=True)
class ScanConfig:
    monoid_text: str
    vector_text: str
    k_max: int
    out: str  # "-" for stdout


def parse_args(argv: list[str] | None = None) -> ScanConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--monoid", required=True, help="generators, e.g. '0,1;1,2;3,5'")
    parser.add_argument("--vector", required=True, help="member to scale, e.g. '7,13'")
    parser.add_argument("--k-max", type=_positive_int, default=100, help="scan k = 1..N")
    parser.add_argument("--out", default="-", help="CSV path, or - for stdout")
    args = parser.parse_args(argv)
    return ScanConfig(
        monoid_text=args.monoid,
        vector_text=args.vector,
        k_max=args.k_max,
        out=args.out,
    )


def main(argv: list[str] | None = None) -> int:
    config = parse_args(argv)
    query = Query(
        command="scan",
        monoid_text=config.monoid_text,
        vector_text=config.vector_text,
        k_max=config.k_max,
        output="csv",
    )
    try:
        report = run(query)
    except AffmonError as exc:
        # The same report and exit status as the affmon CLI.
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, NotMemberError) else 2
    text = render(report, "csv")
    if config.out == "-":
        print(text)
    else:
        with open(config.out, "w") as fh:
            fh.write(text + "\n")
    rows = report.result["rows"]
    settled = next((row["k"] for row in rows if row["gap"] == "0"), None)
    print(
        f"scanned k=1..{config.k_max}: limit {rows[0]['rho_limit']}, "
        f"first exact hit at k={settled}, final gap {rows[-1]['gap']}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
