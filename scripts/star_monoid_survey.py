#!/usr/bin/env python3
"""Survey every small star monoid and cross-check the closed forms.

Enumerates all minimally generated canonical monoids <(0,1), (a,b), (c,d)>
with b*c - a*d = 1 and entries up to --max-entry, then verifies on every
vector with coordinates up to --coord-bound that

  * the closed-form membership verdict equals the brute-force oracle's,
  * the factorization lengths form the predicted arithmetic progression,
  * the closed-form elasticity equals max length / min length.

Prints one summary row per monoid and total counts.  Exits nonzero on any
mismatch (none are expected; the point is to make re-checking cheap).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from math import gcd

from affmon.intlin import IDENTITY
from affmon.monoids import CanonicalMonoid3, validate_minimal_generation
from affmon.oracle import enumerate_factorizations
from affmon.rationals import ExtRat, Vec2
from affmon.solve3 import elasticity3, extreme_factorizations, member3


@dataclass(frozen=True)
class SurveyConfig:
    max_entry: int
    coord_bound: int


def parse_args(argv: list[str] | None = None) -> SurveyConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-entry", type=int, default=10, help="bound on a, b, c, d")
    parser.add_argument("--coord-bound", type=int, default=30, help="bound on x and y")
    args = parser.parse_args(argv)
    return SurveyConfig(max_entry=args.max_entry, coord_bound=args.coord_bound)


def star_monoids(max_entry: int):
    for a in range(1, max_entry + 1):
        for b in range(1, max_entry + 1):
            if gcd(a, b) != 1:
                continue
            for c in range(1, max_entry + 1):
                for d in range(0, max_entry + 1):
                    if gcd(c, d) != 1 or b * c - a * d != 1:
                        continue
                    m = CanonicalMonoid3(a=a, b=b, c=c, d=d, transform=IDENTITY)
                    if validate_minimal_generation(m):
                        yield m


def check_monoid(m: CanonicalMonoid3, coord_bound: int) -> tuple[int, int, ExtRat]:
    """Cross-check one monoid; returns (members, mismatches, largest elasticity seen)."""
    members = 0
    mismatches = 0
    rho_max = ExtRat(1, 1)
    # Length change per step of the factorization line; c - a - 1 here.
    step = (m.c - m.a - (m.b * m.c - m.a * m.d)) // gcd(m.a, m.c)
    for x in range(coord_bound + 1):
        for y in range(coord_bound + 1):
            s = Vec2(x, y)
            truth = enumerate_factorizations(m.gens, s)
            if member3(m, s).member != truth.member:
                mismatches += 1
                continue
            if not truth.member:
                continue
            members += 1
            ext = extreme_factorizations(m, s)
            progression = sorted(ext.len_t0 + t * step for t in range(ext.t_max + 1))
            if list(truth.lengths) != progression:
                mismatches += 1
            elif not s.is_zero:
                rho = elasticity3(m, s)
                if rho != ExtRat(truth.lengths[-1], truth.lengths[0]):
                    mismatches += 1
                elif rho > rho_max:
                    rho_max = rho
    return members, mismatches, rho_max


def main(argv: list[str] | None = None) -> int:
    config = parse_args(argv)
    t0 = time.perf_counter()
    total_monoids = 0
    total_members = 0
    total_mismatches = 0
    for m in star_monoids(config.max_entry):
        members, mismatches, rho_max = check_monoid(m, config.coord_bound)
        total_monoids += 1
        total_members += members
        total_mismatches += mismatches
        flag = "" if not mismatches else f"  MISMATCHES={mismatches}"
        print(
            f"(0,1) ({m.a},{m.b}) ({m.c},{m.d})  "
            f"members={members:5d}  rho_max_seen={rho_max}{flag}"
        )
    elapsed = time.perf_counter() - t0
    print(
        f"\n{total_monoids} monoids, {total_members} members checked, "
        f"{total_mismatches} mismatches, {elapsed:.1f}s"
    )
    return 1 if total_mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
