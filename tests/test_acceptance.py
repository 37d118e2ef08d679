"""Acceptance gate: ten end-to-end criteria, one test (and one verdict line) each.

Every expected value here is either computed by the brute-force oracle on the
spot or was frozen after deriving it independently; nothing is tuned to make
a test pass.  All arithmetic is exact.

test_c08 checks the limit statement on one residue class: 10^2 and 10^4 are
congruent mod a*c = 3, so the gap |rho(k*s) - limit| at k = 10^4 is strictly
smaller than at k = 10^2 or both are exactly zero.  Its pinned fixture
s = (6,13) is of the second kind: the factorizations of k*s run from
(3k,0,2k) to (k,6k,0), so rho(k*s) = 7k/5k = 7/5 for every k and both gaps
are exactly zero.  The test pins those zeros and checks elasticity3 against
the oracle at both multiples; the strict decrease is checked on s = (7,13)
in tests/test_asymptotics.py.
"""

import random
import time
from math import gcd

import pytest

from affmon.cli import Query, run
from affmon.intlin import D2_NOT_MEMBER, IDENTITY, d2_test
from affmon.monoids import (
    CanonicalMonoid2,
    CanonicalMonoid3,
    canonical_coords,
    canonicalize,
)
from affmon.oracle import elasticity_oracle, enumerate_factorizations
from affmon.rationals import ONE, ExtRat, Vec2, slope_compare
from affmon.solve2 import elasticity2, member2
from affmon.solve3 import (
    canonical_rep,
    elasticity3,
    extreme_factorizations,
    member3,
)
from affmon.asymptotics import rho_limit, rho_special_ac, rho_special_c
from conftest import canonical_triples

DIM2_COORD_MAX = 40
STAR_COORD_MAX = 50

WORKED_TEXT = "0,1;11,10;10,3"
WORKED = CanonicalMonoid3(a=11, b=10, c=10, d=3, transform=IDENTITY)


def _dim2_monoids():
    for a in range(1, 9):
        for b in range(1, 9):
            if gcd(a, b) == 1:
                yield CanonicalMonoid2(a=a, b=b, transform=IDENTITY)


def _star_monoids():
    """All minimally generated canonical star monoids with entries <= 10."""
    star = [
        CanonicalMonoid3(a, b, c, d, transform=IDENTITY)
        for a, b, c, d in canonical_triples(10)
        if b * c - a * d == 1 and a % c
    ]
    assert len(star) == 83
    return star


def _length_table(gens, coord_max):
    """Oracle ground truth: (x, y) -> sorted length multiset (empty = not a member)."""
    table = {}
    for x in range(coord_max + 1):
        for y in range(coord_max + 1):
            table[(x, y)] = enumerate_factorizations(gens, Vec2(x, y)).lengths
    return table


@pytest.fixture(scope="module")
def dim2_sweep():
    return [(m, _length_table(m.gens, DIM2_COORD_MAX)) for m in _dim2_monoids()]


@pytest.fixture(scope="module")
def star_sweep():
    return [(m, _length_table(m.gens, STAR_COORD_MAX)) for m in _star_monoids()]


def test_c01_worked_example_reproduction():
    q_out = Query(command="check", monoid_text=WORKED_TEXT, vector_text="199,119")
    q_in = Query(command="check", monoid_text=WORKED_TEXT, vector_text="199,120")
    best = float("inf")
    for _ in range(20):
        t0 = time.perf_counter()
        r_out = run(q_out)
        r_in = run(q_in)
        best = min(best, time.perf_counter() - t0)
    assert r_out.exit_code == 1
    assert r_out.result["member"] is False
    assert r_in.exit_code == 0
    assert r_in.result["factorization"]["mults"] == [0, 9, 10]
    assert best < 1e-3, f"both checks took {best:.6f}s at best; need < 1 ms"


def test_c02_dim2_theorem_matches_oracle(dim2_sweep):
    assert len(dim2_sweep) == 43
    for m, table in dim2_sweep:
        for (x, y), lengths in table.items():
            s = Vec2(x, y)
            res = member2(m, s)
            assert res.member == bool(lengths), (m, s)
            if res.member:
                assert len(lengths) == 1, (m, s)
                if not s.is_zero:
                    assert elasticity2(m, s) == ONE


def test_c03_star_membership_matches_oracle(star_sweep):
    assert len(star_sweep) == 83
    for m, table in star_sweep:
        for (x, y), lengths in table.items():
            assert member3(m, Vec2(x, y)).member == bool(lengths), (m, (x, y))


def test_c04_extreme_factorizations_and_elasticity(star_sweep):
    checked = 0
    for m, table in star_sweep:
        step = m.c - m.a - 1
        for (x, y), lengths in table.items():
            if not lengths:
                continue
            s = Vec2(x, y)
            ext = extreme_factorizations(m, s)
            progression = sorted(ext.len_t0 + t * step for t in range(ext.t_max + 1))
            assert list(lengths) == progression, (m, s)
            if not s.is_zero:
                assert elasticity3(m, s) == ExtRat(lengths[-1], lengths[0]), (m, s)
                checked += 1
                if checked % 97 == 0:
                    assert elasticity3(m, s) == elasticity_oracle(m.gens, s)
    assert checked > 10_000


def test_c05_c_equals_a_plus_one_has_unit_elasticity(star_sweep):
    sampled = [entry for entry in star_sweep if entry[0].c == entry[0].a + 1]
    assert len(sampled) == 23
    for m, table in sampled:
        for key, lengths in table.items():
            if lengths:
                assert len(set(lengths)) == 1, (m, key)


def test_c06_small_beta_forces_unit_elasticity():
    fixtures = [
        (CanonicalMonoid3(a=1, b=2, c=3, d=5, transform=IDENTITY), {1, 2}),
        (CanonicalMonoid3(a=3, b=5, c=2, d=3, transform=IDENTITY), {2, 3, 4, 5, 7}),
    ]
    for m, expected_xs in fixtures:
        xs = set()
        for x in range(1, 20):
            rep = canonical_rep(m.a, m.c, x)
            if rep is not None and rep[1] < m.a:
                xs.add(x)
        assert xs == expected_xs, m
        for x in sorted(xs):
            y_start = -(-m.b * x // m.a)  # smallest y with y*a >= b*x
            for y in range(y_start, 201):
                s = Vec2(x, y)
                assert member3(m, s).member, (m, s)
                assert elasticity3(m, s) == ONE, (m, s)


def test_c07_periodic_formulas_match_exact_and_limit(star_sweep):
    checked = 0
    for m, table in star_sweep[::7]:
        low_branch = []
        high_branch = []
        for (x, y), lengths in sorted(table.items()):
            if not lengths or (x, y) == (0, 0):
                continue
            if x * m.b <= y * m.a and len(low_branch) < 3:
                low_branch.append(Vec2(x, y))
            elif x * m.b >= y * m.a and len(high_branch) < 3:
                high_branch.append(Vec2(x, y))
            if len(low_branch) == 3 and len(high_branch) == 3:
                break
        for s in low_branch:
            _, limit = rho_limit(m, s)
            for kprime in range(1, 21):
                k = m.a * m.c * kprime
                value = rho_special_ac(m, s, k)
                assert value == elasticity3(m, k * s), (m, s, k)
                assert value == limit, (m, s, k)
                checked += 1
        for s in high_branch:
            _, limit = rho_limit(m, s)
            for kprime in range(1, 21):
                k = m.c * kprime
                value = rho_special_c(m, s, k)
                assert value == elasticity3(m, k * s), (m, s, k)
                assert value == limit, (m, s, k)
                checked += 1
    assert checked >= 20 * 30


def test_c08_limit_convergence_gap():
    t0 = time.perf_counter()
    m = CanonicalMonoid3(a=1, b=2, c=3, d=5, transform=IDENTITY)
    s = Vec2(6, 13)
    _, limit = rho_limit(m, s)
    assert limit == ExtRat(7, 5)
    rho_100 = elasticity3(m, 100 * s)
    rho_10k = elasticity3(m, 10_000 * s)
    gap_100 = limit.abs_diff(rho_100)
    gap_10k = limit.abs_diff(rho_10k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert gap_10k < ExtRat(1, 1000)
    # On the residue class of 100 and 10^4 mod a*c = 3 the gap strictly
    # decreases or is exactly zero; here rho(k*s) = 7/5 for every k, so both
    # gaps are zero (see the module docstring).  The strict decrease is
    # checked on s = (7,13) in test_asymptotics.py.
    assert gap_100 == gap_10k == ExtRat(0, 1)
    # Independent check, outside the timed span.
    assert rho_100 == elasticity_oracle(m.gens, 100 * s)
    assert rho_10k == elasticity_oracle(m.gens, 10_000 * s)


def test_c09_d2_screen_soundness(dim2_sweep, star_sweep):
    for m, table in [*dim2_sweep, *star_sweep]:
        cols = [(g.x, g.y) for g in m.gens]
        for (x, y), lengths in table.items():
            if d2_test(cols, Vec2(x, y)) == D2_NOT_MEMBER:
                assert lengths == (), (m, (x, y))
    # The screen is not sufficient: this non-member passes it.
    cols = [(g.x, g.y) for g in WORKED.gens]
    witness = Vec2(199, 119)
    assert d2_test(cols, witness) != D2_NOT_MEMBER
    assert not enumerate_factorizations(WORKED.gens, witness).member


def _random_raw_gens(rng):
    while True:
        count = rng.choice((2, 3))
        gens = []
        while len(gens) < count:
            x, y = rng.randint(0, 12), rng.randint(0, 12)
            if (x or y) and gcd(x, y) == 1:
                gens.append(Vec2(x, y))
        if len(set(gens)) == count:  # coprime pairs: distinct <=> distinct slopes
            return tuple(gens)


def test_c10_normalization_preserves_membership():
    rng = random.Random(1729)
    for _ in range(100):
        gens = _random_raw_gens(rng)
        m = canonicalize(gens)
        (t00, t01), (t10, t11) = m.transform.as_rows()
        assert abs(t00 * t11 - t01 * t10) == 1
        assert m.gens[0] == Vec2(0, 1)
        for left, right in zip(m.gens, m.gens[1:]):
            assert slope_compare(left, right) < 0
        for _ in range(20):
            v = Vec2(rng.randint(0, 30), rng.randint(0, 30))
            raw = enumerate_factorizations(gens, v)
            cs = canonical_coords(m, v)
            if cs is None:
                assert not raw.member
            else:
                image = enumerate_factorizations(m.gens, cs)
                assert image.member == raw.member
                assert len(image.facts) == len(raw.facts)
