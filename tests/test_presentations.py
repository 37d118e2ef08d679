"""Answers that do not depend on how the monoid and the vector are written.

A matrix M in GL2(Z), of determinant +1 or -1, that keeps every generator in
N0^2 presents the same monoid, and M*s the same element.  So each field of a
report that is not about the presentation must be equal for (gens, s) and
(M*gens, M*s).  The suite needs no oracle, so it runs at any size.  The CLI's
``limit`` and ``scan`` are here at library level only: ``rho_limit`` and
``scan_multiples`` answer every three-generator monoid, but the CLI still reads
the star condition on the canonical form, which a reflection can change, so it
refuses some presentations of a monoid whose mirror image it answers.
"""

import json
import random
from itertools import product
from math import gcd, lcm

import pytest

from affmon.asymptotics import rho_limit, scan_multiples
from affmon.cli import Query, render_json, run
from affmon.monoids import canonical_coords, canonicalize, validate_minimal_generation
from affmon.rationals import Vec2

# The fields of a report that depend on the presentation: the canonical form,
# its transform, the star condition read on it, the side of slope a/b that s
# lies on, and the solver's label.
PRESENTATION_FIELDS = ("canonical", "transform", "star", "branch", "solver_used")
# The presentation itself, as the query wrote it.
INPUT_FIELDS = ("generators", "input")

# Every 2 x 2 integer matrix (m00, m01, m10, m11) with entries -6..6 and
# determinant +1 or -1.
UNIMODULAR = [m for m in product(range(-6, 7), repeat=4) if abs(m[0] * m[3] - m[1] * m[2]) == 1]


def _monoids(rng, n):
    """n random minimally generated monoids of three generators with entries <= 9."""
    out = []
    while len(out) < n:
        gens = [Vec2(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(3)]
        if (len(set(gens)) == 3 and all(gcd(g.x, g.y) == 1 for g in gens)
                and validate_minimal_generation(canonicalize(gens))):
            out.append(gens)
    return out


MONOIDS = _monoids(random.Random(9), 100)


def _image(rng, gens, det):
    """A random M of determinant det that maps every generator into N0^2."""
    return rng.choice([
        m for m in UNIMODULAR
        if m[0] * m[3] - m[1] * m[2] == det
        and all(m[0] * g.x + m[1] * g.y >= 0 and m[2] * g.x + m[3] * g.y >= 0 for g in gens)
    ])


def _apply(m, v):
    return Vec2(m[0] * v.x + m[1] * v.y, m[2] * v.x + m[3] * v.y)


def _member(rng, gens, mult_max):
    """A nonzero member with multiplicities <= mult_max."""
    mults = [rng.randint(0, mult_max) for _ in gens]
    if not any(mults):
        mults[0] = 1
    return sum((n * g for n, g in zip(mults, gens)), Vec2(0, 0))


def _free(value):
    """A JSON report without its presentation fields, each factorization
    read as its length and each list sorted."""
    if isinstance(value, dict):
        if "mults" in value:
            return value["length"]
        return {k: _free(v) for k, v in value.items()
                if k not in PRESENTATION_FIELDS + INPUT_FIELDS}
    if isinstance(value, list):
        return sorted(map(_free, value))
    return value


def _keys(value):
    """Every key of a JSON value, at any depth."""
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


# The presentation-free result each query is compared on.
COMPARED = {
    ("check", "one"): {"member", "factorization"},
    ("elasticity", "one"): {"rho"},
    ("factorize", "extremes"): {"member", "t_max", "shortest", "longest"},
    ("factorize", "all"): {"member", "count", "factorizations", "lengths"},
}


def _same_answers(gens, s, det, rng, queries):
    """Assert that each query answers (gens, s) and its image under a random
    M of determinant det alike; return the JSON reports."""
    m = _image(rng, gens, det)
    presentations = [(gens, s), ([_apply(m, g) for g in gens], _apply(m, s))]
    reports = []
    for command, mode in queries:
        answers = []
        for g, v in presentations:
            report = run(Query(command, ";".join(f"{p.x},{p.y}" for p in g), f"{v.x},{v.y}",
                               mode=mode, output="json"))
            assert report.exit_code == 0
            reports.append(json.loads(render_json(report)))
            answers.append(_free(reports[-1]))
        assert set(answers[0]["result"]) == COMPARED[command, mode]
        assert answers[0] == answers[1], (command, mode, presentations)
    return reports


# Multiplicities of 1, 100 and about 1,000 digits: 10**995 is near the largest
# that keeps every coordinate of both presentations within the 1,000 digits
# the CLI reads.
SIZES = [9, 10**100 - 1, 10**995]


@pytest.mark.parametrize("det", [1, -1])
@pytest.mark.parametrize("mult_max", SIZES, ids=["1-digit", "100-digit", "1000-digit"])
def test_check_elasticity_and_extremes(det, mult_max):
    rng = random.Random(det * len(str(mult_max)))
    reports = []
    for gens in MONOIDS:
        reports += _same_answers(gens, _member(rng, gens, mult_max), det, rng,
                                 [("check", "one"), ("elasticity", "one"),
                                  ("factorize", "extremes")])
    # Every field left out is in some report.  A reflection moves some members
    # to the other side of slope a/b; a determinant +1 map moves none.
    assert set(PRESENTATION_FIELDS) <= set().union(*map(_keys, reports))
    branches = [r["result"]["branch"] for r in reports if "branch" in r["result"]]
    flipped = sum(a != b for a, b in zip(branches[0::2], branches[1::2]))
    assert (flipped > 0) == (det == -1)


@pytest.mark.parametrize("det", [1, -1])
def test_all_listings_of_small_members(det):
    # Multiplicities <= 9 keep every listing small.
    rng = random.Random(det)
    for gens in MONOIDS:
        _same_answers(gens, _member(rng, gens, 9), det, rng, [("factorize", "all")])


# Rows enough to pass P, and so use the class step, on four of MONOIDS.
K_MAX = 24


@pytest.mark.parametrize("det", [1, -1])
@pytest.mark.parametrize("mult_max", SIZES, ids=["1-digit", "100-digit", "1000-digit"])
def test_limit_and_scan(det, mult_max):
    # A reflection maps the canonical (a, c, D) to (D, c, a), so it keeps P
    # and can change the star condition; a determinant +1 map changes neither.
    rng = random.Random(det * len(str(mult_max)))
    one_sided = past_p = 0
    for gens in MONOIDS:
        s, m = _member(rng, gens, mult_max), _image(rng, gens, det)
        answers, stars, periods = [], [], []
        for g, v in [(gens, s), ([_apply(m, h) for h in gens], _apply(m, s))]:
            cm = canonicalize(g)
            cs = canonical_coords(cm, v)
            _, c_g, a_g, d_g, _ = cm.line_consts
            answers.append((rho_limit(cm, cs)[1], scan_multiples(cm, cs, K_MAX)))
            stars.append(cm.star)
            periods.append(c_g * lcm(a_g, d_g))
        assert answers[0] == answers[1], (gens, s, m)
        assert periods[0] == periods[1]
        one_sided += stars[0] != stars[1]
        past_p += periods[0] < K_MAX
    assert (one_sided > 0) == (det == -1)
    assert past_p == 4
