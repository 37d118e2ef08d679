"""Regenerate ``recorded.json``: the fixed input pools whose answers the oracle
cannot produce during set-up, with the answers the program gives for them.

    PYTHONPATH=src python3 bench/record.py

Pools: star and two-generator members with coordinates near 10**20 and
10**60 (``large_x``), and star members on both slope branches and both signs
of tau whose multiples are scanned up to k = 2000 (``multiples``).  Every
answer is cross-checked where an independent check is cheap: witnesses are
multiplied back, elasticity must equal longest/shortest, and the first scan
rows and the limit are compared with the oracle.  Rerun only when the answers
are meant to change; a benchmark run treats a difference as a wrong answer.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from answers import rows_digest, rat  # noqa: E402

from affmon import cli  # noqa: E402
from affmon.errors import AffmonError, NotMemberError  # noqa: E402
from affmon.oracle import enumerate_factorizations  # noqa: E402
from affmon.rationals import Vec2  # noqa: E402

POOL_SEED = 20181207
KMAX = max(W.MULTIPLES_KMAX)


def ask(t, s, command, **kw) -> dict:
    q = cli.Query(command=command, monoid_text=W.fmt_pairs(W.canon_gens(t)), vector_text=W.fmt_vec(s),
                  output="json", **kw)
    try:
        report = cli.run(q)
    except AffmonError as exc:
        return {"error": exc.code, "exit": 1 if isinstance(exc, NotMemberError) else 2}
    return {"exit": report.exit_code, **report.result}


def multiplies_back(t, mults, s) -> bool:
    gens = W.canon_gens(t)
    return (sum(m * g[0] for m, g in zip(mults, gens)), sum(m * g[1] for m, g in zip(mults, gens))) == tuple(s)


def oracle_rho(t, s):
    lengths = enumerate_factorizations(tuple(Vec2(*g) for g in W.canon_gens(t)), Vec2(*s)).lengths
    return Fraction(lengths[-1], lengths[0])


def large_entry(rng, t, exp10, member=True) -> dict:
    s = W._star_large_member(rng, t, exp10) if len(t) == 4 else None
    if len(t) == 2:
        k = rng.randint(10 ** exp10 // 20, 10 ** exp10 // 5)
        s = (k * t[0], k * t[1] + rng.randint(0, 10 ** exp10))
    if not member:
        s = (s[0] + 1, s[1])
    answers = {}
    chk = ask(t, s, "check")
    if chk.get("member"):
        assert multiplies_back(t, chk["factorization"]["mults"], s)
    answers["check"] = {"exit": chk["exit"], "member": chk["member"]}
    if len(t) == 2:
        every = ask(t, s, "factorize", mode="all")
        assert all(multiplies_back(t, f["mults"], s) for f in every["factorizations"])
        answers["all"] = {"exit": every["exit"], "member": every["member"], "count": every["count"]}
    if len(t) == 4:
        ext = ask(t, s, "factorize", mode="extremes")
        if ext.get("member"):
            assert multiplies_back(t, ext["shortest"]["mults"], s)
            assert multiplies_back(t, ext["longest"]["mults"], s)
            answers["extremes"] = {"exit": 0, "member": True, "lmin": ext["shortest"]["length"],
                                   "lmax": ext["longest"]["length"]}
        else:
            answers["extremes"] = {"exit": ext["exit"], "member": False}
        ela = ask(t, s, "elasticity")
        if "error" in ela:
            answers["elasticity"] = {"error": ela["error"], "exit": ela["exit"]}
        else:
            lmin, lmax = answers["extremes"]["lmin"], answers["extremes"]["lmax"]
            assert rat(ela["rho"]) == Fraction(lmax, lmin)
            answers["elasticity"] = {"exit": 0, "rho": ela["rho"]}
    return {"family": list(t), "target_c": list(s), "answers": answers}


def multiples_entry(rng, pool, branch) -> dict:
    while True:
        t = W._pick(rng, pool)
        s = W._member(rng, t, rng.randint(2, 8))
        if W.branch(t, s) == branch and max(s) <= 120:
            break
    scan = ask(t, s, "scan", k_max=KMAX)
    exact = [rat(r["rho_exact"]) for r in scan["rows"]]
    for k in range(1, 9):
        assert exact[k - 1] == oracle_rho(t, (k * s[0], k * s[1])), (t, s, k)
    lim = ask(t, s, "limit")
    a, c = t[0], t[2]
    assert rat(lim["rho_limit"]) == oracle_rho(t, (a * c * s[0], a * c * s[1])), (t, s)
    return {"family": list(t), "target_c": list(s),
            "scan": {"tau": lim["tau"], "rho_limit": lim["rho_limit"],
                     "digest": {str(k): rows_digest(exact[:k]) for k in W.MULTIPLES_KMAX}}}


def main() -> int:
    rng = random.Random(POOL_SEED)
    star = W.STAR_TAU_POS + W.STAR_TAU_NEG
    out = {"about": "answers recorded by bench/record.py; see its docstring"}
    for exp10 in (20, 60):
        out[f"star.c1e{exp10}"] = [large_entry(rng, W._pick(rng, star), exp10, member=i % 4 != 3)
                                   for i in range(16)]
        out[f"2gen.c1e{exp10}"] = [large_entry(rng, W._pick(rng, W.TWO), exp10) for _ in range(8)]
    for sign, pool in (("taupos", W.STAR_TAU_POS), ("tauneg", W.STAR_TAU_NEG)):
        for branch in ("low", "high"):
            out[f"multiples.{sign}.{branch}"] = [multiples_entry(rng, pool, branch) for _ in range(6)]
    W.RECORDED_PATH.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {W.RECORDED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
