"""Seeded query generation for the affmon benchmark.

Every workload is a list of distinct queries.  Each query belongs to a
*stratum* (a query class at a size bucket) and the list is ordered round by
round, one query per stratum per round, so any prefix of the cyclic schedule
keeps the stratum mix.  A round uses instance ``r % INSTANCES`` of every
stratum.

Monoids are generated in canonical form <(0,1), (a,b), (c,d)> (or
<(0,1), (a,b)>) and then presented in other coordinates through a
nonnegative unimodular matrix, so the program's canonicalization has real
work to do.  Each query keeps the canonical generators and target alongside
the presented ones; they are index-aligned, so an answer computed on the
canonical side is directly an answer about the presented generators.

This module is pure Python and never imports affmon: the program sees only
the generated inputs.
"""

from __future__ import annotations

import json
import random
from math import gcd
from pathlib import Path

WORKLOADS = ("query_mix", "large_x", "multiples", "cli_cold")
INSTANCES = {"query_mix": 8, "large_x": 4, "multiples": 1, "cli_cold": 1}

MAX_ENTRY = 12  # query_mix generator entries
MAX_COORD = 200  # query_mix target coordinates

RECORDED_PATH = Path(__file__).with_name("recorded.json")

# Nonnegative 2x2 integer matrices of determinant 1 (row-major).  They map
# N0^2 into itself and keep the slope order of the generators, so the
# presented monoid has the same canonical form (and star condition).
TRANSFORMS = (
    ((1, 0), (0, 1)),
    ((1, 0), (1, 1)),
    ((1, 1), (0, 1)),
    ((1, 0), (2, 1)),
    ((1, 2), (0, 1)),
    ((2, 1), (1, 1)),
    ((1, 1), (1, 2)),
)


def apply(mat, v):
    (m00, m01), (m10, m11) = mat
    return (m00 * v[0] + m01 * v[1], m10 * v[0] + m11 * v[1])


def fmt_pairs(vs) -> str:
    return ";".join(f"{x},{y}" for x, y in vs)


def fmt_vec(v) -> str:
    return f"{v[0]},{v[1]}"


def canon_gens(t: tuple) -> list:
    """Canonical generator list of a 2-tuple (a, b) or 4-tuple (a, b, c, d)."""
    if len(t) == 2:
        return [(0, 1), (t[0], t[1])]
    return [(0, 1), (t[0], t[1]), (t[2], t[3])]


def tau(t: tuple) -> int:
    diff = t[2] - t[0] - 1
    return (diff > 0) - (diff < 0)


def branch(t: tuple, s) -> str:
    """Slope branch of s against (a, b): 'low' when x*b <= y*a."""
    return "low" if s[0] * t[1] <= s[1] * t[0] else "high"


# ---------------------------------------------------------------------------
# canonical monoid families


def _minimal3(a, b, c, d) -> bool:
    # In canonical form only (a,b) can be redundant, as k*(c,d) + j*(0,1).
    return not (a % c == 0 and b >= (a // c) * d)


def two_gen(max_entry: int) -> list:
    return [(a, b) for a in range(1, max_entry + 1) for b in range(0, max_entry + 1) if gcd(a, b) == 1]


def three_gen(max_entry: int, star: bool) -> list:
    out = []
    rng = range(0, max_entry + 1)
    for a in range(1, max_entry + 1):
        for b in rng:
            if gcd(a, b) != 1:
                continue
            for c in range(1, max_entry + 1):
                for d in rng:
                    det = b * c - a * d
                    if det < 1 or (det == 1) != star or gcd(c, d) != 1:
                        continue
                    if _minimal3(a, b, c, d):
                        out.append((a, b, c, d))
    return out


def non_minimal(max_entry: int) -> list:
    """Canonical triples whose middle generator is k*(c,d) + j*(0,1)."""
    out = []
    for c in range(1, max_entry + 1):
        for d in range(0, max_entry + 1):
            if gcd(c, d) != 1:
                continue
            for k in (2, 3):
                for j in (1, 2, 3):
                    a, b = k * c, k * d + j
                    if a <= max_entry and b <= max_entry and gcd(a, b) == 1:
                        out.append((a, b, c, d))
    return out


# Small families, computed once per process.
STAR = three_gen(8, star=True)
NONSTAR = three_gen(8, star=False)
TWO = two_gen(MAX_ENTRY)
NONMIN = non_minimal(MAX_ENTRY)
STAR_TAU_POS = [t for t in STAR if tau(t) == 1 and t[0] * t[2] <= 12]
STAR_TAU_NEG = [t for t in STAR if tau(t) == -1 and t[0] * t[2] <= 12]
STAR_SMALL_AC = [t for t in STAR if t[0] * t[2] <= 24]
# Non-star monoids with a*c/g = 2 and D = b*c - a*d in {3, 5, 7}: the
# representation walk visits about x/2 representations, whatever the seed.
NONSTAR_LARGE = [(1, b, 2, d) for b, d in ((2, 1), (3, 1), (3, 3), (4, 1), (4, 3), (5, 3))]


# ---------------------------------------------------------------------------
# query construction


def _present(rng: random.Random, t: tuple, max_entry=None):
    """Pick a presentation matrix, a generator order, and the presented gens."""
    canon = canon_gens(t)
    mats = list(TRANSFORMS)
    rng.shuffle(mats)
    for mat in mats:
        gens = [apply(mat, g) for g in canon]
        if max_entry is None or max(max(g) for g in gens) <= max_entry:
            break
    order = list(range(len(canon)))
    rng.shuffle(order)
    return mat, [canon[i] for i in order], [gens[i] for i in order]


def _query(stratum, command, mat, canon, gens, target_c, *, mode="one", k_max=None,
           output="human", approx=False, check_min=True, expect="oracle", family=None):
    target = apply(mat, target_c)
    return {
        "stratum": stratum,
        "cls": stratum.split(".")[0],
        "command": command,
        "monoid": fmt_pairs(gens),
        "vector": fmt_vec(target),
        "mode": mode,
        "k_max": k_max,
        "output": output,
        "approx": approx,
        "check_min": check_min,
        "canon": [list(g) for g in canon],
        "gens": [list(g) for g in gens],
        "target_c": list(target_c),
        "target": list(target),
        "family": list(family) if family else None,
        "expect": expect,
    }


def _raw_query(stratum, command, monoid_text, vector_text, *, expect, output="human",
               mode="one", k_max=None, gens=None, target=None):
    return {
        "stratum": stratum,
        "cls": stratum.split(".")[0],
        "command": command,
        "monoid": monoid_text,
        "vector": vector_text,
        "mode": mode,
        "k_max": k_max,
        "output": output,
        "approx": False,
        "check_min": True,
        "canon": None,
        "gens": gens,
        "target_c": None,
        "target": target,
        "family": None,
        "expect": expect,
    }


def _member(rng: random.Random, t: tuple, scale: int):
    """A nonzero member: a random combination with multiplicities <= scale."""
    gens = canon_gens(t)
    while True:
        mults = [rng.randint(0, scale) for _ in gens]
        if any(mults):
            return (sum(m * g[0] for m, g in zip(mults, gens)), sum(m * g[1] for m, g in zip(mults, gens)))


def _small_member(rng, t, mat, limit=MAX_COORD):
    for scale in (8, 6, 4, 3, 2, 1):
        for _ in range(20):
            s = _member(rng, t, scale)
            if max(apply(mat, s)) <= limit:
                return s
    return (0, 1)


def _small_nonmember(rng, t, mat, limit=MAX_COORD):
    """A point of N0^2 that is (most likely) not in the monoid; the expected
    answer is computed independently, so an accidental member is still checked."""
    for _ in range(200):
        x = rng.randint(1, 60)
        if len(t) == 4 and rng.random() < 0.5:
            # y < x*d/c: past the slope of (c, d), outside the cone.
            top = x * t[3] // t[2]
            y = rng.randint(0, top - 1) if top >= 1 else 0
        else:
            y = rng.randint(0, 60)
        if max(apply(mat, (x, y))) <= limit:
            return (x, y)
    return (1, 0)


def _pick(rng, seq):
    return seq[rng.randrange(len(seq))]


def _mix_stratum(name: str, rng: random.Random, as_json: bool) -> dict:
    """One query_mix / cli_cold instance of the named stratum."""
    out = "json" if as_json else "human"
    if name.startswith("check.2gen"):
        t = _pick(rng, TWO)
        mat, canon, gens = _present(rng, t, MAX_ENTRY)
        s = _small_member(rng, t, mat) if name.endswith("member") else _small_nonmember(rng, t, mat)
        return _query(name, "check", mat, canon, gens, s, output=out, family=t)
    if name.startswith("check."):
        t = _pick(rng, STAR if ".star." in name else NONSTAR)
        mat, canon, gens = _present(rng, t, MAX_ENTRY)
        s = _small_member(rng, t, mat) if name.endswith(".member") else _small_nonmember(rng, t, mat)
        return _query(name, "check", mat, canon, gens, s, output=out,
                      check_min=rng.random() < 0.8, family=t)
    if name.startswith("factorize."):
        _, kind, mode = name.split(".")
        t = _pick(rng, STAR if kind == "star" else NONSTAR)
        mat, canon, gens = _present(rng, t, MAX_ENTRY)
        s = _small_member(rng, t, mat)
        return _query(name, "factorize", mat, canon, gens, s, mode=mode, output=out, family=t)
    if name.startswith("elasticity."):
        kind = name.split(".")[1]
        t = _pick(rng, {"2gen": TWO, "star": STAR, "nonstar": NONSTAR}[kind])
        mat, canon, gens = _present(rng, t, MAX_ENTRY)
        s = _small_member(rng, t, mat)
        return _query(name, "elasticity", mat, canon, gens, s, output=out,
                      approx=rng.random() < 0.5, family=t)
    if name.startswith("limit."):
        t = _pick(rng, STAR_SMALL_AC)
        mat, canon, gens = _present(rng, t, MAX_ENTRY)
        s = _small_member(rng, t, mat)
        return _query(name, "limit", mat, canon, gens, s, output=out,
                      approx=rng.random() < 0.5, family=t)
    if name.startswith("scan."):
        t = _pick(rng, STAR_SMALL_AC)
        mat, canon, gens = _present(rng, t, MAX_ENTRY)
        s = _small_member(rng, t, mat)
        return _query(name, "scan", mat, canon, gens, s, k_max=int(name.split(".")[2][1:]),
                      output="json" if as_json else "csv", family=t)
    if name.startswith("oracle."):
        n = int(name.split(".")[1][1:])
        pool = [(x, y) for x in range(0, 7) for y in range(0, 7) if gcd(x, y) == 1]
        gens = rng.sample(pool, n)
        limit = {3: 40, 4: 24, 5: 14}[n]
        target = (rng.randint(0, limit), rng.randint(0, limit))
        return _raw_query(name, "oracle", fmt_pairs(gens), fmt_vec(target), expect="oracle",
                          output=out, gens=[list(g) for g in gens], target=list(target))
    if name.startswith("error."):
        return _error_query(name, rng, out)
    raise ValueError(f"unknown stratum {name}")


def _error_query(name: str, rng: random.Random, out: str) -> dict:
    """Inputs with a stable expected error code and exit status."""
    kind = name.split(".")[1]
    t = _pick(rng, STAR)
    mat, canon, gens = _present(rng, t, MAX_ENTRY)
    s = _small_member(rng, t, mat)
    if kind == "parse":
        text = fmt_pairs(gens)
        bad = _pick(rng, (text.replace(",", ";", 1), text + ";x,1", text.replace(",", ",-", 1)))
        return _raw_query(name, "check", bad, fmt_vec(apply(mat, s)),
                          expect="error:SyntaxError:2", output=out)
    if kind == "zero":
        return _raw_query(name, "check", fmt_pairs(gens + [(0, 0)]), fmt_vec(apply(mat, s)),
                          expect="error:ZeroGenerator:2", output=out)
    if kind == "duplicate":
        return _raw_query(name, "factorize", fmt_pairs(gens + [gens[0]]), fmt_vec(apply(mat, s)),
                          expect="error:DuplicateGenerator:2", output=out)
    if kind == "four":
        extra = _pick(rng, [(x, y) for x in range(1, 9) for y in range(1, 9)
                            if gcd(x, y) == 1 and (x, y) not in gens])
        return _raw_query(name, "elasticity", fmt_pairs(gens + [extra]), fmt_vec(apply(mat, s)),
                          expect="error:SyntaxError:2", output=out)
    if kind == "nonminimal":
        t = _pick(rng, NONMIN)
        mat, canon, gens = _present(rng, t, MAX_ENTRY)
        s = _small_member(rng, t, mat)
        return _query(name, "check", mat, canon, gens, s, output=out,
                      expect="error:NotMinimallyGenerated:2", family=t)
    if kind == "star_required":
        t = _pick(rng, NONSTAR + TWO)
        mat, canon, gens = _present(rng, t, MAX_ENTRY)
        s = _small_member(rng, t, mat)
        cmd = _pick(rng, ("limit", "scan"))
        return _query(name, cmd, mat, canon, gens, s, k_max=3 if cmd == "scan" else None,
                      output=out if cmd == "limit" else "csv",
                      expect="error:StarRequired:2", family=t)
    if kind == "not_member":
        # elasticity of a non-member: answered by the oracle-derived expectation
        # (NotMember, exit 1) unless the point happens to be a member.
        t = _pick(rng, STAR + NONSTAR)
        mat, canon, gens = _present(rng, t, MAX_ENTRY)
        s = _small_nonmember(rng, t, mat)
        return _query(name, "elasticity", mat, canon, gens, s, output=out, family=t)
    if kind == "zero_element":
        return _query(name, "elasticity", mat, canon, gens, (0, 0), output=out,
                      expect="error:ZeroElement:2", family=t)
    raise ValueError(f"unknown error stratum {name}")


# The query_mix strata; repeated names weight a class.  Sized so that no
# subcommand class takes much more than a fifth of the run time.
QUERY_MIX_STRATA = (
    "check.2gen.member",
    "check.star.member", "check.star.nonmember",
    "check.nonstar.member", "check.nonstar.nonmember",
    "factorize.star.all", "factorize.star.extremes",
    "factorize.nonstar.all", "factorize.nonstar.extremes",
    "elasticity.2gen", "elasticity.star", "elasticity.nonstar",
    "limit.star", "limit.star",
    "scan.star.k2", "scan.star.k5",
    "oracle.g3", "oracle.g4", "oracle.g5",
    "error.parse", "error.zero", "error.duplicate", "error.four",
    "error.nonminimal", "error.star_required", "error.not_member", "error.zero_element",
)

# cli_cold covers every subcommand in human, --json and CSV output.
CLI_COLD_STRATA = (
    "check.2gen.member", "check.star.member", "check.nonstar.nonmember",
    "factorize.star.all", "factorize.nonstar.extremes", "factorize.star.one",
    "elasticity.star", "elasticity.nonstar",
    "limit.star", "scan.star.k2", "scan.star.k5",
    "oracle.g3", "oracle.g4",
    "error.parse", "error.star_required", "error.not_member",
)


# ---------------------------------------------------------------------------
# large_x


def _nonstar_large(rng: random.Random, x_target: int, valid: int):
    """A non-star <(0,1),(1,b),(2,d)> and s = (x, y) with exactly ``valid``
    factorizations among the x//2 + 1 representations of x (0: non-member)."""
    t = _pick(rng, NONSTAR_LARGE)
    _, b, _, d = t
    big_d = 2 * b - d
    x = x_target + rng.randint(0, x_target // 100)
    half = x // 2
    if valid:
        # delta >= 0 exactly for beta >= half - valid + 1.
        y = x * b - big_d * (half - valid + 1) + rng.randrange(big_d)
    else:
        # x odd and y between x*d/2 (the cone) and b + d*(x-1)/2 (where the
        # representation with the most (2,d) lifts): every one of the
        # (x+1)/2 representations is walked and none lifts.
        x |= 1
        lo, hi = (x * d + 1) // 2, b + d * (x - 1) // 2 - 1
        y = lo + rng.randint(0, hi - lo)
    return t, (x, y)


def _star_large_member(rng: random.Random, t: tuple, exp10: int):
    """A star member with coordinates near 10**exp10."""
    gens = canon_gens(t)
    hi = 10 ** exp10
    mults = [rng.randint(hi // 20, hi // 5) for _ in gens]
    return (sum(m * g[0] for m, g in zip(mults, gens)), sum(m * g[1] for m, g in zip(mults, gens)))


def _large_x_stratum(name: str, rng: random.Random, recorded: dict, as_json: bool) -> dict:
    parts = name.split(".")
    out = "json" if as_json else "human"
    if parts[0] == "nonstar":
        cmd, bucket = parts[1], parts[2]
        x_target = {"x1e3": 10**3, "x1e4": 10**4, "x1e5": 10**5}[bucket]
        valid = 0 if cmd == "nonmember" else max(4, x_target // 40)
        t, s = _nonstar_large(rng, x_target, valid)
        mat, canon, gens = _present(rng, t)
        command, mode = {
            "check": ("check", "one"), "nonmember": ("check", "one"),
            "extremes": ("factorize", "extremes"), "all": ("factorize", "all"),
            "elasticity": ("elasticity", "one"),
        }[cmd]
        return _query(name, command, mat, canon, gens, s, mode=mode, output=out, family=t)
    if parts[0] == "star" and parts[2] in ("c1e2", "c1e3"):
        cmd, bucket = parts[1], parts[2]
        t = _pick(rng, STAR_TAU_POS + STAR_TAU_NEG)
        s = _star_large_member(rng, t, 2 if bucket == "c1e2" else 3)
        if cmd == "check" and rng.random() < 0.3:
            s = (s[0] + 1, s[1])  # usually a non-member; the oracle decides
        mat, canon, gens = _present(rng, t)
        command, mode = {"check": ("check", "one"), "extremes": ("factorize", "extremes"),
                         "elasticity": ("elasticity", "one"), "all": ("factorize", "all")}[cmd]
        return _query(name, command, mat, canon, gens, s, mode=mode, output=out, family=t)
    # star / 2gen at 10**20 and 10**60: answers recorded at the commit that
    # defined the benchmark (bench/record.py), the seed picks the instance.
    kind, cmd, bucket = parts
    pool = recorded[f"{kind}.{bucket}"]
    entry = _pick(rng, pool)
    t = tuple(entry["family"])
    s = tuple(entry["target_c"])
    mat, canon, gens = _present(rng, t)
    command, mode = {"check": ("check", "one"), "extremes": ("factorize", "extremes"),
                     "elasticity": ("elasticity", "one"), "all": ("factorize", "all")}[cmd]
    return _query(name, command, mat, canon, gens, s, mode=mode, output=out, family=t,
                  expect=f"recorded:{kind}.{bucket}:{pool.index(entry)}")


# The closed-form strata are listed twice, so that well over half the queries
# are closed forms: p50 then sits inside that cluster, while queries_per_s and
# the tail are set by the walk.
_STAR_LARGE = tuple(
    f"star.{cmd}.{b}"
    for b in ("c1e2", "c1e20", "c1e60")
    for cmd in ("check", "extremes", "elasticity")
)
LARGE_X_STRATA = tuple(
    f"nonstar.{cmd}.{b}"
    for b in ("x1e3", "x1e4", "x1e5")
    for cmd in ("check", "nonmember", "extremes", "elasticity", "all")
) + _STAR_LARGE + _STAR_LARGE + (
    "star.all.c1e2", "star.all.c1e3",
    "2gen.check.c1e20", "2gen.check.c1e60", "2gen.all.c1e20", "2gen.all.c1e60",
)


# ---------------------------------------------------------------------------
# multiples


MULTIPLES_KMAX = (1000, 2000)


def _multiples_stratum(name: str, rng: random.Random, recorded: dict, as_json: bool) -> dict:
    # scan.<tau>.<branch>.<kmax> or limit.<tau>.<branch>; instances come from
    # the recorded pool so that the k-row answers can be checked.
    parts = name.split(".")
    pool = recorded[f"multiples.{parts[1]}.{parts[2]}"]
    idx = rng.randrange(len(pool))
    entry = pool[idx]
    t, s = tuple(entry["family"]), tuple(entry["target_c"])
    mat, canon, gens = _present(rng, t)
    if parts[0] == "scan":
        return _query(name, "scan", mat, canon, gens, s, k_max=int(parts[3]),
                      output="json" if as_json else "csv", family=t,
                      expect=f"recorded:multiples.{parts[1]}.{parts[2]}:{idx}")
    return _query(name, "limit", mat, canon, gens, s, output="json" if as_json else "human",
                  approx=rng.random() < 0.5, family=t)


MULTIPLES_STRATA = tuple(
    f"scan.{tau_}.{br}.{k}" for tau_ in ("taupos", "tauneg") for br in ("low", "high")
    for k in MULTIPLES_KMAX
) + tuple(f"limit.{tau_}.{br}" for tau_ in ("taupos", "tauneg") for br in ("low", "high"))


# ---------------------------------------------------------------------------
# entry points


def load_recorded() -> dict:
    with RECORDED_PATH.open() as fh:
        return json.load(fh)


def build(workload: str, seed: int, recorded=None) -> list:
    """The distinct queries of one workload, in cyclic schedule order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if recorded is None and workload in ("large_x", "multiples"):
        recorded = load_recorded()
    strata, make = {
        "query_mix": (QUERY_MIX_STRATA, _mix_stratum),
        "cli_cold": (CLI_COLD_STRATA, _mix_stratum),
        "large_x": (LARGE_X_STRATA, lambda n, r, j: _large_x_stratum(n, r, recorded, j)),
        "multiples": (MULTIPLES_STRATA, lambda n, r, j: _multiples_stratum(n, r, recorded, j)),
    }[workload]
    rng = random.Random(f"{workload}:{seed}")
    queries = []
    for instance in range(INSTANCES[workload]):
        for k, name in enumerate(strata):
            # Output formats alternate, so every seed renders the same mix.
            q = make(name, rng, (k + instance) % 2 == 1)
            q["instance"] = instance
            queries.append(q)
    for i, q in enumerate(queries):
        q["id"] = i
    return queries


def argv(q: dict) -> list:
    """The affmon command line for a query."""
    args = [q["command"], q["monoid"], q["vector"]]
    if q["mode"] == "all":
        args.append("--all")
    elif q["mode"] == "extremes":
        args.append("--extremes")
    if q["k_max"] is not None:
        args += ["--k-max", str(q["k_max"])]
    if q["output"] == "json":
        args.append("--json")
    if q["approx"]:
        args.append("--approx")
    if not q["check_min"]:
        args.append("--no-minimality-check")
    return args


def warmup(queries: list) -> list:
    """One query per stratum, the first instance: what set-up runs before timing.

    Large inputs are skipped so that set-up stays a fixed cost."""
    seen, out = set(), []
    for q in queries:
        if q["stratum"] in seen or any(b in q["stratum"] for b in ("x1e4", "x1e5")):
            continue
        if q["command"] == "scan" and (q["k_max"] or 0) > 100:
            continue
        seen.add(q["stratum"])
        out.append(q)
    return out
