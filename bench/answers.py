"""Expected answers and answer checking for the affmon benchmark.

Expected answers come from ``oracle.enumerate_factorizations`` (independent
of the solvers) for every input the oracle finishes during set-up, and from
``recorded.json`` (answers recorded by ``record.py``) for the rest.  Both are
computed on the canonical side, which is index-aligned with the presented
generators (see ``workloads``).

``verify`` compares one outcome with its expectation.  Independently of the
expectation, every returned factorization is mapped back to the presented
generators through the transform in the report and multiplied back to the
presented target.  Expected errors (a stable error code with exit status 1
or 2) are answers like any other.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from workloads import apply, tau

SCAN_HEADER = "k,rho_exact,rho_limit,gap"


def rat(text: str):
    """Parse an ExtRat rendering ("p", "p/q" or "inf")."""
    return "inf" if text == "inf" else Fraction(text)


def rows_digest(exact) -> str:
    """Digest of the exact elasticities rho(k*s), k = 1, 2, ..."""
    body = ";".join(f"{k}:{v.numerator}/{v.denominator}" for k, v in enumerate(exact, 1))
    return hashlib.sha256(body.encode()).hexdigest()


# ---------------------------------------------------------------------------
# expectations


class Expector:
    """Computes expected answers with the oracle, memoized per (gens, target)."""

    def __init__(self, oracle, vec2, recorded: dict):
        self._enum = oracle.enumerate_factorizations
        self._vec2 = vec2
        self._recorded = recorded
        self._memo: dict = {}

    def facts(self, gens, target) -> tuple:
        key = (tuple(map(tuple, gens)), tuple(target))
        if key not in self._memo:
            fs = self._enum(tuple(self._vec2(*g) for g in gens), self._vec2(*target))
            self._memo[key] = tuple(f.mults for f in fs.facts)
        return self._memo[key]

    def rho(self, gens, target):
        lengths = [sum(m) for m in self.facts(gens, target)]
        return Fraction(max(lengths), min(lengths)) if lengths else None

    def expected(self, q: dict) -> dict:
        spec = q["expect"]
        if spec.startswith("error:"):
            _, code, status = spec.split(":")
            return {"error": code, "exit": int(status)}
        if spec.startswith("recorded:"):
            _, key, idx = spec.split(":")
            return recorded_expectation(q, self._recorded[key][int(idx)])
        cmd = q["command"]
        if cmd == "oracle":
            gens, s = q["gens"], q["target"]
        else:
            gens, s = q["canon"], q["target_c"]
        facts = self.facts(gens, s)
        member = bool(facts)
        lengths = sorted(sum(m) for m in facts)
        exp = {"error": None, "exit": 0 if member else 1, "member": member,
               "count": len(facts), "facts": set(facts), "lengths": lengths}
        if member:
            exp["lmin"], exp["lmax"] = lengths[0], lengths[-1]
        if cmd == "oracle":
            if member and any(s):
                exp["rho"] = Fraction(lengths[-1], lengths[0])
            return exp
        if cmd in ("elasticity", "limit", "scan"):
            if not any(s):
                return {"error": "ZeroElement", "exit": 2}
            if not member:
                return {"error": "NotMember", "exit": 1}
        if cmd == "elasticity":
            return {"error": None, "exit": 0, "rho": Fraction(lengths[-1], lengths[0])}
        if cmd in ("limit", "scan"):
            a, _, c, _ = q["family"]
            # The limit equals rho(k*s) exactly on the residue class a*c | k.
            k = a * c
            exp = {"error": None, "exit": 0, "tau": tau(q["family"]),
                   "rho_limit": self.rho(gens, (k * s[0], k * s[1]))}
            if cmd == "scan":
                exp["rows"] = [self.rho(gens, (j * s[0], j * s[1])) for j in range(1, q["k_max"] + 1)]
            return exp
        return exp


def recorded_expectation(q: dict, entry: dict) -> dict:
    cmd = q["command"]
    if cmd == "scan":
        rec = entry["scan"]
        return {"error": None, "exit": 0, "tau": rec["tau"], "rho_limit": Fraction(rec["rho_limit"]),
                "digest": rec["digest"][str(q["k_max"])]}
    key = "elasticity" if cmd == "elasticity" else "check" if q["mode"] == "one" else q["mode"]
    rec = entry["answers"][key]
    if rec.get("error"):
        return {"error": rec["error"], "exit": rec["exit"]}
    exp = {"error": None, "exit": rec["exit"], "member": rec.get("member", True)}
    for field in ("lmin", "lmax", "count"):
        if field in rec:
            exp[field] = rec[field]
    if "rho" in rec:
        exp["rho"] = Fraction(rec["rho"])
    return exp


# ---------------------------------------------------------------------------
# checking


def _mapper(q: dict, out: dict):
    """Map canonical multiplicities to the presented generator order."""
    if q["command"] == "oracle":
        return tuple
    gens = [tuple(g) for g in q["gens"]]
    images = [apply(out["transform"], g) for g in gens]
    perm = []
    for cg in out["canonical"]:
        cg = tuple(cg)
        if cg not in images:
            raise ValueError(f"canonical generator {cg} is not the image of a presented one")
        perm.append(images.index(cg))
    if sorted(perm) != list(range(len(gens))):
        raise ValueError("canonical generators are not a permutation of the presented ones")

    def to_presented(mults):
        if len(mults) != len(perm):
            raise ValueError(f"{len(mults)} multiplicities for {len(perm)} generators")
        res = [0] * len(perm)
        for j, m in enumerate(mults):
            res[perm[j]] = m
        return tuple(res)

    return to_presented


def _multiplies_back(q: dict, mults) -> bool:
    if any(m < 0 for m in mults):
        return False
    x = sum(m * g[0] for m, g in zip(mults, q["gens"]))
    y = sum(m * g[1] for m, g in zip(mults, q["gens"]))
    return [x, y] == list(q["target"])


def verify(q: dict, exp: dict, out: dict):
    """None when the outcome matches, else a one-line reason.

    ``out`` holds ``exit``, ``error`` (code or None), ``result`` (the report's
    result dict), ``canonical`` (canonical generators) and ``transform``."""
    try:
        return _verify(q, exp, out)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed result: {type(exc).__name__}: {exc}"


def _verify(q, exp, out):
    if exp.get("error"):
        if out["error"] != exp["error"] or out["exit"] != exp["exit"]:
            return f"expected error {exp['error']}/{exp['exit']}, got {out['error']}/{out['exit']}"
        return None
    if out["error"] is not None:
        return f"unexpected error {out['error']}"
    if out["exit"] != exp["exit"]:
        return f"exit {out['exit']} != {exp['exit']}"
    res, cmd = out["result"], q["command"]
    to_presented = _mapper(q, out)

    def fact_ok(payload) -> bool:
        mults = to_presented(payload["mults"])
        return _multiplies_back(q, mults) and payload["length"] == sum(mults)

    if cmd in ("check", "factorize", "oracle"):
        if res["member"] != exp["member"]:
            return f"member {res['member']} != {exp['member']}"
        if not exp["member"]:
            return None
    if cmd == "check" or (cmd == "factorize" and q["mode"] == "one"):
        return None if fact_ok(res["factorization"]) else "witness does not multiply back"
    if cmd == "oracle" or (cmd == "factorize" and q["mode"] == "all"):
        facts = [to_presented(p["mults"]) for p in res["factorizations"]]
        if not all(fact_ok(p) for p in res["factorizations"]):
            return "a factorization does not multiply back"
        if len(set(facts)) != len(facts) or len(facts) != res["count"]:
            return "duplicate factorizations or wrong count"
        if "count" in exp and res["count"] != exp["count"]:
            return f"count {res['count']} != {exp['count']}"
        if "facts" in exp and set(facts) != exp["facts"]:
            return "factorization set differs from the oracle"
        if "lengths" in exp and sorted(res["lengths"]) != exp["lengths"]:
            return "length multiset differs"
        if cmd == "oracle" and "rho" in exp and rat(res["rho"]) != exp["rho"]:
            return f"rho {res['rho']} != {exp['rho']}"
        return None
    if cmd == "factorize":  # extremes
        short, long_ = res["shortest"], res["longest"]
        if not (fact_ok(short) and fact_ok(long_)):
            return "an extreme factorization does not multiply back"
        if (short["length"], long_["length"]) != (exp["lmin"], exp["lmax"]):
            return f"extreme lengths {short['length']},{long_['length']} != {exp['lmin']},{exp['lmax']}"
        return None
    if cmd == "elasticity":
        return None if rat(res["rho"]) == exp["rho"] else f"rho {res['rho']} != {exp['rho']}"
    if cmd == "limit":
        if res["tau"] != exp["tau"] or rat(res["rho_limit"]) != exp["rho_limit"]:
            return f"limit {res['tau']},{res['rho_limit']} != {exp['tau']},{exp['rho_limit']}"
        return None
    if cmd == "scan":
        rows = res["rows"]
        if [r["k"] for r in rows] != list(range(1, q["k_max"] + 1)):
            return "scan rows do not run k = 1..k_max"
        exact = [rat(r["rho_exact"]) for r in rows]
        for r, e in zip(rows, exact):
            if rat(r["rho_limit"]) != exp["rho_limit"] or rat(r["gap"]) != abs(exp["rho_limit"] - e):
                return f"scan row {r['k']}: limit or gap wrong"
        if "rows" in exp and exact != exp["rows"]:
            return "scan elasticities differ from the oracle"
        if "digest" in exp and rows_digest(exact) != exp["digest"]:
            return "scan elasticities differ from the recorded answers"
        return None
    return f"unknown command {cmd}"


def render_matches(q: dict, res: dict, text: str) -> bool:
    """Whether the rendered text carries the same answer as the result dict."""
    if q["output"] == "json":
        payload = json.loads(text)
        return payload["command"] == q["command"] and payload["result"] == res
    if q["command"] == "scan":
        want = [SCAN_HEADER] + [f"{r['k']},{r['rho_exact']},{r['rho_limit']},{r['gap']}" for r in res["rows"]]
        return text.split("\n") == want
    lines = set(text.split("\n"))
    want = []
    if "member" in res:
        want.append("member: " + ("yes" if res["member"] else "no"))
    if "factorization" in res:
        want.append(_fact_line("factorization: ", res["factorization"]))
    if "factorizations" in res:
        want.append(f"factorizations ({res['count']}):")
        want += [_fact_line("  ", p) for p in res["factorizations"]]
    if "lengths" in res and res["lengths"]:
        want.append("lengths: " + " ".join(str(n) for n in res["lengths"]))
    if "shortest" in res:
        want += [_fact_line("shortest: ", res["shortest"]), _fact_line("longest: ", res["longest"])]
    for key in ("rho", "rho_limit"):
        if key in res:
            want.append(f"{key} = {res[key]}")
            lines |= {line.split(" (~")[0] for line in lines}
    if "tau" in res:
        want.append(f"tau: {res['tau']}")
    return all(w in lines for w in want)


def _fact_line(prefix: str, payload: dict) -> str:
    return f"{prefix}({', '.join(str(v) for v in payload['mults'])})  length={payload['length']}"
