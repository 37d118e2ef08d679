"""Span tracing for the traced benchmark run, from outside the program.

``Tracer.install`` wraps each target function in every ``affmon`` module that
holds a reference to it (the defining module and each caller module that
imported it), so calls made through any of those names are recorded.  The
wrappers record nested spans -- name, start, end, parent span, query id --
in flat arrays, plus construction counts for the value types by wrapping
their ``__post_init__`` and ``Factorization.checked``.  ``restore`` puts every
original back.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter
from math import gcd

# (defining module, function) pairs that get spans.
TRACED = (
    ("cli", "parse_monoid"), ("cli", "parse_vector"), ("cli", "run"), ("cli", "render"),
    ("cli", "render_human"), ("cli", "render_json"), ("cli", "render_csv"),
    ("monoids", "canonicalize"), ("intlin", "row_swapped_hnf"), ("monoids", "canonical_coords"),
    ("monoids", "validate_minimal_generation"),
    ("oracle", "enumerate_factorizations"), ("oracle", "elasticity_oracle"),
    ("solve2", "member2"), ("solve2", "elasticity2"),
    ("solve3", "member3_star"), ("solve3", "member3_general"),
    ("solve3", "extreme_factorizations"), ("solve3", "elasticity3"),
    ("asymptotics", "rho_limit"), ("asymptotics", "scan_multiples"),
)

# Functions called as f(monoid, s): their spans also record s's size.
SIZED = {"solve3.member3_star", "solve3.member3_general", "solve3.elasticity3"}

# Value-type constructors that are counted, not spanned.
COUNTED = (("rationals", "Vec2"), ("rationals", "ExtRat"))


def walked_representations(m, s) -> int:
    """Representations of s.x that ``member3_general`` walks (0 when it
    returns before the walk), computed from the inputs alone."""
    a, c = m.a, m.c
    if s.x * m.d > s.y * c:
        return 0
    g = gcd(a, c)
    if s.x % g:
        return 0
    step = c // g
    alpha0 = ((s.x // g) * pow(a // g, -1, step)) % step if step > 1 else 0
    if alpha0 * a > s.x:
        return 0
    return (s.x - alpha0 * a) // (a * step) + 1


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.sp_name = array("H")
        self.sp_parent = array("l")
        self.sp_query = array("l")
        self.sp_size = array("l")  # bit length of max(s.x, s.y), -1 if not sized
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.stack: list[int] = []
        self.query = -1
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, name: str, observe=None):
        """A wrapper recording one span per call of ``fn``.

        ``observe(args, result)`` runs after a successful call (outside the
        span) to update counters."""
        nid = self.name_id(name)
        sized = name in SIZED
        clock, stack = self.clock, self.stack
        sp_name, sp_parent, sp_query = self.sp_name, self.sp_parent, self.sp_query
        sp_size, sp_start, sp_end = self.sp_size, self.sp_start, self.sp_end

        def traced(*args, **kwargs):
            idx = len(sp_start)
            sp_name.append(nid)
            sp_parent.append(stack[-1] if stack else -1)
            sp_query.append(self.query)
            if sized:
                s = args[1]
                sp_size.append(max(s.x, s.y).bit_length())
            else:
                sp_size.append(-1)
            sp_end.append(0.0)
            stack.append(idx)
            sp_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                sp_end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _counting(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _observe_general(self, args, result):
        self.counts["member3_general.walked"] += walked_representations(args[0], args[1])
        self.counts["member3_general.returned"] += len(result.factorizations or ())

    def _observe_scan(self, args, result):
        self.counts["scan_multiples.k"] += args[2]

    # -- installation ------------------------------------------------------

    def install(self, package: str = "affmon") -> None:
        """Wrap every target where any ``package.*`` module references it.

        A target the program no longer has is skipped; its metrics read 0."""
        for mod_name, _ in TRACED + COUNTED + (("factorization", "Factorization"),):
            try:
                importlib.import_module(f"{package}.{mod_name}")
            except ImportError:
                pass
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, fn_name in TRACED:
            orig = lookup(package, mod_name, fn_name)
            if orig is None:
                continue
            name = f"{mod_name}.{fn_name}"
            observe = {"solve3.member3_general": self._observe_general,
                       "asymptotics.scan_multiples": self._observe_scan}.get(name)
            wrapper = self.wrap(orig, name, observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)
        for mod_name, cls_name in COUNTED:
            cls = lookup(package, mod_name, cls_name)
            if cls is not None and "__post_init__" in vars(cls):
                self._patch(cls, "__post_init__", self._counting(
                    vars(cls)["__post_init__"], f"{mod_name}.{cls_name}.constructed"))
        fact_cls = lookup(package, "factorization", "Factorization")
        if fact_cls is not None and isinstance(vars(fact_cls).get("checked"), classmethod):
            self._patch(fact_cls, "checked", classmethod(self._counting(
                vars(fact_cls)["checked"].__func__, "factorization.Factorization.checked.calls")))

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis ----------------------------------------------------------

    def spans(self) -> list:
        """Recorded spans as (name, start, end, parent, query) tuples."""
        return [(self.names[n], s, e, p, q) for n, s, e, p, q in
                zip(self.sp_name, self.sp_start, self.sp_end, self.sp_parent, self.sp_query)]

    def self_times(self) -> list:
        return self_times(self.sp_parent, self.sp_start, self.sp_end)


def lookup(package: str, mod_name: str, attr: str):
    """``package.mod_name.attr`` if the loaded program has it, else None."""
    module = sys.modules.get(f"{package}.{mod_name}")
    return getattr(module, attr, None)


def self_times(parent, start, end) -> list:
    """Each span's duration minus the time its child spans cover.

    Spans are single-threaded and properly nested, so children of one parent
    never overlap and their durations add up."""
    out = [e - s for s, e in zip(start, end)]
    for p, s, e in zip(parent, start, end):
        if p >= 0:
            out[p] -= e - s
    return out
