"""In-memory spans around calls into the qksat layers, and the per-layer
metrics derived from them.

Wrappers are installed from outside the program: each one replaces the
name a calling module looks up (for example `qksat.rank_oracle.rank_mod`),
so calls between layers get spans too and no file under `src/` changes.
A span records name, start, end, parent span and op id. Very frequent leaf
calls (one per peel step) are folded into their parent span as a call count
and a time, which keeps the span list small; wrapped calls made inside such a
leaf are not recorded.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
from dataclasses import dataclass, field
from time import perf_counter


def maxrss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    leaf: dict = field(default_factory=dict)   # name -> [calls, seconds]
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []
        self._in_leaf = False

    def wrap(self, module, attr: str, name: str, *, leaf: bool = False,
             attrs=None, rss: bool = False) -> None:
        """Rebind `module.attr` to a recording wrapper.

        `attrs(bound_args, result)` adds attributes after the span closes;
        `rss` records the growth of the process's peak RSS across the call.
        """
        fn = getattr(module, attr)
        sig = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or self._in_leaf:
                return fn(*args, **kwargs)
            if leaf:
                return self._leaf_call(name, fn, args, kwargs)
            idx = self._open(name)
            rss0 = maxrss_mb() if rss else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            span = self.spans[idx]
            if rss:
                span.attrs["rss_growth_mb"] = maxrss_mb() - rss0
            if attrs:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(attrs(bound.arguments, result))
            return result

        setattr(module, attr, wrapper)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    def _leaf_call(self, name, fn, args, kwargs):
        self._in_leaf = True
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._in_leaf = False
            if self._stack:
                slot = self.spans[self._stack[-1]].leaf.setdefault(name, [0, 0.0])
                slot[0] += 1
                slot[1] += dt

    def dump(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "op": s.op, "leaf": s.leaf,
                                     "attrs": s.attrs}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part its children cover.

    Children are merged as intervals clipped to the parent, so overlapping
    or out-of-range children are not subtracted twice; folded leaf time is
    subtracted as recorded, since leaf calls never overlap child spans.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        covered += sum(t for _, t in s.leaf.values())
        out.append(max(s.end - s.start - covered, 0.0))
    return out


def outermost(spans: list[Span], names: set[str], keep) -> list[int]:
    """Indices in `keep` of spans named in `names` with no ancestor also
    named there."""
    out = []
    for i in keep:
        if spans[i].name not in names:
            continue
        p = spans[i].parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            out.append(i)
    return out


class SpanStats:
    """Sums over the spans of a set of ops (one traced pass of a workload)."""

    def __init__(self, spans: list[Span], self_s: list[float], ops: set[int]):
        self.spans = spans
        self.self_s = self_s
        self.keep = [i for i, s in enumerate(spans) if s.op in ops]

    def _named(self, name: str):
        return (self.spans[i] for i in self.keep if self.spans[i].name == name)

    def calls(self, name: str) -> int:
        return len(outermost(self.spans, {name}, self.keep))

    def busy_s(self, *names: str) -> float:
        return sum(self.spans[i].end - self.spans[i].start
                   for i in outermost(self.spans, set(names), self.keep))

    def self_total(self, name: str) -> float:
        return sum(self.self_s[i] for i in self.keep
                   if self.spans[i].name == name)

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in self._named(name))

    def attr_max(self, name: str, key: str) -> float:
        return max((s.attrs.get(key, 0.0) for s in self._named(name)),
                   default=0.0)

    def leaf(self, name: str) -> tuple[int, float]:
        calls, secs = 0, 0.0
        for i in self.keep:
            c, t = self.spans[i].leaf.get(name, (0, 0.0))
            calls += c
            secs += t
        return calls, secs

    def children_of(self, parent: str, names: set[str]) -> int:
        return sum(1 for i in self.keep if self.spans[i].name in names
                   and self.spans[i].parent >= 0
                   and self.spans[self.spans[i].parent].name == parent)
