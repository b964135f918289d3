"""Spans around the library's public functions, recorded from outside.

``Tracer.installed()`` replaces each public function at the names its
callers bind (``simulate.sample_sbm``, ``counting.automorphism_count``,
``bounds.compute_stats`` ...) with a wrapper that records a span: id,
parent id, name, start, end and the exception raised, if any.  Spans stay
in memory; ``dump`` writes them out at the end.  A span's self time is its
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

from motif_poisson import bounds, counting, motif, simulate

#: (module, attribute) pairs the wrappers replace.  A span is named
#: ``<defining module>.<function>``, which is the layer it belongs to.
BINDINGS = [
    (simulate, name)
    for name in (
        "run",
        "sample_sbm",
        "sample_graphon",
        "count_copies",
        "mu_sbm",
        "mu_graphon",
        "lambda_value",
        "bound_sbm",
        "bound_graphon",
        "tv_distance_empirical",
        "tv_standard_error",
    )
] + [
    (counting, "automorphism_count"),
    (motif, "automorphism_count"),
    (motif, "compute_stats"),
] + [
    (bounds, name)
    for name in (
        "compute_stats",
        "mu_sbm",
        "mu_graphon",
        "mu_graphon_with_error",
        "lambda_value",
        "bound_sbm",
        "bound_graphon",
    )
]


def _graph_facts(graph) -> dict:
    return {"edges": graph.edge_count}


def _count_facts(c) -> dict:
    return {"copies": c.count, "injections": c.injections}


#: Counts recorded from a call's result, outside the span's interval.
FACTS = {"count_copies": _count_facts, "sample_sbm": _graph_facts, "sample_graphon": _graph_facts}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    error: str | None = None
    facts: dict = field(default_factory=dict)


class Tracer:
    """Records spans of serial calls: the innermost open span is the
    parent, so traced code must not run library calls on other threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        facts = FACTS.get(fn.__name__)
        stack = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(self.spans), parent, name, time.perf_counter())
            self.spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if facts:
                span.facts = facts(result)
            return result

        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding that exists for the duration of the block."""
        saved = []
        try:
            for module, attr in BINDINGS:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                layer = fn.__module__.rsplit(".", 1)[-1]
                setattr(module, attr, self.wrap(fn, f"{layer}.{attr}"))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def dump(self, path) -> None:
        rows = [
            [s.id, s.parent, s.name, s.start, s.end, s.error, s.facts]
            for s in self.spans
        ]
        fields = ["id", "parent", "name", "start", "end", "error", "facts"]
        path.write_text(json.dumps({"fields": fields, "spans": rows}))


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.id: (s.end - s.start)
        - _covered([(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]])
        for s in spans
    }


def layer_totals(spans: list[Span], selfs: dict[int, float]) -> dict[str, float]:
    """One traced pass's per-layer metrics: ``*_s`` are summed self times,
    ``simulate.run_s`` the inclusive time of the run() calls."""

    def total_self(match) -> float:
        return sum(selfs[s.id] for s in spans if match(s.name))

    def count(match) -> int:
        return sum(1 for s in spans if match(s.name))

    def fact(key) -> int:
        return sum(s.facts.get(key, 0) for s in spans)

    def named(name):
        return lambda n: n == name

    def sample(n):
        return n.startswith("models.sample_")

    def bound(n):
        return n.startswith("bounds.bound_") or n == "bounds.lambda_value"

    # calls into the bounds layer from outside it; nested bounds calls
    # (bound_graphon -> mu_graphon_with_error -> mu_sbm) are one call
    name_of = {s.id: s.name for s in spans}
    entries = [
        s
        for s in spans
        if s.name.startswith("bounds.")
        and not name_of.get(s.parent, "").startswith("bounds.")
    ]
    runs = [s for s in spans if s.name == "simulate.run"]
    copies, injections = fact("copies"), fact("injections")
    return {
        "models.sample_s": total_self(sample),
        "models.graphs": count(sample),
        "models.edges": fact("edges"),
        "counting.count_s": total_self(named("counting.count_copies")),
        "counting.copies": copies,
        "counting.injections": injections,
        "counting.useful_ratio": copies / injections if injections else 0.0,
        "motif.automorphism_count_s": total_self(named("motif.automorphism_count")),
        "motif.automorphism_calls": count(named("motif.automorphism_count")),
        "motif.compute_stats_s": total_self(named("motif.compute_stats")),
        "motif.compute_stats_calls": count(named("motif.compute_stats")),
        "bounds.mu_s": total_self(lambda n: n.startswith("bounds.mu_")),
        "bounds.bound_s": total_self(bound),
        "bounds.calls": len(entries),
        "bounds.failed": sum(1 for s in entries if s.error),
        "poisson.tv_distance_s": total_self(named("poisson.tv_distance_empirical")),
        "poisson.tv_distance_calls": count(named("poisson.tv_distance_empirical")),
        "simulate.tv_standard_error_s": total_self(named("simulate.tv_standard_error")),
        "simulate.run_s": sum(s.end - s.start for s in runs),
        "simulate.self_s": sum(selfs[s.id] for s in runs),
        "simulate.plans": len(runs),
    }


def unaccounted(spans: list[Span], selfs: dict[int, float]) -> list[tuple[str, str]]:
    """Each serial run() span must equal the sum of the self times in its
    subtree; a wrong parent link breaks the equality."""
    parent = {s.id: s.parent for s in spans}
    subtree_self: dict[int, float] = defaultdict(float)
    for s in spans:
        p = s.id
        while p is not None:
            subtree_self[p] += selfs[s.id]
            p = parent.get(p)
    return [
        (f"span{s.id}", f"run() took {s.end - s.start} s but its self times sum to {subtree_self[s.id]} s")
        for s in spans
        if s.name == "simulate.run"
        and abs(subtree_self[s.id] - (s.end - s.start)) > 1e-9 * max(1.0, s.end - s.start)
    ]
