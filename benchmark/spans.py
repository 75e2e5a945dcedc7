"""Layer spans for the traced benchmark pass, recorded from outside.

The tracer wraps public attributes of the package's modules for the
duration of one pass and restores every original afterwards.  Functions
are wrapped where their callers look them up: `towers` imports
`build_quotient` by name, so the tower layer's builds are seen through
`towers.build_quotient`, not `quotients.build_quotient`.  A target the
package no longer has is recorded as absent and skipped, so the benchmark
keeps running when a refactor removes a layer.

Counts come from the calls' own arguments and results: search nodes from
the `Budget` every search receives (a fresh unlimited one is passed when
the caller gave none), colorings from the enumeration's return value,
edges from the built graph.  No clock is read inside the package's loops;
each span costs two clock reads per call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Stat:
    """Aggregate of all spans with one name: calls, seconds, counters, and
    the seconds spent in each kind of child span."""

    calls: int = 0
    s: float = 0.0
    counts: dict = field(default_factory=dict)
    child_s: dict = field(default_factory=dict)


def _graph_edges(result) -> int:
    graph = getattr(result, "graph", result)
    return graph.edge_count


def _nodes_before(kwargs, budget_type):
    budget = kwargs.get("budget")
    if budget is None:
        budget = kwargs["budget"] = budget_type()
    return budget, budget.nodes


def _search(args, kwargs, budget_type):
    budget, before = _nodes_before(kwargs, budget_type)
    return lambda result: {"nodes": budget.nodes - before}


def _enumeration(args, kwargs, budget_type):
    budget, before = _nodes_before(kwargs, budget_type)
    return lambda count: {"nodes": budget.nodes - before, "colorings": count}


def _builder(args, kwargs, budget_type):
    return lambda result: {"edges": _graph_edges(result)}


def _candidates(args, kwargs, budget_type):
    return lambda result: {"candidates": len(result)}


def _separators(args, kwargs, budget_type):
    return lambda result: {"found": len(result)}


def _properness(args, kwargs, budget_type):
    return lambda result: {"edges": _graph_edges(args[0])}


# (module, attribute, span names, counter factory or None).  A call into a
# target is one span under each of its names.
TARGETS = (
    ("quotients", "build_quotient", ("build",), _builder),
    ("towers", "build_quotient", ("build",), _builder),
    ("towers", "cayley_window", ("build",), _builder),
    ("instances", "build_quotient", ("build",), _builder),
    ("instances", "cayley_window", ("build",), _builder),
    ("grid", "two_orbit_graph", ("build",), _builder),
    ("chi", "find_coloring", ("chi.find",), _search),
    ("quotients", "find_coloring", ("chi.find",), _search),
    ("towers", "find_coloring", ("chi.find",), _search),
    ("twoended", "find_coloring", ("chi.find", "te.piece"), _search),
    ("grid", "enumerate_colorings", ("chi.enum",), _enumeration),
    ("chi", "greedy_clique", ("chi.bounds",), None),
    ("chi", "dsatur_greedy", ("chi.bounds",), None),
    ("twoended", "find_separators", ("sep.find",), _separators),
    ("twoended", "connected_subsets", ("sep.enum",), _candidates),
    ("twoended", "divides_into_two", ("sep.cut",), None),
    ("twoended", "build_separator_family", ("sep.select",), None),
    ("instances", "components", ("graphs.components",), None),
    ("towers", "transfer_schedule", ("tower.schedule",), None),
    ("towers", "is_proper", ("proper", "tower.proper"), _properness),
    ("twoended", "is_proper", ("proper",), _properness),
)


class Tracer:
    """Span aggregates for one traced pass."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.present: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[dict] = []

    def _close(self, names, start, child_s, counts):
        elapsed = time.perf_counter() - start
        for name in names:
            stat = self.stats.setdefault(name, Stat())
            stat.calls += 1
            stat.s += elapsed
            for key, value in child_s.items():
                stat.child_s[key] = stat.child_s.get(key, 0.0) + value
            for key, value in counts.items():
                stat.counts[key] = stat.counts.get(key, 0) + value
        if self._stack:
            parent = self._stack[-1]
            for name in names:
                parent[name] = parent.get(name, 0.0) + elapsed

    @contextmanager
    def span(self, name: str):
        """A span opened from the benchmark's own call site."""
        child_s: dict = {}
        self._stack.append(child_s)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self._close((name,), start, child_s, {})

    def _wrap(self, original, names, counter, budget_type):
        def traced(*args, **kwargs):
            after = counter(args, kwargs, budget_type) if counter else None
            child_s: dict = {}
            self._stack.append(child_s)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._stack.pop()
            counts = after(result) if after else {}
            self._close(names, start, child_s, counts)
            return result

        return traced

    @contextmanager
    def installed(self, package):
        """Wrap every target present in `package` for the duration of the
        block; the originals are back in place when it exits, raised or not."""
        budget_type = package.Budget
        saved = []
        try:
            for module_name, attr, names, counter in TARGETS:
                module = getattr(package, module_name, None)
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                self.present.update(names)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, names, counter, budget_type))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def counts(self) -> dict:
        """Current value of every per-layer count metric."""
        return {
            name: value(self, 0.0)
            for name, unit, _, value in LAYER_METRICS
            if unit == "count"
        }


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _self_s(stat: Stat, child: str) -> float:
    return stat.s - stat.child_s.get(child, 0.0)


# (metric, unit, wrapped span it reads, value from (tracer, traced pass
# seconds)).  A metric whose span has no target left in the package is
# reported absent; None marks spans the benchmark opens around its own calls.
LAYER_METRICS = (
    ("build.calls", "count", "build", lambda t, w: t.stat("build").calls),
    ("build.s", "s", "build", lambda t, w: t.stat("build").s),
    ("build.edges", "count", "build", lambda t, w: t.stat("build").counts.get("edges", 0)),
    ("build.edges_per_s", "1/s", "build", lambda t, w: _rate(t.stat("build").counts.get("edges", 0), t.stat("build").s)),
    ("build.share", "ratio", "build", lambda t, w: _rate(t.stat("build").s, w)),
    ("chi.find.calls", "count", "chi.find", lambda t, w: t.stat("chi.find").calls),
    ("chi.find.s", "s", "chi.find", lambda t, w: t.stat("chi.find").s),
    ("chi.find.nodes", "count", "chi.find", lambda t, w: t.stat("chi.find").counts.get("nodes", 0)),
    ("chi.find.nodes_per_s", "1/s", "chi.find", lambda t, w: _rate(t.stat("chi.find").counts.get("nodes", 0), t.stat("chi.find").s)),
    ("chi.enum.calls", "count", "chi.enum", lambda t, w: t.stat("chi.enum").calls),
    ("chi.enum.s", "s", "chi.enum", lambda t, w: t.stat("chi.enum").s),
    ("chi.enum.nodes", "count", "chi.enum", lambda t, w: t.stat("chi.enum").counts.get("nodes", 0)),
    ("chi.enum.colorings", "count", "chi.enum", lambda t, w: t.stat("chi.enum").counts.get("colorings", 0)),
    ("chi.enum.colorings_per_s", "1/s", "chi.enum", lambda t, w: _rate(t.stat("chi.enum").counts.get("colorings", 0), t.stat("chi.enum").s)),
    ("chi.enum.yield", "ratio", "chi.enum", lambda t, w: _rate(t.stat("chi.enum").counts.get("colorings", 0), t.stat("chi.enum").counts.get("nodes", 0))),
    ("chi.bounds.s", "s", "chi.bounds", lambda t, w: t.stat("chi.bounds").s),
    ("grid.verify.self_s", "s", None, lambda t, w: _self_s(t.stat("grid.verify"), "chi.enum")),
    ("sep.candidates", "count", "sep.enum", lambda t, w: t.stat("sep.enum").counts.get("candidates", 0)),
    ("sep.enum_s", "s", "sep.enum", lambda t, w: t.stat("sep.enum").s),
    ("sep.cut_tests", "count", "sep.cut", lambda t, w: t.stat("sep.cut").calls),
    ("sep.cut_s", "s", "sep.cut", lambda t, w: t.stat("sep.cut").s),
    ("sep.cut_tests_per_s", "1/s", "sep.cut", lambda t, w: _rate(t.stat("sep.cut").calls, t.stat("sep.cut").s)),
    ("sep.found", "count", "sep.find", lambda t, w: t.stat("sep.find").counts.get("found", 0)),
    ("sep.hit_ratio", "ratio", "sep.cut", lambda t, w: _rate(t.stat("sep.find").counts.get("found", 0), t.stat("sep.cut").calls)),
    ("sep.select_s", "s", "sep.select", lambda t, w: t.stat("sep.select").s),
    ("graphs.components.calls", "count", "graphs.components", lambda t, w: t.stat("graphs.components").calls),
    ("graphs.components.s", "s", "graphs.components", lambda t, w: t.stat("graphs.components").s),
    ("te.pieces", "count", "te.piece", lambda t, w: t.stat("te.piece").calls),
    ("te.color_s", "s", "te.piece", lambda t, w: t.stat("te.piece").s),
    ("tower.count", "count", None, lambda t, w: t.stat("tower").calls),
    ("tower.schedule_s", "s", "tower.schedule", lambda t, w: t.stat("tower.schedule").s),
    ("tower.proper_s", "s", "tower.proper", lambda t, w: t.stat("tower.proper").s),
    ("proper.calls", "count", "proper", lambda t, w: t.stat("proper").calls),
    ("proper.s", "s", "proper", lambda t, w: t.stat("proper").s),
    ("proper.edges", "count", "proper", lambda t, w: t.stat("proper").counts.get("edges", 0)),
)


def layer_metrics(tracer: Tracer, traced_s: float) -> tuple[dict, list[str]]:
    """Per-layer values of one traced pass that took `traced_s` seconds,
    plus the names of the metrics whose layer is absent (reported as 0)."""
    values, absent = {}, []
    for name, unit, span, value in LAYER_METRICS:
        if span is None or span in tracer.present:
            values[name] = (value(tracer, traced_s), unit)
        else:
            values[name] = (0, unit)
            absent.append(name)
    return values, absent
