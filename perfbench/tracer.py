"""Per-layer tracing of rdftuner from outside the package.

The tracer replaces public functions and methods with timing wrappers.
Each wrapper keeps, in memory, a call count, the total time and the self
time (total minus the time of wrapped calls made inside it), and, for the
coarse phases, a span with a parent id.  A wrapper is rebound under every
module attribute that holds the original function, so call sites that
imported the name directly (``from .states import iter_transitions``) see
it too.  Nested calls of the same function count once, at the outermost
call, which keeps recursive functions from counting twice.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# module and attribute of each function timed with count, total and self time
FUNCTIONS = {
    "store.load": ("rdftuner.store", "load_triples"),
    "store.evaluate": ("rdftuner.store", "evaluate"),
    "store.materialize": ("rdftuner.store", "materialize"),
    "stats.collect": ("rdftuner.stats", "collect_statistics"),
    "queries.view_key": ("rdftuner.queries", "view_key"),
    "queries.canonical_body_key": ("rdftuner.queries", "canonical_body_key"),
    "queries.bodies_isomorphic": ("rdftuner.queries", "bodies_isomorphic"),
    "queries.make_union": ("rdftuner.queries", "make_union"),
    "reasoning.reformulate": ("rdftuner.reasoning", "reformulate"),
    "reasoning.saturate": ("rdftuner.reasoning", "saturate"),
    "reasoning.reformulate_views": ("rdftuner.reasoning", "reformulate_views_for_materialization"),
    "algebra.replace_scans": ("rdftuner.algebra", "replace_scans"),
    "algebra.eval_expr": ("rdftuner.algebra", "eval_expr"),
    "search.run": ("rdftuner.search", "run_search"),
    "cli.tune": ("rdftuner.cli", "cmd_tune"),
}

# module, class and method of each method timed like FUNCTIONS
METHODS = {
    "cost.state_cost": ("rdftuner.cost", "Estimator", "state_cost"),
    "cost.body_rows": ("rdftuner.cost", "Estimator", "body_rows"),
    "cost.rewriting_cost": ("rdftuner.cost", "Estimator", "rewriting_cost"),
    "store.count_pattern": ("rdftuner.store", "TripleStore", "count_pattern"),
}

# module, attribute and owning class of hot functions that are only
# counted: a timer around each call would cost more than the call
COUNTED = {
    "queries.are_equivalent": ("rdftuner.queries", "are_equivalent", None),
    "store.lookup": ("rdftuner.store", "lookup", "TripleStore"),
}

# the coarse phases that also record spans
SPANS = {
    "store.load": "load",
    "stats.collect": "stats",
    "search.run": "search",
    "store.materialize": "materialize",
    "reasoning.reformulate": "reformulate",
    "reasoning.saturate": "saturate",
    "cli.tune": "tune",
}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.hits: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [name, child seconds, span id]
        self._active: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)
        self._search_end = 0.0
        self.t0 = time.perf_counter()

    # -- accounting --------------------------------------------------------

    def _enter(self, name: str) -> tuple[list, float]:
        span_id = None
        if name in SPANS:
            span_id = len(self.spans)
            parent = next((f[2] for f in reversed(self._stack) if f[2] is not None), None)
            self.spans.append({"id": span_id, "parent": parent, "name": SPANS[name],
                               "start": time.perf_counter() - self.t0, "end": None})
        frame = [name, 0.0, span_id]
        self._stack.append(frame)
        self._active[name] += 1
        return frame, time.perf_counter()

    def _leave(self, frame: list, start: float) -> float:
        end = time.perf_counter()
        dt = end - start
        name = frame[0]
        self._stack.pop()
        self._active[name] -= 1
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += dt - frame[1]
        if self._stack:
            self._stack[-1][1] += dt
        if frame[2] is not None:
            self.spans[frame[2]]["end"] = end - self.t0
        return end

    def timed(self, name: str, fn, key=None, on_result=None):
        def wrapper(*args, **kwargs):
            if self._active[name]:
                return fn(*args, **kwargs)
            if key is not None:
                k = key(args)
                if k in self._seen[name]:
                    self.hits[name] += 1
                else:
                    self._seen[name].add(k)
            frame, start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._leave(frame, start)
            if on_result is not None:
                on_result(args, result, end)
            return result

        return wrapper

    def timed_generator(self, name: str, fn):
        """Times each next() of the generator fn returns, not the time
        the caller spends between items."""

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame, start = self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(frame, start)
                yield item

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for mod, *_ in [*FUNCTIONS.values(), *METHODS.values(), *COUNTED.values()]:
            importlib.import_module(mod)
        hooks = {
            "cost.state_cost": dict(key=lambda a: a[1].uid),
            "cost.body_rows": dict(key=lambda a: a[1]),
            "reasoning.reformulate": dict(on_result=self._on_reformulate),
            "reasoning.saturate": dict(on_result=self._on_saturate),
            "stats.collect": dict(on_result=self._on_collect),
            "search.run": dict(on_result=self._on_search),
            "cli.tune": dict(on_result=self._on_tune),
        }
        for name, (mod, attr) in FUNCTIONS.items():
            orig = getattr(sys.modules[mod], attr)
            inner = self._observed_search(orig) if name == "search.run" else orig
            self._rebind(orig, self.timed(name, inner, **hooks.get(name, {})))
        for name, (mod, cls, attr) in METHODS.items():
            owner = getattr(sys.modules[mod], cls)
            setattr(owner, attr, self.timed(name, getattr(owner, attr), **hooks.get(name, {})))
        for name, (mod, attr, cls) in COUNTED.items():
            owner = sys.modules[mod] if cls is None else getattr(sys.modules[mod], cls)
            orig = getattr(owner, attr)
            if cls is None:
                self._rebind(orig, self.counted(name, orig))
            else:
                setattr(owner, attr, self.counted(name, orig))
        orig = sys.modules["rdftuner.states"].iter_transitions
        self._rebind(orig, self.timed_generator("states.transitions", orig))

    @staticmethod
    def _rebind(orig, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("rdftuner"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)

    def _observed_search(self, run_search):
        """run_search, counting each transition kind through the search's
        own observer hook."""

        def observed(initial, estimator, ctx, config=None):
            config = config or sys.modules["rdftuner.search"].SearchConfig()
            inner = config.on_transition

            def on_transition(kind, parent, child):
                self.counters[f"states.{kind}_applied"] += 1
                if inner is not None:
                    inner(kind, parent, child)

            config.on_transition = on_transition
            return run_search(initial, estimator, ctx, config)

        return observed

    # -- result hooks -------------------------------------------------------

    def _on_reformulate(self, args, union, end) -> None:
        self.counters["reasoning.members"] += len(union.members)

    def _on_saturate(self, args, out, end) -> None:
        self.counters["reasoning.saturate_added"] += len(out) - len(args[0])

    def _on_collect(self, args, stats, end) -> None:
        self.counters["stats.patterns"] += len(stats.pattern_counts)

    def _on_search(self, args, result, end) -> None:
        c = self.counters
        c["search.created"] += result.created
        c["search.duplicates"] += result.duplicates
        c["search.transitions"] += result.transitions
        c["search.peak_frontier"] = max(c["search.peak_frontier"], result.peak_frontier)
        if result.trace:
            c["search.time_to_best_s"] += result.trace[-1][0]
        self._search_end = end

    def _on_tune(self, args, rc, end) -> None:
        # building, serializing and writing the document follow the search
        if self._search_end:
            self.counters["cli.document_s"] += end - self._search_end
            tune = max((s["id"] for s in self.spans if s["name"] == "tune"), default=None)
            self.spans.append({"id": len(self.spans), "parent": tune, "name": "document",
                               "start": self._search_end - self.t0, "end": end - self.t0})
            self._search_end = 0.0

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "hits": dict(self.hits),
            "counters": dict(self.counters),
            "spans": self.spans,
        }
