"""Outside-in layer tracer: wraps public functions of the installed package.

Nothing under ``src/`` is changed.  Each traced function is replaced, in every
``hytccp`` module that bound its name, by a wrapper that records one span per
outermost call.  A recursive call made while the same function is already
active is counted as a node, not timed.  Spans are kept in memory and written
out once, when the traced operation is over.
"""
from __future__ import annotations

import importlib
import json
import sys
import time

# (module, function): the layer boundaries named in bench/README.md
FUNCTIONS = (
    ("parser", "parse_program"),
    ("constraints", "conj"),
    ("constraints", "entails"),
    ("semantics", "discrete_successors"),
    ("semantics", "step_agent"),
    ("semantics", "analyze_waiting"),
    ("semantics", "compute_delay"),
    ("flows", "max_delay"),
    ("flows", "evolve"),
    ("simulator", "canonical_key"),
    ("simulator", "explore"),
    ("simulator", "run"),
)
# (module, class, method)
METHODS = (("simulator", "Trace", "to_jsonl"),)
# what an outermost call's result adds to the function's result count
MEASURES = {
    "simulator.explore": lambda report: len(report.states),
    "simulator.to_jsonl": lambda text: len(text.encode("utf-8")),
}
# metric stem -> (module, name) of the lru_cache that serves it
CACHES = {
    "constraints.conj": ("constraints", "_conj_solved"),
    "constraints.entails": ("constraints", "entails"),
}
# modules whose imported names are wrapped too, though `import hytccp` does
# not load them
EXTRA_MODULES = ("hytccp.oracle", "hytccp.cli")


class _Stats:
    __slots__ = ("calls", "nodes", "seconds", "results")

    def __init__(self):
        self.calls = 0  # outermost calls
        self.nodes = 0  # all calls, nested ones included
        self.seconds = 0.0
        self.results = 0  # size of what the outermost calls returned, where measured


class Tracer:
    def __init__(self):
        self.spans: list = []  # (stem, start, end, parent span index or -1)
        self.stats: dict = {}
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)
        self._caches: dict = {}  # stem -> (cached function, cache_info at install)

    # -- installation

    def install(self) -> None:
        for name in EXTRA_MODULES:
            importlib.import_module(name)
        for stem, (mod, name) in CACHES.items():
            # a cache that a later version removes is reported as absent
            fn = getattr(importlib.import_module(f"hytccp.{mod}"), name, None)
            if hasattr(fn, "cache_info"):
                self._caches[stem] = (fn, fn.cache_info())
        modules = [m for n, m in list(sys.modules.items()) if n == "hytccp" or n.startswith("hytccp.")]
        for mod, fn_name in FUNCTIONS:
            original = getattr(importlib.import_module(f"hytccp.{mod}"), fn_name)
            stem = f"{mod}.{fn_name}"
            wrapper = self._wrap(stem, original, MEASURES.get(stem))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for mod, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"hytccp.{mod}"), cls_name)
            stem = f"{mod}.{meth}"
            self._patch(cls, meth, self._wrap(stem, getattr(cls, meth), MEASURES.get(stem)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, stem: str, fn, measure=None):
        stats = self.stats.setdefault(stem, _Stats())
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        active = [False]

        def wrapper(*args, **kwargs):
            stats.nodes += 1
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[0] = False
                spans[index] = (stem, start, end, parent)
                stats.calls += 1
                stats.seconds += end - start
            if measure is not None:
                stats.results += measure(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results

    def metrics(self, wall_s: float, periods: list) -> dict:
        """Per-layer metrics of everything traced since install()."""
        st = self.stats
        out = {"parser.parse_program.s": st["parser.parse_program"].seconds}
        for stem in (
            "constraints.conj",
            "constraints.entails",
            "semantics.discrete_successors",
            "semantics.step_agent",
            "semantics.compute_delay",
            "flows.max_delay",
            "flows.evolve",
            "simulator.canonical_key",
        ):
            out[f"{stem}.calls"] = st[stem].calls
            out[f"{stem}.s"] = st[stem].seconds
        for stem in ("constraints.conj", "semantics.step_agent", "flows.max_delay"):
            out[f"{stem}.share"] = st[stem].seconds / wall_s
        step = st["semantics.step_agent"]
        out["semantics.step_agent.nodes_per_step"] = step.nodes / step.calls if step.calls else 0.0
        for stem, (fn, base) in self._caches.items():
            now = fn.cache_info()
            hits, misses = now.hits - base.hits, now.misses - base.misses
            out[f"{stem}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        keys = st["simulator.canonical_key"].calls
        out["simulator.explore.new_state_ratio"] = st["simulator.explore"].results / keys if keys else 0.0
        out["simulator.to_jsonl.s"] = st["simulator.to_jsonl"].seconds
        out["simulator.to_jsonl.bytes"] = st["simulator.to_jsonl"].results
        # host time of the last simulated period over the first full one
        # (period 0 holds the start-up steps)
        out["simulator.period_cost_ratio"] = periods[-1] / periods[1] if len(periods) > 2 and periods[1] > 0 else 0.0
        return out

    def write_spans(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for stem, start, end, parent in self.spans:
                fh.write(json.dumps([stem, round(start - origin, 9), round(end - origin, 9), parent]) + "\n")

