"""Timing wrappers installed at the program's import sites, and the per-layer
metrics computed from the spans they record.

A layer is one function of a ``drbottleneck`` module (or a SciPy solver the
package calls).  ``Tracer.install`` replaces the function in every
``drbottleneck`` module that holds it, so calls made through any import site
are timed.  Each call records a span ``[name, start, end, parent, child_s]``
in memory; a span's self time is its duration minus the time its child spans
cover.  Nothing in the program changes: ``uninstall`` puts the originals
back.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from collections import Counter

PACKAGE = "drbottleneck"

# layers reported with calls, total_s and self_s, keyed by (module, function);
# metric names must start with a letter, so the _graphs module reports as graphs
SPAN_LAYERS = {
    ("cli", "main"): "cli.main",
    ("scenarios", "load_scenarios"): "scenarios.load_scenarios",
    ("systems", "min_weight_blocker"): "systems.min_weight_blocker",
    ("_graphs", "min_st_cut_side"): "graphs.min_st_cut_side",
    ("_graphs", "bfs_path_edges"): "graphs.bfs_path_edges",
    ("_graphs", "max_bipartite_matching"): "graphs.max_bipartite_matching",
    ("bottleneck", "bottleneck_value"): "bottleneck.bottleneck_value",
    ("bottleneck", "topk_blocker_enumerate"): "bottleneck.topk_blocker_enumerate",
    ("quantify", "element_level"): "quantify.element_level",
    ("quantify", "robust_scenario_value"): "quantify.robust_scenario_value",
    ("quantify", "quantify_robust_finite_order"): "quantify.quantify_robust_finite_order",
    ("quantify", "quantify_topk"): "quantify.quantify_topk",
    ("search", "minimize_members"): "search.minimize_members",
    ("decide", "saa_decision"): "decide.saa_decision",
    ("decide", "variance_robust_decision"): "decide.variance_robust_decision",
    ("decide", "tv_robust_decision"): "decide.tv_robust_decision",
    ("decide", "topk_decision"): "decide.topk_decision",
    ("scipy.optimize", "linprog"): "scipy.linprog",
    ("scipy.optimize", "minimize"): "scipy.minimize",
    ("scipy.optimize", "brentq"): "scipy.brentq",
}
BLOCKER = "systems.min_weight_blocker"
# the blocker oracle is reported per system kind
BLOCKER_KINDS = ("path", "assignment")
LEVEL_SEARCH = "quantify.robust_scenario_value"
# SciPy solvers whose results carry a success flag
SOLVERS = ("scipy.linprog", "scipy.minimize")
ITER_MEMBERS = "search.iter_members"


def _kind(system) -> str:
    return type(system).__name__.removesuffix("System").lower()


def _replace_arg(args, kwargs, index: int, name: str, wrap):
    """Apply ``wrap`` to the argument passed at ``index`` or as ``name``."""
    if len(args) > index:
        args = (*args[:index], wrap(args[index]), *args[index + 1:])
    elif kwargs.get(name) is not None:
        kwargs = {**kwargs, name: wrap(kwargs[name])}
    return args, kwargs


class Tracer:
    """Records spans and counts for the functions it wraps."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def _counter(self, key: str, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap(self, fn, name: str):
        """A timed stand-in for ``fn``, recording spans named ``name``."""
        if name == BLOCKER:
            def label(args):
                return f"{name}.{_kind(args[0])}"
        else:
            def label(args):
                return name
        count_bound = name == "search.minimize_members"
        count_success = name in SOLVERS

        def wrapper(*args, **kwargs):
            if count_bound:
                args, kwargs = _replace_arg(
                    args, kwargs, 1, "bound_fn", lambda f: self._counter(name + ".bound_evals", f)
                )
            idx = self._enter(label(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if count_success:
                self.counts[name + ".successes"] += bool(result.success)
            return result

        return wrapper

    def wrap_generator(self, fn, name: str):
        """A stand-in for a generator function: each ``next`` is one span."""

        def wrapper(*args, **kwargs):
            args, kwargs = _replace_arg(
                args, kwargs, 1, "prune", lambda f: self._counter(name + ".prune_calls", f)
            )
            gen = fn(*args, **kwargs)
            while True:
                idx = self._enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                self.counts[name + ".members"] += 1
                yield item

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every layer function at each ``drbottleneck`` import site."""
        import scipy.optimize  # noqa: F401  (a module holding layers)

        import drbottleneck.cli  # noqa: F401  (imports every module)
        import drbottleneck.search

        targets = [
            (getattr(sys.modules[mod if "." in mod else f"{PACKAGE}.{mod}"], fn),
             self.wrap, name)
            for (mod, fn), name in SPAN_LAYERS.items()
        ]
        targets.append((drbottleneck.search.iter_members, self.wrap_generator, ITER_MEMBERS))
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for original, wrap, name in targets:
            wrapper = wrap(original, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since ``reset``."""
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        blockers: Counter = Counter()
        for name, start, end, parent, child in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child
            if name.startswith(BLOCKER):
                while parent >= 0 and self.spans[parent][0] != LEVEL_SEARCH:
                    parent = self.spans[parent][3]
                if parent >= 0:
                    blockers[parent] += 1

        out: dict[str, float] = {}
        for name in span_layer_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = own[name]

        searches = [i for i, span in enumerate(self.spans) if span[0] == LEVEL_SEARCH]
        per_search = [blockers[i] for i in searches]
        ms = sorted(1e3 * (self.spans[i][2] - self.spans[i][1]) for i in searches)
        out[f"{LEVEL_SEARCH}.blocker_calls_mean"] = (
            statistics.fmean(per_search) if searches else 0.0
        )
        out[f"{LEVEL_SEARCH}.blocker_calls_max"] = max(per_search, default=0)
        out[f"{LEVEL_SEARCH}.p50_ms"] = _quantile(ms, 0.50)
        out[f"{LEVEL_SEARCH}.p99_ms"] = _quantile(ms, 0.99)

        bound_evals = "search.minimize_members.bound_evals"
        out[bound_evals] = self.counts[bound_evals]
        out[f"{ITER_MEMBERS}.members"] = self.counts[f"{ITER_MEMBERS}.members"]
        out[f"{ITER_MEMBERS}.prune_calls"] = self.counts[f"{ITER_MEMBERS}.prune_calls"]
        out[f"{ITER_MEMBERS}.total_s"] = total[ITER_MEMBERS]
        # with no calls nothing failed, so the ratio is 1
        for solver in SOLVERS:
            out[f"{solver}.success_ratio"] = (
                self.counts[f"{solver}.successes"] / calls[solver] if calls[solver] else 1.0
            )
        return out


def span_layer_names() -> list[str]:
    names = []
    for name in SPAN_LAYERS.values():
        if name == BLOCKER:
            names.extend(f"{BLOCKER}.{kind}" for kind in BLOCKER_KINDS)
        else:
            names.append(name)
    return names


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 when there are no values."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over the traced passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
