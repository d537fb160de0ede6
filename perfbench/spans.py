"""Span tracer that wraps dupkit's public functions from outside the package.

Each public function of a traced module is replaced, under its own name, in
every dupkit module namespace that holds it (``poisson_binomial`` lives in
``analysis`` and is imported by name into ``simulate``; ``estimate_revenue``
into ``config`` and ``examples``), so calls made inside the package are
traced too.  ``uninstall`` puts the originals back, which leaves untraced
runs executing exactly the package's own code.

Aggregates (calls, inclusive and self nanoseconds, units of work) are kept
per span name online; raw spans (name, start, end, parent, op id) are kept in
memory up to a cap and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

TRACED_MODULES = (
    "simulate",
    "curves",
    "exante",
    "analysis",
    "duplication",
    "config",
    "cli",
    "mechanisms",
)

# (descendant, ancestor) pairs whose nesting is counted; the quadrature
# integrand makes one poisson_binomial call per evaluation, so this count is
# the number of integrand evaluations.
EVALS = ("analysis.poisson_binomial", "simulate.expected_order_stat")
NESTED_COUNTS = (EVALS,)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _label_sample_revenues(args, kwargs, result):
    return _arg(args, kwargs, 2, "mechanism"), _arg(args, kwargs, 3, "n_samples")


def _label_estimate_revenue(args, kwargs, result):
    return result.estimator, _arg(args, kwargs, 3, "n_samples")


def _label_uniforms(args, kwargs, result):
    return None, _arg(args, kwargs, 3, "hi") - _arg(args, kwargs, 2, "lo")


# Functions whose spans also carry a sub-label and a work count (draws).
LABELERS = {
    "simulate.sample_revenues": _label_sample_revenues,
    "simulate.estimate_revenue": _label_estimate_revenue,
    "simulate.uniforms": _label_uniforms,
}


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "work")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.work = 0


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.enabled = False
        self.span_cap = span_cap
        self.spans = []
        self.spans_dropped = 0
        self.stats = defaultdict(Stat)
        self.nested = defaultdict(int)
        self.op_id = -1
        self._stack = []  # frames: [span id, name, start ns, child ns]
        self._active = defaultdict(int)
        self._next_id = 0
        self._patches = []  # (module, attribute, original)

    def snapshot(self):
        """Copies of (stats, nested counts), to read counts of a finished round."""
        stats = {}
        for name, st in self.stats.items():
            copy = stats[name] = Stat()
            copy.calls, copy.total_ns, copy.self_ns, copy.work = (
                st.calls, st.total_ns, st.self_ns, st.work)
        return stats, dict(self.nested)

    def install(self, package) -> int:
        """Wrap every public function of the traced modules; returns the count."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == package.__name__ and m]
        wrapped = 0
        for short in TRACED_MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                traced = self.wrap(f"{short}.{attr}", fn)
                wrapped += 1
                for holder in modules:
                    for hold_attr, val in list(vars(holder).items()):
                        if val is fn:
                            self._patches.append((holder, hold_attr, fn))
                            setattr(holder, hold_attr, traced)
        return wrapped

    def uninstall(self):
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches = []

    def wrap(self, name, fn):
        labeler = LABELERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs, labeler)

        return traced

    def call(self, name, fn, args, kwargs, labeler=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        if self._active:
            for child, ancestor in NESTED_COUNTS:
                if child == name and self._active[ancestor]:
                    self.nested[(child, ancestor)] += 1
        frame = [span_id, name, perf_counter_ns(), 0]
        self._stack.append(frame)
        self._active[name] += 1
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self._active[name] -= 1
            dur = end - frame[2]
            if parent is not None:
                parent[3] += dur
            label, work = None, 0
            if labeler is not None and result is not None:
                label, work = labeler(args, kwargs, result)
            self._record(name, dur, dur - frame[3], work)
            if label is not None:
                self._record(f"{name}.{label}", dur, dur - frame[3], work)
            if len(self.spans) < self.span_cap:
                self.spans.append(
                    (span_id, parent[0] if parent else -1, name, frame[2], end, self.op_id)
                )
            else:
                self.spans_dropped += 1

    def span(self, name, fn, *args):
        """Trace a call made by the benchmark itself (an op), as a root span."""
        return self.call(name, fn, args, {})

    def _record(self, name, dur, self_ns, work):
        st = self.stats[name]
        st.calls += 1
        st.total_ns += dur
        st.self_ns += self_ns
        st.work += work


def span_tree_problems(spans, tol_ns: int = 0) -> list:
    """Check that every span lies inside its parent; returns problem strings."""
    by_id = {s[0]: s for s in spans}
    problems = []
    for sid, parent, name, start, end, _ in spans:
        if end < start:
            problems.append(f"span {sid} {name} ends before it starts")
        if parent >= 0:
            p = by_id.get(parent)
            if p is None:
                problems.append(f"span {sid} {name} has unknown parent {parent}")
            elif start < p[3] - tol_ns or end > p[4] + tol_ns:
                problems.append(f"span {sid} {name} escapes parent {p[2]}")
    return problems


def self_times(spans) -> dict:
    """Self time per span id: duration minus the children's durations."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for sid, parent, _, start, end, _ in spans:
        if parent >= 0 and parent in own:
            own[parent] -= end - start
    return own
