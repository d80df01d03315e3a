"""Spans recorded around bgwscale's layer boundaries, from the benchmark's side.

``Tracer.install`` replaces module attributes (``scale.phi_q_fn``,
``model.root_varphi``, ``scale.gk_adaptive``, ...) with wrappers.  The
package's modules call each other through these attributes, so every call
that crosses a layer boundary opens a span.  A target that no longer exists
is skipped and listed in ``missing``; metrics built on it are reported as
missing instead of failing the run.

A span is ``[name, layer, start_ns, end_ns, parent, request]``; spans stay in
memory until ``dump`` writes them out at the end of the run.  Calls made
outside a benchmark operation (set-up, answer checks) record nothing.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

#: (module, attribute path, layer).  Attribute paths may name a class method.
TARGETS = [
    ("model", "validate", "model"),
    ("model", "require_valid", "model"),
    ("model", "root_varphi", "model"),
    ("model", "root_phi_q", "model"),
    ("model", "root_varphi_qbar", "model"),
    ("model", "is_explosive", "model"),
    ("scale", "gk_adaptive", "quad"),
    ("scale", "ScaleTable.__init__", "scale"),
    ("scale", "ScaleTable._build_level", "scale"),
    ("scale", "phi_q_fn", "scale"),
    ("scale", "phi_0_fn", "scale"),
    ("scale", "psi_q_fn", "scale"),
    ("scale", "phi_q_qbar_fn", "scale"),
    ("passage", "lt_first_passage", "passage"),
    ("passage", "prob_passage", "passage"),
    ("passage", "lt_explosion_before", "passage"),
    ("passage", "prob_explosion_before", "passage"),
    ("passage", "mean_first_passage", "passage"),
    ("passage", "mean_explosion", "passage"),
    ("passage", "lt_joint_avalanche", "passage"),
    ("passage", "atmin_law", "passage"),
    ("passage", "atmin_lt_G", "passage"),
    ("passage", "atmin_lt_residual", "passage"),
    ("passage", "conditioned_generator", "passage"),
    ("control", "barrier_gap", "control"),
    ("control", "barrier_value", "control"),
    ("control", "optimal_value", "control"),
    ("control", "verify_bellman", "control"),
    ("sim", "estimate_lt_passage", "sim"),
    ("sim", "estimate_joint_avalanche", "sim"),
    ("sim", "estimate_mean_passage", "sim"),
    ("sim", "estimate_explosion", "sim"),
    ("sim", "estimate_explosion_time", "sim"),
    ("sim", "atmin_clock_sample", "sim"),
    ("sim", "simulate_controlled", "sim"),
]

LAYERS = ("model", "quad", "scale", "passage", "control", "sim")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self.table_nodes: list[int] = []
        self.missing: list[str] = []

    # -- installation -------------------------------------------------------

    def install(self, modules: dict) -> None:
        for mod_name, path, layer in TARGETS:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            target = getattr(owner, attr, None) if owner is not None else None
            if target is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(f"{mod_name}.{path}", layer, target))

    def _wrap(self, name: str, layer: str, target):
        tracer = self

        if name == "scale.gk_adaptive":
            @functools.wraps(target)
            def panel(g, *args, **kwargs):
                if not tracer.stack:
                    return target(g, *args, **kwargs)

                def counted(x):
                    tracer.counts["quad.integrand_evals"] += len(x)
                    return g(x)
                with tracer.span(name, layer):
                    return target(counted, *args, **kwargs)
            return panel

        if name == "scale.ScaleTable.__init__":
            @functools.wraps(target)
            def build(table, *args, **kwargs):
                if not tracer.stack:
                    return target(table, *args, **kwargs)
                with tracer.span(name, layer):
                    target(table, *args, **kwargs)
                tracer.table_nodes.append(table.diagnostics.n_nodes)
            return build

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if not tracer.stack:  # outside any benchmark operation: set-up or checks
                return target(*args, **kwargs)
            with tracer.span(name, layer):
                return target(*args, **kwargs)
        return wrapper

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, layer: str):
        return _Span(self, name, layer)

    def op(self, kind: str):
        """Root span of one benchmark operation; opens a new request id."""
        self.request += 1
        return _Span(self, f"op.{kind}", "op")

    def dump(self, path, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "start_ns", "end_ns", "parent", "request"],
                       "spans": self.spans, "counts": dict(self.counts),
                       "missing": self.missing, **extra}, fh)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Duration minus the part covered by child spans, per span (ns)."""
        child = [0] * len(self.spans)
        for _, _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def summary(self, first: int = 0, last: int | None = None) -> "Summary":
        return Summary(self, first, len(self.spans) if last is None else last)


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: Tracer, name: str, layer: str):
        self.tracer = tracer
        parent = tracer.stack[-1] if tracer.stack else -1
        self.rec = [name, layer, 0, 0, parent, tracer.request]

    def __enter__(self):
        t = self.tracer
        t.stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec[2] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.rec[3] = time.perf_counter_ns()
        self.tracer.stack.pop()
        return False


class Summary:
    """Per-name call counts, inclusive and self times over a slice of spans."""

    def __init__(self, tracer: Tracer, first: int, last: int):
        selfs = tracer.self_times()
        self.calls: Counter = Counter()
        self.incl_ns: dict = defaultdict(int)
        self.self_ns: dict = defaultdict(int)
        self.layer_self_ns: dict = defaultdict(int)
        self.ops = 0
        self.op_ns = 0
        for i in range(first, last):
            name, layer, t0, t1, _, _ = tracer.spans[i]
            self.calls[name] += 1
            self.incl_ns[name] += t1 - t0
            self.self_ns[name] += selfs[i]
            self.layer_self_ns[layer] += selfs[i]
            if layer == "op":
                self.ops += 1
                self.op_ns += t1 - t0

    def count(self, *names: str) -> int:
        return sum(self.calls[n] for n in names)

    def incl(self, *names: str) -> float:
        return sum(self.incl_ns[n] for n in names)

    def self_(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names)
