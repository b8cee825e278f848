"""Layer tracing for the traced benchmark run.

Spans are recorded from outside the program: each public function is
replaced, at the module attribute through which another module calls it,
by a wrapper that records a span (name, start, end, parent id) and the
counts that belong to that boundary.  Spans stay in memory and are
returned for writing when the run ends.  The lru cache of
``cohere.su2.coupling_matrix`` stays in place behind its wrapper.
"""
from __future__ import annotations

import functools
import importlib
import os
import statistics
import time

import numpy as np

# (module, attribute, span name).  A function bound in two modules is
# wrapped at every binding that has callers.
WRAPPED = (
    ("cohere.position", "so4_to_spherical", "su2.so4_to_spherical"),
    ("cohere.su2", "coupling_matrix", "su2.coupling_matrix"),
    ("cohere.position", "radial", "position.radial"),
    ("cohere.position", "legendre_normalized", "position.legendre_normalized"),
    ("cohere.position", "field_on_grid", "position.field_on_grid"),
    ("cohere.position", "position_trace", "position.position_trace"),
    ("cohere.position", "write_field_csv", "position.write_field_csv"),
    ("cohere.state", "autocorrelation", "state.autocorrelation"),
    ("cohere.state", "write_trace_csv", "state.write_trace_csv"),
    ("cohere.state", "solve_scale_ln", "state.solve_scale_ln"),
    ("cohere.state", "build_state", "state.build_state"),
    ("cohere.state", "truncation_level", "weights.truncation_level"),
    ("cohere.weights", "truncation_level", "weights.truncation_level"),
    ("cohere.identity", "verify_su2_identity", "identity.verify_su2_identity"),
    ("cohere.identity", "verify_radial_identity", "identity.verify_radial_identity"),
    ("cohere.identity", "full_identity_matrix", "identity.full_identity_matrix"),
    ("cohere.cli", "cmd_solve", "cli.solve"),
    ("cohere.cli", "cmd_autocorr", "cli.autocorr"),
    ("cohere.cli", "cmd_levels", "cli.levels"),
    ("cohere.cli", "cmd_grid", "cli.grid"),
    ("cohere.cli", "cmd_verify", "cli.verify"),
)

# The paper's level window; one planar frame there recouples every level.
REF_LEVELS = range(144, 177)
REF_TABLE = (159, 160)  # (2j, 2l) of one reference-level coupling table


def cg_count(n: int, l: int) -> int:
    """Clebsch-Gordan evaluations that fill the level-n, degree-l table.

    The table has n x n entries (2j = n - 1); entry (k1, k2) is evaluated
    when |m1 + m2| <= l, i.e. on the 2l + 1 central anti-diagonals, which
    hold n - |u| entries each: (2l + 1) n - l (l + 1) in total.
    """
    return (2 * l + 1) * n - l * (l + 1)


def ref_frame_cg_evals() -> int:
    """CG evaluations for one cold planar frame over levels 144-176."""
    return sum(cg_count(n, l) for n in REF_LEVELS for l in range(n))


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.originals: dict[str, object] = {}

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self.originals.setdefault(name, fn)
            setattr(module, attr, self._wrap(fn, name))

    def _wrap(self, fn, name):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            before = count.before(self) if count and count.before else None
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count:
                span[4] = count.after(self, args, kwargs, out, before)
            return out

        return wrapper

    # --- per-layer metrics ------------------------------------------------

    def _named(self, name):
        return [s for s in self.spans if s[0] == name]

    def busy(self, name) -> float:
        return sum(s[2] - s[1] for s in self._named(name))

    def self_times(self, name) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - child_time[i]
                for i, s in enumerate(self.spans) if s[0] == name]

    def attr_sum(self, name, key) -> float:
        return sum(s[4].get(key, 0) for s in self._named(name))

    def layer_metrics(self) -> dict[str, float]:
        m: dict[str, float] = {}
        for name in ("su2.so4_to_spherical", "position.legendre_normalized",
                     "state.solve_scale_ln", "weights.truncation_level"):
            m[f"{name}.busy_s"] = self.busy(name)
            m[f"{name}.calls"] = len(self._named(name))
        for name in ("su2.coupling_matrix", "position.radial", "state.build_state",
                     "position.write_field_csv", "state.write_trace_csv",
                     "state.autocorrelation", "identity.verify_su2_identity",
                     "identity.verify_radial_identity", "identity.full_identity_matrix"):
            m[f"{name}.busy_s"] = self.busy(name)
        info = self.originals["su2.coupling_matrix"].cache_info()
        m["su2.coupling_matrix.misses"] = info.misses
        lookups = info.hits + info.misses
        m["su2.coupling_matrix.hit_ratio"] = info.hits / lookups if lookups else 0.0
        m["su2.cg.evals"] = self.attr_sum("su2.coupling_matrix", "cg_evals")

        grid = [s[2] - s[1] for s in self._named("position.field_on_grid")]
        m["position.field_on_grid.self_s"] = sum(self.self_times("position.field_on_grid"))
        m["position.field_on_grid.first_s"] = grid[0] if grid else 0.0
        m["position.field_on_grid.warm_s"] = statistics.median(grid[1:]) if grid[1:] else 0.0
        m["position.radial.points"] = self.attr_sum("position.radial", "points")

        trace_self = self.self_times("position.position_trace")
        traces = self._named("position.position_trace")
        m["position.position_trace.self_s"] = sum(trace_self)
        # derived: two calls differing only in their number of times
        steps = traces[-1][4].get("times", 0) - traces[0][4].get("times", 0) if traces else 0
        m["position.trace_step_s"] = (trace_self[-1] - trace_self[0]) / steps if steps else 0.0
        for key in ("nodes", "field_bytes"):
            m[f"position.quadrature.{key}"] = max((s[4].get(key, 0) for s in traces), default=0)

        for name in ("position.write_field_csv", "state.write_trace_csv"):
            m[f"{name}.bytes"] = self.attr_sum(name, "bytes")
        terms = self.attr_sum("state.autocorrelation", "terms")
        busy = m["state.autocorrelation.busy_s"]
        m["state.autocorrelation.terms"] = terms
        m["state.autocorrelation.terms_per_s"] = terms / busy if busy > 0 else 0.0
        m["identity.full_identity_matrix.entries"] = self.attr_sum(
            "identity.full_identity_matrix", "entries")
        for cmd in ("solve", "autocorr", "levels", "grid", "verify"):
            m[f"cli.{cmd}.busy_s"] = self.busy(f"cli.{cmd}")
        return m

    def reference_probe(self) -> dict[str, float]:
        """Time one reference-level coupling table, bypassing the cache."""
        table = self.originals["su2.coupling_matrix"].__wrapped__
        start = time.perf_counter()
        table(*REF_TABLE)
        return {
            "su2.coupling_matrix.ref_table_s": time.perf_counter() - start,
            "su2.cg.ref_frame_evals": ref_frame_cg_evals(),
        }


class _Counter:
    def __init__(self, after, before=None):
        self.after = after
        self.before = before


def _coupling_after(tracer, args, kwargs, out, misses_before):
    info = tracer.originals["su2.coupling_matrix"].cache_info()
    if info.misses == misses_before:
        return {}
    two_j, two_l = args
    return {"cg_evals": cg_count(two_j + 1, two_l // 2)}


def _trace_after(tracer, args, kwargs, out, before):
    from cohere.position import SpatialQuadrature

    state = args[0]
    orders = dict(zip(("radial_order", "polar_order", "azimuthal_count", "r_max"), args[2:]))
    orders.update(kwargs)
    quad = SpatialQuadrature.for_levels(int(state.coeffs.levels.max()), **orders)
    nodes = quad.r_nodes.size * quad.cos_nodes.size * quad.n_phi
    levels = state.coeffs.levels.size
    # fields are complex128, one (Nr, Ntheta, Nphi) array per level
    return {"times": int(np.size(args[1])), "nodes": nodes,
            "field_bytes": nodes * 16 * levels}


_COUNTERS = {
    "su2.coupling_matrix": _Counter(
        _coupling_after,
        before=lambda tracer: tracer.originals["su2.coupling_matrix"].cache_info().misses),
    "position.radial": _Counter(lambda t, a, k, out, b: {"points": int(np.size(a[2]))}),
    "position.position_trace": _Counter(_trace_after),
    "position.write_field_csv": _Counter(
        lambda t, a, k, out, b: {"bytes": os.path.getsize(a[0])}),
    "state.write_trace_csv": _Counter(
        lambda t, a, k, out, b: {"bytes": os.path.getsize(a[0])}),
    "state.autocorrelation": _Counter(
        lambda t, a, k, out, b: {"terms": int(np.size(a[1])) * a[0].coeffs.levels.size}),
    "identity.full_identity_matrix": _Counter(
        lambda t, a, k, out, b: {"entries": int(out[0].size)}),
}
