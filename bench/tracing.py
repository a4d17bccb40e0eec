"""Spans and counters around xydopo's layers, installed from outside.

Each wrapper replaces a function at the module attribute its caller looks it
up under (``xydopo.sweep.xy_energy_density`` for the sweep's own calls,
``xydopo.xy.xy_energy_density`` for calls from inside ``xydopo.xy`` and
through ``xy.xy_energy_density``), so the package itself is unchanged. Spans
are kept in memory and written out once, after the traced pass.

A span is (id, parent id, name, point id, start, end). The point id names the
sweep record or oracle operation that caused it. A layer's self time is its
span time minus the time covered by its child spans; the quadrature's self
time also holds the tracer's bookkeeping for the band spans inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# (layer name, module, attribute): the lookup sites the package's callers use
_SITES = (
    ("quadrature", "xydopo.xy", "integrate"),
    ("quadrature", "xydopo.dopo", "integrate"),
    ("band", "xydopo.xy", "xy_dispersion"),
    ("band", "xydopo.dopo", "dopo_omega_squared"),
    ("band", "xydopo.dopo", "dopo_epsilon"),
    ("band", "xydopo.sweep", "dopo_omega_squared"),
    ("xy.energy_density", "xydopo.sweep", "xy_energy_density"),
    ("xy.energy_density", "xydopo.xy", "xy_energy_density"),
    ("xy.derivatives", "xydopo.sweep", "xy_magnetization"),
    ("xy.derivatives", "xydopo.sweep", "xy_susceptibility"),
    ("xy.gap", "xydopo.sweep", "xy_gap"),
    ("xy.phase", "xydopo.sweep", "xy_phase"),
    ("dopo.energy_density", "xydopo.sweep", "dopo_energy_density"),
    ("dopo.energy_density", "xydopo.dopo", "dopo_energy_density"),
    ("dopo.classify_phase", "xydopo.sweep", "dopo_classify_phase"),
    ("mapping.map", "xydopo.sweep", "map_xy_to_dopo"),
    ("mapping.map", "xydopo.mapping", "map_xy_to_dopo"),
    ("mapping.energy_density", "xydopo.sweep", "map_energy_density"),
    ("ed.vs_analytic", "xydopo.sweep", "ed_vs_analytic"),
    ("ed.vs_analytic", "xydopo.ed", "ed_vs_analytic"),
    ("ed.ground_state", "xydopo.sweep", "ed_ground_state"),
    ("ed.ground_state", "xydopo.ed", "ed_ground_state"),
)

# the ring sizes and methods the ed-oracle workload exercises
ED_KEYS = tuple(f"dense.n{n}" for n in (6, 8, 10, 12)) + ("lanczos.n14", "lanczos.n16")


class Tracer:
    """Records spans and counts while installed; restores the package on exit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._band_depth = 0
        self.point = None
        self.counts = defaultdict(float)
        self.energy_keys = defaultdict(set)   # point id -> distinct chain parameters
        self.ed_solve = defaultdict(float)    # "dense.n12" -> seconds
        self.ed_alloc = defaultdict(float)    # "dense.n12" -> peak traced MB
        self._saved: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------
    def begin(self, name: str) -> tuple:
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in by end()
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, name, self.point, time.perf_counter()

    def end(self, token: tuple) -> float:
        t1 = time.perf_counter()
        sid, parent, name, point, t0 = token
        self._stack.pop()
        self.spans[sid] = (sid, parent, name, point, t0, t1)
        return t1 - t0

    def span(self, name: str, fn, *args, **kwargs):
        token = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(token)

    # -- wrappers -------------------------------------------------------------
    def _wrap(self, layer: str, fn):
        if layer == "quadrature":
            return self._wrap_quadrature(fn)
        if layer == "band":
            return self._wrap_band(fn)
        if layer == "ed.ground_state":
            return self._wrap_ed(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer == "xy.energy_density":
                p = args[0]
                self.counts["xy.energy_density.calls"] += 1
                self.energy_keys[self.point].add((p.jx, p.jy, p.h))
            elif layer == "dopo.energy_density":
                self.counts["dopo.energy_density.calls"] += 1
            return self.span(layer, fn, *args, **kwargs)

        return wrapper

    def _wrap_band(self, fn):
        @functools.wraps(fn)
        def wrapper(p, k):
            if self._band_depth:
                return fn(p, k)  # nested band call: counted by the outer one
            self._band_depth += 1
            try:
                self.counts["band.points"] += np.size(k)
                return self.span("band", fn, p, k)
            finally:
                self._band_depth -= 1

        return wrapper

    def _wrap_quadrature(self, fn):
        @functools.wraps(fn)
        def wrapper(f, a, b, *rest, **kwargs):
            def integrand(x):
                self.counts["quadrature.evals"] += np.size(x)
                self.counts["band.points"] += np.size(x)
                self._band_depth += 1
                try:
                    return self.span("band", f, x)
                finally:
                    self._band_depth -= 1

            self.counts["quadrature.calls"] += 1
            result = self.span("quadrature", fn, integrand, a, b, *rest, **kwargs)
            self.counts["quadrature.nodes"] += result.nodes
            self.counts["quadrature.max_nodes"] = max(
                self.counts["quadrature.max_nodes"], result.nodes)
            return result

        return wrapper

    def _wrap_ed(self, fn):
        @functools.wraps(fn)
        def wrapper(p, n, method="dense"):
            key = f"{method}.n{n}"
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                token = self.begin("ed.ground_state")
                try:
                    result = fn(p, n, method)
                finally:
                    self.ed_solve[key] += self.end(token)
                peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                self.ed_alloc[key] = max(self.ed_alloc[key], peak)
            finally:
                if started:
                    tracemalloc.stop()
            return result

        return wrapper

    def __enter__(self):
        for layer, module_name, attr in _SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    # -- summary --------------------------------------------------------------
    def _inside(self, sid: int, name: str) -> bool:
        """Span sid, or one of its ancestors, is named name."""
        while sid >= 0:
            if self.spans[sid][2] == name:
                return True
            sid = self.spans[sid][1]
        return False

    def _outside(self, name: str, ancestor: str) -> float:
        """Seconds in spans called name that no span called ancestor contains."""
        return sum(t1 - t0 for _, parent, span_name, _, t0, t1 in self.spans
                   if span_name == name and not self._inside(parent, ancestor))

    def metrics(self, wall: float) -> dict[str, float]:
        inclusive = defaultdict(float)
        child_time = defaultdict(float)
        for _, parent, name, _, t0, t1 in self.spans:
            inclusive[name] += t1 - t0
            if parent >= 0:
                child_time[parent] += t1 - t0
        self_time = defaultdict(float)
        for sid, _, name, _, t0, t1 in self.spans:
            self_time[name] += (t1 - t0) - child_time[sid]
        c = self.counts
        evals = c["quadrature.evals"]
        calls = c["xy.energy_density.calls"]
        distinct = sum(len(v) for v in self.energy_keys.values())
        # band and quadrature spans never nest in themselves; ED solves do nest
        # in ed_vs_analytic
        quad_band = inclusive["quadrature"] + self._outside("band", "quadrature")
        ed = inclusive["ed.vs_analytic"] + self._outside("ed.ground_state", "ed.vs_analytic")
        out = {
            "quadrature.calls": c["quadrature.calls"],
            "quadrature.self_s": self_time["quadrature"],
            "quadrature.nodes": c["quadrature.nodes"],
            "quadrature.evals": evals,
            "quadrature.useful_ratio": c["quadrature.nodes"] / evals if evals else 0.0,
            "quadrature.max_nodes": c["quadrature.max_nodes"],
            "band.points": c["band.points"],
            "band.s": inclusive["band"],
            "xy.energy_density.calls": calls,
            "xy.energy_density.distinct_ratio": distinct / calls if calls else 0.0,
            "xy.derivatives.s": inclusive["xy.derivatives"],
            "xy.gap.s": inclusive["xy.gap"],
            "xy.phase.s": inclusive["xy.phase"],
            "dopo.energy_density.calls": c["dopo.energy_density.calls"],
            "dopo.classify_phase.s": inclusive["dopo.classify_phase"],
            "mapping.map.s": inclusive["mapping.map"],
            "mapping.energy_density.s": inclusive["mapping.energy_density"],
            "sweep.self_s": self_time["sweep.point"],
            "sweep.write_s": self_time["sweep.write"],
            "trace.quad_band_frac": quad_band / wall,
            "trace.ed_frac": ed / wall,
        }
        for key in ED_KEYS:
            out[f"ed.solve_s.{key}"] = self.ed_solve.get(key, 0.0)
            out[f"ed.alloc_peak_mb.{key}"] = self.ed_alloc.get(key, 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, point, t0, t1 in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                         "point": point, "start": t0, "end": t1}) + "\n")
