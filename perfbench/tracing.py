"""Span tracing for the benchmark's traced run, installed from outside the library.

`install` wraps the public functions of each tritile module, and the public
methods and properties of `Tiling` and `MoveGraph`, then rebinds every name
in every tritile module namespace that refers to a wrapped function. Module
globals are looked up at call time, so calls made inside a module are traced
too, without editing the library.

Spans live in memory as [name id, parent span, start, end, busy, child time]
and are written once, when the run ends. Self time is busy time minus the
busy time of the spans that ran directly beneath it. A generator is one span
whose busy time sums its resumptions, so a 500k-tiling enumeration stays one
record.

The child runs its setup and its task as two phases, each a top-level span
(SETUP, TASK). Per-layer metrics count only the spans and work beneath the
task's span; setup-side work is reported under its own stats.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

LAYERS = ("regions", "tilings", "moves", "fluxtwist", "heights", "harness", "cli")
CLASSES = {"tilings": ("Tiling",), "moves": ("MoveGraph",)}
REGION_BUILDERS = ("regions.build_box", "regions.build_torus", "regions.build_voxel_region")


def _size(a, r):
    return len(r)


# Work counts taken from a traced call's arguments and result:
# span name -> ((counter name, count(args, result)), ...).
COUNTERS = {
    "moves.find_flips": (("moves.find_flips.found", _size),
                         ("moves.find_flips.scanned", lambda a, r: len(a[0].pairs))),
    "moves.find_trits": (("moves.find_trits.found", _size),
                         ("moves.find_trits.scanned", lambda a, r: a[0].region.n_cells)),
    "moves.move_graph": (("moves.move_graph.edges", lambda a, r: len(r.edges)),),
    "fluxtwist.twist": (("fluxtwist.twist.dimers", lambda a, r: len(a[0].pairs)),),
    "tilings.refine_tiling": (("tilings.refine_tiling.dimers_out", lambda a, r: len(r.pairs)),),
    "tilings.Tiling.from_cell_pairs": (("tilings.Tiling.from_cell_pairs.pairs",
                                        lambda a, r: len(r.pairs)),),
    "heights.flip_connect": (("heights.flip_connect.flips", _size),),
}
COUNTERS.update((name, (("regions.build.cells", lambda a, r: r.n_cells),))
                for name in REGION_BUILDERS)

# Calls on a tiling whose tracemalloc peak is recorded (see measure_peaks).
PEAK_ALLOC = ("fluxtwist.twist",)

SETUP, TASK = "bench.setup", "bench.task"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = None
        # phase -> counter name -> total
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        # span name -> input shape -> (function, tiling, args, kwargs) of its
        # first call in the task
        self.peak_calls: dict[str, dict] = defaultdict(dict)
        self.peaks: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.spans.append([nid, self.stack[-1] if self.stack else -1, None, None, 0.0, 0.0])
        return len(self.spans) - 1

    def resume(self, idx: int) -> float:
        self.stack.append(idx)
        t = perf_counter()
        rec = self.spans[idx]
        if rec[2] is None:
            rec[2] = t
        return t

    def suspend(self, idx: int, t0: float) -> None:
        t1 = perf_counter()
        self.stack.pop()
        rec = self.spans[idx]
        rec[3] = t1
        rec[4] += t1 - t0
        if self.stack:
            self.spans[self.stack[-1]][5] += t1 - t0

    def run_phase(self, phase: str, fn, *args):
        """Run fn(*args) as the top-level span `phase` (SETUP or TASK)."""
        self.phase = phase
        idx = self.open(phase)
        t0 = self.resume(idx)
        try:
            return fn(*args)
        finally:
            self.suspend(idx, t0)
            self.phase = None

    def aggregate(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: self time and number of calls, over the spans
        beneath the top-level span `phase`."""
        out: dict[str, dict[str, float]] = {}
        roots: list[int] = []
        for i, (nid, parent, _start, _end, busy, child) in enumerate(self.spans):
            roots.append(i if parent == -1 else roots[parent])
            if parent == -1 or self.names[self.spans[roots[i]][0]] != phase:
                continue
            a = out.setdefault(self.names[nid], {"s": 0.0, "calls": 0})
            a["s"] += busy - child
            a["calls"] += 1
        return out

    def measure_peaks(self) -> None:
        """The tracemalloc peak of each PEAK_ALLOC call, taken in one extra,
        untimed call per input shape seen in the task.

        Each repeats the first call of its shape on a fresh copy of the
        tiling, so the tiling's lazily built views are allocated inside it.
        It runs outside both phases, so its spans and counts are not in the
        per-layer metrics, and no timed call runs under tracemalloc.
        """
        for name, calls in self.peak_calls.items():
            for fn, t, args, kwargs in calls.values():
                fresh = type(t)(t.region, t.pairs)
                tracemalloc.start()
                try:
                    fn(fresh, *args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self.peaks[name] = max(self.peaks[name], peak)

    def write(self, path) -> None:
        doc = {"fields": ["name", "parent", "start", "end", "busy", "self"],
               "spans": [[self.names[n], p, s, e, b, b - c] for n, p, s, e, b, c in self.spans]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        counters = COUNTERS.get(name, ())
        first_calls = self.peak_calls[name] if name in PEAK_ALLOC else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            t0 = self.resume(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.suspend(idx, t0)
            counts = self.counts[self.phase]
            for key, count in counters:
                counts[key] += count(args, result)
            if first_calls is not None and self.phase == TASK:
                t, rest = args[0], args[1:]
                first_calls.setdefault((len(t.pairs), rest, tuple(sorted(kwargs.items()))),
                                       (fn, t, rest, kwargs))
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        key = name + ".emitted"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            it = fn(*args, **kwargs)
            while True:
                t0 = self.resume(idx)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.suspend(idx, t0)
                self.counts[self.phase][key] += 1
                yield item

        return traced


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = "%s.%s.%s" % (layer, cls.__name__, attr)
        if isinstance(value, property):
            new = property(tracer.wrap(name, value.fget), value.fset, value.fdel, value.__doc__)
        elif isinstance(value, classmethod):
            new = classmethod(tracer.wrap(name, value.__func__))
        elif inspect.isfunction(value):
            new = tracer.wrap(name, value)
        else:
            continue
        setattr(cls, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap tritile's layers and rebind every name that refers to them."""
    wrapped: dict[int, tuple] = {}
    for layer in LAYERS:
        mod = importlib.import_module("tritile." + layer)
        for attr, value in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == mod.__name__):
                wrapped[id(value)] = (value, tracer.wrap("%s.%s" % (layer, attr), value))
        for cname in CLASSES.get(layer, ()):
            cls = getattr(mod, cname, None)
            if cls is not None:
                _wrap_class(tracer, layer, cls)

    for modname, mod in list(sys.modules.items()):
        if modname != "tritile" and not modname.startswith("tritile."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                continue
            # a module-level lru_cache around a wrapped function keeps the
            # original; rebuild the cache around the wrapper
            inner = getattr(value, "__wrapped__", None)
            hit = wrapped.get(id(inner))
            if hit is not None and hit[0] is inner and hasattr(value, "cache_parameters"):
                setattr(mod, attr, functools.lru_cache(**value.cache_parameters())(hit[1]))


# -- per-layer metrics --------------------------------------------------------

# (metric name, unit); every traced run reports all of them, 0 where the
# workload never calls that layer.
LAYER_METRICS = (
    ("moves.find_flips.s", "s"), ("moves.find_flips.calls", "count"),
    ("moves.find_flips.found", "count"), ("moves.find_flips.yield", "ratio"),
    ("moves.find_trits.s", "s"), ("moves.find_trits.calls", "count"),
    ("moves.find_trits.found", "count"), ("moves.find_trits.yield", "ratio"),
    ("tilings.Tiling.replace.s", "s"), ("tilings.Tiling.replace.calls", "count"),
    ("tilings.Tiling.hash64.s", "s"), ("tilings.Tiling.hash64.calls", "count"),
    ("tilings.enumerate_tilings.s", "s"), ("tilings.enumerate_tilings.emitted", "count"),
    ("tilings.enumerate_tilings.per_s", "1/s"),
    ("cli.main.s", "s"), ("cli.report_bytes", "bytes"),
    ("moves.move_graph.s", "s"), ("moves.move_graph.edges", "count"),
    ("moves.MoveGraph.components.s", "s"),
    ("fluxtwist.twist.s", "s"), ("fluxtwist.twist.calls", "count"),
    ("fluxtwist.twist.dimers", "count"), ("fluxtwist.twist.peak_alloc_mb", "MB"),
    ("fluxtwist.flux.s", "s"), ("fluxtwist.flux.calls", "count"),
    ("fluxtwist.modulus.s", "s"), ("fluxtwist.modulus.calls", "count"),
    ("fluxtwist.flux_through_surface.s", "s"), ("fluxtwist.flux_through_surface.calls", "count"),
    ("tilings.refine_tiling.s", "s"), ("tilings.refine_tiling.dimers_out", "count"),
    ("tilings.Tiling.from_cell_pairs.s", "s"), ("tilings.Tiling.from_cell_pairs.pairs", "count"),
    ("regions.refine_region.s", "s"),
    ("heights.enumerate_surface_tilings.s", "s"), ("heights.enumerate_surface_tilings.calls", "count"),
    ("heights.height_function.s", "s"), ("heights.height_function.calls", "count"),
    ("heights.winding.s", "s"), ("heights.winding.calls", "count"),
    ("heights.flip_connect.s", "s"), ("heights.flip_connect.calls", "count"),
    ("heights.flip_connect.flips", "count"),
    ("regions.build.s", "s"), ("regions.build.cells", "count"),
    ("regions.build.setup_s", "s"), ("regions.build.setup_cells", "count"),
    ("tritile.import.s", "s"),
    ("harness.random_walk.s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every LAYER_METRICS value from the task's spans and counts, plus the
    setup's region builds and `extra` (values the benchmark measures itself,
    such as import time)."""
    agg = tracer.aggregate(TASK)
    counts = tracer.counts[TASK]
    setup = tracer.aggregate(SETUP)
    values: dict[str, float] = {
        "regions.build.setup_s": sum(setup[n]["s"] for n in REGION_BUILDERS if n in setup),
        "regions.build.setup_cells": tracer.counts[SETUP]["regions.build.cells"],
    }
    for name, a in agg.items():
        values[name + ".s"] = a["s"]
        values[name + ".calls"] = a["calls"]
    for name in ("moves.find_flips", "moves.find_trits"):
        scanned = counts[name + ".scanned"]
        values[name + ".found"] = counts[name + ".found"]
        values[name + ".yield"] = counts[name + ".found"] / scanned if scanned else 0.0
    emitted = counts["tilings.enumerate_tilings.emitted"]
    self_s = agg.get("tilings.enumerate_tilings", {}).get("s", 0.0)
    values["tilings.enumerate_tilings.per_s"] = emitted / self_s if self_s else 0.0
    values["regions.build.s"] = sum(agg[n]["s"] for n in REGION_BUILDERS if n in agg)
    for key, value in counts.items():
        values.setdefault(key, value)
    for key, value in tracer.peaks.items():
        values[key + ".peak_alloc_mb"] = value
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name, _unit in LAYER_METRICS}
