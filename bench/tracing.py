"""Boundary spans for the traced run, installed from outside the program.

Only the public boundary functions of each layer are wrapped; wrapping every
helper would cost as much as the work it measures. The package modules bind
these functions with ``from .x import f``, so each wrapper is installed in
every module namespace that binds the original, not only the defining one.

Spans are kept in memory as ``[name, start, end, parent]`` lists (``parent``
is the index of the enclosing span, -1 at the top) and summarised into
per-layer metrics after the traced call; a layer's self time is its spans'
duration minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "mpslam_bounds"

# Layer (module) -> wrapped boundary functions. Span names are "layer.function".
BOUNDARY = {
    "cli": ("main",),
    "scenario": (
        "load_scenario", "ground_truth", "snapshot_fim", "measurement_truth",
        "draw_measurements",
    ),
    "geometry": ("path_geometry",),
    "fim": ("global_jacobian", "channel_fim", "global_snapshot_fim", "measurement_variances"),
    "pcrlb": ("run_recursion", "predict_fim", "extract_bounds"),
    "ekf": ("run_monte_carlo", "run_single", "ekf_predict", "ekf_update"),
    "streams": ("derive_run_stream",),
}
# Layer -> (class, wrapped methods); the span of RandomStream.normal is "streams.normal".
METHODS = {"streams": ("RandomStream", ("normal", "standard_normal"))}

# Per-layer metrics of one traced CLI call, in report order, with their units.
# "trace.overhead" is added by the benchmark from a paired untraced call.
LAYER_METRICS = {
    "geometry.self_s": "s",
    "geometry.path_geometry.calls": "count",
    "geometry.path_geometry.self_s": "s",
    "geometry.resolves_per_visible": "ratio",
    "fim.self_s": "s",
    "fim.global_jacobian.calls": "count",
    "fim.global_jacobian.self_s": "s",
    "fim.measurement_variances.calls": "count",
    "fim.measurement_variances.self_s": "s",
    "fim.channel_fim.self_s": "s",
    "fim.global_snapshot_fim.self_s": "s",
    "fim.visible_share": "ratio",
    "ekf.self_s": "s",
    "ekf.ekf_update.calls": "count",
    "ekf.ekf_update.self_s": "s",
    "ekf.ekf_predict.self_s": "s",
    "ekf.run_single.p50_s": "s",
    "pcrlb.self_s": "s",
    "pcrlb.run_recursion.total_s": "s",
    "pcrlb.predict_fim.self_s": "s",
    "pcrlb.extract_bounds.self_s": "s",
    "streams.self_s": "s",
    "streams.normal.calls": "count",
    "streams.normal.self_s": "s",
    "scenario.draw_measurements.self_s": "s",
    "scenario.self_s": "s",
    "scenario.load_scenario.total_s": "s",
    "scenario.snapshot_fim.self_s": "s",
    "scenario.measurement_truth.self_s": "s",
    "cli.main.self_s": "s",
}


class Tracer:
    """In-memory span recorder; ``wrap`` turns a function into a span source."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            try:
                return func(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            handle.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                handle.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every boundary function wherever the package binds it.

    Returns the replaced bindings as (owner, attribute, original) so that
    :func:`uninstall` can restore them.
    """
    layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in BOUNDARY}
    namespaces = [
        module for name, module in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]
    patches = []
    for layer, names in BOUNDARY.items():
        for name in names:
            original = getattr(layers[layer], name)
            wrapper = tracer.wrap(f"{layer}.{name}", original)
            for module in namespaces:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
    for layer, (cls_name, methods) in METHODS.items():
        cls = getattr(layers[layer], cls_name)
        for name in methods:
            original = vars(cls)[name]
            patches.append((cls, name, original))
            setattr(cls, name, tracer.wrap(f"{layer}.{name}", original))
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def summarize(spans: list[list], visible_triples: int, total_triples: int) -> dict[str, float]:
    """Per-layer metrics of the spans of one traced CLI call."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for (name, start, end, _), covered in zip(spans, child_time):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - covered
        durations[name].append(end - start)
    layer_self: dict[str, float] = defaultdict(float)
    for name, value in own.items():
        layer_self[name.split(".")[0]] += value

    metrics: dict[str, float] = {}
    for key in LAYER_METRICS:
        head, _, stat = key.rpartition(".")
        if key == "geometry.resolves_per_visible":
            metrics[key] = calls["geometry.path_geometry"] / visible_triples
        elif key == "fim.visible_share":
            metrics[key] = visible_triples / total_triples
        elif head in BOUNDARY:
            metrics[key] = layer_self[head]
        elif stat == "calls":
            metrics[key] = calls[head]
        elif stat == "self_s":
            metrics[key] = own[head]
        elif stat == "total_s":
            metrics[key] = total[head]
        elif stat == "p50_s":
            metrics[key] = statistics.median(durations[head]) if durations[head] else 0.0
        else:
            raise KeyError(key)
    return metrics
