"""Span tracing around the public entry points of each ssms layer.

The wrappers live here, in the benchmark, not in the package: a traced
window installs them on the package's modules and classes and removes them
when it ends, so untraced windows in the same process run unmodified code.

A span is ``[name, start, end, parent, window, cells]``: ``parent`` indexes
the enclosing span of the same window (-1 for none) and ``cells`` is the
tensor size of a brute-force enumeration (0 elsewhere).  Spans are kept in
memory and written out once, when the benchmark ends.
"""

import importlib
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (span name, module, class or None for a module function, attribute).
# Module functions are patched in the namespace their caller looks them up
# in.  A target the package no longer defines is skipped, so its metrics
# read 0 instead of the benchmark failing.
TARGETS = (
    ("sampler.window", "ssms.sampler", "WindowSampler", "sample_window"),
    ("engine", "ssms.sampler", None, "_run"),
    ("cache.min", "ssms.sampler", "MarginalCache", "min_intervals"),
    ("cache.cond", "ssms.sampler", "MarginalCache", "sphere_conditional"),
    ("marginals.min", "ssms.sampler", None, "min_marginals"),
    ("marginals.cond", "ssms.sampler", None, "conditional_marginal"),
    ("bruteforce", "ssms.marginals", None, "weight_tensor"),
    ("graph.context_key", "ssms.graph", "LocalGraph", "context_key"),
    ("graph.context_key", "ssms.graph", "Lattice", "context_key"),
    ("graph.ball", "ssms.graph", "LocalGraph", "sphere"),
    ("graph.ball", "ssms.graph", "LocalGraph", "ball_interior"),
)


class Tracer:
    """Installs span-recording wrappers for the duration of one window."""

    def __init__(self):
        self.kept = []  # span lists of the windows asked to be kept
        self._spans = []
        self._stack = []
        self._window = -1
        self._patches = []
        for name, module, owner, attr in TARGETS:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner, None)
            original = vars(target).get(attr) if target is not None else None
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            self._patches.append((target, attr, original, wrapper))

    def _wrap(self, name, fn):
        counts_cells = name == "bruteforce"

        def traced(*args, **kwargs):
            stack = self._stack
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self._window, 0]
            stack.append(len(self._spans))
            self._spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if counts_cells:
                    span[5] = int(result[1].size)  # weight_tensor returns (free, W)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def window(self, index, keep):
        """Trace one window under a bench-level ``window`` span."""
        self._window = index
        self._spans = []
        self._stack = [0]
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)
        root = ["window", perf_counter(), 0.0, -1, index, 0]
        self._spans.append(root)
        try:
            yield
        finally:
            root[2] = perf_counter()
            for target, attr, original, _ in self._patches:
                setattr(target, attr, original)
            if keep:
                self.kept.append(self._spans)

    def write(self, path):
        """Write the kept spans as one JSON document with global parent ids."""
        rows = []
        for spans in self.kept:
            base = len(rows)
            for name, start, end, parent, window, cells in spans:
                rows.append([name, start, end, parent + base if parent >= 0 else -1, window, cells])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "window", "cells"], "spans": rows}, fh)
            fh.write("\n")


def layer_metrics(windows, engine_calls):
    """Per-layer counts and times over the given span lists (one per window),
    whose windows made ``engine_calls`` engine calls in all.

    Self time is a span's duration minus the time its child spans cover.  A
    cache lookup is a miss when it computed a marginal beneath it.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    durations = defaultdict(list)
    misses = defaultdict(int)
    hit_s = 0.0
    cells = 0
    for spans in windows:
        child_s = [0.0] * len(spans)
        child_names = [set() for _ in spans]
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
                child_names[parent].add(name)
        for idx, (name, start, end, _, _, n_cells) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child_s[idx]
            cells += n_cells
            if name.startswith("marginals."):
                durations[name].append(dur)
            elif name.startswith("cache."):
                if "marginals." + name[len("cache."):] in child_names[idx]:
                    misses[name] += 1
                else:
                    hit_s += dur

    def p50_us(name):
        return statistics.median(durations[name]) * 1e6 if durations[name] else 0.0

    def hit_rate(name):
        return 1.0 - misses[name] / calls[name] if calls[name] else 0.0

    return {
        "engine.calls_per_s": engine_calls / total["engine"] if total["engine"] else 0.0,
        "engine.self_s": own["engine"],
        "window.overhead_s": own["sampler.window"],
        "cache.min_lookups": calls["cache.min"],
        "cache.min_misses": misses["cache.min"],
        "cache.min_hit_rate": hit_rate("cache.min"),
        "cache.cond_lookups": calls["cache.cond"],
        "cache.cond_misses": misses["cache.cond"],
        "cache.cond_hit_rate": hit_rate("cache.cond"),
        "cache.hit_s": hit_s,
        "graph.context_key_calls": calls["graph.context_key"],
        "graph.context_key_s": total["graph.context_key"],
        "graph.ball_calls": calls["graph.ball"],
        "graph.ball_s": total["graph.ball"],
        "marginals.min_calls": calls["marginals.min"],
        "marginals.min_s": total["marginals.min"],
        "marginals.min_us_p50": p50_us("marginals.min"),
        "marginals.cond_calls": calls["marginals.cond"],
        "marginals.cond_s": total["marginals.cond"],
        "marginals.cond_us_p50": p50_us("marginals.cond"),
        "bruteforce.calls": calls["bruteforce"],
        "bruteforce.cells": cells,
        "bruteforce.bytes_computed": 8 * cells,
        "bruteforce.s": total["bruteforce"],
    }
