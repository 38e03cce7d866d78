"""Span tracing of blockfade's public functions, installed from outside.

Each traced function is replaced, at the name its caller looks it up by,
with a wrapper that opens a span on entry and closes it on exit.  Spans
nest on a per-thread stack; a span opened on a worker thread with an empty
stack is the child of the open ``run_scenario`` span, whose thread pool
started it.  A span's self time is its duration minus the part of it its
children cover: children on the span's own thread run one after another,
while the union of the intervals of children on other threads is taken,
so parallel children are not counted twice.

Only the totals per layer are kept (calls, self seconds), plus a few
counts computed from the arguments at the same boundaries.
"""

from __future__ import annotations

import functools
import hashlib
import math
import threading
from time import perf_counter

# (module, attribute the caller looks up, layer).  scenario imports the
# model/stochastic/assembly functions by name; stochastic reaches its
# helpers through its own globals; analytics is called through the
# module; cli imports the scenario entry points by name.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_config", "scenario.config"),
    ("cli", "expand_preset", "scenario.config"),
    ("scenario", "parse_config", "scenario.config"),
    ("scenario", "expand_preset", "scenario.config"),
    ("cli", "run_scenario", "scenario.run_scenario"),
    ("scenario", "substream", "stochastic.substream"),
    ("scenario", "draw_direction", "model.draw_direction"),
    ("scenario", "build_spatial_pair", "model.build_spatial_pair"),
    ("scenario", "sample_q_block", "stochastic.sample_q_block"),
    ("stochastic", "complex_normal", "stochastic.complex_normal"),
    ("stochastic", "build_covariance", "stochastic.build_covariance"),
    ("stochastic", "cholesky_psd", "stochastic.cholesky_psd"),
    ("scenario", "assemble_channel", "assembly.assemble_channel"),
    ("analytics", "gram", "analytics.gram"),
    ("analytics", "eigenvalues_hermitian", "analytics.eigenvalues_hermitian"),
    ("analytics", "pairwise_correlation", "analytics.pairwise_correlation"),
    ("analytics", "coefficient_histogram", "analytics.coefficient_histogram"),
    ("analytics", "empirical_cdf", "analytics.empirical_cdf"),
    ("emit", "write_bundle", "emit.write_bundle"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))

# Layers whose spans lie outside the scenario run (argument parsing,
# config parsing, report printing); the rest make up the traced run_s.
OUTSIDE_RUN = ("cli.main", "scenario.config")


class _Span:
    __slots__ = ("layer", "start", "parent", "thread", "child_s", "foreign")

    def __init__(self, layer, start, parent, thread):
        self.layer = layer
        self.start = start
        self.parent = parent
        self.thread = thread
        self.child_s = 0.0   # summed durations of children on this thread
        self.foreign = []    # (start, end) of children on other threads


class _Thread:
    """One thread's span stack and totals; only that thread writes them."""

    __slots__ = ("stack", "calls", "self_s", "overlap_s")

    def __init__(self):
        self.stack = []
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.overlap_s = 0.0


def _union_length(intervals):
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    """Per-layer call counts and self times of one interpreter."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pool_parent = None
        self._threads = []
        self.missing = []
        self.uniforms = 0
        self._covariances = set()
        self.factorizations = 0

    def _thread(self):
        try:
            return self._local.thread
        except AttributeError:
            thread = self._local.thread = _Thread()
            with self._lock:
                self._threads.append(thread)
            return thread

    def open(self, layer):
        thread = self._thread()
        stack = thread.stack
        parent = stack[-1] if stack else self._pool_parent
        span = _Span(layer, perf_counter(), parent, thread)
        stack.append(span)
        if layer == "scenario.run_scenario":
            self._pool_parent = span
        return span

    def close(self, span):
        end = perf_counter()
        thread = span.thread
        thread.stack.pop()
        if span.layer == "scenario.run_scenario":
            self._pool_parent = span.parent
        covered = span.child_s
        if span.foreign:
            # Thread time beyond wall time: children that ran in parallel.
            union = _union_length(span.foreign)
            covered += union
            thread.overlap_s += sum(b - a for a, b in span.foreign) - union
        parent = span.parent
        if parent is not None:
            if parent.thread is thread:
                parent.child_s += end - span.start
            else:
                parent.foreign.append((span.start, end))
        thread.calls[span.layer] += 1
        thread.self_s[span.layer] += end - span.start - covered

    def _count(self, layer, args, kwargs):
        if layer == "stochastic.complex_normal":
            shape = args[1] if len(args) > 1 else kwargs["shape"]
            n = math.prod(shape) if isinstance(shape, tuple) else int(shape)
            with self._lock:
                self.uniforms += 2 * n
        elif layer == "stochastic.cholesky_psd":
            sigma = args[0] if args else kwargs["sigma"]
            key = hashlib.sha1(sigma.tobytes() + str(sigma.shape).encode()).digest()
            with self._lock:
                self.factorizations += 1
                self._covariances.add(key)

    def wrap(self, target, layer):
        tracer = self
        counted = layer in ("stochastic.complex_normal", "stochastic.cholesky_psd")

        @functools.wraps(target)
        def traced(*args, **kwargs):
            if counted:
                tracer._count(layer, args, kwargs)
            span = tracer.open(layer)
            try:
                return target(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    def install(self, modules):
        """Wrap every target found in ``modules`` (name -> module object).

        A target the program no longer has is recorded in ``missing`` and
        its layer later reports zero calls.
        """
        for module_name, attr, layer in TARGETS:
            module = modules.get(module_name)
            target = getattr(module, attr, None) if module is not None else None
            if not callable(target):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(target, layer))

    def summary(self, run_s):
        """Per-layer metrics of this interpreter, given its measured run_s."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = sum(t.calls[layer] for t in self._threads)
            out[f"{layer}.self_s"] = sum(t.self_s[layer] for t in self._threads)
        in_run = sum(out[f"{layer}.self_s"] for layer in LAYERS if layer not in OUTSIDE_RUN)
        # Self times sum to the wall time plus the parallel overlap.
        overlap_s = sum(t.overlap_s for t in self._threads)
        out["stochastic.uniforms"] = self.uniforms
        out["stochastic.cholesky_useful_ratio"] = (
            len(self._covariances) / self.factorizations if self.factorizations else 0.0)
        out["trace.accounted_frac"] = in_run / (run_s + overlap_s) if run_s > 0 else 0.0
        return out
