"""Spans and counters recorded from outside the program.

The tracer replaces, for the length of a ``with`` block, the public names
that one diskchannels module imports from another, so every call across a
module boundary opens a span.  Spans stay in memory; ``self_seconds`` turns
them into per-layer totals when the run ends.  Each thread keeps its own
parent stack; a span opened on a worker thread with an empty stack belongs to
the innermost span open on the main thread (the ``run_experiment`` call that
owns the worker pool).
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

import numpy as np

from diskchannels import bergman, channel, cli, experiments


def _size(x) -> int:
    return int(np.size(x))


# (module, attribute, span name, work counter from (args, kwargs, result))
SPANS = [
    (cli, "main", "cli.main", None),
    (cli, "parse_config", "experiments.parse_config", None),
    (cli, "run_experiment", "experiments.run_experiment", None),
    (cli, "emit_report", "experiments.emit_report", None),
    (experiments, "apply_channel", "channel.apply_channel",
     lambda a, kw, r: {"calls": 1,
                       "out_bytes": (a[1].default_output_degree() + 1) ** 2 * 16}),
    (experiments, "diagonal_output_spectrum", "channel.diagonal_output_spectrum",
     lambda a, kw, r: {"calls": 1}),
    (experiments, "diagonal_response", "channel.diagonal_response",
     lambda a, kw, r: {"calls": 1, "points": _size(a[2])}),
    (experiments, "response_tail_bound", "channel.response_tail_bound",
     lambda a, kw, r: {"calls": 1}),
    (experiments, "build_quadrature", "disk.build_quadrature",
     lambda a, kw, r: {"calls": 1, "nodes": _size(r.nodes)}),
    (experiments, "chain2_tensor_quadrature", "spectral.chain2_tensor_quadrature",
     lambda a, kw, r: {"calls": 1}),
    (experiments, "chained_kernel_integral", "spectral.chained_kernel_integral",
     lambda a, kw, r: {"samples": a[3]}),
    (experiments, "eigen_relation_residual", "spectral.eigen_relation_residual",
     lambda a, kw, r: {"calls": 1}),
    (experiments, "e_transform", "transforms.e_transform", None),
    (experiments, "husimi_grid", "transforms.husimi_grid",
     lambda a, kw, r: {"points": _size(a[2])}),
    (experiments, "radial_poly", "transforms.radial_poly", None),
    (experiments, "toeplitz_diagonal", "transforms.toeplitz_diagonal", None),
    # transforms reaches bergman through the module attribute
    (bergman, "transported_basis_vectors", "bergman.transported_basis_vectors",
     lambda a, kw, r: {"calls": 1, "steps": a[2] * np.shape(r[0])[-1]}),
    # the runner's dense eigensolve; nothing else calls it in these workloads
    (np.linalg, "eigvalsh", "experiments.dense_spectrum",
     lambda a, kw, r: {"n": np.shape(a[0])[-1]}),
]

# hot calls inside channel: counted, no span
COUNTERS = [
    (channel, "log_monomial_norm_sq", "bergman.log_monomial_norm_sq",
     lambda a, kw: {"elements": _size(a[1])}),
    (channel, "log_channel_constant_sq", "specfun.log_channel_constant_sq",
     lambda a, kw: {"calls": 1}),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _count(self, name: str, work: dict):
        with self._lock:
            for key, value in work.items():
                self.counts[f"{name}.{key}"] += value

    def span(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            with self._lock:
                idx = len(self.spans)
                self.spans.append([name, parent, time.perf_counter(), None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[idx][3] = time.perf_counter()
            if work is not None:
                self._count(name, work(args, kwargs, result))
            return result

        return wrapper

    def counter(self, name: str, fn, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(name, work(args, kwargs))
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap every wrapper in for the block; restore the originals after."""
        saved = []
        try:
            for module, attr, name, work in SPANS:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.span(name, saved[-1][2], work))
            for module, attr, name, work in COUNTERS:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.counter(name, saved[-1][2], work))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the union of its children."""
        children = defaultdict(list)
        for name, parent, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for idx, (name, _, start, end) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children[idx]):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] += (end - start) - covered
        return totals
