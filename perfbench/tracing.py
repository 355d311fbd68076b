"""In-memory spans around pairframe's public functions, for the traced run.

A :class:`Tracer` replaces each target function by a wrapper in every
pairframe namespace that holds it (its own module and the modules that
import it, e.g. ``neumann.pair_operator``), so nested calls become child
spans. It also counts the ``numpy.linalg`` entry points that reach LAPACK.
Nothing is recorded outside :meth:`Tracer.phase`, so the benchmark's own
checks never count. The ``tracemalloc`` peak of ``find_alpha`` is taken in a
separate :meth:`Tracer.peak_pass` that records no spans, so the garbage
collection and allocation tracing it needs add no time to any span.
:meth:`Tracer.uninstall` restores every original.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

#: public functions reported per operation, named ``<module>.<function>``
SPAN_TARGETS = (
    "cli.main",
    "fileformat.load_document",
    "frames.frame_operator",
    "frames.classify",
    "frames.canonical_dual",
    "pairs.pair_operator",
    "pairs.classify_pair",
    "pairs.adjoint_check",
    "pairs.pq_pair_norm_bound",
    "pairs.p_bessel_bound",
    "spectral.numerical_range_bounds",
    "neumann.find_alpha",
    "neumann.neumann_trace",
    "neumann.reconstruct",
)
#: functions reported for the set-up phase; they run only there, but for
#: ``load_document``, which ``cli.main`` also calls
SETUP_TARGETS = (
    "generators.generate",
    "fileformat.serialize_document",
    "fileformat.load_document",
)
LINALG = ("svd", "eigvalsh", "eigh", "inv")
#: op id of the set-up phase; only its spans are kept, not its counts
SETUP = "setup"
#: the span whose tracemalloc peak is recorded per call
PEAK_TARGET = "neumann.find_alpha"


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.spans = []  # [id, parent, op, name, start, end]
        self.counts = Counter()
        self.peak_bytes = 0
        self._peak_pass = False
        self._stack = []
        self._op = None
        self._patches = []
        self._t0 = time.perf_counter()

    # -- installation -------------------------------------------------
    def _namespaces(self):
        prefix = self.package.__name__ + "."
        mods = [sys.modules[n] for n in sorted(sys.modules) if n.startswith(prefix)]
        return [self.package] + mods

    def install(self) -> None:
        spaces = self._namespaces()
        for qual in dict.fromkeys(SPAN_TARGETS + SETUP_TARGETS):
            module, fname = qual.split(".")
            original = getattr(sys.modules[f"{self.package.__name__}.{module}"], fname)
            wrapper = self._span_wrapper(qual, original)
            for ns in spaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
        for name in LINALG:
            original = getattr(np.linalg, name)
            self._patches.append((np.linalg, name, original))
            setattr(np.linalg, name, self._count_wrapper(name, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    # -- recording ----------------------------------------------------
    @contextlib.contextmanager
    def phase(self, op):
        """Record spans (and, outside set-up, counts) under operation id ``op``."""
        self._op = op
        try:
            yield
        finally:
            self._op = None

    @contextlib.contextmanager
    def peak_pass(self):
        """Record the ``tracemalloc`` peak of each PEAK_TARGET call, and nothing else."""
        self._peak_pass = True
        try:
            yield
        finally:
            self._peak_pass = False

    def _counting(self) -> bool:
        return self._op is not None and self._op != SETUP

    def _span_wrapper(self, qual: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._peak_pass and qual == PEAK_TARGET:
                return tracer._peak_call(fn, args, kwargs)
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = [len(tracer.spans), tracer._stack[-1] if tracer._stack else None,
                    tracer._op, qual, 0.0, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            span[4] = time.perf_counter() - tracer._t0
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter() - tracer._t0
                tracer._stack.pop()
            if qual == "neumann.neumann_trace" and tracer._counting():
                tracer.counts["neumann.trace_rows"] += len(result.entries)
            return result

        return wrapper

    def _peak_call(self, fn, args, kwargs):
        # a full collection empties the interpreter's free lists, so the
        # traced allocations, and the peak, repeat exactly
        gc.collect()
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def _count_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if tracer._counting():
                tracer.counts[f"linalg.{name}_calls"] += 1
                if name == "eigvalsh":
                    shape = np.shape(a)
                    tracer.counts["linalg.eigvalsh_mats"] += int(np.prod(shape[:-2], dtype=np.int64))
            return fn(a, *args, **kwargs)

        return wrapper

    # -- summaries ----------------------------------------------------
    def summary(self, ops: int) -> dict:
        """Per-operation totals over the traced operations, plus set-up totals."""
        child_time = defaultdict(float)
        for sid, parent, op, name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        incl = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        setup = defaultdict(float)
        for sid, parent, op, name, start, end in self.spans:
            if op == SETUP:
                setup[name] += end - start
                continue
            incl[name] += end - start
            own[name] += end - start - child_time[sid]
            calls[name] += 1
        out = {}
        for qual in SPAN_TARGETS:
            out[f"{qual}_s"] = incl[qual] / ops
            out[f"{qual}.self_s"] = own[qual] / ops
            out[f"{qual}.calls"] = calls[qual] / ops
        for qual in SETUP_TARGETS:
            out[f"{qual}.setup_s"] = setup[qual]
        counts = self.counts
        for name in LINALG:
            out[f"linalg.{name}_calls"] = counts[f"linalg.{name}_calls"] / ops
        out["linalg.eigvalsh_mats"] = counts["linalg.eigvalsh_mats"] / ops
        out["neumann.trace_rows"] = counts["neumann.trace_rows"] / ops
        out[f"{PEAK_TARGET}.peak_mb"] = self.peak_bytes / 1e6
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line; times are seconds from tracer start."""
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
