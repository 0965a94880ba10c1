"""Per-layer tracing of latcorr from outside the package.

The tracer replaces module attributes (``sim.simulate_latent``,
``estimators.increment_products``, ...) with timing wrappers.  latcorr's own
call sites look these names up at call time (``harness`` calls
``sim.simulate_latent``, ``gamma_v1`` calls the module global
``increment_products``), so every call goes through a wrapper without any
change to the package.  Each call records one span: name, start, end, its
own id, the id of the enclosing span on the same thread, and the thread.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import tracemalloc
from collections import Counter, defaultdict

#: (module, function) pairs that are traced, in report order.
LAYERS = (
    ("harness", "run_replication"),
    ("harness", "aggregate_cell"),
    ("sim", "replication_rng"),
    ("sim", "simulate_latent"),
    ("sim", "integrated_intensity"),
    ("sim", "simulate_counts"),
    ("oracle", "truth_record"),
    ("estimators", "tilde_series"),
    ("estimators", "estimate_S"),
    ("estimators", "estimate_correlation"),
    ("estimators", "increment_products"),
    ("estimators", "gamma_v1"),
    ("estimators", "gamma_v2"),
    ("estimators", "gamma_kernel"),
    ("estimators", "estimate_xi"),
    ("estimators", "confidence_interval"),
    ("io", "read_count_series"),
    ("io", "mse_table_csv"),
    ("io", "mse_table_markdown"),
    ("cli", "main"),
)

#: The traced function whose first argument is a file path; its bytes give
#: ``io.read_count_series.mb_per_s``.
READER = "io.read_count_series"
#: The traced function whose per-call allocation peak is measured.
ALLOCATOR = "oracle.truth_record"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports."""
    names = []
    for module, function in LAYERS:
        name = f"{module}.{function}"
        names += [f"{name}.self_us_per_op", f"{name}.calls_per_op"]
    return names + [f"{ALLOCATOR}.peak_kib", f"{READER}.mb_per_s", "trace.overhead_us_per_op"]


class _Patch:
    """Replaces module attributes and puts the originals back."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved = []

    def install(self, names, make_wrapper) -> None:
        for module, function in names:
            mod = self._modules[module]
            original = getattr(mod, function)
            self._saved.append((mod, function, original))
            setattr(mod, function, functools.wraps(original)(
                make_wrapper(f"{module}.{function}", original)))

    def uninstall(self) -> None:
        for mod, function, original in reversed(self._saved):
            setattr(mod, function, original)
        self._saved.clear()


class Tracer:
    """Span recorder for the functions in :data:`LAYERS`."""

    def __init__(self, modules: dict):
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, span_id, parent_id, thread)
        self.read_paths: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patch = _Patch(modules)

    def __enter__(self) -> "Tracer":
        self._patch.install(LAYERS, self._wrap)
        return self

    def __exit__(self, *exc) -> None:
        self._patch.uninstall()

    def _wrap(self, name: str, fn):
        spans, ids, local = self.spans, self._ids, self._local
        clock, thread = time.perf_counter_ns, threading.get_ident
        read_paths = self.read_paths if name == READER else None

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            if read_paths is not None:
                read_paths.append(args[0])
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((name, start, end, span_id, parent, thread()))

        return traced

    def self_and_calls(self) -> tuple[dict[str, int], Counter]:
        """Self time in ns and call count per traced name.

        A span's self time is its duration minus the durations of its direct
        children; children are always on the parent's thread, so self time is
        per thread.
        """
        children = defaultdict(int)
        for _, start, end, _, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        self_ns, calls = defaultdict(int), Counter()
        for name, start, end, span_id, _, _ in self.spans:
            self_ns[name] += end - start - children.get(span_id, 0)
            calls[name] += 1
        return self_ns, calls

    def inclusive_ns(self, name: str) -> int:
        return sum(end - start for n, start, end, *_ in self.spans if n == name)

    def write(self, path) -> None:
        """Write the spans as CSV, one line per call."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,span,parent,thread\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")


class AllocationPeaks:
    """Records the tracemalloc peak of every call to :data:`ALLOCATOR`.

    Used in a pass of its own, outside the timed and traced loops, because
    tracemalloc slows every allocation made while it runs.
    """

    def __init__(self, modules: dict):
        self.peaks: list[int] = []
        self._patch = _Patch(modules)

    def __enter__(self) -> "AllocationPeaks":
        self._patch.install([tuple(ALLOCATOR.split("."))], self._wrap)
        return self

    def __exit__(self, *exc) -> None:
        self._patch.uninstall()

    def _wrap(self, name: str, fn):
        peaks = self.peaks

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured
