"""Per-layer measurement from outside sigmach.

Three passes, each over one round of a workload, so that no pass inflates
what another measures:

* ``Spans`` wraps the module-level names through which one layer calls the
  next and records (name, start, end, parent) for every call.
* ``Counts`` counts scalar operations and reads the size of every diagram
  that a ``run()`` returns; it also keeps event coordinates as operands for
  the scalar micro-timings.
* ``AllocPeaks`` takes the ``tracemalloc`` peak of each ``run()`` call.

Every patch is undone when the pass ends.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import time
import tracemalloc
from collections import defaultdict

import sigmach.analysis as analysis
import sigmach.cli as cli
import sigmach.engine as engine
import sigmach.mesh as mesh
from sigmach.scalars import Scalar

# (module, attribute, span name): every binding a workload goes through.
# Modules import names with `from .x import y`, so each binding is patched
# where it is looked up.
BOUNDARIES = [
    (cli, "main", "cli.main"),
    (cli, "run", "engine.run"),
    (cli, "event_log_lines", "textio.event_log"),
    (cli, "build_subtraction", "presets.build"),
    (cli, "build_modulo", "presets.build"),
    (cli, "build_gcd", "presets.build"),
    (cli, "read_encoded_value", "presets.readout"),
    (mesh, "verify_mesh_inclusion", "mesh.verify"),
    (mesh, "normalize_speeds", "model.normalize_speeds"),
    (mesh, "run", "engine.run"),
    (mesh, "diagram_included", "analysis.diagram_included"),
    (mesh, "detect_periodicity", "analysis.detect_periodicity"),
    (mesh, "detect_contraction", "analysis.detect_contraction"),
    (analysis, "run", "engine.run"),
    (analysis, "configuration_at", "engine.configuration_at"),
    (analysis, "detect_contraction", "analysis.detect_contraction"),
    (analysis, "contraction_replay_matches", "analysis.replay"),
    (engine, "run", "engine.run"),
]
RUN_BINDINGS = [(m, a) for m, a, name in BOUNDARIES if name == "engine.run"]


@contextlib.contextmanager
def _patched(patches):
    """Replace module attributes for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


class Spans:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end

        return traced

    def active(self):
        return _patched([(m, a, self._wrap(name, getattr(m, a))) for m, a, name in BOUNDARIES])

    def by_layer(self, rounds: int = 1) -> dict[str, dict]:
        """Calls, total time and self time (total minus child spans) per name,
        per round when the spans cover several rounds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return {
            name: {"calls": row["calls"] // rounds, "total_s": row["total_s"] / rounds,
                   "self_s": row["self_s"] / rounds}
            for name, row in out.items()
        }


_COUNTED = [
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__eq__", "_cmp",
]


def _bits(s: Scalar) -> int:
    return max(
        abs(s.a.numerator).bit_length(), s.a.denominator.bit_length(),
        abs(s.b.numerator).bit_length(), s.b.denominator.bit_length(),
    )


class Counts:
    """Scalar operation counts and the size of every recorded run."""

    def __init__(self, seed: int) -> None:
        self.ops = 0
        self.events = 0
        self.segments = 0
        self.snapshot_sites = 0
        self.peak_live = 0
        self.max_bits = 0
        self.operands: list[tuple[Scalar, Scalar, Scalar]] = []
        self._rng = random.Random(seed)

    def _count(self, fn):
        def counted(*args):
            self.ops += 1
            return fn(*args)

        return counted

    def _observe(self, fn):
        def observed(*args, **kwargs):
            diagram = fn(*args, **kwargs)
            self.events += len(diagram.events)
            self.segments += len(diagram.segments)
            for snap in diagram.snapshots:
                self.snapshot_sites += len(snap.sites)
                self.peak_live = max(self.peak_live, sum(len(s) for _, s in snap.sites))
            for e in diagram.events:
                self.max_bits = max(self.max_bits, _bits(e.time), _bits(e.position))
            if len(diagram.events) >= 2:
                for _ in range(4):
                    e1, e2 = self._rng.sample(diagram.events, 2)
                    self.operands.append((e1.position, e2.position, e1.time))
            return diagram

        return observed

    def active(self):
        patches = [(Scalar, n, self._count(getattr(Scalar, n))) for n in _COUNTED]
        patches += [(m, a, self._observe(getattr(m, a))) for m, a in RUN_BINDINGS]
        return _patched(patches)


class AllocPeaks:
    """Largest tracemalloc peak over single run() calls, in bytes."""

    def __init__(self) -> None:
        self.run_peak = 0

    def _measure(self, fn):
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                self.run_peak = max(self.run_peak, tracemalloc.get_traced_memory()[1] - base)

        return measured

    @contextlib.contextmanager
    def active(self):
        tracemalloc.start()
        try:
            with _patched([(m, a, self._measure(getattr(m, a))) for m, a in RUN_BINDINGS]):
                yield
        finally:
            tracemalloc.stop()


def _time_op(name: str, operands, reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        if name == "add":
            for x, y, _ in operands:
                x + y
        elif name == "mul":
            for x, y, _ in operands:
                x * y
        elif name == "div":
            for x, _, t in operands:
                x / t
        else:
            for x, y, _ in operands:
                x < y
    return (time.perf_counter() - start) / (reps * len(operands)) * 1e9


def scalar_ns(operands, batches: int = 7, min_ops: int = 4000) -> dict[str, float]:
    """Median ns per add, mul, div and compare over event coordinates taken
    from the workload's own runs: (x1, x2, t) gives x1+x2, x1*x2, x1/t, x1<x2."""
    reps = max(1, min_ops // len(operands))
    return {
        name: statistics.median(_time_op(name, operands, reps) for _ in range(batches))
        for name in ("add", "mul", "div", "cmp")
    }
