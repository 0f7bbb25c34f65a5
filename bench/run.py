"""sigmach benchmark: one workload, one seed, one fresh process.

    python3 bench/run.py --workload arith|mesh|accum --seed N --seconds S --trace 0|1

Run from the repository root; sigmach is imported from ``src/``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  Scratch files and traces go to ``.bench_out/``.

End-to-end: the cases of the workload are run in whole rounds for as long as
another round fits in ``--seconds`` (at least one); ``wall_s`` is the mean
round time, ``case_p50_s`` and ``case_p90_s`` are taken over every case of
every round.  Every output is checked against ``oracles``
outside the timed region.  ``setup_s`` is the median, over several fresh
child processes started one after another, of the time from starting the
interpreter until ``import sigmach`` is done and the seeded inputs are built.

Traced (``--trace 1``): untraced and span-traced rounds in turn, then one round
under each of the count and allocation passes of ``tracing``, then scalar micro-timings on
operands taken from the workload's events.  Writes
``.bench_out/trace_<workload>.json`` (metrics and per-layer breakdown) and
``.bench_out/spans_<workload>.json`` (every span).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 7
TRACED_ROUNDS = 2
WORKLOAD_NAMES = ("arith", "mesh", "accum")


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_sigmach():
    """Import sigmach from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "sigmach", "__init__.py")):
        raise ImportError(f"no sigmach package under {SRC}")
    sys.path.insert(0, SRC)
    import sigmach

    if not os.path.abspath(sigmach.__file__).startswith(SRC + os.sep):
        raise ImportError(f"sigmach was imported from {sigmach.__file__}, not {SRC}")
    return sigmach


def _setup_probe(args) -> None:
    """Child side of the set-up measurement: report in-process phase times."""
    t0 = time.perf_counter()
    _import_sigmach()
    import workloads

    t1 = time.perf_counter()
    workloads.WORKLOADS[args.workload](args.seed, OUT)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}), flush=True)


def measure_setup(args) -> tuple[list[float], list[dict]]:
    """Start SETUP_SAMPLES fresh interpreters one after another; each imports
    sigmach and builds the inputs.  Returns the wall times from spawn to the
    child's report, and the reports."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    walls, reports = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            walls.append(time.perf_counter() - start)
            child.stdout.read()
            code = child.wait(timeout=120)
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {code}")
        reports.append(json.loads(line))
    return walls, reports


class Tally:
    """Per-case times and outcome counts over the rounds of one run."""

    def __init__(self) -> None:
        self.case_s: list[float] = []
        self.round_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []


def run_round(workload, tally: Tally) -> None:
    """Every case once: execute (timed), then check (untimed)."""
    gc.collect()
    total = 0.0
    for case in workload.cases:
        tally.attempted += 1
        start = time.perf_counter()
        try:
            result = workload.execute(case)
        except Exception as e:  # an operation that fails is counted, not fatal
            tally.failed += 1
            print(f"FAILED {case.label}: {type(e).__name__}: {e}", file=sys.stderr)
            continue
        elapsed = time.perf_counter() - start
        tally.case_s.append(elapsed)
        total += elapsed
        try:
            workload.check(case, result)
        except Exception as e:  # any output the check cannot accept is wrong
            tally.wrong.append(f"{case.label}: {e}")
            print(f"WRONG {case.label}: {type(e).__name__}: {e}", file=sys.stderr)
    tally.round_s.append(total)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, workload) -> tuple[Tally, dict]:
    walls, _ = measure_setup(args)
    tally = Tally()
    start = time.perf_counter()
    run_round(workload, tally)
    # another whole round only if it should still end within --seconds
    while time.perf_counter() - start + tally.round_s[-1] <= args.seconds:
        run_round(workload, tally)
    deciles = statistics.quantiles(tally.case_s, n=10)
    metrics = {
        "setup_s": _metric(statistics.median(walls), "s"),
        "wall_s": _metric(statistics.fmean(tally.round_s), "s"),
        "case_p50_s": _metric(statistics.median(tally.case_s), "s"),
        "case_p90_s": _metric(deciles[8], "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, metrics


def traced(args, workload) -> tuple[Tally, dict]:
    import tracing

    _, reports = measure_setup(args)
    tally = Tally()
    spans = tracing.Spans()
    for _ in range(TRACED_ROUNDS):  # alternate, so slow spells of the host hit both sides
        run_round(workload, tally)
        with spans.active():
            run_round(workload, tally)
    untraced_wall = statistics.median(tally.round_s[0::2])
    traced_wall = statistics.median(tally.round_s[1::2])
    layers = spans.by_layer(TRACED_ROUNDS)

    counts = tracing.Counts(args.seed)
    with counts.active():
        run_round(workload, tally)

    allocs = tracing.AllocPeaks()
    with allocs.active():
        run_round(workload, tally)

    ns = tracing.scalar_ns(counts.operands)

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    run_s = self_s("engine.run")
    metrics = {
        "setup.import_s": _metric(statistics.median(r["import_s"] for r in reports), "s"),
        "setup.inputs_s": _metric(statistics.median(r["inputs_s"] for r in reports), "s"),
        "scalars.add_ns": _metric(ns["add"], "ns/op"),
        "scalars.mul_ns": _metric(ns["mul"], "ns/op"),
        "scalars.div_ns": _metric(ns["div"], "ns/op"),
        "scalars.cmp_ns": _metric(ns["cmp"], "ns/op"),
        "scalars.ops_per_event": _metric(counts.ops / max(1, counts.events), "count"),
        "scalars.max_bits": _metric(counts.max_bits, "bits"),
        "engine.run_s": _metric(run_s, "s"),
        "engine.us_per_event": _metric(run_s / max(1, counts.events) * 1e6, "us"),
        "engine.events": _metric(counts.events, "count"),
        "engine.peak_live": _metric(counts.peak_live, "count"),
        "engine.segments": _metric(counts.segments, "count"),
        "engine.snapshot_sites": _metric(counts.snapshot_sites, "count"),
        "engine.run_peak_mb": _metric(allocs.run_peak / 2**20, "MB"),
        "engine.configuration_at_calls": _metric(layers.get("engine.configuration_at", {}).get("calls", 0), "count"),
        "engine.configuration_at_s": _metric(self_s("engine.configuration_at"), "s"),
        "analysis.detect_periodicity_s": _metric(self_s("analysis.detect_periodicity"), "s"),
        "analysis.diagram_included_s": _metric(self_s("analysis.diagram_included"), "s"),
        "analysis.detect_contraction_s": _metric(self_s("analysis.detect_contraction"), "s"),
        "analysis.replay_s": _metric(self_s("analysis.replay"), "s"),
        "mesh.verify_s": _metric(self_s("mesh.verify"), "s"),
        "mesh.cells": _metric(getattr(workload, "cells", 0), "count"),
        "cli.main_s": _metric(self_s("cli.main"), "s"),
        "textio.event_log_s": _metric(self_s("textio.event_log"), "s"),
        "trace.overhead_pct": _metric((traced_wall / untraced_wall - 1) * 100, "%"),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "cases": len(workload.cases),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "layers": layers,
    }
    with open(os.path.join(OUT, f"trace_{args.workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    with open(os.path.join(OUT, f"spans_{args.workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(spans.spans, fh)
    return tally, metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if args.setup_probe:
            _setup_probe(args)
            return 0
        _import_sigmach()
        import workloads
    except ImportError as e:
        print(f"bench: cannot load sigmach: {e}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    tally, metrics = (traced if args.trace else end_to_end)(args, workload)
    correct = not tally.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
