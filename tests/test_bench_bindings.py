"""The benchmark's tracer wraps sigmach names from outside; these checks fail
when a rename or a changed call path leaves one of its bindings dangling or
unvisited."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "bench"))

import tracing  # noqa: E402
import sigmach.cli as cli  # noqa: E402
import sigmach.engine as engine  # noqa: E402
import sigmach.mesh as mesh  # noqa: E402
from sigmach.engine import RunLimits  # noqa: E402
from sigmach.presets import build_gcd, build_sm4  # noqa: E402


def test_every_boundary_resolves_to_a_callable():
    for module, attr, _ in tracing.BOUNDARIES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_counts_read_the_run_record():
    machine, config = build_sm4()
    counts, original = tracing.Counts(seed=0), engine.run
    with counts.active():
        diagram = engine.run(machine, config, RunLimits(max_events=12))
    assert engine.run is original
    assert counts.events == len(diagram.events) == 12
    assert counts.segments == len(diagram.segments) > 0
    assert counts.snapshot_sites == sum(len(s.sites) for s in diagram.snapshots) > 0
    assert counts.ops > 0


def test_spans_cover_a_cli_arithmetic_run(capsys):
    spans = tracing.Spans()
    with spans.active():
        assert cli.main(["run", "--preset", "gcd", "--a", "8", "--b", "3"]) == 0
    assert "result = 1" in capsys.readouterr().out
    layers = spans.by_layer()
    for name in ("cli.main", "presets.build", "engine.run"):
        assert layers[name]["calls"] == 1, name
    assert cli.run is engine.run


def test_spans_cover_a_mesh_verification():
    spans = tracing.Spans()
    with spans.active():
        assert mesh.verify_mesh_inclusion(*build_gcd(8, 3)).ok
    layers = spans.by_layer()
    for name in (
        "mesh.verify",
        "analysis.detect_periodicity",
        "analysis.diagram_included",
        "analysis.detect_contraction",
    ):
        assert layers[name]["calls"] == 1, name
    assert layers["engine.run"]["calls"] == 2
    assert mesh.run is engine.run
