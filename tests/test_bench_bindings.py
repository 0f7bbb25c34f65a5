"""The benchmark's tracer wraps sigmach names from outside; these checks fail
when a rename or a changed call path leaves one of its bindings dangling or
unvisited."""

import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "bench"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import sigmach.cli as cli  # noqa: E402
import sigmach.engine as engine  # noqa: E402
import sigmach.mesh as mesh  # noqa: E402
from sigmach.engine import RunLimits  # noqa: E402
from sigmach.presets import build_gcd, build_gcd_phi, build_sm4  # noqa: E402
from sigmach.scalars import FieldContext  # noqa: E402


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
    for name in ("mesh.verify", "analysis.detect_periodicity", "analysis.diagram_included"):
        assert layers[name]["calls"] == 1, name
    # the mesh is proved periodic, so no contraction search runs on it
    assert "analysis.detect_contraction" not in layers
    assert layers["engine.run"]["calls"] == 2
    assert mesh.run is engine.run


def test_counts_read_quadratic_scalars():
    machine, config = build_gcd_phi()
    counts = tracing.Counts(seed=0)
    with counts.active():
        diagram = engine.run(machine, config, RunLimits(max_events=40))
    assert counts.events == len(diagram.events) == 40
    parts = [part for e in diagram.events for s in (e.time, e.position) for part in (s.a, s.b)]
    assert any(s.b for e in diagram.events for s in (e.time, e.position))
    bits = max(max(abs(f.numerator).bit_length(), f.denominator.bit_length()) for f in parts)
    assert counts.max_bits == bits


def test_oracles_read_rational_scalars_of_an_extension():
    q5 = FieldContext(5)
    assert oracles.as_fraction(q5.scalar(Fraction(-3, 4))) == Fraction(-3, 4)
    assert oracles.as_fraction(q5.scalar(1, 1) - q5.scalar(0, 1)) == 1
    with pytest.raises(ValueError, match="irrational"):
        oracles.as_fraction(q5.scalar(Fraction(1, 2), Fraction(1, 2)))
