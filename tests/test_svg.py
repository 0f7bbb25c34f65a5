import pytest

from sigmach.engine import RunLimits, run
from sigmach.presets import build_gcd_phi, build_sm4
from sigmach.svg import render_diagram


@pytest.fixture(scope="module")
def sm4():
    machine, config = build_sm4()
    return run(machine, config, RunLimits(max_events=8))


def test_one_polyline_per_segment_and_one_dot_per_event(sm4):
    doc = render_diagram(sm4)
    assert doc.count("<polyline") == len(sm4.segments)
    assert doc.count("<circle") == len(sm4.events)
    assert "space -1.100 .. 1.100" in doc  # three decimals in the axis labels
    assert "time " in doc


def test_quadratic_coordinates_render(sm4):
    machine, config = build_gcd_phi()
    diagram = run(machine, config, RunLimits(max_events=30))
    doc = render_diagram(diagram)
    assert doc.count("<circle") == 30
