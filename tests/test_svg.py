import re
from fractions import Fraction

import pytest

from sigmach.engine import TIME_LIMIT, RunLimits, run
from sigmach.model import InitialConfiguration, SignalMachine
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


def test_segments_start_and_end_at_their_events_dots(sm4):
    """A segment born or killed at an event is drawn from or to that
    event's dot, at the very same pixel coordinates."""
    doc = render_diagram(sm4)
    ends = re.findall(r'points="([^ ]+) ([^"]+)"', doc)
    dots = [f"{x},{y}" for x, y in re.findall(r'cx="([^"]+)" cy="([^"]+)"', doc)]
    assert len(ends) == len(sm4.segments) and len(dots) == len(sm4.events)
    for seg, (start, end) in zip(sm4.segments, ends):
        if seg.birth_event is not None:
            assert start == dots[seg.birth_event]
        if seg.death_event is not None:
            assert end == dots[seg.death_event]


def test_quadratic_coordinates_render(sm4):
    machine, config = build_gcd_phi()
    diagram = run(machine, config, RunLimits(max_events=30))
    doc = render_diagram(diagram)
    assert doc.count("<circle") == 30


def test_one_stationary_signal_gets_a_unit_wide_view():
    machine = SignalMachine.build([("w", 0)])
    doc = render_diagram(run(machine, InitialConfiguration.build(machine, [("w", 0)])))
    assert doc.count("<polyline") == 1
    assert "space -0.550 .. 0.550" in doc and "time -0.050 .. 1.050" in doc


def test_a_run_cut_before_its_first_event_gets_a_unit_long_view():
    machine, config = build_sm4()
    diagram = run(machine, config, RunLimits(max_time=machine.ctx.scalar(Fraction(1, 10**12))))
    assert diagram.halt_reason == TIME_LIMIT and diagram.events == []
    doc = render_diagram(diagram)
    assert doc.count("<polyline") == len(diagram.segments) == 3
    assert "time -0.050 .. 1.050" in doc
