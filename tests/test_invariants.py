"""Cross-cutting structural invariants checked over randomized runs."""

import random
from fractions import Fraction

import pytest

import sigmach.analysis as analysis
from sigmach.analysis import ContractionSearch, detect_contraction, two_speed_bound_check
from sigmach.engine import QUIESCENT, RunLimits, RunState, configuration_at, run
from sigmach.mesh import StripSpec, central_collision, strip_configuration, support_machine_nu
from sigmach.model import InitialConfiguration, SignalMachine
from sigmach.presets import build_sm4
from sigmach.scalars import FieldContext
from sigmach.verify import random_configuration, random_machine

Q = FieldContext(0)


def assert_state_well_formed(machine, state):
    positions = state.positions()
    for a, b in zip(positions, positions[1:]):
        assert a < b, "site positions must be strictly increasing"
    for _, sigs in state.sites:
        assert sigs, "sites must be nonempty"
        speeds = [machine.speed_of(ms) for ms in sigs]
        assert len({str(s) for s in speeds}) == len(speeds), (
            "co-located signals must have pairwise distinct speeds"
        )


def test_every_snapshot_is_well_formed_on_random_runs():
    rng = random.Random(424242)
    for _ in range(25):
        machine = random_machine(rng, rng.randint(2, 4))
        config = random_configuration(rng, machine)
        diagram = run(machine, config, RunLimits(max_events=60))
        for snap in diagram.snapshots:
            assert_state_well_formed(machine, snap)
        times = [s.time for s in diagram.snapshots]
        for a, b in zip(times, times[1:]):
            assert a < b


def test_segments_agree_with_the_trajectory_condition():
    machine, config = build_sm4()
    diagram = run(machine, config, RunLimits(max_events=25))
    sp = machine.speed_of
    by_index = {e.index: e for e in diagram.events}
    for seg in diagram.segments:
        assert seg.speed == sp(seg.signal)
        assert seg.intercept == seg.birth_position - seg.speed * seg.birth_time
        if seg.death_time is None:
            continue
        death = by_index[seg.death_event]
        assert seg.position_at(death.time) == death.position
        if seg.birth_event is not None:
            birth = by_index[seg.birth_event]
            assert (seg.birth_position, seg.birth_time) == (
                birth.position,
                birth.time,
            )


def test_strip_configuration_at_central_instant_shows_the_triple():
    machine = support_machine_nu(2, 3)
    spec = StripSpec.make(2, 3, 0, 1)
    diagram = run(
        machine, strip_configuration(spec, machine), RunLimits(max_time=Q.scalar(1))
    )
    x, t = central_collision(spec)
    state = configuration_at(diagram, t)
    site = next(sigs for p, sigs in state.sites if p == x)
    assert {m.name for m in site} == {"L", "S", "R"}


def test_two_speed_bound_holds_for_arbitrary_rule_tables():
    # the bound is structural, not specific to the crossing rule: arbitrary
    # 2-speed machines (annihilating or renaming) stay within movers*blockers
    rng = random.Random(99)
    for _ in range(40):
        machine = random_machine(rng, 2)
        config = random_configuration(rng, machine)
        report = two_speed_bound_check(machine, config)
        assert report.halted
        assert report.count <= report.bound


def test_contraction_search_budget_is_respected(monkeypatch):
    """`search_budget` counts the pairs tested, in (t2, then t1) order, so
    the least budget that certifies is the number of pairs up to the match."""
    machine, config = build_sm4()
    diagram = run(machine, config, RunLimits(max_events=40))
    assert detect_contraction(diagram, search_budget=10**6) is not None
    least = next(b for b in range(100) if detect_contraction(diagram, search_budget=b) is not None)
    assert detect_contraction(diagram, search_budget=least - 1) is None
    tested, real = [], analysis._homothety
    monkeypatch.setattr(analysis, "_homothety", lambda s1, s2: tested.append(s1) or real(s1, s2))
    cert = detect_contraction(diagram)
    assert least == len(tested) == 1
    assert detect_contraction(diagram, search_budget=least) == cert


class _HandBuilt(list):
    """Hand-built states, offered as a search reads a run's snapshots."""

    def shape(self, i):
        return tuple(sigs for _, sigs in self[i].sites)


def test_the_search_answers_the_least_t2_then_the_least_t1():
    # four states of one shape, two sites spanning 10, 20, 15 and 5: states
    # (1, 2) contract by 3/4 and (0, 3) by 1/2, and (1, 2) has the least t2
    machine, _ = build_sm4()
    a, b = (frozenset((ms,)) for ms in machine.signals[:2])
    snaps = _HandBuilt(
        RunState(Q.scalar(t), ((Q.zero(), a), (Q.scalar(span), b)))
        for t, span in enumerate((10, 20, 15, 5))
    )
    cert = ContractionSearch().feed(snaps)
    assert (cert.t1, cert.t2, cert.ratio) == (Q.scalar(1), Q.scalar(2), Q.scalar(Fraction(3, 4)))
    assert cert.center_x == Q.zero()
    # tested before the match: (0, 1) and (0, 2)
    assert ContractionSearch(search_budget=2).feed(snaps) is None
    assert ContractionSearch(search_budget=3).feed(snaps) == cert


def test_snapshot_count_tracks_advances_not_events():
    machine = SignalMachine.build(
        [("r", 1), ("s", 0)], [(("r", "s"), ("r", "s"))]
    )
    config = InitialConfiguration.build(
        machine, [("r", -1), ("r", -2), ("s", 1), ("s", 2)]
    )
    diagram = run(machine, config)
    assert diagram.halt_reason == QUIESCENT
    assert len(diagram.events) == 4
    # two of the four crossings happen simultaneously (symmetric spacing)
    assert len(diagram.snapshots) - 1 < 4
    assert diagram.snapshots[0].time == Q.zero()
