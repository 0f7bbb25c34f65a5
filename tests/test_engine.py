import copy
import gc
import math
import operator
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigmach.engine as engine
import sigmach.scalars as scalars
from sigmach.engine import (
    EVENT_LIMIT,
    MISSING_RULE,
    QUIESCENT,
    TIME_LIMIT,
    MissingRuleError,
    RunLimits,
    RunState,
    common_horizon,
    configuration_at,
    next_collision_delta,
    run,
)
from sigmach.model import InitialConfiguration, SignalMachine
from sigmach.presets import (
    build_gcd,
    build_gcd_phi,
    build_modulo,
    build_sm2_support,
    build_sm4,
)
from sigmach.scalars import FieldContext, Scalar
from sigmach.textio import event_log_lines
from sigmach.verify import (
    brute_force_next_collision,
    brute_force_run,
    random_configuration,
    random_machine,
    random_state,
)

Q = FieldContext(0)
# the fused line formulas of `sigmach.scalars` that the scheduler calls
KERNELS = ["affine", "scaled_difference"]


def initial_state(machine, config):
    return RunState(machine.ctx.zero(), config.sites, 0)


class TestNextCollisionDelta:
    def test_shuttle_reaches_the_far_guard_first(self):
        machine, config = build_sm4()
        delta, groups = next_collision_delta(machine, initial_state(machine, config))
        assert delta == Q.scalar(Fraction(4, 9))
        assert len(groups) == 1
        pos, signals = groups[0]
        assert pos == Q.scalar(Fraction(7, 9))
        assert {m.name for m in signals} == {"zig", "right"}

    def test_single_signal_never_collides(self):
        machine = SignalMachine.build([("a", 1)])
        config = InitialConfiguration.build(machine, [("a", 0)])
        delta, groups = next_collision_delta(machine, initial_state(machine, config))
        assert delta is None and groups == []

    def test_parallel_signals_never_collide(self):
        machine = SignalMachine.build([("a", 1), ("b", 1)])
        config = InitialConfiguration.build(machine, [("a", 0), ("b", 5)])
        delta, _ = next_collision_delta(machine, initial_state(machine, config))
        assert delta is None

    def test_mirror_symmetric_simultaneous_groups(self):
        machine = SignalMachine.build([("r", 1), ("s", 0), ("l", -1)])
        config = InitialConfiguration.build(
            machine, [("r", -2), ("s", -1), ("s", 1), ("l", 2)]
        )
        delta, groups = next_collision_delta(machine, initial_state(machine, config))
        assert delta == Q.one()
        assert [str(p) for p, _ in groups] == ["-1", "1"]

    def test_colocated_signals_separate_without_event(self):
        machine = SignalMachine.build([("r", 1), ("s", 0)])
        config = InitialConfiguration.build(machine, [("r", 0), ("s", 0)])
        delta, _ = next_collision_delta(machine, initial_state(machine, config))
        assert delta is None


class TestAdvance:
    """A run's first step."""

    def test_sm4_first_step(self):
        machine, config = build_sm4()
        diagram = run(machine, config, RunLimits(max_events=1))
        state = diagram.snapshots[1]
        assert state.time == Q.scalar(Fraction(4, 9))
        assert len(diagram.events) == 1 and state.event_count == 1
        by_pos = {str(p): sorted(m.name for m in sigs) for p, sigs in state.sites}
        assert by_pos == {"-7/9": ["left"], "7/9": ["right", "zag"]}

    def test_annihilation_empties_the_line(self):
        machine = SignalMachine.build(
            [("r", 1), ("l", -1)], [(("r", "l"), ())]
        )
        config = InitialConfiguration.build(machine, [("r", 0), ("l", 2)])
        diagram = run(machine, config)
        assert diagram.halt_reason == QUIESCENT
        assert len(diagram.events) == 1
        assert diagram.events[0].outgoing == frozenset()
        assert diagram.final_state.sites == ()

    def test_triple_collision_in_gcd(self):
        machine, config = build_gcd(4, 2)
        diagram = run(machine, config)
        triples = [e for e in diagram.events if len(e.incoming) == 3]
        assert len(triples) == 1
        e = triples[0]
        assert {m.name for m in e.incoming} == {"zig", "wall_b", "ZAG"}
        assert {m.name for m in e.outgoing} == {"ZAG", "wall0"}

    def test_missing_rule_is_reported(self):
        machine = SignalMachine.build([("r", 1), ("s", 0)])  # no rules at all
        config = InitialConfiguration.build(machine, [("r", 0), ("s", 1)])
        err = run(machine, config).halt_detail
        assert isinstance(err, MissingRuleError)
        assert err.position == Q.one()
        assert err.time == Q.one()
        assert {m.name for m in err.incoming} == {"r", "s"}


class TestRun:
    def test_modulo_walls_at_0_and_2(self):
        machine, config = build_modulo(11, 3)
        diagram = run(machine, config)
        assert diagram.halt_reason == QUIESCENT
        finals = {
            str(p): sorted(m.name for m in sigs)
            for p, sigs in diagram.final_state.sites
        }
        assert finals == {"0": ["wall0"], "2": ["wall_r"]}

    def test_sm2_sorted_arrangement_event_count(self):
        machine, config = build_sm2_support(2, 3, "sorted")
        diagram = run(machine, config)
        assert diagram.halt_reason == QUIESCENT
        assert len(diagram.events) == 6

    def test_empty_configuration(self):
        machine, _ = build_sm4()
        diagram = run(machine, InitialConfiguration([]))
        assert diagram.halt_reason == QUIESCENT
        assert diagram.events == []

    def test_missing_rule_halt(self):
        machine = SignalMachine.build([("r", 1), ("s", 0)])
        config = InitialConfiguration.build(machine, [("r", 0), ("s", 1)])
        diagram = run(machine, config)
        assert diagram.halt_reason == MISSING_RULE
        assert diagram.halt_detail.time == Q.one()
        assert diagram.events == []
        # the diagram describes the run up to, not including, the halt
        assert diagram.horizon == Q.one()
        assert not diagram.covers(Q.one())
        assert diagram.covers(Q.scalar(Fraction(1, 2)))
        assert not diagram.covers(-Q.one())

    def test_a_missing_rule_changes_no_line(self):
        """r passes s at t = 1 under a rule, then meets l at t = 2 under
        none: the halt leaves the lines of that meeting alive."""
        machine = SignalMachine.build(
            [("r", 1), ("s", 0), ("l", -1)], [(("r", "s"), ("r", "s"))])
        config = InitialConfiguration.build(machine, [("r", 0), ("s", 1), ("l", 4)])
        diagram = run(machine, config)
        assert diagram.halt_reason == MISSING_RULE
        assert diagram.halt_detail.time == Q.scalar(2)
        assert [e.time for e in diagram.events] == [Q.one()]
        alive = sorted(seg.signal.name for seg in diagram.segments if seg.death_event is None)
        assert alive == ["l", "r", "s"]
        assert all(seg.death_time is None for seg in diagram.segments if seg.death_event is None)
        assert brute_force_run(machine, config, RunLimits())[:2] == (diagram.events, MISSING_RULE)

    def test_missing_rule_halt_leaves_no_reference_cycles(self):
        machine = SignalMachine.build([("r", 1), ("s", 0)])
        config = InitialConfiguration.build(machine, [("r", 0), ("s", 1)])
        gc.collect()
        gc.disable()
        try:
            diagram = run(machine, config)
            assert str(diagram.halt_detail) == "no rule for {r,s} at x=1, t=1"
            del diagram
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_event_budget(self):
        machine, config = build_sm4()
        diagram = run(machine, config, RunLimits(max_events=7))
        assert diagram.halt_reason == EVENT_LIMIT
        assert len(diagram.events) == 7

    def test_zero_event_budget(self):
        machine, config = build_sm4()
        diagram = run(machine, config, RunLimits(max_events=0))
        assert diagram.halt_reason == EVENT_LIMIT
        assert diagram.events == []
        assert diagram.final_state.time == Q.zero()
        with pytest.raises(ValueError):
            RunLimits(max_events=-1)
        with pytest.raises(ValueError):
            RunLimits(max_time=Q.scalar(-1))

    @pytest.mark.parametrize("field, value", [
        ("max_events", 2.5), ("max_events", True), ("max_events", "3"),
        ("max_time", 0.5), ("max_time", Fraction(3, 2)), ("max_time", 1),
    ])
    def test_limits_of_the_wrong_type_are_refused(self, field, value):
        """`run` reads its limits once, before its loop, so they are checked
        when made: a float time would fail mid-run, a float budget would
        round up, and a `Fraction` time would come back as the horizon."""
        with pytest.raises(TypeError, match=field):
            RunLimits(**{field: value})

    def test_time_budget_drifts_to_the_boundary(self):
        machine, config = build_sm4()
        diagram = run(machine, config, RunLimits(max_time=Q.scalar(Fraction(1, 2))))
        assert diagram.halt_reason == TIME_LIMIT
        assert diagram.final_state.time == Q.scalar(Fraction(1, 2))
        assert all(e.time <= Q.scalar(Fraction(1, 2)) for e in diagram.events)

    @pytest.mark.parametrize(
        "limits", [RunLimits(max_time=Q.scalar(Fraction(3, 2))), RunLimits(max_events=7)],
        ids=["time", "events"],
    )
    def test_where_a_run_ends_is_read_without_building_a_state(self, limits, monkeypatch):
        built, real = [], engine._state
        monkeypatch.setattr(engine, "_state", lambda record, *rest: built.append(record[0]) or real(record, *rest))
        diagram, unbounded = run(*build_sm4(), limits), run(*build_gcd(8, 3))
        h = diagram.horizon
        assert diagram.covers(h) and not diagram.covers(h + 1)
        assert common_horizon(diagram, unbounded) == h and common_horizon(unbounded) is None
        assert built == []
        assert diagram.final_state.time == h
        assert built == [h]

    def test_event_times_non_decreasing_and_positive(self):
        machine, config = build_modulo(11, 3)
        diagram = run(machine, config)
        times = [e.time for e in diagram.events]
        assert all(t.sign() > 0 for t in times)
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_rational_machine_has_rational_event_coordinates(self):
        # run a rational machine inside Q(sqrt5): nothing irrational appears
        ctx = FieldContext(5)
        machine, config = build_gcd(8, 3, ctx=ctx)
        diagram = run(machine, config)
        assert diagram.halt_reason == QUIESCENT
        for e in diagram.events:
            assert e.position.b == 0 and e.time.b == 0

    def test_irrational_machine_produces_irrational_coordinates(self):
        machine, config = build_gcd_phi()
        diagram = run(machine, config, RunLimits(max_events=10))
        assert any(e.position.b != 0 for e in diagram.events)


class TestConfigurationAt:
    def test_time_zero_is_the_initial_configuration(self):
        machine, config = build_sm4()
        diagram = run(machine, config, RunLimits(max_events=5))
        state = configuration_at(diagram, Q.zero())
        assert state.sites == config.sites

    def test_gcd_phi_at_time_one(self):
        machine, config = build_gcd_phi()
        diagram = run(machine, config, RunLimits(max_events=30))
        state = configuration_at(diagram, machine.ctx.one())
        shape = {str(p): sorted(m.name for m in sigs) for p, sigs in state.sites}
        assert shape == {
            "0": ["wall0", "zig"],
            "-1/2+1/2*sqrt(5)": ["wall_b"],
            "1": ["wall_a"],
        }

    def test_between_events_positions_move_linearly(self):
        machine, config = build_sm4()
        diagram = run(machine, config, RunLimits(max_events=3))
        state = configuration_at(diagram, Q.scalar(Fraction(2, 9)))
        shape = {str(p) for p, _ in state.sites}
        # zig at -1 + 4*(2/9), left at -1 + (1/2)(2/9), right at 1 - (1/2)(2/9)
        assert shape == {"-1/9", "-8/9", "8/9"}

    def test_beyond_horizon_rejected(self):
        machine, config = build_sm4()
        diagram = run(machine, config, RunLimits(max_events=3))
        with pytest.raises(ValueError):
            configuration_at(diagram, diagram.final_state.time + 1)

    def test_negative_time_precedes_the_initial_configuration(self):
        machine, config = build_sm4()
        diagram = run(machine, config, RunLimits(max_events=3))
        with pytest.raises(ValueError, match="time -1 precedes the initial configuration"):
            configuration_at(diagram, Q.scalar(-1))

    def test_reads_the_record_and_builds_at_most_one_state(self, monkeypatch):
        machine, config = build_gcd(37, 5)
        diagram = run(machine, config)
        step_times = sorted({e.time for e in diagram.events} | {Q.zero()})

        def no_scheduler(*_):
            raise AssertionError("a scheduler was started")

        built, real = [], engine._state
        monkeypatch.setattr(engine, "_Runner", no_scheduler)
        monkeypatch.setattr(engine, "_state", lambda record, *rest: built.append(record[0]) or real(record, *rest))
        for t, later in zip(step_times, step_times[1:]):
            assert configuration_at(diagram, t).time == t
            assert built in ([], [t])  # the step's own state, once
            built.clear()
            assert configuration_at(diagram, t).time == t
            assert built == []
            mid = (t + later) / 2
            assert configuration_at(diagram, mid).time == mid
            assert built == [mid]
            built.clear()

    def test_quiescent_diagram_extends_forever(self):
        machine, config = build_modulo(11, 3)
        diagram = run(machine, config)
        state = configuration_at(diagram, Q.scalar(1000))
        assert {str(p) for p, _ in state.sites} == {"0", "2"}


class TestSchedulerOracle:
    def test_neighbor_scan_matches_brute_force(self):
        rng = random.Random(20260810)
        for _ in range(120):
            machine, state = random_state(rng)
            assert next_collision_delta(machine, state) == brute_force_next_collision(
                machine, state
            )

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-9, max_value=9, max_denominator=4),
                st.fractions(min_value=-5, max_value=5, max_denominator=3),
            ),
            min_size=2,
            max_size=10,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_neighbor_scan_matches_brute_force_hypothesis(self, placed):
        machine = SignalMachine.build(
            [(f"h{i}", speed) for i, (_, speed) in enumerate(placed)]
        )
        by_pos = {}
        for ms, (pos, _) in zip(machine.signals, placed):
            group = by_pos.setdefault(Q.scalar(pos), set())
            if any(
                machine.speed_of(o) == machine.speed_of(ms) for o in group
            ):
                continue  # same-speed co-location is not a valid state
            group.add(ms)
        sites = tuple(
            (p, frozenset(by_pos[p])) for p in sorted(by_pos) if by_pos[p]
        )
        state = RunState(Q.zero(), sites, 0)
        assert next_collision_delta(machine, state) == brute_force_next_collision(
            machine, state
        )

    def test_simultaneous_batch_shares_one_time(self):
        machine, config = build_modulo(9, 3)  # has simultaneous distinct groups
        diagram = run(machine, config)
        by_index = {}
        for snap_prev, snap in zip(diagram.snapshots, diagram.snapshots[1:]):
            batch = [e for e in diagram.events if snap_prev.event_count <= e.index < snap.event_count]
            assert len({e.time for e in batch}) == 1
            by_index.setdefault(len(batch), 0)
            by_index[len(batch)] += 1
        assert any(k >= 2 for k in by_index)  # at least one true simultaneous batch

    def test_the_whole_run_oracle_computes_without_the_kernels(self, monkeypatch):
        """`brute_force_run` checks the fused kernels only while it does not
        call them: with both replaced, in every sigmach module, by functions
        that raise, it still gives the events `run` gave before the patch."""
        systems = [(*build_sm4(), RunLimits(max_events=200)), (*build_gcd(100, 3), RunLimits())]
        want = [run(*system).events for system in systems]

        def refuse(*_):
            raise AssertionError("a fused kernel was called")

        kernels = {id(getattr(scalars, name)) for name in KERNELS}
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "sigmach"]
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in kernels:  # under any name it is bound to
                    monkeypatch.setattr(module, name, refuse)
        with pytest.raises(AssertionError, match="fused kernel"):
            run(*systems[0])
        for system, events in zip(systems, want):
            assert brute_force_run(*system)[0] == events

    @pytest.mark.parametrize("signals, rules, placements, n_events", [
        # two collisions at t = 1 side by side in `order`; the new lines at
        # their shared edge meet at t = 5/2, so that pair is queued once
        (
            [("r1", 1), ("l1", -1), ("r2", 1), ("l2", -1)],
            [(("r1", "l1"), ("r1",)), (("r2", "l2"), ("l2",)), (("r1", "l2"), ())],
            [("r1", 0), ("l1", 2), ("r2", 3), ("l2", 5)],
            3,
        ),
        # annihilations at t = 1 at both ends of `order`; the lines left
        # between them never meet, and the last is faster than the first
        (
            [("a", 1), ("b", -1), ("s", 0)],
            [(("a", "b"), ())],
            [("a", 0), ("b", 2), ("s", 4), ("a", 6), ("a", 10), ("b", 12)],
            2,
        ),
    ], ids=["adjacent-groups", "both-ends-annihilate"])
    def test_one_step_at_the_edges_of_order_matches_brute_force(
        self, signals, rules, placements, n_events
    ):
        machine = SignalMachine.build(signals, rules)
        config = InitialConfiguration.build(machine, placements)
        diagram = run(machine, config)
        assert diagram.halt_reason == QUIESCENT
        assert len(diagram.events) == n_events
        assert brute_force_run(machine, config, RunLimits())[:2] == (diagram.events, QUIESCENT)


def drifted(machine, state, t):
    """The state moved to t, strictly before its next collision: every signal
    on its own site, in order of position."""
    moved = sorted(
        ((p + machine.speed_of(ms) * (t - state.time), ms) for p, sigs in state.sites for ms in sigs),
        key=lambda site: site[0],
    )
    return RunState(t, tuple((p, frozenset((ms,))) for p, ms in moved), state.event_count)


def snapshot_systems():
    """25 seeded random machines, sm4, gcd and mod, each with its limits."""
    rng = random.Random(9090)
    systems = []
    for i in range(25):
        machine = random_machine(rng, rng.randint(2, 4))
        config = random_configuration(rng, machine)
        systems.append(pytest.param(machine, config, RunLimits(max_events=60), id=f"random{i}"))
    systems.append(pytest.param(*build_sm4(), RunLimits(max_events=60), id="sm4"))
    systems.append(pytest.param(*build_gcd(37, 5), RunLimits(), id="gcd"))
    systems.append(pytest.param(*build_modulo(23, 4), RunLimits(), id="mod"))
    return systems


SNAPSHOT_SYSTEMS = snapshot_systems()


class TestEvent:
    def test_fields_cannot_be_assigned(self):
        event = run(*build_sm4(), RunLimits(max_events=1)).events[0]
        with pytest.raises(AttributeError):
            event.time = Q.zero()

    def test_repr_names_index_point_and_signal_sets(self):
        events = run(*build_gcd(10, 4)).events
        assert repr(events[0]) == "E0@(4,4) {wall_b,zig}->{ZIG,wall_b,zag}"
        assert repr(events[2]) == "E2@(10,10) {ZIG,wall_a}->{ZAG}"
        sm4 = run(*build_sm4(), RunLimits(max_events=2)).events
        assert repr(sm4[1]) == "E1@(-49/81,64/81) {left,zag}->{left,zig}"

    @pytest.mark.parametrize("trip", [copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))],
                             ids=["deepcopy", "pickle"])
    def test_a_diagram_round_trip_keeps_its_events(self, trip):
        diagram = run(*build_gcd(100, 3))
        back = trip(diagram)
        assert back.events == diagram.events
        assert all(type(e) is engine.Event for e in back.events)

    @pytest.mark.parametrize("trip", [copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))],
                             ids=["deepcopy", "pickle"])
    def test_a_diagram_round_trip_keeps_its_log_and_final_state(self, trip):
        diagram = run(*build_sm4(), RunLimits(max_time=Q.scalar(Fraction(3, 2))))
        back = trip(diagram)
        assert event_log_lines(back) == event_log_lines(diagram)
        assert back.limits == diagram.limits and back.horizon == Q.scalar(Fraction(3, 2))
        assert back.final_state == diagram.final_state


class TestSnapshots:
    """`run()` records lines and builds a state when it is first read; the
    order of reads must not change what is read: the states of the
    whole-run oracle, which shares no code with the scheduler."""

    @pytest.mark.parametrize("machine, config, limits", SNAPSHOT_SYSTEMS)
    def test_any_read_order_gives_the_stepped_states(self, machine, config, limits):
        want = brute_force_run(machine, config, limits)[2]
        n = len(want)
        backwards = run(machine, config, limits).snapshots
        assert [backwards[i] for i in reversed(range(n))] == want[::-1]
        negative = run(machine, config, limits).snapshots
        assert [negative[-k] for k in range(1, n + 1)] == want[::-1]
        sliced = run(machine, config, limits).snapshots
        assert sliced[n // 2:] == want[n // 2:]
        assert sliced[::-1] == want[::-1]
        assert sliced[:n // 2] == want[:n // 2]
        assert list(run(machine, config, limits).snapshots) == want

    @pytest.mark.parametrize("machine, config, limits", SNAPSHOT_SYSTEMS)
    def test_configuration_at_between_and_at_events(self, machine, config, limits):
        diagram = run(machine, config, limits)
        states = brute_force_run(machine, config, limits)[2]
        assert len(states) == len(diagram.snapshots)
        for state, later in zip(states, states[1:]):
            assert configuration_at(diagram, state.time) == state
            mid = (state.time + later.time) / 2
            assert configuration_at(diagram, mid) == drifted(machine, state, mid)

    @pytest.mark.parametrize("machine, config, limits", SNAPSHOT_SYSTEMS)
    def test_a_window_is_the_slice_of_its_state(self, machine, config, limits):
        # at each step and between steps, for windows that end on a site,
        # between sites and beyond them all, and for an empty window
        snapshots = run(machine, config, limits).snapshots
        states = brute_force_run(machine, config, limits)[2]
        for state, later in zip(states, states[1:] + [None]):
            moved = [state]
            if later is not None:
                mid = (state.time + later.time) / 2
                moved.append(drifted(machine, state, mid))
            for s in moved:
                xs = [p for p, _ in s.sites]
                ends = sorted({*xs, xs[0] - 1, xs[-1] + 1, *((a + b) / 2 for a, b in zip(xs, xs[1:]))})
                ends = ends[:: len(ends) // 6 + 1] + ends[-1:]
                windows = [(a, b) for a in ends for b in ends if a <= b]
                windows.append((xs[-1] + 1, xs[-1] + 2))
                for lo, hi in windows:
                    want = tuple((p, sigs) for p, sigs in s.sites if lo <= p <= hi)
                    assert snapshots.window(s.time, lo, hi) == want, (s.time, lo, hi)

    def test_a_windowed_read_moves_the_window_and_two_bisections(self, monkeypatch):
        # the (1, 1) strip run long: its window [0, 1] keeps a few lines
        # while hundreds of escaped rays stay live on either side
        from sigmach.mesh import StripSpec, strip_configuration, support_machine_nu

        machine = support_machine_nu(1, 1)
        config = strip_configuration(StripSpec.make(1, 1, 0, 1), machine)
        snapshots = run(machine, config, RunLimits(max_time=Q.scalar(400))).snapshots
        lo, hi = Q.zero(), Q.one()
        times = [snapshots.time(i) for i in range(0, len(snapshots), 7)]
        times += [t + Fraction(1, 7) for t in times]
        computed, real = [0], Scalar.__add__

        def add(x, y):  # a moved line's position is intercept + v*t
            computed[0] += 1
            return real(x, y)

        widest = 0
        for t in times:
            state = snapshots.at(t)
            live = sum(len(sigs) for _, sigs in state.sites)
            inside = sum(len(sigs) for p, sigs in state.sites if lo <= p <= hi)
            widest = max(widest, live)
            computed[0] = 0
            monkeypatch.setattr(Scalar, "__add__", add)
            got = snapshots.window(t, lo, hi)
            monkeypatch.undo()
            assert got == tuple(site for site in state.sites if lo <= site[0] <= hi)
            assert computed[0] <= inside + 2 * math.ceil(math.log2(live)), (t, live, inside)
        assert widest > 200

    def test_at_refuses_a_time_before_the_first_record(self):
        snapshots = run(*build_sm4(), RunLimits(max_events=6)).snapshots
        assert snapshots.at(Q.zero()) == snapshots[0]
        with pytest.raises(ValueError, match="no recorded state"):
            snapshots.at(Q.scalar(-1))
        with pytest.raises(ValueError, match="no recorded state"):
            snapshots.window(Q.scalar(-1), Q.zero(), Q.one())

    def test_a_run_leaves_no_reference_cycles(self):
        systems = [(*build_sm4(), RunLimits(max_events=200)), (*build_gcd(100, 3), RunLimits())]
        gc.collect()
        gc.disable()
        try:
            for machine, config, limits in systems:
                diagram = run(machine, config, limits)
                assert len(list(diagram.snapshots)) > 1
                del diagram
            assert gc.collect() == 0
        finally:
            gc.enable()


SCALAR_OPS = [
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__eq__", "_cmp",
]


def scalar_ops_per_event(monkeypatch, machine, config, limits=None):
    """Scalar operations that run() makes, per event; a fused kernel call,
    patched where `engine` looks it up, counts as one."""
    count = [0]

    def counted(fn):
        def wrapper(*args):
            count[0] += 1
            return fn(*args)

        return wrapper

    with monkeypatch.context() as patch:
        for name in SCALAR_OPS:
            patch.setattr(Scalar, name, counted(getattr(Scalar, name)))
        for name in KERNELS:
            patch.setattr(engine, name, counted(getattr(engine, name)))
        diagram = run(machine, config, limits)
    return count[0] / len(diagram.events)


def test_each_order_operator_calls_cmp_once(monkeypatch):
    """The op counters patch `Scalar._cmp` by name, so each of < <= > >=
    must look it up and call it exactly once."""
    calls = []
    real = Scalar._cmp

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Scalar, "_cmp", counted)
    x, y = Q.scalar(1), Q.scalar(2)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        calls.clear()
        compare(x, y)
        assert calls == [y]


def test_scalar_ops_per_event_do_not_grow_with_live_signals(monkeypatch):
    """gcd(a, 3) keeps about a/20 signals alive; the scheduler's cost per
    event must depend on the colliding signals only."""
    per_event = {a: scalar_ops_per_event(monkeypatch, *build_gcd(a, 3)) for a in (100, 1000)}
    assert per_event[1000] <= 1.5 * per_event[100], per_event


@pytest.mark.parametrize("system, limits, bound", [
    (build_sm4, RunLimits(max_events=200), 3.5),
    (lambda: build_gcd(100, 3), None, 6.5),
], ids=["sm4", "gcd(100,3)"])
def test_scalar_ops_per_event_stay_within_the_collision_work(monkeypatch, system, limits, bound):
    """An event costs its meeting point, an intercept per outgoing speed that
    no incoming line had and a meeting time per new neighbour pair, one
    kernel call each, plus the heap's comparisons."""
    per_event = scalar_ops_per_event(monkeypatch, *system(), limits)
    assert per_event <= bound, per_event


# -- the run's denominator lcm ------------------------------------------------------
#
# The scheduler passes its kernels the lcm of its inputs' denominators, so
# that a kernel can prove a reduction trivial with a gcd on small integers.
# Each run below needs, to reduce its results, a prime that only one kind of
# input carries, so a den_lcm that left that kind out would leave results
# out of lowest terms.


def _lowest_terms(*scalars_):
    return all(math.gcd(x.p, x.q, x.n) == 1 for x in scalars_)


def _diagram_in_lowest_terms(diagram):
    for e in diagram.events:
        assert _lowest_terms(e.time, e.position), e
    for seg in diagram.segments:
        assert _lowest_terms(seg.intercept, seg.birth_position, seg.birth_time), seg
        assert seg.death_time is None or _lowest_terms(seg.death_time), seg


def test_a_run_reduces_by_the_primes_of_its_closing_reciprocals():
    """Speeds 8, 1 and -6 are congruent mod 7, and 7 comes only from
    1/(8 - 1) = 1/(1 + 6) = 1/7.  A fast and a slow signal meet at t = k/7
    and send back a signal whose intercept x + 6t is an integer: 7 cancels
    from the sum.  (In sm4 only 3 has to cancel, and always in a product.)"""
    machine = SignalMachine.build(
        [("fast", 8), ("slow", 1), ("back", -6)],
        [(("fast", "slow"), ("slow", "back")), (("slow", "back"), ("slow", "back"))],
    )
    config = InitialConfiguration.build(
        machine, [("fast", 0), ("slow", 1), ("fast", 10), ("slow", 12), ("fast", 30), ("slow", 33)])
    diagram = run(machine, config)
    _diagram_in_lowest_terms(diagram)
    backs = [seg.intercept for seg in diagram.segments if seg.signal.name == "back"]
    assert backs and all(not c.q and c.n == 1 for c in backs)
    assert brute_force_run(machine, config, RunLimits())[:2] == (diagram.events, QUIESCENT)


def test_a_run_reduces_by_the_primes_of_its_sites():
    """sm4 scaled by 1/5^20 is sm4 with every coordinate scaled by 1/5^20;
    5 is in no speed or closing reciprocal."""
    machine, config = build_sm4()
    scale = Fraction(1, 5**20)
    scaled = InitialConfiguration.build(
        machine, [(ms.name, p * scale) for p, sigs in config.sites for ms in sigs])
    limits = RunLimits(max_events=300)
    diagram = run(machine, scaled, limits)
    _diagram_in_lowest_terms(diagram)
    want = run(machine, config, limits).events
    assert [(e.time, e.position, e.incoming) for e in diagram.events] == [
        (e.time * scale, e.position * scale, e.incoming) for e in want]
    assert brute_force_run(machine, scaled, RunLimits(max_events=60))[0] == diagram.events[:60]


def test_steps_from_a_state_reduce_by_the_primes_of_its_time():
    """From sm4's sites at t = 1/13^40 the first meeting is at 7/9: only the
    start time has 13, and 13^40 cancels from the meeting point.  sm4's
    states from t0 are those from 0, each moved t0 later, so the oracle's
    states and events give every step's sites and meetings."""
    machine, config = build_sm4()
    t0 = Q.scalar(Fraction(1, 13**40))
    events, _, states = brute_force_run(machine, config, RunLimits(max_events=20))
    assert next_collision_delta(machine, RunState(t0, config.sites))[1][0][0] == Q.scalar(Fraction(7, 9))
    for state, later in zip(states, states[1:]):
        state = RunState(state.time + t0, state.sites, state.event_count)
        delta, groups = next_collision_delta(machine, state)
        assert (delta, groups) == brute_force_next_collision(machine, state)
        assert _lowest_terms(delta, *(p for p, _ in groups))
        assert [(state.time + delta, p) for p, _ in groups] == [
            (e.time + t0, e.position) for e in events[state.event_count:later.event_count]]


def test_a_deep_sm4_run_proves_no_big_coprime_gcd():
    """A 1000-event sm4 run reaches about 3000-bit scalars.  With the run's
    denominator lcm its kernels never take a gcd of two operands over 1000
    bits that comes out as 1: they prove such reductions trivial on small
    integers instead.  (Without it, the run makes 1007 such gcds.)"""

    class CountingMath:
        big_coprime = 0

        def __getattr__(self, name):
            return getattr(math, name)

        def gcd(self, *args):
            # math.gcd folds its operands left to right and stops at 1
            g = args[0]
            for x in args[1:]:
                if g == 1:
                    break
                h = math.gcd(g, x)
                if h == 1 and g.bit_length() > 1000 and x.bit_length() > 1000:
                    self.big_coprime += 1
                g = h
            return abs(g)

    counting = CountingMath()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scalars, "math", counting)
        diagram = run(*build_sm4(), RunLimits(max_events=1000))
    assert max(e.position.n.bit_length() for e in diagram.events) > 3000
    assert counting.big_coprime == 0
