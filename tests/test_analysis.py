import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

import sigmach.analysis as analysis
import sigmach.engine as engine
from sigmach.analysis import (
    contraction_replay_matches,
    detect_contraction,
    detect_periodicity,
    diagram_included,
    two_speed_bound_check,
)
from sigmach.engine import MISSING_RULE, RunLimits, RunState, SpaceTimeDiagram, run
from sigmach.mesh import (
    StripSpec,
    strip_configuration,
    support_machine_nu,
    verify_mesh_inclusion,
)
from sigmach.model import (
    InitialConfiguration,
    MachineError,
    SignalMachine,
    support_configuration,
    support_machine,
)
from sigmach.presets import build_gcd, build_gcd_phi, build_sm2_support, build_sm4, phi
from sigmach.scalars import FieldContext

Q = FieldContext(0)


@pytest.fixture(scope="module")
def sm4_diagram():
    machine, config = build_sm4()
    return run(machine, config, RunLimits(max_events=40))


@pytest.fixture(scope="module")
def strip_diagram():
    machine = support_machine_nu(2, 3)
    spec = StripSpec.make(2, 3, 0, 1)
    config = strip_configuration(spec, machine)
    return run(machine, config, RunLimits(max_events=4000, max_time=Q.scalar(3)))


def _shuttle_machine(signals=(), rules=()):
    """A shuttle zr/zl bouncing between walls w, plus the given signals and
    rules."""
    return SignalMachine.build(
        [("w", 0), ("zr", 1), ("zl", -1), *signals],
        [(("zr", "w"), ("zl", "w")), (("zl", "w"), ("zr", "w")), *rules],
    )


def _shuttle_run(machine, *placements):
    """The shuttle between walls at 1 and 2 (period 2) with the given extra
    placements, run to t = 12."""
    config = InitialConfiguration.build(
        machine, [*placements, ("w", 1), ("zr", 1), ("w", 2)]
    )
    return run(machine, config, RunLimits(max_time=Q.scalar(12)))


def _re_entry():
    """l leaves [0, 3], bounces off the stationary s at -1 and comes back in
    as r, which a wall absorbs at t = 7/2."""
    machine = _shuttle_machine(
        [("s", 0), ("l", -1), ("r", 1)], [(("l", "s"), ("r", "s")), (("r", "w"), ("w",))]
    )
    return _shuttle_run(machine, ("s", -1), ("l", Fraction(1, 2)))


def _two_negative_speeds():
    """The shuttle alone, in a machine that also has a speed -2."""
    return _shuttle_run(_shuttle_machine([("fast", -2)]))


def _closes_at_2():
    """f, at the fastest speed 1 from x = -2, enters [0, 3] at t = 2 and is
    absorbed by the wall at 1 at t = 3."""
    machine = _shuttle_machine([("f", 1)], [(("f", "w"), ("w",))])
    return _shuttle_run(machine, ("f", -2))


def _reborn_outside():
    """g kills the stationary s at -4 at t = 1, and another g meets an l
    leaving [0, 3] at (-4, 9/2), where s is born again for good; a second l
    enters from the right and a wall absorbs it at t = 9/2."""
    machine = _shuttle_machine(
        [("s", 0), ("g", 1), ("l", -1)],
        [(("g", "s"), ()), (("g", "l"), ("s",)), (("l", "w"), ("w",))],
    )
    placements = [("g", Fraction(-17, 2)), ("g", -5), ("s", -4), ("l", Fraction(1, 2))]
    return _shuttle_run(machine, *placements, ("l", Fraction(13, 2)))


def _closed_by_state(diagram, window, t):
    """Brute-force closure at t: no speed but the slowest is negative, no
    speed but the fastest positive, and in the state at t only slowest
    signals left of the window and only fastest ones right of it."""
    machine = diagram.machine
    speeds = machine.distinct_speeds()
    if any(v.sign() < 0 for v in speeds[1:]) or any(v.sign() > 0 for v in speeds[:-1]):
        return False
    lo, hi = window
    for x, sigs in diagram.snapshots.at(t).sites:
        side = speeds[0] if x < lo else speeds[-1] if x > hi else None
        if side is not None and any(machine.speed_of(ms) != side for ms in sigs):
            return False
    return True


class TestContraction:
    def test_sm4_certificate_is_exact(self, sm4_diagram):
        cert = detect_contraction(sm4_diagram)
        assert cert is not None
        assert cert.t1 == Q.zero()
        assert cert.t2 == Q.scalar(Fraction(64, 81))
        assert cert.ratio == Q.scalar(Fraction(49, 81))
        assert cert.center_x == Q.zero()
        assert cert.limit_time == Q.scalar(2)

    def test_sm4_replay_soundness(self, sm4_diagram):
        cert = detect_contraction(sm4_diagram)
        assert contraction_replay_matches(sm4_diagram, cert)

    def test_replay_rejects_wrong_certificates(self):
        machine, config = build_sm4()
        diagram = run(machine, config, RunLimits(max_events=60))
        cert = detect_contraction(diagram)
        assert contraction_replay_matches(diagram, cert)
        squared = replace(cert, ratio=cert.ratio * cert.ratio)
        assert not contraction_replay_matches(diagram, squared)
        off_center = replace(cert, center_x=Q.one(), ratio=Q.scalar(Fraction(1, 2)))
        assert not contraction_replay_matches(diagram, off_center)
        no_events = replace(cert, t2=cert.t1, ratio=Q.one())  # t1's sites, nothing replayed
        assert not contraction_replay_matches(diagram, no_events)

    def test_sm4_geometric_partial_sums(self, sm4_diagram):
        cert = detect_contraction(sm4_diagram)
        cycle = cert.t2 - cert.t1
        times = {e.time for e in sm4_diagram.events}
        acc = cert.t1
        lam = Q.one()
        for _ in range(6):  # cycle boundaries are event times, summing to the limit
            lam = lam * cert.ratio
            acc = acc + cycle * (lam / cert.ratio)
            assert acc in times
        assert cert.t1 + cycle * (1 / (1 - cert.ratio)) == cert.limit_time

    def test_gcd_phi_certificate(self):
        machine, config = build_gcd_phi()
        diagram = run(machine, config, RunLimits(max_events=60))
        cert = detect_contraction(diagram)
        assert cert is not None
        assert cert.center_x == machine.ctx.zero()
        bound = (phi() + 1) * 4
        assert cert.limit_time <= bound
        assert cert.limit_time == (phi() + 1) * 2
        assert contraction_replay_matches(diagram, cert)

    def test_two_speed_diagram_has_no_contraction(self):
        machine, config = build_sm2_support(3, 3, "sorted")
        diagram = run(machine, config)
        assert detect_contraction(diagram) is None

    def test_strip_has_no_contraction(self, strip_diagram):
        assert detect_contraction(strip_diagram) is None

    def test_a_search_builds_only_the_states_it_compares(self, monkeypatch):
        # shapes come from the recorded lines, so a state is built only as
        # one side of a comparison
        machine = support_machine_nu(2, 3)
        config = strip_configuration(StripSpec.make(2, 3, 0, 1), machine)
        strip = run(machine, config, RunLimits(max_events=4000, max_time=Q.scalar(3)))
        support = verify_mesh_inclusion(*build_gcd(8, 3)).support_diagram
        builds, compares = [], []
        real_state, real_homothety = engine._state, analysis._homothety

        def state(*args):
            builds.append(args)
            return real_state(*args)

        def homothety(s1, s2):
            compares.append((s1, s2))
            return real_homothety(s1, s2)

        monkeypatch.setattr(engine, "_state", state)
        monkeypatch.setattr(analysis, "_homothety", homothety)
        for diagram in (strip, support):
            builds.clear()
            compares.clear()
            assert detect_contraction(diagram) is None
            assert len(builds) <= 2 * len(compares)

    def test_one_site_states_are_never_compared(self):
        # a single site fixes no ratio, so states of fewer than two sites
        # are skipped even when their shapes agree
        class States(list):
            def shape(self, i):
                return tuple(sigs for _, sigs in self[i].sites)

        a = SignalMachine.build([("a", 1)]).by_name("a")
        states = States(
            RunState(Q.scalar(t), ((Q.scalar(Fraction(1, t + 1)), frozenset({a})),), t)
            for t in range(3)
        )
        assert detect_contraction(SimpleNamespace(snapshots=states)) is None


class TestPeriodicity:
    def test_strip_certificate(self, strip_diagram):
        cert = detect_periodicity(strip_diagram, (Q.zero(), Q.one()), Q.scalar(3))
        assert cert is not None
        # the period is w/p (the lemma's statement, not its proof's w/q)
        assert cert.period == Q.scalar(Fraction(1, 2))
        assert cert.period != Q.scalar(Fraction(1, 3))
        # the configuration verifiably repeats even slightly before the
        # first in-phase triple: the wall bounces lock at exactly one period
        assert cert.transient == Q.scalar(Fraction(1, 2))

    def test_strip_repeats_three_periods(self, strip_diagram):
        from sigmach.engine import configuration_at

        cert = detect_periodicity(strip_diagram, (Q.zero(), Q.one()), Q.scalar(3))
        probes = [cert.transient + Fraction(k, 7) for k in range(8)]
        for t in probes:
            for k in range(1, 4):
                shifted = t + cert.period * k
                if shifted > Q.scalar(3):
                    continue
                a = [
                    (p, sigs)
                    for p, sigs in configuration_at(strip_diagram, t).sites
                    if Q.zero() <= p <= Q.one()
                ]
                b = [
                    (p, sigs)
                    for p, sigs in configuration_at(strip_diagram, shifted).sites
                    if Q.zero() <= p <= Q.one()
                ]
                assert a == b

    def test_sm4_window_is_never_periodic(self, sm4_diagram):
        cert = detect_periodicity(
            sm4_diagram, (Q.scalar(-1), Q.one()), sm4_diagram.final_state.time
        )
        assert cert is None

    def test_certificate_serialization(self, strip_diagram, sm4_diagram):
        p_cert = detect_periodicity(strip_diagram, (Q.zero(), Q.one()), Q.scalar(3))
        assert (
            p_cert.serialize()
            == "PERIODIC window=[0,1] transient=1/2 period=1/2"
        )
        c_cert = detect_contraction(sm4_diagram)
        assert c_cert.serialize() == "ACCUMULATION center=0 time=2 ratio=49/81"

    def test_quiescent_tail_is_trivially_periodic(self):
        machine, config = build_sm2_support(1, 1, "sorted")
        diagram = run(machine, config)
        cert = detect_periodicity(diagram, (Q.scalar(-5), Q.scalar(5)), Q.scalar(40))
        assert cert is not None
        # the mover born at the single event exits the window at x=5, t=6;
        # from then on only the stationary signal remains
        assert cert.transient == Q.scalar(6)

    @pytest.mark.parametrize(
        "window, horizon, want",
        [
            ((0, Fraction(1, 2)), 3, (Fraction(2, 5), Fraction(1, 2))),
            ((-1, 2), 3, (Fraction(11, 10), Fraction(1, 2))),
            ((-1, 2), Fraction(5, 2), None),
            (
                (Fraction(2, 5), Fraction(2, 5)),
                Fraction(7, 4),
                (Fraction(1, 5), Fraction(1, 2)),
            ),
            # a quiescent tail: only the stationary signal at 1/3 stays, and
            # its zero speed must count as not moving
            (
                (Fraction(1, 3), Fraction(1, 3)),
                Fraction(7, 4),
                (Fraction(5, 3), Fraction(1, 36)),
            ),
        ],
    )
    def test_strip_windows_and_horizons(self, strip_diagram, window, horizon, want):
        lo, hi = (Q.scalar(x) for x in window)
        cert = detect_periodicity(strip_diagram, (lo, hi), Q.scalar(horizon))
        got = None if cert is None else (cert.transient, cert.period)
        assert got == want

    def test_reads_each_state_once_and_no_configuration_at(self, strip_diagram, monkeypatch):
        def refuse(*_):
            raise AssertionError("configuration_at called")

        reads, real, real_at = [], engine._Snapshots.window, engine._Snapshots.at

        def window(snaps, t, lo, hi):
            reads.append(t)
            return real(snaps, t, lo, hi)

        def at(snaps, t):  # a whole state read counts as a read too
            reads.append(t)
            return real_at(snaps, t)

        monkeypatch.setattr(analysis, "configuration_at", refuse)
        monkeypatch.setattr(engine._Snapshots, "window", window)
        monkeypatch.setattr(engine._Snapshots, "at", at)
        cert = detect_periodicity(strip_diagram, (Q.zero(), Q.one()), Q.scalar(3))
        assert cert.serialize() == "PERIODIC window=[0,1] transient=1/2 period=1/2"
        assert reads and len(set(reads)) == len(reads)

    @staticmethod
    def _record_decisions(monkeypatch):
        """The times whose states are read, windowed or whole, and the
        transient T of every candidate sent to the pieces (the first call of
        each pair starts at T)."""
        reads, starts = [], []
        pieces, window, at = analysis._shifted_pieces, engine._Snapshots.window, engine._Snapshots.at

        def recorded_pieces(*args):
            starts.append(args[1])
            return pieces(*args)

        def recorded_window(snaps, t, lo, hi):
            reads.append(t)
            return window(snaps, t, lo, hi)

        def recorded_at(snaps, t):
            reads.append(t)
            return at(snaps, t)

        monkeypatch.setattr(analysis, "_shifted_pieces", recorded_pieces)
        monkeypatch.setattr(engine._Snapshots, "window", recorded_window)
        monkeypatch.setattr(engine._Snapshots, "at", recorded_at)
        return reads, starts

    def test_a_signal_that_re_enters_is_decided_on_pieces(self, monkeypatch):
        # the window's states and collisions at 2 and 4 are equal, but s and
        # r sit left of the window at 2, so only the pieces can decide, and
        # they see r come back; s never leaves, so no state is read
        diagram = _re_entry()
        reads, starts = self._record_decisions(monkeypatch)
        cert = detect_periodicity(diagram, (Q.zero(), Q.scalar(3)), Q.scalar(12))
        assert cert.serialize() == "PERIODIC window=[0,3] transient=4 period=2"
        assert starts and reads == []

    def test_two_negative_speeds_are_never_closed(self, monkeypatch):
        # a second negative speed could re-enter from the left, so no state
        # is read and every candidate goes to the pieces
        diagram = _two_negative_speeds()
        reads, starts = self._record_decisions(monkeypatch)
        cert = detect_periodicity(diagram, (Q.zero(), Q.scalar(3)), Q.scalar(12))
        assert cert.serialize() == "PERIODIC window=[0,3] transient=1 period=2"
        assert starts and reads == []

    def test_closure_read_from_lines_agrees_with_states(self, strip_diagram, monkeypatch):
        # every state read must be at a time the window is closed by the
        # brute-force check on the state, and every candidate sent to the
        # pieces at a time it is open
        report = verify_mesh_inclusion(*build_gcd(8, 3))
        meshed = report.mesh_diagram
        lo, hi = (x.a for x in report.spec.span)
        mid, third = (lo + hi) / 2, Fraction(1, 3)
        cases = [
            (strip_diagram, w, 3)
            for w in [(0, 1), (0, Fraction(1, 2)), (Fraction(1, 2), 1), (-1, 2), (third, third)]
        ]
        cases += [
            (meshed, w, meshed.horizon.a)
            for w in [(lo, hi), (lo, mid), (mid, hi), (lo - 1, hi + 1), (lo, lo), (hi, hi)]
        ]
        for diagram in (_re_entry(), _two_negative_speeds(), _closes_at_2(), _reborn_outside()):
            cases += [(diagram, (0, right), 12) for right in (1, 3, 4)]
        reads, starts = self._record_decisions(monkeypatch)
        closed, opened = 0, 0
        for diagram, window, horizon in cases:
            window = tuple(Q.scalar(x) for x in window)
            reads.clear()
            starts.clear()
            detect_periodicity(diagram, window, Q.scalar(horizon))
            read_at, sent_at = list(reads), starts[::2]
            assert all(_closed_by_state(diagram, window, t) for t in read_at), window
            assert not any(_closed_by_state(diagram, window, t) for t in sent_at), window
            closed, opened = closed + len(read_at), opened + len(sent_at)
        assert closed > 0 and opened > 0

    @pytest.mark.parametrize(
        "window, closed",
        [((0, Fraction(1, 2)), False), ((Fraction(2, 5), Fraction(2, 5)), False), ((-1, 2), True)],
    )
    def test_strip_windows_read_states_only_when_closed(
        self, strip_diagram, window, closed, monkeypatch
    ):
        # stationary signals right of [0, 1/2] and of 2/5 sit there for good,
        # and 0 is not the fastest speed, so those windows never close; only
        # -1 signals leave [-1, 2] on the left and only 2/3 ones on the
        # right, so it is closed from t = 0
        reads, starts = self._record_decisions(monkeypatch)
        cert = detect_periodicity(strip_diagram, tuple(Q.scalar(x) for x in window), Q.scalar(3))
        assert cert is not None
        assert (bool(reads), bool(starts)) == (closed, not closed)

    def test_a_window_closes_once_a_fastest_signal_enters(self, monkeypatch):
        # f, at speed 1 from x = -2, is left of [0, 3] until it enters at
        # t = 2; the candidate at 0 goes to the pieces, later ones to states
        diagram = _closes_at_2()
        reads, starts = self._record_decisions(monkeypatch)
        cert = detect_periodicity(diagram, (Q.zero(), Q.scalar(3)), Q.scalar(12))
        assert cert.serialize() == "PERIODIC window=[0,3] transient=4 period=2"
        assert starts[::2] == [Q.zero()]
        assert reads and min(reads) == Q.scalar(2)

    def test_collisions_past_the_horizon_are_not_read(self):
        # the shuttle meets the wall at 2 at t = 1, 3, 5, ...; up to the
        # horizon 2 the window [2, 2] sees only the first meeting, so it is
        # quiescent from t = 1 on, though the run goes on to t = 12
        diagram = _shuttle_run(_shuttle_machine())
        point = (Q.scalar(2), Q.scalar(2))
        cert = detect_periodicity(diagram, point, Q.scalar(2))
        assert cert.serialize() == "PERIODIC window=[2,2] transient=1 period=1/3"
        cert = detect_periodicity(diagram, point, Q.scalar(12))
        assert cert.serialize() == "PERIODIC window=[2,2] transient=0 period=2"

    def test_a_reversed_window_is_rejected(self, strip_diagram):
        with pytest.raises(ValueError, match="reversed"):
            detect_periodicity(strip_diagram, (Q.one(), Q.zero()), Q.scalar(3))
        # checked before the horizon: this one is not covered either
        with pytest.raises(ValueError, match="reversed"):
            detect_periodicity(strip_diagram, (Q.one(), Q.zero()), Q.scalar(4))

    def test_a_missing_rule_run_is_searched_up_to_its_last_state(self):
        # r bounces off w at t = 2 and meets the other r at t = 4, where no
        # rule exists: the diagram covers [0, 4) and its last state is at 2
        machine = SignalMachine.build([("r", 1), ("l", -1), ("w", 0)], [(("r", "w"), ("l", "w"))])
        config = InitialConfiguration.build(machine, [("r", -4), ("r", 0), ("w", 2)])
        diagram = run(machine, config)
        assert diagram.halt_reason == MISSING_RULE and diagram.horizon == Q.scalar(4)
        assert diagram.final_state.time == Q.scalar(2)
        window = (-Q.one(), Q.zero())
        got = detect_periodicity(diagram, window, Q.scalar(2))
        assert got.serialize() == "PERIODIC window=[-1,0] transient=0 period=2/3"
        with pytest.raises(ValueError, match="does not cover"):
            detect_periodicity(diagram, window, Q.scalar(4))

    def test_exclusive_with_contraction(self, sm4_diagram, strip_diagram):
        assert detect_contraction(sm4_diagram) is not None
        assert detect_periodicity(
            sm4_diagram, (Q.scalar(-1), Q.one()), sm4_diagram.final_state.time
        ) is None
        assert detect_contraction(strip_diagram) is None
        assert detect_periodicity(strip_diagram, (Q.zero(), Q.one()), Q.scalar(3)) is not None


def _reference_lines(diagram, cap, key):
    """The merge of `_lines` by comparisons alone, each segment's span cut
    at cap and each start compared with its line's last end."""

    def before(a, b):  # a < b, None standing for +infinity
        return a is not None and (b is None or a < b)

    lines = {}
    for seg in diagram.segments:
        lo, hi = seg.birth_time, seg.death_time
        if before(cap, hi):
            if cap < lo:
                break
            hi = cap
        merged = lines.setdefault(key(seg), [])
        if merged and not before(merged[-1][1], lo):
            if before(merged[-1][1], hi):
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return lines


def _fresh(t):
    """An equal scalar that is another object."""
    return None if t is None else t + 0


def _strip_run(limits):
    machine = support_machine_nu(2, 3)
    return run(machine, strip_configuration(StripSpec.make(2, 3, 0, 1), machine), limits)


def _time_limited():
    three = Q.scalar(3)
    caps = [Q.scalar(x) for x in (Fraction(3, 5), 2, 3, 4)] + [three, None]
    return _strip_run(RunLimits(max_time=three)), caps


def _event_limited():
    diagram = _strip_run(RunLimits(max_events=40))
    end = diagram.snapshots.time(-1)
    return diagram, [end / 2, end, _fresh(end), end + 1, None]


def _quiescent():
    diagram = run(*build_gcd(8, 3))
    return diagram, [None, Q.scalar(2), diagram.snapshots.time(-1) + 1]


def _missing_rule():
    machine = SignalMachine.build([("r", 1), ("l", -1), ("w", 0)], [(("r", "w"), ("l", "w"))])
    diagram = run(machine, InitialConfiguration.build(machine, [("r", -4), ("r", 0), ("w", 2)]))
    return diagram, [Q.one(), Q.scalar(2), Q.scalar(4), None]


def _unshared_times():
    """The time-limited strip, its segment times equal but no longer the
    same objects."""
    timed, caps = _time_limited()
    return replace(timed, segments=[
        replace(seg, birth_time=_fresh(seg.birth_time), death_time=_fresh(seg.death_time))
        for seg in timed.segments
    ]), caps


# name: (halt reason, builder of (diagram, caps)), with caps below, at and
# above where each run ends; built in the test that reads them, not at import
LINE_CASES = {
    "time_limit": ("time_limit", _time_limited),
    "event_limit": ("event_limit", _event_limited),
    "quiescent": ("quiescent", _quiescent),
    "missing_rule": (MISSING_RULE, _missing_rule),
    "unshared_times": ("time_limit", _unshared_times),
}


class TestLines:
    @pytest.mark.parametrize("name", LINE_CASES)
    @pytest.mark.parametrize("key", [analysis._SIGNAL_LINE, analysis._LINE], ids=["signal_line", "line"])
    def test_the_merge_agrees_with_comparisons_alone(self, name, key):
        halt, build = LINE_CASES[name]
        diagram, caps = build()
        assert diagram.halt_reason == halt
        for cap in caps:
            got = analysis._lines(diagram, cap, key)
            assert list(got.items()) == list(_reference_lines(diagram, cap, key).items()), (name, cap)

    def test_unshared_times_still_merge(self):
        # no segment of this copy starts at the object that ends its line's
        # last span, so every merge is decided by comparison
        diagram, _ = _unshared_times()
        ends = {id(seg.death_time) for seg in diagram.segments}
        assert not any(id(seg.birth_time) in ends for seg in diagram.segments)
        merged = analysis._lines(diagram, Q.scalar(3), analysis._SIGNAL_LINE)
        assert sum(map(len, merged.values())) < len(diagram.segments)


class TestDiagramInclusion:
    def test_self_inclusion(self, sm4_diagram):
        assert diagram_included(sm4_diagram, sm4_diagram)

    def test_support_inclusion_for_gcd(self):
        machine, config = build_gcd(8, 3)
        original = run(machine, config)
        supp_m, projection = support_machine(machine)
        supp_c = support_configuration(config, projection)
        supp = run(
            supp_m, supp_c, RunLimits(max_events=3000, max_time=original.final_state.time)
        )
        assert diagram_included(original, supp)
        assert not diagram_included(supp, original)  # support has extra signals

    def test_disjoint_runs_are_not_included(self):
        machine, config = build_sm4()
        d1 = run(machine, config, RunLimits(max_events=5))
        shifted = InitialConfiguration.build(
            machine, [("left", 9), ("zig", 9), ("right", 11)]
        )
        d2 = run(machine, shifted, RunLimits(max_events=5))
        assert not diagram_included(d1, d2)

    def test_diverging_final_rays_are_caught(self):
        # same single event point, but the outgoing signals differ: the
        # inner ray leaves the outer support right after the last event
        from sigmach.model import SignalMachine

        m1 = SignalMachine.build(
            [("r", 1), ("s", 0)], [(("r", "s"), ("r", "s"))]
        )
        m2 = SignalMachine.build(
            [("r", 1), ("s", 0), ("l", -1)], [(("r", "s"), ("l", "s"))]
        )
        c1 = InitialConfiguration.build(m1, [("r", 0), ("s", 1)])
        c2 = InitialConfiguration.build(m2, [("r", 0), ("s", 1)])
        d1, d2 = run(m1, c1), run(m2, c2)
        assert [
            (e.position, e.time) for e in d1.events
        ] == [(e.position, e.time) for e in d2.events]
        assert not diagram_included(d1, d2)
        assert not diagram_included(d2, d1)


    def test_gap_between_samples_is_caught(self):
        # the outer r on the inner r's line is annihilated at (9/10, 9/10)
        # and re-emitted at (11/10, 11/10): no event time falls in the gap
        from sigmach.model import SignalMachine

        outer_m = SignalMachine.build(
            [("r", 1), ("w1", 0), ("w2", 0), ("s", 0), ("z", -1)],
            [
                (("r", "w1"), ()),
                (("z", "w2"), ("r",)),
                (("z", "s"), ("z", "s")),
                (("r", "s"), ("s",)),
            ],
        )
        inner_m = SignalMachine.build([("r", 1), ("s", 0)], [(("r", "s"), ("s",))])
        outer = run(
            outer_m,
            InitialConfiguration.build(
                outer_m,
                [
                    ("r", 0),
                    ("w1", Fraction(9, 10)),
                    ("w2", Fraction(11, 10)),
                    ("s", 2),
                    ("z", Fraction(11, 5)),
                ],
            ),
        )
        inner = run(inner_m, InitialConfiguration.build(inner_m, [("r", 0), ("s", 2)]))
        assert [(e.position, e.time) for e in inner.events] == [(2, 2)]
        assert (2, 2) in [(e.position, e.time) for e in outer.events]
        assert not diagram_included(inner, outer)
        assert diagram_included(inner, inner)

    def test_horizon_zero_checks_single_points(self):
        machine, config = build_sm4()
        limits = RunLimits(max_time=Q.zero())
        d1 = run(machine, config, limits)
        shifted = InitialConfiguration.build(
            machine, [("left", 9), ("zig", 9), ("right", 11)]
        )
        d2 = run(machine, shifted, limits)
        assert d1.horizon == Q.zero() and d1.events == []
        assert diagram_included(d1, d1)
        assert not diagram_included(d1, d2)


class TestTwoSpeedBound:
    def test_sorted_reaches_bound(self):
        machine, config = build_sm2_support(2, 3, "sorted")
        report = two_speed_bound_check(machine, config)
        assert report.count == report.bound == 6
        assert report.halted

    def test_reversed_never_collides(self):
        machine, config = build_sm2_support(4, 2, "reversed")
        report = two_speed_bound_check(machine, config)
        assert report.count == 0
        assert report.halted

    def test_random_interleavings_respect_bound(self):
        rng = random.Random(17)
        for _ in range(30):
            kinds = ["R"] * 3 + ["S"] * 3
            rng.shuffle(kinds)
            arrangement = list(zip(kinds, range(-3, 3)))
            machine, config = build_sm2_support(3, 3, arrangement)
            report = two_speed_bound_check(machine, config)
            assert report.halted and report.count <= 9

    def test_rejects_other_speed_counts(self):
        machine, config = build_sm4()
        with pytest.raises(MachineError):
            two_speed_bound_check(machine, config)
