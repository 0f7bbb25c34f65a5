"""Event-driven dynamics: one scheduler for next-collision search, single
steps and full runs.

`run`, `advance` and `next_collision_delta` all drive the same `_Runner`,
which scans adjacent site pairs only; the minimal positive meeting delay is
always realized by such a pair, a fact the test suite checks against a
brute-force all-pairs oracle through `next_collision_delta`.  All collision
coordinates are exact scalars, so simultaneous and multi-way collisions group
by literal position equality with no tie-breaking.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .model import InitialConfiguration, MetaSignal, SignalMachine, Site
from .scalars import Scalar

QUIESCENT = "quiescent"
TIME_LIMIT = "time_limit"
EVENT_LIMIT = "event_limit"
MISSING_RULE = "missing_rule"
CERTIFIED_ACCUMULATION = "certified_accumulation"


@dataclass(frozen=True)
class RunState:
    """Instantaneous content of the line: sorted nonempty sites at one time."""

    time: Scalar
    sites: tuple[Site, ...]
    event_count: int = 0

    def positions(self) -> tuple[Scalar, ...]:
        return tuple(p for p, _ in self.sites)


@dataclass(frozen=True)
class Event:
    index: int
    time: Scalar
    position: Scalar
    incoming: frozenset[MetaSignal]
    outgoing: frozenset[MetaSignal]

    def __repr__(self) -> str:
        ins = ",".join(sorted(m.name for m in self.incoming))
        outs = ",".join(sorted(m.name for m in self.outgoing))
        return f"E{self.index}@({self.position},{self.time}) {{{ins}}}->{{{outs}}}"


@dataclass
class Segment:
    """One straight piece of a signal's trace between two events."""

    signal: MetaSignal
    birth_position: Scalar
    birth_time: Scalar
    birth_event: Optional[int]  # None = present initially
    death_time: Optional[Scalar] = None
    death_event: Optional[int] = None

    def position_at(self, t: Scalar, speed: Scalar) -> Scalar:
        return self.birth_position + speed * (t - self.birth_time)


@dataclass(frozen=True)
class RunLimits:
    max_events: int = 10_000
    max_time: Optional[Scalar] = None

    def __post_init__(self) -> None:
        if self.max_events < 0:
            raise ValueError("max_events must be >= 0")
        if self.max_time is not None and self.max_time < 0:
            raise ValueError("max_time must be >= 0")


class MissingRuleError(RuntimeError):
    """A collision formed whose incoming set has no rule."""

    def __init__(self, position: Scalar, time: Scalar, incoming: frozenset[MetaSignal]):
        names = ",".join(sorted(m.name for m in incoming))
        super().__init__(f"no rule for {{{names}}} at x={position}, t={time}")
        self.position = position
        self.time = time
        self.incoming = incoming


class SpaceTimeDiagram:
    """Recorded run: exact event log, signal segments, state snapshots."""

    __slots__ = (
        "machine",
        "initial",
        "events",
        "segments",
        "snapshots",
        "final_state",
        "halt_reason",
        "halt_detail",
        "certificate",
    )

    def __init__(
        self,
        machine: SignalMachine,
        initial: InitialConfiguration,
        events: list[Event],
        segments: list[Segment],
        snapshots: list[RunState],
        final_state: RunState,
        halt_reason: str,
        halt_detail: Optional[MissingRuleError] = None,
        certificate: object | None = None,
    ) -> None:
        self.machine = machine
        self.initial = initial
        self.events = events
        self.segments = segments
        self.snapshots = snapshots
        self.final_state = final_state
        self.halt_reason = halt_reason
        self.halt_detail = halt_detail
        self.certificate = certificate

    @property
    def horizon(self) -> Optional[Scalar]:
        """Last time the diagram fully describes; None means unbounded."""
        if self.halt_reason == QUIESCENT:
            return None
        if self.halt_reason == MISSING_RULE and self.halt_detail is not None:
            return self.halt_detail.time
        return self.final_state.time

    def covers(self, t: Scalar) -> bool:
        if t.sign() < 0:
            return False
        h = self.horizon
        if h is None:
            return True
        if self.halt_reason == MISSING_RULE:
            return t < h
        return t <= h

    def __repr__(self) -> str:
        return f"SpaceTimeDiagram({len(self.events)} events, halt={self.halt_reason})"


# -- the scheduler ----------------------------------------------------------------
#
# Every live signal is a member (speed rank, meta-signal, open segment), and
# each site keeps its members sorted by (rank, index).  The first meeting is
# always between adjacent sites, the fastest member of the left one against
# the slowest of the right one, so one pass over neighbouring pairs finds the
# minimal delay.  Walking the sites in order at that delay yields
# non-decreasing landing positions (two signals can only swap order by first
# meeting), so one linear pass groups the collisions by exact position.

_Member = tuple[int, MetaSignal, Segment]
_LiveSite = tuple[Scalar, list[_Member]]


class _Runner:
    """The scheduler: sorted live sites, the clock, and the events and
    segments recorded since construction."""

    def __init__(
        self,
        machine: SignalMachine,
        sites: Sequence[Site],
        time: Scalar,
        event_count: int,
    ) -> None:
        self.machine = machine
        self.speeds = machine.distinct_speeds()
        self.rank = {
            ms: self.speeds.index(machine.speed_of(ms)) for ms in machine.signals
        }
        self.time = time
        self.event_count = event_count
        self.events: list[Event] = []
        self.segments: list[Segment] = []
        self.live: list[_LiveSite] = [
            (p, self.open_site(p, sigs, None)) for p, sigs in sites
        ]

    def open_site(
        self, p: Scalar, sigs: frozenset[MetaSignal], ev: Optional[int]
    ) -> list[_Member]:
        """One new segment per signal at (p, now), in (rank, index) order."""
        rank = self.rank
        members: list[_Member] = []
        for ms in sorted(sigs, key=lambda m: (rank[m], m.index)):
            seg = Segment(ms, p, self.time, ev)
            self.segments.append(seg)
            members.append((rank[ms], ms, seg))
        return members

    def min_delta(self) -> Optional[Scalar]:
        best: Optional[Scalar] = None
        speeds = self.speeds
        for (x1, m1), (x2, m2) in zip(self.live, self.live[1:]):
            fast, slow = m1[-1][0], m2[0][0]
            if fast > slow:
                d = (x2 - x1) / (speeds[fast] - speeds[slow])
                if best is None or d < best:
                    best = d
        return best

    def landings(self, delta: Scalar) -> list[_LiveSite]:
        """Sites after every signal moves by delta*speed, members landing on
        one position grouped.  Only valid for 0 < delta <= min_delta()."""
        moves = [v * delta for v in self.speeds]
        groups: list[_LiveSite] = []
        for x, members in self.live:
            for m in members:
                p = x + moves[m[0]]
                if groups and groups[-1][0] == p:
                    groups[-1][1].append(m)
                else:
                    groups.append((p, [m]))
        return groups

    def drift_all(self, delta: Scalar) -> None:
        """Move every signal by delta*speed, no collisions resolved.  Only
        valid for delta below the next collision delay."""
        if delta.sign() == 0:
            return
        self.live = self.landings(delta)
        self.time = self.time + delta

    def step(self, delta: Scalar) -> None:
        """Advance to the next collision time and apply every rule there.
        Raises MissingRuleError before mutating anything."""
        if delta.sign() <= 0:
            raise AssertionError("collision delay must be strictly positive")
        t_new = self.time + delta
        groups = self.landings(delta)
        fired: dict[int, tuple[frozenset[MetaSignal], frozenset[MetaSignal]]] = {}
        for gi, (p, members) in enumerate(groups):
            if len(members) >= 2:
                incoming = frozenset(ms for _, ms, _ in members)
                outgoing = self.machine.rule_for(incoming)
                if outgoing is None:
                    raise MissingRuleError(p, t_new, incoming)
                fired[gi] = (incoming, outgoing)
        if not fired:
            raise AssertionError("step() called with no collision at delta")
        self.time = t_new
        live: list[_LiveSite] = []
        for gi, (p, members) in enumerate(groups):
            if gi not in fired:
                live.append((p, members))
                continue
            incoming, outgoing = fired[gi]
            idx = self.event_count
            self.events.append(Event(idx, t_new, p, incoming, outgoing))
            self.event_count += 1
            for _, _, seg in members:
                seg.death_time = t_new
                seg.death_event = idx
            if outgoing:
                live.append((p, self.open_site(p, outgoing, idx)))
        self.live = live

    def state(self) -> RunState:
        sites = tuple(
            (p, frozenset(ms for _, ms, _ in members)) for p, members in self.live
        )
        return RunState(self.time, sites, self.event_count)


def next_collision_delta(
    machine: SignalMachine, state: RunState
) -> tuple[Optional[Scalar], list[tuple[Scalar, frozenset[MetaSignal]]]]:
    """Minimal positive delay until some signals meet, plus every meeting
    point realized at that delay.  (None, []) when nothing ever collides."""
    runner = _Runner(machine, state.sites, state.time, state.event_count)
    delta = runner.min_delta()
    if delta is None:
        return None, []
    groups = [
        (p, frozenset(ms for _, ms, _ in members))
        for p, members in runner.landings(delta)
        if len(members) >= 2
    ]
    return delta, groups


def advance(machine: SignalMachine, state: RunState) -> tuple[RunState, list[Event]]:
    """One dynamics step from an arbitrary state.  Raises MissingRuleError on
    an unruled collision and ValueError when no collision is ahead."""
    runner = _Runner(machine, state.sites, state.time, state.event_count)
    delta = runner.min_delta()
    if delta is None:
        raise ValueError("no further collision: delta is infinite")
    runner.step(delta)
    return runner.state(), runner.events


# -- full runs ------------------------------------------------------------------

Certifier = Callable[[list[RunState]], object]


def run(
    machine: SignalMachine,
    config: InitialConfiguration,
    limits: RunLimits | None = None,
    certifier: Certifier | None = None,
) -> SpaceTimeDiagram:
    """Iterate the dynamics until quiescence, a limit, a missing rule, or a
    certificate from the optional analysis callback."""
    limits = limits or RunLimits()
    runner = _Runner(machine, config.sites, machine.ctx.zero(), 0)
    snapshots = [runner.state()]
    halt_reason = QUIESCENT
    halt_detail: Optional[MissingRuleError] = None
    certificate: object | None = None

    while True:
        if runner.event_count >= limits.max_events:
            halt_reason = EVENT_LIMIT
            break
        delta = runner.min_delta()
        if delta is None:
            halt_reason = QUIESCENT
            break
        if limits.max_time is not None and runner.time + delta > limits.max_time:
            runner.drift_all(limits.max_time - runner.time)
            halt_reason = TIME_LIMIT
            break
        try:
            runner.step(delta)
        except MissingRuleError as err:
            halt_reason = MISSING_RULE
            halt_detail = err
            break
        snapshots.append(runner.state())
        if certifier is not None:
            certificate = certifier(snapshots)
            if certificate is not None:
                halt_reason = CERTIFIED_ACCUMULATION
                break

    return SpaceTimeDiagram(
        machine,
        config,
        runner.events,
        runner.segments,
        snapshots,
        runner.state(),
        halt_reason,
        halt_detail,
        certificate,
    )


def configuration_at(diagram: SpaceTimeDiagram, t: Scalar) -> RunState:
    """Exact configuration at time t, right-continuous at event instants
    (a collision reports its outgoing signals)."""
    if not diagram.covers(t):
        raise ValueError(f"time {t} is beyond the recorded horizon")
    snaps = diagram.snapshots
    i = bisect.bisect_right(snaps, t, key=lambda s: s.time) - 1
    if i < 0:
        raise ValueError(f"time {t} precedes the initial configuration")
    base = snaps[i]
    if base.time == t:
        return base
    # strictly before the next event, so the drift resolves no collision
    runner = _Runner(diagram.machine, base.sites, base.time, base.event_count)
    runner.drift_all(t - base.time)
    return runner.state()
