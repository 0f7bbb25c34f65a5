"""Event-driven dynamics: one scheduler for next-collision search, single
steps and full runs.

`run`, `advance` and `next_collision_delta` all drive the same `_Runner`.  It
keeps every live signal as a line with a fixed intercept, in spatial order,
and the meeting times of neighbouring lines in a heap, so an event costs work
for the signals that collide, not for every live one.  The test suite checks
its next meeting against a brute-force all-pairs oracle through
`next_collision_delta`, and whole runs against `verify.brute_force_run`.  All
collision coordinates are exact scalars, so simultaneous and multi-way
collisions group by exact meeting time with no tie-breaking.  A run records
only the live lines after each step; `SpaceTimeDiagram.snapshots` is the one
reader of that record.  It builds the `RunState` of a step the first time it
is read, and `configuration_at` and the final state come from it too.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

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
    """One straight piece of a signal's trace, on x = intercept + speed*t."""

    signal: MetaSignal
    speed: Scalar
    intercept: Scalar
    birth_position: Scalar
    birth_time: Scalar
    birth_event: Optional[int]  # None = present initially
    death_time: Optional[Scalar] = None
    death_event: Optional[int] = None

    def position_at(self, t: Scalar) -> Scalar:
        return self.intercept + self.speed * t


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
    """Recorded run: exact event log, signal segments, and the post-event
    state snapshots, each built when first read."""

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
        snapshots: _Snapshots,
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


def common_horizon(*diagrams: SpaceTimeDiagram) -> Optional[Scalar]:
    """The least horizon of the diagrams; None when all are unbounded."""
    bounds = [h for h in (d.horizon for d in diagrams) if h is not None]
    return min(bounds) if bounds else None


# -- the scheduler ----------------------------------------------------------------
#
# A live signal is a line (id, site, rank, c, meta-signal, {meta-signal}):
# `id` indexes its segment, `site` is the id of the first signal opened at
# the same place and time, `rank` indexes its speed v, and c = x - v*t is
# fixed for its life, so nothing moves between events and a position is
# computed only when read.
# `order` holds the lines in spatial order just after the current time, so
# the siblings of a site that has just opened come slowest first.  Two lines
# can only swap places by meeting, so the first meeting is always between
# neighbours, the left one faster, and every such pair waits in a heap keyed
# by its exact meeting time.  Nothing can come between two live neighbours,
# so an entry is stale exactly when one of its lines has died; stale entries
# are dropped when they reach the top.  A step pops every pair due at the
# earliest time; pairs that share a line chain into one collision group, a
# contiguous slice of `order`.  Only the neighbours of a fired group form new
# pairs, so an event costs O(k log n) for k colliding signals, as in the
# kinetic sorted list of Basch, Guibas and Hershberger ("Data structures for
# mobile data", 1999) and the Bentley-Ottmann sweep.

_Line = tuple[int, int, int, Scalar, MetaSignal, frozenset[MetaSignal]]
# What a step keeps of its state: (time, event count, fresh, lines), where
# the lines with id >= fresh are still at the site they were opened at.
_Record = tuple[Scalar, int, int, tuple[_Line, ...]]


def _sites(record: _Record) -> list[tuple[_Line, frozenset[MetaSignal]]]:
    """The sites of recorded lines, left to right, as (first line, signal
    set): one per line, except that lines opened together at the record's
    time still share the point of their birth."""
    fresh, lines = record[2], record[3]
    sites: list[tuple[_Line, frozenset[MetaSignal]]] = []
    shared = -1
    for line in lines:
        if line[1] == shared:
            sites[-1] = (sites[-1][0], sites[-1][1] | line[5])
        else:
            sites.append((line, line[5]))
            if line[0] >= fresh:
                shared = line[1]
    return sites


def _state(
    record: _Record, speeds: Sequence[Scalar], segments: Sequence[Segment]
) -> RunState:
    """The state of a record: each site at its first line's position, a line
    that is still at its birth point read from its segment."""
    time, count, fresh, _ = record
    moves = [v * time for v in speeds]
    sites: list[Site] = []
    for line, sigs in _sites(record):
        line_id, _, rank, c, _, _ = line
        p = segments[line_id].birth_position if line_id >= fresh else c + moves[rank]
        sites.append((p, sigs))
    return RunState(time, tuple(sites), count)


class _Snapshots:
    """The post-event states of a run, as a read-only sequence.  A step
    records only its live lines; the records are kept as appended, and a
    state is built beside its record the first time it is read.  Times,
    event counts and shapes are read from the records without a build."""

    __slots__ = ("_records", "_states", "_speeds", "_segments")

    def __init__(self, speeds: Sequence[Scalar], segments: Sequence[Segment]) -> None:
        self._records: list[_Record] = []
        self._states: list[Optional[RunState]] = []
        self._speeds = speeds
        self._segments = segments

    def append(self, record: _Record) -> None:
        self._records.append(record)
        self._states.append(None)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self._records)))]
        state = self._states[i]
        if state is None:
            state = self._states[i] = _state(self._records[i], self._speeds, self._segments)
        return state

    def shape(self, i: int) -> tuple[frozenset[MetaSignal], ...]:
        """The signal sets of state i's sites, left to right."""
        return tuple(sigs for _, sigs in _sites(self._records[i]))

    def event_count(self, i: int) -> int:
        return self._records[i][1]

    def at(self, t: Scalar) -> RunState:
        """The state at time t >= 0, up to the next step after it: the
        recorded state at a step's own time, else the last step's lines
        moved to t, where none is still at its birth point."""
        i = bisect.bisect_right(self._records, t, key=lambda r: r[0]) - 1
        time, count, _, lines = self._records[i]
        if time == t:
            return self[i]
        return _state((t, count, len(self._segments), lines), self._speeds, self._segments)


class _Runner:
    """The scheduler: live lines in spatial order, the heap of neighbour
    meetings, the clock, and the events and segments recorded since
    construction."""

    def __init__(
        self,
        machine: SignalMachine,
        sites: Sequence[Site],
        time: Scalar,
        event_count: int,
    ) -> None:
        self.machine = machine
        self.speeds = machine.distinct_speeds()
        # per signal: its speed rank, an order among co-located signals, and
        # the one-signal set that its sites share in every state read
        self.member = {
            ms: (self.speeds.index(machine.speed_of(ms)), ms.index, ms, frozenset((ms,)))
            for ms in machine.signals
        }
        # gaps[i][j] = speeds[i] - speeds[j] for j < i: how fast i closes on j
        self.gaps = [[v - w for w in self.speeds[:i]] for i, v in enumerate(self.speeds)]
        self.time = time
        self.event_count = event_count
        self.events: list[Event] = []
        self.segments: list[Segment] = []
        self.fresh = 0  # lines from this id on still sit where they were opened
        self.order: list[_Line] = []
        for p, sigs in sites:
            self.order += self.open_site(p, sigs, None)
        self.heap: list[tuple[Scalar, _Line, _Line]] = []
        self.push_pairs(range(len(self.order) - 1))

    def open_site(
        self, p: Scalar, sigs: frozenset[MetaSignal], ev: Optional[int]
    ) -> list[_Line]:
        """One new line and segment per signal at (p, now), slowest first."""
        speeds, time, segments = self.speeds, self.time, self.segments
        site = len(segments)
        lines: list[_Line] = []
        for r, _, ms, solo in sorted(self.member[m] for m in sigs):
            seg = Segment(ms, speeds[r], p - speeds[r] * time, p, time, ev)
            lines.append((len(segments), site, r, seg.intercept, ms, solo))
            segments.append(seg)
        return lines

    def push_pairs(self, lefts: Iterable[int]) -> None:
        """Queue the meeting of order[i] and order[i + 1] for each i whose
        left line is the faster."""
        order, gaps, heap = self.order, self.gaps, self.heap
        for i in lefts:
            left, right = order[i], order[i + 1]
            if left[2] > right[2]:
                t = (right[3] - left[3]) / gaps[left[2]][right[2]]
                heapq.heappush(heap, (t, left, right))

    def alive(self, line: _Line) -> bool:
        return self.segments[line[0]].death_event is None

    def next_time(self) -> Optional[Scalar]:
        """Earliest meeting time ahead, None when nothing will ever meet."""
        heap = self.heap
        while heap:
            t, left, right = heap[0]
            if self.alive(left) and self.alive(right):
                return t
            heapq.heappop(heap)
        return None

    def pop_groups(self, t: Scalar) -> list[tuple[int, int, Scalar]]:
        """Pop every pair meeting at t = next_time() and chain them into
        collision groups: slices [start, end) of `order` with their meeting
        point, left to right."""
        heap, order = self.heap, self.order
        lefts = []
        while heap and heap[0][0] == t:
            _, left, right = heapq.heappop(heap)
            if self.alive(left) and self.alive(right):
                lefts.append(order.index(left))
        lefts.sort()
        spans: list[list[int]] = []
        for i in lefts:
            if spans and spans[-1][1] == i + 1:
                spans[-1][1] = i + 2
            else:
                spans.append([i, i + 2])
        speeds = self.speeds
        return [(s, e, order[s][3] + speeds[order[s][2]] * t) for s, e in spans]

    def step(self, t: Scalar) -> None:
        """Fire every collision at t = next_time().  Raises MissingRuleError
        before any line, segment or event changes."""
        order = self.order
        fired = []
        for start, end, p in self.pop_groups(t):
            incoming = frozenset(line[4] for line in order[start:end])
            outgoing = self.machine.rule_for(incoming)
            if outgoing is None:
                raise MissingRuleError(p, t, incoming)
            fired.append((start, end, p, incoming, outgoing))
        self.time = t
        self.fresh = len(self.segments)
        opened = []
        for start, end, p, incoming, outgoing in fired:
            idx = self.event_count
            self.events.append(Event(idx, t, p, incoming, outgoing))
            self.event_count += 1
            for line in order[start:end]:
                seg = self.segments[line[0]]
                seg.death_time = t
                seg.death_event = idx
            opened.append(self.open_site(p, outgoing, idx))
        # splice right to left, so that earlier slices keep their indexes
        for (start, end, *_), lines in zip(reversed(fired), reversed(opened)):
            order[start:end] = lines
        lefts = set()
        shift = 0
        for (start, end, *_), lines in zip(fired, opened):
            lefts.update((start + shift - 1, start + shift + len(lines) - 1))
            shift += len(lines) - (end - start)
        self.push_pairs(sorted(i for i in lefts if 0 <= i < len(order) - 1))

    def record(self) -> _Record:
        return self.time, self.event_count, self.fresh, tuple(self.order)


def next_collision_delta(
    machine: SignalMachine, state: RunState
) -> tuple[Optional[Scalar], list[tuple[Scalar, frozenset[MetaSignal]]]]:
    """Minimal positive delay until some signals meet, plus every meeting
    point realized at that delay.  (None, []) when nothing ever collides."""
    runner = _Runner(machine, state.sites, state.time, state.event_count)
    t = runner.next_time()
    if t is None:
        return None, []
    order = runner.order
    groups = [
        (p, frozenset(line[4] for line in order[start:end]))
        for start, end, p in runner.pop_groups(t)
    ]
    return t - state.time, groups


def advance(machine: SignalMachine, state: RunState) -> tuple[RunState, list[Event]]:
    """One dynamics step from an arbitrary state.  Raises MissingRuleError on
    an unruled collision and ValueError when no collision is ahead."""
    runner = _Runner(machine, state.sites, state.time, state.event_count)
    t = runner.next_time()
    if t is None:
        raise ValueError("no further collision: delta is infinite")
    runner.step(t)
    return _state(runner.record(), runner.speeds, runner.segments), runner.events


# -- full runs ------------------------------------------------------------------

Certifier = Callable[[_Snapshots], object]


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
    snapshots = _Snapshots(runner.speeds, runner.segments)
    snapshots.append(runner.record())
    halt_reason = QUIESCENT
    halt_detail: Optional[MissingRuleError] = None
    certificate: object | None = None

    while True:
        if runner.event_count >= limits.max_events:
            halt_reason = EVENT_LIMIT
            break
        t = runner.next_time()
        if t is None:
            halt_reason = QUIESCENT
            break
        if limits.max_time is not None and t > limits.max_time:
            halt_reason = TIME_LIMIT
            break
        try:
            runner.step(t)
        except MissingRuleError as err:
            halt_reason = MISSING_RULE
            # without its traceback, which holds this frame and so the error
            halt_detail = err.with_traceback(None)
            break
        snapshots.append(runner.record())
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
        snapshots.at(limits.max_time) if halt_reason == TIME_LIMIT else snapshots[-1],
        halt_reason,
        halt_detail,
        certificate,
    )


def configuration_at(diagram: SpaceTimeDiagram, t: Scalar) -> RunState:
    """Exact configuration at time t, right-continuous at event instants
    (a collision reports its outgoing signals), read from the record."""
    if t.sign() < 0:
        raise ValueError(f"time {t} precedes the initial configuration")
    if not diagram.covers(t):
        raise ValueError(f"time {t} is beyond the recorded horizon")
    return diagram.snapshots.at(t)
