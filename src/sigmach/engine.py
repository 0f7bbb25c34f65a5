"""Event-driven dynamics: one scheduler for next-collision search and full
runs.

`run` and `next_collision_delta` drive the same `_Runner`.  It records every
live signal once, as its `Segment`, the line x = intercept + speed*t, and
keeps the segment ids in spatial order and the meeting times of neighbouring
lines in a heap, so an event costs work for the signals that collide, not for
every live one: one fused kernel call of `sigmach.scalars` for its meeting
point, one per outgoing speed that no incoming line had, and one per new
neighbour pair.  The test suite checks its next meeting against a
brute-force all-pairs oracle through `next_collision_delta`, and whole runs,
events and post-event states, against `verify.brute_force_run`, which uses
plain operators and so checks the kernels too.  All collision coordinates
are exact scalars, so simultaneous and multi-way collisions group by exact
meeting time with no tie-breaking.  A run records only the ids of the live
lines after each step; `SpaceTimeDiagram.snapshots` is the one reader of
that record: it builds a step's `RunState` when first read, for
`configuration_at` and the final state.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .model import InitialConfiguration, MetaSignal, SignalMachine, Site
from .scalars import Scalar, affine, scaled_difference

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


class Event(NamedTuple):
    index: int
    time: Scalar
    position: Scalar
    incoming: frozenset[MetaSignal]
    outgoing: frozenset[MetaSignal]

    def __repr__(self) -> str:
        ins = ",".join(sorted(m.name for m in self.incoming))
        outs = ",".join(sorted(m.name for m in self.outgoing))
        return f"E{self.index}@({self.position},{self.time}) {{{ins}}}->{{{outs}}}"


@dataclass(slots=True)
class Segment:
    """One straight piece of a signal's trace, on x = intercept + speed*t;
    `rank` indexes its speed in the machine's `distinct_speeds()`."""

    signal: MetaSignal
    speed: Scalar
    rank: int
    intercept: Scalar
    birth_position: Scalar
    birth_time: Scalar
    birth_event: Optional[int]  # None = present initially
    death_time: Optional[Scalar] = None
    death_event: Optional[int] = None

    def position_at(self, t: Scalar) -> Scalar:
        return affine(self.intercept, self.speed, t)


@dataclass(frozen=True)
class RunLimits:
    max_events: int = 10_000
    max_time: Optional[Scalar] = None

    def __post_init__(self) -> None:
        # checked once here: `run` reads the limits once, before its loop
        if type(self.max_events) is bool or not isinstance(self.max_events, int):
            raise TypeError(f"max_events must be an int, not {type(self.max_events).__name__}")
        if self.max_time is not None and not isinstance(self.max_time, Scalar):
            raise TypeError(f"max_time must be a Scalar or None, not {type(self.max_time).__name__}")
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


@dataclass(slots=True, eq=False)
class SpaceTimeDiagram:
    """Recorded run: exact event log, signal segments, the post-event state
    snapshots, each built when first read, and the limits the run used."""

    machine: SignalMachine
    events: list[Event]
    segments: list[Segment]
    snapshots: _Snapshots
    limits: RunLimits
    halt_reason: str
    halt_detail: Optional[MissingRuleError] = None
    certificate: object | None = None

    @property
    def final_state(self) -> RunState:
        """The state at the time limit, else after the last step."""
        if self.halt_reason == TIME_LIMIT:
            return self.snapshots.at(self.limits.max_time)
        return self.snapshots[-1]

    @property
    def horizon(self) -> Optional[Scalar]:
        """Last time the diagram fully describes; None means unbounded."""
        if self.halt_reason == QUIESCENT:
            return None
        if self.halt_reason == MISSING_RULE and self.halt_detail is not None:
            return self.halt_detail.time
        if self.halt_reason == TIME_LIMIT:
            return self.limits.max_time
        return self.snapshots.time(-1)

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
# A live signal is recorded once, as its segment: `order`, the heap and the
# records hold segment ids, and a line's speed rank, intercept c = x - v*t and
# meta-signal are read from `segments[id]`.  c is fixed for the line's life,
# so nothing moves between events and a position is computed only when read.
# `order` holds the ids in spatial order just after the current time, so the
# siblings of a site that has just opened come slowest first.  Two lines
# can only swap places by meeting, so the first meeting is always between
# neighbours, the left one faster, and every such pair waits in a heap keyed
# by its exact meeting time.  Nothing can come between two live neighbours,
# so an entry is stale exactly when one of its lines has died; stale entries
# are dropped when they reach the top.  Most steps fire one pair alone, and
# `step` tells them apart by the two children of the heap top, heap[1] and
# heap[2]: every entry is at most its children, so the path down to any
# other entry due at t passes a child with t <= child <= entry, which is due
# at t too.  When neither child holds t, `step` fires the top pair in its own
# frame.  A step with a second entry due at t, live or stale, takes the
# general pass, `step_groups`: it pops every pair due at t, and pairs that
# share a line chain into one collision group, a contiguous slice of
# `order`.  Only the neighbours of a fired group form new pairs, so an event
# costs O(k log n) for k colliding signals, as in the kinetic sorted list of
# Basch, Guibas and Hershberger ("Data structures for mobile data", 1999)
# and the Bentley-Ottmann sweep.
# A collision computes its meeting point c + v*t, then c = p + (-v)*t only
# for outgoing speeds that no incoming line had, and for each new neighbour
# pair (c_right - c_left) * 1/(v_left - v_right); the negated speeds and the
# reciprocals are stored per runner.  Each formula is one call of a fused
# kernel (`affine`, `scaled_difference`), which gives the integers of the
# operator chain without building its middle scalar.  Each call passes
# `den_lcm`, the lcm of the denominators of the speeds, the closing
# reciprocals, the start sites and the start time: every other scalar of
# the run is built from these by sums and products, which only multiply
# denominators and divide factors out, so every prime of its denominator
# divides den_lcm, and a kernel proves a reduction trivial on small gcds.
# An outgoing signal of an incoming line's speed keeps that line's c exactly:
# it leaves the same point at the same speed, so it is on that line.

# What a step keeps of its state: (time, event count, segment ids of the
# live lines).  A line is still at its birth point exactly when its birth
# time is the record's time object, which `open_site` gives every new line.
_Record = tuple[Scalar, int, tuple[int, ...]]
# The one-signal set of each signal, built once per run and shared by its
# sites in every state read, so a shape hashes each set once.
_Solo = dict[MetaSignal, frozenset[MetaSignal]]


def _sites(
    record: _Record, segments: Sequence[Segment], solo: _Solo
) -> list[tuple[int, frozenset[MetaSignal]]]:
    """The sites of recorded lines, left to right, as (first id, signal set):
    one per line, except that neighbouring lines opened at the record's time
    at one point still share it.  `open_site` hands one point object to all
    the lines of a site, so birth points are compared by identity."""
    time, _, ids = record
    sites: list[tuple[int, frozenset[MetaSignal]]] = []
    born = None  # birth point of the last line, while it is still there
    for i in ids:
        seg = segments[i]
        if seg.birth_position is born:
            sites[-1] = (sites[-1][0], sites[-1][1] | solo[seg.signal])
        else:
            sites.append((i, solo[seg.signal]))
            born = seg.birth_position if seg.birth_time is time else None
    return sites


def _positions(
    time: Scalar, speeds: Sequence[Scalar], segments: Sequence[Segment]
) -> Callable[[int], Scalar]:
    """The position of a recorded line at the record's time: its birth point
    while it is still there, else c + v*t."""
    moves = [v * time for v in speeds]

    def position(i: int) -> Scalar:
        seg = segments[i]
        return seg.birth_position if seg.birth_time is time else seg.intercept + moves[seg.rank]

    return position


def _state(
    record: _Record, speeds: Sequence[Scalar], segments: Sequence[Segment], solo: _Solo
) -> RunState:
    """The state of a record: each site at its first line's position."""
    time, count, _ = record
    position = _positions(time, speeds, segments)
    sites = tuple((position(i), sigs) for i, sigs in _sites(record, segments, solo))
    return RunState(time, sites, count)


class _Snapshots:
    """The post-event states of a run, as a read-only sequence.  A step
    records only the ids of its live lines; the records are kept as
    appended, and a state is built beside its record the first time it is
    read.  Times, event counts and shapes are read from the records without
    a build."""

    __slots__ = ("_records", "_states", "_speeds", "_segments", "_solo")

    def __init__(
        self, speeds: Sequence[Scalar], segments: Sequence[Segment], solo: _Solo
    ) -> None:
        self._records: list[_Record] = []
        self._states: list[Optional[RunState]] = []
        self._speeds = speeds
        self._segments = segments
        self._solo = solo

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
            state = self._states[i] = self._build(self._records[i])
        return state

    def _build(self, record: _Record) -> RunState:
        return _state(record, self._speeds, self._segments, self._solo)

    def shape(self, i: int) -> tuple[frozenset[MetaSignal], ...]:
        """The signal sets of state i's sites, left to right."""
        return tuple(sigs for _, sigs in _sites(self._records[i], self._segments, self._solo))

    def time(self, i: int) -> Scalar:
        return self._records[i][0]

    def event_count(self, i: int) -> int:
        return self._records[i][1]

    def _last_step(self, t: Scalar) -> int:
        """The index of the last record at or before t."""
        i = bisect.bisect_right(self._records, t, key=itemgetter(0)) - 1
        if i < 0:
            raise ValueError(f"no recorded state at or before t={t}")
        return i

    def at(self, t: Scalar) -> RunState:
        """The state at time t, from the run's start up to the next step
        after it: the recorded state at a step's own time, else the last
        step's lines moved to t, where none is still at its birth point.
        Raises ValueError for a t before the first record."""
        i = self._last_step(t)
        time, count, ids = self._records[i]
        if time == t:
            return self[i]
        return self._build((t, count, ids))

    def window(self, t: Scalar, lo: Scalar, hi: Scalar) -> tuple[Site, ...]:
        """The sites of `at(t)` with lo <= position <= hi, built alone.  The
        lines are in spatial order at t, and the lines of one site are
        neighbours at one point, so two bisections on positions, each
        computed when probed and at most once, find the window's lines
        without moving the others; only their sites are built."""
        time, _, ids = self._records[self._last_step(t)]
        if time != t:
            time = t  # between steps: no line is still at its birth point
        position = functools.cache(_positions(time, self._speeds, self._segments))
        a = bisect.bisect_left(ids, lo, key=position)
        b = bisect.bisect_right(ids, hi, a, key=position)
        return tuple(
            (position(i), sigs) for i, sigs in _sites((time, 0, ids[a:b]), self._segments, self._solo)
        )


class _Runner:
    """The scheduler: the ids of live lines in spatial order, the heap of
    neighbour meetings, the clock, and the events and segments recorded
    since construction."""

    def __init__(self, machine: SignalMachine, sites: Sequence[Site], time: Scalar) -> None:
        self.machine = machine
        self.speeds = speeds = machine.distinct_speeds()
        self.solo: _Solo = {ms: frozenset((ms,)) for ms in machine.signals}
        # per outgoing or initial signal set: (speed rank, index, signal) of
        # its members, slowest first, which orders co-located signals
        rank = {ms: speeds.index(machine.speed_of(ms)) for ms in machine.signals}
        sets = dict.fromkeys([*machine.rules.values(), *(sigs for _, sigs in sites)])
        self.entries = {sigs: sorted((rank[m], m.index, m) for m in sigs) for sigs in sets}
        self.negated = [-v for v in speeds]
        # closing[i][j] = 1/(speeds[i] - speeds[j]) for j < i
        self.closing = [[1 / (v - w) for w in speeds[:i]] for i, v in enumerate(speeds)]
        # the primes of every denominator of the run (see above)
        self.den_lcm = math.lcm(
            time.n, *(v.n for v in speeds), *(k.n for row in self.closing for k in row),
            *(p.n for p, _ in sites))
        self.time = time
        self.event_count = 0
        self.events: list[Event] = []
        self.segments: list[Segment] = []
        self.order: list[int] = []
        # at t = 0 each line's intercept c = p - v*0 is its initial point p
        zero = not time.sign()
        for p, sigs in sites:
            carried = {r: p for r, _, _ in self.entries[sigs]} if zero else {}
            self.order += self.open_site(p, sigs, None, carried)
        self.heap: list[tuple[Scalar, int, int]] = []
        self.push_pairs(range(len(self.order) - 1))

    def open_site(
        self, p: Scalar, sigs: frozenset[MetaSignal], ev: Optional[int], carried: dict
    ) -> range:
        """One new segment per signal at (p, now), slowest first, and their
        ids.  A signal whose speed rank is a key of `carried` takes its
        intercept."""
        speeds, negated, time, segments = self.speeds, self.negated, self.time, self.segments
        first, den_lcm = len(segments), self.den_lcm
        for r, _, ms in self.entries[sigs]:
            c = carried[r] if r in carried else affine(p, negated[r], time, den_lcm)
            segments.append(Segment(ms, speeds[r], r, c, p, time, ev))
        return range(first, len(segments))

    def push_pairs(self, lefts: Iterable[int]) -> None:
        """Queue the meeting of order[i] and order[i + 1] for each i whose
        left line is the faster."""
        order, segments, closing, heap = self.order, self.segments, self.closing, self.heap
        den_lcm = self.den_lcm
        for i in lefts:
            a, b = order[i], order[i + 1]
            left, right = segments[a], segments[b]
            if left.rank > right.rank:
                k = closing[left.rank][right.rank]
                t = scaled_difference(right.intercept, left.intercept, k, den_lcm)
                heapq.heappush(heap, (t, a, b))

    def next_time(self) -> Optional[Scalar]:
        """Earliest meeting time ahead, None when nothing will ever meet."""
        heap, segments = self.heap, self.segments
        while heap:
            t, a, b = heap[0]
            if segments[a].death_event is None and segments[b].death_event is None:
                return t
            heapq.heappop(heap)
        return None

    def pop_groups(self, t: Scalar) -> list[tuple[int, int, Scalar]]:
        """Pop every pair meeting at t = next_time() and chain them into
        collision groups: slices [start, end) of `order` with their meeting
        point, left to right."""
        heap, order, segments, den_lcm = self.heap, self.order, self.segments, self.den_lcm
        # next_time() read t from the top entry and found it live
        lefts = [order.index(heapq.heappop(heap)[1])]
        while heap and heap[0][0] == t:
            _, a, b = heapq.heappop(heap)
            if segments[a].death_event is None and segments[b].death_event is None:
                lefts.append(order.index(a))
        spans: list[list[int]] = []
        for i in sorted(lefts):
            if spans and spans[-1][1] == i + 1:
                spans[-1][1] = i + 2
            else:
                spans.append([i, i + 2])
        return [(s, e, affine(seg.intercept, seg.speed, t, den_lcm))
                for s, e in spans for seg in [segments[order[s]]]]

    def step(self, t: Scalar) -> None:
        """Fire every collision at t = next_time().  Raises MissingRuleError
        before any line, segment or event changes.  A pair due alone fires
        here (see above); other steps go to `step_groups`."""
        heap = self.heap
        n = len(heap)
        if n > 1 and heap[1][0] == t or n > 2 and heap[2][0] == t:
            self.step_groups(t)
            return
        # the top pair is the only entry due at t: it meets alone
        _, a, b = heapq.heappop(heap)
        segments, den_lcm = self.segments, self.den_lcm
        left, right = segments[a], segments[b]
        p = affine(left.intercept, left.speed, t, den_lcm)
        incoming = frozenset((left.signal, right.signal))
        outgoing = self.machine.rules.get(incoming)
        if outgoing is None:
            raise MissingRuleError(p, t, incoming)
        self.time = t
        idx = self.event_count
        self.events.append(Event(idx, t, p, incoming, outgoing))
        self.event_count = idx + 1
        left.death_time = right.death_time = t
        left.death_event = right.death_event = idx
        speeds, negated = self.speeds, self.negated
        lr, rr, first = left.rank, right.rank, len(segments)
        for r, _, ms in self.entries[outgoing]:
            if r == lr:
                c = left.intercept
            elif r == rr:
                c = right.intercept
            else:
                c = affine(p, negated[r], t, den_lcm)
            segments.append(Segment(ms, speeds[r], r, c, p, t, idx))
        # the new lines take the pair's place, order[i:j]; a pair may start
        # at each edge, left first, and at one when no line went out
        order, closing = self.order, self.closing
        i = order.index(a)
        j = i + len(segments) - first
        order[i:i + 2] = range(first, len(segments))
        for e in (i, j) if j > i else (i,):
            if 0 < e < len(order):
                u, w = order[e - 1], order[e]
                lo, hi = segments[u], segments[w]
                if lo.rank > hi.rank:
                    k = closing[lo.rank][hi.rank]
                    heapq.heappush(heap, (scaled_difference(hi.intercept, lo.intercept, k, den_lcm), u, w))

    def step_groups(self, t: Scalar) -> None:
        """`step` for a time at which a second heap entry, live or stale, is
        due: every group at t, from `pop_groups`."""
        order, segments, rules = self.order, self.segments, self.machine.rules
        fired = []
        for start, end, p in self.pop_groups(t):
            incoming = frozenset([segments[i].signal for i in order[start:end]])
            outgoing = rules.get(incoming)
            if outgoing is None:
                raise MissingRuleError(p, t, incoming)
            fired.append((start, end, p, incoming, outgoing))
        self.time = t
        # one pass, left to right: each group's lines die and its outgoing ones
        # take its place, moved by `shift`; both new edges may start a pair.
        # Edge indices never decrease, so a repeat is the last one kept, and
        # only the last can be the right end, which has no pair
        lefts: list[int] = []
        shift = 0
        for start, end, p, incoming, outgoing in fired:
            start, end, idx = start + shift, end + shift, self.event_count
            self.events.append(Event(idx, t, p, incoming, outgoing))
            self.event_count += 1
            carried = {}
            for i in order[start:end]:
                seg = segments[i]
                seg.death_time, seg.death_event = t, idx
                carried[seg.rank] = seg.intercept
            ids = self.open_site(p, outgoing, idx, carried)
            order[start:end] = ids
            shift += len(ids) - (end - start)
            if start and (not lefts or lefts[-1] < start - 1):
                lefts.append(start - 1)
            if ids:
                lefts.append(start + len(ids) - 1)
        if lefts and lefts[-1] == len(order) - 1:
            lefts.pop()
        self.push_pairs(lefts)

    def record(self) -> _Record:
        return self.time, self.event_count, tuple(self.order)


def next_collision_delta(
    machine: SignalMachine, state: RunState
) -> tuple[Optional[Scalar], list[tuple[Scalar, frozenset[MetaSignal]]]]:
    """Minimal positive delay until some signals meet, plus every meeting
    point realized at that delay.  (None, []) when nothing ever collides."""
    runner = _Runner(machine, state.sites, state.time)
    t = runner.next_time()
    if t is None:
        return None, []
    order, segments = runner.order, runner.segments
    groups = [
        (p, frozenset(segments[i].signal for i in order[start:end]))
        for start, end, p in runner.pop_groups(t)
    ]
    return t - state.time, groups


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
    runner = _Runner(machine, config.sites, machine.ctx.zero())
    snapshots = _Snapshots(runner.speeds, runner.segments, runner.solo)
    snapshots.append(runner.record())
    halt_reason = QUIESCENT
    halt_detail: Optional[MissingRuleError] = None
    certificate: object | None = None

    max_events, max_time = limits.max_events, limits.max_time
    next_time, step, record = runner.next_time, runner.step, runner.record
    append = snapshots.append
    while True:
        if runner.event_count >= max_events:
            halt_reason = EVENT_LIMIT
            break
        t = next_time()
        if t is None:
            halt_reason = QUIESCENT
            break
        if max_time is not None and t > max_time:
            halt_reason = TIME_LIMIT
            break
        try:
            step(t)
        except MissingRuleError as err:
            halt_reason = MISSING_RULE
            # without its traceback, which holds this frame and so the error
            halt_detail = err.with_traceback(None)
            break
        append(record())
        if certifier is not None:
            certificate = certifier(snapshots)
            if certificate is not None:
                halt_reason = CERTIFIED_ACCUMULATION
                break

    return SpaceTimeDiagram(
        machine, runner.events, runner.segments, snapshots, limits,
        halt_reason, halt_detail, certificate,
    )


def configuration_at(diagram: SpaceTimeDiagram, t: Scalar) -> RunState:
    """Exact configuration at time t, right-continuous at event instants
    (a collision reports its outgoing signals), read from the record."""
    if t.sign() < 0:
        raise ValueError(f"time {t} precedes the initial configuration")
    if not diagram.covers(t):
        raise ValueError(f"time {t} is beyond the recorded horizon")
    return diagram.snapshots.at(t)
