"""Certificates and checks over recorded diagrams.

Accumulations are certified by self-similar contraction: two post-event
configurations that are exact homotheties of one another with ratio strictly
inside (0, 1).  The dynamics is scale-covariant, so the pattern between the
two sampled times repeats forever with geometrically shrinking durations and
the collision sequence converges to the homothety's fixed point.
Non-accumulation evidence comes from exact windowed periodicity or, for
2-speed machines, from the finite collision bound.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Hashable, Optional

from .engine import (
    QUIESCENT,
    RunLimits,
    RunState,
    Segment,
    SpaceTimeDiagram,
    _Snapshots,
    common_horizon,
    configuration_at,
    run,
)
from .model import InitialConfiguration, MachineError, SignalMachine
from .scalars import Scalar, affine, scaled_difference


@dataclass(frozen=True)
class ContractionCertificate:
    """Configurations at t1 and t2 match up to a homothety of ratio
    0 < ratio < 1 about center_x, so collisions accumulate at
    (center_x, limit_time) with limit_time = t1 + (t2 - t1)/(1 - ratio)."""

    t1: Scalar
    t2: Scalar
    ratio: Scalar
    center_x: Scalar
    limit_time: Scalar

    def serialize(self) -> str:
        return (
            f"ACCUMULATION center={self.center_x} time={self.limit_time} "
            f"ratio={self.ratio}"
        )


@dataclass(frozen=True)
class PeriodicityCertificate:
    """From transient onward, the configuration restricted to window repeats
    exactly with the given period."""

    window: tuple[Scalar, Scalar]
    transient: Scalar
    period: Scalar

    def serialize(self) -> str:
        lo, hi = self.window
        return (
            f"PERIODIC window=[{lo},{hi}] transient={self.transient} "
            f"period={self.period}"
        )


# -- contraction ----------------------------------------------------------------

SEARCH_BUDGET = 200_000  # pairs of states a contraction search tests by default


class ContractionSearch:
    """Incremental search for an exact contracting self-similarity between
    two post-event states of one run.

    `feed` reads the states of a run's snapshots in time order, from where
    its last call stopped, and tests each new state j against the earlier
    states of the same shape (per-site signal sets), oldest first.  Shapes
    are read from the recorded lines, so a state is built only when it is
    compared.  The search stops at the first match, so the answer is the
    pair with the least t2, then the least t1.  At most `search_budget`
    pairs are tested over the whole search, counted in that order.  None is
    inconclusive, never a proof of non-accumulation.
    """

    def __init__(self, search_budget: int = SEARCH_BUDGET) -> None:
        self._found: Optional[ContractionCertificate] = None
        self._left = search_budget  # pairs that may still be tested
        self._read = 0  # states read so far
        self._by_shape: dict[tuple, list[int]] = {}

    def feed(self, snaps: _Snapshots) -> Optional[ContractionCertificate]:
        """Test the states not read yet; the certificate once one is found."""
        while self._found is None and self._read < len(snaps):
            j = self._read
            self._read += 1
            shape = snaps.shape(j)
            if len(shape) < 2:
                continue
            earlier = self._by_shape.setdefault(shape, [])
            for i in earlier:
                if self._left == 0:
                    return None
                self._left -= 1
                found = _homothety(snaps[i], snaps[j])
                if found is not None:
                    ratio, center = found
                    t1, t2 = snaps[i].time, snaps[j].time
                    limit = t1 + (t2 - t1) / (1 - ratio)
                    self._found = ContractionCertificate(t1, t2, ratio, center, limit)
                    return self._found
            earlier.append(j)
        return self._found


def detect_contraction(
    diagram: SpaceTimeDiagram, search_budget: int = SEARCH_BUDGET
) -> Optional[ContractionCertificate]:
    """A `ContractionSearch` over the diagram's post-event snapshots."""
    return ContractionSearch(search_budget).feed(diagram.snapshots)


def _homothety(s1: RunState, s2: RunState) -> Optional[tuple[Scalar, Scalar]]:
    """Ratio and center mapping s1's sites onto s2's, if one exists with
    ratio strictly between 0 and 1.  Site signal sets must already agree.
    The test is division-free: the ratio span2/span1 lies in (0, 1) when
    span1, span2 and span1 - span2 share one sign, and every other site
    must satisfy (x2 - x2[0])*span1 = (x1 - x1[0])*span2."""
    xs1 = [p for p, _ in s1.sites]
    xs2 = [p for p, _ in s2.sites]
    span1 = xs1[1] - xs1[0]
    span2 = xs2[1] - xs2[0]
    sign = span1.sign()
    if sign == 0 or span2.sign() != sign or (span1 - span2).sign() != sign:
        return None
    for x1, x2 in zip(xs1[2:], xs2[2:]):
        if (x2 - xs2[0]) * span1 != (x1 - xs1[0]) * span2:
            return None
    ratio = span2 / span1
    return ratio, (xs2[0] - ratio * xs1[0]) / (1 - ratio)


def contraction_replay_matches(
    diagram: SpaceTimeDiagram, cert: ContractionCertificate
) -> bool:
    """Soundness check: the t2 configuration must be the homothetic image of
    the t1 configuration, site by site, and re-simulating from that image
    must reproduce the (t1, t2] events scaled by the ratio about the center.
    A run logs its events by time, then position, and a homothety of
    positive ratio keeps that order, so the two logs are compared in order."""
    center, ratio = cert.center_x, cert.ratio
    base = configuration_at(diagram, cert.t1)
    scaled_sites = [(affine(center, ratio, p - center), sigs) for p, sigs in base.sites]
    image = configuration_at(diagram, cert.t2)
    if tuple(scaled_sites) != image.sites:
        return False
    window = diagram.events[base.event_count : image.event_count]
    if not window:
        return False
    span = scaled_difference(cert.t2, cert.t1, ratio)
    replay = run(
        diagram.machine,
        InitialConfiguration(scaled_sites),
        RunLimits(max_events=len(window) + 1, max_time=span),
    )
    expected = [
        (
            scaled_difference(e.time, cert.t1, ratio),
            affine(center, ratio, e.position - center),
            e.incoming,
            e.outgoing,
        )
        for e in window
    ]
    got = [(e.time, e.position, e.incoming, e.outgoing) for e in replay.events]
    return expected == got


# -- spans on lines ----------------------------------------------------------------


# A span is a closed time interval (lo, hi) on one line; hi None is +infinity.
_Span = tuple[Scalar, Optional[Scalar]]

# Line keys: periodicity tells the signals on a line apart, inclusion does
# not, since its two runs may come from different machines.
_SIGNAL_LINE = attrgetter("signal", "speed", "intercept")
_LINE = attrgetter("speed", "intercept")


def _before(a: Optional[Scalar], b: Optional[Scalar]) -> bool:
    """a < b, where None stands for +infinity."""
    return a is not None and (b is None or a < b)


def _lines(
    diagram: SpaceTimeDiagram, cap: Optional[Scalar], key: Callable[[Segment], Hashable]
) -> dict[Hashable, list[_Span]]:
    """The spans [birth, min(death, cap)] of the segments born by cap,
    grouped by key and merged per group into sorted, disjoint closed
    intervals.  Segments are recorded in birth order, so each group's spans
    arrive sorted by their starts.

    A line's spans never overlap, since two signals of one speed never
    share a point, so a span either continues the line's last one, starting
    where it ends, or follows it after a gap and is appended.  Most
    continuations are told by identity: a step gives its time object to
    every line it ends and every line it opens, so a segment that continues
    its line starts at the very object that ends the line's last span; any
    other start is compared.  When the run's last step is at or before cap,
    no segment is born after cap and only the live ones are cut, so no
    segment's times are compared with cap."""
    lines: dict[Hashable, list[_Span]] = {}
    setdefault = lines.setdefault
    cut = cap is not None and cap < diagram.snapshots.time(-1)
    for seg in diagram.segments:
        lo, hi = seg.birth_time, seg.death_time
        if hi is None or cut and cap < hi:
            if cut and cap < lo:
                break
            hi = cap
        merged = setdefault(key(seg), [])
        if merged and (merged[-1][1] is lo or merged[-1][1] == lo):
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return lines


# -- periodicity -----------------------------------------------------------------


def detect_periodicity(
    diagram: SpaceTimeDiagram,
    window: tuple[Scalar, Scalar],
    horizon: Scalar,
) -> Optional[PeriodicityCertificate]:
    """Least (transient, period) making the windowed diagram exactly periodic
    up to the horizon, decided on lines and, where the window is closed, on
    states.

    Each line (signal, speed, x - speed*t) is merged up to the horizon and
    clipped to the window once, and each collision in the window is a point
    piece on a line of its own (rule, 0, position).  Period P holds from T
    when the pieces over [T, horizon - P], moved P later, equal those over
    [T + P, horizon]; so the collisions repeat both ways, which also pins
    each collision instant, where closed pieces still hold the incoming
    signals.  The transient is the least time from which the
    right-continuous windowed configuration repeats.  The diagram must cover
    the horizon.  A quiescent tail (no collision in the window and no moving
    signal in it after T) counts as periodic with a nominal period of a
    third of the remaining horizon.

    The window is closed at T when no speed but the slowest is negative, no
    speed but the fastest is positive, and in the state at T every site
    left of the window holds only slowest signals and every site right of
    it only fastest ones.  Then a candidate is decided by the window's sites
    in the states at T and T + P and by the window's collisions at those
    two instants, with the same answer as the pieces:
    - Closure and equal states imply equal pieces.  Left of the window
      every signal has the slowest speed, which is at most 0, and only
      that speed can leave the window on that side; the right side is the
      mirror image.  So nothing outside ever meets anything or comes back,
      closure holds at every later time, and by determinism the window's
      diagram after an instant depends on its sites at that instant alone.
      Equal sites at T and T + P, and equal collisions at those instants,
      make the pieces from T and from T + P equal up to any horizon: the
      window is periodic forever, not only up to this one.
    - Equal pieces imply equal states and equal collisions.  The pieces at
      instant T hold the rule points and every line through the window at
      T, the dying ones included; the window's sites at T are those lines
      less the signals that a collision at T ends.  So a candidate that
      the states reject, the pieces reject too.
    Closure is read from the lines.  A line is on the wrong side while it is
    outside the window at a speed not allowed there: a moving line before it
    enters (a fastest one on the left, a slowest one on the right), or a
    stationary line left of the window unless 0 is the slowest speed, or
    right of it unless 0 is the fastest.  These stretches are half-open,
    [birth, end), like the states, and closure is monotone in T, so the
    window is closed exactly from the last stretch end on.  Before that the
    pieces decide, so an open window reads no state; each state is read once.
    """
    lo, hi = window
    if hi < lo:
        raise ValueError("window is reversed: its left end is right of its right end")
    if not diagram.covers(horizon):
        raise ValueError("diagram does not cover the requested horizon")

    machine = diagram.machine
    zero = machine.ctx.zero()
    sig_at: dict[Scalar, set] = {}
    candidates = {zero}
    pieces: dict[tuple, list[_Span]] = {}
    events = diagram.events
    if horizon < diagram.snapshots.time(-1):
        events = [e for e in events if e.time <= horizon]
    for e in events:
        candidates.add(e.time)
        if lo <= e.position <= hi:
            sig_at.setdefault(e.time, set()).add((e.position, e.incoming, e.outgoing))
            rule_line = ((e.incoming, e.outgoing), zero, e.position)
            pieces.setdefault(rule_line, []).append((e.time, e.time))
    we_times = sorted(sig_at)

    speeds = machine.distinct_speeds()
    closable = speeds[0].sign() <= 0 <= speeds[-1].sign() and not any(
        v.sign() for v in speeds[1:-1]
    )
    closed = zero if closable else None  # closed from this time on; None: never
    last_move = zero  # latest time a mover is in the window
    # a line at speed v crosses x at (x - c)*(1/v)
    inverse = {v: 1 / v for v in speeds if v.sign()}
    for (ms, v, c), union in _lines(diagram, horizon, _SIGNAL_LINE).items():
        if v.sign() == 0:
            if lo <= c <= hi:
                pieces[(ms, v, c)] = union
            elif closable and (speeds[0] if c < lo else speeds[-1]).sign():
                closed = max(closed, union[-1][1])
            continue
        k = inverse[v]
        enter, leave = scaled_difference(lo, c, k), scaled_difference(hi, c, k)
        if v.sign() < 0:
            enter, leave = leave, enter
        if closable:
            closed = max([closed] + [min(b, enter) for a, b in union if a < enter])
        inside = [(max(a, enter), min(b, leave)) for a, b in union if a <= leave and enter <= b]
        if inside:
            pieces[(ms, v, c)] = inside
            last_move = max(last_move, inside[-1][1])
    candidates.update(t for spans in pieces.values() for span in spans for t in span)

    states: dict[Scalar, tuple] = {}

    def windowed(t: Scalar) -> tuple:
        """The window's sites at t."""
        if t not in states:
            states[t] = diagram.snapshots.window(t, lo, hi)
        return states[t]

    for t_start in sorted(candidates):
        if not we_times or we_times[-1] <= t_start:  # no later collision
            if t_start < horizon and last_move <= t_start:
                period = (horizon - t_start) / 3
                return PeriodicityCertificate((lo, hi), t_start, period)
            continue
        first = we_times[bisect_left(we_times, t_start)]
        longest = (horizon - t_start) / 3  # the longest period checked from t_start
        for partner in we_times[bisect_right(we_times, first) :]:
            period = partner - first
            if period > longest:
                break
            if sig_at[first] != sig_at[partner]:
                continue
            if closed is not None and closed <= t_start:
                later = t_start + period
                repeats = windowed(t_start) == windowed(later)
                repeats = repeats and sig_at.get(t_start) == sig_at.get(later)
            else:
                repeats = _shifted_pieces(
                    pieces, t_start, horizon - period, period
                ) == _shifted_pieces(pieces, t_start + period, horizon, zero)
            if repeats:
                return PeriodicityCertificate((lo, hi), t_start, period)
    return None


def _shifted_pieces(
    pieces: dict[tuple, list[_Span]], t0: Scalar, t1: Scalar, shift: Scalar
) -> dict[tuple, list[_Span]]:
    """Each line's pieces within [t0, t1], moved `shift` later in time."""
    out, back = {}, -shift
    for (tag, v, c), union in pieces.items():
        part = [
            (max(a, t0) + shift, min(b, t1) + shift)
            for a, b in union
            if a <= t1 and t0 <= b
        ]
        if part:
            out[(tag, v, affine(c, v, back))] = part
    return out


# -- diagram inclusion ------------------------------------------------------------


def diagram_included(inner: SpaceTimeDiagram, outer: SpaceTimeDiagram) -> bool:
    """True iff `inner`'s support lies on `outer`'s up to the common horizon.

    Exact: each merged span of an inner line (speed, x - speed*t), clipped
    to the horizon, must lie within one maximal span of the outer line.  A
    span of abutting inner segments may stand for the segments, since two
    that share a point lie in the same maximal outer span.  A segment born
    exactly at the horizon, on no other inner span, is a single point, which
    must lie on some outer segment.  Inner events need no check of their
    own: each one closes at least two inner segments of positive length."""
    cap = common_horizon(inner, outer)
    outer_lines = _lines(outer, cap, _LINE)
    at_cap: Optional[set[Scalar]] = None  # outer positions at t = cap
    for (v, c), spans in _lines(inner, cap, _LINE).items():
        union = outer_lines.get((v, c), [])
        starts = [lo for lo, _ in union]
        for lo, hi in spans:
            if lo == hi:  # born at cap: a single point
                if at_cap is None:
                    at_cap = {
                        affine(oc, ov, cap)
                        for (ov, oc), merged in outer_lines.items()
                        if merged[-1][1] == cap
                    }
                if affine(c, v, cap) not in at_cap:
                    return False
                continue
            i = bisect_right(starts, lo) - 1
            if i < 0 or _before(union[i][1], hi):
                return False
    return True


# -- two-speed bound ------------------------------------------------------------------


@dataclass(frozen=True)
class TwoSpeedReport:
    count: int
    bound: int
    halted: bool


def two_speed_bound_check(
    machine: SignalMachine, config: InitialConfiguration
) -> TwoSpeedReport:
    """Run a 2-speed machine to quiescence; the event count can never exceed
    (faster instances) x (slower instances)."""
    speeds = machine.distinct_speeds()
    if len(speeds) != 2:
        raise MachineError(f"two-speed check on a {len(speeds)}-speed machine")
    slow, fast = speeds
    i = sum(
        1 for _, sigs in config.sites for ms in sigs if machine.speed_of(ms) == fast
    )
    j = sum(
        1 for _, sigs in config.sites for ms in sigs if machine.speed_of(ms) == slow
    )
    bound = i * j
    diagram = run(machine, config, RunLimits(max_events=bound + 1))
    return TwoSpeedReport(
        count=len(diagram.events),
        bound=bound,
        halted=diagram.halt_reason == QUIESCENT,
    )
