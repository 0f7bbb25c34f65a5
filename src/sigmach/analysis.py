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
from typing import Iterator, Optional

from .engine import (
    QUIESCENT,
    RunLimits,
    RunState,
    SpaceTimeDiagram,
    configuration_at,
    run,
)
from .model import InitialConfiguration, MachineError, MetaSignal, SignalMachine
from .scalars import Scalar


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


def detect_contraction(
    diagram: SpaceTimeDiagram, search_budget: int = 200_000
) -> Optional[ContractionCertificate]:
    """Scan post-event configurations for an exact contracting self-similarity.

    Only snapshots with the same per-site meta-signal sequence can match, so
    candidates are pre-grouped by that shape.  Returns the first match in
    (t1, t2) ascending order, or None (which is inconclusive, never a proof
    of non-accumulation).
    """
    snaps = diagram.snapshots
    shapes: list[Optional[tuple]] = []
    partners: dict[tuple, list[int]] = {}
    for idx, snap in enumerate(snaps):
        if len(snap.sites) < 2:
            shapes.append(None)
            continue
        shape = tuple(sigs for _, sigs in snap.sites)
        shapes.append(shape)
        partners.setdefault(shape, []).append(idx)
    tested = 0
    for i, shape in enumerate(shapes):
        if shape is None:
            continue
        for j in partners[shape]:
            if j <= i:
                continue
            tested += 1
            if tested > search_budget:
                return None
            found = _homothety(snaps[i], snaps[j])
            if found is not None:
                ratio, center = found
                t1, t2 = snaps[i].time, snaps[j].time
                limit = t1 + (t2 - t1) / (1 - ratio)
                return ContractionCertificate(t1, t2, ratio, center, limit)
    return None


def _homothety(s1: RunState, s2: RunState) -> Optional[tuple[Scalar, Scalar]]:
    """Ratio and center mapping s1's sites onto s2's, if one exists with
    ratio strictly between 0 and 1.  Site signal sets must already agree."""
    xs1 = [p for p, _ in s1.sites]
    xs2 = [p for p, _ in s2.sites]
    span = xs1[1] - xs1[0]
    ratio = (xs2[1] - xs2[0]) / span
    if ratio.sign() <= 0 or (1 - ratio).sign() <= 0:
        return None
    center = (xs2[0] - ratio * xs1[0]) / (1 - ratio)
    for x1, x2 in zip(xs1, xs2):
        if center + ratio * (x1 - center) != x2:
            return None
    return ratio, center


def contraction_replay_matches(
    diagram: SpaceTimeDiagram, cert: ContractionCertificate
) -> bool:
    """Soundness check: the t2 configuration must be the homothetic image of
    the t1 configuration, site by site, and re-simulating from that image
    must reproduce the (t1, t2] events scaled by the ratio about the center."""
    base = configuration_at(diagram, cert.t1)
    scaled_sites = [
        (cert.center_x + cert.ratio * (p - cert.center_x), sigs)
        for p, sigs in base.sites
    ]
    if tuple(scaled_sites) != configuration_at(diagram, cert.t2).sites:
        return False
    window = [e for e in diagram.events if cert.t1 < e.time <= cert.t2]
    if not window:
        return False
    replay = run(
        diagram.machine,
        InitialConfiguration(scaled_sites),
        RunLimits(max_events=len(window) + 1, max_time=cert.ratio * (cert.t2 - cert.t1)),
    )
    expected = sorted(
        (
            cert.ratio * (e.time - cert.t1),
            cert.center_x + cert.ratio * (e.position - cert.center_x),
            e.incoming,
            e.outgoing,
        )
        for e in window
    )
    got = sorted((e.time, e.position, e.incoming, e.outgoing) for e in replay.events)
    return expected == got


# -- spans on lines ----------------------------------------------------------------


# A span is a closed time interval (lo, hi) on one line; hi None is +infinity.
_Span = tuple[Scalar, Optional[Scalar]]


def _before(a: Optional[Scalar], b: Optional[Scalar]) -> bool:
    """a < b, where None stands for +infinity."""
    return a is not None and (b is None or a < b)


def _clipped_segments(
    diagram: SpaceTimeDiagram, cap: Optional[Scalar]
) -> Iterator[tuple[MetaSignal, Scalar, Scalar, Scalar, Optional[Scalar]]]:
    """Each segment as (signal, speed, x - speed*t, birth, min(death, cap));
    segments born after cap are dropped."""
    sp = diagram.machine.speed_of
    for seg in diagram.segments:
        hi = seg.death_time
        if _before(cap, hi):
            if cap < seg.birth_time:
                continue
            hi = cap
        v = sp(seg.signal)
        yield seg.signal, v, seg.birth_position - v * seg.birth_time, seg.birth_time, hi


def _union(spans: list[_Span]) -> list[_Span]:
    """Sorted, disjoint closed intervals covering exactly the given spans."""
    merged: list[_Span] = []
    for lo, hi in sorted(spans, key=lambda s: s[0]):
        if merged and not _before(merged[-1][1], lo):
            if _before(merged[-1][1], hi):
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


# -- periodicity -----------------------------------------------------------------


def detect_periodicity(
    diagram: SpaceTimeDiagram,
    window: tuple[Scalar, Scalar],
    horizon: Optional[Scalar] = None,
) -> Optional[PeriodicityCertificate]:
    """Least (transient, period) making the windowed diagram exactly periodic
    up to the horizon, decided on segments.

    Segments are clipped to the window and to [0, horizon], and the pieces
    merged per (signal, speed, x - speed*t).  Period P holds from T when the
    pieces over [T, horizon - P], moved P later, equal those over
    [T + P, horizon], and the window's collisions (position and rule) repeat
    both ways; the latter also pins each collision instant, where closed
    pieces still hold the incoming signals.  The transient is the least time
    from which the right-continuous windowed configuration repeats.  Requires
    the diagram to cover the horizon.  A quiescent tail (no collision in the
    window and no moving signal in it after T) counts as periodic with a
    nominal period of a third of the remaining horizon.
    """
    lo, hi = window
    if horizon is None:
        horizon = diagram.horizon
    if horizon is None:
        raise ValueError("horizon required: diagram is unbounded")
    if not diagram.covers(horizon):
        raise ValueError("diagram does not cover the requested horizon")

    zero = diagram.machine.ctx.zero()
    sig_at: dict[Scalar, frozenset] = {}
    candidates = {zero}
    for e in diagram.events:
        if e.time <= horizon:
            candidates.add(e.time)
            if lo <= e.position <= hi:
                cur = sig_at.get(e.time, frozenset())
                sig_at[e.time] = cur | {(e.position, e.incoming, e.outgoing)}
    we_times = sorted(sig_at)

    pieces: dict[tuple[MetaSignal, Scalar, Scalar], list[_Span]] = {}
    last_move = zero  # latest time a mover is in the window
    for ms, v, c, start, stop in _clipped_segments(diagram, horizon):
        if v.sign() == 0:
            if not lo <= c <= hi:
                continue
        else:
            enter, leave = (lo - c) / v, (hi - c) / v
            if v.sign() < 0:
                enter, leave = leave, enter
            start, stop = max(start, enter), min(stop, leave)
            if stop < start:
                continue
            last_move = max(last_move, stop)
        candidates.update((start, stop))
        pieces.setdefault((ms, v, c), []).append((start, stop))
    lines = {key: _union(spans) for key, spans in pieces.items()}

    def restricted(t0: Scalar, t1: Scalar, shift: Scalar) -> dict:
        """Each line's pieces within [t0, t1], moved `shift` later in time."""
        out = {}
        for (ms, v, c), union in lines.items():
            part = [
                (max(a, t0) + shift, min(b, t1) + shift)
                for a, b in union
                if a <= t1 and t0 <= b
            ]
            if part:
                out[(ms, v, c - v * shift)] = part
        return out

    def verify(t_start: Scalar, period: Scalar) -> bool:
        end = horizon - period
        for t in we_times:  # collision alignment, both directions
            if t_start <= t <= end and sig_at.get(t) != sig_at.get(t + period):
                return False
            if t_start + period <= t <= horizon and sig_at.get(t) != sig_at.get(
                t - period
            ):
                return False
        return restricted(t_start, end, period) == restricted(
            t_start + period, horizon, zero
        )

    for t_start in sorted(candidates):
        if not we_times or we_times[-1] <= t_start:  # no later collision
            if t_start < horizon and last_move <= t_start:
                period = (horizon - t_start) / 3
                return PeriodicityCertificate((lo, hi), t_start, period)
            continue
        first = we_times[bisect_left(we_times, t_start)]
        for partner in we_times[bisect_right(we_times, first) :]:
            period = partner - first
            if 3 * period > horizon - t_start:
                break
            if first + period <= horizon and sig_at.get(first) != sig_at.get(
                first + period
            ):
                continue
            if verify(t_start, period):
                return PeriodicityCertificate((lo, hi), t_start, period)
    return None


# -- diagram inclusion ------------------------------------------------------------


def _spans_by_line(
    diagram: SpaceTimeDiagram, cap: Optional[Scalar]
) -> dict[tuple[Scalar, Scalar], list[_Span]]:
    """The clipped spans of `_clipped_segments`, keyed by line (speed, x - speed*t)."""
    lines: dict[tuple[Scalar, Scalar], list[_Span]] = {}
    for _, v, c, birth, stop in _clipped_segments(diagram, cap):
        lines.setdefault((v, c), []).append((birth, stop))
    return lines


def diagram_included(inner: SpaceTimeDiagram, outer: SpaceTimeDiagram) -> bool:
    """True iff `inner`'s support lies on `outer`'s up to the common horizon.

    Exact: every inner segment, clipped to the horizon, must lie within one
    maximal interval of the union of outer segments on the same line.  A
    segment born exactly at the horizon is a single point, which must lie on
    some outer segment.  Inner events need no check of their own: each one
    closes at least two inner segments of positive length."""
    bounds = [h for h in (inner.horizon, outer.horizon) if h is not None]
    cap = min(bounds) if bounds else None
    outer_lines = {
        line: _union(spans) for line, spans in _spans_by_line(outer, cap).items()
    }
    at_cap: Optional[set[Scalar]] = None  # outer positions at t = cap
    for (v, c), spans in _spans_by_line(inner, cap).items():
        union = outer_lines.get((v, c), [])
        starts = [lo for lo, _ in union]
        for lo, hi in spans:
            if lo == hi:  # born at cap: a single point
                if at_cap is None:
                    at_cap = {
                        oc + ov * cap
                        for (ov, oc), merged in outer_lines.items()
                        if merged[-1][1] == cap
                    }
                if c + v * cap not in at_cap:
                    return False
                continue
            i = bisect_right(starts, lo) - 1
            if i < 0:
                return False
            if _before(union[i][1], hi):
                return False
    return True


# -- causal past -------------------------------------------------------------------


@dataclass(frozen=True)
class CausalCone:
    """Backward light cone below (apex_x, apex_t), bounded by the machine's
    extremal speeds; membership uses the strict inequalities."""

    apex_x: Scalar
    apex_t: Scalar
    max_right_speed: Scalar
    max_left_speed: Scalar

    @classmethod
    def from_machine(
        cls, machine: SignalMachine, apex_x: Scalar, apex_t: Scalar
    ) -> "CausalCone":
        speeds = machine.distinct_speeds()
        return cls(apex_x, apex_t, speeds[-1], speeds[0])

    def contains(self, x: Scalar, t: Scalar) -> bool:
        if not t < self.apex_t:
            return False
        dt = t - self.apex_t
        dx = x - self.apex_x
        return self.max_right_speed * dt < dx and dx < self.max_left_speed * dt


def collisions_in_cone(diagram: SpaceTimeDiagram, cone: CausalCone) -> int:
    return sum(1 for e in diagram.events if cone.contains(e.position, e.time))


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
