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
from typing import Optional

from .engine import (
    QUIESCENT,
    RunLimits,
    RunState,
    SpaceTimeDiagram,
    configuration_at,
    run,
)
from .model import InitialConfiguration, MachineError, SignalMachine
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


# -- periodicity -----------------------------------------------------------------


def detect_periodicity(
    diagram: SpaceTimeDiagram,
    window: tuple[Scalar, Scalar],
    horizon: Optional[Scalar] = None,
) -> Optional[PeriodicityCertificate]:
    """Least (transient, period) making the windowed configuration exactly
    periodic up to the horizon, verified at every event boundary, boundary
    crossing and interval midpoint.

    The transient is the least time from which the right-continuous windowed
    configuration repeats; collision instants must repeat as well (position
    and rule).  Requires the diagram to cover the horizon; a quiescent tail
    that stays constant counts as periodic with a nominal period.
    """
    lo, hi = window
    if horizon is None:
        horizon = diagram.horizon
    if horizon is None:
        raise ValueError("horizon required: diagram is unbounded")
    if not diagram.covers(horizon):
        raise ValueError("diagram does not cover the requested horizon")

    sig_at: dict[Scalar, frozenset] = {}
    for e in diagram.events:
        if e.time <= horizon and lo <= e.position <= hi:
            cur = sig_at.get(e.time, frozenset())
            sig_at[e.time] = cur | {(e.position, e.incoming, e.outgoing)}
    we_times = sorted(sig_at)

    checkpoints = _checkpoints(diagram, lo, hi, horizon)
    keys: dict[Scalar, tuple] = {}

    def key(t: Scalar) -> tuple:
        k = keys.get(t)
        if k is None:
            state = configuration_at(diagram, t)
            k = tuple((p, sigs) for p, sigs in state.sites if lo <= p <= hi)
            keys[t] = k
        return k

    def verify(t_start: Scalar, period: Scalar) -> bool:
        end = horizon - period
        for t in we_times:  # collision alignment, both directions
            if t_start <= t <= end and sig_at.get(t) != sig_at.get(t + period):
                return False
            if t_start + period <= t <= horizon and sig_at.get(t) != sig_at.get(
                t - period
            ):
                return False
        pts = {t_start, end}
        for c in checkpoints:
            if t_start <= c <= end:
                pts.add(c)
            if t_start <= c - period <= end:
                pts.add(c - period)
        ordered = sorted(pts)
        for t in ordered:
            if key(t) != key(t + period):
                return False
        for a, b in zip(ordered, ordered[1:]):  # midpoints pin the linear parts
            mid = (a + b) / 2
            if key(mid) != key(mid + period):
                return False
        return True

    for t_start in checkpoints:
        if t_start > horizon:
            break
        nxt = bisect_left(we_times, t_start)
        if nxt == len(we_times) or we_times[-1] <= t_start:
            period = _constant_tail(key, checkpoints, t_start, horizon)
            if period is not None:
                return PeriodicityCertificate((lo, hi), t_start, period)
            continue
        first = we_times[nxt]
        for partner in we_times[bisect_right(we_times, first) :]:
            period = partner - first
            if 3 * period > horizon - t_start:
                break
            if first + period <= horizon and sig_at.get(first) != sig_at.get(
                first + period
            ):
                continue
            if key(t_start) != key(t_start + period):
                continue
            if verify(t_start, period):
                return PeriodicityCertificate((lo, hi), t_start, period)
    return None


def _checkpoints(
    diagram: SpaceTimeDiagram, lo: Scalar, hi: Scalar, horizon: Scalar
) -> list[Scalar]:
    zero = diagram.machine.ctx.zero()
    pts = {zero}
    for s in diagram.snapshots:
        if s.time <= horizon:
            pts.add(s.time)
    sp = diagram.machine.speed_of
    for seg in diagram.segments:  # window boundary crossings
        v = sp(seg.signal)
        if v.sign() == 0:
            continue
        for edge in (lo, hi):
            t = seg.birth_time + (edge - seg.birth_position) / v
            if t < seg.birth_time or t > horizon:
                continue
            if seg.death_time is not None and t > seg.death_time:
                continue
            pts.add(t)
    return sorted(pts)


def _constant_tail(key, checkpoints, t_start, horizon) -> Optional[Scalar]:
    """Eventually-constant window: periodic with any period; report a nominal
    one spanning a third of the remaining horizon.  Constancy is probed on
    the open interval (t_start, horizon]: the reported transient is the
    infimum, e.g. the instant the last mover exits the window."""
    span = horizon - t_start
    if span.sign() <= 0:
        return None
    probes = sorted(
        {t_start, horizon} | {c for c in checkpoints if t_start <= c <= horizon}
    )
    ref = key((probes[0] + probes[1]) / 2) if len(probes) > 1 else None
    if ref is None:
        return None
    for a, b in zip(probes, probes[1:]):
        if key(b) != ref or key((a + b) / 2) != ref:
            return None
    return span / 3


# -- diagram inclusion ------------------------------------------------------------


# A span is a closed time interval (lo, hi) on one line; hi None is +infinity.
_Span = tuple[Scalar, Optional[Scalar]]


def _before(a: Optional[Scalar], b: Optional[Scalar]) -> bool:
    """a < b, where None stands for +infinity."""
    return a is not None and (b is None or a < b)


def _spans_by_line(
    diagram: SpaceTimeDiagram, cap: Optional[Scalar]
) -> dict[tuple[Scalar, Scalar], list[_Span]]:
    """Each segment's span [birth, min(death, cap)], keyed by its line
    (speed, x - speed*t); segments born after cap are dropped."""
    sp = diagram.machine.speed_of
    lines: dict[tuple[Scalar, Scalar], list[_Span]] = {}
    for seg in diagram.segments:
        hi = seg.death_time
        if _before(cap, hi):
            if cap < seg.birth_time:
                continue
            hi = cap
        v = sp(seg.signal)
        line = (v, seg.birth_position - v * seg.birth_time)
        lines.setdefault(line, []).append((seg.birth_time, hi))
    return lines


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
