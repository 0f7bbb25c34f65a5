"""Answers computed apart from sigmach, against which the benchmark checks
every output.

Nothing here calls into sigmach: values arrive as plain ``Fraction`` /
integer data or as read-only diagrams whose scalars are converted to
``Fraction`` first.  Quadratic irrationals are handled as integer triples
``(P, Q, D)`` standing for ``(P + sqrt(D)) / Q``.
"""

from __future__ import annotations

import math
from fractions import Fraction

# -- wall-encoded arithmetic ------------------------------------------------


def arith_expected(op: str, a: Fraction, b: Fraction) -> Fraction:
    """a - b, a mod b, or gcd(p1*q2, p2*q1) / (q1*q2) for a = p1/q1, b = p2/q2."""
    if op == "sub":
        return a - b
    if op == "mod":
        return a - b * math.floor(a / b)
    if op == "gcd":
        p1, q1 = a.numerator, a.denominator
        p2, q2 = b.numerator, b.denominator
        return Fraction(math.gcd(p1 * q2, p2 * q1), q1 * q2)
    raise ValueError(f"unknown operation {op!r}")


# -- the 4-speed accumulator ------------------------------------------------

SM4_RATIO = Fraction(49, 81)
SM4_LIMIT_TIME = Fraction(2)


def sm4_event(n: int) -> tuple[Fraction, Fraction]:
    """(x_n, t_n) of the n-th collision, n >= 1:
    x_n = (-1)^(n+1) (7/9)^n and t_n = (4/9) * sum_{i<n} (7/9)^i."""
    q = Fraction(7, 9)
    x = (-1) ** (n + 1) * q**n
    t = Fraction(4, 9) * (1 - q**n) / (1 - q)
    return x, t


# -- quadratic irrationals ----------------------------------------------------


def _sign_surd(u: int, D: int) -> int:
    """Sign of u + sqrt(D) for integer u and non-square D > 0."""
    if u >= 0:
        return 1
    return 1 if u * u < D else -1


def _floor_surd(P: int, Q: int, D: int) -> int:
    """floor((P + sqrt(D)) / Q), decided by exact integer sign tests."""
    c = (P + math.isqrt(D)) // Q  # estimate, corrected below
    sq = 1 if Q > 0 else -1

    def at_least(k: int) -> bool:  # (P + sqrt D)/Q >= k
        return _sign_surd(P - k * Q, D) * sq >= 0

    while not at_least(c):
        c -= 1
    while at_least(c + 1):
        c += 1
    return c


def check_surd(P: int, Q: int, D: int) -> None:
    r = math.isqrt(D)
    if D <= 0 or r * r == D:
        raise ValueError(f"D = {D} must be a positive non-square")
    if Q == 0 or (D - P * P) % Q:
        raise ValueError(f"Q = {Q} must divide D - P^2 = {D - P * P}")


def gauss_orbit(P: int, Q: int, D: int) -> tuple[list[tuple[int, int]], int]:
    """Orbit of x = (P + sqrt D)/Q in (0, 1) under x -> 1/x - floor(1/x),
    the step from one gcd-machine remainder ratio b/a to the next.

    Returns the states (P_n, Q_n) up to the first repeat and the index at
    which the periodic part starts.
    """
    check_surd(P, Q, D)
    seen: dict[tuple[int, int], int] = {}
    states: list[tuple[int, int]] = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(states)
        states.append((P, Q))
        P, Q = -P, (D - P * P) // Q  # 1/x
        c = _floor_surd(P, Q, D)
        P -= c * Q  # 1/x - c
    return states, seen[(P, Q)]


def partial_quotients(P: int, Q: int, D: int) -> list[int]:
    """floor(1/x_n) along the orbit: the preperiod followed by one period."""
    states, _ = gauss_orbit(P, Q, D)
    return [_floor_surd(-p, (D - p * p) // q, D) for p, q in states]


def contraction_ratio(P: int, Q: int, D: int) -> tuple[Fraction, Fraction]:
    """Ratio (u, v), meaning u + v*sqrt(D), by which the gcd machine on the
    distances (1, x) rescales itself over one period of the remainder
    recursion: the product of x_n over the periodic part of the orbit."""
    states, start = gauss_orbit(P, Q, D)
    u, v = Fraction(1), Fraction(0)
    for p, q in states[start:]:
        xu, xv = Fraction(p, q), Fraction(1, q)
        u, v = u * xu + v * xv * D, u * xv + v * xu
    return u, v


def surd_value(P: int, Q: int, D: int) -> float:
    return (P + math.sqrt(D)) / Q


# -- diagrams, read as exact rational data ------------------------------------


def as_fraction(s) -> Fraction:
    """A sigmach scalar known to be rational, as a Fraction."""
    if s.b != 0:
        raise ValueError(f"irrational value {s} where a rational was expected")
    return Fraction(s.a.numerator, s.a.denominator)


def _names(signals) -> tuple[str, ...]:
    return tuple(sorted(m.name for m in signals))


def event_set(diagram, horizon: Fraction) -> set[tuple]:
    """(x, t, incoming names, outgoing names) of every event up to horizon."""
    out = set()
    for e in diagram.events:
        t = as_fraction(e.time)
        if t <= horizon:
            out.add((as_fraction(e.position), t, _names(e.incoming), _names(e.outgoing)))
    return out


def segment_lines(
    diagram, speeds: dict[str, Fraction], horizon: Fraction
) -> dict[tuple[Fraction, Fraction], list[tuple[Fraction, Fraction]]]:
    """Segments grouped by the line they lie on, (speed, x - speed*t), each
    clipped to [birth, min(death, horizon)].  Speeds come from the caller."""
    lines: dict[tuple[Fraction, Fraction], list[tuple[Fraction, Fraction]]] = {}
    for seg in diagram.segments:
        v = speeds[seg.signal.name]
        t0 = as_fraction(seg.birth_time)
        if t0 > horizon:
            continue
        t1 = horizon if seg.death_time is None else min(as_fraction(seg.death_time), horizon)
        intercept = as_fraction(seg.birth_position) - v * t0
        lines.setdefault((v, intercept), []).append((t0, t1))
    return lines


def _union(spans: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    merged: list[list[Fraction]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _covered(lo: Fraction, hi: Fraction, union: list[tuple[Fraction, Fraction]]) -> bool:
    return any(a <= lo and hi <= b for a, b in union)


def included(
    inner, outer, speeds: dict[str, Fraction], horizon: Fraction
) -> tuple[bool, str]:
    """Exact inclusion of inner's support in outer's up to horizon: every
    inner event is an outer event, and every inner segment is covered by the
    union of outer segments on the same line.  Returns (ok, reason)."""
    outer_points = {(x, t) for x, t, _, _ in event_set(outer, horizon)}
    for x, t, _, _ in event_set(inner, horizon):
        if (x, t) not in outer_points:
            return False, f"event ({x}, {t}) is not an event of the outer run"
    outer_lines = {
        line: _union(spans) for line, spans in segment_lines(outer, speeds, horizon).items()
    }
    for line, spans in segment_lines(inner, speeds, horizon).items():
        union = outer_lines.get(line, [])
        for lo, hi in spans:
            if not _covered(lo, hi, union):
                v, c = line
                return False, f"segment x = {c} + {v} t over [{lo}, {hi}] is not covered"
    return True, ""


def period_shift_holds(
    diagram, transient: Fraction, period: Fraction, horizon: Fraction
) -> tuple[bool, str]:
    """Every event in [transient, horizon - period] reappears, same position
    and rule, one period later, and every event in
    [transient + period, horizon] one period earlier."""
    if period <= 0:
        return False, f"non-positive period {period}"
    events = event_set(diagram, horizon)
    for x, t, ins, outs in events:
        if transient <= t <= horizon - period and (x, t + period, ins, outs) not in events:
            return False, f"event ({x}, {t}) has no copy at t + {period}"
        if transient + period <= t and (x, t - period, ins, outs) not in events:
            return False, f"event ({x}, {t}) has no copy at t - {period}"
    return True, ""
