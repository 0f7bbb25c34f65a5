"""Deterministic SVG rendering of space-time diagrams.

Space runs horizontally, time upward.  Exact scalars are converted to floats
only here, at the drawing boundary; identical inputs yield byte-identical
documents.
"""

from __future__ import annotations

from typing import Optional

from .engine import SpaceTimeDiagram
from .scalars import Scalar

WIDTH, HEIGHT = 800, 600  # pixels
_PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
    "#bcbd22",
    "#7f7f7f",
]


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def render_diagram(
    diagram: SpaceTimeDiagram, accumulation: Optional[tuple[Scalar, Scalar]] = None
) -> str:
    """One polyline per signal segment, a dot per collision, labeled axes
    with three decimals, time upward.  A certified accumulation point, if
    given, is drawn as a marked cross even though no event exists there."""
    xs: list[float] = []
    ts: list[float] = []
    end_time = diagram.final_state.time
    if diagram.events:
        last = diagram.events[-1].time
        if end_time <= last:
            end_time = last + (last - 0) / 10 if last.sign() > 0 else last + 1
    elif end_time.sign() == 0:
        end_time = end_time + 1
    t_end = float(end_time)

    segs = []
    for seg in diagram.segments:
        t0 = float(seg.birth_time)
        t1 = float(seg.death_time) if seg.death_time is not None else t_end
        if t1 < t0:
            continue
        x0 = float(seg.birth_position)
        x1 = float(seg.position_at(end_time if seg.death_time is None else seg.death_time))
        segs.append((seg.signal.name, x0, t0, x1, t1))
        xs += [x0, x1]
        ts += [t0, t1]
    events = [(float(e.position), float(e.time)) for e in diagram.events]
    for x, t in events:
        xs.append(x)
        ts.append(t)
    if accumulation is not None:
        xs.append(float(accumulation[0]))
        ts.append(float(accumulation[1]))
    if not xs:
        xs, ts = [0.0, 1.0], [0.0, 1.0]

    x_lo, x_hi = min(xs), max(xs)
    t_lo, t_hi = min(0.0, min(ts)), max(ts)
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if t_hi - t_lo < 1e-9:
        t_hi = t_lo + 1.0
    mx = 0.05 * (x_hi - x_lo)
    mt = 0.05 * (t_hi - t_lo)
    x_lo, x_hi = x_lo - mx, x_hi + mx
    t_lo, t_hi = t_lo - mt, t_hi + mt

    w, h = WIDTH, HEIGHT

    def px(x: float) -> float:
        return (x - x_lo) / (x_hi - x_lo) * w

    def py(t: float) -> float:
        return h - (t - t_lo) / (t_hi - t_lo) * h

    colors = {ms.name: _PALETTE[i % len(_PALETTE)] for i, ms in enumerate(diagram.machine.signals)}

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    out.append(
        f'<text x="{w - 4}" y="{h - 4}" text-anchor="end" font-size="10" '
        f'fill="#333">space {x_lo:.3f} .. {x_hi:.3f}</text>'
    )
    out.append(
        f'<text x="4" y="12" font-size="10" fill="#333">'
        f"time {t_lo:.3f} .. {t_hi:.3f}</text>"
    )
    for name, x0, t0, x1, t1 in segs:
        out.append(
            f'<polyline fill="none" stroke="{colors[name]}" stroke-width="1.2" '
            f'points="{_fmt(px(x0))},{_fmt(py(t0))} {_fmt(px(x1))},{_fmt(py(t1))}">'
            f"<title>{name}</title></polyline>"
        )
    for x, t in events:
        out.append(
            f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(t))}" r="2" fill="black"/>'
        )
    if accumulation is not None:
        ax, at = float(accumulation[0]), float(accumulation[1])
        out.append(
            f'<g stroke="red" stroke-width="1.5">'
            f'<line x1="{_fmt(px(ax) - 5)}" y1="{_fmt(py(at) - 5)}" '
            f'x2="{_fmt(px(ax) + 5)}" y2="{_fmt(py(at) + 5)}"/>'
            f'<line x1="{_fmt(px(ax) - 5)}" y1="{_fmt(py(at) + 5)}" '
            f'x2="{_fmt(px(ax) + 5)}" y2="{_fmt(py(at) - 5)}"/></g>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
