"""Strips and meshes: the regular 3-speed diagrams that bound every
rational-like 3-speed run.

A strip is the diagram of the 3-signal support machine with speeds -1, 0 and
p/q started from two walls a width apart, with stationary signals on all
p+q equal subdivisions.  A mesh glues k strips side by side.  Any finite
configuration whose gaps are pairwise commensurate embeds into a mesh via
the gcd of its gaps, and meshes are eventually periodic, which is the whole
desk-scale argument that such runs cannot accumulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .analysis import (
    PeriodicityCertificate,
    detect_contraction,  # noqa: F401  (kept importable here: bench/tracing.py patches it)
    detect_periodicity,
    diagram_included,
)
from .engine import EVENT_LIMIT, RunLimits, SpaceTimeDiagram, run
from .model import (
    InitialConfiguration,
    MachineError,
    SignalMachine,
    normalize_speeds,
    support_configuration,
    support_machine,
)
from .scalars import (
    FieldContext,
    IncommensurateError,
    Scalar,
    as_scalar,
    rational_gcd,
)

LEFT, STILL, RIGHT = "L", "S", "R"
EVENT_BUDGET = 100_000  # events each run of `verify_mesh_inclusion` may take


def _whole(name: str, x) -> int:
    """x as an int, for an int or an integral Fraction; anything else, a
    float above all, is refused rather than truncated."""
    if isinstance(x, (int, Fraction)) and x.denominator == 1:
        return int(x)
    raise ValueError(f"{name} must be an integer, not {x!r}")


@dataclass(frozen=True)
class StripSpec:
    """Strip of width w starting at x0 for the support machine of speed p/q;
    p and q, ints or integral Fractions, are reduced to lowest terms on
    construction."""

    p: int
    q: int
    x0: Scalar
    w: Scalar

    def __post_init__(self) -> None:
        p, q = _whole("p", self.p), _whole("q", self.q)
        if p <= 0 or q <= 0:
            raise ValueError("p and q must be positive")
        g = math.gcd(p, q)
        object.__setattr__(self, "p", p // g)
        object.__setattr__(self, "q", q // g)
        if self.w.sign() <= 0:
            raise ValueError("strip width must be positive")

    @property
    def subdivisions(self) -> int:
        return self.p + self.q

    @property
    def transient_time(self) -> Scalar:
        return self.w * Fraction(self.q, self.p + self.q)

    @property
    def period_candidate(self) -> Scalar:
        """w/p, the back-and-forth time over one subdivision."""
        return self.w / self.p

    @property
    def horizon(self) -> Scalar:
        """Transient + 3 periods: the least horizon H at which the gate of
        `detect_periodicity`, 3P <= H - T, admits this strip's own transient
        T and period P."""
        return self.transient_time + 3 * self.period_candidate

    @classmethod
    def make(cls, p: int, q: int, x0, w, ctx: FieldContext | None = None) -> "StripSpec":
        ctx = ctx or FieldContext(0)
        return cls(p, q, as_scalar(x0, ctx), as_scalar(w, ctx))


@dataclass(frozen=True)
class MeshSpec:
    strip: StripSpec
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("a mesh needs at least one strip copy")

    @property
    def span(self) -> tuple[Scalar, Scalar]:
        s = self.strip
        return s.x0, s.x0 + s.w * self.k


def support_machine_nu(p: int, q: int, ctx: FieldContext | None = None) -> SignalMachine:
    """The 3-signal support machine with speeds -1, 0 and p/q: every eligible
    collision re-emits all three signals."""
    ctx = ctx or FieldContext(0)
    nu = Fraction(_whole("p", p), _whole("q", q))
    return support_machine(
        SignalMachine.build([(LEFT, -1), (STILL, 0), (RIGHT, nu)], ctx=ctx)
    )[0]


def strip_configuration(
    spec: StripSpec, machine: SignalMachine
) -> InitialConfiguration:
    """Stationary signals at x0 + i*w/(p+q) for 0 <= i <= p+q, with the
    left- and right-moving signals co-located at both walls: the one-strip
    mesh."""
    return mesh_configuration(MeshSpec(spec, 1), machine)


def mesh_configuration(spec: MeshSpec, machine: SignalMachine) -> InitialConfiguration:
    """k juxtaposed strips sharing junction walls: [L,S,R] at every multiple
    of w, plain S at the interior subdivision points."""
    s = spec.strip
    n = s.subdivisions
    placements: list[tuple[str, Scalar]] = []
    for l in range(spec.k + 1):
        wall = s.x0 + s.w * l
        placements += [(LEFT, wall), (STILL, wall), (RIGHT, wall)]
    for j in range(spec.k):
        for i in range(1, n):
            placements.append((STILL, s.x0 + s.w * (Fraction(i, n) + j)))
    return InitialConfiguration.build(machine, placements)


def embed_in_mesh(config: InitialConfiguration, p: int, q: int) -> MeshSpec:
    """Mesh whose initial configuration contains every site of `config`:
    width = gcd of consecutive gaps, k = span/width.  Raises
    IncommensurateError when the gaps have no common divisor."""
    positions = config.positions()
    if len(positions) < 2:
        raise MachineError("embedding needs at least two sites")
    gaps = [b - a for a, b in zip(positions, positions[1:])]
    w = gaps[0]
    for g in gaps[1:]:
        w = rational_gcd(w, g)
    span = positions[-1] - positions[0]
    ratio = span / w
    if ratio.q or ratio.n != 1:
        raise AssertionError("gcd of gaps does not divide the span")
    return MeshSpec(StripSpec(p, q, positions[0], w), ratio.p)


@dataclass
class MeshReport:
    """Outcome of the mesh assertions for one machine/configuration.
    `periodicity` is proved for all time: the mesh span is closed from t = 0,
    so the mesh repeats forever and has finitely many collisions in any
    bounded region.  `included` (the support run lies on the mesh run) and
    `events_inside` (no mesh event leaves the walls) are checked up to the
    horizon.  Contraction of the support run is the caller's check."""

    spec: MeshSpec
    support_diagram: SpaceTimeDiagram
    mesh_diagram: SpaceTimeDiagram
    included: bool
    events_inside: bool
    periodicity: Optional[PeriodicityCertificate]

    @property
    def ok(self) -> bool:
        return self.included and self.events_inside and self.periodicity is not None


def verify_mesh_inclusion(
    machine: SignalMachine,
    config: InitialConfiguration,
    horizon: Optional[Scalar] = None,
) -> MeshReport:
    """Normalize a 3-speed rational-like machine, project its configuration
    onto the 3-signal support machine, embed that into a mesh, run both, and
    check that the support run is included in the mesh run and no mesh event
    leaves the walls, and certify the mesh periodic (see `MeshReport`).
    Each run may take `EVENT_BUDGET` events; a run that stops there before
    the horizon raises ValueError."""
    normalized, _ = normalize_speeds(machine)
    speeds = normalized.distinct_speeds()
    if len(speeds) != 3:
        raise MachineError("mesh verification needs a 3-speed machine")
    nu = speeds[-1]
    if nu.q:
        raise IncommensurateError("speed ratios are irrational: no mesh exists")
    p, q = nu.p, nu.n

    smnu = support_machine_nu(p, q, machine.ctx)
    by_speed = {smnu.speed_of(ms): ms for ms in smnu.signals}
    # project by speed class straight onto the shared L/S/R machine so the
    # support and mesh runs use identical meta-signal objects
    proj = {ms: by_speed[normalized.speed_of(ms)] for ms in normalized.signals}
    supp_config = support_configuration(config, proj)

    spec = embed_in_mesh(supp_config, p, q)
    if horizon is None:
        horizon = spec.strip.horizon

    limits = RunLimits(max_events=EVENT_BUDGET, max_time=horizon)
    supp_run = _within_budget("support", run(smnu, supp_config, limits), horizon)
    mesh_run = _within_budget("mesh", run(smnu, mesh_configuration(spec, smnu), limits), horizon)

    lo, hi = spec.span
    return MeshReport(
        spec=spec,
        support_diagram=supp_run,
        mesh_diagram=mesh_run,
        included=diagram_included(supp_run, mesh_run),
        events_inside=all(lo <= e.position <= hi for e in mesh_run.events),
        periodicity=detect_periodicity(mesh_run, spec.span, horizon),
    )


def _within_budget(name: str, diagram: SpaceTimeDiagram, horizon: Scalar) -> SpaceTimeDiagram:
    """The diagram, unless its run spent the event budget short of the horizon."""
    if diagram.halt_reason == EVENT_LIMIT and not diagram.covers(horizon):
        raise ValueError(
            f"the {name} run stopped at its budget of {diagram.limits.max_events} events "
            f"at t={diagram.horizon}, before the horizon {horizon}"
        )
    return diagram
