"""Builders for the reference machines: the 4-speed accumulator, the 2-speed
support machine, and the wall-encoded arithmetic machines (subtraction,
modulo, gcd, and the golden-ratio gcd variant), plus result readout.

Values are encoded as distances between stationary walls.  The rule tables
are transcribed as-is; the only addition is the transparent crossing
{init, wall0} -> {init, wall0}, without which the launcher signal could never
reach the operand walls from its start at -1 (the rule table is otherwise
partial and the simulator treats unmatched collisions as hard errors).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .engine import EVENT_LIMIT, QUIESCENT, RunState, SpaceTimeDiagram, run
from .model import InitialConfiguration, MachineError, SignalMachine
from .scalars import FieldContext, Scalar, ScalarLike, as_scalar


def build_sm4() -> tuple[SignalMachine, InitialConfiguration]:
    """Two slow guards drifting apart with a fast shuttle bouncing between
    them: the minimal accumulating system, with four distinct speeds."""
    machine = SignalMachine.build(
        [
            ("zig", 4),
            ("left", Fraction(1, 2)),
            ("right", Fraction(-1, 2)),
            ("zag", -4),
        ],
        [
            (("left", "zag"), ("left", "zig")),
            (("zig", "right"), ("zag", "right")),
        ],
    )
    config = InitialConfiguration.build(
        machine, [("left", -1), ("zig", -1), ("right", 1)]
    )
    return machine, config


def build_sm2_support(
    i: int,
    j: int,
    arrangement: str | Iterable[tuple[str, ScalarLike]] = "sorted",
) -> tuple[SignalMachine, InitialConfiguration]:
    """The 2-speed support machine (R at speed 1 crosses S at speed 0) with
    i moving and j stationary instances.

    `arrangement` is "sorted" (every R strictly left of every S, which
    maximizes collisions), "reversed" (no collisions at all), or an explicit
    iterable of ("R" | "S", position) pairs.
    """
    if i < 0 or j < 0:
        raise ValueError("signal counts must be non-negative")
    machine = SignalMachine.build(
        [("R", 1), ("S", 0)],
        [(("R", "S"), ("R", "S"))],
    )
    if arrangement == "sorted":
        placements = [("R", -k - 1) for k in range(i)] + [("S", k + 1) for k in range(j)]
    elif arrangement == "reversed":
        placements = [("S", -k - 1) for k in range(j)] + [("R", k + 1) for k in range(i)]
    else:
        placements = list(arrangement)
        if sum(1 for kind, _ in placements if kind == "R") != i:
            raise ValueError("arrangement does not place i moving signals")
        if sum(1 for kind, _ in placements if kind == "S") != j:
            raise ValueError("arrangement does not place j stationary signals")
    config = InitialConfiguration.build(machine, placements)
    return machine, config


_WALL_ARITH_SPEEDS = [
    ("init", 1),
    ("zig", 1),
    ("ZIG", 1),
    ("wall0", 0),
    ("wall_a", 0),
    ("wall_b", 0),
    ("wall_r", 0),
    ("zag", -1),
    ("ZAG", -1),
]

_CROSSING = (("init", "wall0"), ("init", "wall0"))

_SUBTRACTION_RULES = [
    (("init", "wall_b"), ("zag", "wall_b", "ZIG")),
    (("wall0", "zag"), ("wall0", "zig")),
    (("zig", "wall_b"), ("ZIG",)),
    (("ZIG", "wall_a"), ("ZAG",)),
    (("wall_b", "ZAG"), ("ZAG", "wall_b")),
    (("ZIG", "ZAG"), ("wall_r",)),
    (("zig", "ZAG"), ("wall_r",)),
    (("zig", "wall_b", "ZAG"), ("wall_r",)),
    _CROSSING,
]

_MODULO_RULES = [
    (("init", "wall_b"), ("zag", "wall_b", "ZIG")),
    (("wall0", "zag"), ("wall0", "zig")),
    (("zig", "wall_b"), ("zag", "wall_b", "ZIG")),
    (("ZIG", "wall_a"), ("ZAG",)),
    (("wall_b", "ZAG"), ("ZAG",)),
    (("zig", "wall_b", "ZAG"), ("ZAG",)),
    (("ZIG", "ZAG"), ("ZAG",)),
    (("zig", "ZAG"), ("wall_r",)),
    (("wall0", "ZAG"), ("wall0",)),
    _CROSSING,
]

_GCD_SPEEDS = [
    ("zig", 1),
    ("ZIG", 1),
    ("wall0", 0),
    ("wall_a", 0),
    ("wall_b", 0),
    ("zag", -1),
    ("ZAG", -1),
]

_GCD_RULES = [
    (("zig", "wall_b"), ("zag", "wall_b", "ZIG")),
    (("wall0", "zag"), ("wall0", "zig")),
    (("wall_a", "ZIG"), ("ZAG",)),
    (("wall_b", "ZAG"), ("ZAG", "wall_a")),
    (("zig", "ZAG"), ("zag", "wall_b")),
    (("ZIG", "ZAG"), ("ZAG",)),
    (("zig", "wall_b", "ZAG"), ("ZAG", "wall0")),
    (("wall0", "ZAG"), ("wall0",)),
]


# kind -> (noun for errors, speeds, rules, sites left of the operand walls)
_EUCLID = {
    "sub": ("subtraction", _WALL_ARITH_SPEEDS, _SUBTRACTION_RULES, [("init", -1), ("wall0", 0)]),
    "mod": ("modulo", _WALL_ARITH_SPEEDS, _MODULO_RULES, [("init", -1), ("wall0", 0)]),
    "gcd": ("gcd machine", _GCD_SPEEDS, _GCD_RULES, [("wall0", 0), ("zig", 0)]),
}


def _build_euclid(
    kind: str, a: ScalarLike, b: ScalarLike, ctx: FieldContext | None
) -> tuple[SignalMachine, InitialConfiguration]:
    noun, speeds, rules, left = _EUCLID[kind]
    ctx = ctx or FieldContext(0)
    a, b = as_scalar(a, ctx), as_scalar(b, ctx)
    if not (a > b and b.sign() > 0):
        raise ValueError(f"{noun} needs a > b > 0")
    machine = SignalMachine.build(speeds, rules, ctx=ctx)
    config = InitialConfiguration.build(machine, left + [("wall_b", b), ("wall_a", a)])
    return machine, config


def build_subtraction(
    a: ScalarLike, b: ScalarLike, ctx: FieldContext | None = None
) -> tuple[SignalMachine, InitialConfiguration]:
    """Single subtraction a - b via a parallelogram shift; needs a > b > 0."""
    return _build_euclid("sub", a, b, ctx)


def build_modulo(
    a: ScalarLike, b: ScalarLike, ctx: FieldContext | None = None
) -> tuple[SignalMachine, InitialConfiguration]:
    """Repeated subtraction until the running value drops below b.  The wall
    layout forces a > b > 0 (the walls coincide at a = b)."""
    return _build_euclid("mod", a, b, ctx)


def build_gcd(
    a: ScalarLike, b: ScalarLike, ctx: FieldContext | None = None
) -> tuple[SignalMachine, InitialConfiguration]:
    """Iterated geometric remainder; halts with two wall0 signals spaced by
    gcd(a, b) exactly when a and b are commensurate."""
    return _build_euclid("gcd", a, b, ctx)


PHI_CONTEXT = FieldContext(5)


def phi(ctx: FieldContext = PHI_CONTEXT) -> Scalar:
    """The golden ratio (1 + sqrt 5)/2 as an exact scalar."""
    return ctx.scalar(Fraction(1, 2), Fraction(1, 2))


def build_gcd_phi() -> tuple[SignalMachine, InitialConfiguration]:
    """The gcd machine with its positive speed set to the golden ratio and a
    rational start: a launcher signal plants the first inner wall at the
    irrational position phi - 1, after which the remainder recursion never
    terminates and the collisions accumulate on the left wall."""
    ctx = PHI_CONTEXT
    speeds = [
        ("zig", phi(ctx)),
        ("ZIG", phi(ctx)),
        ("start", phi(ctx)),
        ("wall0", 0),
        ("wall_a", 0),
        ("wall_b", 0),
        ("zag", -1),
        ("ZAG", -1),
    ]
    rules = [(("start", "zag"), ("zag", "wall_b"))] + _GCD_RULES
    machine = SignalMachine.build(speeds, rules, ctx=ctx)
    config = InitialConfiguration.build(
        machine, [("wall0", 0), ("start", 0), ("zag", 1), ("wall_a", 1)]
    )
    return machine, config


# -- readout ---------------------------------------------------------------------


@dataclass(frozen=True)
class EncodedValue:
    origin_wall: Scalar
    value_wall: Scalar

    @property
    def value(self) -> Scalar:
        return self.value_wall - self.origin_wall


class ReadoutError(ValueError):
    pass


def read_encoded_value(
    state: RunState,
    machine: SignalMachine,
    origin: str = "wall0",
    value: Optional[str] = None,
) -> EncodedValue:
    """Distance between the designated stationary walls of a final state.

    With value=None both walls carry the origin name (the gcd convention of
    two wall0 survivors).  Raises ReadoutError when the walls are missing,
    duplicated, or collapse to a single zero-width site.
    """
    stationary: list[tuple[Scalar, str]] = []
    for pos, sigs in state.sites:
        for ms in sigs:
            if machine.speed_of(ms).sign() == 0:
                stationary.append((pos, ms.name))
    leftovers = sorted(f"{n}@{p}" for p, n in stationary)
    if value is None:
        hits = sorted(p for p, n in stationary if n == origin)
        if len(hits) == 1:
            raise ReadoutError(
                f"zero-width result: single {origin}, state has {leftovers}"
            )
        if len(hits) != 2:
            raise ReadoutError(f"ambiguous final state: {leftovers}")
        return EncodedValue(hits[0], hits[1])
    origins = [p for p, n in stationary if n == origin]
    values = [p for p, n in stationary if n == value]
    if len(origins) != 1 or len(values) != 1:
        raise ReadoutError(f"ambiguous final state: {leftovers}")
    return EncodedValue(origins[0], values[0])


def read_arithmetic_result(kind: str, state: RunState, machine: SignalMachine) -> Scalar:
    """The value a halted sub/mod/gcd run leaves between its final walls.
    Raises ReadoutError when the walls do not encode one."""
    if kind == "gcd":
        return read_encoded_value(state, machine).value
    try:
        return read_encoded_value(state, machine, origin="wall0", value="wall_r").value
    except ReadoutError:
        if kind == "mod":  # exact multiple: the sweep erased every wall but wall0
            return machine.ctx.zero()
        raise


def geometric_result(kind: str, a: ScalarLike, b: ScalarLike) -> Scalar:
    """Build, run, and read one arithmetic machine: kind is "sub", "mod" or
    "gcd".  Errors loudly when the run does not reach quiescence: on the
    default event budget, which large quotients use up, the message names
    the budget; any other halt would mean a transcription bug."""
    if kind not in _EUCLID:
        raise ValueError(f"unknown arithmetic machine {kind!r}")
    machine, config = _build_euclid(kind, a, b, None)
    diagram = run(machine, config)
    if diagram.halt_reason == EVENT_LIMIT:
        raise RuntimeError(
            f"{kind} run did not halt (reason: {EVENT_LIMIT}): it stopped at its "
            f"budget of {diagram.limits.max_events} events before quiescence"
        )
    if diagram.halt_reason != QUIESCENT:
        raise RuntimeError(
            f"{kind} run did not halt (reason: {diagram.halt_reason}); "
            "commensurate inputs must reach quiescence"
        )
    return read_arithmetic_result(kind, diagram.final_state, machine)


# -- wall traces -------------------------------------------------------------------


@dataclass(frozen=True)
class WallStep:
    time: Scalar
    a: Scalar
    b: Scalar


def wall_trace(diagram: SpaceTimeDiagram) -> list[WallStep]:
    """Successive (wall_a, wall_b) distances from wall0 at every recursion
    restart of a gcd run: the states shaped {wall0,zig}@x, {wall_b}, {wall_a}
    with nothing else in flight."""
    machine = diagram.machine
    try:
        wall0 = machine.by_name("wall0")
        wall_a = machine.by_name("wall_a")
        wall_b = machine.by_name("wall_b")
        zig = machine.by_name("zig")
    except MachineError:
        raise ValueError("wall traces need the gcd machine's wall/zig signals")
    restart = (frozenset({wall0, zig}), frozenset({wall_b}), frozenset({wall_a}))
    snaps = diagram.snapshots
    steps: list[WallStep] = []
    for i in range(len(snaps)):
        if snaps.shape(i) == restart:  # build only the states that match
            snap = snaps[i]
            (p0, _), (p1, _), (p2, _) = snap.sites
            steps.append(WallStep(snap.time, p2 - p0, p1 - p0))
    return steps
