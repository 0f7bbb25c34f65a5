"""Seeded property suites: randomized cross-checks of the scheduler, the
2-speed collision bound, the arithmetic machines, affine covariance,
support-diagram inclusion, and mesh non-accumulation at desk scale.

Each suite is deterministic for a given seed and returns one result per
case; the CLI prints them and exits nonzero on any failure.  The oracles
here (all-pairs collision search, integer arithmetic) are deliberately
independent of the implementations they check.
"""

from __future__ import annotations

import itertools
import os
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .analysis import detect_contraction, two_speed_bound_check
from .engine import (
    EVENT_LIMIT,
    MISSING_RULE,
    QUIESCENT,
    TIME_LIMIT,
    Event,
    RunLimits,
    RunState,
    SpaceTimeDiagram,
    common_horizon,
    next_collision_delta,
    run,
)
from .model import (
    AffineMap,
    InitialConfiguration,
    MetaSignal,
    SignalMachine,
    apply_affine_to_machine,
    normalize_speeds,
    support_configuration,
    support_machine,
)
from .presets import build_sm2_support, geometric_result
from .scalars import FieldContext, Scalar, floor_div_mod, rational_gcd
from .mesh import embed_in_mesh, verify_mesh_inclusion
from .textio import event_line, event_log_lines


@dataclass(frozen=True)
class CaseResult:
    index: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return not self.detail


# -- brute-force scheduler oracle -------------------------------------------------


def brute_force_next_collision(
    machine: SignalMachine, state: RunState
) -> tuple[Optional[Scalar], list[tuple[Scalar, frozenset[MetaSignal]]]]:
    """All-pairs minimization of the meeting delay, then grouping by landing
    position; the oracle against which the adjacent-pair scan is checked."""
    flat = [(p, ms) for p, sigs in state.sites for ms in sigs]
    sp = machine.speed_of
    best: Optional[Scalar] = None
    for (x1, m1), (x2, m2) in itertools.combinations(flat, 2):
        v1, v2 = sp(m1), sp(m2)
        if v1 == v2:
            continue
        d = (x2 - x1) / (v1 - v2)
        if d.sign() > 0 and (best is None or d < best):
            best = d
    if best is None:
        return None, []
    landing: dict[Scalar, list[MetaSignal]] = {}
    for x, ms in flat:
        landing.setdefault(x + sp(ms) * best, []).append(ms)
    groups = [
        (p, frozenset(members)) for p, members in landing.items() if len(members) >= 2
    ]
    groups.sort(key=lambda g: g[0])
    return best, groups


def brute_force_run(
    machine: SignalMachine, config: InitialConfiguration, limits: RunLimits
) -> tuple[list[Event], str]:
    """Whole-run oracle: repeat `brute_force_next_collision`, apply the rule
    at every meeting point, and stop on the limits and halts `run` uses.
    Returns the events and the halt reason."""
    sp = machine.speed_of
    state = RunState(machine.ctx.zero(), config.sites)
    events: list[Event] = []
    while len(events) < limits.max_events:
        delta, groups = brute_force_next_collision(machine, state)
        if delta is None:
            return events, QUIESCENT
        t = state.time + delta
        if limits.max_time is not None and t > limits.max_time:
            return events, TIME_LIMIT
        rules = [machine.rule_for(incoming) for _, incoming in groups]
        if None in rules:
            return events, MISSING_RULE
        landing: dict[Scalar, frozenset[MetaSignal]] = {}
        for x, sigs in state.sites:
            for ms in sigs:
                p = x + sp(ms) * delta
                landing[p] = landing.get(p, frozenset()) | {ms}
        for (p, incoming), outgoing in zip(groups, rules):
            events.append(Event(len(events), t, p, incoming, outgoing))
            landing[p] = outgoing
        state = RunState(t, tuple((p, s) for p, s in sorted(landing.items()) if s))
    return events, EVENT_LIMIT


# -- random generators --------------------------------------------------------------


def _fraction(rng: random.Random, lo: int = -6, hi: int = 6, dens=(1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


# consecutive repeated draws after which a pool counts as unable to supply
# the distinct values asked for
_MAX_REPEATS = 1000


def _distinct_draws(
    rng: random.Random, n: int, draw: Callable[[random.Random], Fraction]
) -> list[Fraction]:
    """n distinct values of draw(rng), in draw order; raises ValueError once
    _MAX_REPEATS draws in a row repeat a value already drawn."""
    got: list[Fraction] = []
    repeats = 0
    while len(got) < n:
        f = draw(rng)
        if f not in got:
            got.append(f)
            repeats = 0
        else:
            repeats += 1
            if repeats == _MAX_REPEATS:
                raise ValueError(f"{n} distinct values wanted, pool gave {len(got)}")
    return got


def random_state(rng: random.Random) -> tuple[SignalMachine, RunState]:
    """A machine with one meta-signal per instance and a sorted random state;
    co-located instances always get distinct speeds."""
    ctx = FieldContext(0)
    n = rng.randint(2, 12)
    speeds = [_fraction(rng, -5, 5) for _ in range(n)]
    machine = SignalMachine.build([(f"g{i}", s) for i, s in enumerate(speeds)], ctx=ctx)
    by_pos: dict[Fraction, set[MetaSignal]] = {}
    for ms in machine.signals:
        for _ in range(50):
            pos = _fraction(rng, -8, 8, dens=(1, 2))
            here = by_pos.setdefault(pos, set())
            if all(machine.speed_of(o) != machine.speed_of(ms) for o in here):
                here.add(ms)
                break
        else:  # no free slot found, place alone far away
            by_pos[Fraction(100 + ms.index)] = {ms}
    sites = tuple(
        (ctx.scalar(p), frozenset(by_pos[p])) for p in sorted(by_pos) if by_pos[p]
    )
    return machine, RunState(ctx.zero(), sites)


def random_machine(
    rng: random.Random,
    n_speeds: int,
    speed_pool: Callable[[random.Random], Fraction] | None = None,
) -> SignalMachine:
    """Random machine with a total rule table over every eligible input set."""
    ctx = FieldContext(0)
    draw = speed_pool or (lambda r: _fraction(r, -4, 4, dens=(1, 2)))
    speeds = _distinct_draws(rng, n_speeds, draw)
    n_signals = n_speeds + rng.randint(0, 2)
    assignment = list(speeds) + [rng.choice(speeds) for _ in range(n_signals - n_speeds)]
    rng.shuffle(assignment)
    names = [(f"m{i}", s) for i, s in enumerate(assignment)]

    classes: dict[Fraction, list[str]] = {}
    for (name, s) in names:
        classes.setdefault(s, []).append(name)
    class_lists = list(classes.values())

    def eligible_sets():
        for picks in itertools.product(*[[None, *members] for members in class_lists]):
            chosen = tuple(p for p in picks if p is not None)
            if len(chosen) >= 2:
                yield chosen

    rules = []
    for ins in eligible_sets():
        outs = tuple(
            rng.choice(members)
            for members in class_lists
            if rng.random() < 0.65
        )
        rules.append((ins, outs))
    return SignalMachine.build(names, rules, ctx=ctx)


def random_configuration(
    rng: random.Random,
    machine: SignalMachine,
    dens=(1, 2, 3),
) -> InitialConfiguration:
    ctx = machine.ctx
    positions = _distinct_draws(
        rng, rng.randint(2, 6), lambda r: _fraction(r, -6, 6, dens=dens)
    )
    placements = []
    for p in positions:
        k = rng.randint(1, 2)
        chosen: list[MetaSignal] = []
        for ms in rng.sample(list(machine.signals), len(machine.signals)):
            if len(chosen) >= k:
                break
            if all(machine.speed_of(c) != machine.speed_of(ms) for c in chosen):
                chosen.append(ms)
        for ms in chosen:
            placements.append((ms, ctx.scalar(p)))
    return InitialConfiguration.build(machine, placements)


# -- suites ---------------------------------------------------------------------------


def _cases(
    seed: int, count: int, case: Callable[[random.Random, int], str]
) -> list[CaseResult]:
    """Run case(rng, i) for i in range(count) on one seeded generator.  A case
    returns "" on a pass and the failure text otherwise; a case that raises
    fails with the exception and its innermost frame, and the next case runs."""
    rng = random.Random(seed)
    results = []
    for i in range(count):
        try:
            detail = case(rng, i)
        except Exception as e:
            where = traceback.extract_tb(e.__traceback__)[-1]
            detail = f"raised {e!r} at {os.path.basename(where.filename)}:{where.lineno}"
        results.append(CaseResult(i, detail))
    return results


def suite_scheduler(seed: int = 0, count: int = 200) -> list[CaseResult]:
    """Adjacent-pair scan vs all-pairs oracle, including simultaneous groups."""

    def case(rng: random.Random, i: int) -> str:
        machine, state = random_state(rng)
        got = next_collision_delta(machine, state)
        want = brute_force_next_collision(machine, state)
        return "" if got == want else f"{got} != {want}"

    return _cases(seed, count, case)


def random_run_case(
    rng: random.Random, index: int
) -> tuple[SignalMachine, InitialConfiguration, RunLimits]:
    """A random total-rule machine on speeds -1, 0, 1 with sites on the
    integers -4..4, so that multi-way and simultaneous collisions are common,
    then moved by a speed map v -> ratio*v + offset, which keeps every
    collision (times scale by 1/ratio): a random rational map for even
    cases, (phi, sqrt 5) into Q(sqrt 5) for odd ones.  Every eighth case
    drops one rule, so that a missing rule halts the run."""
    machine = random_machine(rng, 3, speed_pool=lambda r: Fraction(r.randint(-1, 1)))
    classes: dict[Scalar, list[MetaSignal]] = {}
    for ms in machine.signals:
        classes.setdefault(machine.speed_of(ms), []).append(ms)
    placements = []
    for x in rng.sample(range(-4, 5), rng.randint(3, 6)):
        for members in rng.sample(list(classes.values()), rng.randint(1, 3)):
            placements.append((rng.choice(members), x))
    config = InitialConfiguration.build(machine, placements)
    if index % 8 == 7:
        rules = dict(machine.rules)
        del rules[rng.choice(list(rules))]
        machine = SignalMachine(machine.ctx, machine.signals, machine.speed, rules)
    ctx = FieldContext(5 if index % 2 else 0)
    if index % 2:
        root5 = ctx.sqrt_term(1, 5)
        amap = AffineMap((1 + root5) / 2, root5)
    else:
        amap = AffineMap(
            ctx.scalar(_fraction(rng, 1, 4, dens=(1, 2, 3))),
            ctx.scalar(_fraction(rng, -3, 3, dens=(1, 2))),
        )
    machine = apply_affine_to_machine(machine, amap)
    max_time = ctx.scalar(rng.randint(2, 12)) / amap.ratio
    return machine, config, RunLimits(max_events=rng.randint(5, 40), max_time=max_time)


def suite_run(seed: int = 0, count: int = 200) -> list[CaseResult]:
    """`run()` against the whole-run oracle: identical event logs, line by
    line, and the same halt reason."""

    def case(rng: random.Random, i: int) -> str:
        machine, config, limits = random_run_case(rng, i)
        events, halt = brute_force_run(machine, config, limits)
        want = [event_line(e) for e in events]
        diagram = run(machine, config, limits)
        got = event_log_lines(diagram)
        if got != want:
            at = next((k for k, (g, w) in enumerate(zip(got, want)) if g != w), None)
            if at is None:
                return f"{len(got)} events, oracle {len(want)}"
            return f"line {at}: {got[at]!r} != {want[at]!r}"
        if diagram.halt_reason != halt:
            return f"halt {diagram.halt_reason}, oracle {halt}"
        return ""

    return _cases(seed, count, case)


def suite_2speed(seed: int = 0, count: int = 100) -> list[CaseResult]:
    """Random interleavings never exceed the i*j collision bound and always
    halt; the event count equals the number of (mover left of blocker) pairs."""

    def case(rng: random.Random, _: int) -> str:
        i, j = rng.randint(0, 5), rng.randint(0, 5)
        positions = _distinct_draws(rng, i + j, lambda r: _fraction(r, -9, 9, dens=(1, 2)))
        kinds = ["R"] * i + ["S"] * j
        rng.shuffle(kinds)
        arrangement = list(zip(kinds, positions))
        machine, config = build_sm2_support(i, j, arrangement)
        report = two_speed_bound_check(machine, config)
        crossings = sum(
            1
            for (ka, pa), (kb, pb) in itertools.combinations(arrangement, 2)
            if ((ka, kb) == ("R", "S") and pa < pb)
            or ((ka, kb) == ("S", "R") and pb < pa)
        )
        if report.halted and report.count == crossings and report.count <= report.bound:
            return ""
        return f"count={report.count} crossings={crossings} bound={report.bound}"

    return _cases(seed, count, case)


def suite_2speed_exhaustive() -> list[CaseResult]:
    """Sorted arrangements (every mover left of every blocker) reach the
    bound exactly, for all i, j up to 5."""

    def case(_: random.Random, index: int) -> str:
        i, j = divmod(index, 6)
        machine, config = build_sm2_support(i, j, "sorted")
        report = two_speed_bound_check(machine, config)
        if report.halted and report.count == i * j:
            return ""
        return f"i={i} j={j} count={report.count}"

    return _cases(0, 36, case)


def _random_operands(rng: random.Random) -> tuple[Fraction, Fraction]:
    b = Fraction(rng.randint(1, 12), rng.randint(1, 6))
    q = rng.randint(1, 5)
    r = Fraction(rng.randint(0, 11), rng.choice((1, 2, 3, 4, 6, 12)))
    a = b * q + r
    if a == b:
        a = b * 2
    return a, b


def suite_gcd(seed: int = 0, count: int = 200) -> list[CaseResult]:
    """Geometric subtraction/modulo/gcd against the integer-arithmetic
    oracles; every run must halt."""
    ctx = FieldContext(0)

    def case(rng: random.Random, i: int) -> str:
        kind = ("sub", "mod", "gcd")[i % 3]
        a, b = _random_operands(rng)
        sa, sb = ctx.scalar(a), ctx.scalar(b)
        if kind == "sub":
            want = sa - sb
        elif kind == "mod":
            want = floor_div_mod(sa, sb)[1]
        else:
            want = rational_gcd(sa, sb)
        got = geometric_result(kind, a, b)
        return "" if got == want else f"{kind}({a},{b}) = {got}, want {want}"

    return _cases(seed, count, case)


def _event_keys(diagram: SpaceTimeDiagram, amap: AffineMap) -> list[tuple]:
    """The events of a run of the machine moved by amap, mapped back by
    h(x, t) = (x - offset*t, ratio*t), as sorted comparable keys."""
    return sorted(
        (amap.ratio * e.time, e.position - amap.offset * e.time,
         tuple(sorted(m.name for m in e.incoming)),
         tuple(sorted(m.name for m in e.outgoing)))
        for e in diagram.events
    )


def suite_affine(seed: int = 0, count: int = 50) -> list[CaseResult]:
    """Transformed-machine runs match the original under
    h(x, t) = (x - offset*t, ratio*t) applied to the transformed log."""
    ctx = FieldContext(0)
    ratios = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), 2, 3]
    identity = AffineMap.identity(ctx)

    def case(rng: random.Random, _: int) -> str:
        machine = random_machine(rng, 3)
        config = random_configuration(rng, machine)
        amap = AffineMap(
            ctx.scalar(rng.choice(ratios)), ctx.scalar(_fraction(rng, -3, 3, dens=(1, 2)))
        )
        limits = RunLimits(max_events=120)
        d0 = run(machine, config, limits)
        d1 = run(apply_affine_to_machine(machine, amap), config, limits)
        same = _event_keys(d0, identity) == _event_keys(d1, amap)
        if d0.halt_reason == d1.halt_reason and same:
            return ""
        return (f"halt {d0.halt_reason}/{d1.halt_reason}, "
                f"{len(d0.events)}/{len(d1.events)} events")

    return _cases(seed, count, case)


def suite_support(seed: int = 0, count: int = 50) -> list[CaseResult]:
    """Every event of a run reappears at identical coordinates in the run of
    the support machine on the projected configuration."""

    def case(rng: random.Random, _: int) -> str:
        machine = random_machine(
            rng,
            rng.randint(2, 4),
            speed_pool=lambda r: Fraction(r.randint(-3, 3)),
        )
        config = random_configuration(rng, machine, dens=(1, 2))
        original = run(machine, config, RunLimits(max_events=80))
        supp_m, projection = support_machine(machine)
        supp_c = support_configuration(config, projection)
        supp = run(
            supp_m, supp_c, RunLimits(max_events=350, max_time=original.horizon)
        )
        cap = common_horizon(original, supp)
        index = {(e.position, e.time): e.incoming for e in supp.events}
        for e in original.events:
            if cap is not None and e.time > cap:
                continue
            supp_in = index.get((e.position, e.time))
            if supp_in is None:
                return f"event {e!r} missing from support run"
            if not {projection[m].name for m in e.incoming} <= {
                m.name for m in supp_in
            }:
                return f"incoming mismatch at {e!r}"
        return ""

    return _cases(seed, count, case)


def suite_mesh(
    seed: int = 0,
    count: int = 20,
    horizon: Optional[Scalar] = None,
) -> list[CaseResult]:
    """Random rational 3-speed systems: support run embeds in its mesh and
    no event escapes the walls (both checked up to the horizon), the mesh is
    proved periodic, which rules out accumulation in it, and the support run
    admits no contraction certificate.  A case whose only fault is a
    periodicity left undecided by a horizon short of the mesh's transient +
    3 periods says so."""

    def case(rng: random.Random, _: int) -> str:
        machine, config = _desk_scale_mesh_case(rng)
        report = verify_mesh_inclusion(machine, config, horizon=horizon)
        supp_free = detect_contraction(report.support_diagram) is None
        if report.ok and supp_free:
            return ""
        strip = report.spec.strip
        bound = strip.transient_time + 3 * strip.period_candidate
        others = (report.included, report.events_inside, supp_free)
        if report.periodicity is None and all(others) and horizon is not None and horizon < bound:
            return (
                f"horizon {horizon} is short of this mesh's transient + 3 periods, "
                f"{bound}: periodicity undecided"
            )
        return (
            f"included={report.included} inside={report.events_inside} "
            f"periodic={report.periodicity is not None} supp_free={supp_free}"
        )

    return _cases(seed, count, case)


def _desk_scale_mesh_case(rng: random.Random) -> tuple[SignalMachine, InitialConfiguration]:
    """Resample until the embedding mesh has at most 60 cells (strip
    subdivisions), small enough to run quickly."""
    while True:
        machine = random_machine(
            rng, 3, speed_pool=lambda r: Fraction(r.randint(-4, 4), r.choice((1, 2)))
        )
        config = random_configuration(rng, machine, dens=(1, 2))
        nu = normalize_speeds(machine)[0].distinct_speeds()[-1]
        spec = embed_in_mesh(config, nu.p, nu.n)
        if spec.k * spec.strip.subdivisions <= 60:
            return machine, config


SUITES: dict[str, Callable[..., list[CaseResult]]] = {
    "scheduler": suite_scheduler,
    "run": suite_run,
    "2speed": suite_2speed,
    "2speed-exhaustive": suite_2speed_exhaustive,
    "gcd": suite_gcd,
    "affine": suite_affine,
    "support": suite_support,
    "mesh": suite_mesh,
}
