"""Signal machines: meta-signals, speeds, collision rules, configurations.

A machine is a finite set of meta-signals, a speed per meta-signal, and a
partial table of collision rules keyed by frozensets of meta-signals.  The
machine-level transformations live here too: validation, classification,
affine speed maps, support machines and speed normalization.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Container, Iterable, Mapping, NamedTuple, Sequence

from .scalars import FieldContext, Scalar, ScalarLike, as_scalar, is_commensurate

RuleKey = frozenset["MetaSignal"]


class MetaSignal(NamedTuple):
    """A signal type; every instance travels at the machine's speed for it."""

    name: str
    index: int

    def __repr__(self) -> str:
        return self.name


class MachineError(ValueError):
    """A broken definition condition: its `reason` and, from a builder, the
    `entry` at fault, ("signal" | "rule" | "init", index in input order)."""

    def __init__(self, reason: str, entry: tuple[str, int] | None = None) -> None:
        super().__init__(reason)
        self.reason, self.entry = reason, entry


# The definition conditions, each stated once: the builders check their
# entries in input order, and `validate` checks machines built some other way.
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*")


def _signal_fault(name: str, declared: Container[str]) -> str | None:
    if not NAME.fullmatch(name):
        return f"bad meta-signal name {name!r}"
    return f"duplicate meta-signal {name!r}" if name in declared else None


def _unknown(name: object) -> str:
    return f"unknown meta-signal {str(name)!r}"


def _rule_fault(speed: Mapping, ins: Sequence, outs: Sequence) -> str | None:
    """The first condition a rule breaks, in the order arity, declared
    signals, distinct input speeds, distinct output speeds; `speed` keys the
    declared signals (names or meta-signals), and a signal written twice
    counts twice."""
    if len(ins) < 2:
        return "rule needs at least two incoming signals"
    for sig in (*ins, *outs):
        if sig not in speed:
            return _unknown(sig)
    for side, group in (("input", ins), ("output", outs)):
        if len({speed[sig] for sig in group}) < len(group):
            return f"{side} speeds not distinct in {','.join(map(str, group))}"
    return None


@dataclass(frozen=True, eq=False)
class SignalMachine:
    """Immutable triple (meta-signals, speed map, collision rules); compares
    and hashes by identity."""

    ctx: FieldContext
    signals: Sequence[MetaSignal]
    speed: Mapping[MetaSignal, Scalar]
    rules: Mapping[RuleKey, frozenset[MetaSignal]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "signals", tuple(self.signals))
        object.__setattr__(self, "speed", dict(self.speed))
        object.__setattr__(self, "rules", dict(self.rules))
        object.__setattr__(self, "_by_name", {s.name: s for s in self.signals})

    @classmethod
    def build(
        cls,
        speeds: Sequence[tuple[str, ScalarLike | str]],
        rules: Iterable[tuple[Sequence[str], Sequence[str]]] = (),
        ctx: FieldContext | None = None,
    ) -> "SignalMachine":
        """Assemble a machine from (name, speed) pairs and name-based rules.
        Signals, then rules, are checked in input order; the first that
        breaks a condition raises MachineError with its entry."""
        ctx = ctx or FieldContext(0)
        by_name: dict[str, MetaSignal] = {}
        speed_of: dict[str, Scalar] = {}
        for i, (name, sp) in enumerate(speeds):
            fault = _signal_fault(name, by_name)
            if fault:
                raise MachineError(fault, ("signal", i))
            by_name[name] = MetaSignal(name, i)
            speed_of[name] = ctx.parse(sp) if isinstance(sp, str) else as_scalar(sp, ctx)
        rule_map: dict[RuleKey, frozenset[MetaSignal]] = {}
        for i, (ins, outs) in enumerate(rules):
            fault = _rule_fault(speed_of, ins, outs)
            if fault:
                raise MachineError(fault, ("rule", i))
            key = frozenset(by_name[n] for n in ins)
            if key in rule_map:
                raise MachineError(f"duplicate rule for {sorted(set(ins))}", ("rule", i))
            rule_map[key] = frozenset(by_name[n] for n in outs)
        speed_map = {by_name[n]: sp for n, sp in speed_of.items()}
        return cls(ctx, by_name.values(), speed_map, rule_map)

    def by_name(self, name: str) -> MetaSignal:
        try:
            return self._by_name[name]
        except KeyError:
            raise MachineError(_unknown(name)) from None

    def speed_of(self, ms: MetaSignal) -> Scalar:
        return self.speed[ms]

    def distinct_speeds(self) -> tuple[Scalar, ...]:
        return tuple(sorted(set(self.speed.values())))

    def rule_for(self, incoming: RuleKey) -> frozenset[MetaSignal] | None:
        return self.rules.get(incoming)

    def __repr__(self) -> str:
        return (
            f"SignalMachine({len(self.signals)} signals, "
            f"{len(self.distinct_speeds())} speeds, {len(self.rules)} rules)"
        )


Site = tuple[Scalar, frozenset[MetaSignal]]


@dataclass(frozen=True)
class InitialConfiguration:
    """Finite sorted set of sites; co-located signals must have distinct speeds."""

    sites: Sequence[Site]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(self.sites))

    @classmethod
    def build(
        cls,
        machine: SignalMachine,
        placements: Iterable[tuple[str | MetaSignal, ScalarLike | str]],
    ) -> "InitialConfiguration":
        """Checks placements in input order: each names a declared signal
        whose speed is not yet at its position."""
        by_pos: dict[Scalar, dict[MetaSignal, Scalar]] = {}
        for i, (sig, pos) in enumerate(placements):
            ms = machine._by_name.get(sig) if isinstance(sig, str) else sig
            if ms is None:
                raise MachineError(_unknown(sig), ("init", i))
            p = machine.ctx.parse(pos) if isinstance(pos, str) else as_scalar(pos, machine.ctx)
            here = by_pos.setdefault(p, {})
            if machine.speed_of(ms) in here.values():
                names = sorted(m.name for m in [*here, ms])
                raise MachineError(
                    f"co-located signals with equal speed at {p}: {names}", ("init", i)
                )
            here[ms] = machine.speed_of(ms)
        return cls([(p, frozenset(by_pos[p])) for p in sorted(by_pos)])

    def positions(self) -> tuple[Scalar, ...]:
        return tuple(p for p, _ in self.sites)

    def __len__(self) -> int:
        return len(self.sites)

    def __repr__(self) -> str:
        parts = ",".join(
            f"[{'+'.join(sorted(m.name for m in sigs))}]@{p}" for p, sigs in self.sites
        )
        return f"InitialConfiguration({parts})"


# -- validation and classification ------------------------------------------


def validate(machine: SignalMachine) -> list[str]:
    """The definition conditions a machine built some other way than
    `build` breaks: one reason per bad signal, then one per bad rule, led
    by the rule as the text format writes it (signals in name order)."""
    problems: list[str] = []
    declared: set[str] = set()
    for ms in machine.signals:
        fault = _signal_fault(ms.name, declared)
        if fault:
            problems.append(fault)
        declared.add(ms.name)
    for key, value in machine.rules.items():
        ins, outs = (sorted(group, key=lambda m: m.name) for group in (key, value))
        fault = _rule_fault(machine.speed, ins, outs)
        if fault:
            rule = f"{','.join(m.name for m in ins)} -> {','.join(m.name for m in outs)}"
            problems.append(f"rule {rule}: {fault}")
    return problems


@dataclass(frozen=True)
class Classification:
    speed_count: int
    rational: bool
    rational_like_machine: bool
    rational_like_config: bool


def classify(machine: SignalMachine, config: InitialConfiguration) -> Classification:
    speeds = machine.distinct_speeds()
    positions = config.positions()
    rational = not any(s.q for s in speeds) and not any(p.q for p in positions)
    return Classification(
        speed_count=len(speeds),
        rational=rational,
        rational_like_machine=_steps_commensurate(speeds),
        rational_like_config=_steps_commensurate(positions),
    )


def _steps_commensurate(values: Sequence[Scalar]) -> bool:
    """Every difference of two of the distinct sorted values is a rational
    multiple of every other.  Each such difference is a sum of consecutive
    steps and commensurability is transitive, so comparing each step with
    the first suffices; differences make the test affine-invariant."""
    steps = [y - x for x, y in zip(values, values[1:])]
    return all(is_commensurate(s, steps[0]) for s in steps[1:])


# -- affine transformations ---------------------------------------------------


@dataclass(frozen=True)
class AffineMap:
    """x -> ratio*x + offset with strictly positive ratio."""

    ratio: Scalar
    offset: Scalar

    def __post_init__(self) -> None:
        if self.ratio.sign() <= 0:
            raise MachineError("affine ratio must be strictly positive")

    def __call__(self, x: Scalar) -> Scalar:
        return self.ratio * x + self.offset

    @classmethod
    def identity(cls, ctx: FieldContext) -> "AffineMap":
        return cls(ctx.one(), ctx.zero())

    @classmethod
    def through(cls, a: Scalar, b: Scalar, fa: Scalar, fb: Scalar) -> "AffineMap":
        """The unique affine map sending a -> fa and b -> fb (a < b, fa < fb)."""
        ratio = (fb - fa) / (b - a)
        return cls(ratio, fa - ratio * a)


def apply_affine_to_machine(machine: SignalMachine, amap: AffineMap) -> SignalMachine:
    """New machine with every speed replaced by ratio*speed + offset, in the
    field of its irrational speeds if it has any; signals and rules are
    shared unchanged."""
    new_speed = {ms: amap(sp) for ms, sp in machine.speed.items()}
    ctx = next((FieldContext(sp.d) for sp in new_speed.values() if sp.q), machine.ctx)
    return SignalMachine(ctx, machine.signals, new_speed, machine.rules)


# -- support machines ---------------------------------------------------------


def support_machine(
    machine: SignalMachine,
) -> tuple[SignalMachine, dict[MetaSignal, MetaSignal]]:
    """One representative meta-signal per distinct speed; every eligible input
    set maps to the full signal set.  Also returns the class projection."""
    reps: dict[Scalar, MetaSignal] = {}
    for ms in machine.signals:  # lowest index becomes the class representative
        reps.setdefault(machine.speed_of(ms), ms)
    new_signals = [MetaSignal(rep.name, i) for i, rep in enumerate(reps.values())]
    new_of = dict(zip(reps, new_signals))
    projection = {ms: new_of[machine.speed_of(ms)] for ms in machine.signals}
    new_speed = {new: sp for sp, new in new_of.items()}
    everything = frozenset(new_signals)
    rules: dict[RuleKey, frozenset[MetaSignal]] = {}
    for k in range(2, len(new_signals) + 1):
        for combo in itertools.combinations(new_signals, k):
            rules[frozenset(combo)] = everything
    return SignalMachine(machine.ctx, new_signals, new_speed, rules), projection


def support_configuration(
    config: InitialConfiguration, projection: Mapping[MetaSignal, MetaSignal]
) -> InitialConfiguration:
    sites = [
        (p, frozenset(projection[ms] for ms in sigs)) for p, sigs in config.sites
    ]
    return InitialConfiguration(sites)


# -- speed normalization -------------------------------------------------------


def normalize_speeds(machine: SignalMachine) -> tuple[SignalMachine, AffineMap]:
    """Affinely renames speeds to {0, 1} (two speeds) or {-1, 0, nu} with
    nu > 0 (three speeds).  Positions are untouched, so a configuration of
    the machine is one of the renamed machine too."""
    speeds = machine.distinct_speeds()
    one, zero = machine.ctx.one(), machine.ctx.zero()
    if len(speeds) == 2:
        a, b = speeds
        amap = AffineMap.through(a, b, zero, one)
    elif len(speeds) == 3:
        a, b, _c = speeds
        amap = AffineMap.through(a, b, -one, zero)
    else:
        raise MachineError(
            f"normalization needs 2 or 3 distinct speeds, got {len(speeds)}"
        )
    return apply_affine_to_machine(machine, amap), amap
