"""Signal machines: meta-signals, speeds, collision rules, configurations.

A machine is a finite set of meta-signals, a speed per meta-signal, and a
partial table of collision rules keyed by frozensets of meta-signals.  The
machine-level transformations live here too: validation, classification,
affine speed maps, support machines and speed normalization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .scalars import FieldContext, Scalar, ScalarLike, as_scalar, is_commensurate

RuleKey = frozenset["MetaSignal"]


@dataclass(frozen=True)
class MetaSignal:
    """A signal type; every instance travels at the machine's speed for it."""

    name: str
    index: int

    def __repr__(self) -> str:
        return self.name


class MachineError(ValueError):
    pass


class SignalMachine:
    """Immutable triple (meta-signals, speed map, collision rules)."""

    __slots__ = ("ctx", "signals", "speed", "rules", "_by_name")

    def __init__(
        self,
        ctx: FieldContext,
        signals: Sequence[MetaSignal],
        speed: Mapping[MetaSignal, Scalar],
        rules: Mapping[RuleKey, frozenset[MetaSignal]],
    ) -> None:
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "signals", tuple(signals))
        object.__setattr__(self, "speed", dict(speed))
        object.__setattr__(self, "rules", dict(rules))
        object.__setattr__(self, "_by_name", {s.name: s for s in self.signals})

    def __setattr__(self, *_):
        raise AttributeError("SignalMachine is immutable")

    @classmethod
    def build(
        cls,
        speeds: Sequence[tuple[str, ScalarLike | str]],
        rules: Iterable[tuple[Sequence[str], Sequence[str]]] = (),
        ctx: FieldContext | None = None,
    ) -> "SignalMachine":
        """Assemble a machine from (name, speed) pairs and name-based rules;
        raises MachineError with the first violation `validate` reports."""
        ctx = ctx or FieldContext(0)
        signals: list[MetaSignal] = []
        speed_map: dict[MetaSignal, Scalar] = {}
        seen: dict[str, MetaSignal] = {}
        for i, (name, sp) in enumerate(speeds):
            if name in seen:
                raise MachineError(f"duplicate meta-signal name {name!r}")
            ms = MetaSignal(name, i)
            seen[name] = ms
            signals.append(ms)
            speed_map[ms] = ctx.parse(sp) if isinstance(sp, str) else as_scalar(sp, ctx)
        rule_map: dict[RuleKey, frozenset[MetaSignal]] = {}
        for ins, outs in rules:
            try:
                key = frozenset(seen[n] for n in ins)
                val = frozenset(seen[n] for n in outs)
            except KeyError as e:
                raise MachineError(f"rule references unknown meta-signal {e.args[0]!r}")
            if key in rule_map:
                raise MachineError(f"duplicate rule for {sorted(n for n in ins)}")
            rule_map[key] = val
        machine = cls(ctx, signals, speed_map, rule_map)
        problems = validate(machine)
        if problems:
            raise MachineError(problems[0])
        return machine

    def by_name(self, name: str) -> MetaSignal:
        try:
            return self._by_name[name]
        except KeyError:
            raise MachineError(f"unknown meta-signal {name!r}") from None

    def speed_of(self, ms: MetaSignal) -> Scalar:
        return self.speed[ms]

    def distinct_speeds(self) -> tuple[Scalar, ...]:
        out: list[Scalar] = []
        for s in self.speed.values():
            if not any(s == t for t in out):
                out.append(s)
        out.sort()
        return tuple(out)

    def rule_for(self, incoming: RuleKey) -> frozenset[MetaSignal] | None:
        return self.rules.get(incoming)

    def __repr__(self) -> str:
        return (
            f"SignalMachine({len(self.signals)} signals, "
            f"{len(self.distinct_speeds())} speeds, {len(self.rules)} rules)"
        )


Site = tuple[Scalar, frozenset[MetaSignal]]


class InitialConfiguration:
    """Finite sorted set of sites; co-located signals must have distinct speeds."""

    __slots__ = ("sites",)

    def __init__(self, sites: Sequence[Site]) -> None:
        object.__setattr__(self, "sites", tuple(sites))

    def __setattr__(self, *_):
        raise AttributeError("InitialConfiguration is immutable")

    @classmethod
    def build(
        cls,
        machine: SignalMachine,
        placements: Iterable[tuple[str | MetaSignal, ScalarLike | str]],
    ) -> "InitialConfiguration":
        by_pos: dict[Scalar, set[MetaSignal]] = {}
        for sig, pos in placements:
            ms = machine.by_name(sig) if isinstance(sig, str) else sig
            p = machine.ctx.parse(pos) if isinstance(pos, str) else as_scalar(pos, machine.ctx)
            by_pos.setdefault(p, set()).add(ms)
        sites: list[Site] = []
        for p in sorted(by_pos):
            group = by_pos[p]
            speeds = [machine.speed_of(ms) for ms in group]
            for i, si in enumerate(speeds):
                for sj in speeds[i + 1 :]:
                    if si == sj:
                        raise MachineError(
                            f"co-located signals with equal speed at {p}: "
                            f"{sorted(ms.name for ms in group)}"
                        )
            sites.append((p, frozenset(group)))
        return cls(sites)

    def positions(self) -> tuple[Scalar, ...]:
        return tuple(p for p, _ in self.sites)

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, InitialConfiguration) and self.sites == other.sites

    def __hash__(self) -> int:
        return hash(self.sites)

    def __repr__(self) -> str:
        parts = ",".join(
            f"[{'+'.join(sorted(m.name for m in sigs))}]@{p}" for p, sigs in self.sites
        )
        return f"InitialConfiguration({parts})"


# -- validation and classification ------------------------------------------


def validate(machine: SignalMachine) -> list[str]:
    """Check the machine-definition conditions; returns human-readable
    violations instead of raising, one entry per offending rule or pair."""
    violations: list[str] = []
    names = [s.name for s in machine.signals]
    if len(set(names)) != len(names):
        violations.append("duplicate meta-signal names")
    for ms in machine.signals:
        if ms not in machine.speed:
            violations.append(f"missing speed for {ms.name}")
    for key, out in machine.rules.items():
        label = "{" + ",".join(sorted(m.name for m in key)) + "}"
        if len(key) < 2:
            violations.append(f"rule {label}: input arity < 2")
        if not _distinct_speeds(machine, key):
            violations.append(f"rule {label}: input speeds not distinct")
        if not _distinct_speeds(machine, out):
            violations.append(f"rule {label}: output speeds not distinct")
        for ms in key | out:
            if ms not in machine.speed:
                violations.append(f"rule {label}: unknown meta-signal {ms.name}")
    return violations


def _distinct_speeds(machine: SignalMachine, group: Iterable[MetaSignal]) -> bool:
    seen: list[Scalar] = []
    for ms in group:
        sp = machine.speed.get(ms)
        if sp is None:
            continue
        if any(sp == t for t in seen):
            return False
        seen.append(sp)
    return True


@dataclass(frozen=True)
class Classification:
    speed_count: int
    rational: bool
    rational_like_machine: bool
    rational_like_config: bool


def classify(machine: SignalMachine, config: InitialConfiguration) -> Classification:
    speeds = machine.distinct_speeds()
    positions = config.positions()
    rational = all(s.b == 0 for s in speeds) and all(p.b == 0 for p in positions)
    return Classification(
        speed_count=len(speeds),
        rational=rational,
        rational_like_machine=_pairwise_commensurate(speeds),
        rational_like_config=_gaps_commensurate(positions),
    )


def _pairwise_commensurate(values: Sequence[Scalar]) -> bool:
    nonzero = [v for v in values if v.sign() != 0]
    return all(
        is_commensurate(x, y) for x, y in itertools.combinations(nonzero, 2)
    )


def _gaps_commensurate(positions: Sequence[Scalar]) -> bool:
    gaps = [q - p for p, q in itertools.combinations(positions, 2)]
    return _pairwise_commensurate(gaps)


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

    def inverse(self, y: Scalar) -> Scalar:
        return (y - self.offset) / self.ratio

    @classmethod
    def identity(cls, ctx: FieldContext) -> "AffineMap":
        return cls(ctx.one(), ctx.zero())

    @classmethod
    def through(cls, a: Scalar, b: Scalar, fa: Scalar, fb: Scalar) -> "AffineMap":
        """The unique affine map sending a -> fa and b -> fb (a < b, fa < fb)."""
        ratio = (fb - fa) / (b - a)
        return cls(ratio, fa - ratio * a)


def apply_affine_to_machine(machine: SignalMachine, amap: AffineMap) -> SignalMachine:
    """New machine with every speed replaced by ratio*speed + offset;
    signals and rules are shared unchanged."""
    new_speed = {ms: amap(sp) for ms, sp in machine.speed.items()}
    return SignalMachine(machine.ctx, machine.signals, new_speed, machine.rules)


def apply_affine_to_configuration(
    config: InitialConfiguration, amap: AffineMap
) -> InitialConfiguration:
    """Inverse-image convention: the new configuration holds at x whatever the
    old one holds at ratio*x + offset, so sites move to (p - offset)/ratio."""
    sites = sorted(
        ((amap.inverse(p), sigs) for p, sigs in config.sites),
        key=lambda site: site[0],
    )
    return InitialConfiguration(sites)


# -- support machines ---------------------------------------------------------


def support_machine(
    machine: SignalMachine,
) -> tuple[SignalMachine, dict[MetaSignal, MetaSignal]]:
    """One representative meta-signal per distinct speed; every eligible input
    set maps to the full signal set.  Also returns the class projection."""
    classes: list[tuple[Scalar, MetaSignal]] = []
    projection: dict[MetaSignal, MetaSignal] = {}
    for ms in machine.signals:  # lowest index becomes the class representative
        sp = machine.speed_of(ms)
        rep = next((r for s, r in classes if s == sp), None)
        if rep is None:
            classes.append((sp, ms))
    reps = [rep for _, rep in classes]
    new_signals = [MetaSignal(rep.name, i) for i, rep in enumerate(reps)]
    rep_to_new = {rep: new for rep, new in zip(reps, new_signals)}
    for ms in machine.signals:
        sp = machine.speed_of(ms)
        rep = next(r for s, r in classes if s == sp)
        projection[ms] = rep_to_new[rep]
    new_speed = {rep_to_new[rep]: sp for sp, rep in classes}
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


def normalize_speeds(
    machine: SignalMachine, config: InitialConfiguration
) -> tuple[SignalMachine, InitialConfiguration, AffineMap]:
    """Affinely renames speeds to {0, 1} (two speeds) or {-1, 0, nu} with
    nu > 0 (three speeds).  Initial positions are untouched."""
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
    return apply_affine_to_machine(machine, amap), config, amap
