"""Machine-definition text format and exact event logs.

One directive per line, `#` starts a comment:

    field sqrt <d>                       optional, must precede signals
    signal <name> <speed-scalar>
    rule <name>,<name>[,...] -> [<name>[,...]]
    init <name>@<position-scalar>

Scalars print exactly (``p/q`` or ``a+b*sqrt(d)``), so parse(print(x)) is
bit-exact and logs diff cleanly across platforms.
"""

from __future__ import annotations

import re

from .engine import Event, SpaceTimeDiagram
from .model import NAME, InitialConfiguration, MachineError, SignalMachine
from .scalars import FieldContext, Scalar, format_scalar


class MachineParseError(ValueError):
    def __init__(self, line_no: int, reason: str) -> None:
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


def parse_machine_file(text: str) -> tuple[SignalMachine, InitialConfiguration]:
    """Parse a machine definition plus its initial configuration.

    The parser reads syntax only: directives, tokens, scalar literals and
    `field` first.  The builders in `model` check every definition
    condition; a fault they raise is reported at its entry's line."""
    ctx = FieldContext(0)
    field_set = False
    speeds: list[tuple[str, Scalar]] = []
    rules: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    inits: list[tuple[str, Scalar]] = []
    line_of: dict[str, list[int]] = {"signal": [], "rule": [], "init": []}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "field":
            if speeds or inits:
                raise MachineParseError(line_no, "field directive must precede signals")
            if field_set:
                raise MachineParseError(line_no, "duplicate field directive")
            m = re.fullmatch(r"sqrt\s+(\d+)", rest)
            if not m:
                raise MachineParseError(line_no, f"expected 'field sqrt <d>', got {rest!r}")
            ctx = FieldContext(int(m.group(1)))
            field_set = True
            continue
        if head == "signal":
            parts = rest.split(None, 1)
            if len(parts) != 2:
                raise MachineParseError(line_no, "expected 'signal <name> <speed>'")
            name, speed_txt = parts
            try:
                speeds.append((name, ctx.parse(speed_txt)))
            except ValueError as e:
                raise MachineParseError(line_no, f"bad speed for {name!r}: {e}")
        elif head == "rule":
            if "->" not in rest:
                raise MachineParseError(line_no, "expected 'rule in[,in...] -> out[,out...]'")
            left, right = rest.split("->", 1)
            ins = tuple(s.strip() for s in left.split(",") if s.strip())
            outs = tuple(s.strip() for s in right.split(",") if s.strip())
            rules.append((ins, outs))
        elif head == "init":
            m = re.fullmatch(rf"({NAME.pattern})@(\S+)", rest)
            if not m:
                raise MachineParseError(line_no, "expected 'init <name>@<position>'")
            try:
                inits.append((m.group(1), ctx.parse(m.group(2))))
            except ValueError as e:
                raise MachineParseError(line_no, f"bad position: {e}")
        else:
            raise MachineParseError(line_no, f"unknown directive {head!r}")
        line_of[head].append(line_no)

    try:
        machine = SignalMachine.build(speeds, rules, ctx=ctx)
        return machine, InitialConfiguration.build(machine, inits)
    except MachineError as e:
        kind, index = e.entry
        raise MachineParseError(line_of[kind][index], e.reason)


def serialize_machine(machine: SignalMachine, config: InitialConfiguration) -> str:
    """Inverse of parse_machine_file up to comments and ordering."""
    lines: list[str] = []
    if machine.ctx.d:
        lines.append(f"field sqrt {machine.ctx.d}")
    for ms in machine.signals:
        lines.append(f"signal {ms.name} {format_scalar(machine.speed_of(ms))}")
    for key in sorted(machine.rules, key=lambda k: sorted(m.name for m in k)):
        ins = ",".join(sorted(m.name for m in key))
        outs = ",".join(sorted(m.name for m in machine.rules[key]))
        lines.append(f"rule {ins} -> {outs}")
    for pos, sigs in config.sites:
        for ms in sorted(sigs, key=lambda m: m.index):
            lines.append(f"init {ms.name}@{format_scalar(pos)}")
    return "\n".join(lines) + "\n"


def event_log_lines(diagram: SpaceTimeDiagram) -> list[str]:
    """Line-oriented exact event log, one `event_line` per event."""
    return [event_line(e) for e in diagram.events]


def event_line(e: Event) -> str:
    """``E <index> <time> <position> <in-set> -> <out-set>``."""
    ins = ",".join(sorted(m.name for m in e.incoming))
    outs = ",".join(sorted(m.name for m in e.outgoing)) or "-"
    return (
        f"E {e.index} {format_scalar(e.time)} {format_scalar(e.position)} "
        f"{ins} -> {outs}"
    )
