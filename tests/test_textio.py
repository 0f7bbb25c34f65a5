import random
from fractions import Fraction
from pathlib import Path

import pytest

from sigmach.engine import QUIESCENT, RunLimits, run
from sigmach.model import (
    AffineMap,
    InitialConfiguration,
    MachineError,
    SignalMachine,
    apply_affine_to_machine,
    validate,
)
from sigmach.presets import (
    build_gcd,
    build_gcd_phi,
    build_modulo,
    build_sm4,
    build_subtraction,
    read_encoded_value,
)
from sigmach.scalars import FieldContext, format_scalar
from sigmach.textio import (
    MachineParseError,
    event_log_lines,
    parse_machine_file,
    serialize_machine,
)
from sigmach.verify import random_configuration, random_machine

Q = FieldContext(0)
Q5 = FieldContext(5)
MACHINES = Path(__file__).resolve().parent.parent / "machines"


def random_system(rng, moved):
    """A random valid machine and configuration; with `moved`, speeds and
    positions go into Q(sqrt 5) by v -> phi*v + sqrt 5."""
    machine = random_machine(rng, rng.randint(2, 4))
    config = random_configuration(rng, machine)
    if not moved:
        return machine, config
    root5 = Q5.sqrt_term(1, 5)
    amap = AffineMap((1 + root5) / 2, root5)
    sites = [(amap(p), sigs) for p, sigs in config.sites]
    return apply_affine_to_machine(machine, amap), InitialConfiguration(sites)


def exact(machine, config):
    """Every bit of a parsed system: field, names, indexes and speed parts in
    declaration order, rules by names, and site positions and members."""
    speeds = [(ms.name, ms.index, machine.speed_of(ms)) for ms in machine.signals]
    return (
        machine.ctx.d,
        [(n, i, v.a, v.b, v.d) for n, i, v in speeds],
        {
            frozenset(m.name for m in k): frozenset(m.name for m in v)
            for k, v in machine.rules.items()
        },
        [(p.a, p.b, sorted(m.name for m in s)) for p, s in config.sites],
    )


class TestParsing:
    def test_shipped_sm4_matches_the_preset(self):
        machine, config = parse_machine_file((MACHINES / "sm4.machine").read_text())
        preset_machine, preset_config = build_sm4()
        assert {m.name: str(machine.speed_of(m)) for m in machine.signals} == {
            m.name: str(preset_machine.speed_of(m)) for m in preset_machine.signals
        }
        assert {
            frozenset(m.name for m in k): frozenset(m.name for m in v)
            for k, v in machine.rules.items()
        } == {
            frozenset(m.name for m in k): frozenset(m.name for m in v)
            for k, v in preset_machine.rules.items()
        }
        assert [
            (str(p), sorted(m.name for m in s)) for p, s in config.sites
        ] == [(str(p), sorted(m.name for m in s)) for p, s in preset_config.sites]

    @pytest.mark.parametrize("path", sorted(MACHINES.glob("*.machine")), ids=lambda p: p.stem)
    def test_shipped_file_serializes_as_its_preset(self, path):
        presets = {
            "sub": lambda: build_subtraction(11, 3),
            "mod": lambda: build_modulo(11, 3),
            "gcd": lambda: build_gcd(8, 3),
            "gcd_phi": build_gcd_phi,
            "sm4": build_sm4,
        }
        parsed = parse_machine_file(path.read_text())
        assert serialize_machine(*parsed) == serialize_machine(*presets[path.stem]())

    def test_forward_references(self):
        machine, config = parse_machine_file(
            "rule a,b -> b\ninit a@0\nsignal a 1\ninit b@1\nsignal b 0\n"
        )
        assert [ms.name for ms in machine.signals] == ["a", "b"]
        assert machine.rules == {frozenset(machine.signals): frozenset([machine.by_name("b")])}
        assert [sorted(m.name for m in sigs) for _, sigs in config.sites] == [["a"], ["b"]]

    def test_comments_and_blank_lines(self):
        machine, config = parse_machine_file(
            "# a comment\n\nsignal a 1  # trailing\nsignal b 0\ninit a@0\n"
        )
        assert len(machine.signals) == 2
        assert len(config) == 1

    def test_empty_rule_output(self):
        machine, _ = parse_machine_file(
            "signal a 1\nsignal b -1\nrule a,b ->\n"
        )
        key = frozenset(machine.signals)
        assert machine.rules[key] == frozenset()

    def test_quadratic_field(self):
        machine, config = parse_machine_file(
            "field sqrt 5\nsignal a 1/2+1/2*sqrt(5)\nsignal b 0\ninit a@0\ninit b@1\n"
        )
        assert machine.ctx.d == 5
        assert machine.speed_of(machine.by_name("a")).b != 0


class TestParseErrors:
    def test_zero_denominator_speed(self):
        with pytest.raises(MachineParseError) as err:
            parse_machine_file("signal a 1/0\n")
        assert err.value.line_no == 1
        assert "division by zero" in str(err.value)

    def test_speed_with_digits_split_by_a_space(self):
        with pytest.raises(MachineParseError) as err:
            parse_machine_file("signal a 1 2\ninit a@0\n")
        assert err.value.line_no == 1
        assert err.value.reason == "bad speed for 'a': malformed scalar: '1 2'"

    def test_unknown_signal_in_rule(self):
        with pytest.raises(MachineParseError) as err:
            parse_machine_file("signal a 1\nsignal b 0\nrule a,c -> a\n")
        assert err.value.line_no == 3

    def test_unknown_signal_in_init(self):
        with pytest.raises(MachineParseError) as err:
            parse_machine_file("signal a 1\ninit b@0\n")
        assert err.value.line_no == 2

    def test_duplicate_signal(self):
        with pytest.raises(MachineParseError) as err:
            parse_machine_file("signal a 1\nsignal a 2\n")
        assert "duplicate" in str(err.value)

    def test_duplicate_rule(self):
        text = "signal a 1\nsignal b 0\nrule a,b -> a\nrule b,a -> b\n"
        with pytest.raises(MachineParseError) as err:
            parse_machine_file(text)
        assert err.value.line_no == 4

    def test_single_input_rule(self):
        with pytest.raises(MachineParseError):
            parse_machine_file("signal a 1\nrule a -> a\n")

    def test_mixed_radicals(self):
        with pytest.raises(MachineParseError) as err:
            parse_machine_file("field sqrt 5\nsignal a 1+1*sqrt(2)\n")
        assert err.value.line_no == 2

    def test_field_after_signals(self):
        with pytest.raises(MachineParseError) as err:
            parse_machine_file("signal a 1\nfield sqrt 5\n")
        assert "precede" in str(err.value)

    def test_unknown_directive(self):
        with pytest.raises(MachineParseError):
            parse_machine_file("speed a 1\n")

    @pytest.mark.parametrize(
        "text, line_no, reason",
        [
            ("field sqrt 5\nfield sqrt 5\n", 2, "duplicate field directive"),
            ("field foo\n", 1, "expected 'field sqrt <d>', got 'foo'"),
            ("signal a\n", 1, "expected 'signal <name> <speed>'"),
            ("signal a 1\nrule a b\n", 2, "expected 'rule in[,in...] -> out[,out...]'"),
            ("signal a 1\ninit a@x\n", 2, "bad position: malformed scalar: 'x'"),
        ],
    )
    def test_malformed_directive(self, text, line_no, reason):
        with pytest.raises(MachineParseError) as err:
            parse_machine_file(text)
        assert (err.value.line_no, err.value.reason) == (line_no, reason)

    def test_equal_input_speeds(self):
        text = "signal a 1\nsignal b 1\nsignal c 0\nrule a,b -> c\n"
        with pytest.raises(MachineParseError) as err:
            parse_machine_file(text)
        assert err.value.line_no == 4
        assert err.value.reason == "input speeds not distinct in a,b"

    def test_equal_output_speeds(self):
        text = "signal a 1\nsignal c 0\nsignal b 1\n\nrule a,c -> a,b\n"
        with pytest.raises(MachineParseError) as err:
            parse_machine_file(text)
        assert err.value.line_no == 5
        assert err.value.reason == "output speeds not distinct in a,b"

    def test_equal_speeds_in_a_quadratic_field(self):
        text = "field sqrt 5\nsignal a 1+1*sqrt(5)\nsignal b 2/2+2/2*sqrt(5)\nsignal c 0\nrule a,c -> a,b\n"
        with pytest.raises(MachineParseError) as err:
            parse_machine_file(text)
        assert err.value.line_no == 5

    def test_colocated_same_speed(self):
        text = "signal a 1\nsignal b 1\nsignal c 0\nrule a,c -> a\ninit a@0\ninit b@0\n"
        with pytest.raises(MachineParseError) as err:
            parse_machine_file(text)
        assert err.value.line_no == 6
        assert err.value.reason == "co-located signals with equal speed at 0: ['a', 'b']"

    def test_colocated_equal_positions_written_differently(self):
        text = "signal a 1\nsignal b 1\ninit a@1/2\ninit b@2/4\n"
        with pytest.raises(MachineParseError) as err:
            parse_machine_file(text)
        assert err.value.line_no == 4
        assert err.value.reason == "co-located signals with equal speed at 1/2: ['a', 'b']"

    def test_a_signal_placed_twice(self):
        text = "signal a 1\nsignal b 0\ninit a@0\ninit b@0\ninit a@0\n"
        with pytest.raises(MachineParseError) as err:
            parse_machine_file(text)
        assert err.value.line_no == 5
        assert err.value.reason == "co-located signals with equal speed at 0: ['a', 'a', 'b']"
        with pytest.raises(MachineParseError, match=r"^line 2: co-located .* at 0: \['a', 'a'\]$"):
            parse_machine_file("init a@0\ninit a@0\nsignal a 1\n")


class TestErrorPrecedence:
    """Syntax errors come first, in file order; then the first bad signal,
    else the first bad rule, else the first bad init."""

    BAD_INIT = "init a@0\ninit c@0\n"  # lines 1-2: a and c share speed 1
    BAD_RULES = "rule a,c -> b\nrule a -> b\n"  # lines 3-4
    SIGNALS = "signal a 1\nsignal b 0\nsignal c 1\n"  # lines 5-7

    def error(self, text):
        with pytest.raises(MachineParseError) as err:
            parse_machine_file(text)
        return err.value.line_no, err.value.reason

    def test_a_bad_signal_comes_first(self):
        text = self.BAD_INIT + self.BAD_RULES + self.SIGNALS + "signal 9 0\nsignal b 2\n"
        assert self.error(text) == (8, "bad meta-signal name '9'")

    def test_then_the_first_bad_rule(self):
        text = self.BAD_INIT + self.BAD_RULES + self.SIGNALS
        assert self.error(text) == (3, "input speeds not distinct in a,c")

    def test_then_the_first_bad_init(self):
        text = self.BAD_INIT + self.SIGNALS
        assert self.error(text) == (2, "co-located signals with equal speed at 0: ['a', 'c']")

    def test_a_syntax_error_comes_before_all(self):
        text = self.BAD_INIT + self.BAD_RULES + self.SIGNALS + "init c 1\n"
        assert self.error(text) == (8, "expected 'init <name>@<position>'")


class TestRoundTrip:
    @pytest.mark.parametrize("path", sorted(MACHINES.glob("*.machine")), ids=lambda p: p.stem)
    def test_serialize_parse_round_trip(self, path):
        machine, config = parse_machine_file(path.read_text())
        assert validate(machine) == []
        machine2, config2 = parse_machine_file(serialize_machine(machine, config))
        assert {m.name for m in machine2.signals} == {m.name for m in machine.signals}
        assert [
            (str(p), sorted(m.name for m in s)) for p, s in config2.sites
        ] == [(str(p), sorted(m.name for m in s)) for p, s in config.sites]
        assert {
            frozenset(m.name for m in k): frozenset(m.name for m in v)
            for k, v in machine2.rules.items()
        } == {
            frozenset(m.name for m in k): frozenset(m.name for m in v)
            for k, v in machine.rules.items()
        }

    def test_machine_moved_into_q_sqrt5_round_trips(self):
        machine, config = build_sm4()
        moved = apply_affine_to_machine(machine, AffineMap(Q5.scalar(Fraction(2, 3)), Q5.sqrt_term(1, 5)))
        assert moved.ctx == Q5
        text = serialize_machine(moved, config)
        assert text.startswith("field sqrt 5\n")
        assert exact(*parse_machine_file(text)) == exact(moved, config)


class TestSeededProperties:
    @pytest.mark.parametrize("moved", [False, True], ids=["Q", "Q(sqrt5)"])
    def test_random_systems_round_trip_exactly(self, moved):
        rng = random.Random(8)
        for _ in range(60):
            machine, config = random_system(rng, moved)
            text = serialize_machine(machine, config)
            machine2, config2 = parse_machine_file(text)
            assert exact(machine2, config2) == exact(machine, config)
            assert serialize_machine(machine2, config2) == text

    @pytest.mark.parametrize("moved", [False, True], ids=["Q", "Q(sqrt5)"])
    def test_random_bad_rule_lines_name_their_line(self, moved):
        """Each case injects one bad entry of one kind into a random system
        whose entry lines are interleaved at random, forward references
        included: the builders raise the reason the parser reports, at the
        injected entry, and the parser names its line."""
        rng = random.Random(9)
        for k in range(64):
            machine, config = random_system(rng, moved)
            entries = {
                "signal": [(ms.name, machine.speed_of(ms)) for ms in machine.signals],
                "rule": [(names(ins), names(outs)) for ins, outs in machine.rules.items()],
                "init": [(n, p) for p, sigs in config.sites for n in names(sigs)],
            }
            # `twin` gets the speed of `a`, and `b` has another speed; for a
            # bad placement, `a` is a placed signal and `where` its position
            case = k % 8
            if case == 7:
                a, where = rng.choice(entries["init"])
            else:
                a = rng.choice(machine.signals).name
            speed = machine.speed_of(machine.by_name(a))
            b = next(ms.name for ms in machine.signals if machine.speed_of(ms) != speed)
            signals = entries["signal"]
            signals.insert(rng.randint(0, len(signals)), ("twin", speed))
            after = 0  # a duplicate must come after what it repeats
            if case == 0:
                bad = rng.choice(["9z", "x,y", "-a", "a.b"])
                kind, entry, reason = "signal", (bad, speed), f"bad meta-signal name {bad!r}"
            elif case == 1:
                kind, entry, reason = "signal", (a, speed), f"duplicate meta-signal {a!r}"
                after = [n for n, _ in signals].index(a) + 1
            elif case in (2, 3, 4, 5):
                kind = "rule"
                entry, reason = [
                    (((a,), (a,)), "rule needs at least two incoming signals"),
                    (((a, "ghost"), (a,)), "unknown meta-signal 'ghost'"),
                    (((a, "twin"), ()), f"input speeds not distinct in {a},twin"),
                    (((a, b), (a, "twin")), f"output speeds not distinct in {a},twin"),
                ][case - 2]
            elif case == 6:
                repeated = rng.randrange(len(entries["rule"]))
                ins = entries["rule"][repeated][0]
                kind, entry, reason = "rule", (ins[::-1], ()), f"duplicate rule for {sorted(ins)}"
                after = repeated + 1
            else:  # the reason names every signal placed at `where` so far
                kind, entry = "init", ("twin", where)
                after = entries["init"].index((a, where)) + 1
            at = rng.randint(after, len(entries[kind]))
            if case == 7:
                here = {n for n, p in entries["init"][:at] if p == where} | {"twin"}
                reason = f"co-located signals with equal speed at {where}: {sorted(here)}"
            entries[kind].insert(at, entry)

            with pytest.raises(MachineError) as built:
                built_machine = SignalMachine.build(
                    entries["signal"], entries["rule"], ctx=machine.ctx
                )
                InitialConfiguration.build(built_machine, entries["init"])
            assert (built.value.reason, built.value.entry) == (reason, (kind, at))

            lines, line_of_bad = interleave(rng, entries, (kind, at), moved)
            with pytest.raises(MachineParseError) as parsed:
                parse_machine_file("\n".join(lines) + "\n")
            assert (parsed.value.line_no, parsed.value.reason) == (line_of_bad, reason)


def names(signals):
    return tuple(sorted(ms.name for ms in signals))


def interleave(rng, entries, bad, moved):
    """Entry lines with the kinds shuffled together, each kind in its own
    order, and the line number of the entry `bad` = (kind, index)."""
    kinds = [kind for kind, items in entries.items() for _ in items]
    rng.shuffle(kinds)
    lines = ["field sqrt 5"] if moved else []
    seen = {kind: 0 for kind in entries}
    for kind in kinds:
        if (kind, seen[kind]) == bad:
            line_of_bad = len(lines) + 1
        x, y = entries[kind][seen[kind]]
        seen[kind] += 1
        if kind == "signal":
            lines.append(f"signal {x} {format_scalar(y)}")
        elif kind == "rule":
            lines.append(f"rule {','.join(x)} -> {','.join(y)}")
        else:
            lines.append(f"init {x}@{format_scalar(y)}")
    return lines, line_of_bad


class TestShippedFilesReproduceResults:
    def run_file(self, name, **kw):
        machine, config = parse_machine_file((MACHINES / f"{name}.machine").read_text())
        return machine, run(machine, config, RunLimits(**kw))

    def test_sub(self):
        machine, diagram = self.run_file("sub")
        assert diagram.halt_reason == QUIESCENT
        assert read_encoded_value(
            diagram.final_state, machine, "wall0", "wall_r"
        ).value == Q.scalar(8)

    def test_mod(self):
        machine, diagram = self.run_file("mod")
        assert read_encoded_value(
            diagram.final_state, machine, "wall0", "wall_r"
        ).value == Q.scalar(2)

    def test_gcd(self):
        machine, diagram = self.run_file("gcd")
        assert read_encoded_value(diagram.final_state, machine).value == Q.one()

    def test_sm4(self):
        _, diagram = self.run_file("sm4", max_events=10)
        assert diagram.events[0].position == Q.scalar(Fraction(7, 9))

    def test_gcd_phi(self):
        machine, diagram = self.run_file("gcd_phi", max_events=50)
        assert machine.ctx.d == 5
        first = diagram.events[0]
        assert first.position == machine.ctx.scalar(Fraction(-1, 2), Fraction(1, 2))


class TestEventLog:
    def test_lines_are_exact_and_diffable(self):
        machine, config = build_sm4()
        diagram = run(machine, config, RunLimits(max_events=2))
        lines = event_log_lines(diagram)
        assert lines == [
            "E 0 4/9 7/9 right,zig -> right,zag",
            "E 1 64/81 -49/81 left,zag -> left,zig",
        ]

    def test_empty_output_marker(self):
        from sigmach.model import InitialConfiguration, SignalMachine

        machine = SignalMachine.build([("r", 1), ("l", -1)], [(("r", "l"), ())])
        config = InitialConfiguration.build(machine, [("r", 0), ("l", 1)])
        diagram = run(machine, config)
        assert event_log_lines(diagram) == ["E 0 1/2 1/2 l,r -> -"]
