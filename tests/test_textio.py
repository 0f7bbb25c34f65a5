import random
from fractions import Fraction
from pathlib import Path

import pytest

from sigmach.engine import QUIESCENT, RunLimits, run
from sigmach.model import (
    AffineMap,
    InitialConfiguration,
    apply_affine_to_machine,
    validate,
)
from sigmach.presets import build_sm4, read_encoded_value
from sigmach.scalars import FieldContext
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
        text = "signal a 1\nsignal b 1\ninit a@1/2\ninit a@2/4\ninit b@3/6\n"
        with pytest.raises(MachineParseError) as err:
            parse_machine_file(text)
        assert err.value.line_no == 5
        assert err.value.reason == "co-located signals with equal speed at 1/2: ['a', 'b']"


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
        rng = random.Random(9)
        for k in range(60):
            machine, config = random_system(rng, moved)
            lines = serialize_machine(machine, config).splitlines()
            # declare `twin` with the speed of the last signal, right after it
            last = max(i for i, line in enumerate(lines) if line.startswith("signal "))
            lines.insert(last + 1, f"signal twin {lines[last].split(' ', 2)[2]}")
            a = machine.signals[-1].name
            speed = machine.speed_of(machine.signals[-1])
            b = next(ms.name for ms in machine.signals if machine.speed_of(ms) != speed)
            bad, reason = [
                (f"rule {a},twin ->", f"input speeds not distinct in {a},twin"),
                (f"rule {a},{b} -> {a},twin", f"output speeds not distinct in {a},twin"),
                (f"rule {a},ghost -> {a}", "unknown meta-signal 'ghost'"),
                (f"rule {a} -> {a}", "rule needs at least two incoming signals"),
            ][k % 4]
            at = rng.randint(last + 2, len(lines))
            lines.insert(at, bad)
            with pytest.raises(MachineParseError) as err:
                parse_machine_file("\n".join(lines) + "\n")
            assert (err.value.line_no, err.value.reason) == (at + 1, reason)


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
