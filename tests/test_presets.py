import random
from fractions import Fraction

import pytest

import sigmach.engine as engine
import sigmach.presets as presets
from sigmach.engine import EVENT_LIMIT, QUIESCENT, RunLimits, RunState, run
from sigmach.model import InitialConfiguration, SignalMachine, validate
from sigmach.presets import (
    PHI_CONTEXT,
    ReadoutError,
    build_gcd,
    build_gcd_phi,
    build_modulo,
    build_sm2_support,
    build_sm4,
    build_subtraction,
    geometric_result,
    phi,
    read_arithmetic_result,
    read_encoded_value,
    wall_trace,
)
from sigmach.scalars import FieldContext, euclid_trace, floor_div_mod, rational_gcd

Q = FieldContext(0)


class TestBuilders:
    def test_all_presets_validate(self):
        for machine, _ in (
            build_sm4(),
            build_sm2_support(2, 3),
            build_subtraction(11, 3),
            build_modulo(11, 3),
            build_gcd(8, 3),
            build_gcd_phi(),
        ):
            assert validate(machine) == []

    def test_sm4_shape(self):
        machine, config = build_sm4()
        assert sorted(str(s) for s in machine.distinct_speeds()) == [
            "-1/2", "-4", "1/2", "4",
        ]
        assert len(machine.rules) == 2
        assert [str(p) for p in config.positions()] == ["-1", "1"]

    def test_operand_preconditions(self):
        with pytest.raises(ValueError):
            build_subtraction(3, 11)
        with pytest.raises(ValueError):
            build_modulo(3, 3)
        with pytest.raises(ValueError):
            build_gcd(1, 1)

    def test_sm2_counts(self):
        _, config = build_sm2_support(2, 3)
        assert sum(len(s) for _, s in config.sites) == 5
        for args, reason in [
            ((2, 3, [("R", 0), ("S", 1)]), "i moving"),
            ((2, 3, [("R", 0), ("R", 1), ("S", 2)]), "j stationary"),
            ((-1, 3), "non-negative"),
            ((2, -1), "non-negative"),
        ]:
            with pytest.raises(ValueError, match=reason):
                build_sm2_support(*args)


class TestArithmeticResults:
    def test_subtraction_11_3(self):
        assert geometric_result("sub", 11, 3) == Q.scalar(8)

    def test_modulo_11_3(self):
        assert geometric_result("mod", 11, 3) == Q.scalar(2)

    def test_modulo_exact_multiple(self):
        assert geometric_result("mod", 6, 3) == Q.zero()

    def test_gcd_8_3(self):
        assert geometric_result("gcd", 8, 3) == Q.one()

    def test_gcd_4_2(self):
        assert geometric_result("gcd", 4, 2) == Q.scalar(2)

    def test_fractional_operands(self):
        a, b = Fraction(7, 2), Fraction(5, 4)
        assert geometric_result("sub", a, b) == Q.scalar(a - b)
        sa, sb = Q.scalar(a), Q.scalar(b)
        assert geometric_result("mod", a, b) == floor_div_mod(sa, sb)[1]
        assert geometric_result("gcd", a, b) == rational_gcd(sa, sb)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            geometric_result("pow", 2, 1)

    def test_a_run_that_does_not_halt_is_an_error(self, monkeypatch):
        def short_run(machine, config):
            return run(machine, config, RunLimits(max_events=2))

        monkeypatch.setattr(presets, "run", short_run)
        with pytest.raises(RuntimeError, match=r"gcd run did not halt \(reason: event_limit\)"):
            geometric_result("gcd", 8, 3)

    def test_a_run_that_uses_up_the_default_budget_names_it(self):
        """Rational operands, so the run would halt: quotient 3400 needs more
        than the 10 000 events of the default budget."""
        with pytest.raises(RuntimeError, match=r"mod run did not halt \(reason: event_limit\): "
                           r"it stopped at its budget of 10000 events before quiescence$"):
            geometric_result("mod", 3400, 1)

    def test_any_other_halt_is_a_transcription_bug(self, monkeypatch):
        def no_rule_run(machine, config):
            broken = SignalMachine.build([("r", 1), ("s", 0)])
            return run(broken, InitialConfiguration.build(broken, [("r", 0), ("s", 1)]))

        monkeypatch.setattr(presets, "run", no_rule_run)
        with pytest.raises(RuntimeError, match=r"sub run did not halt \(reason: missing_rule\); "
                           r"commensurate inputs must reach quiescence$"):
            geometric_result("sub", 11, 3)

    def test_incommensurate_gcd_run_never_settles(self):
        # halting is equivalent to commensurate operands: the irrational-gap
        # run keeps shrinking its walls forever instead
        machine, config = build_gcd(phi(), 1, ctx=PHI_CONTEXT)
        diagram = run(machine, config, RunLimits(max_events=200))
        assert diagram.halt_reason == EVENT_LIMIT
        steps = wall_trace(diagram)
        assert len(steps) >= 10
        for s, t in zip(steps, steps[1:]):
            assert t.a < s.a and t.b.sign() > 0


class TestReadout:
    def test_subtraction_final_walls(self):
        machine, config = build_subtraction(11, 3)
        diagram = run(machine, config)
        enc = read_encoded_value(diagram.final_state, machine, "wall0", "wall_r")
        assert enc.origin_wall == Q.zero()
        assert enc.value_wall == Q.scalar(8)
        assert enc.value == Q.scalar(8)

    def test_subtraction_keeps_its_middle_wall(self):
        # the sweep crosses wall_b without erasing it, unlike the modulo table
        machine, config = build_subtraction(7, 5)
        diagram = run(machine, config)
        names = sorted(
            m.name for _, sigs in diagram.final_state.sites for m in sigs
        )
        assert names == ["wall0", "wall_b", "wall_r"]
        assert read_encoded_value(
            diagram.final_state, machine, "wall0", "wall_r"
        ).value == Q.scalar(2)

    def test_gcd_two_origin_walls(self):
        machine, config = build_gcd(8, 3)
        diagram = run(machine, config)
        enc = read_encoded_value(diagram.final_state, machine)
        assert enc.value == Q.one()

    def test_single_wall_is_zero_width_error(self):
        machine, config = build_modulo(6, 3)
        diagram = run(machine, config)
        with pytest.raises(ReadoutError, match="zero-width"):
            read_encoded_value(diagram.final_state, machine)

    def test_ambiguous_state_lists_leftovers(self):
        machine, config = build_subtraction(11, 3)
        diagram = run(machine, config, RunLimits(max_events=2))
        with pytest.raises(ReadoutError, match="wall"):
            read_encoded_value(diagram.final_state, machine, "wall0", "wall_r")

    @pytest.mark.parametrize("walls", [0, 3])
    def test_gcd_readout_needs_exactly_two_origin_walls(self, walls):
        machine, _ = build_gcd(8, 3)
        wall0, wall_b = frozenset({machine.by_name("wall0")}), frozenset({machine.by_name("wall_b")})
        sites = ((Q.scalar(-1), wall_b), *((Q.scalar(x), wall0) for x in range(walls)))
        with pytest.raises(ReadoutError, match=r"ambiguous final state: \["):
            read_encoded_value(RunState(Q.zero(), sites), machine)

    def test_a_subtraction_without_its_result_wall_is_no_result(self):
        machine, _ = build_subtraction(11, 3)
        state = RunState(Q.zero(), ((Q.zero(), frozenset({machine.by_name("wall0")})),))
        with pytest.raises(ReadoutError, match=r"ambiguous final state: \['wall0@0'\]"):
            read_arithmetic_result("sub", state, machine)


class TestWallTrace:
    def test_a_machine_without_the_gcd_walls_has_no_trace(self):
        diagram = run(*build_sm4(), RunLimits(max_events=3))
        with pytest.raises(ValueError, match="wall traces need the gcd machine's wall/zig signals"):
            wall_trace(diagram)

    def test_gcd_8_3_trace(self):
        machine, config = build_gcd(8, 3)
        diagram = run(machine, config)
        steps = wall_trace(diagram)
        assert [(str(s.a), str(s.b)) for s in steps] == [
            ("8", "3"), ("3", "2"), ("2", "1"),
        ]
        assert steps == sorted(steps, key=lambda s: float(s.time))

    def test_trace_matches_reference_recursion(self):
        rng = random.Random(31)
        for _ in range(25):
            b = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            a = b * rng.randint(1, 4) + Fraction(rng.randint(0, 8), rng.choice((1, 2)))
            if a <= b:
                a = b + 1
            machine, config = build_gcd(a, b)
            diagram = run(machine, config)
            assert diagram.halt_reason == QUIESCENT
            got = [(s.a, s.b) for s in wall_trace(diagram)]
            ref = [(ra, rb) for ra, rb, _, _ in euclid_trace(Q.scalar(a), Q.scalar(b))]
            assert got == ref[: len(got)]
            assert len(got) >= 1

    def test_restart_times_are_twice_the_partial_sums(self):
        machine, config = build_gcd(8, 3)
        diagram = run(machine, config)
        steps = wall_trace(diagram)
        acc = Q.zero()
        for step in steps:
            assert step.time == acc * 2
            acc = acc + step.a

    def test_builds_only_the_restart_states(self, monkeypatch):
        machine, config = build_gcd(1000, 3)
        diagram = run(machine, config)
        built, real = [], engine._state
        monkeypatch.setattr(engine, "_state", lambda record, *rest: built.append(record[0]) or real(record, *rest))
        steps = wall_trace(diagram)
        assert len(diagram.snapshots) > 1000
        assert built == [step.time for step in steps] and len(steps) == 2


@pytest.fixture(scope="module")
def diagram():
    machine, config = build_gcd_phi()
    return run(machine, config, RunLimits(max_events=320))


class TestGcdPhi:
    def test_never_halts_within_budget(self, diagram):
        assert diagram.halt_reason == EVENT_LIMIT
        assert len(diagram.events) >= 320

    def test_first_collision_position_and_time(self, diagram):
        first = diagram.events[0]
        assert first.position == phi() - 1
        assert first.time == 1 / (1 + phi())
        assert first.time == 2 - phi()

    def test_all_event_times_below_total_bound(self, diagram):
        bound = (phi() + 1) * 4
        assert all(e.time < bound for e in diagram.events)

    def test_trace_is_the_golden_tail(self, diagram):
        steps = wall_trace(diagram)
        assert len(steps) >= 40
        ref = euclid_trace(phi(), PHI_CONTEXT.one(), max_steps=len(steps) + 1)
        # the launcher shifts the recursion by one step: the first walls
        # appear at distances (1, phi - 1), which is step 1 of the reference
        for got, (ra, rb, q, _) in zip(steps, ref[1:]):
            assert got.a == ra and got.b == rb and q == 1

    def test_partial_sums_below_bound(self, diagram):
        steps = wall_trace(diagram)
        total = Q.zero()
        for s in steps:
            total = total + s.a
        assert total < (phi() + 1) * 2

    def test_wall_widths_strictly_decrease(self, diagram):
        steps = wall_trace(diagram)
        for s, t in zip(steps, steps[1:]):
            assert t.a < s.a and t.b < s.b
            assert t.b.sign() > 0

    def test_restart_clock_uses_the_back_and_forth_time(self, diagram):
        # tau = 1/phi + 1 = phi; restarts at 1 + phi * (partial sums of a)
        steps = wall_trace(diagram)
        tau = 1 / phi() + 1
        assert tau == phi()
        acc = PHI_CONTEXT.zero()
        for s in steps:
            assert s.time == 1 + tau * acc
            acc = acc + s.a

    def test_long_horizon_stays_exact(self):
        # 1500 events deep, the golden-ratio identities still hold bit-exactly
        machine, config = build_gcd_phi()
        deep = run(machine, config, RunLimits(max_events=1500))
        assert len(deep.events) >= 1500
        bound = (phi() + 1) * 4
        assert all(e.time < bound for e in deep.events)
        steps = wall_trace(deep)
        assert len(steps) >= 200
        # a_n * phi == a_{n-1} exactly along the whole trace
        for s, t in zip(steps, steps[1:]):
            assert t.a * phi() == s.a
