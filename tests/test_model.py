import random
import re
from fractions import Fraction

import pytest

from sigmach.model import (
    AffineMap,
    InitialConfiguration,
    MachineError,
    SignalMachine,
    apply_affine_to_configuration,
    apply_affine_to_machine,
    classify,
    normalize_speeds,
    support_configuration,
    support_machine,
    validate,
)
from sigmach.presets import PHI_CONTEXT, build_gcd, build_gcd_phi, build_sm4, phi
from sigmach.scalars import FieldContext
from sigmach.verify import random_configuration, random_machine

Q = FieldContext(0)


class TestValidate:
    def test_sm4_is_valid(self):
        machine, _ = build_sm4()
        assert validate(machine) == []

    def test_gcd_is_valid(self):
        machine, _ = build_gcd(8, 3)
        assert validate(machine) == []

    def test_output_speed_clash(self):
        machine = SignalMachine.build(
            [("a", 1), ("b", 0), ("c", 1)],
            [(("a", "b"), ("b", "c"))],  # b and c... b=0, c=1 fine
        )
        assert validate(machine) == []
        bad = SignalMachine(
            Q,
            *_raw_machine_parts(
                [("a", 1), ("b", 0), ("c", 1)],
                [(("a", "b"), ("a", "c"))],  # outputs share speed 1
            ),
        )
        problems = validate(bad)
        assert any("output speeds not distinct" in p for p in problems)

    def test_input_arity(self):
        bad = SignalMachine(
            Q,
            *_raw_machine_parts([("a", 1), ("b", 0)], [(("a",), ("a",))]),
        )
        problems = validate(bad)
        assert any("rule needs at least two incoming signals" in p for p in problems)

    def test_input_speed_clash(self):
        bad = SignalMachine(
            Q,
            *_raw_machine_parts([("a", 1), ("b", 1)], [(("a", "b"), ("a",))]),
        )
        problems = validate(bad)
        assert any("input speeds not distinct" in p for p in problems)

    @pytest.mark.parametrize(
        "speeds, rules, message",
        [
            (
                [("a", 1), ("b", 1), ("c", 0), ("d", -1)],
                [(("a", "c"), ("a", "b")), (("b", "d"), ())],
                "output speeds not distinct in a,b",
            ),
            ([("a", 1), ("b", 1)], [(("a", "b"), ())], "input speeds not distinct"),
            ([("a", 1), ("b", 0)], [(("a",), ("b",))], "rule needs at least two incoming signals"),
        ],
    )
    def test_build_rejects_what_validate_rejects(self, speeds, rules, message):
        with pytest.raises(MachineError, match=re.escape(message)):
            SignalMachine.build(speeds, rules)
        raw = SignalMachine(Q, *_raw_machine_parts(speeds, rules))
        assert any(message in p for p in validate(raw))

    def test_validate_leads_each_fault_with_its_rule(self):
        raw = SignalMachine(
            Q, *_raw_machine_parts([("b", 1), ("a", 1), ("c", 0)], [(("c", "b"), ("b", "a"))])
        )
        assert validate(raw) == ["rule b,c -> a,b: output speeds not distinct in a,b"]

    @pytest.mark.parametrize(
        "rule, reason",
        [
            ((("a", "b"), ("c", "c")), "output speeds not distinct in c,c"),
            ((("a", "a", "b"), ()), "input speeds not distinct in a,a,b"),
            ((("a", "ghost"), ()), "unknown meta-signal 'ghost'"),
        ],
    )
    def test_build_counts_a_name_written_twice(self, rule, reason):
        with pytest.raises(MachineError) as err:
            SignalMachine.build([("a", 1), ("b", 0), ("c", -1)], [(("a", "c"), ()), rule])
        assert (err.value.reason, err.value.entry) == (reason, ("rule", 1))

    @pytest.mark.parametrize("name", ["a b", "x,y", "", "#c", "1a", "a@b"])
    def test_build_rejects_a_name_the_format_cannot_write(self, name):
        with pytest.raises(MachineError) as err:
            SignalMachine.build([("a", 1), (name, 0)])
        assert (err.value.reason, err.value.entry) == (f"bad meta-signal name {name!r}", ("signal", 1))

    def test_build_reports_the_first_bad_entry(self):
        with pytest.raises(MachineError) as err:
            SignalMachine.build([("a", 1), ("b", 0), ("a", 2), ("b", 3)])
        assert (err.value.reason, err.value.entry) == ("duplicate meta-signal 'a'", ("signal", 2))
        with pytest.raises(MachineError) as err:
            SignalMachine.build(
                [("a", 1), ("b", 0)], [(("a", "b"), ()), (("b", "a"), ("a",)), (("a",), ())]
            )
        assert (err.value.reason, err.value.entry) == ("duplicate rule for ['a', 'b']", ("rule", 1))


def _raw_machine_parts(speeds, rules):
    """Bypass build() checks to construct deliberately broken machines."""
    from sigmach.model import MetaSignal

    signals = [MetaSignal(n, i) for i, (n, _) in enumerate(speeds)]
    by_name = {s.name: s for s in signals}
    speed = {by_name[n]: Q.scalar(v) for n, v in speeds}
    rule_map = {
        frozenset(by_name[n] for n in ins): frozenset(by_name[n] for n in outs)
        for ins, outs in rules
    }
    return signals, speed, rule_map


class TestConfiguration:
    def test_sites_sorted_and_merged(self):
        machine, _ = build_sm4()
        config = InitialConfiguration.build(
            machine, [("right", 1), ("zig", -1), ("left", -1)]
        )
        assert [str(p) for p, _ in config.sites] == ["-1", "1"]
        assert len(config.sites[0][1]) == 2

    def test_colocated_equal_speeds_rejected(self):
        machine, _ = build_gcd(8, 3)
        with pytest.raises(MachineError):
            InitialConfiguration.build(machine, [("wall_a", 0), ("wall_b", 0)])

    def test_placements_are_checked_in_order(self):
        machine = SignalMachine.build([("a", 1), ("b", 1), ("c", 0)])
        placements = [("a", 0), ("c", 0), ("a", 0), ("b", 0), ("ghost", 1)]
        with pytest.raises(MachineError) as err:
            InitialConfiguration.build(machine, placements)
        reason = "co-located signals with equal speed at 0: ['a', 'b', 'c']"
        assert (err.value.reason, err.value.entry) == (reason, ("init", 3))
        with pytest.raises(MachineError) as err:
            InitialConfiguration.build(machine, placements[:3] + placements[4:])
        assert (err.value.reason, err.value.entry) == ("unknown meta-signal 'ghost'", ("init", 3))


class TestClassify:
    def test_gcd_8_3(self):
        machine, config = build_gcd(8, 3)
        c = classify(machine, config)
        assert c.speed_count == 3
        assert c.rational
        assert c.rational_like_machine
        assert c.rational_like_config

    def test_gcd_phi_config_is_not_rational_like(self):
        machine, _ = build_gcd(phi(), 1, ctx=PHI_CONTEXT)
        config = InitialConfiguration.build(
            machine, [("wall0", 0), ("zig", 0), ("wall_b", 1), ("wall_a", phi())]
        )
        c = classify(machine, config)
        assert c.speed_count == 3
        assert not c.rational
        assert not c.rational_like_config
        assert c.rational_like_machine

    def test_irrational_speed_machine(self):
        machine, config = build_gcd_phi()
        c = classify(machine, config)
        assert not c.rational_like_machine  # speeds -1, 0, phi: steps 1 and phi
        assert c.rational_like_config

    def test_rational_like_is_affine_invariant_in_q_sqrt5(self):
        # v -> (2/3)v + sqrt 5 moves rational machines and configurations into
        # Q(sqrt 5); differences only scale, so both verdicts stay true
        q5 = FieldContext(5)
        amap = AffineMap(q5.scalar(Fraction(2, 3)), q5.sqrt_term(1, 5))
        rng = random.Random(3)
        for _ in range(200):
            machine = random_machine(rng, rng.randint(2, 4))
            config = random_configuration(rng, machine)
            c = classify(
                apply_affine_to_machine(machine, amap),
                apply_affine_to_configuration(config, amap),
            )
            assert not c.rational
            assert c.rational_like_machine and c.rational_like_config

    def test_three_speeds_rational_like_iff_nu_is_rational(self):
        q5 = FieldContext(5)
        pool = [q5.scalar(a, b) for a in range(-2, 3) for b in (0, 1)]
        rng = random.Random(4)
        verdicts = set()
        for _ in range(200):
            speeds = rng.sample(pool, 3)
            machine = SignalMachine.build(
                [(f"s{i}", v) for i, v in enumerate(speeds)], ctx=q5
            )
            config = InitialConfiguration.build(machine, [("s0", 0)])
            nu = normalize_speeds(machine)[0].distinct_speeds()[-1]
            verdict = classify(machine, config).rational_like_machine
            assert verdict == (nu.b == 0)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_single_speed(self):
        machine = SignalMachine.build([("a", 1)])
        config = InitialConfiguration.build(machine, [("a", 0)])
        assert classify(machine, config).speed_count == 1


class TestGenerators:
    def test_random_machine_rejects_a_pool_too_small(self):
        three = lambda r: Fraction(r.choice((-1, 0, 1)))  # noqa: E731
        with pytest.raises(ValueError):
            random_machine(random.Random(0), 4, speed_pool=three)


class TestAffine:
    def test_two_point_normalization(self):
        machine = SignalMachine.build([("x", -3), ("y", 5)])
        a, b = machine.distinct_speeds()
        amap = AffineMap.through(a, b, Q.zero(), Q.one())
        moved = apply_affine_to_machine(machine, amap)
        assert sorted(str(s) for s in moved.distinct_speeds()) == ["0", "1"]

    def test_identity(self):
        machine, _ = build_sm4()
        moved = apply_affine_to_machine(machine, AffineMap.identity(Q))
        assert moved.speed == machine.speed

    def test_third_speed_lands_on_nu(self):
        machine = SignalMachine.build(
            [("a", Fraction(-1, 2)), ("b", Fraction(1, 2)), ("c", 3)]
        )
        normalized, _ = normalize_speeds(machine)
        assert [str(s) for s in normalized.distinct_speeds()] == ["-1", "0", "5/2"]

    def test_config_inverse_image_scaling(self):
        machine, _ = build_gcd_phi()
        ctx = machine.ctx
        config = InitialConfiguration.build(
            machine, [("wall0", 0), ("wall_b", 1), ("wall_a", phi())]
        )
        doubled = AffineMap(ctx.scalar(2), ctx.zero())
        moved = apply_affine_to_configuration(config, doubled)
        assert list(moved.positions()) == [ctx.zero(), ctx.scalar(Fraction(1, 2)), phi() / 2]

    def test_config_shift(self):
        machine, config = build_sm4()
        shifted = apply_affine_to_configuration(
            config, AffineMap(Q.one(), Q.scalar(3))
        )
        assert [str(p) for p in shifted.positions()] == ["-4", "-2"]

    def test_affine_preserves_validity(self):
        rng = random.Random(5)
        for _ in range(25):
            machine = random_machine(rng, rng.randint(2, 4))
            amap = AffineMap(Q.scalar(Fraction(3, 2)), Q.scalar(-2))
            assert validate(apply_affine_to_machine(machine, amap)) == validate(machine)

    def test_rational_like_invariant_under_affine(self):
        machine, config = build_gcd_phi()
        ctx = machine.ctx
        amap = AffineMap(ctx.scalar(Fraction(2, 3)), ctx.scalar(7))
        moved = apply_affine_to_machine(machine, amap)
        assert (
            classify(moved, config).rational_like_machine
            == classify(machine, config).rational_like_machine
        )


class TestSupport:
    def test_gcd_support_has_three_signals_and_full_rules(self):
        machine, _ = build_gcd(8, 3)
        supp, projection = support_machine(machine)
        assert len(supp.signals) == 3
        everything = frozenset(supp.signals)
        assert len(supp.rules) == 4  # subsets of size 2 and 3
        assert all(out == everything for out in supp.rules.values())
        assert set(projection) == set(machine.signals)

    def test_sm4_support_rule_count(self):
        machine, _ = build_sm4()
        supp, _ = support_machine(machine)
        assert len(supp.signals) == 4
        assert len(supp.rules) == 11  # C(4,2) + C(4,3) + C(4,4)

    def test_idempotent_up_to_renaming(self):
        machine, _ = build_gcd(8, 3)
        supp, _ = support_machine(machine)
        supp2, _ = support_machine(supp)
        assert supp2.distinct_speeds() == supp.distinct_speeds()
        assert len(supp2.signals) == len(supp.signals)
        assert {
            frozenset(m.name for m in k) for k in supp2.rules
        } == {frozenset(m.name for m in k) for k in supp.rules}

    def test_support_configuration_merges_classes(self):
        machine, config = build_gcd(8, 3)
        supp, projection = support_machine(machine)
        sc = support_configuration(config, projection)
        # wall0 and zig co-located stay two signals (distinct speeds)
        assert len(sc.sites) == len(config.sites)
        # a denormalized site holding two same-class signals collapses to one
        # representative (the validating builder would reject this input)
        zig, big = machine.by_name("zig"), machine.by_name("ZIG")
        raw = InitialConfiguration([(Q.zero(), frozenset({zig, big}))])
        sc2 = support_configuration(raw, projection)
        assert len(sc2.sites[0][1]) == 1


class TestNormalize:
    def test_two_speed(self):
        machine = SignalMachine.build([("a", 1), ("b", phi(PHI_CONTEXT))], ctx=PHI_CONTEXT)
        normalized, amap = normalize_speeds(machine)
        assert [str(s) for s in normalized.distinct_speeds()] == ["0", "1"]
        assert amap.ratio.sign() > 0

    def test_already_normalized_is_identity(self):
        machine = SignalMachine.build([("a", 0), ("b", 1)])
        normalized, amap = normalize_speeds(machine)
        assert amap.ratio == Q.one() and amap.offset == Q.zero()
        assert normalized.speed == machine.speed

    def test_rational_like_machine_gets_rational_nu(self):
        rng = random.Random(9)
        for _ in range(25):
            machine = random_machine(rng, 3)
            nu = normalize_speeds(machine)[0].distinct_speeds()[-1]
            assert nu.b == 0 and nu.sign() > 0

    def test_wrong_speed_count(self):
        machine, _ = build_sm4()
        with pytest.raises(MachineError):
            normalize_speeds(machine)


class TestSupportInclusionStructure:
    def test_projection_preserves_speeds(self):
        rng = random.Random(2)
        for _ in range(20):
            machine = random_machine(rng, rng.randint(2, 4))
            supp, projection = support_machine(machine)
            for ms in machine.signals:
                assert machine.speed_of(ms) == supp.speed_of(projection[ms])
