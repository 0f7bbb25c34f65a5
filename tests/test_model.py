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
        assert any("input arity < 2" in p for p in problems)

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
                "rule {a,c}: output speeds not distinct",
            ),
            ([("a", 1), ("b", 1)], [(("a", "b"), ())], "input speeds not distinct"),
            ([("a", 1), ("b", 0)], [(("a",), ("b",))], "input arity < 2"),
        ],
    )
    def test_build_rejects_what_validate_rejects(self, speeds, rules, message):
        with pytest.raises(MachineError, match=re.escape(message)):
            SignalMachine.build(speeds, rules)
        raw = SignalMachine(Q, *_raw_machine_parts(speeds, rules))
        assert any(message in p for p in validate(raw))


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
        assert not c.rational_like_machine  # phi against -1
        assert c.rational_like_config

    def test_single_speed(self):
        machine = SignalMachine.build([("a", 1)])
        config = InitialConfiguration.build(machine, [("a", 0)])
        assert classify(machine, config).speed_count == 1


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
        normalized, _, _ = normalize_speeds(
            machine, InitialConfiguration.build(machine, [("a", 0)])
        )
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
        normalized, _, amap = normalize_speeds(
            machine, InitialConfiguration.build(machine, [("a", 0)])
        )
        assert [str(s) for s in normalized.distinct_speeds()] == ["0", "1"]
        assert amap.ratio.sign() > 0

    def test_already_normalized_is_identity(self):
        machine = SignalMachine.build([("a", 0), ("b", 1)])
        normalized, _, amap = normalize_speeds(
            machine, InitialConfiguration.build(machine, [("a", 0)])
        )
        assert amap.ratio == Q.one() and amap.offset == Q.zero()
        assert normalized.speed == machine.speed

    def test_rational_like_machine_gets_rational_nu(self):
        rng = random.Random(9)
        for _ in range(25):
            machine = random_machine(rng, 3)
            config = random_configuration(rng, machine)
            normalized, _, _ = normalize_speeds(machine, config)
            nu = normalized.distinct_speeds()[-1]
            assert nu.b == 0 and nu.sign() > 0

    def test_wrong_speed_count(self):
        machine, _ = build_sm4()
        with pytest.raises(MachineError):
            normalize_speeds(machine, InitialConfiguration([]))


class TestSupportInclusionStructure:
    def test_projection_preserves_speeds(self):
        rng = random.Random(2)
        for _ in range(20):
            machine = random_machine(rng, rng.randint(2, 4))
            supp, projection = support_machine(machine)
            for ms in machine.signals:
                assert machine.speed_of(ms) == supp.speed_of(projection[ms])
