import os
import random
import re
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "bench"))

import oracles  # noqa: E402
import sigmach.analysis as analysis  # noqa: E402
import sigmach.engine as engine  # noqa: E402
import sigmach.mesh as mesh  # noqa: E402
import sigmach.scalars as scalars  # noqa: E402
from sigmach.analysis import detect_contraction, diagram_included  # noqa: E402
from sigmach.engine import RunLimits, run  # noqa: E402
from sigmach.mesh import (  # noqa: E402
    LEFT,
    RIGHT,
    STILL,
    MeshSpec,
    StripSpec,
    embed_in_mesh,
    mesh_configuration,
    strip_configuration,
    support_machine_nu,
    verify_mesh_inclusion,
)
from sigmach.model import InitialConfiguration, MachineError, SignalMachine  # noqa: E402
from sigmach.presets import PHI_CONTEXT, build_gcd, phi  # noqa: E402
from sigmach.scalars import FieldContext, IncommensurateError  # noqa: E402
from sigmach.verify import _desk_scale_mesh_case  # noqa: E402

Q = FieldContext(0)


class TestSpecs:
    def test_fraction_reduces(self):
        spec = StripSpec.make(4, 6, 0, 1)
        assert (spec.p, spec.q) == (2, 3)
        assert spec.subdivisions == 5
        # integral Fractions are integers
        assert StripSpec.make(Fraction(4), Fraction(6), 0, 1) == spec
        want = support_machine_nu(2, 3).distinct_speeds()
        assert support_machine_nu(Fraction(2), 3).distinct_speeds() == want

    @pytest.mark.parametrize("p, q, bad", [
        (2.7, 1, "2.7"), (Fraction(5, 2), 1, "Fraction(5, 2)"), (2, 3.0, "3.0"), (2, "3", "'3'"),
    ])
    def test_p_and_q_must_be_integers(self, p, q, bad):
        for make in (lambda: StripSpec.make(p, q, 0, 1), lambda: support_machine_nu(p, q)):
            with pytest.raises(ValueError, match=f"must be an integer, not {re.escape(bad)}$"):
                make()

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            StripSpec.make(0, 3, 0, 1)
        with pytest.raises(ValueError):
            StripSpec.make(2, 3, 0, 0)
        with pytest.raises(ValueError):
            MeshSpec(StripSpec.make(1, 1, 0, 1), 0)

    def test_derived_quantities(self):
        spec = StripSpec.make(2, 3, 0, 1)
        assert spec.transient_time == Q.scalar(Fraction(3, 5))
        assert spec.period_candidate == Q.scalar(Fraction(1, 2))


class TestConfigurations:
    def test_strip_2_3(self):
        machine = support_machine_nu(2, 3)
        config = strip_configuration(StripSpec.make(2, 3, 0, 1), machine)
        shape = {str(p): sorted(m.name for m in sigs) for p, sigs in config.sites}
        assert shape == {
            "0": ["L", "R", "S"],
            "1/5": ["S"],
            "2/5": ["S"],
            "3/5": ["S"],
            "4/5": ["S"],
            "1": ["L", "R", "S"],
        }

    def test_strip_1_1(self):
        machine = support_machine_nu(1, 1)
        config = strip_configuration(StripSpec.make(1, 1, 0, 1), machine)
        assert [str(p) for p in config.positions()] == ["0", "1/2", "1"]

    def test_strip_shifted_scaled(self):
        machine = support_machine_nu(2, 3)
        config = strip_configuration(StripSpec.make(2, 3, 5, 10), machine)
        assert [str(p) for p in config.positions()] == [
            "5", "7", "9", "11", "13", "15",
        ]

    def test_mesh_k1_equals_strip(self):
        machine = support_machine_nu(2, 3)
        spec = StripSpec.make(2, 3, 0, 1)
        assert mesh_configuration(MeshSpec(spec, 1), machine) == strip_configuration(
            spec, machine
        )

    def test_mesh_site_count(self):
        machine = support_machine_nu(1, 2)
        config = mesh_configuration(MeshSpec(StripSpec.make(1, 2, 0, 1), 2), machine)
        assert len(config) == 7  # k(p+q) + 1
        junctions = [p for p, sigs in config.sites if len(sigs) == 3]
        assert [str(p) for p in junctions] == ["0", "1", "2"]

    def test_mesh_figure_2_3_k3(self):
        machine = support_machine_nu(2, 3)
        config = mesh_configuration(MeshSpec(StripSpec.make(2, 3, 0, 1), 3), machine)
        assert len(config) == 16
        assert [str(p) for p, s in config.sites if len(s) == 3] == ["0", "1", "2", "3"]


class TestCentralCollision:
    """A strip's first L, S, R triple collision is where its two extremal
    moving signals first meet: x = x0 + w*p/(p+q), t = w*q/(p+q)."""

    @staticmethod
    def first_triple(spec):
        machine = support_machine_nu(spec.p, spec.q)
        diagram = run(machine, strip_configuration(spec, machine), RunLimits(max_time=spec.w))
        hits = [e for e in diagram.events if {m.name for m in e.incoming} == {"L", "S", "R"}]
        return hits[0].position, hits[0].time

    def test_formula_2_3(self):
        x, t = self.first_triple(StripSpec.make(2, 3, 0, 1))
        assert (x, t) == (Q.scalar(Fraction(2, 5)), Q.scalar(Fraction(3, 5)))

    def test_formula_symmetric(self):
        x, t = self.first_triple(StripSpec.make(1, 1, 0, 1))
        assert (x, t) == (Q.scalar(Fraction(1, 2)), Q.scalar(Fraction(1, 2)))

    def test_simulation_has_the_triple(self):
        x, t = self.first_triple(StripSpec.make(2, 3, 5, 10))
        assert (x, t) == (Q.scalar(9), Q.scalar(6))


class TestEmbedding:
    def test_gcd_of_gaps(self):
        machine = support_machine_nu(1, 1)
        config = InitialConfiguration.build(
            machine, [("S", 0), ("S", Fraction(1, 2)), ("S", 2)]
        )
        spec = embed_in_mesh(config, 1, 1)
        assert spec.strip.w == Q.scalar(Fraction(1, 2))
        assert spec.k == 4
        assert spec.strip.x0 == Q.zero()

    def test_two_sites(self):
        machine = support_machine_nu(2, 3)
        config = InitialConfiguration.build(machine, [("L", 0), ("R", 1)])
        spec = embed_in_mesh(config, 2, 3)
        assert spec.strip.w == Q.one() and spec.k == 1

    def test_irrational_gap_rejected(self):
        machine = support_machine_nu(1, 1, PHI_CONTEXT)
        config = InitialConfiguration.build(
            machine, [("S", 0), ("S", 1), ("S", phi())]
        )
        with pytest.raises(IncommensurateError):
            embed_in_mesh(config, 1, 1)

    def test_single_site_rejected(self):
        machine = support_machine_nu(1, 1)
        config = InitialConfiguration.build(machine, [("S", 0)])
        with pytest.raises(MachineError):
            embed_in_mesh(config, 1, 1)

    def test_every_position_lands_on_the_grid(self):
        rng = random.Random(23)
        machine = support_machine_nu(2, 1)
        for _ in range(40):
            positions = sorted(
                {Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3))) for _ in range(4)}
            )
            if len(positions) < 2:
                continue
            config = InitialConfiguration.build(
                machine, [("S", p) for p in positions]
            )
            spec = embed_in_mesh(config, 2, 1)
            for p in config.positions():
                ratio = (p - spec.strip.x0) / spec.strip.w
                assert ratio.b == 0 and ratio.a.denominator == 1
                assert 0 <= int(ratio.a) <= spec.k


class TestMeshVerification:
    def test_gcd_8_3_horizon_30(self):
        machine, config = build_gcd(8, 3)
        report = verify_mesh_inclusion(machine, config, horizon=Q.scalar(30))
        assert report.included
        assert report.events_inside
        assert report.periodicity is not None
        assert detect_contraction(report.mesh_diagram) is None
        assert report.ok

    def test_each_scalar_is_hashed_at_most_once(self, monkeypatch):
        hashed = []  # the scalars whose hash was computed, kept alive
        real = scalars._rational_hash

        def counted(p, n):
            hashed.append(sys._getframe(1).f_locals["self"])
            return real(p, n)

        monkeypatch.setattr(scalars, "_rational_hash", counted)
        assert verify_mesh_inclusion(*build_gcd(8, 3)).ok
        assert len(hashed) > 100
        assert len({id(s) for s in hashed}) == len(hashed)

    def test_gcd_phi_reports_embedding_error(self):
        machine, _ = build_gcd(phi(), 1, ctx=PHI_CONTEXT)
        config = InitialConfiguration.build(
            machine, [("wall0", 0), ("zig", 0), ("wall_b", 1), ("wall_a", phi())]
        )
        with pytest.raises(IncommensurateError):
            verify_mesh_inclusion(machine, config)

    def test_a_two_speed_machine_is_rejected(self):
        machine = SignalMachine.build([("r", 1), ("s", 0)], [(("r", "s"), ("s",))])
        config = InitialConfiguration.build(machine, [("r", 0), ("s", 1)])
        with pytest.raises(MachineError) as err:
            verify_mesh_inclusion(machine, config)
        assert err.value.args == ("mesh verification needs a 3-speed machine",)

    def test_an_irrational_speed_ratio_is_rejected(self):
        machine = SignalMachine.build(
            [("l", -1), ("s", 0), ("r", phi())], [(("r", "s"), ("s",))], ctx=PHI_CONTEXT
        )
        config = InitialConfiguration.build(machine, [("r", 0), ("s", 1), ("l", 2)])
        with pytest.raises(IncommensurateError) as err:
            verify_mesh_inclusion(machine, config)
        assert err.value.args == ("speed ratios are irrational: no mesh exists",)

    def test_mesh_event_structure_after_transient(self):
        machine, config = build_gcd(8, 3)
        report = verify_mesh_inclusion(machine, config)
        spec = report.spec
        lo, hi = spec.span
        t_T = spec.strip.transient_time
        for e in report.mesh_diagram.events:
            assert lo <= e.position <= hi
            if e.time >= t_T:
                names = {m.name for m in e.incoming}
                assert "S" in names  # no pure L/R meeting after the transient
                if lo < e.position < hi:
                    assert names == {"L", "S", "R"}

    def test_mesh_periodicity_repeats_three_periods(self):
        machine, config = build_gcd(8, 3)
        report = verify_mesh_inclusion(machine, config)
        cert = report.periodicity
        assert cert is not None
        horizon = report.mesh_diagram.horizon
        assert cert.transient + 3 * cert.period <= horizon

    def test_certificates_and_verdicts_agree_with_the_bench_oracles(self):
        # the oracles in bench/oracles.py share no code with sigmach: the
        # periodicity certificate must hold event by event, and inclusion
        # must give the oracle's verdict both ways, True and False alike
        rng = random.Random(20260810)
        verdicts = set()
        for _ in range(24):
            report = verify_mesh_inclusion(*_desk_scale_mesh_case(rng))
            strip = report.spec.strip
            horizon = oracles.as_fraction(strip.transient_time + 3 * strip.period_candidate)
            speeds = {LEFT: Fraction(-1), STILL: Fraction(0), RIGHT: Fraction(strip.p, strip.q)}
            cert = report.periodicity
            assert cert is not None
            ok, why = oracles.period_shift_holds(
                report.mesh_diagram,
                oracles.as_fraction(cert.transient),
                oracles.as_fraction(cert.period),
                horizon,
            )
            assert ok, why
            pairs = [(report.support_diagram, report.mesh_diagram)]
            pairs.append(pairs[0][::-1])
            for inner, outer in pairs:
                expected, _ = oracles.included(inner, outer, speeds, horizon)
                assert diagram_included(inner, outer) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_every_mesh_window_is_decided_by_states(self, monkeypatch):
        # the mesh span is closed: its walls shed only -1 signals to the left
        # and p/q signals to the right, so no candidate falls back to the
        # shifted pieces, and each candidate time's state is read once
        reads, fallbacks = [], []
        real_at, real_pieces, real_detect = (
            engine._Snapshots.at,
            analysis._shifted_pieces,
            mesh.detect_periodicity,
        )

        def at(snaps, t):
            reads.append(t)
            return real_at(snaps, t)

        def shifted_pieces(*args):
            fallbacks.append(args)
            return real_pieces(*args)

        def detect_periodicity(*args):
            reads.clear()
            cert = real_detect(*args)
            assert reads and len(set(reads)) == len(reads)
            return cert

        monkeypatch.setattr(engine._Snapshots, "at", at)
        monkeypatch.setattr(analysis, "_shifted_pieces", shifted_pieces)
        monkeypatch.setattr(mesh, "detect_periodicity", detect_periodicity)
        rng = random.Random(20260810)
        for _ in range(12):
            report = verify_mesh_inclusion(*_desk_scale_mesh_case(rng))
            assert report.periodicity is not None
            assert detect_contraction(report.mesh_diagram) is None
        assert fallbacks == []
