"""Known values for the benchmark's oracles and input generators.

    python3 -m pytest bench/test_oracles.py -q
"""

from __future__ import annotations

import math
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from sigmach.engine import RunLimits, run  # noqa: E402
from sigmach.mesh import StripSpec, support_machine_nu, strip_configuration  # noqa: E402


@pytest.mark.parametrize(
    "op, a, b, want",
    [
        ("sub", Fraction(7), Fraction(3), Fraction(4)),
        ("mod", Fraction(11), Fraction(3), Fraction(2)),
        ("mod", Fraction(9), Fraction(3), Fraction(0)),
        ("mod", Fraction(7, 2), Fraction(2, 3), Fraction(1, 6)),
        ("gcd", Fraction(12), Fraction(8), Fraction(4)),
        ("gcd", Fraction(37, 2), Fraction(5, 3), Fraction(1, 6)),
        ("gcd", Fraction(1000), Fraction(3), Fraction(1)),
    ],
)
def test_arith_expected(op, a, b, want):
    assert oracles.arith_expected(op, a, b) == want


def test_sm4_closed_forms():
    assert oracles.sm4_event(1) == (Fraction(7, 9), Fraction(4, 9))
    assert oracles.sm4_event(2) == (Fraction(-49, 81), Fraction(64, 81))
    assert oracles.sm4_event(3) == (Fraction(343, 729), Fraction(772, 729))
    for n in (1, 5, 40):
        _, t = oracles.sm4_event(n)
        assert oracles.SM4_LIMIT_TIME - t == 2 * Fraction(7, 9) ** n


@pytest.mark.parametrize(
    "surd, quotients, ratio",
    [
        ((-1, 1, 2), [2], (Fraction(-1), Fraction(1))),  # sqrt2 - 1 -> sqrt2 - 1
        ((-1, 1, 3), [1, 2], (Fraction(2), Fraction(-1))),  # sqrt3 - 1 -> 2 - sqrt3
        ((-1, 2, 5), [1], (Fraction(-1, 2), Fraction(1, 2))),  # phi - 1 -> phi - 1
        ((0, 2, 2), [1, 2], (Fraction(-1), Fraction(1))),  # sqrt2/2 = [0; 1, 2, 2, ...]
    ],
)
def test_contraction_ratio(surd, quotients, ratio):
    assert oracles.partial_quotients(*surd) == quotients
    assert oracles.contraction_ratio(*surd) == ratio


def test_contraction_ratio_is_a_unit_below_one():
    rng = random.Random(5)
    for d, m in workloads.ACCUM_SURDS:
        P, Q, D = workloads._accum_surd(rng, d, m)
        assert 0 < oracles.surd_value(P, Q, D) < 1
        u, v = oracles.contraction_ratio(P, Q, D)
        assert 0 < float(u) + float(v) * math.sqrt(D) < 1
        assert u * u - v * v * D in (1, -1)  # a product over a period is a unit


def test_floor_surd_matches_floats():
    rng = random.Random(7)
    for _ in range(500):
        D = rng.choice([2, 3, 5, 6, 7, 12, 45])
        P, Q = rng.randint(-30, 30), rng.choice([q for q in range(-9, 10) if q])
        assert oracles._floor_surd(P, Q, D) == math.floor((P + math.sqrt(D)) / Q)


def test_surd_must_be_well_formed():
    with pytest.raises(ValueError):
        oracles.gauss_orbit(0, 1, 4)
    with pytest.raises(ValueError):
        oracles.gauss_orbit(1, 3, 5)


STRIP_HORIZON = Fraction(3, 5) + 3 * Fraction(1, 2)
STRIP_SPEEDS = {"L": Fraction(-1), "S": Fraction(0), "R": Fraction(2, 3)}


def _strip_run(x0):
    machine = support_machine_nu(2, 3)
    config = strip_configuration(StripSpec.make(2, 3, x0, 1), machine)
    return run(machine, config, RunLimits(max_time=machine.ctx.scalar(STRIP_HORIZON)))


def test_strip_included_in_itself():
    d = _strip_run(0)
    assert oracles.included(d, d, STRIP_SPEEDS, STRIP_HORIZON) == (True, "")


def test_shifted_strip_is_not_included():
    ok, why = oracles.included(_strip_run(Fraction(1, 5)), _strip_run(0), STRIP_SPEEDS, STRIP_HORIZON)
    assert not ok and why


def test_strip_period_shift():
    d = _strip_run(0)
    assert oracles.period_shift_holds(d, Fraction(1, 2), Fraction(1, 2), STRIP_HORIZON) == (True, "")
    assert not oracles.period_shift_holds(d, Fraction(1, 2), Fraction(1, 3), STRIP_HORIZON)[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_follow_the_seed(name, tmp_path):
    make = workloads.WORKLOADS[name]
    first, again, other = make(1, str(tmp_path)), make(1, str(tmp_path)), make(2, str(tmp_path))
    assert len(first.cases) >= 100
    labels = [c.label for c in first.cases]
    assert labels == [c.label for c in again.cases]
    assert labels != [c.label for c in other.cases]
