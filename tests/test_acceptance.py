"""Acceptance suite: every criterion at its stated tolerance (zero, unless a
wall-clock bound is part of the criterion).  Each check prints one pass/fail
line; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import functools
import random
import time
from fractions import Fraction

import pytest

from sigmach.analysis import detect_contraction, detect_periodicity
from sigmach.engine import EVENT_LIMIT, RunLimits, run
from sigmach.mesh import StripSpec, strip_configuration, support_machine_nu
from sigmach.presets import (
    PHI_CONTEXT,
    build_gcd_phi,
    build_sm4,
    geometric_result,
    phi,
    wall_trace,
)
from sigmach.scalars import FieldContext, euclid_trace
from sigmach.verify import (
    random_run_case,
    suite_2speed,
    suite_2speed_exhaustive,
    suite_affine,
    suite_gcd,
    suite_mesh,
    suite_run,
    suite_scheduler,
    suite_support,
)

Q = FieldContext(0)
SEED = 20260810


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL: {description}")
                raise
            print(f"[criterion {number}] PASS: {description}")

        return inner

    return wrap


def _assert_suite(results):
    bad = [r for r in results if not r.ok]
    assert not bad, f"{len(bad)} failing cases, first: {bad[0]}"


@criterion(1, "SM4 first 100 events match the closed forms exactly, under 1 s")
def test_c01_sm4_exactness():
    machine, config = build_sm4()
    started = time.perf_counter()
    diagram = run(machine, config, RunLimits(max_events=100))
    elapsed = time.perf_counter() - started
    assert len(diagram.events) == 100
    ratio = Q.scalar(Fraction(7, 9))
    gain = Q.scalar(Fraction(4, 9))
    x = Q.scalar(-1)  # x_0; the recurrence x_{n+1} = -(7/9) x_n closes to
    for event in diagram.events:  # x_n = (-1)^(n+1) (7/9)^n
        x = x * (-ratio)
        assert event.position == x
    t = Q.zero()
    power = Q.one()
    for event in diagram.events:  # t_n = (4/9) * sum_{i<n} (7/9)^i
        t = t + gain * power
        power = power * ratio
        assert event.time == t
    assert elapsed < 1.0, f"run took {elapsed:.3f}s"


@criterion(2, "SM4 contraction certificate is exactly center 0, time 2, ratio 49/81")
def test_c02_sm4_certificate():
    machine, config = build_sm4()
    diagram = run(machine, config, RunLimits(max_events=40))
    cert = detect_contraction(diagram)
    assert cert is not None
    assert cert.center_x == Q.zero()
    assert cert.limit_time == Q.scalar(2)
    assert cert.ratio == Q.scalar(Fraction(49, 81))


@criterion(3, "arithmetic machines match the integer oracles on fixed and random inputs")
def test_c03_arithmetic_machines():
    assert geometric_result("sub", 11, 3) == Q.scalar(8)
    assert geometric_result("mod", 11, 3) == Q.scalar(2)
    assert geometric_result("gcd", 8, 3) == Q.one()
    _assert_suite(suite_gcd(seed=SEED, count=200))


@criterion(4, "2-speed runs halt within the i*j bound; sorted arrangements reach it")
def test_c04_two_speed_bound():
    _assert_suite(suite_2speed_exhaustive())
    _assert_suite(suite_2speed(seed=SEED, count=100))


@criterion(5, "the golden-ratio run never halts, stays inside its exact bounds, "
             "and walks the reference remainder recursion")
def test_c05_phi_run():
    machine, config = build_gcd_phi()
    diagram = run(machine, config, RunLimits(max_events=300))
    assert diagram.halt_reason == EVENT_LIMIT
    assert len(diagram.events) >= 300

    time_bound = (phi() + 1) * 4
    assert all(e.time < time_bound for e in diagram.events)

    steps = wall_trace(diagram)
    assert len(steps) >= 40
    reference = euclid_trace(phi(), PHI_CONTEXT.one(), max_steps=len(steps) + 1)
    # the rational start shifts the walls by one recursion step: the first
    # encoded pair is (1, phi-1), which is the reference's second row
    tail = reference[1:]
    assert euclid_trace(tail[0][0], tail[0][1], max_steps=len(steps)) == [
        row for row in tail[: len(steps)]
    ]
    for got, (ra, rb, _, _) in zip(steps, tail):
        assert got.a == ra and got.b == rb

    total = PHI_CONTEXT.zero()
    for s in steps:
        total = total + s.a
    assert total < (phi() + 1) * 2


STRIP_WINDOW = (Q.zero(), Q.one())
STRIP_HORIZON = Q.scalar(3)


@pytest.fixture(scope="module")
def strip_diagram():
    machine = support_machine_nu(2, 3)
    config = strip_configuration(StripSpec.make(2, 3, 0, 1), machine)
    return run(machine, config, RunLimits(max_events=4000, max_time=STRIP_HORIZON))


@criterion("6a", "the strip has its central triple collision at exactly (2/5, 3/5)")
def test_c06a_strip_central_triple(strip_diagram):
    hits = [
        e
        for e in strip_diagram.events
        if e.position == Q.scalar(Fraction(2, 5)) and e.time == Q.scalar(Fraction(3, 5))
    ]
    assert len(hits) == 1
    assert len(hits[0].incoming) == 3


@criterion("6b", "detect_periodicity reports transient exactly 3/5")
def test_c06b_strip_transient_as_stated(strip_diagram):
    # As stated this pins the least transient to the first in-phase triple
    # (3/5).  The exact search finds that the windowed configuration already
    # repeats from 1/2 onward: the wall bounces lock into the periodic train
    # one whole period before the central collision, and every configuration
    # and collision signature from 1/2 matches its +T partner.  3/5 is an
    # upper bound for the transient, not the least one, so this check fails
    # and is kept failing deliberately; see the sibling checks for what the
    # simulation does establish.
    cert = detect_periodicity(strip_diagram, STRIP_WINDOW, STRIP_HORIZON)
    assert cert is not None
    assert cert.transient == Q.scalar(Fraction(3, 5)), (
        f"least transient is {cert.transient}, the stated 3/5 is only an upper bound"
    )


@criterion("6c", "the strip period is exact and resolves the w/p vs w/q ambiguity")
def test_c06c_strip_period_resolution(strip_diagram):
    spec = StripSpec.make(2, 3, 0, 1)
    cert = detect_periodicity(strip_diagram, STRIP_WINDOW, STRIP_HORIZON)
    assert cert is not None
    w_over_p = spec.w / spec.p
    w_over_q = spec.w / spec.q
    assert cert.period in (w_over_p, w_over_q)
    resolved = "w/p" if cert.period == w_over_p else "w/q"
    print(f"    [criterion 6c] empirical period T = {cert.period} = {resolved}")
    assert cert.period == w_over_p  # the lemma statement's formula wins
    # the stated transient 3/5 is a valid repetition start (just not least)
    assert cert.transient <= Q.scalar(Fraction(3, 5))


@criterion("6d", "the windowed strip configuration repeats for at least 3 periods")
def test_c06d_strip_three_periods(strip_diagram):
    from sigmach.engine import configuration_at

    cert = detect_periodicity(strip_diagram, STRIP_WINDOW, STRIP_HORIZON)
    t0 = Q.scalar(Fraction(3, 5))
    assert t0 + 3 * cert.period <= STRIP_HORIZON
    lo, hi = STRIP_WINDOW
    probes = [t0 + Fraction(k, 11) for k in range(12)]
    for t in probes:
        for k in (1, 2, 3):
            shifted = t + cert.period * k
            if shifted > STRIP_HORIZON:
                continue
            a = [s for s in configuration_at(strip_diagram, t).sites if lo <= s[0] <= hi]
            b = [
                s
                for s in configuration_at(strip_diagram, shifted).sites
                if lo <= s[0] <= hi
            ]
            assert a == b


@criterion(7, "20 random rational 3-speed systems stay inside their meshes, "
             "which are periodic and contraction-free")
def test_c07_mesh_theorem_desk_scale():
    _assert_suite(suite_mesh(seed=SEED, count=20))


@criterion(8, "50 random affine transforms leave event logs in exact bijection")
def test_c08_affine_covariance():
    _assert_suite(suite_affine(seed=SEED, count=50))


@criterion(9, "neighbor-scan scheduling equals brute force on 200 random states")
def test_c09_scheduler_oracle():
    _assert_suite(suite_scheduler(seed=SEED, count=200))


@criterion("9b", "whole runs equal the brute-force run on 200 machines in Q and Q(sqrt 5)")
def test_c09b_whole_run_oracle():
    _assert_suite(suite_run(seed=SEED, count=200))
    # the cases cover multi-way collisions in both fields and every halt
    rng = random.Random(SEED)
    multiway, halts = {0: 0, 5: 0}, set()
    for i in range(200):
        machine, config, limits = random_run_case(rng, i)
        diagram = run(machine, config, limits)
        multiway[machine.ctx.d] += sum(len(e.incoming) >= 3 for e in diagram.events)
        halts.add(diagram.halt_reason)
    assert min(multiway.values()) >= 20, multiway
    assert halts == {"quiescent", "event_limit", "time_limit", "missing_rule"}


@criterion(10, "50 random runs embed event-for-event into their support runs")
def test_c10_support_inclusion():
    _assert_suite(suite_support(seed=SEED, count=50))
