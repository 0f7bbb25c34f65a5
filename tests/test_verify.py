"""Every seeded suite of `verify` can fail: a fault injected through the
name a suite looks up turns each case it reaches into that suite's FAIL
text, not a pass."""

import dataclasses
import re

import pytest

from sigmach import verify
from sigmach.engine import CERTIFIED_ACCUMULATION

REAL_RUN = verify.run


def faulty_run(fault, only=lambda machine: True):
    """`run` with fault(diagram) applied to the diagram of each machine that
    `only` accepts."""

    def run(machine, config, limits=None):
        diagram = REAL_RUN(machine, config, limits)
        if only(machine):
            fault(diagram)
        return diagram

    return run


def moved_first_event(diagram):
    first = diagram.events[0]
    diagram.events[0] = first._replace(position=first.position + 1)


def emptied_incoming(diagram):
    diagram.events[:] = [e._replace(incoming=frozenset()) for e in diagram.events]


def details(results):
    return [r.detail for r in results]


def assert_each_fails(results, pattern):
    assert results and all(re.fullmatch(pattern, r.detail) for r in results), details(results)


# the event counts of the oracle on the first cases of `run` at seed 1
RUN_EVENTS = [9, 8, 9, 6, 1, 9, 3, 10]


class TestRunSuite:
    def test_a_dropped_event_is_a_count_mismatch(self, monkeypatch):
        monkeypatch.setattr(verify, "run", faulty_run(lambda d: d.events.pop()))
        results = verify.suite_run(seed=1, count=len(RUN_EVENTS))
        assert details(results) == [f"{n - 1} events, oracle {n}" for n in RUN_EVENTS]

    def test_a_moved_event_is_a_line_mismatch(self, monkeypatch):
        monkeypatch.setattr(verify, "run", faulty_run(moved_first_event))
        assert_each_fails(verify.suite_run(seed=1, count=len(RUN_EVENTS)), r"line 0: '.+' != '.+'")

    def test_a_wrong_halt_reason(self, monkeypatch):
        fault = faulty_run(lambda d: setattr(d, "halt_reason", CERTIFIED_ACCUMULATION))
        monkeypatch.setattr(verify, "run", fault)
        assert_each_fails(verify.suite_run(seed=1, count=4), rf"halt {CERTIFIED_ACCUMULATION}, oracle \w+")


REAL_TWO_SPEED = verify.two_speed_bound_check


def overcounted(machine, config):
    report = REAL_TWO_SPEED(machine, config)
    return dataclasses.replace(report, count=report.count + 1)


class TestTwoSpeedSuites:
    def test_an_extra_event_fails_each_random_case(self, monkeypatch):
        monkeypatch.setattr(verify, "two_speed_bound_check", overcounted)
        results = verify.suite_2speed(seed=0, count=10)
        assert_each_fails(results, r"count=\d+ crossings=\d+ bound=\d+")
        for r in results:
            count, crossings = re.match(r"count=(\d+) crossings=(\d+)", r.detail).groups()
            assert int(count) == int(crossings) + 1

    def test_an_extra_event_fails_each_sorted_case(self, monkeypatch):
        monkeypatch.setattr(verify, "two_speed_bound_check", overcounted)
        assert details(verify.suite_2speed_exhaustive()) == [
            f"i={i} j={j} count={i * j + 1}" for i in range(6) for j in range(6)
        ]


def test_a_transform_that_ignores_its_map_fails_affine(monkeypatch):
    # a run with no events looks the same under any map; the first two
    # cases at seed 0 have events
    monkeypatch.setattr(verify, "apply_affine_to_machine", lambda machine, amap: machine)
    assert_each_fails(verify.suite_affine(seed=0, count=2), r"halt (\w+)/\1, (\d+)/\2 events")


class TestSupportSuite:
    @pytest.mark.parametrize(
        "fault, pattern",
        [
            (lambda d: d.events.clear(), r"event E\d+@\(.+\) \{.*\}->\{.*\} missing from support run"),
            (emptied_incoming, r"incoming mismatch at E\d+@\(.+\) \{.*\}->\{.*\}"),
        ],
        ids=["missing", "incoming"],
    )
    def test_a_faulty_support_run_fails(self, fault, pattern, monkeypatch):
        supports, real = [], verify.support_machine

        def support_machine(machine):
            supp_m, projection = real(machine)
            supports.append(supp_m)
            return supp_m, projection

        # the original runs of the first three cases at seed 0 have events
        monkeypatch.setattr(verify, "support_machine", support_machine)
        monkeypatch.setattr(verify, "run", faulty_run(fault, lambda m: m in supports))
        assert_each_fails(verify.suite_support(seed=0, count=3), pattern)


def test_a_contracting_support_run_fails_mesh(monkeypatch):
    monkeypatch.setattr(verify, "detect_contraction", lambda diagram: object())
    assert details(verify.suite_mesh(seed=0, count=2)) == [
        "included=True inside=True periodic=True supp_free=False"
    ] * 2


def test_an_off_by_one_result_fails_gcd(monkeypatch):
    real = verify.geometric_result
    monkeypatch.setattr(verify, "geometric_result", lambda kind, a, b: real(kind, a, b) + 1)
    assert_each_fails(verify.suite_gcd(seed=0, count=6), r"(sub|mod|gcd)\(\S+,\S+\) = \S+, want \S+")


def test_a_zero_delay_fails_scheduler(monkeypatch):
    # the next delay is positive or None, never 0
    monkeypatch.setattr(verify, "next_collision_delta", lambda machine, state: (machine.ctx.zero(), []))
    assert_each_fails(verify.suite_scheduler(seed=0, count=6), r"\(Scalar\(0\), \[\]\) != \(.+\)")
