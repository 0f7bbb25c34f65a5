"""The benchmark's three workloads: seeded inputs, the timed call into
sigmach, and the check of every output against ``oracles``.

Each workload builds its cases once from the seed (this is set-up, timed as
part of ``setup_s``).  ``execute`` is the only part that is timed per case;
``check`` raises ``CheckFailed`` on any disagreement with the oracles (and
``ValueError`` where an exact value turns out irrational).

What sets a case's cost (quotients, mesh shapes, event budgets) follows a
fixed schedule by case index, and the seed draws the rest (operand scales,
machines, positions, surds), so the total work of a round barely moves from
seed to seed while the inputs themselves do.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import oracles
import sigmach.analysis as analysis
import sigmach.cli as cli
import sigmach.engine as engine
import sigmach.mesh as mesh
import sigmach.presets as presets
from sigmach.model import InitialConfiguration, SignalMachine
from sigmach.scalars import FieldContext


class CheckFailed(AssertionError):
    """An output of sigmach disagrees with the benchmark's own computation."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Case:
    label: str
    data: dict


def _size_schedule(n: int, top: int, shape: float) -> list[int]:
    """n sizes from 1 to top: size_j = top^((j/(n-1))^shape)."""
    return [max(1, round(top ** ((j / (n - 1)) ** shape))) for j in range(n)]


# -- arith: sub / mod / gcd through the CLI ------------------------------------

# op -> (cases, largest quotient).  Sizes are spread by _size_schedule with
# shape 1/2, which puts the median case (about 15 ms) among the mid-sized
# mod and gcd runs rather than among CLI-only start-ups, whose timings swing
# more with the load on the host.
ARITH_CASES = {"sub": (20, 300), "mod": (50, 80), "gcd": (50, 100)}
ARITH_SHAPE = 0.5
_RESULT = re.compile(r"^result = (\S+)$", re.M)
_HALT = re.compile(r"^halt: (\S+) after (\d+) events$", re.M)


class Arith:
    """`sigmach run --preset sub|mod|gcd --a A --b B --log FILE`, in-process.

    a = b * (n + f): the quotient n and the fractional part f (sixths, so the
    remainder chain stays short; 0 in every eighth case with n > 1) follow
    the case's slot, and the scale b comes from the seed.
    """

    name = "arith"

    def __init__(self, seed: int, scratch: str) -> None:
        rng = random.Random(seed)
        self.log_path = os.path.join(scratch, "arith.log")
        self.cases: list[Case] = []
        for op, (count, top) in ARITH_CASES.items():
            for j, n in enumerate(_size_schedule(count, top, ARITH_SHAPE)):
                b = Fraction(rng.randint(1, 12), rng.randint(1, 6))
                # f sets the length of the remainder chain, and with it a
                # small case's cost, so it follows the slot, not the seed
                f = Fraction(0) if j % 8 == 3 and n > 1 else Fraction(j % 5 + 1, 6)
                a = b * (n + f)
                argv = ["run", "--preset", op, "--a", str(a), "--b", str(b), "--log", self.log_path]
                self.cases.append(Case(f"{op}({a},{b})", {"op": op, "a": a, "b": b, "argv": argv}))

    def execute(self, case: Case):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(case.data["argv"])
        return code, out.getvalue()

    def check(self, case: Case, result) -> None:
        """Reads the log this case just wrote; the next case overwrites it."""
        code, stdout = result
        with open(self.log_path, encoding="utf-8") as fh:
            log = fh.read()
        d = case.data
        _require(code == 0, f"exit code {code}")
        halt = _HALT.search(stdout)
        _require(halt is not None and halt.group(1) == "quiescent", f"not quiescent: {stdout!r}")
        m = _RESULT.search(stdout)
        _require(m is not None, f"no result line: {stdout!r}")
        want = oracles.arith_expected(d["op"], d["a"], d["b"])
        _require(Fraction(m.group(1)) == want, f"result {m.group(1)}, want {want}")
        lines = log.splitlines()
        n = int(halt.group(2))
        _require(len(lines) == n, f"log has {len(lines)} lines for {n} events")
        for i, line in enumerate(lines):
            _require(line.startswith(f"E {i} "), f"log line {i} is {line!r}")


# -- mesh: random rational 3-speed machines --------------------------------------

# (p, q, k, copies): the mesh run's size is fixed by the speed ratio p/q and the
# number k of strips, so these set the cost of a case.
MESH_SHAPES = [
    (1, 1, 1, 10), (1, 2, 1, 10), (2, 1, 1, 10), (1, 1, 2, 8), (1, 3, 1, 8),
    (3, 1, 1, 6), (1, 2, 2, 8), (2, 1, 2, 6), (1, 1, 4, 8), (2, 3, 1, 6),
    (3, 2, 1, 6), (1, 1, 6, 6), (1, 2, 4, 4), (2, 1, 4, 4), (1, 4, 2, 4),
    (2, 3, 3, 2), (1, 1, 10, 2), (3, 4, 2, 2),
]


def _mesh_case(rng: random.Random, p: int, q: int, k: int) -> dict:
    """A random machine with three speeds s1 < s2 < s3, (s3 - s2)/(s2 - s1) = p/q,
    and sites on x0 + w*{0..k} (0 and k always used, gaps coprime), so that the
    embedding mesh is exactly (p, q, x0, w, k)."""
    ctx = FieldContext(0)
    s2 = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
    alpha = Fraction(rng.randint(1, 4), rng.choice((1, 2, 3)))
    classes = [s2 - alpha, s2, s2 + alpha * Fraction(p, q)]
    speeds = classes + [rng.choice(classes) for _ in range(rng.randint(0, 2))]
    rng.shuffle(speeds)
    names = [f"m{i}" for i in range(len(speeds))]
    by_class = {v: [n for n, s in zip(names, speeds) if s == v] for v in classes}
    rules = []
    for pick in ((0, 1), (0, 2), (1, 2), (0, 1, 2)):
        ins = tuple(rng.choice(by_class[classes[c]]) for c in pick)
        outs = tuple(rng.choice(by_class[v]) for v in classes if rng.random() < 0.65)
        rules.append((ins, outs))
    machine = SignalMachine.build(list(zip(names, speeds)), rules, ctx=ctx)

    x0 = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
    w = Fraction(rng.randint(1, 5), rng.choice((1, 2, 3, 4)))
    while True:
        idx = sorted({0, k} | set(rng.sample(range(k + 1), rng.randint(0, min(k + 1, 4)))))
        if math.gcd(*(b - a for a, b in zip(idx, idx[1:]))) == 1:
            break
    placements = []
    for i in idx:
        for c in rng.sample(range(3), rng.randint(1, 3)):
            placements.append((rng.choice(by_class[classes[c]]), x0 + w * i))
    config = InitialConfiguration.build(machine, placements)
    return {"machine": machine, "config": config, "p": p, "q": q, "k": k, "x0": x0, "w": w}


class Mesh:
    """`verify_mesh_inclusion` plus `detect_contraction` on the support run,
    as `sigmach verify mesh` does for each case."""

    name = "mesh"

    def __init__(self, seed: int, scratch: str) -> None:
        rng = random.Random(seed)
        self.cases = []
        for p, q, k, copies in MESH_SHAPES:
            for _ in range(copies):
                d = _mesh_case(rng, p, q, k)
                self.cases.append(Case(f"mesh p/q={p}/{q} k={k} x0={d['x0']} w={d['w']}", d))
        self.cells = sum(k * (p + q) * copies for p, q, k, copies in MESH_SHAPES)

    def execute(self, case: Case):
        d = case.data
        report = mesh.verify_mesh_inclusion(d["machine"], d["config"])
        return report, analysis.detect_contraction(report.support_diagram)

    def check(self, case: Case, result) -> None:
        report, support_cert = result
        d = case.data
        p, q, k, x0, w = d["p"], d["q"], d["k"], d["x0"], d["w"]
        _require(report.ok, "report not ok")
        _require(support_cert is None, f"support run has a contraction {support_cert}")
        strip = report.spec.strip
        got = (strip.p, strip.q, oracles.as_fraction(strip.x0), oracles.as_fraction(strip.w), report.spec.k)
        _require(got == (p, q, x0, w, k), f"embedding {got}, want {(p, q, x0, w, k)}")
        horizon = w * Fraction(q, p + q) + 3 * w / p
        speeds = {mesh.LEFT: Fraction(-1), mesh.STILL: Fraction(0), mesh.RIGHT: Fraction(p, q)}
        ok, why = oracles.included(report.support_diagram, report.mesh_diagram, speeds, horizon)
        _require(ok, f"support not included in mesh: {why}")
        lo, hi = x0, x0 + k * w
        for x, t, _, _ in oracles.event_set(report.mesh_diagram, horizon):
            _require(lo <= x <= hi, f"mesh event ({x}, {t}) outside [{lo}, {hi}]")
        cert = report.periodicity
        window = tuple(oracles.as_fraction(s) for s in cert.window)
        _require(window == (lo, hi), f"periodicity window {window}")
        ok, why = oracles.period_shift_holds(
            report.mesh_diagram, oracles.as_fraction(cert.transient), oracles.as_fraction(cert.period), horizon
        )
        _require(ok, f"mesh not periodic as certified: {why}")


# -- accum: certified accumulations -------------------------------------------------

# D = d*m^2 for the surds (P + sqrt D)/Q; the field is Q(sqrt d).  Each gives a
# remainder recursion with a short period, so a certificate fits the budget.
ACCUM_SURDS = [(2, 1), (3, 1), (5, 1), (6, 1), (7, 1), (10, 1), (11, 1), (2, 2), (3, 2), (5, 2)]
ACCUM_GCD_CASES = 90
ACCUM_GCD_BUDGET = 100
ACCUM_PHI_BUDGETS = [100, 140, 180, 220] * 3
ACCUM_SM4_DEPTHS = [400, 600, 800, 1000] * 2
GCD_PHI_SURD = (-1, 2, 5)  # phi - 1, where the launcher plants the first wall


def _accum_surd(rng: random.Random, d: int, m: int) -> tuple[int, int, int]:
    """x = 1/(c_1 + 1/(c_2 + ... + frac(m*sqrt d))) with 0 to 2 seeded c_i in 1..3."""
    D = d * m * m
    P, Q = -math.isqrt(D), 1
    for _ in range(rng.randint(0, 2)):
        c = rng.randint(1, 3)
        P, Q = -(c * Q + P), (D - (c * Q + P) ** 2) // Q
    return P, Q, D


class Accum:
    """Runs to a fixed event budget, then `detect_contraction` and
    `contraction_replay_matches`: the gcd machine on (1, r) for seeded
    quadratic irrationals r, `gcd-phi`, and `sm4` at depth."""

    name = "accum"

    def __init__(self, seed: int, scratch: str) -> None:
        rng = random.Random(seed)
        self.cases = []
        for i in range(ACCUM_GCD_CASES):
            d, m = ACCUM_SURDS[i % len(ACCUM_SURDS)]
            P, Q, D = _accum_surd(rng, d, m)
            ctx = FieldContext(d)
            r = ctx.scalar(Fraction(P, Q), Fraction(m, Q))
            machine, config = presets.build_gcd(1, r, ctx=ctx)
            self.cases.append(Case(
                f"gcd(1, ({P}+sqrt{D})/{Q})",
                {"kind": "gcd", "machine": machine, "config": config, "budget": ACCUM_GCD_BUDGET,
                 "surd": (P, Q, D), "d": d, "m": m},
            ))
        for budget in ACCUM_PHI_BUDGETS:
            machine, config = presets.build_gcd_phi()
            self.cases.append(Case(
                f"gcd-phi[{budget}]",
                {"kind": "gcd", "machine": machine, "config": config, "budget": budget,
                 "surd": GCD_PHI_SURD, "d": 5, "m": 1},
            ))
        for depth in ACCUM_SM4_DEPTHS:
            machine, config = presets.build_sm4()
            self.cases.append(Case(
                f"sm4[{depth}]", {"kind": "sm4", "machine": machine, "config": config, "budget": depth}
            ))

    def execute(self, case: Case):
        d = case.data
        diagram = engine.run(d["machine"], d["config"], engine.RunLimits(max_events=d["budget"]))
        cert = analysis.detect_contraction(diagram)
        replays = cert is not None and analysis.contraction_replay_matches(diagram, cert)
        return diagram, cert, replays

    def check(self, case: Case, result) -> None:
        diagram, cert, replays = result
        d = case.data
        _require(
            diagram.halt_reason == engine.EVENT_LIMIT and len(diagram.events) == d["budget"],
            f"halt {diagram.halt_reason} after {len(diagram.events)} of {d['budget']} events",
        )
        _require(cert is not None, "no contraction certificate")
        _require(replays, "certificate does not replay")
        _require(oracles.as_fraction(cert.center_x) == 0, f"center {cert.center_x}, want the left wall 0")
        if d["kind"] == "sm4":
            for e in diagram.events:
                x, t = oracles.sm4_event(e.index + 1)
                _require(
                    oracles.as_fraction(e.position) == x and oracles.as_fraction(e.time) == t,
                    f"event {e.index} at ({e.position}, {e.time}), want ({x}, {t})",
                )
            got = (oracles.as_fraction(cert.limit_time), oracles.as_fraction(cert.ratio))
            _require(got == (oracles.SM4_LIMIT_TIME, oracles.SM4_RATIO), f"certificate {cert}")
            return
        u, v = oracles.contraction_ratio(*d["surd"])
        ratio = cert.ratio
        got = (Fraction(ratio.a), Fraction(ratio.b), ratio.d)
        want = (u, v * d["m"], d["d"])
        _require(got == want, f"ratio {ratio}, want {u} + {v}*sqrt({d['surd'][2]})")


WORKLOADS = {w.name: w for w in (Arith, Mesh, Accum)}
