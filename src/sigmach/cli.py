"""Command-line front end.

Exit codes: 0 success (quiescent halt or certified result), 1 wrong usage or
input, 2 missing collision rule, 3 budget exhausted without a certificate,
so CI can tell "inconclusive" from "wrong".
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Optional, Sequence

from .analysis import ContractionSearch
from .engine import (
    EVENT_LIMIT,
    MISSING_RULE,
    QUIESCENT,
    TIME_LIMIT,
    RunLimits,
    run,
)
from .mesh import MeshSpec, StripSpec, mesh_configuration, support_machine_nu
from .presets import (
    ReadoutError,
    build_gcd,
    build_gcd_phi,
    build_modulo,
    build_sm4,
    build_subtraction,
    read_arithmetic_result,
    read_encoded_value,  # noqa: F401  (kept importable here: bench/tracing.py patches it)
)
from .scalars import FieldContext, format_scalar
from .svg import render_diagram
from .textio import MachineParseError, event_log_lines, init_lines, parse_machine_file
from .verify import SUITES, suite_2speed_exhaustive

PRESETS = ("sm4", "sub", "mod", "gcd", "gcd-phi")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage errors exit 1, not 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="sigmach", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="simulate a machine file or preset")
    src = runp.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESETS)
    src.add_argument("--file", help="machine-definition file")
    runp.add_argument("--a", default="11", help="first operand for arithmetic presets")
    runp.add_argument("--b", default="3", help="second operand for arithmetic presets")
    runp.add_argument("--max-events", type=int, default=10_000)
    runp.add_argument("--max-time", default=None, help="exact scalar time bound")
    runp.add_argument("--detect-accumulation", action="store_true")
    runp.add_argument("--svg", metavar="PATH", help="write an SVG rendering")
    runp.add_argument("--log", metavar="PATH", help="write the exact event log")

    verp = sub.add_parser("verify", help="run a seeded property suite")
    verp.add_argument("suite", choices=sorted(SUITES) + ["2speed-exhaustive"])
    verp.add_argument("--seed", type=int, default=None, help="default 0")
    verp.add_argument("--count", type=int, default=None, help="at least 1")
    verp.add_argument("--horizon", default=None, help="exact scalar horizon (mesh suite)")

    meshp = sub.add_parser("mesh", help="emit a mesh initial configuration")
    meshp.add_argument("--p", type=int, required=True)
    meshp.add_argument("--q", type=int, required=True)
    meshp.add_argument("--x0", default="0")
    meshp.add_argument("--w", default="1")
    meshp.add_argument("--k", type=int, default=1)
    return p


def _load_system(args):
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return parse_machine_file(fh.read()), None
    if args.preset == "sm4":
        return build_sm4(), None
    builders = {"sub": build_subtraction, "mod": build_modulo, "gcd": build_gcd}
    if args.preset in builders:
        ctx = _operand_field(args.a, args.b)
        a, b = ctx.parse(args.a), ctx.parse(args.b)
        return builders[args.preset](a, b, ctx=ctx), args.preset
    return build_gcd_phi(), None


def _operand_field(*texts: str) -> FieldContext:
    """Q(sqrt(d)) for the first irrational radical among the operands, else
    Q; an operand with a different radical then fails to parse."""
    for d in re.findall(r"sqrt\((\d+)\)", " ".join(texts)):
        ctx = FieldContext(int(d))
        if not ctx.is_rational:
            return ctx
    return FieldContext(0)


def _cmd_run(args) -> int:
    try:
        (machine, config), arith = _load_system(args)
        max_time = machine.ctx.parse(args.max_time) if args.max_time else None
        limits = RunLimits(max_events=args.max_events, max_time=max_time)
    except MachineParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    # one search for the whole run: probes at doubling event counts feed it
    # the states recorded since the last probe, and after the run it reads
    # the rest, so no pair of states is tested twice
    search = ContractionSearch() if args.detect_accumulation else None
    certifier = None
    if search is not None:
        probe = {"next": 4}

        def certifier(snapshots):
            count = snapshots.event_count(-1)
            if count < probe["next"]:
                return None
            probe["next"] = count * 2
            return search.feed(snapshots)

    diagram = run(machine, config, limits, certifier)
    print(f"halt: {diagram.halt_reason} after {len(diagram.events)} events")

    certificate = diagram.certificate
    if search is not None and certificate is None:
        certificate = search.feed(diagram.snapshots)
    accum_point = None
    if certificate is not None:
        print(certificate.serialize())
        print(
            f"  (decimal: center={float(certificate.center_x):.9g} "
            f"time={float(certificate.limit_time):.9g} "
            f"ratio={float(certificate.ratio):.9g})"
        )
        accum_point = (certificate.center_x, certificate.limit_time)

    if arith is not None and diagram.halt_reason == QUIESCENT:
        try:
            value = read_arithmetic_result(arith, diagram.final_state, machine)
            print(f"result = {format_scalar(value)}")
        except ReadoutError as e:
            print(f"readout failed: {e}", file=sys.stderr)
            return 1

    try:
        if args.log:
            with open(args.log, "w", encoding="utf-8") as fh:
                fh.write("\n".join(event_log_lines(diagram)) + "\n")
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(render_diagram(diagram, accum_point))
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if diagram.halt_reason == MISSING_RULE:
        print(f"missing rule: {diagram.halt_detail}", file=sys.stderr)
        return 2
    if diagram.halt_reason in (EVENT_LIMIT, TIME_LIMIT) and certificate is None:
        return 3
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "2speed-exhaustive":
        results = suite_2speed_exhaustive()
    else:
        suite = SUITES[args.suite]
        kwargs = {"seed": args.seed or 0}
        if args.count is not None:
            kwargs["count"] = args.count
        if args.horizon is not None:
            try:
                horizon = FieldContext(0).parse(args.horizon)
                if horizon < 0:
                    raise ValueError("horizon must be >= 0")
                kwargs["horizon"] = horizon
            except ValueError as e:
                print(f"error: {e}", file=sys.stderr)
                return 1
        results = suite(**kwargs)
    failures = 0
    for r in results:
        status = "pass" if r.ok else "FAIL"
        tail = f"  {r.detail}" if r.detail else ""
        print(f"case {r.index:4d}: {status}{tail}")
        failures += 0 if r.ok else 1
    print(f"{args.suite}: {len(results) - failures}/{len(results)} passed")
    return 0 if failures == 0 else 1


def _cmd_mesh(args) -> int:
    ctx = FieldContext(0)
    try:
        spec = MeshSpec(
            StripSpec(args.p, args.q, ctx.parse(args.x0), ctx.parse(args.w)), args.k
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    machine = support_machine_nu(spec.strip.p, spec.strip.q, ctx)
    config = mesh_configuration(spec, machine)
    for line in init_lines(config):
        print(line)
    return 0


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """The parsed command line; verify options that do not fit the chosen
    suite are usage errors."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command != "verify":
        return args
    if args.count is not None and args.count < 1:
        parser.error("argument --count: must be at least 1")
    if args.suite == "2speed-exhaustive":
        for option in ("count", "seed"):
            if getattr(args, option) is not None:
                parser.error(f"argument --{option}: 2speed-exhaustive always runs all its cases")
    if args.horizon is not None and args.suite != "mesh":
        parser.error("argument --horizon: only the mesh suite takes a horizon")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_mesh(args)


if __name__ == "__main__":
    sys.exit(main())
