import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sigmach
import sigmach.analysis as analysis
import sigmach.engine as engine
from sigmach import cli, verify
from sigmach.analysis import detect_contraction
from sigmach.cli import main
from sigmach.svg import render_diagram
from sigmach.engine import RunLimits, run
from sigmach.scalars import parse_scalar
from sigmach.presets import ReadoutError, build_sm4
from sigmach.verify import SUITES

MACHINES = Path(__file__).resolve().parent.parent / "machines"
README = MACHINES.parent / "README.md"


def readme_run_examples():
    """The README's `sigmach run` commands that state an output line, as
    (argv, line): the line follows the command's `#`, or fills the
    comment-only line under it, and `prints "..."` states the quoted text."""
    section = README.read_text().split("## Command line", 1)[1]
    lines = section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    examples = []
    for line, below in zip(lines, lines[1:] + [""]):
        command, _, stated = line.partition("#")
        if not command.startswith("sigmach run"):
            continue
        if not stated.strip() and below.lstrip().startswith("#"):
            stated = below.lstrip()[1:]
        stated = stated.strip()
        if stated:
            quoted = re.fullmatch(r'prints "(.*)"', stated)
            examples.append((shlex.split(command)[1:], quoted.group(1) if quoted else stated))
    return examples


class TestReadmeExamples:
    def test_the_stated_examples_are_found(self):
        assert [argv[:3] for argv, _ in readme_run_examples()] == [
            ["run", "--preset", "mod"],
            ["run", "--preset", "sm4"],
            ["run", "--preset", "gcd"],
        ]

    @pytest.mark.parametrize(
        "argv, stated", [pytest.param(*e, id=e[0][2]) for e in readme_run_examples()]
    )
    def test_example_prints_its_stated_line(self, argv, stated, capsys):
        assert main(argv) == 0
        assert stated in capsys.readouterr().out.splitlines()


class TestRunCommand:
    def test_modulo_preset_prints_result(self, capsys):
        assert main(["run", "--preset", "mod", "--a", "11", "--b", "3"]) == 0
        out = capsys.readouterr().out
        assert "result = 2" in out

    def test_subtraction_preset(self, capsys):
        assert main(["run", "--preset", "sub", "--a", "11", "--b", "3"]) == 0
        assert "result = 8" in capsys.readouterr().out

    def test_gcd_preset(self, capsys):
        assert main(["run", "--preset", "gcd", "--a", "8", "--b", "3"]) == 0
        assert "result = 1" in capsys.readouterr().out

    def test_sm4_accumulation_detection(self, capsys):
        assert main(["run", "--preset", "sm4", "--detect-accumulation"]) == 0
        out = capsys.readouterr().out
        assert "ACCUMULATION center=0 time=2 ratio=49/81" in out

    def test_a_failed_readout_exits_1(self, capsys, monkeypatch):
        def read_arithmetic_result(kind, state, machine):
            raise ReadoutError("ambiguous final state: []")

        monkeypatch.setattr(cli, "read_arithmetic_result", read_arithmetic_result)
        assert main(["run", "--preset", "gcd"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "halt: quiescent after 23 events\n"
        assert captured.err == "readout failed: ambiguous final state: []\n"

    @pytest.mark.parametrize(
        "argv, code, line",
        [(["--preset", "gcd"], 0, "result = 1"), (["--preset", "sm4", "--max-events", "3"], 3, None)],
    )
    def test_the_module_entry_point_exits_with_the_command_code(self, argv, code, line):
        src = str(Path(sigmach.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "sigmach.cli", "run", *argv],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == code, done.stderr
        assert line is None or line in done.stdout.splitlines()

    def test_sm4_without_detection_is_inconclusive(self, capsys):
        assert main(["run", "--preset", "sm4", "--max-events", "20"]) == 3

    def test_sm4_certified_after_the_event_budget(self, capsys):
        # three events are too few for the run's own certifier; the check
        # after the run finds the contraction
        assert main(["run", "--preset", "sm4", "--max-events", "3", "--detect-accumulation"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == [
            "halt: event_limit after 3 events",
            "ACCUMULATION center=0 time=2 ratio=49/81",
        ]

    def test_gcd_phi_preset_detection(self, capsys):
        argv = ["run", "--preset", "gcd-phi", "--max-events", "20", "--detect-accumulation"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("halt: certified_accumulation after 8 events\n")

    def test_gcd_phi_detection_from_file(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--file",
                    str(MACHINES / "gcd_phi.machine"),
                    "--detect-accumulation",
                    "--max-events",
                    "200",
                ]
            )
            == 0
        )
        assert "ACCUMULATION center=0" in capsys.readouterr().out

    def test_equal_speed_rule_is_a_parse_error(self, capsys, tmp_path):
        f = tmp_path / "bad.machine"
        f.write_text("signal a 1\nsignal b 1\nsignal c 0\nrule a,c -> a,b\ninit a@0\ninit c@1\n")
        assert main(["run", "--file", str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: line 4: output speeds not distinct in a,b\n"

    def test_irrational_operand_accumulates(self, capsys):
        argv = ["run", "--preset", "gcd", "--a", "1", "--b=-1+1*sqrt(2)"]
        assert main(argv + ["--max-events", "60", "--detect-accumulation"]) == 0
        out = capsys.readouterr().out
        assert "ACCUMULATION center=0 time=2+1*sqrt(2) ratio=-1+1*sqrt(2)" in out

    @pytest.mark.parametrize(
        "system, events",
        [
            (["--preset", "gcd", "--a", "1", "--b=-1+1*sqrt(2)"], 16),
            (["--preset", "gcd", "--a", "1", "--b=-1+1*sqrt(3)"], 16),
            (["--preset", "sm4"], 4),
            (["--preset", "gcd-phi"], 8),
        ],
    )
    def test_the_certifier_tests_no_pair_twice(self, system, events, capsys, monkeypatch):
        # the probes at 4, 8, 16, ... events feed one search, so the run
        # tests exactly the pairs of one search over the states it recorded
        tested, real = [], analysis._homothety

        def homothety(s1, s2):
            tested.append((s1.time, s2.time))
            return real(s1, s2)

        monkeypatch.setattr(analysis, "_homothety", homothety)
        assert main(["run", *system, "--detect-accumulation"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"halt: certified_accumulation after {events} events"
        by_cli = tested[:]
        tested.clear()
        (machine, config), _ = cli._load_system(cli._parse_args(["run", *system]))
        cert = detect_contraction(run(machine, config, RunLimits(max_events=events)))
        assert out[1] == cert.serialize()
        assert by_cli == tested

    def test_the_certifier_builds_only_the_states_it_compares(self, monkeypatch):
        # states are told apart by their event counts
        built, compared = [], set()
        real_state, real_homothety = engine._state, analysis._homothety

        def homothety(s1, s2):
            compared.update((s1.event_count, s2.event_count))
            return real_homothety(s1, s2)

        monkeypatch.setattr(engine, "_state", lambda record, *rest: built.append(record[1]) or real_state(record, *rest))
        monkeypatch.setattr(analysis, "_homothety", homothety)
        argv = ["run", "--preset", "gcd", "--a", "1", "--b=-2+1*sqrt(7)", "--detect-accumulation"]
        assert main(argv) == 0
        assert sorted(built) == sorted(compared)

    @pytest.mark.parametrize(
        "system",
        [["--preset", "sm4"], ["--preset", "gcd-phi"], ["--file", str(MACHINES / "sm4.machine")]],
    )
    @pytest.mark.parametrize("operand", ["--a", "--b"])
    def test_operands_for_a_machine_without_any_exit_1(self, system, operand, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["run", *system, operand, "5", "--max-events", "3"])
        assert stop.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {operand}: only the sub/mod/gcd presets take operands" in captured.err

    def test_an_arithmetic_preset_defaults_its_operands(self, capsys):
        assert main(["run", "--preset", "gcd"]) == 0
        assert "result = 1" in capsys.readouterr().out.splitlines()

    def test_an_operand_with_digits_split_by_a_space_exits_1(self, capsys):
        assert main(["run", "--preset", "gcd", "--a", "1 2", "--b", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: malformed scalar: '1 2'\n"

    def test_mixed_radical_operands_are_rejected(self, capsys):
        argv = ["run", "--preset", "gcd", "--a", "1*sqrt(3)", "--b=-1+1*sqrt(2)"]
        assert main(argv) == 1
        assert "sqrt(2)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "limit",
        [
            ["--max-time", "-1"],
            ["--max-time", "abc"],
            ["--max-events", "-1"],
            ["--max-time", "1+1*sqrt(2)"],
        ],
    )
    def test_bad_run_limits_exit_1(self, limit, capsys):
        assert main(["run", "--preset", "sm4", *limit]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "halt:" not in captured.out

    def test_a_position_past_the_int_str_digit_limit(self, tmp_path, capsys):
        far = "9" * 4400
        machine = tmp_path / "far.machine"
        machine.write_text(f"signal a 1\nsignal b 0\nrule a,b -> b\ninit a@0\ninit b@{far}\n")
        log = tmp_path / "far.log"
        assert main(["run", "--file", str(machine), "--log", str(log)]) == 0
        assert capsys.readouterr().out == "halt: quiescent after 1 events\n"
        _, _, time, position, *_ = log.read_text().split()
        assert parse_scalar(time) == parse_scalar(position) == parse_scalar(far)
        assert parse_scalar(position) == 10**4400 - 1

    def test_missing_rule_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.machine"
        bad.write_text("signal a 1\nsignal b 0\ninit a@0\ninit b@1\n")
        assert main(["run", "--file", str(bad)]) == 2
        assert "no rule" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.machine"
        bad.write_text("signal a 1/0\n")
        assert main(["run", "--file", str(bad)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_empty_configuration(self, tmp_path, capsys):
        empty = tmp_path / "empty.machine"
        empty.write_text("signal a 1\nsignal b 0\nrule a,b -> a\n")
        assert main(["run", "--file", str(empty)]) == 0
        assert "quiescent after 0 events" in capsys.readouterr().out

    def test_log_and_svg_outputs(self, tmp_path, capsys):
        log = tmp_path / "run.log"
        svg = tmp_path / "run.svg"
        rc = main(
            [
                "run",
                "--preset",
                "mod",
                "--log",
                str(log),
                "--svg",
                str(svg),
            ]
        )
        assert rc == 0
        assert log.read_text().startswith("E 0 ")
        assert svg.read_text().startswith("<svg ")

    def test_gcd_phi_svg_at_the_default_event_budget(self, tmp_path, capsys):
        # deep in this run the two parts of a coordinate overflow a float
        # while their sum stays near 0 or 3 + sqrt 5
        svg = tmp_path / "phi.svg"
        assert main(["run", "--preset", "gcd-phi", "--svg", str(svg)]) == 3
        assert "event_limit after 10000 events" in capsys.readouterr().out
        doc = svg.read_text()
        assert doc.startswith("<svg ") and doc.endswith("</svg>\n")
        assert "nan" not in doc and "inf" not in doc

    @pytest.mark.parametrize("option", ["--log", "--svg"])
    def test_unwritable_output_path_exits_1(self, option, tmp_path, capsys):
        path = tmp_path / "missing" / "out"
        assert main(["run", "--preset", "sm4", "--max-events", "5", option, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "halt: event_limit after 5 events\n"
        assert captured.err.startswith("error: ") and str(path) in captured.err


class TestDeterminism:
    def test_svg_bytes_are_reproducible(self):
        machine, config = build_sm4()
        d1 = run(machine, config, RunLimits(max_events=12))
        d2 = run(machine, config, RunLimits(max_events=12))
        assert render_diagram(d1) == render_diagram(d2)

    def test_svg_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        src = str(Path(sigmach.__file__).resolve().parent.parent)
        docs = []
        for seed in ("1", "2"):
            out = tmp_path / f"gcd{seed}.svg"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "sigmach.cli", "run", "--preset", "gcd",
                 "--a", "200", "--b", "3", "--svg", str(out)],
                env=env, check=True, capture_output=True,
            )
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]

    def test_empty_diagram_renders_axes(self):
        from sigmach.model import InitialConfiguration

        machine, _ = build_sm4()
        diagram = run(machine, InitialConfiguration([]))
        doc = render_diagram(diagram)
        assert doc.startswith("<svg ") and "time" in doc

    def test_accumulation_marker(self):
        machine, config = build_sm4()
        d = run(machine, config, RunLimits(max_events=12))
        marked = render_diagram(d, accumulation=(machine.ctx.zero(), machine.ctx.scalar(2)))
        plain = render_diagram(d)
        assert marked.count("<line") == plain.count("<line") + 2


class TestVerifyCommand:
    def test_scheduler_suite_passes(self, capsys):
        assert main(["verify", "scheduler", "--seed", "4", "--count", "25"]) == 0
        out = capsys.readouterr().out
        assert "25/25 passed" in out

    def test_run_suite_passes(self, capsys):
        assert main(["verify", "run", "--seed", "3", "--count", "16"]) == 0
        assert "16/16 passed" in capsys.readouterr().out

    def test_mesh_suite_passes(self, capsys):
        assert main(["verify", "mesh", "--seed", "2", "--count", "3"]) == 0
        assert "3/3 passed" in capsys.readouterr().out

    def test_mesh_suite_with_a_horizon(self, capsys):
        assert main(["verify", "mesh", "--horizon", "30", "--count", "2"]) == 0
        assert capsys.readouterr().out.endswith("mesh: 2/2 passed\n")

    def test_a_short_horizon_leaves_periodicity_undecided(self, capsys):
        assert main(["verify", "mesh", "--horizon", "0", "--count", "1"]) == 1
        assert capsys.readouterr().out == (
            "case    0: FAIL  horizon 0 is short of this mesh's transient + 3 periods, "
            "45/2: periodicity undecided\nmesh: 0/1 passed\n"
        )
        assert main(["verify", "mesh", "--horizon", "10", "--count", "3"]) == 1
        short = "FAIL  horizon 10 is short of this mesh's transient + 3 periods"
        assert capsys.readouterr().out.splitlines() == [
            f"case    0: {short}, 45/2: periodicity undecided",
            "case    1: pass",
            f"case    2: {short}, 44/3: periodicity undecided",
            "mesh: 1/3 passed",
        ]

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_every_registered_suite_runs(self, suite, capsys):
        # a suite without a count runs all its cases
        takes_count = "count" in inspect.signature(SUITES[suite]).parameters
        assert main(["verify", suite, *(["--count", "2"] if takes_count else [])]) == 0
        passed = "2/2" if takes_count else "36/36"
        assert capsys.readouterr().out.endswith(f"{suite}: {passed} passed\n")

    def test_a_case_that_raises_is_one_fail_line(self, capsys, monkeypatch):
        calls, real = [], verify.random_state

        def random_state(rng):
            calls.append(rng)
            if len(calls) == 2:
                raise ZeroDivisionError("boom")
            return real(rng)

        monkeypatch.setattr(verify, "random_state", random_state)
        assert main(["verify", "scheduler", "--count", "4"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[2] for line in out[:4]] == ["pass", "FAIL", "pass", "pass"]
        assert out[1].startswith("case    1: FAIL  raised ZeroDivisionError('boom') at test_cli.py:")
        assert out[4] == "scheduler: 3/4 passed"

    def test_an_embedding_fault_fails_the_mesh_case(self, monkeypatch):
        calls, real = [], verify.embed_in_mesh

        def embed_in_mesh(config, p, q):
            calls.append(config)
            if len(calls) == 1:
                raise AssertionError("gcd of gaps does not divide the span")
            return real(config, p, q)

        monkeypatch.setattr(verify, "embed_in_mesh", embed_in_mesh)
        results = verify.suite_mesh(seed=0, count=2)
        assert [r.ok for r in results] == [False, True]
        assert "AssertionError('gcd of gaps does not divide the span')" in results[0].detail

    def test_bad_horizon_exits_1(self, capsys):
        assert main(["verify", "mesh", "--horizon", "abc"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_horizon_exits_1_before_any_case(self, capsys):
        assert main(["verify", "mesh", "--horizon", "-1", "--count", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: horizon must be >= 0\n"

    @pytest.mark.parametrize(
        "options, named",
        [
            (["gcd", "--count", "0"], "--count"),
            (["gcd", "--count", "-3"], "--count"),
            (["2speed-exhaustive", "--count", "2"], "--count"),
            (["2speed-exhaustive", "--seed", "5"], "--seed"),
            (["gcd", "--count", "2", "--horizon", "3"], "--horizon"),
            (["scheduler", "--horizon", "3"], "--horizon"),
        ],
    )
    def test_options_that_do_not_fit_the_suite_exit_1(self, options, named, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["verify", *options])
        assert stop.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {named}: " in captured.err

    def test_exhaustive_two_speed(self, capsys):
        assert main(["verify", "2speed-exhaustive"]) == 0
        assert "36/36 passed" in capsys.readouterr().out


class TestParser:
    def test_two_calls_share_one_parser(self, capsys, monkeypatch):
        built, real = [], cli._Parser.__init__

        def init(self, *args, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", init)
        assert main(["mesh", "--p", "1", "--q", "1"]) == 0
        assert main(["verify", "2speed-exhaustive"]) == 0
        assert built == []


class TestMeshCommand:
    def test_emits_parsable_init_lines(self, capsys):
        assert main(["mesh", "--p", "2", "--q", "3", "--k", "2"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l]
        assert all(l.startswith("init ") for l in lines)
        assert len(lines) == 2 * 5 + 1 + 2 * 3  # sites plus walls' extra L/R

    def test_nonpositive_p_exits_1(self, capsys):
        assert main(["mesh", "--p", "0", "--q", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: p and q must be positive\n"

    def test_mesh_output_runs(self, capsys, tmp_path):
        main(["mesh", "--p", "1", "--q", "1", "--k", "1"])
        inits = capsys.readouterr().out
        text = (
            "signal L -1\nsignal S 0\nsignal R 1\n"
            "rule L,S -> L,S,R\nrule L,R -> L,S,R\nrule S,R -> L,S,R\n"
            "rule L,S,R -> L,S,R\n" + inits
        )
        f = tmp_path / "mesh.machine"
        f.write_text(text)
        assert main(["run", "--file", str(f), "--max-time", "2"]) in (0, 3)
