import os
import subprocess
import sys
from pathlib import Path

import pytest

import sigmach
from sigmach.cli import main
from sigmach.svg import RenderOptions, render_diagram
from sigmach.engine import RunLimits, run
from sigmach.presets import build_sm4

MACHINES = Path(__file__).resolve().parent.parent / "machines"


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

    def test_sm4_without_detection_is_inconclusive(self, capsys):
        assert main(["run", "--preset", "sm4", "--max-events", "20"]) == 3

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


class TestDeterminism:
    def test_svg_bytes_are_reproducible(self):
        machine, config = build_sm4()
        d1 = run(machine, config, RunLimits(max_events=12))
        d2 = run(machine, config, RunLimits(max_events=12))
        assert render_diagram(d1, RenderOptions()) == render_diagram(d2, RenderOptions())

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

    def test_bad_horizon_exits_1(self, capsys):
        assert main(["verify", "mesh", "--horizon", "abc"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_horizon_exits_1_before_any_case(self, capsys):
        assert main(["verify", "mesh", "--horizon", "-1", "--count", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: horizon must be >= 0\n"

    def test_exhaustive_two_speed(self, capsys):
        assert main(["verify", "2speed-exhaustive"]) == 0
        assert "36/36 passed" in capsys.readouterr().out


class TestMeshCommand:
    def test_emits_parsable_init_lines(self, capsys):
        assert main(["mesh", "--p", "2", "--q", "3", "--k", "2"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l]
        assert all(l.startswith("init ") for l in lines)
        assert len(lines) == 2 * 5 + 1 + 2 * 3  # sites plus walls' extra L/R

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
