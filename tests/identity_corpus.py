"""The identity corpus: one sha256 per named output of the command line.

An entry is one output of `sigmach run --detect-accumulation` on a preset
(default operands) or a `machines/*.machine` file (its exit code, stdout,
`--log` and `--svg`), or of `sigmach verify <suite>` at seed 0 (its exit
code and stdout).  `identity_corpus.json` beside this file holds the
digests; `tests/test_identity.py` regenerates the outputs and names every
entry whose digest moved.

    PYTHONPATH=src python tests/identity_corpus.py          # list moved entries
    PYTHONPATH=src python tests/identity_corpus.py --write  # rewrite the manifest

A change that is meant to move outputs rewrites the manifest and says which
entries moved and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import sys
import tempfile
from pathlib import Path

from sigmach import cli
from sigmach.verify import SUITES

MACHINES = Path(__file__).resolve().parent.parent / "machines"
MANIFEST = Path(__file__).with_suffix(".json")
PRESETS = ("sm4", *cli.ARITHMETIC, "gcd-phi")
# suites that take over about 0.3 s at their default count run fewer cases
COUNTS = {"run": 60, "support": 25}


def _commands():
    """(name, argv, writes a log and an SVG) for each command of the corpus."""
    for preset in PRESETS:
        yield f"run --preset {preset}", ["run", "--preset", preset, "--detect-accumulation"], True
    for path in sorted(MACHINES.glob("*.machine")):
        name = f"machines/{path.name}"
        yield f"run --file {name}", ["run", "--file", str(path), "--detect-accumulation"], True
    for suite in sorted(SUITES):
        argv = ["verify", suite]
        if "seed" in inspect.signature(SUITES[suite]).parameters:
            argv += ["--seed", "0"]
        if suite in COUNTS:
            argv += ["--count", str(COUNTS[suite])]
        yield " ".join(argv), argv, False


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests() -> dict[str, str]:
    """Every entry's digest, by name, from outputs made in this process."""
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        log, svg = Path(tmp, "run.log"), Path(tmp, "run.svg")
        for name, argv, files in _commands():
            if files:
                argv = [*argv, "--log", str(log), "--svg", str(svg)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            out[f"{name} :: exit"] = _sha(str(code))
            out[f"{name} :: stdout"] = _sha(stdout.getvalue())
            if files:
                out[f"{name} :: log"] = _sha(log.read_text(encoding="utf-8"))
                out[f"{name} :: svg"] = _sha(svg.read_text(encoding="utf-8"))
                log.unlink()
                svg.unlink()
    return out


def moved(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """The entries whose digest differs, or that only one side has."""
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the manifest")
    args = parser.parse_args(argv)
    got = digests()
    if args.write:
        MANIFEST.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} digests to {MANIFEST.name}")
        return 0
    changed = moved(json.loads(MANIFEST.read_text()), got)
    for name in changed:
        print(f"moved: {name}")
    print(f"{len(got) - len(changed)}/{len(got)} digests unchanged")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
