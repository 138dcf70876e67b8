"""Every printed document is pinned: the README's CLI lines and the
benchmark's CLI commands, each run with --format structured, must print
what tests/golden.json recorded.

A recording is the perfbench/gate.py digest of the document: the SHA-256
of its exact skeleton (integers, fractions, tags, tensors) and its decimal
strings.  The skeleton must always match.  The decimals must match byte
for byte while NUMERIC_SCHEMA is the one recorded; after a bump they must
lie within gate.DECIMAL_SLACK, and the bumping change records the file
again:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from bcft.cli import main as cli_main
from bcft.persistence import NUMERIC_SCHEMA
from test_readme import cli_lines, write_cli_inputs

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
sys.path.insert(0, str(ROOT / "perfbench"))

import gate  # noqa: E402
from workloads import CLI_COMMANDS  # noqa: E402


def _structured(argv: list) -> list:
    """argv printing its structured document to stdout: no --out, and
    --format structured."""
    out, args = [], iter(argv)
    for x in args:
        if x in ("--out", "--format"):
            next(args)
        else:
            out.append(x)
    return out + ["--format", "structured"]


def commands() -> list:
    """The pinned argvs, README lines first, each once."""
    argvs = [line[1:] for line in cli_lines()] + [argv for _, argv, _ in CLI_COMMANDS]
    return list(dict.fromkeys(shlex.join(_structured(argv)) for argv in argvs))


def document(command: str):
    """The document that `bcft <command>` prints (the working directory
    holds write_cli_inputs' files)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(shlex.split(command))
    assert code == 0, command
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            write_cli_inputs()
    return path


def test_the_pins_cover_every_command():
    assert sorted(json.loads(GOLDEN.read_text())["documents"]) == sorted(commands())


@pytest.mark.parametrize("command", commands())
def test_every_printed_document_matches_its_pin(command, inputs, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    monkeypatch.chdir(inputs)
    recorded, doc = golden["documents"][command], document(command)
    got = gate.digest(doc)
    assert got["sha256"] == recorded["sha256"], command
    if golden["numeric_schema"] == NUMERIC_SCHEMA:
        assert got["decimals"] == recorded["decimals"], command
    else:
        assert gate.compare(recorded, doc) == [], command


def record():
    """Write tests/golden.json from the documents the code prints now."""
    with pytest.MonkeyPatch.context() as mp:
        with tempfile.TemporaryDirectory() as path:
            mp.chdir(path)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                write_cli_inputs()
            documents = {c: gate.digest(document(c)) for c in commands()}
    GOLDEN.write_text(json.dumps({"numeric_schema": NUMERIC_SCHEMA, "documents": documents},
                                 indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
