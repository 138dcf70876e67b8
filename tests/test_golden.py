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

which prints, against the file it replaces, the commands whose exact
fields or decimal fields changed and the largest relative move of a
decimal, on the scale that gate.DECIMAL_SLACK bounds.
"""

import contextlib
import io
import json
import shlex
import sys
import tempfile
from decimal import Decimal, localcontext
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


def relative_move(a: str, b: str) -> Decimal:
    """The largest |x - y| / max(1, |x|, |y|) over the parts of two decimal
    or complex strings, the measure gate.DECIMAL_SLACK bounds; infinite
    when their shapes differ."""
    pa, pb = gate._decimal_parts(a), gate._decimal_parts(b)
    if pa is None or pb is None or len(pa) != len(pb):
        return Decimal("Infinity")
    with localcontext() as ctx:
        ctx.prec = gate.PRECISION + 20
        return max(abs(x - y) / max(Decimal(1), abs(x), abs(y)) for x, y in zip(pa, pb))


def moves(old: dict, new: dict) -> list:
    """Lines naming what differs between two recordings' documents
    ({command: digest}): commands pinned on one side only, exact fields
    that changed, each decimal field that moved, and the largest move."""
    lines, worst = [], Decimal(0)
    for command in sorted(old.keys() | new.keys()):
        if command not in old or command not in new:
            lines.append("%s: %s" % ("new pin" if command in new else "dropped pin", command))
            continue
        was, now = old[command], new[command]
        if was["sha256"] != now["sha256"]:
            lines.append("exact fields changed: %s" % command)
        if len(was["decimals"]) != len(now["decimals"]):
            lines.append("decimal fields %d -> %d: %s"
                         % (len(was["decimals"]), len(now["decimals"]), command))
            continue
        for i, (a, b) in enumerate(zip(was["decimals"], now["decimals"])):
            if a != b:
                move = relative_move(a, b)
                worst = max(worst, move)
                lines.append("decimal %d moved by %.3g: %s\n  %s\n  %s" % (i, move, command, a, b))
    lines.append("largest relative move of a decimal: %.3g (gate.DECIMAL_SLACK %s)"
                 % (worst, gate.DECIMAL_SLACK) if worst else "no decimal moved")
    return lines


def test_moves_name_each_change_and_the_largest_move():
    doc = {"sha256": "a", "decimals": ["1.000", "2.5e-61", "1.0+2.0i"]}
    assert moves({"c": doc}, {"c": doc}) == ["no decimal moved"]
    moved = {"sha256": "b", "decimals": ["1.000", "2.6e-61", "1.0+2.5i"]}
    assert moves({"c": doc, "gone": doc}, {"c": moved, "added": doc}) == [
        "new pin: added",
        "exact fields changed: c",
        "decimal 1 moved by 1e-62: c\n  2.5e-61\n  2.6e-61",
        "decimal 2 moved by 0.2: c\n  1.0+2.0i\n  1.0+2.5i",
        "dropped pin: gone",
        "largest relative move of a decimal: 0.2 (gate.DECIMAL_SLACK %s)" % gate.DECIMAL_SLACK,
    ]
    assert relative_move("1.0", "1.0+0i") == Decimal("Infinity")


def record():
    """Write tests/golden.json from the documents the code prints now, and
    print what moved against the recording it replaces."""
    with pytest.MonkeyPatch.context() as mp:
        with tempfile.TemporaryDirectory() as path:
            mp.chdir(path)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                write_cli_inputs()
            documents = {c: gate.digest(document(c)) for c in commands()}
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"documents": {}}
    GOLDEN.write_text(json.dumps({"numeric_schema": NUMERIC_SCHEMA, "documents": documents},
                                 indent=1, sort_keys=True) + "\n")
    print("numeric_schema %s -> %s" % (old.get("numeric_schema"), NUMERIC_SCHEMA))
    print("\n".join(moves(old["documents"], documents)))


if __name__ == "__main__":
    record()
