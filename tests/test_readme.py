"""The README's examples run as written: every `bcft` line of its CLI
block exits 0, and the library quick tour gives what its comments say."""

import ast
import json
import shlex
from pathlib import Path

from bcft.cli import main as cli_main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, lang: str) -> str:
    """The first ```lang fenced block after heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```%s\n" % lang, text.index(heading)) + len("```%s\n" % lang)
    return text[start:text.index("```", start)]


def cli_lines() -> list:
    """The argv of every line of the README's CLI block, "bcft" first."""
    return [shlex.split(line, comments=True) for line in _block("## CLI", "sh").splitlines()]


def write_cli_inputs():
    """The files the CLI lines name, written to the working directory: the
    E6 nimrep of su2 level 10 (nr.json) and its fusion graph (e6.json)."""
    argv = ["nimreps", "enumerate", "--model", "su2", "--level", "10", "--size", "6",
            "--format", "structured", "--out", "e6-list.json"]
    assert cli_main(argv) == 0
    (e6,) = json.loads(Path("e6-list.json").read_text())["nimreps"]
    Path("nr.json").write_text(json.dumps(e6))
    Path("e6.json").write_text(json.dumps(e6["nmats"][1]))


def test_every_cli_line_of_the_readme_exits_zero(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the files the lines name, and the --out they write
    write_cli_inputs()
    lines = cli_lines()
    assert lines
    for line in lines:
        assert line[0] == "bcft", line
        assert cli_main(line[1:]) == 0, line
    capsys.readouterr()


def test_the_library_quick_tour_gives_what_its_comments_say():
    """Each statement runs in order; each bare expression's value is kept
    by its source text, as an interactive session would print it."""
    scope, values = {}, {}
    for stmt in ast.parse(_block("## Quick tour", "python")).body:
        if isinstance(stmt, ast.Expr):
            values[ast.unparse(stmt.value)] = eval(
                compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
    assert [z.tag for z in scope["invs"]] == ["D7", "A11", "E6"]
    assert len(scope["hk"]) == 36
    assert values["max(hk.values())"] < 1e-50
    rep = values["index_report(ising, (1, 0, 1))"]
    for value, expected in ((rep.d_pi, 2), (rep.mu, 4), (rep.two_interval, 16),
                            (rep.c8_index, 4)):
        assert abs(value - expected) < 1e-40
