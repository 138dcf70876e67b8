"""The names the benchmark's span tracer wraps must exist in bcft.

perfbench/spans.py binds each TARGETS entry by name when a traced run
starts, so a renamed or deleted function would otherwise fail only in a
traced benchmark pass.  The file is parsed, not imported, so the test
leaves the benchmark directory untouched.  Helpers kept only for the
tracer must not get callers back in the package.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bcft"
# defined in bcft.hp for the tracer alone; nothing in the package uses them
TRACER_ONLY = ("kahan_sum", "eig_symmetric")


def _targets() -> tuple:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS assignment in %s" % SPANS)


def test_every_traced_name_resolves_in_the_package():
    targets = _targets()
    assert targets
    missing = []
    for span, module_name, attr in targets:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append((span, module_name, attr))
    assert not missing


def test_tracer_only_helpers_have_no_use_in_the_package():
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in TRACER_ONLY:
                uses.append((path.name, node.lineno, name))
    assert not uses
