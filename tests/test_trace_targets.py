"""The names the benchmark's span tracer wraps must exist in bcft.

perfbench/spans.py binds each TARGETS entry by name when a traced run
starts, so a renamed or deleted function would otherwise fail only in a
traced benchmark pass.  The file is parsed, not imported, so the test
leaves the benchmark directory untouched.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
