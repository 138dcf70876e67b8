"""No module of the package may import a module that lives in tests/.

pytest puts tests/ on sys.path, so an import of a test reference such as
oracles or intpoly from bcft would resolve under pytest and fail only
outside it.  The files are parsed, not imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bcft"
TEST_MODULES = {path.stem for path in (ROOT / "tests").glob("*.py")}


def test_test_modules_are_known():
    assert {"conftest", "intpoly", "oracles"} <= TEST_MODULES


def test_no_package_module_imports_a_test_module():
    imports = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module else [a.name for a in node.names]
            else:
                continue
            imports += [(path.name, node.lineno, name) for name in names
                        if name.split(".")[0] in TEST_MODULES]
    assert not imports
