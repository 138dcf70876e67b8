"""Import boundaries of the package, read from its parsed files.

No module of the package may import a module that lives in tests/:
pytest puts tests/ on sys.path, so an import of a test reference such as
oracles or intpoly from bcft would resolve under pytest and fail only
outside it.  And persistence, which the command line reads before any
numeric code runs, imports only the standard library and bcft.errors.
And every function and class of the package has a reader in the program
or in what a user or the benchmark calls, and no module relies on an
assert statement.  The files are parsed, not imported.
"""

import ast
import re
import sys
from collections import Counter
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


def test_persistence_imports_only_the_standard_library_and_errors():
    tree = ast.parse((PACKAGE / "persistence.py").read_text())
    imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imports.add("." * node.level + (node.module or ""))
    package = {name for name in imports if name.startswith(".")}
    assert package == {".errors"}
    assert imports - package <= sys.stdlib_module_names | {"__future__"}


def test_no_package_module_asserts():
    """python -O strips assert statements, so no check of the package may
    rest on one: a failed check raises a BcftError such as CheckFailure."""
    asserts = [(path.name, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert not asserts


def test_no_package_module_reads_linalg():
    """No float eigensolver decides anything: no module reads a linalg
    module, as an attribute (np.linalg) or by import."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = [node.module.split(".") for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module]
        if _references(tree)["linalg"] or any("linalg" in parts for parts in modules):
            readers.append(path.name)
    assert not readers


def _references(node) -> Counter:
    """The names that node reads: Name ids, attribute names and imports.
    Strings, such as the public-name table of __init__, are not reads."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name.split(".")[-1]] += 1
    return refs


def test_every_definition_has_a_reader_in_the_program():
    """A function or class (dunders aside) is read somewhere in the package
    outside its own body, or is named in README.md or perfbench/*.py: the
    entry points a user or the benchmark calls.  Code that only the tests
    reach belongs in tests/."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reads = sum((_references(tree) for tree in trees.values()), Counter())
    named = "\n".join(path.read_text() for path in
                      [ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.py"))])
    unread = []
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if reads[name] > _references(node)[name]:
                continue
            if re.search(r"\b%s\b" % re.escape(name), named):
                continue
            unread.append("%s:%d %s" % (file, node.lineno, name))
    assert not unread


def test_every_top_level_import_is_read_in_its_module():
    """A name that a package module imports at top level is read in that
    module, so no import outlives the code that used it.  __init__ is left
    out: its imports are the package's public table.  Names read in
    annotations count, as they are Name nodes of the parsed file."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        reads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unread += ["%s:%d %s" % (path.name, node.lineno, name)
                           for name in bound if name not in reads]
    assert not unread
