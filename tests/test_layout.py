"""Module layout of the package, read from its source without importing it:
no module imports another's private names, and numpy is imported at module
level only by the modules that build arrays."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "minlen"
NUMPY_MODULES = {"oscillator/wavefunction.py", "serialize.py"}


def modules():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths, f"no modules under {PACKAGE}"
    for path in paths:
        yield path.relative_to(PACKAGE).as_posix(), ast.parse(
            path.read_text(encoding="utf-8"))


def module_level(node):
    """The nodes under `node` that run on import: everything but the bodies
    of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from module_level(child)


def test_no_module_imports_private_names_of_another():
    found = [
        (name, node.module, alias.name)
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "minlen")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_numpy_is_imported_at_module_level_only_by_the_array_modules():
    importers = set()
    for name, tree in modules():
        for node in module_level(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                targets = [node.module]
            else:
                continue
            if any(t.split(".")[0] == "numpy" for t in targets):
                importers.add(name)
    assert importers <= NUMPY_MODULES, importers - NUMPY_MODULES
