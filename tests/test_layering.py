"""The package's import graph: one direction, every import at module level.

Each module imports only package modules before it in LAYERS, so a
decision made in one layer is never reached back into from a lower one,
and no import is hidden inside a function or class body, where a cycle
would go unseen until that code runs.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cyclift"
LAYERS = ("errors", "rational", "geometry", "factorization", "exact_lp", "lifting", "cli")
ENTRY_POINTS = ("__init__", "__main__")  # import the layers, imported by none
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _tree(name):
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_imports(tree):
    """(line, module) for each package module the code imports: the layer
    a relative import names, or the whole dotted name of an absolute one
    (the package imports itself relatively, so that is never a layer)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.lineno, node.module.split(".")[0]
            else:
                yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module.split(".")[0] == "cyclift":
                yield node.lineno, node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "cyclift":
                    yield node.lineno, alias.name


def test_every_module_has_a_layer():
    assert sorted(LAYERS + ENTRY_POINTS) == MODULES


@pytest.mark.parametrize("name", MODULES)
def test_no_import_inside_a_function_or_class(name):
    nested = {
        f"{name}.py:{node.lineno}"
        for scope in ast.walk(_tree(name))
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for node in ast.walk(scope)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert sorted(nested) == []


@pytest.mark.parametrize("name", LAYERS)
def test_imports_only_earlier_layers(name):
    earlier = LAYERS[: LAYERS.index(name)]
    wrong = [
        f"{name}.py:{line} imports {module}"
        for line, module in _package_imports(_tree(name))
        if module not in earlier
    ]
    assert wrong == []
