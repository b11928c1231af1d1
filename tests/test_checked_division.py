"""Every exact division in the package goes through arith.exact_quotient:
no other code calls divmod, so no remainder is dropped or checked by hand."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "padicount").glob("*.py"))


def uses_of(path, names):
    """(function, line) of every use of one of names in one module: as a
    bare name, an attribute, an imported alias or a part of an imported
    module's dotted path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    uses = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Name) and child.id in names
                or isinstance(child, ast.Attribute) and child.attr in names
                or isinstance(child, ast.alias) and not names.isdisjoint(child.name.split("."))
                or isinstance(child, ast.ImportFrom)
                and not names.isdisjoint((child.module or "").split("."))
            ):
                uses.append((function, child.lineno))
            if function is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{path.stem}.{child.name}")
            else:
                visit(child, function)

    visit(tree, None)
    return uses


def _divmod_uses(path):
    return uses_of(path, {"divmod"})


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_divmod_is_called_only_inside_exact_quotient(path):
    stray = [
        f"{path.name}:{line}"
        for function, line in _divmod_uses(path)
        if function != "arith.exact_quotient"
    ]
    assert stray == [], f"divmod outside arith.exact_quotient at {stray}"


def test_the_guard_sees_the_checked_division():
    uses = [use for path in SOURCES for use in _divmod_uses(path)]
    assert [function for function, _ in uses] == ["arith.exact_quotient"]
