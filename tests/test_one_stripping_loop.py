"""A prime is stripped by repeated division in one place, arith.p_valuation,
which divides in rounds: a `while x % y == 0` loop that floor-divides x by
y anywhere else is a second copy of it, one division per factor."""

import ast

import pytest
from test_checked_division import SOURCES


def _strips(loop):
    """Whether loop is `while X % Y == 0:` with `X //= Y` or `X = X // Y` in its body."""
    test = loop.test
    if not (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.BinOp)
        and isinstance(test.left.op, ast.Mod)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Eq)
        and ast.unparse(test.comparators[0]) == "0"
    ):
        return False  # a compound test, such as arith.mult_order's, is not a strip
    x, y = ast.unparse(test.left.left), ast.unparse(test.left.right)
    divisions = {f"{x} //= {y}", f"{x} = {x} // {y}"}
    return any(
        isinstance(node, (ast.Assign, ast.AugAssign)) and ast.unparse(node) in divisions
        for statement in loop.body
        for node in ast.walk(statement)
    )


def stripping_loops(source, module):
    """(function, line) of every stripping loop in one module's source."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.While) and _strips(child):
                found.append((function, child.lineno))
            if function is None and isinstance(child, ast.FunctionDef):
                visit(child, f"{module}.{child.name}")
            else:
                visit(child, function)

    visit(ast.parse(source), None)
    return found


def _loops_in(path):
    return stripping_loops(path.read_text(encoding="utf-8"), path.stem)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_p_valuation_strips_a_prime_by_repeated_division(path):
    stray = [f"{path.name}:{line}" for function, line in _loops_in(path) if function != "arith.p_valuation"]
    assert stray == [], f"a prime stripped outside arith.p_valuation at {stray}"


def test_the_guard_sees_the_one_strip():
    assert [function for path in SOURCES for function, _ in _loops_in(path)] == ["arith.p_valuation"]


def test_the_guard_matches_both_spellings_and_skips_a_compound_test():
    source = (
        "def strip(rest, p):\n"
        "    while rest % p == 0:\n"
        "        rest //= p\n"
        "    while rest % p == 0:\n"
        "        if rest:\n"
        "            rest = rest // p\n"
        "    while rest % p == 0 and rest > p:\n"
        "        rest //= p\n"
        "    while rest % p == 0:\n"
        "        rest //= 2\n"
    )
    assert stripping_loops(source, "m") == [("m.strip", 2), ("m.strip", 4)]
