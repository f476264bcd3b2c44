"""The package never computes with floats.

Verdicts are signs of exact quantities, so ``src/fanoslope`` holds no float
literal, no ``float(...)`` call and no ``math.sqrt``. The one exception is
``Surd.__float__``, which exists to hand an approximation to callers that
ask for one.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "fanoslope").glob("*.py"))
ALLOWED_SCOPE = ("Surd", "__float__")


def float_uses(tree):
    """``(line, what, scope)`` for every float literal, ``float(...)`` call
    and ``math.sqrt`` in a module, with the class/function names around it."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        what = None
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            what = f"float literal {node.value!r}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            what = "float(...) call"
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "sqrt"
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            what = "math.sqrt"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            if any(alias.name == "sqrt" for alias in node.names):
                what = "from math import sqrt"
        if what:
            found.append((node.lineno, what, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"exactnum.py", "cli.py", "slope.py"}


def test_no_float_outside_surd_float():
    offences = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what, scope in float_uses(ast.parse(path.read_text("utf-8")))
        if scope[:2] != ALLOWED_SCOPE
    ]
    assert offences == []


def test_the_exception_is_still_where_it_is_named():
    # a renamed or moved Surd.__float__ must not leave a stale exception
    tree = ast.parse((SOURCES[0].parent / "exactnum.py").read_text("utf-8"))
    scopes = {scope for _, _, scope in float_uses(tree)}
    assert scopes == {ALLOWED_SCOPE}


def test_the_walk_sees_every_kind_of_use():
    code = (
        "from math import factorial\n"
        "x = 0.5\n"
        "def f(y):\n"
        "    return float(y) + math.sqrt(y)\n"
        "from math import factorial, sqrt\n"
        "class Surd:\n"
        "    def __float__(self):\n"
        "        return float(1)\n"
    )
    found = [(line, what.split()[0]) for line, what, _ in float_uses(ast.parse(code))]
    assert found == [
        (2, "float"), (4, "float(...)"), (4, "math.sqrt"), (5, "from"), (8, "float(...)")
    ]
