"""The package never computes with floats.

Verdicts are signs of exact quantities, so ``src/fanoslope`` holds no float
literal, no ``float(...)`` call and no ``math.sqrt``, with no exception: a
``Surd`` has no float conversion either.
"""

import ast
from pathlib import Path

import pytest

from fanoslope.exactnum import Surd

SOURCES = sorted((Path(__file__).parents[1] / "src" / "fanoslope").glob("*.py"))


def float_uses(tree):
    """``(line, what)`` for every float literal, ``float(...)`` call and
    ``math.sqrt`` in a module."""
    found = []
    for node in ast.walk(tree):
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
            found.append((node.lineno, what))
    return sorted(found)


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"exactnum.py", "cli.py", "slope.py"}


def test_no_float_anywhere():
    offences = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in float_uses(ast.parse(path.read_text("utf-8")))
    ]
    assert offences == []


def test_a_surd_has_no_float_conversion():
    assert not hasattr(Surd, "__float__")
    with pytest.raises(TypeError):
        float(Surd(0, 1, 2))


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
    found = [(line, what.split()[0]) for line, what in float_uses(ast.parse(code))]
    assert found == [
        (2, "float"), (4, "float(...)"), (4, "math.sqrt"), (5, "from"), (8, "float(...)")
    ]
