"""The package builds a Fraction from integers only through ``_fraction``.

``exactnum._fraction(n, d)`` fills a bare Fraction's two slots, where
``Fraction(n, d)`` runs the generic constructor's type tests first. This
pins layout, not behaviour: ``src/fanoslope`` holds no two-argument
``Fraction(...)`` call, and its one ``Fraction(...)`` call at all is
``_require_rational``'s conversion of a caller's value, so a hot path cannot
bring the generic constructor back unseen. ``test_exactnum.py`` checks that
``_fraction`` gives what ``Fraction(n, d)`` gives.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "fanoslope").glob("*.py"))


def fraction_calls(tree):
    """``(line, enclosing function, argument count)`` for every call of
    ``Fraction`` or ``fractions.Fraction``; a starred argument or a keyword
    counts as two, since either can pass a denominator."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "Fraction"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "Fraction"
        ):
            count = len(node.args) + len(node.keywords)
            if any(isinstance(arg, ast.Starred) for arg in node.args) or node.keywords:
                count = max(count, 2)
            found.append((node.lineno, function, count))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sorted(found)


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"exactnum.py", "slope.py", "blowup.py"}


def test_no_two_argument_fraction_call_anywhere():
    offences = [
        f"{path.name}:{line}: Fraction(...) with {count} arguments in {function}"
        for path in SOURCES
        for line, function, count in fraction_calls(ast.parse(path.read_text("utf-8")))
        if count != 1
    ]
    assert offences == []


def test_the_one_fraction_call_converts_a_callers_value():
    calls = [
        (path.name, function, count)
        for path in SOURCES
        for _, function, count in fraction_calls(ast.parse(path.read_text("utf-8")))
    ]
    assert calls == [("exactnum.py", "_require_rational", 1)]


def test_the_walk_sees_every_kind_of_call():
    code = (
        "from fractions import Fraction\n"
        "import fractions\n"
        "HALF = Fraction(1, 2)\n"
        "def f(n, d):\n"
        "    def g():\n"
        "        return fractions.Fraction(n)\n"
        "    return Fraction(*(n, d)), Fraction(n, denominator=d), Fraction()\n"
        "class C:\n"
        "    def h(self, pair):\n"
        "        return Fraction(pair), _fraction(1, 2)\n"
    )
    assert fraction_calls(ast.parse(code)) == [
        (3, None, 2), (6, "g", 1), (7, "f", 0), (7, "f", 2), (7, "f", 2),
        (10, "h", 1),
    ]
