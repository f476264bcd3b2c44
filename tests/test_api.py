"""The package's public API: the names ``fanoslope`` re-exports.

Each public name is declared once, in the ``__all__`` beside its
definition; ``fanoslope`` re-exports every module's ``__all__``. The list
below pins that set, so adding or retiring a public name is one
``__all__`` edit plus one edit here. A public name must also be reached
from ``src/``: a helper that only tests call lives in the tests. So must
each public method and property of a public class, read as an attribute.
"""

import ast
import importlib
import inspect
from pathlib import Path

import fanoslope

SRC = Path(fanoslope.__file__).parent

# each module's public names, sorted; fanoslope also exports the errors module
PUBLIC_API = {
    "blowup": [
        "CurveScenario",
        "check_epsilon_consistency",
        "exceptional_restriction_poly",
        "hilbert_leading_poly",
        "hilbert_subleading_poly",
    ],
    "classify": [
        "BundleSplitting",
        "ClassifyFlags",
        "Verdict",
        "VerdictStatus",
        "classify_curve",
    ],
    "exactnum": [
        "Polynomial",
        "Surd",
        "compare",
        "render_value",
    ],
    "seshadri": [
        "ProvenanceEntry",
        "SeshadriEstimate",
        "blowup_exceptional_shift",
        "certify_exact_by_restriction",
        "combine",
        "intersection_min_lower",
        "linear_subspace_exact",
        "moving_curve_upper",
        "nested_restriction",
        "point_upper_bound",
        "product_fiber_estimate",
        "proper_transform_upper",
        "run_pipeline",
        "witness_curve_upper",
    ],
    "slope": [
        "QuotientSlopeReport",
        "destabilizing_quadratic",
        "manifold_slope",
        "quotient_slope",
        "quotient_slope_via_integrals",
    ],
}


def test_package_all_is_the_pinned_list_without_repeats():
    expected = sorted(["errors", *(n for names in PUBLIC_API.values() for n in names)])
    assert len(fanoslope.__all__) == len(set(fanoslope.__all__)) == 34
    assert sorted(fanoslope.__all__) == expected


def test_each_name_is_declared_by_its_module_and_exported_as_itself():
    assert fanoslope.errors is importlib.import_module("fanoslope.errors")
    for module, names in PUBLIC_API.items():
        source = importlib.import_module(f"fanoslope.{module}")
        assert sorted(source.__all__) == names, module
        for name in names:
            assert getattr(fanoslope, name) is getattr(source, name), name


# public names that no src/ module reaches, each with the reason it stays
KEPT_UNREACHED = {
    "manifold_slope": "the paper's mu, and README's library example",
    "exceptional_restriction_poly": "perfbench's tracer patches slope's import of it",
    "hilbert_leading_poly": "perfbench's tracer patches it there",
    "hilbert_subleading_poly": "perfbench's tracer patches it there",
    "run_pipeline": "the library's entry to the rule pipeline: README's library "
    "example and CI run it, and the command line runs its read records itself",
}
# public methods and properties that no src/ module reaches, with reasons
KEPT_UNREACHED_MEMBERS = {
    ("CurveScenario", "anticanonical_curve"): "README's library example and CI "
    "build scenarios with it",
    ("SeshadriEstimate", "is_exact"): "perfbench/test_perfbench.py reads it",
    ("Surd", "sign"): "README documents it as part of Surd's exact arithmetic",
}
# (module, name) imports that module never uses, each with its reason
UNUSED_IMPORTS = {
    ("slope", "exceptional_restriction_poly"): "perfbench's tracer patches it there",
    ("slope", "hilbert_leading_poly"): "perfbench's tracer patches it there",
    ("slope", "hilbert_subleading_poly"): "perfbench's tracer patches it there",
}


def _modules():
    """Each src module but the package's re-exporting __init__, parsed."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    }


def _reached_names(attributes_only=False):
    """Every name src/ reads: a variable, an attribute or an imported name;
    with ``attributes_only``, only the names it reads as an attribute.

    It matches by name alone, so a field called ``degree`` also reaches
    ``Polynomial.degree``. A name's own definition, or an assignment to it,
    does not reach it."""
    # rule names dispatch by name
    reached = set() if attributes_only else set(fanoslope.seshadri.RULES)
    for module, tree in _modules().items():
        for statement in tree.body:
            names = set()
            for node in ast.walk(statement):
                if isinstance(getattr(node, "ctx", None), ast.Store):
                    continue
                if isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif attributes_only:
                    continue
                elif isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names.add(node.module.split(".")[-1])
                    names.update(
                        alias.name for alias in node.names
                        if (module, alias.name) not in UNUSED_IMPORTS
                    )
            reached |= names - {getattr(statement, "name", None)}
    return reached


def public_members():
    """(class, name) of each public method and property that a class in
    fanoslope.__all__ defines itself: no dunder, and no named-tuple field or
    enum member."""
    members = set()
    for class_name in fanoslope.__all__:
        cls = getattr(fanoslope, class_name)
        if isinstance(cls, type):
            members.update(
                (class_name, name) for name, value in vars(cls).items()
                if not name.startswith("_") and (
                    inspect.isfunction(value)
                    or isinstance(value, (property, classmethod, staticmethod))
                )
            )
    return members


def test_every_public_name_is_reached_from_src_or_kept_for_a_reason():
    unreached = set(fanoslope.__all__) - _reached_names()
    assert unreached == set(KEPT_UNREACHED)


def test_every_public_method_is_reached_from_src_or_kept_for_a_reason():
    # a variable of the same name, such as a local ``sign``, reaches no method
    reached = _reached_names(attributes_only=True)
    unreached = {member for member in public_members() if member[1] not in reached}
    assert unreached == set(KEPT_UNREACHED_MEMBERS)


def test_no_src_module_imports_a_name_it_never_uses():
    unused = set()
    for module, tree in _modules().items():
        nodes = list(ast.walk(tree))
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        unused.update(
            (module, alias.name)
            for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in used
        )
    assert unused == set(UNUSED_IMPORTS)
