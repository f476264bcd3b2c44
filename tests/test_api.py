"""The package's public API: the names ``fanoslope`` re-exports.

Each public name is declared once, in the ``__all__`` beside its
definition; ``fanoslope`` re-exports every module's ``__all__``. The list
below pins that set, so adding or retiring a public name is one
``__all__`` edit plus one edit here. A public name must also be reached
from ``src/``: a helper that only tests call lives in the tests.
"""

import ast
import importlib
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
}
# (module, name) imports that module never uses, each with its reason
UNUSED_IMPORTS = {
    ("slope", "exceptional_restriction_poly"): "perfbench's tracer patches it there",
}


def _modules():
    """Each src module but the package's re-exporting __init__, parsed."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    }


def test_every_public_name_is_reached_from_src_or_kept_for_a_reason():
    reached = set(fanoslope.seshadri.RULES)  # rule names dispatch by name
    for module, tree in _modules().items():
        for statement in tree.body:
            names = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names.add(node.module.split(".")[-1])
                    names.update(
                        alias.name for alias in node.names
                        if (module, alias.name) not in UNUSED_IMPORTS
                    )
            # a name's own definition does not reach it
            reached |= names - {getattr(statement, "name", None)}
    unreached = set(fanoslope.__all__) - reached
    assert unreached == set(KEPT_UNREACHED)


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
