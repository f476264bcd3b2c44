"""The package's public API: the names ``fanoslope`` re-exports.

Each public name is declared once, in the ``__all__`` beside its
definition; ``fanoslope`` re-exports every module's ``__all__``. The list
below pins that set, so adding or retiring a public name is one
``__all__`` edit plus one edit here.
"""

import importlib

import fanoslope

# each module's public names, sorted; fanoslope also exports the errors module
PUBLIC_API = {
    "blowup": [
        "CurveScenario",
        "anticanonical_square_exceptional",
        "check_epsilon_consistency",
        "exceptional_power_table",
        "exceptional_restriction_poly",
        "hilbert_leading_poly",
        "hilbert_subleading_poly",
    ],
    "classify": [
        "BundleSplitting",
        "ClassifyFlags",
        "FanoBundleReport",
        "ShapeFilterResult",
        "Verdict",
        "VerdictStatus",
        "admissible_normal_bundle",
        "classify_curve",
        "fano_bundle_check",
        "non_stable_shape_filter",
    ],
    "exactnum": [
        "Polynomial",
        "Surd",
        "compare",
        "quadratic_roots",
        "render_value",
    ],
    "seshadri": [
        "ProvenanceEntry",
        "SeshadriEstimate",
        "blowup_exceptional_shift",
        "certify_exact_by_restriction",
        "intersection_min_lower",
        "linear_subspace_exact",
        "moving_curve_upper",
        "nested_restriction",
        "point_upper_bound",
        "product_fiber_estimate",
        "proper_transform_upper",
        "witness_curve_upper",
    ],
    "slope": [
        "QuotientSlopeReport",
        "destabilizing_quadratic",
        "fano_quadratic_at_degree",
        "leading_deficit_poly",
        "manifold_slope",
        "margin_factorization_residual",
        "quotient_slope",
        "quotient_slope_via_integrals",
        "subleading_deficit_poly",
    ],
}


def test_package_all_is_the_pinned_list_without_repeats():
    expected = sorted(["errors", *(n for names in PUBLIC_API.values() for n in names)])
    assert len(fanoslope.__all__) == len(set(fanoslope.__all__)) == 44
    assert sorted(fanoslope.__all__) == expected


def test_each_name_is_declared_by_its_module_and_exported_as_itself():
    assert fanoslope.errors is importlib.import_module("fanoslope.errors")
    for module, names in PUBLIC_API.items():
        source = importlib.import_module(f"fanoslope.{module}")
        assert sorted(source.__all__) == names, module
        for name in names:
            assert getattr(fanoslope, name) is getattr(source, name), name
