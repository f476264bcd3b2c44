"""fanoslope: exact slope stability of Fano manifolds along smooth curves.

The package computes, in exact arithmetic, the quantities that decide
whether a polarized Fano manifold is slope (semi)stable with respect to a
smooth curve: Hilbert-coefficient polynomials on the blowup along the curve,
quotient slopes, certified Seshadri-constant intervals, and the resulting
verdicts. A JSON-driven command line (``fanoslope``) batches the same
computations over scenario files.
"""

from .blowup import (
    CurveScenario,
    anticanonical_square_exceptional,
    check_epsilon_consistency,
    exceptional_power_table,
    exceptional_restriction_poly,
    hilbert_leading_poly,
    hilbert_subleading_poly,
)
from .classify import (
    BundleSplitting,
    ClassifyFlags,
    FanoBundleReport,
    ShapeFilterResult,
    Verdict,
    VerdictStatus,
    admissible_normal_bundle,
    classify_curve,
    fano_bundle_check,
    non_stable_shape_filter,
)
from .exactnum import (
    Polynomial,
    Surd,
    compare,
    quadratic_roots,
    render_value,
)
from .seshadri import (
    ProvenanceEntry,
    SeshadriEstimate,
    blowup_exceptional_shift,
    certify_exact_by_restriction,
    intersection_min_lower,
    linear_subspace_exact,
    moving_curve_upper,
    nested_restriction,
    point_upper_bound,
    product_fiber_estimate,
    proper_transform_upper,
    witness_curve_upper,
)
from .slope import (
    QuotientSlopeReport,
    destabilizing_quadratic,
    fano_quadratic_at_degree,
    leading_deficit_poly,
    manifold_slope,
    margin_factorization_residual,
    quotient_slope,
    quotient_slope_via_integrals,
    subleading_deficit_poly,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "errors",
    "CurveScenario",
    "anticanonical_square_exceptional",
    "check_epsilon_consistency",
    "exceptional_power_table",
    "exceptional_restriction_poly",
    "hilbert_leading_poly",
    "hilbert_subleading_poly",
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
    "Polynomial",
    "Surd",
    "compare",
    "quadratic_roots",
    "render_value",
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
    "QuotientSlopeReport",
    "destabilizing_quadratic",
    "fano_quadratic_at_degree",
    "leading_deficit_poly",
    "manifold_slope",
    "margin_factorization_residual",
    "quotient_slope",
    "quotient_slope_via_integrals",
    "subleading_deficit_poly",
]
