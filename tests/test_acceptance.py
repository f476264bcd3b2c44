"""Acceptance suite: one test per verification criterion.

Every check here is exact (integer / rational / surd arithmetic); there are
no tolerances anywhere. Each test prints a single
``criterion NN PASS/FAIL <title>`` line (visible with ``pytest -s``; the
same lines are repeated in the terminal summary by conftest.py).
"""

import functools
import itertools
import json
from fractions import Fraction

from fanoslope.blowup import CurveScenario, exceptional_restriction_poly
from fanoslope.classify import (
    BundleSplitting,
    ClassifyFlags,
    VerdictStatus,
    classify_curve,
)
from fanoslope.cli import parse_scenario_file, resolve_estimate
from fanoslope.exactnum import Polynomial, Surd, compare
from fanoslope.seshadri import (
    SeshadriEstimate,
    blowup_exceptional_shift,
    certify_exact_by_restriction,
    linear_subspace_exact,
    product_fiber_estimate,
    witness_curve_upper,
)
from fanoslope.slope import (
    destabilizing_quadratic,
    manifold_slope,
    quotient_slope,
    quotient_slope_via_integrals,
)

from generators import (
    consistency_cap,
    consistent_lambda,
    make_rng,
    random_anticanonical_scenario,
    random_general_scenario,
)
from paper_formulas import (
    admissible_normal_bundle,
    anticanonical_square_exceptional,
    fano_bundle_check,
    fano_quadratic_at_degree,
    leading_deficit_poly,
    margin_factorization_residual,
    normalized,
)


def criterion(num, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} FAIL {title}")
                raise
            print(f"criterion {num:02d} PASS {title}")
            return result

        wrapper._criterion = (num, title)
        return wrapper

    return decorate


@criterion(1, "anticanonical slope is n/2 in every dimension")
def test_criterion_01_slope():
    for n in range(2, 11):
        s = CurveScenario.anticanonical_curve(n, 0, 1, Fraction(4))
        assert manifold_slope(s) == Fraction(n, 2)
    general = CurveScenario(3, 0, 2, 0, Fraction(10), Fraction(-4))
    assert manifold_slope(general) == Fraction(3, 5)
    del_pezzo = CurveScenario(2, 0, 2, 0, Fraction(4), Fraction(-4))
    assert manifold_slope(del_pezzo) == Fraction(1)


@criterion(2, "closed-form quotient slope equals the integral route")
def test_criterion_02_quotient_slope_routes():
    rng = make_rng(1002)
    checked = 0
    while checked < 200:
        s = random_general_scenario(rng)
        lam = consistent_lambda(rng, s)
        report = quotient_slope(s, lam, cross_check=True)
        assert report.via_integral == report.value
        assert quotient_slope_via_integrals(s, lam) == report.value
        checked += 1
    assert checked == 200


@criterion(3, "anticanonical margin factors through the restriction poly")
def test_criterion_03_margin_factorization():
    rng = make_rng(1003)
    for _ in range(50):
        s = random_anticanonical_scenario(rng)
        points = [Fraction(k, 3) for k in range(1, s.n + 3)]
        assert len(points) >= s.n + 2
        for x in points:
            assert margin_factorization_residual(s, x) == 0


@criterion(4, "destabilizing quadratic specializations and boundary values")
def test_criterion_04_quadratic():
    for n in range(3, 11):
        m = n * n - 1
        conic = CurveScenario.anticanonical_curve(n, 0, 2, Fraction(60))
        assert destabilizing_quadratic(conic) == Polynomial([2 * n * m, -2 * m])
        line = CurveScenario.anticanonical_curve(n, 0, 1, Fraction(60))
        assert destabilizing_quadratic(line) == Polynomial([n * m, 0, -n])
        for p in range(-1, n + 1):
            d = p + 2
            s = CurveScenario.anticanonical_curve(n, 0, d, Fraction(60))
            direct = destabilizing_quadratic(s)(Fraction(d))
            assert fano_quadratic_at_degree(n, p) == direct
            assert (direct == 0) == (p == n - 1)


@criterion(5, "product fiber scenarios sit exactly at the borderline")
def test_criterion_05_product_fiber():
    ln_by_n = {3: 54, 4: 512, 5: 6250}
    for n in (3, 4, 5):
        s = CurveScenario.anticanonical_curve(n, 0, 2, Fraction(ln_by_n[n]))
        point = linear_subspace_exact(n - 1)
        estimate = product_fiber_estimate(point)
        assert estimate.exact == n
        assert any(rule == "product-fiber" for rule, _ in estimate.provenance)
        verdict = classify_curve(s, estimate)
        assert verdict.status is VerdictStatus.SEMISTABLE_NOT_STABLE
        assert verdict.witness_lambda == n
        assert destabilizing_quadratic(s)(Fraction(n)) == 0


@criterion(6, "lines in projective space are strictly semistable")
def test_criterion_06_projective_line():
    for n in (3, 4, 5):
        s = CurveScenario.anticanonical_curve(
            n, 0, n + 1, Fraction((n + 1) ** n)
        )
        estimate = linear_subspace_exact(n)
        assert estimate.exact == n + 1
        flags = ClassifyFlags(is_pn=True, picard_rank_one=True)
        verdict = classify_curve(s, estimate, flags)
        assert verdict.status is VerdictStatus.SEMISTABLE_NOT_STABLE
        assert verdict.witness_lambda == n + 1
        assert destabilizing_quadratic(s)(Fraction(n + 1)) == 0


@criterion(7, "blowup certificate chain destabilizes the exceptional fiber")
def test_criterion_07_blowup_certificate():
    center = linear_subspace_exact(3)
    shifted = blowup_exceptional_shift(center)
    assert shifted.exact == 3
    cap = witness_curve_upper(Fraction(3))
    certified = certify_exact_by_restriction(
        upper_for_z=cap, ambient=shifted, restricted_value=Fraction(3)
    )
    assert certified.exact == 3
    rules = [rule for rule, _ in certified.provenance]
    assert "blowup-exceptional-shift" in rules
    assert any("restriction" in rule for rule in rules)

    s = CurveScenario.anticanonical_curve(3, 0, 1, Fraction(54))
    verdict = classify_curve(s, certified)
    assert verdict.status is VerdictStatus.STRICTLY_DESTABILIZED
    assert verdict.witness_lambda == 3
    assert destabilizing_quadratic(s)(Fraction(3)) == -3

    # the bundled scenario file resolves to the same certificate
    from importlib.resources import files

    path = files("fanoslope") / "fixtures" / "blp3_fiber.json"
    with open(str(path), encoding="utf-8") as handle:
        entry = parse_scenario_file(json.load(handle)).entries[0]
    resolved = resolve_estimate(entry)
    assert resolved.exact == 3
    assert "blowup-exceptional-shift" in [r for r, _ in resolved.provenance]


@criterion(8, "self-intersection of the exceptional restriction")
def test_criterion_08_square_exceptional():
    assert anticanonical_square_exceptional(4, 0) == 6
    rng = make_rng(1008)
    for _ in range(5):
        genus = rng.randint(0, 3)
        deg_kc = rng.randint(2 * genus + 1, 2 * genus + 8)
        s = CurveScenario.anticanonical_curve(3, genus, deg_kc, Fraction(60))
        assert anticanonical_square_exceptional(
            deg_kc, genus
        ) == exceptional_restriction_poly(s)(Fraction(1))


@criterion(9, "Fano projectivization and admissible splitting classifiers")
def test_criterion_09_bundle_classifiers():
    for k in range(2, 7):
        assert fano_bundle_check(
            BundleSplitting([0] * k)
        ).is_fano_projectivization
        assert fano_bundle_check(
            BundleSplitting([0] * (k - 1) + [1])
        ).is_fano_projectivization
        for twists in itertools.product(range(0, 3), repeat=k):
            b = BundleSplitting(twists)
            d = sum(normalized(b).twists)
            assert fano_bundle_check(b).is_fano_projectivization == (d < 2)
    for n in (3, 4, 5):
        for twists in itertools.product(range(-2, 3), repeat=n - 1):
            b = BundleSplitting(twists)
            diffs = [t - min(b.twists) for t in b.twists]
            expected = sum(diffs) == 0 or (
                sum(diffs) == 1 and max(diffs) == 1
            )
            assert admissible_normal_bundle(n, b) == expected


@criterion(10, "irrational threshold is hit exactly, not approximately")
def test_criterion_10_surd_threshold():
    for n in (3, 4, 5):
        s = CurveScenario.anticanonical_curve(n, 0, 1, Fraction(4 * n))
        t = Surd(0, 1, n * n - 1)
        at = classify_curve(s, SeshadriEstimate(t, t))
        assert at.status is VerdictStatus.SEMISTABLE_NOT_STABLE
        assert isinstance(at.witness_lambda, Surd)
        assert at.witness_lambda.rad != 0  # genuinely irrational witness
        assert compare(destabilizing_quadratic(s)(at.witness_lambda), 0) == 0
        nudge = Fraction(1, 1000)
        below = classify_curve(s, SeshadriEstimate(t - nudge, t - nudge))
        assert below.status is VerdictStatus.STABLE
        above = classify_curve(s, SeshadriEstimate(t + nudge, t + nudge))
        assert above.status is VerdictStatus.STRICTLY_DESTABILIZED
        assert compare(
            destabilizing_quadratic(s)(above.witness_lambda), 0
        ) < 0


@criterion(11, "randomized invariants: positivity, coherence, monotonicity")
def test_criterion_11_randomized_properties():
    rng = make_rng(1011)

    # leading Hilbert deficit is positive on the consistent range
    for _ in range(100):
        s = random_general_scenario(rng)
        lam = consistent_lambda(rng, s)
        assert leading_deficit_poly(s)(lam) > 0

    # the quotient-slope denominator factor stays positive there too
    for _ in range(100):
        s = random_general_scenario(rng)
        lam = consistent_lambda(rng, s)
        assert Fraction((s.n - 1) * s.degree) - lam * s.normal_degree > 0

    # verdict / quadratic coherence on anticanonical rational curves
    checked = 0
    for _ in range(150):
        n = rng.randint(3, 7)
        d = rng.randint(1, 6)
        s = CurveScenario.anticanonical_curve(n, 0, d, Fraction(rng.randint(2, 90)))
        p = s.normal_degree
        cap = (
            min(Fraction(d), Fraction((n - 1) * d, p))
            if p > 0
            else Fraction(n + 2)
        )
        eps = cap * Fraction(rng.randint(1, 14), 14)
        verdict = classify_curve(s, SeshadriEstimate(eps, eps))
        quadratic = destabilizing_quadratic(s)
        if verdict.status is VerdictStatus.STRICTLY_DESTABILIZED:
            assert compare(quadratic(verdict.witness_lambda), 0) < 0
        elif verdict.status is VerdictStatus.SEMISTABLE_NOT_STABLE:
            assert compare(quadratic(verdict.witness_lambda), 0) == 0
        else:
            assert verdict.status is VerdictStatus.STABLE
            for k in range(1, 8):
                assert quadratic(eps * Fraction(k, 7)) > 0
        checked += 1
    assert checked == 150

    # a larger certified epsilon never restores stability
    order = {
        VerdictStatus.STABLE: 0,
        VerdictStatus.SEMISTABLE_NOT_STABLE: 1,
        VerdictStatus.STRICTLY_DESTABILIZED: 2,
    }
    ladders = 0
    for n in range(3, 7):
        line = CurveScenario.anticanonical_curve(n, 0, 1, Fraction(6))
        t = Surd(0, 1, n * n - 1)
        conic = CurveScenario.anticanonical_curve(n, 0, 2, Fraction(60))
        diag = CurveScenario.anticanonical_curve(
            n, 0, n + 1, Fraction((n + 1) ** n)
        )
        for s, ladder in (
            (line, [t - Fraction(1, 2), t, t + Fraction(1, 2)]),
            (conic, [Fraction(n) - 1, Fraction(n), Fraction(n) + 1]),
            (diag, [Fraction(n), Fraction(n + 1)]),
        ):
            ranks = [
                order[classify_curve(s, SeshadriEstimate(e, e)).status]
                for e in ladder
            ]
            assert ranks == sorted(ranks)
            ladders += 1
    assert ladders == 12
