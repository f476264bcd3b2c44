"""The abstract's Picard-rank-one claim on the families classified at index
r >= n - 2: every smooth curve is slope stable, except the line in P^n.

classify_curve runs with no flags, so the picard-rank-one rule never fires:
the verdict comes from the degree regimes alone. There a rational curve is
non-stable only at d = 1, d = 2 or d = n + 1, and only for epsilon at or
past the regime's deciding zero. Such an epsilon is then checked against the
volume of the blowup: sigma*L - epsilon*E is nef, so
n! * a0(epsilon) = L**n - n*d*epsilon**(n-1) + p*epsilon**n >= 0. A
non-stable verdict on a true Picard-rank-one family must fail that check,
the line in P^n alone excepted, where a0(n + 1) = 0.
"""

from collections import Counter
from fractions import Fraction

import pytest
import sympy

from fanoslope.blowup import CurveScenario
from fanoslope.classify import VerdictStatus, classify_curve
from fanoslope.errors import ScenarioInconsistent
from fanoslope.exactnum import Surd, render_value
from fanoslope.seshadri import SeshadriEstimate

from fano_picard_one import picard_one_families

HALF = Fraction(1, 2)


def test_the_three_fold_rows_are_iskovskikhs_seventeen_families():
    rows = picard_one_families(3)
    assert len(rows) == 17 and len({name for name, _, _ in rows}) == 17
    # (index, (-K)**3) as the classification lists them
    assert sorted((r, r**3 * hn) for _, r, hn in rows) == sorted(
        [(4, 64), (3, 54)]
        + [(2, 8 * k) for k in range(1, 6)]
        + [(1, 2 * g - 2) for g in (*range(2, 11), 12)]
    )


def _twists(n, d):
    """Exact epsilons for a degree-d rational curve in an n-fold: 1/2, n - 1/2,
    the regime's deciding zero and, for d <= 2, the zero plus 1/2 and plus 1.
    Each comes as (the engine's value, the same number for the volume check);
    only sqrt(n**2 - 1) needs sympy."""
    points = [(HALF, HALF), (n - HALF, n - HALF)]
    if d == 1:
        root = sympy.sqrt(n * n - 1)
        points += [
            (Surd(step, 1, n * n - 1), sympy.Rational(step) + root)
            for step in (Fraction(0), HALF, Fraction(1))
        ]
    elif d == 2:
        points += [(n + step, n + step) for step in (Fraction(0), HALF, Fraction(1))]
    elif d == n + 1:
        points.append((Fraction(d), Fraction(d)))
    return points


def _volume_sign(n, d, p, ln, eps):
    """The sign of n! * a0(eps) = Ln - n*d*eps**(n-1) + p*eps**n."""
    value = ln - n * d * eps ** (n - 1) + p * eps**n
    if isinstance(value, Fraction):
        return (value > 0) - (value < 0)
    return int(sympy.sign(sympy.expand(value)))


def _outcomes():
    """Each grid case's outcome, keyed by (n, family, e, epsilon)."""
    outcomes = {}
    for n in range(3, 16):
        for name, r, hn in picard_one_families(n):
            ln = r**n * hn
            for e in range(1, 5):
                d = r * e
                s = CurveScenario.anticanonical_curve(n, 0, d, ln)
                for eps, exact in _twists(n, d):
                    try:
                        verdict = classify_curve(s, SeshadriEstimate(eps, eps))
                    except ScenarioInconsistent:
                        outcome = "refused"
                    else:
                        outcome = _verdict_outcome(s, verdict, exact, r)
                    outcomes[n, name, e, render_value(eps)] = outcome
    return outcomes


def _verdict_outcome(s, verdict, eps, r):
    if verdict.status is VerdictStatus.STABLE:
        return "stable"
    n, d = s.n, s.degree
    sign = _volume_sign(n, d, s.normal_degree, s.ln, eps)
    if sign < 0:
        return "volume"
    line = r == n + 1 and d == n + 1 and eps == n + 1
    if line and sign == 0 and verdict.status is VerdictStatus.SEMISTABLE_NOT_STABLE:
        return "line"
    return f"contradiction: {verdict.status.value}, volume sign {sign}"


@pytest.fixture(scope="module")
def outcomes():
    return _outcomes()


def test_every_non_stable_verdict_fails_the_volume_check_but_the_line(outcomes):
    # 13 dimensions, 17 families, e = 1..4: two epsilons each, one more at
    # d = n + 1 and three more at d <= 2
    assert len(outcomes) == 1911
    counts = Counter(outcomes.values())
    assert set(counts) == {"stable", "refused", "volume", "line"}, counts
    # the line in P^n, and only it, is semistable and not stable
    assert sorted(key for key, outcome in outcomes.items() if outcome == "line") == [
        (n, "projective space", 1, str(n + 1)) for n in range(3, 16)
    ]
    assert counts["volume"] > 0 and counts["refused"] > 0


def test_the_volume_check_is_what_decides_the_hand_worked_cases(outcomes):
    # n = 4 Mukai lines (d = 2) non-stable past epsilon = 4 need Ln >= 512,
    # n = 5 Mukai conics (d = 6 = n + 1) at epsilon = 6 need Ln >= 7776
    for g in (*range(2, 11), 12):
        name = f"Mukai of genus {g}"
        assert outcomes[4, name, 1, "4"] == "volume"
        assert outcomes[5, name, 2, "6"] == "volume"
