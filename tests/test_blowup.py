"""Blowup intersection kernel, checked against a symbolic expansion oracle.

The oracle rebuilds both Hilbert-coefficient polynomials in sympy straight
from the binomial expansion and the table of surviving intersection numbers
against the exceptional divisor, so the closed forms in the package are never
compared against themselves.
"""

from decimal import Decimal
from fractions import Fraction
from math import factorial, gcd

import pytest
import sympy
from hypothesis import example, given, strategies as st

from fanoslope.blowup import (
    CurveScenario,
    _hilbert_terms,
    check_epsilon_consistency,
    exceptional_restriction_poly,
    hilbert_leading_poly,
    hilbert_subleading_poly,
)
from fanoslope.errors import (
    DimensionTooSmall,
    InvalidScenario,
    ScenarioInconsistent,
)
from fanoslope.exactnum import Polynomial, Surd, compare
from fanoslope.slope import quotient_slope_via_integrals

from generators import make_rng, random_anticanonical_scenario, random_general_scenario
from paper_formulas import anticanonical_square_exceptional, exceptional_power_table
import polynomial_oracle

X = sympy.Symbol("x")


def _sympy_rational(fraction):
    return sympy.Rational(fraction.numerator, fraction.denominator)


def _as_sympy(poly):
    return sum(_sympy_rational(c) * X**i for i, c in enumerate(poly.coeffs))


def _table(scenario):
    """(sigma*L)**i . (-E)**(n-1-i) . E for i = 0..n-1, built by hand."""
    t = [sympy.Integer(0)] * scenario.n
    t[0] = sympy.Integer(-scenario.normal_degree)
    t[1] = sympy.Integer(scenario.degree)
    return t


def symbolic_leading(scenario):
    """Expand (sigma*L - x*E)**n / n! term by term."""
    s = scenario
    t = _table(s)
    total = _sympy_rational(s.ln)
    for k in range(1, s.n + 1):
        # (sigma*L)**(n-k) . (-E)**k = -t[n-k] once one E is split off
        total += sympy.binomial(s.n, k) * X**k * (-t[s.n - k])
    return sympy.expand(total / sympy.factorial(s.n))


def symbolic_subleading(scenario):
    """Expand -K_hat . (sigma*L - x*E)**(n-1) / (2*(n-1)!) term by term."""
    s = scenario
    n = s.n
    t = _table(s)
    kz = 2 * s.genus - 2 - s.normal_degree
    k_part = _sympy_rational(s.k_ln1)
    for k in range(1, n):
        # sigma*K survives only against the pure omega power (k = n-1)
        value = -sympy.Integer(kz) if n - 1 - k == 0 else sympy.Integer(0)
        k_part += sympy.binomial(n - 1, k) * X**k * value
    e_part = sum(
        sympy.binomial(n - 1, k) * X**k * t[n - 1 - k] for k in range(n)
    )
    total = -(k_part + (n - 2) * e_part) / (2 * sympy.factorial(n - 1))
    return sympy.expand(total)


# -- scenario validation ---------------------------------------------------


def test_anticanonical_constructor_fills_adjunction():
    s = CurveScenario.anticanonical_curve(3, 0, 4, 64)
    assert s.normal_degree == 2
    assert s.k_ln1 == -64
    assert s.canonical_degree == -4


def test_anticanonical_adjunction_holds_for_higher_genus():
    s = CurveScenario.anticanonical_curve(4, 2, 3, 10)
    assert s.normal_degree == 3 - 2 + 4
    with pytest.raises(InvalidScenario):
        CurveScenario(4, 2, 3, 0, Fraction(10), Fraction(-10), anticanonical=True)


_KLN1 = "anticanonical scenarios have KLn1 = -Ln"
_INVALID = [
    (dict(n=1, genus=0, degree=1, normal_degree=0, ln=1, k_ln1=0),
     "ambient dimension must be at least 2"),
    (dict(n=3, genus=-1, degree=1, normal_degree=0, ln=1, k_ln1=0),
     "genus must be non-negative"),
    (dict(n=3, genus=0, degree=0, normal_degree=0, ln=1, k_ln1=0),
     "curve degree L.Z must be a positive integer"),
    (dict(n=3, genus=0, degree=1, normal_degree=0, ln=0, k_ln1=0),
     "L**n must be positive for an ample class"),
    (dict(n=3, genus=0, degree=1, normal_degree=0, ln=1, k_ln1=-1,
          anticanonical=True),
     "anticanonical adjunction forces normal bundle degree -1, got 0"),
    # L = -K_X forces K.L**(n-1) = -L**n, in sign, numerator and denominator
    (dict(n=3, genus=0, degree=4, normal_degree=2, ln=64, k_ln1=64,
          anticanonical=True), _KLN1),
    (dict(n=3, genus=0, degree=4, normal_degree=2, ln=Fraction(3, 2),
          k_ln1=Fraction(-5, 2), anticanonical=True), _KLN1),
    (dict(n=3, genus=0, degree=4, normal_degree=2, ln=Fraction(3, 2),
          k_ln1=Fraction(-3, 4), anticanonical=True), _KLN1),
    # bools are not integers, and only a bool says whether L = -K_X
    (dict(n=3, genus=False, degree=4, normal_degree=True, ln=64, k_ln1=-64),
     "genus must be an integer"),
    (dict(n=3, genus=True, degree=1, normal_degree=0, ln=1, k_ln1=0),
     "genus must be an integer"),
    (dict(n=3, genus=0, degree=True, normal_degree=0, ln=1, k_ln1=0),
     "degree must be an integer"),
    (dict(n=3, genus=0, degree=4, normal_degree=2, ln=64, k_ln1=-64,
          anticanonical="no"), "anticanonical must be true or false"),
    (dict(n=3, genus=0, degree=4, normal_degree=2, ln=64, k_ln1=-64,
          anticanonical=1), "anticanonical must be true or false"),
    # the anticanonical rules fill in a None, and only for L = -K_X
    (dict(n=3, genus=0, degree=4, normal_degree=None, ln=64, k_ln1=64,
          anticanonical=True), _KLN1),
    (dict(n=3, genus=0, degree=4, normal_degree=3, ln=64, k_ln1=None,
          anticanonical=True),
     "anticanonical adjunction forces normal bundle degree 2, got 3"),
    (dict(n=3, genus=0, degree=4, normal_degree=None, ln=64, k_ln1=-64),
     "normal_degree must be an integer"),
]


# ids by position, as pytest names a lone kwargs parameter, so each case keeps its id
@pytest.mark.parametrize(
    "kwargs, message", _INVALID, ids=[f"kwargs{i}" for i in range(len(_INVALID))]
)
def test_invalid_scenarios_are_rejected(kwargs, message):
    with pytest.raises(InvalidScenario) as caught:
        CurveScenario(**kwargs)
    assert str(caught.value) == message


@pytest.mark.parametrize("normal_degree", [None, 2])
@pytest.mark.parametrize("k_ln1", [None, -64, Fraction(-64)])
def test_anticanonical_none_fields_are_filled_by_the_rules(normal_degree, k_ln1):
    s = CurveScenario(3, 0, 4, normal_degree, 64, k_ln1, anticanonical=True)
    assert s == CurveScenario.anticanonical_curve(3, 0, 4, 64)
    assert type(s.normal_degree) is int and type(s.k_ln1) is Fraction


def test_a_missing_k_ln1_needs_an_anticanonical_scenario():
    with pytest.raises(TypeError, match="k_ln1 must be an int or a Fraction"):
        CurveScenario(3, 0, 4, 2, 64, None)


# -- power table and restriction polynomial --------------------------------


def test_power_table_isolated_entries():
    s = CurveScenario.anticanonical_curve(3, 0, 1, 54)  # d=1, p=-1
    assert exceptional_power_table(s) == (1, 1, 0)
    flat = CurveScenario(2, 0, 1, 0, Fraction(8), Fraction(-6))
    assert exceptional_power_table(flat) == (0, 1)


def test_power_table_vanishes_from_index_two_on():
    rng = make_rng(7)
    for _ in range(40):
        s = random_general_scenario(rng)
        table = exceptional_power_table(s)
        assert table[0] == -s.normal_degree
        assert table[1] == s.degree
        assert all(v == 0 for v in table[2:])


def test_restriction_poly_examples():
    s = CurveScenario.anticanonical_curve(3, 0, 1, 54)  # x*(2 + x)
    assert exceptional_restriction_poly(s) == Polynomial([0, 2, 1])
    t = CurveScenario.anticanonical_curve(4, 0, 2, 512)  # 6x^2
    assert exceptional_restriction_poly(t) == Polynomial([0, 0, 6])


def test_leading_poly_matches_symbolic_expansion():
    rng = make_rng(11)
    for _ in range(50):
        s = random_general_scenario(rng, n_lo=2)
        mine = _as_sympy(hilbert_leading_poly(s))
        assert sympy.expand(mine - symbolic_leading(s)) == 0


def test_subleading_poly_matches_symbolic_expansion():
    rng = make_rng(13)
    for _ in range(50):
        s = random_general_scenario(rng)
        mine = _as_sympy(hilbert_subleading_poly(s))
        assert sympy.expand(mine - symbolic_subleading(s)) == 0


def test_subleading_poly_isolated_example():
    s = CurveScenario.anticanonical_curve(3, 0, 1, 22)
    # (11 - x - x^2) / 2
    assert hilbert_subleading_poly(s) == Polynomial(
        [Fraction(11, 2), Fraction(-1, 2), Fraction(-1, 2)]
    )


def test_subleading_needs_dimension_three():
    s = CurveScenario(2, 0, 1, 0, Fraction(8), Fraction(-6))
    subleading = "subleading Hilbert coefficient needs ambient dimension >= 3"
    for build, words in (
        (hilbert_subleading_poly, subleading),
        (lambda s: _hilbert_terms(s, 1), subleading),
        (
            lambda s: quotient_slope_via_integrals(s, Fraction(1)),
            "quotient slopes for curves need ambient dimension >= 3",
        ),
    ):
        with pytest.raises(DimensionTooSmall) as raised:
            build(s)
        assert str(raised.value) == words
    assert _hilbert_terms(s, 0) == ([(0, 8), (1, -2)], 2)  # a0 = (8 - 2x) / 2


@st.composite
def hilbert_scenario(draw):
    """A scenario of dimension 3 to 40 with fractional L**n and K.L**(n-1)
    and a normal degree p of either sign."""
    def rational(low, high):
        return Fraction(draw(st.integers(low, high)), draw(st.integers(1, 720)))

    return CurveScenario(
        draw(st.integers(3, 40)), draw(st.integers(0, 12)), draw(st.integers(1, 60)),
        draw(st.integers(-60, 60)), rational(1, 10**6), rational(-10**6, 10**6),
    )


def _dense(terms, den):
    """(power, numerator) terms over den, laid out densely and normalised:
    the numerators and denominator a Polynomial keeps."""
    nums = [0] * (terms[-1][0] + 1)
    for k, c in terms:
        nums[k] = c
    divisor = gcd(den, *nums)
    return tuple(c // divisor for c in nums), den // divisor


@given(hilbert_scenario())
@example(CurveScenario(3, 1, 2, 5, Fraction(7, 3), Fraction(-5, 2)))  # a1 has no x**2
@example(CurveScenario(4, 0, 1, -3, Fraction(5, 2), Fraction(0)))  # K.L**3 = 0
@example(CurveScenario(5, 2, 3, 0, Fraction(7, 6), Fraction(-1, 4)))  # p = 0
@example(CurveScenario(40, 3, 7, -9, Fraction(11, 6), Fraction(-13, 4)))
def test_hilbert_terms_are_the_polynomials_numerators(s):
    # each index with its wrapper, the Fraction-based oracle and the denominator
    cases = (
        (hilbert_leading_poly, polynomial_oracle.hilbert_leading_poly,
         factorial(s.n) * s.ln.denominator),
        (hilbert_subleading_poly, polynomial_oracle.hilbert_subleading_poly,
         2 * factorial(s.n - 1) * s.k_ln1.denominator),
    )
    for index, (build, oracle, scale) in enumerate(cases):
        terms, den = _hilbert_terms(s, index)
        assert den == scale
        assert 1 <= len(terms) <= 3
        assert [k for k, _ in terms] == sorted({k for k, _ in terms})
        assert all(type(c) is int and c for _, c in terms)
        poly = build(s)
        assert _dense(terms, den) == (poly._nums, poly._den)
        assert poly.coeffs == oracle(s).coeffs


def test_leading_derivative_is_minus_restriction_poly():
    rng = make_rng(17)
    for _ in range(60):
        s = random_general_scenario(rng, n_lo=2)
        # read into the oracle class, which differentiates and scales
        ring = polynomial_oracle.Polynomial
        lhs = ring(hilbert_leading_poly(s).coeffs).differentiate()
        rhs = ring(exceptional_restriction_poly(s).coeffs)
        assert lhs == rhs * Fraction(-1, factorial(s.n - 1))


def test_leading_poly_at_zero_is_ln_over_n_factorial():
    rng = make_rng(19)
    for _ in range(30):
        s = random_general_scenario(rng)
        assert hilbert_leading_poly(s)(Fraction(0)) == s.ln / factorial(s.n)


# -- anticanonical square against the exceptional --------------------------


def test_anticanonical_square_exceptional_examples():
    assert anticanonical_square_exceptional(4, 0) == 6
    assert anticanonical_square_exceptional(Fraction(1), 0) == 3
    assert anticanonical_square_exceptional(3, 1) == 3


def test_anticanonical_square_matches_restriction_expansion():
    # On a threefold, (-K_hat)**2.E is the restriction polynomial of the
    # anticanonical scenario evaluated at x = 1.
    rng = make_rng(23)
    for _ in range(25):
        g = rng.randint(0, 3)
        deg_kc = rng.randint(2 * g, 2 * g + 6) + 1  # keep degree positive
        s = CurveScenario.anticanonical_curve(3, g, deg_kc, 60)
        via_poly = exceptional_restriction_poly(s)(Fraction(1))
        assert anticanonical_square_exceptional(deg_kc, g) == via_poly


def test_anticanonical_square_rejects_bad_genus():
    with pytest.raises(InvalidScenario):
        anticanonical_square_exceptional(4, -1)


# -- declared epsilon consistency ------------------------------------------


def test_epsilon_consistency_boundary_is_allowed():
    line = CurveScenario.anticanonical_curve(3, 0, 4, 64)
    check_epsilon_consistency(line, Fraction(4))  # (n-1)d - eps*p = 0: fine


def test_epsilon_consistency_rejects_excess():
    line = CurveScenario.anticanonical_curve(3, 0, 4, 64)
    with pytest.raises(ScenarioInconsistent):
        check_epsilon_consistency(line, Fraction(9, 2))


def test_epsilon_consistency_handles_surds():
    s = CurveScenario.anticanonical_curve(3, 2, 1, 30)  # p = 3, cap 2/3
    check_epsilon_consistency(s, Surd(0, Fraction(1, 3), 2))  # sqrt2/3 < 2/3
    with pytest.raises(ScenarioInconsistent):
        check_epsilon_consistency(s, Surd(0, 1, 2))  # sqrt2 > 2/3


def test_epsilon_consistency_no_cap_for_nonpositive_normal_degree():
    s = CurveScenario.anticanonical_curve(3, 0, 1, 54)  # p = -1
    check_epsilon_consistency(s, Fraction(1000))


def oracle_consistent(scenario, epsilon):
    """The sign test check_epsilon_consistency replaced: build the margin
    (n-1)*d - epsilon*p as a number and compare it with 0."""
    s = scenario
    margin = Fraction((s.n - 1) * s.degree) + epsilon * (-s.normal_degree)
    return compare(margin, 0) >= 0


general_scenarios_st = st.builds(
    CurveScenario,
    n=st.integers(2, 8),
    genus=st.integers(0, 3),
    degree=st.integers(1, 8),
    normal_degree=st.integers(-6, 6),  # every sign of p
    ln=st.just(Fraction(1)),
    k_ln1=st.just(Fraction(0)),
)
epsilon_fractions_st = st.fractions(min_value=-10, max_value=10, max_denominator=12)
epsilon_radicands_st = st.sampled_from([0, 2, 3, 8, 15, 89999])
nudges_st = st.builds(
    Surd,
    st.just(0),
    st.fractions(min_value=-1, max_value=1, max_denominator=1000),
    epsilon_radicands_st,
)


@st.composite
def scenario_and_epsilon(draw):
    """A scenario and an epsilon, often at or right next to its cap."""
    s = draw(general_scenarios_st)
    p = s.normal_degree
    cap = Fraction((s.n - 1) * s.degree, p) if p else Fraction(s.n)
    epsilon = draw(st.one_of(
        st.integers(-10, 10),
        epsilon_fractions_st,
        st.builds(Surd, epsilon_fractions_st, epsilon_fractions_st, epsilon_radicands_st),
        st.sampled_from([cap, int(cap)] if cap.denominator == 1 else [cap]),
        nudges_st.map(lambda surd: cap + surd),  # a surd just above or below the cap
        nudges_st.map(lambda surd: surd.coef + cap),  # a rational next to the cap
    ))
    return s, epsilon


@given(scenario_and_epsilon())
@example((CurveScenario(3, 0, 4, 2, Fraction(1), Fraction(0)), 4))  # at the cap
@example((CurveScenario(3, 0, 4, 2, Fraction(1), Fraction(0)), Fraction(4001, 1000)))
@example((CurveScenario(3, 0, 6, 4, Fraction(1), Fraction(0)), Surd(0, Fraction(1, 100), 89999)))
@example((CurveScenario(3, 0, 6, 4, Fraction(1), Fraction(0)), Surd(0, Fraction(1, 100), 90001)))
@example((CurveScenario(3, 0, 2, -3, Fraction(1), Fraction(0)), -Surd(0, 1, 2)))  # p < 0
@example((CurveScenario(3, 0, 2, -3, Fraction(1), Fraction(0)), Surd(-2, 1, 2)))
@example((CurveScenario(3, 0, 2, 0, Fraction(1), Fraction(0)), Surd(-9, 1, 2)))  # p = 0
def test_epsilon_consistency_matches_the_margin_formula(case):
    scenario, epsilon = case
    if oracle_consistent(scenario, epsilon):
        check_epsilon_consistency(scenario, epsilon)
        return
    with pytest.raises(ScenarioInconsistent) as raised:
        check_epsilon_consistency(scenario, epsilon)
    assert str(raised.value) == (
        f"declared Seshadri value {epsilon} makes (n-1)*d - epsilon*p "
        "negative; no ample class restricts that way"
    )


@pytest.mark.parametrize("p", [-2, 0, 2])
@pytest.mark.parametrize("bad", [0.5, True, "1", Decimal(1), None])
def test_epsilon_consistency_refuses_what_is_not_a_number(p, bad):
    s = CurveScenario(3, 0, 1, p, Fraction(1), Fraction(0))
    with pytest.raises(TypeError):
        check_epsilon_consistency(s, bad)
