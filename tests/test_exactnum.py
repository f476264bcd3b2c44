"""Arithmetic substrate: polynomials, surds, quadratic roots."""

import copy
import itertools
import math
import operator
import pickle
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from fanoslope.blowup import CurveScenario
from fanoslope.classify import _regime
from fanoslope.cli import format_fixed
from fanoslope.errors import IncomparableRadicands, InvalidScenario
from fanoslope.exactnum import (
    _MAX_RADICAND, Polynomial, Surd, _fraction, _ints, _squarefree_decompose, compare,
    parse_rational, render_value,
)
from fanoslope.seshadri import (
    linear_subspace_exact,
    point_upper_bound,
    proper_transform_upper,
    witness_curve_upper,
)

from paper_formulas import (
    AllCoefficientsZero, anticanonical_square_exceptional, quadratic_roots, surd_sqrt,
)
import polynomial_oracle
import surd_oracle

fractions_st = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
poly_st = st.lists(fractions_st, max_size=7).map(Polynomial)


# -- Polynomial ------------------------------------------------------------


def test_trailing_zeros_are_stripped():
    assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])
    assert Polynomial([0, 0]) == Polynomial()
    assert Polynomial().degree == -1


def test_evaluation_at_rational_and_surd_points():
    p = Polynomial([24, 0, -3])  # -3x^2 + 24
    assert p(Fraction(2)) == 12
    assert p(Surd(0, 1, 8)) == Fraction(0)
    assert p(Surd(1, 1, 2)) == Surd(15, -6, 2)  # -3(1+sqrt2)^2 + 24


def oracle_poly(poly):
    """``poly`` as the test oracle's class, which adds, multiplies and
    differentiates; Polynomial itself is only built and evaluated."""
    return polynomial_oracle.Polynomial(poly.coeffs)


@given(poly_st, poly_st, fractions_st)
def test_evaluation_is_a_ring_homomorphism(p, q, x):
    total = Polynomial((oracle_poly(p) + oracle_poly(q)).coeffs)
    product = Polynomial((oracle_poly(p) * oracle_poly(q)).coeffs)
    assert total(x) == p(x) + q(x)
    assert product(x) == p(x) * q(x)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Surd(1, 1, -2), "radicand must be non-negative"),
    ],
    ids=["negative-radicand"],
)
def test_out_of_domain_arguments_raise_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_polynomial_arithmetic_takes_only_polynomials():
    # a scalar would be the constant polynomial only by a silent reading
    p = Polynomial([1])
    with pytest.raises(TypeError):
        p + 1
    with pytest.raises(TypeError):
        p - 1
    assert (p == 1) is False


# -- Surd ------------------------------------------------------------------


def test_canonical_form_extracts_square_factors():
    s = Surd(0, 1, 8)
    assert (s.rat, s.coef, s.rad) == (0, 2, 2)
    assert Surd(3, 0, 17) == Surd(3)
    assert Surd(1, 2, 9) == Surd(7)  # 1 + 2*3


def test_sqrt_of_rational():
    assert surd_sqrt(Fraction(9, 4)) == Surd(Fraction(3, 2))
    assert surd_sqrt(Fraction(1, 2)) == Surd(0, Fraction(1, 2), 2)
    with pytest.raises(ValueError):
        surd_sqrt(-1)


def test_arithmetic_in_one_quadratic_field():
    a = Surd(1, 1, 2)
    b = Surd(0, 3, 2)
    assert a + b == Surd(1, 4, 2)
    assert a * b == Surd(6, 3, 2)
    assert (a - a) == Surd(0)
    assert a * a == Surd(3, 2, 2)
    assert (a / a) == Surd(1)
    assert Fraction(1, 2) + b == Surd(Fraction(1, 2), 3, 2)
    assert 2 * a == Surd(2, 2, 2)


def test_mixing_radicands_raises():
    with pytest.raises(IncomparableRadicands):
        Surd(0, 1, 2) + Surd(0, 1, 3)
    with pytest.raises(IncomparableRadicands):
        Surd(0, 1, 2) * Surd(0, 1, 5)
    with pytest.raises(IncomparableRadicands):
        compare(Surd(0, 1, 2), Surd(0, 1, 3))


def test_sign_analysis_opposite_parts():
    assert Surd(-2, 1, 2).sign() == -1   # sqrt2 < 2
    assert Surd(-1, 1, 2).sign() == 1    # sqrt2 > 1
    assert Surd(2, -1, 2).sign() == 1
    assert Surd(1, -1, 2).sign() == -1
    assert Surd(0).sign() == 0


def test_compare_and_rich_ordering():
    assert compare(Surd(0, 1, 8), 3) < 0
    assert compare(3, Surd(0, 1, 8)) > 0
    assert compare(Fraction(5, 2), Fraction(5, 2)) == 0
    assert Surd(0, 1, 2) < Surd(0, 1, 8)
    assert Surd(0, 1, 2) <= Fraction(3, 2)
    assert Fraction(1) < Surd(0, 1, 2)


def test_rational_surds_hash_like_fractions():
    assert hash(Surd(Fraction(7, 3))) == hash(Fraction(7, 3))
    assert Surd(Fraction(7, 3)) == Fraction(7, 3)


surd_st = st.builds(
    Surd,
    fractions_st,
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.just(2),
)


@given(surd_st, surd_st, surd_st)
def test_comparison_is_a_total_order(a, b, c):
    assert compare(a, b) == -compare(b, a)
    if compare(a, b) <= 0 and compare(b, c) <= 0:
        assert compare(a, c) <= 0
    assert (compare(a, b) == 0) == (a == b)


def as_sympy(value):
    """An int, Fraction or Surd as an exact sympy number."""
    if isinstance(value, Surd):
        return as_sympy(value.rat) + as_sympy(value.coef) * sympy.sqrt(value.rad)
    value = Fraction(value)
    return sympy.Rational(value.numerator, value.denominator)


one_field_st = st.sampled_from([2, 3, 8, 12]).flatmap(
    lambda m: st.tuples(
        st.builds(Surd, fractions_st, fractions_st, st.just(m)),
        st.one_of(
            st.integers(-6, 6),
            fractions_st,
            st.builds(Surd, fractions_st, fractions_st, st.just(m)),
        ),
    )
)


@given(one_field_st)
def test_field_operations_match_sympy(pair):
    # exact and independent: sympy's radicals are the oracle, no tolerance;
    # a is a Surd, so each operation runs a Surd method, reflected ones too
    a, b = pair
    x, y = as_sympy(a), as_sympy(b)
    for got, want in (
        (a + b, x + y), (b + a, y + x), (a - b, x - y), (b - a, y - x),
        (a * b, x * y), (b * a, y * x),
    ):
        assert sympy.expand(as_sympy(got) - want) == 0
    if b != 0:
        assert sympy.expand(as_sympy(a / b) * y - x) == 0
    if a != 0:
        assert sympy.expand(as_sympy(b / a) * x - y) == 0
    assert compare(a, b) == sympy.sign(x - y)
    assert compare(b, a) == sympy.sign(y - x)


# -- quadratic_roots -------------------------------------------------------


def test_roots_of_isolated_example():
    roots = quadratic_roots(-3, 0, 24)
    assert roots == (Surd(0, -2, 2), Surd(0, 2, 2))
    assert compare(roots[0], roots[1]) < 0


def test_roots_degenerate_cases():
    assert quadratic_roots(1, 0, 1) == ()
    assert quadratic_roots(1, -2, 1) == (Surd(1),)
    assert quadratic_roots(0, 2, -5) == (Surd(Fraction(5, 2)),)
    assert quadratic_roots(0, 0, 7) == ()
    with pytest.raises(AllCoefficientsZero):
        quadratic_roots(0, 0, 0)


@given(
    st.fractions(min_value=-8, max_value=8, max_denominator=5),
    st.fractions(min_value=-8, max_value=8, max_denominator=5),
    st.fractions(min_value=-8, max_value=8, max_denominator=5),
)
def test_roots_actually_solve_the_quadratic(a, b, c):
    if a == b == c == 0:
        return
    for root in quadratic_roots(a, b, c):
        value = a * root * root + b * root + c
        assert compare(value, 0) == 0


def test_render_value():
    assert render_value(Fraction(18, 5)) == "18/5"
    assert render_value(Surd(0, 2, 2)) == "2*sqrt(2)"
    assert render_value(Surd(Fraction(-1, 1000), 2, 2)) == "-1/1000 + 2*sqrt(2)"
    assert render_value(Surd(3, -1, 5)) == "3 - sqrt(5)"
    assert render_value(4) == "4"


# -- fast paths against the routines they replaced -------------------------
#
# compare, Surd.sign, Surd.__init__ and Polynomial.__call__ take shortcuts
# (no intermediate Surds, no re-normalised Fractions, no zero additions,
# Horner in integers over one common denominator at a rational point).
# The straightforward versions below are kept as oracles: the shortcuts must
# agree with them exactly, errors included.


def oracle_sign(value):
    """Sign of a Surd by case analysis on its parts, in Fraction arithmetic."""
    a, b, m = value.rat, value.coef, value.rad
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    left, right = a * a, b * b * m
    if a > 0:
        return 1 if left > right else -1
    return 1 if right > left else -1


def oracle_compare(left, right):
    return oracle_sign(old_sub(left, right))


def oracle_surd_parts(rat, coef, rad):
    """Canonical (rat, coef, rad) of rat + coef*sqrt(rad), by trial division."""
    rat, coef = Fraction(rat), Fraction(coef)
    if coef == 0 or rad == 0:
        return rat, Fraction(0), 0
    square = max(s for s in range(1, rad + 1) if s * s <= rad and rad % (s * s) == 0)
    coef *= square
    rad //= square * square
    if rad == 1:
        return rat + coef, Fraction(0), 0
    return rat, coef, rad


def oracle_squarefree_decompose(m):
    """(s, k) with m = s*s*k and k square-free, by trial division up to sqrt(m)."""
    s, k = 1, 1
    rest = m
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            count = 0
            while rest % d == 0:
                rest //= d
                count += 1
            s *= d ** (count // 2)
            if count % 2:
                k *= d
        d += 1 if d == 2 else 2
    return s, k * rest


def oracle_horner(poly, point):
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * point + c
    return acc


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)
rationals_st = st.one_of(st.integers(-6, 6), small_fractions)
# 8, 18 and 50 reduce to sqrt(2) and 12 to sqrt(3), so equal radicands meet
# often; 4, 9 and 1 make rational-valued surds; 0 makes a plain rational.
radicands_st = st.sampled_from([0, 1, 2, 3, 4, 8, 9, 12, 18, 50])
any_surd_st = st.builds(Surd, rationals_st, rationals_st, radicands_st)
numbers_st = st.one_of(st.integers(-6, 6), small_fractions, any_surd_st)


def same_surd(x, y):
    return (x.rat, x.coef, x.rad) == (y.rat, y.coef, y.rad)


@given(st.one_of(
    st.integers(0, 10**12 - 1),
    st.integers(1, 10**6).map(lambda p: p * p),
    st.tuples(st.integers(2, 10**6), st.integers(2, 10**6)).map(lambda t: t[0] * t[1]),
))
@example(999_999_999_989)  # the largest prime below the radicand bound
@example(999_983 * 999_983)  # the square of a prime above its cube root
@example(999_983 * 999_979)
@example(0)
@example(1)
@settings(deadline=None)  # the oracle takes ~0.1 s on the largest primes
def test_squarefree_decompose_matches_trial_division(m):
    assert _squarefree_decompose(m) == oracle_squarefree_decompose(m)


@given(any_surd_st)
def test_sign_matches_the_fraction_case_analysis(value):
    assert value.sign() == oracle_sign(value)


@given(numbers_st, numbers_st)
@example(3, Fraction(-5, 2))  # an int against a Fraction
@example(Fraction(1, 3), Fraction(2, 5))  # unequal denominators
@example(Surd(Fraction(1, 2), Fraction(1, 3), 2), Surd(Fraction(-2, 5), Fraction(3, 7), 8))
@example(Surd(Fraction(5, 4), Fraction(-1, 3), 2), Surd(Fraction(1, 6), Fraction(1, 5), 2))
@example(Surd(Fraction(1, 3), Fraction(1, 2), 3), Fraction(5, 4))
@example(Fraction(-3, 2), Surd(Fraction(-1, 3), Fraction(-1, 4), 12))
@example(2, Surd(0, Fraction(1, 100), 89999))
def test_compare_matches_subtract_then_sign(left, right):
    try:
        expected = oracle_compare(left, right)
    except IncomparableRadicands as error:
        with pytest.raises(IncomparableRadicands) as raised:
            compare(left, right)
        assert str(raised.value) == str(error)
        assert not left.is_rational and not right.is_rational
        assert left.rad != right.rad
        return
    assert compare(left, right) == expected


@given(small_fractions, small_fractions, st.sampled_from([2, 3, 5, 6]))
def test_compare_of_conjugates_and_near_misses(a, b, m):
    # opposite-sign parts are where the squared comparison decides
    x = Surd(a, b, m)
    for y in (Surd(a, -b, m), Surd(-a, b, m), Surd(a), Surd(0, b, m), a, b):
        assert compare(x, y) == oracle_compare(x, y)
        assert compare(y, x) == oracle_compare(y, x)


@pytest.mark.parametrize(
    "left, right",
    [
        (None, 1),
        (1, None),
        (1.5, 1),
        (1, 1.5),
        (Surd(0, 1, 2), 0.5),
        (0.5, Surd(0, 1, 2)),
        ("1/2", 1),
        (True, 0),
        (Fraction(1, 2), False),
        (Surd(0, 1, 2), True),
    ],
)
def test_compare_rejects_non_numbers(left, right):
    with pytest.raises(TypeError):
        compare(left, right)


class IntSubclass(int):
    """Not exactly an int: compare reads it through numerator/denominator."""


class FractionSubclass(Fraction):
    """Not exactly a Fraction: compare reads it through its properties."""


# past 2**64, and past the 4300 digits Python will print or parse as an int
wide_ints_st = st.one_of(
    st.integers(-6, 6),
    st.integers(-(2**80), 2**80),
    st.builds(
        lambda lead, tail: lead * 10**4300 + tail,
        st.integers(-9, 9).filter(bool), st.integers(-10**6, 10**6),
    ),
)
wide_denominators_st = st.one_of(
    st.integers(1, 5), st.integers(2**64, 2**80), st.just(10**4300 + 1)
)
wide_fractions_st = st.builds(Fraction, wide_ints_st, wide_denominators_st)
wide_rationals_st = st.one_of(
    wide_ints_st,
    wide_fractions_st,
    wide_ints_st.map(IntSubclass),
    st.builds(FractionSubclass, wide_ints_st, wide_denominators_st),
)
wide_numbers_st = st.one_of(
    wide_rationals_st,
    any_surd_st,
    st.builds(Surd, wide_fractions_st, rationals_st, radicands_st),
)
# a second value at or next to the first, in another of the exact forms
nudges_st = st.sampled_from([0, Fraction(1, 10**30), Fraction(-1, 10**30), 1])
forms_st = st.sampled_from([
    lambda x: x, Fraction, FractionSubclass, lambda x: Surd(x),
])


def check_compare_both_ways(left, right):
    for x, y in ((left, right), (right, left)):
        try:
            expected = oracle_compare(x, y)
        except IncomparableRadicands:
            with pytest.raises(IncomparableRadicands):
                compare(x, y)
            continue
        assert compare(x, y) == expected


@given(wide_numbers_st, wide_numbers_st)
@example(2**64, Fraction(2**65 + 1, 2))
@example(IntSubclass(3), Fraction(3))
@example(FractionSubclass(-7, 3), Fraction(-7, 3))
@example(FractionSubclass(1, 2**70), IntSubclass(0))
@settings(deadline=None)  # the oracle divides 4300-digit Fractions
def test_compare_matches_the_oracle_on_wide_and_subclassed_operands(left, right):
    check_compare_both_ways(left, right)


def test_compare_decides_values_past_4300_digits():
    # not @example: hypothesis prints an explicit example, and such an int
    # has no repr
    big = 10**4300 + 1
    for left, right in (
        (big, Fraction(big)),
        (big, FractionSubclass(big * 3, 3)),
        (IntSubclass(big), Fraction(big + 1)),
        (Fraction(big, 2**64), Surd(0, 1, 2)),
        (Fraction(1, big), Fraction(1, big - 1)),
    ):
        check_compare_both_ways(left, right)


@given(wide_rationals_st, nudges_st, forms_st)
@settings(deadline=None)
def test_compare_decides_equal_and_nearly_equal_wide_values(value, nudge, form):
    # equal values and ones 10**-30 apart, read in two different forms
    check_compare_both_ways(value, form(value + nudge))


def test_fractions_the_package_builds_keep_their_integers_in_the_slots():
    # compare and _ints read a Fraction's _numerator and _denominator slots
    # in place of its numerator and denominator properties
    ln = parse_rational("64")
    built = [
        ln, parse_rational(7), parse_rational("-18/5"), parse_rational("6/4"),
        parse_rational(f"{10**30}/{2**70}"),
        ln + parse_rational("1/3"), ln * 3, ln / 6, -parse_rational("2/3"),
        CurveScenario.anticanonical_curve(3, 0, 4, ln).k_ln1,
        CurveScenario.anticanonical_curve(3, 0, 4, 64).k_ln1,
        _regime(3, 0)[1], _regime(4, 1)[1],
    ]
    for value in built:
        assert type(value) is Fraction
        assert (value._numerator, value._denominator) == (
            value.numerator, value.denominator
        )
        assert _ints(value) == (value.numerator, 0, value.denominator, 0)
        assert compare(value, value.numerator) == oracle_compare(value, value.numerator)


@pytest.mark.parametrize("bad", [0.1, 2.0, "1/2", "3", Decimal("0.5"), True, False])
def test_exact_constructors_refuse_floats_strings_and_decimals(bad):
    surd = Surd(1, 1, 2)
    for build in (
        lambda: Surd(bad, 1, 2),
        lambda: Surd(0, bad, 2),
        lambda: surd_sqrt(bad),
        lambda: Polynomial([1, bad]),
        lambda: Polynomial([bad]),
        lambda: Polynomial([1, 2])(bad),
        lambda: quadratic_roots(bad, 0, -1),
        lambda: quadratic_roots(1, bad, -1),
        lambda: render_value(bad),
        lambda: surd + bad,
        lambda: surd - bad,
        lambda: surd * bad,
        lambda: surd / bad,
        lambda: surd < bad,
        lambda: surd >= bad,
        lambda: compare(surd, bad),
        lambda: compare(bad, Fraction(1, 2)),
        lambda: CurveScenario(3, 0, 4, 2, bad, -64),
        lambda: CurveScenario(3, 0, 4, 2, 64, bad),
        lambda: CurveScenario.anticanonical_curve(3, 0, 4, bad),
        lambda: format_fixed(bad),
        lambda: witness_curve_upper(bad),
        lambda: proper_transform_upper(bad, 1),
        lambda: proper_transform_upper(3, bad),
        lambda: anticanonical_square_exceptional(bad, 0),
    ):
        with pytest.raises(TypeError, match="int or a Fraction"):
            build()
    with pytest.raises(TypeError, match="radicand must be an int"):
        Surd(1, 1, bad)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", Fraction(3)])
def test_dimensions_and_genus_are_plain_ints(bad):
    for build in (
        lambda: linear_subspace_exact(bad),
        lambda: point_upper_bound(bad),
        lambda: anticanonical_square_exceptional(4, bad),
    ):
        with pytest.raises(TypeError, match="must be an int"):
            build()


@pytest.mark.parametrize("bad", [0.1, Decimal("0.5")])
def test_reflected_operations_refuse_floats_and_decimals(bad):
    # float and Decimal hand these to the Surd and the Polynomial, which refuse
    surd = Surd(1, 1, 2)
    for build in (
        lambda: bad + surd,
        lambda: bad - surd,
        lambda: bad * surd,
        lambda: bad / surd,
        lambda: bad < surd,
        lambda: Polynomial([1, 2]) * bad,
        lambda: bad * Polynomial([1, 2]),
    ):
        with pytest.raises(TypeError):
            build()
    assert [surd == other for other in (bad, "x", None)] == [False] * 3


@given(rationals_st, rationals_st, radicands_st)
def test_surd_from_ints_or_fractions_has_the_canonical_parts(rat, coef, rad):
    parts = oracle_surd_parts(rat, coef, rad)
    expected_hash = hash(parts[0]) if parts[1] == 0 else hash(parts)
    for value in (Surd(rat, coef, rad), Surd(Fraction(rat), Fraction(coef), rad)):
        assert (value.rat, value.coef, value.rad) == parts
        assert type(value.rat) is Fraction and type(value.coef) is Fraction
        assert hash(value) == expected_hash


@given(any_surd_st)
def test_a_surd_can_be_neither_changed_nor_stripped(surd):
    parts = (surd.rat, surd.coef, surd.rad)
    for name in ("rat", "coef", "rad", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(surd, name, 1)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(surd, name)
    assert (surd.rat, surd.coef, surd.rad) == parts


sparse_poly_st = st.lists(
    st.one_of(st.just(0), st.just(0), st.just(0), small_fractions), max_size=9
).map(Polynomial)
# degree up to 15 with mostly zero coefficients, like the Hilbert deficits
# of a 12-fold
high_sparse_poly_st = st.lists(
    st.one_of(st.just(0), st.just(0), st.just(0), st.just(0), small_fractions),
    max_size=16,
).map(Polynomial)
any_poly_st = st.one_of(
    st.just(Polynomial()), poly_st, sparse_poly_st, high_sparse_poly_st
)
points_st = st.one_of(rationals_st, any_surd_st)


def same_value(x, y):
    if type(x) is not type(y):
        return False
    return same_surd(x, y) if isinstance(x, Surd) else x == y


@given(any_poly_st, points_st)
def test_evaluation_matches_plain_horner(poly, point):
    assert same_value(poly(point), oracle_horner(poly, point))


@given(any_poly_st, rationals_st)
def test_evaluation_at_a_subclassed_point_matches_its_exact_value(poly, point):
    # compare and _ints take a subclass through its properties, and so does
    # evaluation; a bool stays refused
    assert same_value(poly(FractionSubclass(point)), poly(Fraction(point)))
    whole = int(point)
    assert same_value(poly(IntSubclass(whole)), poly(whole))
    for flag in (True, False):
        with pytest.raises(TypeError, match="got bool$"):
            poly(flag)


@pytest.mark.parametrize("point, name", [
    (True, "bool"), (False, "bool"), (0.5, "float"), ("1/2", "str"),
    (Decimal("0.5"), "Decimal"), (None, "NoneType"),
])
def test_a_point_that_is_no_operand_is_refused_in_the_operand_words(point, name):
    # a point is read by _ints, so it is refused in the words an operand is
    want = f"a point must be a Surd, an int or a Fraction, got {name}"
    for poly in (Polynomial([]), Polynomial([1, 2, 3])):
        with pytest.raises(TypeError) as raised:
            poly(point)
        assert str(raised.value) == want
    with pytest.raises(TypeError) as raised:
        _ints(point)
    assert str(raised.value) == want.replace("a point", "an operand", 1)


wide_rationals_st = st.one_of(
    st.integers(-(10**20), 10**20),
    st.sampled_from([10**20, -(10**20), 10**20 - 1, -1]),
    st.fractions(max_denominator=10**12),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**12)),
)
wide_poly_st = st.lists(
    st.one_of(st.just(0), st.fractions(max_denominator=10**12)), max_size=16
).map(Polynomial)


@given(
    st.one_of(any_poly_st, wide_poly_st),
    st.lists(st.one_of(wide_rationals_st, rationals_st, any_surd_st), max_size=6),
)
@example(
    Polynomial([0, 0, Fraction(-3, 4)] + [0] * 12 + [Fraction(1, 7)]),
    [Fraction(-5, 3), -(10**20), Fraction(10**20 + 1, 10**12), 2, Fraction(-5, 3)],
)
def test_evaluation_at_point_after_point_matches_plain_horner(poly, points):
    # negative, huge and finely divided points, one after another on the
    # same polynomial: its kept integer form must serve every rational point
    for point in points:
        value = poly(point)
        expected = oracle_horner(poly, point)
        assert same_value(value, expected)
        if not isinstance(point, Surd):
            assert type(value) is Fraction


@given(st.one_of(any_poly_st, wide_poly_st), wide_rationals_st)
def test_the_kept_integer_form_is_invisible(poly, point):
    fresh = Polynomial(poly.coeffs)
    poly(point)
    assert poly == fresh and fresh == poly
    assert hash(poly) == hash(fresh)
    assert poly.coeffs == fresh.coeffs
    assert repr(poly) == repr(fresh)
    for target in (poly, fresh):
        for name in ("coeffs", "_nums", "_den", "degree", "other"):
            with pytest.raises(AttributeError):
                setattr(target, name, (1, ()))
            with pytest.raises(AttributeError, match="immutable"):
                delattr(target, name)
    assert poly.coeffs == fresh.coeffs and poly(point) == fresh(point)


@given(st.lists(st.integers(-4, 4), max_size=6))
def test_polynomial_from_ints_equals_polynomial_from_fractions(coefficients):
    from_ints = Polynomial(coefficients)
    assert from_ints == Polynomial([Fraction(c) for c in coefficients])
    assert all(type(c) is Fraction for c in from_ints.coeffs)



# -- Surd operands read as parts, against the wrapper-Surd route -----------
#
# Surd arithmetic and ordering read the other operand's (rat, coef, rad)
# parts directly, as compare does. The reference below is the earlier route:
# wrap an int or Fraction operand in a Surd, apply the textbook formulas to
# two Surds, and order by the sign of the difference.


def old_wrap(value):
    return value if isinstance(value, Surd) else Surd(Fraction(value))


def old_joint_rad(x, y):
    if x.coef == 0:
        return y.rad
    if y.coef == 0:
        return x.rad
    if x.rad != y.rad:
        raise IncomparableRadicands(f"cannot combine sqrt({x.rad}) with sqrt({y.rad})")
    return x.rad


def old_add(x, y):
    x, y = old_wrap(x), old_wrap(y)
    return Surd(x.rat + y.rat, x.coef + y.coef, old_joint_rad(x, y))


def old_sub(x, y):
    y = old_wrap(y)
    return old_add(x, Surd(-y.rat, -y.coef, y.rad))


def old_mul(x, y):
    x, y = old_wrap(x), old_wrap(y)
    rad = old_joint_rad(x, y)
    return Surd(
        x.rat * y.rat + x.coef * y.coef * rad, x.rat * y.coef + x.coef * y.rat, rad
    )


def old_div(x, y):
    x, y = old_wrap(x), old_wrap(y)
    if oracle_sign(y) == 0:
        raise ZeroDivisionError("division by zero surd")
    if y.coef == 0:
        return Surd(x.rat / y.rat, x.coef / y.rat, x.rad)
    norm = y.rat * y.rat - y.coef * y.coef * y.rad
    return old_mul(x, Surd(y.rat / norm, -y.coef / norm, y.rad))


OLD_ARITHMETIC = {
    operator.add: old_add,
    operator.sub: old_sub,
    operator.mul: old_mul,
    operator.truediv: old_div,
}
ORDERINGS = (operator.lt, operator.le, operator.gt, operator.ge)


def outcome(function, *args):
    """The value, or the type and message of the exception, of a call."""
    try:
        return function(*args)
    except (IncomparableRadicands, ZeroDivisionError) as error:
        return type(error), str(error)


# a Surd on one side, an int, a Fraction or a Surd on the other; zero and
# rational-valued surds are common, so division by zero is drawn too
@given(any_surd_st, numbers_st, st.booleans())
@example(Surd(1, 1, 2), 2, True)  # int parts must not make a float part
@example(Surd(3), 2, False)
def test_surd_operations_match_the_wrapper_route(surd, other, surd_first):
    x, y = (surd, other) if surd_first else (other, surd)
    for op, old in OLD_ARITHMETIC.items():
        got, want = outcome(op, x, y), outcome(old, x, y)
        if isinstance(want, tuple):
            assert got == want
            continue
        assert isinstance(got, Surd) and same_surd(got, want)
        assert type(got.rat) is Fraction and type(got.coef) is Fraction
    for op in ORDERINGS:
        assert outcome(op, x, y) == outcome(
            lambda a, b: op(oracle_sign(old_sub(a, b)), 0), x, y
        )
    same = same_surd(old_wrap(x), old_wrap(y))
    assert (x == y) is same and (x != y) is not same


# -- the integer Surd against the Fraction-based one ------------------------
#
# A Surd is kept as integers (x + y*sqrt(rad))/q. tests/surd_oracle.py keeps
# the class that held rat and coef as Fractions, with its operand reader,
# sign test, comparison and printer. Both must agree on every part, result,
# hash, spelling and refusal, message included.


def any_outcome(function, *args):
    """As outcome, but any exception is returned as its type and message:
    the oracle shares no code with the class, so every refusal compares."""
    try:
        return function(*args)
    except Exception as error:
        return type(error), str(error)


def as_oracle(value):
    """A Surd as the oracle's Surd; any other value as it is."""
    if isinstance(value, Surd):
        return surd_oracle.Surd(value.rat, value.coef, value.rad)
    return value


def agrees_with_oracle(new, old):
    """Whether a result of the integer class matches the oracle's."""
    if not isinstance(old, surd_oracle.Surd):
        return type(new) is type(old) and new == old
    return (
        isinstance(new, Surd)
        and (new.rat, new.coef, new.rad) == (old.rat, old.coef, old.rad)
        and type(new.rat) is Fraction and type(new.coef) is Fraction
        and new.is_rational == old.is_rational
        and new.sign() == old.sign()
        and hash(new) == hash(old)
        and str(new) == str(old)
        and repr(new) == repr(old)
    )


oracle_parts_st = st.one_of(
    st.integers(-60, 60),
    st.fractions(min_value=-60, max_value=60, max_denominator=40),
    st.integers(-10**30, 10**30),
    st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**20)),
)
oracle_radicands_st = st.one_of(
    st.sampled_from([0, 1, 2, 3, 4, 8, 9, 12, 18, 48, 50, 99, 10**12 - 1]),
    st.integers(0, 10**6),
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(oracle_parts_st, oracle_parts_st, oracle_radicands_st)
@example(0, 1, 0)  # sqrt(0): a rational zero
@example(Fraction(1, 2), Fraction(-1, 2), 8)  # a square factor meets a denominator
@example(Fraction(-3, 4), Fraction(3, 8), 16)  # a square joins the rational part
def test_the_integer_surd_builds_as_the_fraction_surd(rat, coef, rad):
    new, old = Surd(rat, coef, rad), surd_oracle.Surd(rat, coef, rad)
    assert agrees_with_oracle(new, old)
    assert new == old.rat if old.is_rational else new != old.rat


one_radicand_values_st = st.sampled_from([2, 3, 8, 12]).flatmap(
    lambda m: st.one_of(
        st.integers(-6, 6),
        small_fractions,
        st.builds(Surd, rationals_st, rationals_st, st.sampled_from([0, m, 4 * m])),
    )
)
oracle_values_st = st.one_of(one_radicand_values_st, numbers_st, st.just(Surd(0)))
SURD_OPERATIONS = (
    operator.add, operator.sub, operator.mul, operator.truediv,
    operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge,
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(oracle_values_st, oracle_values_st)
@example(Surd(1, 1, 2), Surd(0))  # division by a zero surd
@example(Surd(0), Surd(1, 1, 2))
@example(Surd(1, 1, 2), Surd(0, 1, 3))  # incomparable radicands, either order
@example(Surd(0, 1, 3), Surd(2, -1, 2))
@example(Surd(1, 1, 2), Surd(Fraction(1, 3), -1, 2))  # a negative norm
@example(Fraction(3, 2), Surd(Fraction(-1, 2), Fraction(3, 4), 12))
def test_integer_surd_operations_match_the_fraction_surd(left, right):
    old_left, old_right = as_oracle(left), as_oracle(right)
    if isinstance(left, Surd) or isinstance(right, Surd):
        for op in SURD_OPERATIONS:
            got = any_outcome(op, left, right)
            want = any_outcome(op, old_left, old_right)
            assert agrees_with_oracle(got, want), (op, got, want)
    for value, old in ((left, old_left), (right, old_right)):
        if isinstance(value, Surd):
            assert agrees_with_oracle(-value, -old) and +value is value
    got = any_outcome(compare, left, right)
    assert got == any_outcome(surd_oracle.compare, old_left, old_right)


@pytest.mark.parametrize("bad", [True, False, 0.5, 2.0, Decimal("0.5"), "1", None])
def test_integer_surd_refuses_what_the_fraction_surd_refused(bad):
    new, old = Surd(Fraction(1, 2), -1, 8), surd_oracle.Surd(Fraction(1, 2), -1, 8)
    for args in ((bad, 1, 2), (1, bad, 2), (1, 1, bad)):
        assert any_outcome(Surd, *args) == any_outcome(surd_oracle.Surd, *args)
    assert any_outcome(surd_sqrt, bad) == any_outcome(surd_oracle.Surd.sqrt, bad)
    for op in SURD_OPERATIONS:
        assert any_outcome(op, new, bad) == any_outcome(op, old, bad)
        assert any_outcome(op, bad, new) == any_outcome(op, bad, old)
    assert any_outcome(compare, new, bad) == any_outcome(surd_oracle.compare, old, bad)
    assert any_outcome(compare, bad, new) == any_outcome(surd_oracle.compare, bad, old)
    assert any_outcome(Surd, 1, 1, -2) == any_outcome(surd_oracle.Surd, 1, 1, -2)


def test_parts_past_the_int_print_limit_fail_to_print_alike():
    big = 10 ** (sys.get_int_max_str_digits() + 1)
    for args in (
        (big, 1, 2), (1, big, 3), (0, Fraction(-1, big), 5), (Fraction(big, 7),),
        (1, Fraction(big, 3), 2),
    ):
        new, old = Surd(*args), surd_oracle.Surd(*args)
        got = any_outcome(render_value, new)
        assert got[0] is InvalidScenario
        assert got == any_outcome(surd_oracle.render_value, old)
        assert any_outcome(str, new) == any_outcome(str, old)
        assert any_outcome(repr, new) == any_outcome(repr, old)
        assert (new.rat, new.coef, new.rad) == (old.rat, old.coef, old.rad)


def test_a_radicand_that_would_be_trial_divided_is_refused_at_or_above_the_bound():
    refusal = f"non-square radicand must be below {_MAX_RADICAND}"
    for build in (
        lambda: Surd(0, 1, _MAX_RADICAND + 1),
        lambda: Surd(3, Fraction(-1, 2), 4 * _MAX_RADICAND + 4),
        lambda: surd_sqrt(Fraction(3, _MAX_RADICAND)),
    ):
        with pytest.raises(ValueError, match=refusal):
            build()
    assert Surd(0, 1, _MAX_RADICAND - 1) == Surd(0, 3, 111111111111)
    # the trial division of this discriminant once ran for more than 20 s
    start = time.perf_counter()
    with pytest.raises(ValueError, match=refusal):
        quadratic_roots(Fraction(1, 10**9 + 7), 3, Fraction(-1, 10**9 + 9))
    assert time.perf_counter() - start < 5


def test_a_perfect_square_radicand_needs_no_bound():
    assert surd_sqrt(_MAX_RADICAND) == 10**6
    assert surd_sqrt(Fraction(1, 4 * _MAX_RADICAND)) == Fraction(1, 2 * 10**6)
    assert Surd(1, Fraction(1, 3), 9 * 10**14) == 10**7 + 1
    assert Surd(1, -2, 10**14) == 1 - 2 * 10**7
    assert Surd(Fraction(1, 2), 0, 10**13 + 1) == Fraction(1, 2)  # no sqrt term
    assert quadratic_roots(1, 0, -(10**12)) == (-(10**6), 10**6)
    assert quadratic_roots(4, 0, -(10**14)) == (-(5 * 10**6), 5 * 10**6)


# -- the oracle's sparse polynomial arithmetic against dense routines --------
#
# Polynomial has no arithmetic: tests that state the paper's identities add,
# multiply, differentiate and integrate in polynomial_oracle.Polynomial,
# which passes zero coefficients through without touching them. The dense
# versions below do Fraction arithmetic on every coefficient; results must be
# equal, with Fraction coefficients throughout.


def dense_coefficient(coeffs, power):
    return coeffs[power] if power < len(coeffs) else Fraction(0)


def dense_add(p, q):
    size = max(len(p.coeffs), len(q.coeffs))
    return polynomial_oracle.Polynomial(
        [
            dense_coefficient(p.coeffs, i) + dense_coefficient(q.coeffs, i)
            for i in range(size)
        ]
    )


def dense_neg(p):
    return polynomial_oracle.Polynomial([-c for c in p.coeffs])


def dense_mul(p, q):
    if not p.coeffs or not q.coeffs:
        return polynomial_oracle.Polynomial()
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return polynomial_oracle.Polynomial(out)


def dense_scale(p, factor):
    return polynomial_oracle.Polynomial([c * Fraction(factor) for c in p.coeffs])


def dense_differentiate(p):
    return polynomial_oracle.Polynomial([i * c for i, c in enumerate(p.coeffs)][1:])


def dense_integrate(p):
    return polynomial_oracle.Polynomial(
        [Fraction(0)] + [c / (i + 1) for i, c in enumerate(p.coeffs)]
    )


def same_polynomial(p, q):
    return p == q and all(type(c) is Fraction for c in p.coeffs)


@given(any_poly_st, any_poly_st)
def test_sparse_add_sub_neg_match_dense(p, q):
    p, q = oracle_poly(p), oracle_poly(q)
    assert same_polynomial(p + q, dense_add(p, q))
    assert same_polynomial(p - q, dense_add(p, dense_neg(q)))
    assert same_polynomial(-p, dense_neg(p))
    assert same_polynomial(p - p, polynomial_oracle.Polynomial())


@given(any_poly_st, any_poly_st, rationals_st)
def test_sparse_products_match_dense(p, q, factor):
    p, q = oracle_poly(p), oracle_poly(q)
    assert same_polynomial(p * q, dense_mul(p, q))
    assert same_polynomial(p * factor, dense_scale(p, factor))
    assert same_polynomial(factor * p, dense_scale(p, factor))


@given(any_poly_st)
def test_sparse_calculus_matches_dense(p):
    p = oracle_poly(p)
    assert same_polynomial(p.differentiate(), dense_differentiate(p))
    assert same_polynomial(p.integrate_from_zero(), dense_integrate(p))


@given(small_fractions, points_st)
def test_constants_keep_the_type_of_the_point(c, point):
    # a non-zero constant at a Surd point is a Surd; the zero polynomial
    # is Fraction(0) at every point
    value = Polynomial([c])(point)
    assert type(value) is (Surd if c and isinstance(point, Surd) else Fraction)
    assert value == c


surd_points_st = st.builds(
    Surd, rationals_st, rationals_st, st.sampled_from([2, 3, 5])
)


@given(
    high_sparse_poly_st,
    high_sparse_poly_st,
    st.integers(0, 6),
    st.one_of(rationals_st, surd_points_st),
)
def test_evaluation_through_a_mid_horner_cancellation(top, low, shift, point):
    # top * m(x) * x^k vanishes at the point, so Horner's accumulator is
    # zero once it has passed the coefficient of x^k; low fills in below
    if isinstance(point, Surd):
        # minimal polynomial of a + b*sqrt(m)
        a, b, m = point.rat, point.coef, point.rad
        vanishing = polynomial_oracle.Polynomial([a * a - b * b * m, -2 * a, 1])
    else:
        vanishing = polynomial_oracle.Polynomial([-Fraction(point), 1])
    # built in the oracle class, which has arithmetic
    power = polynomial_oracle.Polynomial.monomial(len(low.coeffs) + shift)
    poly = Polynomial(
        (oracle_poly(top) * vanishing * power + oracle_poly(low)).coeffs
    )
    assert same_value(poly(point), oracle_horner(poly, point))
    assert poly(point) == oracle_horner(low, point)


# -- integer numerators over one denominator ----------------------------------
#
# A Polynomial keeps integer numerators over one positive denominator. The
# earlier class kept a tuple of Fractions; building must give the same
# coefficients, and evaluation the same value and type.


@settings(derandomize=True, database=None)
@given(
    st.lists(st.integers(-(10**20), 10**20), max_size=8),
    st.integers(1, 10**12),
)
@example([6, 0, -4, 0, 0], 2)
@example([0, 0], 7)
def test_numerators_over_a_denominator_equal_their_fractions(nums, den):
    poly = Polynomial(nums, den)
    expected = Polynomial([Fraction(c, den) for c in nums])
    assert poly == expected and hash(poly) == hash(expected)
    assert repr(poly) == repr(expected)
    # lowest terms, trailing zeros stripped, the zero polynomial over 1
    assert poly._den > 0 and math.gcd(poly._den, *poly._nums) == 1
    assert not poly._nums or poly._nums[-1]
    assert poly._nums or poly._den == 1
    assert all(type(c) is int for c in poly._nums)


@settings(derandomize=True, database=None)
@given(st.lists(wide_rationals_st, max_size=8), st.integers(1, 10**12))
def test_fraction_coefficients_over_a_denominator_are_divided_by_it(coeffs, den):
    assert Polynomial(coeffs, den) == Polynomial([Fraction(c) / den for c in coeffs])


@pytest.mark.parametrize(
    "bad, error",
    [
        (0, ValueError),
        (-2, ValueError),
        (True, TypeError),
        (Fraction(1, 2), TypeError),
        (2.0, TypeError),
        ("2", TypeError),
    ],
)
def test_a_denominator_must_be_a_positive_int(bad, error):
    for coefficients in ([1, 2], [], [Fraction(1, 3)]):
        with pytest.raises(error, match="denominator"):
            Polynomial(coefficients, bad)


huge_fractions_st = st.one_of(
    st.just(0),
    st.integers(-(10**30), 10**30),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**15)),
    st.fractions(max_denominator=10**15),
)
huge_coefficients_st = st.lists(huge_fractions_st, max_size=12)


def same_as_oracle(poly, old):
    return (
        poly.coeffs == old.coeffs
        and all(type(c) is Fraction for c in poly.coeffs)
        and repr(poly) == repr(old)
        and hash(poly) == hash(old)
        and poly.degree == old.degree
        and bool(poly) is bool(old)
    )


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    huge_coefficients_st,
    huge_coefficients_st,
    st.one_of(wide_rationals_st, huge_fractions_st, any_surd_st),
)
@example([], [Fraction(1, 10**15)], Surd(1, 1, 2))
def test_polynomial_operations_match_the_rational_coefficient_class(
    left, right, point
):
    # what Polynomial does: build, compare, hash, print and evaluate
    p, q = Polynomial(left), Polynomial(right)
    old_p, old_q = polynomial_oracle.Polynomial(left), polynomial_oracle.Polynomial(right)
    assert same_as_oracle(p, old_p) and same_as_oracle(q, old_q)
    assert (p == q) is (old_p == old_q)
    assert same_value(p(point), old_p(point))


# -- _fraction: the one builder of a Fraction from two ints ------------------


def _outcome(action, *args):
    """What ``action(*args)`` gives: ("value", result), or the type and
    words of the exception it raises."""
    try:
        return "value", action(*args)
    except Exception as error:  # any exception: both sides are compared
        return type(error), str(error)


# more digits than Python prints by default, so str, repr, pickle and
# render_value refuse the value unless the gcd makes it short
_LONG = 10 ** sys.get_int_max_str_digits()
builder_ints_st = st.one_of(
    st.integers(-(10**30), 10**30),
    st.builds(lambda k, sign: sign * (_LONG * (3 + k) + k), st.integers(0, 50),
              st.sampled_from((1, -1))),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(builder_ints_st, builder_ints_st.filter(bool))
@example(0, 7)
@example(0, -7)
@example(6, -4)
@example(_LONG, _LONG)  # long integers, a short value
@example(-_LONG * 3, 1)
def test_the_fraction_builder_agrees_with_the_constructor(n, d):
    built, want = _fraction(n, d), Fraction(n, d)
    assert type(built) is Fraction
    assert (built._numerator, built._denominator) == (want._numerator, want._denominator)
    assert built == want and want == built
    assert hash(built) == hash(want)
    assert not hasattr(built, "__dict__")
    for action in (str, repr, render_value):
        assert _outcome(action, built) == _outcome(action, want)
    blob = _outcome(pickle.dumps, built)
    assert blob == _outcome(pickle.dumps, want)
    if blob[0] == "value":
        assert type(pickle.loads(blob[1])) is Fraction
        assert pickle.loads(blob[1]) == want
    for clone in (copy.copy, copy.deepcopy):
        assert type(clone(built)) is Fraction and clone(built) == want
    third, root = Fraction(1, 3), Surd(1, 1, 2)
    assert built + third == want + third
    assert built * root == want * root and root - built == root - want
    assert compare(built, third) == compare(want, third)
    assert compare(built, root) == compare(want, root)
    assert compare(built, want) == 0


@pytest.mark.parametrize("n", [0, 5, -5])
def test_a_zero_denominator_is_refused_in_the_constructor_words(n):
    with pytest.raises(ZeroDivisionError) as want:
        Fraction(n, 0)
    with pytest.raises(ZeroDivisionError) as built:
        _fraction(n, 0)
    assert str(built.value) == str(want.value) == f"Fraction({n}, 0)"


def test_a_fraction_is_its_two_slots():
    """_fraction fills the two slots of a bare instance: that is the whole
    Fraction only while the class keeps no other state."""
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    assert not hasattr(Fraction(1, 2), "__dict__")
    assert all(
        vars(base).get("__slots__") == () for base in Fraction.__mro__[1:-1]
    ), Fraction.__mro__
