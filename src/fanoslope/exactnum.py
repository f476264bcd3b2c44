"""Exact number types: rationals, rational polynomials, quadratic surds.

Everything downstream is decided by signs of exact quantities, so no floats
appear anywhere in this package's arithmetic. Rationals are stdlib
``fractions.Fraction`` (normalized form, positive denominator, structural
equality). On top of that this module supplies

* :class:`Polynomial` -- univariate polynomials with rational coefficients,
  kept as ascending integer numerators over one positive denominator, in
  lowest terms with trailing zeros stripped;
* :class:`Surd` -- numbers of the form ``rat + coef*sqrt(rad)`` with a
  square-free integer radicand, enough to handle quadratic irrationalities
  like ``sqrt(n**2 - 1)`` exactly;
* :func:`quadratic_roots` -- exact roots of a rational quadratic as surds.

General algebraic-number arithmetic is deliberately not built: all surds in a
computation share a single radicand, and mixing incommensurable radicands
raises :class:`~fanoslope.errors.IncomparableRadicands`.

One operand rule holds throughout: a rational is an ``int`` or a
``Fraction``, and a value is a rational or a ``Surd``; anything else, floats,
strings and Decimals included, raises TypeError rather than being converted.
``compare`` and Surd arithmetic and ordering read both operands' parts as
they are, without building a wrapper Surd.
"""

import math
import sys
from fractions import Fraction

from .errors import AllCoefficientsZero, IncomparableRadicands, InvalidScenario

__all__ = [
    "Polynomial",
    "Surd",
    "compare",
    "quadratic_roots",
    "render_value",
]


# Input radicands, and the threshold radicand n*n - 1, stay below this bound:
# _squarefree_decompose trial-divides up to the cube root of m, about 5000
# steps at this size (under a millisecond for the prime 999999999989).
_MAX_RADICAND = 10**12


def _squarefree_decompose(m):
    """Write m = s*s*k with k square-free; return (s, k). m must be >= 0.

    Trial division stops once d**3 exceeds what is left: with no prime
    factor below d, that rest has at most two prime factors, so it is
    square-free unless it is the square of a prime."""
    s, k = 1, 1
    rest = m
    d = 2
    while d * d * d <= rest:
        if rest % d == 0:
            count = 0
            while rest % d == 0:
                rest //= d
                count += 1
            s *= d ** (count // 2)
            if count % 2:
                k *= d
        d += 1 if d == 2 else 2
    root = math.isqrt(rest)
    if root > 1 and root * root == rest:
        return s * root, k
    return s, k * rest


_ZERO = Fraction(0)


def _require_rational(value, name):
    """``value`` as a Fraction; floats, strings, bools and the like are
    refused rather than converted, so no input is silently reinterpreted."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(
            f"{name} must be an int or a Fraction, got {type(value).__name__}"
        )
    return Fraction(value)


def _require_int(value, name):
    """``value`` if it is an int other than a bool; a dimension or a genus
    such as 2.5 or 3.0 is refused rather than read as a number."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    return value


def _require_bool(value, name):
    """``value`` if it is a bool; a flag such as "false" or 1 is refused
    rather than read by its truth."""
    if type(value) is not bool:
        raise TypeError(f"{name} must be a bool, got {type(value).__name__}")
    return value


def _sign(a, b, m):
    """Exact sign of ``a + b*sqrt(m)``: -1, 0, or 1.

    ``a`` and ``b`` are rationals (int or Fraction) and ``m`` is the
    square-free radicand whenever ``b`` is non-zero. Only integer products
    of the parts are formed, never a Surd.
    """
    num = a.numerator
    sign_a = (num > 0) - (num < 0)
    if not b:
        return sign_a
    sign_b = 1 if b.numerator > 0 else -1
    if sign_a == 0 or sign_a == sign_b:
        return sign_b
    # Opposite signs: compare a^2 with b^2*m, both scaled by the squared
    # denominators. Equality would force sqrt(m) rational, impossible for
    # square-free m >= 2.
    left = (num * b.denominator) ** 2
    right = (b.numerator * a.denominator) ** 2 * m
    return sign_a if left > right else sign_b


class Surd:
    """A real number ``rat + coef * sqrt(rad)`` with exact arithmetic.

    ``rad`` is kept square-free and ``rad = 0``, ``coef = 0`` is the canonical
    form of a rational value, so structural equality is semantic equality.
    Instances are immutable.
    """

    __slots__ = ("rat", "coef", "rad")

    def __init__(self, rat=0, coef=0, rad=0):
        if type(rat) is not Fraction:
            rat = _require_rational(rat, "rat")
        if type(coef) is not Fraction:
            coef = _require_rational(coef, "coef")
        if type(rad) is not int:
            _require_int(rad, "radicand")
        if rad < 0:
            raise ValueError("radicand must be non-negative")
        if coef and rad:
            square, rad = _squarefree_decompose(rad)
            if square != 1:
                coef *= square
            if rad == 1:
                rat += coef
                coef = _ZERO
                rad = 0
        else:
            coef = _ZERO
            rad = 0
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "rad", rad)

    def __setattr__(self, name, value=None):
        raise AttributeError("Surd instances are immutable")

    __delattr__ = __setattr__

    @classmethod
    def sqrt(cls, value):
        """Exact square root of a non-negative rational, as a Surd."""
        v = _require_rational(value, "the radicand")
        if v < 0:
            raise ValueError("cannot take the square root of a negative number")
        # sqrt(p/q) = sqrt(p*q)/q
        return cls(0, Fraction(1, v.denominator), v.numerator * v.denominator)

    @property
    def is_rational(self):
        return self.coef == 0

    def sign(self):
        """Exact sign: -1, 0, or 1."""
        return _sign(self.rat, self.coef, self.rad)

    # -- arithmetic and comparison -----------------------------------------
    # The other operand is read through _parts, as compare reads it, so an
    # operand that is not an int, a Fraction or a Surd raises TypeError.

    def __add__(self, other):
        c, d, k = _parts(other)
        return Surd(self.rat + c, self.coef + d, _radicand(self.coef, self.rad, d, k))

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.rat, -self.coef, self.rad)

    def __pos__(self):
        return self

    def __sub__(self, other):
        c, d, k = _parts(other)
        return Surd(self.rat - c, self.coef - d, _radicand(self.coef, self.rad, d, k))

    def __rsub__(self, other):
        c, d, k = _parts(other)
        return Surd(c - self.rat, d - self.coef, _radicand(d, k, self.coef, self.rad))

    def __mul__(self, other):
        return _product(self.rat, self.coef, self.rad, *_parts(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _product(self.rat, self.coef, self.rad, *_inverse(*_parts(other)))

    def __rtruediv__(self, other):
        return _product(*_parts(other), *_inverse(self.rat, self.coef, self.rad))

    def __eq__(self, other):
        try:
            return (self.rat, self.coef, self.rad) == _parts(other)
        except TypeError:  # not an int, Fraction or Surd: Python decides
            return NotImplemented

    def __hash__(self):
        if self.coef == 0:
            return hash(self.rat)
        return hash((self.rat, self.coef, self.rad))

    def __lt__(self, other):
        return compare(self, other) < 0

    def __le__(self, other):
        return compare(self, other) <= 0

    def __gt__(self, other):
        return compare(self, other) > 0

    def __ge__(self, other):
        return compare(self, other) >= 0

    def __repr__(self):
        return f"Surd({self.rat!r}, {self.coef!r}, {self.rad!r})"

    def __str__(self):
        if self.coef == 0:
            return str(self.rat)
        root = f"sqrt({self.rad})"
        if self.coef == 1:
            radical = root
        elif self.coef == -1:
            radical = f"-{root}"
        else:
            radical = f"{self.coef}*{root}"
        if self.rat == 0:
            return radical
        joiner = "+" if self.coef > 0 else "-"
        magnitude = radical.lstrip("-") if self.coef < 0 else radical
        return f"{self.rat} {joiner} {magnitude}"


def _parts(value):
    """``(rat, coef, rad)`` of an int, Fraction or Surd, without conversion;
    anything else, a bool included, raises TypeError."""
    if isinstance(value, Surd):
        return value.rat, value.coef, value.rad
    if type(value) is Fraction or (
        isinstance(value, (int, Fraction)) and not isinstance(value, bool)
    ):
        return value, 0, 0
    raise TypeError(
        f"an operand must be a Surd, an int or a Fraction, got {type(value).__name__}"
    )


def _radicand(b, m, d, k):
    """The radicand shared by ``b*sqrt(m)`` and ``d*sqrt(k)``; two irrational
    parts with different radicands raise IncomparableRadicands."""
    if b and d and m != k:
        raise IncomparableRadicands(f"cannot combine sqrt({m}) with sqrt({k})")
    return m or k


def _product(a, b, m, c, d, k):
    """``(a + b*sqrt(m)) * (c + d*sqrt(k))`` as a Surd."""
    rad = _radicand(b, m, d, k)
    return Surd(a * c + b * d * rad, a * d + b * c, rad)


def _inverse(a, b, m):
    """Parts of ``1/(a + b*sqrt(m)) = (a - b*sqrt(m)) / (a^2 - b^2*m)``, as
    Fractions even for int ``a`` and ``b``; the norm is zero only at zero."""
    norm = a * a - b * b * m
    if not norm:
        raise ZeroDivisionError("division by zero surd")
    return Fraction(a, norm), Fraction(-b, norm), m


def compare(left, right):
    """Exact three-way comparison of rationals and surds: -1, 0, or 1.

    Both arguments may be int, Fraction, or Surd; anything else, floats
    included, raises TypeError. Comparing two irrational surds with
    different radicands raises IncomparableRadicands; every chain of rules
    in this package stays inside a single quadratic field, so that situation
    signals a modelling mistake rather than a gap to work around.

    Two rationals are compared by cross-multiplying numerators and
    denominators. Otherwise ``a - c = x/q`` and ``b - d = y/r`` with positive
    integer denominators, and the sign of ``x*r + y*q*sqrt(m)`` is read from
    integer products. No Surd and no Fraction is built either way.
    """
    a, b, m = _parts(left)
    c, d, k = _parts(right)
    if not b and not d:
        x = a.numerator * c.denominator
        y = c.numerator * a.denominator
        return (x > y) - (x < y)
    q = a.denominator * c.denominator
    x = a.numerator * c.denominator - c.numerator * a.denominator
    r = b.denominator * d.denominator
    y = b.numerator * d.denominator - d.numerator * b.denominator
    return _sign(x * r, y * q, _radicand(b, m, d, k))


def render_value(value):
    """Human-readable exact rendering: '18/5', '3', '2*sqrt(2)', ...; every
    exact value printed goes through here. Exact arithmetic can outgrow
    Python's limit on printing an int, and such a value raises InvalidScenario."""
    if not isinstance(value, (Surd, Fraction)):
        value = _require_rational(value, "a rendered value")
    try:
        return str(value)
    except ValueError:  # an int past sys.get_int_max_str_digits(), nothing else
        raise InvalidScenario(
            "cannot print an exact value with a numerator or denominator of "
            f"more than {sys.get_int_max_str_digits()} digits"
        ) from None


class Polynomial:
    """Univariate polynomial with rational coefficients, kept in integers.

    ``Polynomial(coefficients, denominator)`` is the polynomial whose
    coefficient of x**i is ``coefficients[i] / denominator``. The
    coefficients are ints or Fractions and the denominator a positive int;
    anything else raises TypeError. The instance keeps integer numerators
    over one positive denominator, in lowest terms, with trailing zeros
    stripped, so equal polynomials are stored alike; ``coeffs`` reads them
    back as a tuple of Fractions. The zero polynomial has no numerators
    and reports degree -1. Instances are immutable; arithmetic runs on the
    numerators and returns new objects. Evaluation uses Horner's scheme at
    an int, Fraction or Surd point (anything else raises TypeError) and
    returns the type the point arithmetic produces: at a rational point it
    runs in integers and builds one Fraction, and at a Surd point zero
    coefficients are passed through without arithmetic.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coefficients=(), denominator=1):
        if type(denominator) is not int:
            _require_int(denominator, "a denominator")
        if denominator <= 0:
            raise ValueError("a denominator must be positive")
        nums = list(coefficients)
        if set(map(type, nums)) - {int}:  # a Fraction, or a value to refuse
            nums = [
                c if type(c) is Fraction else _require_rational(c, "a coefficient")
                for c in nums
            ]
            common = math.lcm(*[c.denominator for c in nums])
            nums = [c.numerator * (common // c.denominator) for c in nums]
            denominator *= common
        while nums and not nums[-1]:
            nums.pop()
        divisor = math.gcd(denominator, *nums) if nums else denominator
        if divisor != 1:
            nums = [c // divisor for c in nums]
            denominator //= divisor
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_den", denominator)

    def __setattr__(self, name, value=None):
        raise AttributeError("Polynomial instances are immutable")

    __delattr__ = __setattr__

    @classmethod
    def monomial(cls, power, coefficient=1):
        if _require_int(power, "power") < 0:
            raise ValueError("power must be non-negative")
        return cls([0] * power + [coefficient])

    @property
    def coeffs(self):
        """The coefficients, ascending, as Fractions."""
        return tuple([Fraction(c, self._den) for c in self._nums])

    @property
    def degree(self):
        return len(self._nums) - 1

    def coefficient(self, power):
        """Coefficient of x**power (zero beyond the degree)."""
        if 0 <= _require_int(power, "power") < len(self._nums):
            return Fraction(self._nums[power], self._den)
        return Fraction(0)

    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _sum(self, other, 1)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _sum(self, other, -1)

    def __neg__(self):
        return Polynomial([-c for c in self._nums], self._den)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            left, right = self._nums, other._nums
            if not left or not right:
                return Polynomial()
            terms = [(j, b) for j, b in enumerate(right) if b]
            out = [0] * (len(left) + len(right) - 1)
            for i, a in enumerate(left):
                if a:
                    for j, b in terms:
                        out[i + j] += a * b
            return Polynomial(out, self._den * other._den)
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
            factor = other.numerator
            return Polynomial(
                [c * factor for c in self._nums], self._den * other.denominator
            )
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, point):
        if type(point) is int or type(point) is Fraction:
            return Fraction(*_value_at(self, point.numerator, point.denominator))
        if not isinstance(point, Surd):
            raise TypeError(
                "a point must be a Surd, an int or a Fraction, "
                f"got {type(point).__name__}"
            )
        # Horner step by step, so a Surd point needs no Surd power.
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * point
            if c:
                acc = acc + c
        return acc

    def differentiate(self):
        return Polynomial([c * i for i, c in enumerate(self._nums)][1:], self._den)

    def integrate_from_zero(self):
        """The antiderivative with zero constant term."""
        nums = self._nums
        common = math.lcm(*[i + 1 for i, c in enumerate(nums) if c])
        return Polynomial(
            [0] + [c * (common // (i + 1)) for i, c in enumerate(nums)],
            self._den * common,
        )

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def _sum(left, right, sign):
    """left + sign*right, over the least common denominator; only the
    non-zero numerators of right take part in any arithmetic."""
    divisor = math.gcd(left._den, right._den)
    scale, other_scale = right._den // divisor, sign * (left._den // divisor)
    out = [c * scale for c in left._nums]
    out.extend([0] * (len(right._nums) - len(out)))
    for i, c in enumerate(right._nums):
        if c:
            out[i] += c * other_scale
    return Polynomial(out, left._den * scale)


def _value_at(poly, a, b):
    """``poly`` at a/b, b > 0, as an integer pair (numerator, denominator),
    not reduced. Horner's scheme in homogeneous form: the numerator is the
    sum of c_i * a**i * b**(degree - i) over the integer numerators c_i,
    and the denominator is the polynomial's denominator times b**degree."""
    nums = poly._nums
    if not nums:
        return 0, 1
    acc = nums[-1]
    b_power = 1
    for c in nums[-2::-1]:
        acc *= a
        b_power *= b
        if c:
            acc += c * b_power
    return acc, poly._den * b_power


def quadratic_roots(a, b, c):
    """Exact real roots of a*x**2 + b*x + c, ascending, as Surds.

    Returns a tuple of zero, one, or two roots. Degenerate cases follow the
    usual conventions: a linear equation has its single root, a non-zero
    constant has none, and the identically zero equation raises
    AllCoefficientsZero because every number would qualify.
    """
    a, b, c = (_require_rational(x, "a coefficient") for x in (a, b, c))
    if a == 0:
        if b == 0:
            if c == 0:
                raise AllCoefficientsZero("every number solves 0 = 0")
            return ()
        return (Surd(-c / b),)
    disc = b * b - 4 * a * c
    if disc < 0:
        return ()
    if disc == 0:
        return (Surd(-b / (2 * a)),)
    # (-b -+ sqrt(disc)) / (2a) is centre -+ radius, ascending for either sign of a
    centre = -b / (2 * a)
    radius = Surd.sqrt(disc) / (2 * abs(a))
    return (centre - radius, centre + radius)
