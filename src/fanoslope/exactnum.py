"""Exact number types: rationals, rational polynomials, quadratic surds.

Everything downstream is decided by signs of exact quantities, so no floats
appear anywhere in this package's arithmetic. Rationals are stdlib
``fractions.Fraction`` (normalized form, positive denominator, structural
equality). On top of that this module supplies

* :class:`Polynomial` -- univariate polynomials with rational coefficients,
  kept as ascending integer numerators over one positive denominator, in
  lowest terms with trailing zeros stripped; they are built, read and
  evaluated, and have no arithmetic of their own;
* :class:`Surd` -- numbers ``rat + coef*sqrt(rad)`` with a square-free
  radicand below 10**12, such as ``sqrt(n**2 - 1)``, kept as integers
  ``(x + y*sqrt(rad)) / q`` in lowest terms;
* :func:`parse_rational` and :func:`parse_value` -- exact values read as
  JSON spells them: "18/5", or ``{"rat": "a/b", "coef": "c/d", "rad": k}``.

General algebraic-number arithmetic is deliberately not built: all surds in a
computation share a single radicand, and mixing incommensurable radicands
raises :class:`~fanoslope.errors.IncomparableRadicands`.

One operand rule holds throughout: a rational is an ``int`` or a
``Fraction``, and a value is a rational or a ``Surd``; anything else, floats,
strings and Decimals included, raises TypeError rather than being converted.
``compare`` and Surd arithmetic and ordering read both operands as the
integers ``(x, y, q, rad)``, without building a wrapper Surd or a Fraction,
and each Surd result is reduced by one gcd. Two operands that are exactly
an int or a Fraction, most calls of ``compare``, skip those tuples: one
cross-multiplication decides (0.15 us a call where the tuples took 0.64 us,
by timeit on Python 3.11 and a 2-core Xeon). An exact Fraction's integers are
read from its slots, a subclass's through its properties: ``compare``,
``_ints``, ``render_value``, ``Polynomial.__call__`` and ``slope``'s two
routes read them. Only ``_fraction`` writes them: every Fraction built from
integers comes from it, in under half the time ``Fraction(n, d)`` takes, and
only ``_require_rational`` converts a caller's value with ``Fraction(value)``.
``compare`` reads an exact Surd's integers from its ``_v``; ``_ints`` is the
one reader of every other operand, ``Polynomial.__call__``'s points included.
"""

import math
import re
import sys
from fractions import Fraction

from .errors import IncomparableRadicands, InvalidScenario

__all__ = [
    "Polynomial",
    "Surd",
    "compare",
    "render_value",
]


# Surd refuses a radicand at or above this bound unless it is a perfect
# square, and the loader and n*n - 1 stay below it: _squarefree_decompose
# trial-divides up to the cube root of m, about 5000 steps here (under a
# millisecond for the prime 999999999989).
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


def _fraction(numerator, denominator):
    """numerator/denominator, two ints, as a Fraction in lowest terms with a
    positive denominator, the value ``Fraction(numerator, denominator)``
    gives and with its words for a zero denominator. It takes one gcd and
    fills the instance's two slots, skipping the constructor's type tests."""
    if not denominator:
        raise ZeroDivisionError("Fraction(%s, 0)" % numerator)
    divisor = math.gcd(numerator, denominator)
    if denominator < 0:
        divisor = -divisor
    fraction = object.__new__(Fraction)
    fraction._numerator = numerator // divisor
    fraction._denominator = denominator // divisor
    return fraction


_ZERO = _fraction(0, 1)


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


def _read_int(raw, context):
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise InvalidScenario(f"{context}: expected an integer, got {raw!r}")
    return raw


def _read_bool(raw, context):
    if not isinstance(raw, bool):
        raise InvalidScenario(f"{context}: expected true or false, got {raw!r}")
    return raw


def _sign(a, b, m):
    """Exact sign of ``a + b*sqrt(m)``: -1, 0, or 1.

    ``a`` and ``b`` are ints and ``m`` is the square-free radicand whenever
    ``b`` is non-zero.
    """
    sign_a = (a > 0) - (a < 0)
    if not b:
        return sign_a
    sign_b = 1 if b > 0 else -1
    if sign_a == 0 or sign_a == sign_b:
        return sign_b
    # Opposite signs: compare a^2 with b^2*m. Equality would force sqrt(m)
    # rational, impossible for square-free m >= 2.
    return sign_a if a * a > b * b * m else sign_b


class Surd:
    """A real number ``rat + coef * sqrt(rad)`` with exact arithmetic.

    It is kept in integers as ``(x + y*sqrt(rad)) / q`` with q > 0,
    gcd(x, y, q) = 1 and ``rad`` square-free (0 when y = 0), so structural
    equality is semantic equality. A radicand that is not a perfect square
    must be below 10**12. Instances are immutable.
    """

    __slots__ = ("_v",)  # the integers (x, y, q, rad)

    def __init__(self, rat=0, coef=0, rad=0):
        if type(rat) is not int:
            rat = _require_rational(rat, "rat")
        if type(coef) is not int:
            coef = _require_rational(coef, "coef")
        if type(rad) is not int:
            _require_int(rad, "radicand")
        if rad < 0:
            raise ValueError("radicand must be non-negative")
        b, d = rat.denominator, coef.denominator
        x, y = rat.numerator * d, coef.numerator * b
        _store_ints(self, _reduce(*_split_radicand(x, y, b * d, rad)))

    def __setattr__(self, name, value=None):
        raise AttributeError("Surd instances are immutable")

    __delattr__ = __setattr__

    rat = property(lambda self: _fraction(self._v[0], self._v[2]))
    coef = property(lambda self: _fraction(self._v[1], self._v[2]))
    rad = property(lambda self: self._v[3])
    is_rational = property(lambda self: not self._v[1])

    def sign(self):
        """Exact sign: -1, 0, or 1."""
        return _sign(self._v[0], self._v[1], self._v[3])

    # -- arithmetic and comparison -----------------------------------------
    # The other operand is read through _ints, as compare reads it, so an
    # operand that is not an int, a Fraction or a Surd raises TypeError.

    def __add__(self, other):
        x, y, q, m = self._v
        u, v, r, k = _ints(other)
        return _make(x * r + u * q, y * r + v * q, q * r, _radicand(y, m, v, k))

    __radd__ = __add__

    def __neg__(self):
        x, y, q, m = self._v
        return _make(-x, -y, q, m)

    def __pos__(self):
        return self

    def __sub__(self, other):
        x, y, q, m = self._v
        u, v, r, k = _ints(other)
        return _make(x * r - u * q, y * r - v * q, q * r, _radicand(y, m, v, k))

    def __rsub__(self, other):
        x, y, q, m = self._v
        u, v, r, k = _ints(other)
        return _make(u * q - x * r, v * q - y * r, q * r, _radicand(v, k, y, m))

    def __mul__(self, other):
        return _product(*self._v, *_ints(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _product(*self._v, *_inverse(*_ints(other)))

    def __rtruediv__(self, other):
        return _product(*_ints(other), *_inverse(*self._v))

    def __eq__(self, other):
        try:
            return self._v == _ints(other)
        except TypeError:  # not an int, Fraction or Surd: Python decides
            return NotImplemented

    def __hash__(self):
        if self.is_rational:
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
        x, y, q, m = self._v
        if not y:
            return _ratio(x, q)
        radical = f"sqrt({m})" if abs(y) == q else f"{_ratio(abs(y), q)}*sqrt({m})"
        if not x:
            return radical if y > 0 else f"-{radical}"
        return f"{_ratio(x, q)} {'+' if y > 0 else '-'} {radical}"


_store_ints = Surd._v.__set__


def _reduce(x, y, q, m):
    """``(x + y*sqrt(m)) / q``, q > 0, reduced by one gcd; m = 0 when y = 0."""
    divisor = math.gcd(x, y, q)
    return x // divisor, y // divisor, q // divisor, m if y else 0


def _make(x, y, q, m):
    """The Surd of ``_reduce(x, y, q, m)``; the integers are already checked,
    so it skips ``__init__``."""
    surd = object.__new__(Surd)
    _store_ints(surd, _reduce(x, y, q, m))
    return surd


def _split_radicand(x, y, q, rad):
    """``(x + y*sqrt(rad)) / q``, rad >= 0, with the square factors of rad
    moved into y and a perfect square joined to x; rad = 0 when y = 0. Only
    a radicand below the bound is trial-divided."""
    if not y or not rad:
        return x, 0, q, 0
    if rad >= _MAX_RADICAND:
        square = math.isqrt(rad)
        if square * square != rad:
            raise ValueError(f"non-square radicand must be below {_MAX_RADICAND}")
        return x + y * square, 0, q, 0
    square, rad = _squarefree_decompose(rad)
    y *= square
    return (x + y, 0, q, 0) if rad == 1 else (x, y, q, rad)


def _ratio(numerator, denominator):
    """numerator/denominator, denominator > 0, printed as its Fraction is."""
    divisor = math.gcd(numerator, denominator)
    numerator, denominator = numerator // divisor, denominator // divisor
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


def _ints(value, what="an operand"):
    """``(x, y, q, rad)`` of an int, Fraction or Surd, for the value
    ``(x + y*sqrt(rad)) / q`` in the canonical form a Surd keeps; anything
    else, a bool included, raises TypeError, its words starting with
    ``what``. A Fraction is read from its slots, as ``compare`` reads it; a
    subclass goes through its properties."""
    if type(value) is Fraction:
        return value._numerator, 0, value._denominator, 0
    if isinstance(value, Surd):
        return value._v
    if type(value) is int or (
        isinstance(value, (int, Fraction)) and not isinstance(value, bool)
    ):
        return value.numerator, 0, value.denominator, 0
    raise TypeError(
        f"{what} must be a Surd, an int or a Fraction, got {type(value).__name__}"
    )


def _radicand(b, m, d, k):
    """The radicand shared by ``b*sqrt(m)`` and ``d*sqrt(k)``; two irrational
    parts with different radicands raise IncomparableRadicands."""
    if b and d and m != k:
        raise IncomparableRadicands(f"cannot combine sqrt({m}) with sqrt({k})")
    return m or k


def _product(x, y, q, m, u, v, r, k):
    """``(x + y*sqrt(m))/q * (u + v*sqrt(k))/r`` as a Surd."""
    rad = _radicand(y, m, v, k)
    return _make(x * u + y * v * rad, x * v + y * u, q * r, rad)


def _inverse(x, y, q, m):
    """Integers of ``q/(x + y*sqrt(m)) = q*(x - y*sqrt(m)) / (x^2 - y^2*m)``,
    with a positive denominator; the norm is zero only at zero."""
    norm = x * x - y * y * m
    if not norm:
        raise ZeroDivisionError("division by zero surd")
    return (q * x, -q * y, norm, m) if norm > 0 else (-q * x, q * y, -norm, m)


def compare(left, right):
    """Exact three-way comparison of rationals and surds: -1, 0, or 1.

    Both arguments may be int, Fraction, or Surd; anything else, floats
    included, raises TypeError. Comparing two irrational surds with
    different radicands raises IncomparableRadicands; every chain of rules
    in this package stays inside a single quadratic field, so that situation
    signals a modelling mistake rather than a gap to work around.

    Each side is read as integers ``(x + y*sqrt(m))/q``. Two exact ints or
    Fractions are read from the Fraction's slots and compared by
    cross-multiplying; otherwise an exact Surd's integers are its ``_v`` and
    any other side takes _ints, and the sign of the difference,
    ``x*r - u*q + (y*r - v*q)*sqrt(m)`` over ``q*r > 0``, is read from
    integer products. No Surd and no Fraction is built either way.
    """
    kind, other = type(left), type(right)
    if (kind is Fraction or kind is int) and (other is Fraction or other is int):
        if kind is Fraction:
            x, q = left._numerator, left._denominator
        else:
            x, q = left, 1
        if other is Fraction:
            u, r = right._numerator, right._denominator
        else:
            u, r = right, 1
        a, b = x * r, u * q
        return (a > b) - (a < b)
    x, y, q, m = left._v if kind is Surd else _ints(left)
    u, v, r, k = right._v if other is Surd else _ints(right)
    return _sign(x * r - u * q, y * r - v * q, _radicand(y, m, v, k))


def render_value(value):
    """Human-readable exact rendering: '18/5', '3', '2*sqrt(2)', ...; every
    exact value printed goes through here. Exact arithmetic can outgrow
    Python's limit on printing an int, and such a value raises InvalidScenario."""
    exact = type(value) is Fraction
    if not exact and not isinstance(value, (Surd, Fraction)):
        value = _require_rational(value, "a rendered value")
    try:
        if exact:  # printed from its slots, as Fraction.__str__ prints it
            numerator, denominator = value._numerator, value._denominator
            return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"
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
    and reports degree -1. Instances are immutable and compare and hash
    by value. A polynomial is built, read and evaluated, nothing more: the
    package writes each one down in closed form, so it has no arithmetic
    on polynomials. Evaluation uses Horner's scheme at an int, Fraction or
    Surd point (anything else raises TypeError) and returns the type the
    point arithmetic produces: at a rational point it runs in integers and
    builds one Fraction, and at a Surd point zero coefficients are passed
    through without arithmetic.
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

    @property
    def coeffs(self):
        """The coefficients, ascending, as Fractions."""
        return tuple([_fraction(c, self._den) for c in self._nums])

    @property
    def degree(self):
        return len(self._nums) - 1

    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, point):
        if type(point) is Fraction:  # read from its slots, as compare reads it
            a, b = point._numerator, point._denominator
        elif isinstance(point, Surd):  # Horner step by step: no Surd power
            acc = _ZERO
            for c in reversed(self.coeffs):
                acc = acc * point
                if c:
                    acc = acc + c
            return acc
        else:  # any other point is read, or refused, as an operand is
            a, _, b, _ = _ints(point, "a point")
        value, scale = _value_at(self._nums, a, b)
        return _fraction(value, self._den * scale)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def _value_at(nums, a, b):
    """The integers ``nums``, ascending coefficients, at a/b, b > 0, as an
    integer pair (numerator, b**degree). Horner's scheme in homogeneous
    form: the numerator is the sum of c_i * a**i * b**(degree - i), and
    zero numerators take part in no addition."""
    if not nums:
        return 0, 1
    acc = nums[-1]
    b_power = 1
    for c in nums[-2::-1]:
        acc *= a
        b_power *= b
        if c:
            acc += c * b_power
    return acc, b_power


# ASCII digits only: \d would also admit other scripts' digits such as "٣"
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _rational_ints(value, context):
    """A rational or surd part as (numerator, denominator > 0), unreduced."""
    if isinstance(value, str):  # the usual case first
        # [0-9]+, the commonest form, is an ASCII string that isdigit(): no regex
        if (value.isdigit() and value.isascii()) or _RATIONAL.fullmatch(value):
            numerator, slash, denominator = value.partition("/")
            try:  # int() refuses more than 4300 digits with a ValueError
                denominator = int(denominator) if slash else 1
                if denominator:
                    return int(numerator), denominator
            except ValueError as exc:
                raise InvalidScenario(f"{context}: bad rational {value!r}") from exc
        raise InvalidScenario(f"{context}: bad rational {value!r}")
    if isinstance(value, bool):
        raise InvalidScenario(f"{context}: expected a rational, got a boolean")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        raise InvalidScenario(
            f"{context}: floats are not exact; write the rational as a "
            'string like "18/5"'
        )
    raise InvalidScenario(f"{context}: cannot read a rational from {value!r}")


def parse_rational(value, context="value"):
    return _fraction(*_rational_ints(value, context))


_SURD_KEYS = frozenset(("rat", "coef", "rad"))


def parse_value(value, context="value"):
    """A rational or a surd object; a surd that turns out rational is
    returned as its Fraction. A surd is built once, from its parts' integers."""
    if isinstance(value, dict):
        if not value.keys() <= _SURD_KEYS:
            extra = sorted(value.keys() - _SURD_KEYS)
            raise InvalidScenario(f"{context}: unknown surd fields {extra}")
        rad = value.get("rad", 0)
        if (
            not isinstance(rad, int) or isinstance(rad, bool)
            or not 0 <= rad < _MAX_RADICAND
        ):
            raise InvalidScenario(
                f"{context}: surd radicand must be a non-negative integer "
                f"below {_MAX_RADICAND}"
            )
        a, b = _rational_ints(value.get("rat", 0), f"{context}.rat")
        c, d = _rational_ints(value.get("coef", 0), f"{context}.coef")
        surd = _make(*_split_radicand(a * d, c * b, b * d, rad))
        return surd.rat if surd.is_rational else surd
    return parse_rational(value, context)
