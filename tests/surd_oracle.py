"""The Fraction-based Surd, as the package had it before surds were kept in
integers.

``Surd`` below holds ``rat`` and ``coef`` as Fractions; ``_parts``,
``_sign``, ``compare`` and ``render_value`` are the earlier operand reader,
sign test, comparison and printer that worked on those parts. A test runs
both versions on the same input and compares results, types and messages.
"""

import sys
from fractions import Fraction

from fanoslope.errors import IncomparableRadicands, InvalidScenario
from fanoslope.exactnum import (
    _require_int, _require_rational, _squarefree_decompose,
)

_ZERO = Fraction(0)


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
