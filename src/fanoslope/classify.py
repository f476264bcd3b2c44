"""Verdicts: slope stability of anticanonical curve scenarios.

The verdict engine is a rule cascade. Structural rules that certify
stability outright (high genus, a small Seshadri constant, Picard rank one,
intermediate Fano index) fire first; everything else lands in the
genus-zero degree regimes. Each regime has one deciding zero t of the
destabilizing quadratic, a closed form of (n, d, p): sqrt(n**2-1) for
degree 1 and n for degree 2, where the quadratic crosses zero, and d for
d = n + 1, where it only touches zero. One routine places the certified
interval against t under either convention. Ties at lambda = epsilon
count as destabilizing under the default closed-interval convention; pass
include_endpoint=False for the open variant.
"""

import enum
from collections import namedtuple
from functools import lru_cache

from .blowup import check_epsilon_consistency
from .errors import DimensionTooSmall, InvalidScenario, NotAnticanonical
from .exactnum import (
    _fraction, _make, _require_bool, _require_int, _split_radicand, compare,
    render_value,
)

__all__ = [
    "VerdictStatus",
    "Verdict",
    "ClassifyFlags",
    "BundleSplitting",
    "classify_curve",
]


class VerdictStatus(enum.Enum):
    STABLE = "stable"
    SEMISTABLE_NOT_STABLE = "semistable-not-stable"
    STRICTLY_DESTABILIZED = "strictly-destabilized"
    CONDITIONAL = "conditional-on-seshadri"


class Verdict(namedtuple(
    "Verdict", "status rule witness_lambda condition", defaults=(None, None)
)):
    """Outcome of a stability check.

    status is a VerdictStatus and rule the prose of the rule that decided
    it. witness_lambda (a Fraction or Surd, or None) is a twist at which the
    destabilizing quadratic is zero (semistable, not stable) or negative
    (strictly destabilized); condition is the residual inequality on
    epsilon for conditional verdicts.
    """

    __slots__ = ()


class ClassifyFlags(namedtuple("ClassifyFlags", "is_pn picard_rank_one fano_index")):
    """Extra geometric facts the numbers alone cannot see."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    def __new__(cls, is_pn=False, picard_rank_one=False, fano_index=None):
        # "false" would read as true, and 3.5 would pass the index range test
        if type(is_pn) is not bool or type(picard_rank_one) is not bool:
            raise InvalidScenario("isPn and picardRankOne must be true or false")
        if fano_index is not None and type(fano_index) is not int:
            raise InvalidScenario("fanoIndex must be an integer or None")
        return super().__new__(cls, is_pn, picard_rank_one, fano_index)

    def echo(self):
        return (
            f"[isPn={str(self.is_pn).lower()} "
            f"picardRankOne={str(self.picard_rank_one).lower()} "
            f"fanoIndex={self.fano_index}]"
        )


class BundleSplitting(namedtuple("BundleSplitting", "twists")):
    """A splitting of a vector bundle on P1 into line-bundle twists.

    Twists are stored as a tuple of ints, sorted ascending; order of input
    does not matter.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    def __new__(cls, twists):
        twists = tuple(sorted(_require_int(t, "a twist") for t in twists))
        if not twists:
            raise ValueError("a splitting needs at least one summand")
        return super().__new__(cls, twists)

    @property
    def rank(self):
        return len(self.twists)


def _stable(rule):
    return Verdict(status=VerdictStatus.STABLE, rule=rule)


@lru_cache(maxsize=192)
def _regime(n, p):
    """The rule and deciding zero of regime p = d - 2, built once per (n, p)."""
    if p == -1:
        return "degree-regime(d=1)", _make(*_split_radicand(0, 1, 1, n * n - 1))
    if p == 0:
        return "degree-regime(d=2)", _fraction(n, 1)
    return f"degree-regime(d>=3, d={n + 1})", _fraction(n + 1, 1)


def _regime_verdict(s, estimate, include_endpoint):
    """Stability of an anticanonical genus-zero curve by its degree regime.

    With p = d - 2 the destabilizing quadratic specializes to:

    * p = 0 (degree 2): -2*(n**2-1)*(lam - n), crossing zero at n;
    * p = -1 (degree 1): -n*(lam**2 - (n**2-1)), crossing zero at
      sqrt(n**2-1);
    * p >= 1 (degree >= 3): positive on (0, d] except for a double zero at
      lam = d when d = n + 1, where it only touches zero.

    Each regime is decided at its one zero t, kept as that closed form: the
    quadratic is positive on (0, t), zero at t, and negative beyond t if it
    crosses there. A touching zero sits at d, and the consistency gate holds
    epsilon <= d, so the upper bound is capped at d and "epsilon exceeds t"
    cannot happen. Both conventions and both kinds of zero share one set of
    comparisons; only the wording differs ("the threshold" for a crossing,
    "d = n + 1" for a touching zero). Estimates that do not pin the answer
    down yield a conditional verdict carrying the exact residual inequality.
    """
    n, d, p = s.n, s.degree, s.normal_degree
    if p >= 1 and d != n + 1:
        return _stable(
            f"degree-regime(d>=3, d={d}): the quadratic is positive on (0, d]"
        )
    rule, t = _regime(n, p)
    crossing = p <= 0
    if crossing:
        name, tie = "the threshold", "epsilon equals the threshold"
        excluded = "open interval stops before the threshold"
    else:
        name, tie = "d = n + 1", "epsilon = d = n + 1"
        excluded = "the only zero sits at the excluded endpoint"
    top = None if estimate.upper is None else compare(estimate.upper, t)
    if not crossing and (top is None or top > 0):
        top = 0  # the moving-curve bound epsilon <= d
    if top is not None and (top < 0 or (top == 0 and not include_endpoint)):
        return _stable(rule + ": " + (
            f"epsilon stays below {name}" if include_endpoint else excluded
        ))
    lo = estimate.lower
    bottom = compare(lo, t)
    if include_endpoint and bottom == 0 and top == 0:
        return Verdict(
            status=VerdictStatus.SEMISTABLE_NOT_STABLE,
            rule=rule + ": " + tie,
            witness_lambda=t,
        )
    if bottom > 0:
        return Verdict(
            status=VerdictStatus.STRICTLY_DESTABILIZED,
            rule=rule + ": epsilon exceeds the threshold",
            witness_lambda=lo if include_endpoint else (t + lo) / 2,
        )
    shown = render_value(t)
    condition = f"stable iff epsilon {'<' if include_endpoint else '<='} {shown}"
    if include_endpoint:
        condition += f"; semistable but not stable iff epsilon = {shown}"
    if crossing:
        condition += f"; strictly destabilized iff epsilon > {shown}"
    return Verdict(
        status=VerdictStatus.CONDITIONAL,
        rule=rule + f": the estimate straddles {name}",
        condition=condition,
    )


def classify_curve(scenario, estimate, flags=None, include_endpoint=True):
    """The verdict for an anticanonical curve scenario: the one entry point.

    First match wins: (1) positive genus, (2) Seshadri constant at most the
    codimension n - 1, (3) Picard rank one away from the projective-space
    line, (4) Fano index between 3 and n, (5) the genus-zero degree regimes;
    (3) to (5) need n >= 3. Before anything, the anticanonical test included,
    the lower bound must pass check_epsilon_consistency: no rule certifies
    inconsistent data.
    """
    s = scenario
    _require_bool(include_endpoint, "include_endpoint")
    if flags is None:
        flags = ClassifyFlags()
    check_epsilon_consistency(s, estimate.lower)
    if not s.anticanonical:
        raise NotAnticanonical("stability verdicts assume L = -K_X")
    if s.genus >= 1:
        return _stable("high-genus: only rational curves can destabilize")
    if estimate.upper is not None and compare(estimate.upper, s.n - 1) <= 0:
        return _stable(
            "codimension-cap: epsilon <= n - 1 makes the stability margin "
            "positive"
        )
    if s.n < 3:
        raise DimensionTooSmall("degree regimes assume ambient dimension >= 3")
    if flags.picard_rank_one and not (flags.is_pn and s.degree == s.n + 1):
        return _stable(
            "picard-rank-one: curves in Picard-rank-one Fanos are stable "
            "except the line in projective space " + flags.echo()
        )
    idx = flags.fano_index
    if idx is not None and 3 <= idx <= s.n:
        return _stable(
            "fano-index: index between 3 and n certifies stability "
            + flags.echo()
        )
    return _regime_verdict(s, estimate, include_endpoint)
