"""Verdicts: slope stability of anticanonical curve scenarios.

The verdict engine is a rule cascade. Structural rules that certify
stability outright (high genus, a small Seshadri constant, Picard rank one,
intermediate Fano index) fire first; everything else lands in the
genus-zero degree regimes, where the sign pattern of the destabilizing
quadratic on (0, epsilon] decides. Ties at lambda = epsilon count as
destabilizing under the default closed-interval convention; pass
include_endpoint=False for the open variant.

The bundle-side helpers answer the converse question: which normal-bundle
splittings are even allowed for a curve that fails to be stable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .blowup import check_epsilon_consistency
from .errors import (
    DimensionTooSmall, InvalidScenario, NotAnticanonical, TooFewSummands, WrongRank,
)
from .exactnum import Surd, _require_int, compare, render_value

__all__ = [
    "VerdictStatus",
    "Verdict",
    "ClassifyFlags",
    "BundleSplitting",
    "FanoBundleReport",
    "fano_bundle_check",
    "admissible_normal_bundle",
    "classify_curve",
    "ShapeFilterResult",
    "non_stable_shape_filter",
]


class VerdictStatus(enum.Enum):
    STABLE = "stable"
    SEMISTABLE_NOT_STABLE = "semistable-not-stable"
    STRICTLY_DESTABILIZED = "strictly-destabilized"
    CONDITIONAL = "conditional-on-seshadri"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a stability check.

    witness_lambda is a twist at which the destabilizing quadratic is zero
    (semistable, not stable) or negative (strictly destabilized); condition
    is the residual inequality on epsilon for conditional verdicts.
    """

    status: VerdictStatus
    rule: str
    witness_lambda: Fraction | Surd | None = None
    condition: str | None = None


@dataclass(frozen=True)
class ClassifyFlags:
    """Extra geometric facts the numbers alone cannot see."""

    is_pn: bool = False
    picard_rank_one: bool = False
    fano_index: int | None = None

    def __post_init__(self):
        # "false" would read as true, and 3.5 would pass the index range test
        if type(self.is_pn) is not bool or type(self.picard_rank_one) is not bool:
            raise InvalidScenario("isPn and picardRankOne must be true or false")
        if self.fano_index is not None and type(self.fano_index) is not int:
            raise InvalidScenario("fanoIndex must be an integer or None")

    def echo(self):
        return (
            f"[isPn={str(self.is_pn).lower()} "
            f"picardRankOne={str(self.picard_rank_one).lower()} "
            f"fanoIndex={self.fano_index}]"
        )


@dataclass(frozen=True)
class BundleSplitting:
    """A splitting of a vector bundle on P1 into line-bundle twists.

    Twists are stored sorted ascending; order of input does not matter.
    """

    twists: tuple[int, ...]

    def __init__(self, twists):
        twists = tuple(sorted(_require_int(t, "a twist") for t in twists))
        if not twists:
            raise ValueError("a splitting needs at least one summand")
        object.__setattr__(self, "twists", twists)

    @property
    def rank(self):
        return len(self.twists)

    def normalized(self):
        """Twists shifted so the smallest is zero."""
        low = self.twists[0]
        return BundleSplitting(t - low for t in self.twists)


class FanoBundleReport(NamedTuple):
    is_fano_projectivization: bool
    normalized: BundleSplitting
    minus_k_dot_section: int


def fano_bundle_check(splitting):
    """Is the projectivization of O(a1) + ... + O(ak) over P1 a Fano manifold?

    Normalizing so the smallest twist is zero, write d for the sum of the
    normalized twists. The anticanonical degree of the minimal section is
    2 - d, and the projectivization is Fano exactly when d < 2, i.e. the
    splitting is trivial or trivial plus a single O(1).
    """
    if splitting.rank < 2:
        raise TooFewSummands("a projectivized bundle needs rank at least 2")
    normalized = splitting.normalized()
    d = sum(normalized.twists)
    return FanoBundleReport(
        is_fano_projectivization=d < 2,
        normalized=normalized,
        minus_k_dot_section=2 - d,
    )


def admissible_normal_bundle(n, splitting):
    """Can this rank-(n-1) splitting be the normal bundle of a rational curve
    whose blowup is Fano? The only shapes are O(a)**(n-1) and
    O(a)**(n-2) + O(a+1)."""
    if splitting.rank != _require_int(n, "n") - 1:
        raise WrongRank(
            f"a curve in an {n}-fold has normal bundle of rank {n - 1}"
        )
    t = splitting.twists
    a = t[0]
    uniform = all(x == a for x in t)
    step = all(x == a for x in t[:-1]) and t[-1] == a + 1
    return uniform or step


class ShapeFilterResult(NamedTuple):
    allowed: tuple[str, ...]
    passes: bool


def non_stable_shape_filter(n, splitting, is_pn_line=False):
    """Normal-bundle shapes a non-stable anticanonical curve can have.

    For n >= 4 only the trivial bundle or a line in projective n-space
    survive; for n = 3 the split bundle O + O(-1) joins the list. The
    splitting passes the filter when it matches one of the allowed shapes or
    the line flag is set.
    """
    if type(is_pn_line) is not bool:
        raise TypeError(f"is_pn_line must be a bool, got {type(is_pn_line).__name__}")
    if _require_int(n, "n") < 3:
        raise DimensionTooSmall("the shape filter is stated for n >= 3")
    if splitting.rank != n - 1:
        raise WrongRank(
            f"a curve in an {n}-fold has normal bundle of rank {n - 1}"
        )
    if n >= 4:
        allowed = ("trivial", "line-in-projective-space")
        passes = is_pn_line or splitting.twists == (0,) * (n - 1)
    else:
        allowed = ("trivial", "O+O(-1)", "line-in-projective-space")
        passes = (
            is_pn_line
            or splitting.twists == (0, 0)
            or splitting.twists == (-1, 0)
        )
    return ShapeFilterResult(allowed=allowed, passes=passes)


def _stable(rule):
    return Verdict(status=VerdictStatus.STABLE, rule=rule)


def _threshold_verdict(threshold, estimate, rule, include_endpoint):
    """Trichotomy against a single destabilizing threshold.

    The quadratic is positive below the threshold, zero at it, negative
    beyond; so the verdict only depends on where epsilon sits relative to it.
    """
    lo, hi = estimate.lower, estimate.upper
    t = threshold
    if include_endpoint:
        if hi is not None and compare(hi, t) < 0:
            return _stable(rule + ": epsilon stays below the threshold")
        exact = estimate.exact
        if exact is not None and compare(exact, t) == 0:
            return Verdict(
                status=VerdictStatus.SEMISTABLE_NOT_STABLE,
                rule=rule + ": epsilon equals the threshold",
                witness_lambda=t,
            )
        if compare(lo, t) > 0:
            return Verdict(
                status=VerdictStatus.STRICTLY_DESTABILIZED,
                rule=rule + ": epsilon exceeds the threshold",
                witness_lambda=lo,
            )
    else:
        if hi is not None and compare(hi, t) <= 0:
            return _stable(rule + ": open interval stops before the threshold")
        if compare(lo, t) > 0:
            return Verdict(
                status=VerdictStatus.STRICTLY_DESTABILIZED,
                rule=rule + ": epsilon exceeds the threshold",
                witness_lambda=(t + lo) / 2,
            )
    if include_endpoint:
        condition = (
            f"stable iff epsilon < {render_value(t)}; "
            f"semistable but not stable iff epsilon = {render_value(t)}; "
            f"strictly destabilized iff epsilon > {render_value(t)}"
        )
    else:
        condition = (
            f"stable iff epsilon <= {render_value(t)}; "
            f"strictly destabilized iff epsilon > {render_value(t)}"
        )
    return Verdict(
        status=VerdictStatus.CONDITIONAL,
        rule=rule + ": the estimate straddles the threshold",
        condition=condition,
    )


def _regime_verdict(s, estimate, include_endpoint):
    """Stability of an anticanonical genus-zero curve by its degree regime.

    With p = d - 2 the destabilizing quadratic specializes to:

    * p = 0 (degree 2): -2*(n**2-1)*(lam - n), threshold n;
    * p = -1 (degree 1): -n*(lam**2 - (n**2-1)), threshold sqrt(n**2-1);
    * p >= 1 (degree >= 3): positive on (0, d] except for the single zero at
      lam = d when d = n + 1, so stable unless epsilon = d = n + 1.

    Estimates that do not pin the answer down yield a conditional verdict
    carrying the exact residual inequality.
    """
    n, d, p = s.n, s.degree, s.normal_degree
    if p == 0:
        return _threshold_verdict(
            Fraction(n), estimate, "degree-regime(d=2)", include_endpoint
        )
    if p == -1:
        return _threshold_verdict(
            Surd(0, 1, n * n - 1),
            estimate,
            "degree-regime(d=1)",
            include_endpoint,
        )
    # p >= 1, d = p + 2 >= 3
    rule = f"degree-regime(d>=3, d={d})"
    if d != n + 1:
        return _stable(rule + ": the quadratic is positive on (0, d]")
    if not include_endpoint:
        return _stable(rule + ": the only zero sits at the excluded endpoint")
    if estimate.upper is not None and compare(estimate.upper, d) < 0:
        return _stable(rule + ": epsilon stays below d = n + 1")
    if compare(estimate.lower, d) == 0:
        return Verdict(
            status=VerdictStatus.SEMISTABLE_NOT_STABLE,
            rule=rule + ": epsilon = d = n + 1",
            witness_lambda=Fraction(d),
        )
    return Verdict(
        status=VerdictStatus.CONDITIONAL,
        rule=rule + ": the estimate straddles d = n + 1",
        condition=(
            f"stable iff epsilon < {d}; "
            f"semistable but not stable iff epsilon = {d}"
        ),
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
