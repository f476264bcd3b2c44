"""Exception hierarchy shared by all fanoslope modules.

Every failure mode that carries mathematical meaning gets its own class so
callers can branch on it; plain programming errors stay ValueError/TypeError.
"""


class FanoslopeError(Exception):
    """Base class for all library-specific errors."""


class IncomparableRadicands(FanoslopeError):
    """Two surds live in different quadratic fields; no arithmetic is defined."""


class InvalidScenario(FanoslopeError):
    """A scenario field is out of range or internally contradictory."""


class ScenarioInconsistent(FanoslopeError):
    """The supplied data cannot describe a smooth curve in a polarized manifold.

    Typical trigger: a declared Seshadri value so large that the restriction
    of an ample class to the exceptional divisor would have negative degree.
    """


class ZeroDenominator(ScenarioInconsistent):
    """A quotient-slope denominator vanished; only inconsistent data does this."""


class DimensionTooSmall(FanoslopeError):
    """The requested quantity is only defined for ambient dimension >= 3 (or 2)."""


class NonPositiveDegree(FanoslopeError):
    """A curve degree that must be positive was not."""


class NonPositiveMultiplicity(FanoslopeError):
    """A multiplicity that must be positive was not."""


class ShiftBelowZero(FanoslopeError):
    """Shifting a Seshadri bound across a blowup would make it negative."""


class HypothesisNotCertified(FanoslopeError):
    """A rule's hypothesis could not be verified from the available bounds."""


class HypothesisFails(FanoslopeError):
    """A rule's hypothesis is definitely violated by the given data."""


class NotAnticanonical(FanoslopeError):
    """The operation only makes sense for the anticanonical polarization."""


class GridOutOfRange(FanoslopeError):
    """A sweep grid point lies outside the certified interval (0, epsilon]."""
