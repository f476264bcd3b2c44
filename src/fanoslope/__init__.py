"""fanoslope: exact slope stability of Fano manifolds along smooth curves.

The package computes, in exact arithmetic, the quantities that decide
whether a polarized Fano manifold is slope (semi)stable with respect to a
smooth curve: Hilbert-coefficient polynomials on the blowup along the curve,
quotient slopes, certified Seshadri-constant intervals, and the resulting
verdicts. A JSON-driven command line (``fanoslope``) batches the same
computations over scenario files.
"""

from . import errors
from .blowup import *
from .classify import *
from .exactnum import *
from .seshadri import *
from .slope import *

__version__ = "0.1.0"

# Each public name is declared once, in the __all__ beside its definition.
__all__ = ["errors"]
__all__ += blowup.__all__
__all__ += classify.__all__
__all__ += exactnum.__all__
__all__ += seshadri.__all__
__all__ += slope.__all__
