"""Solve and classify time-dependent Riccati equations through the
machinery of SL(2,R)-valued curve transformations.

The package provides a small symbolic expression language for the
coefficients, the Möbius action on the compactified real line, a
chart-switching direct integrator (the oracle), the group/algebra layer
on SL(2,R), the affine action of curve groups on equations, classical
quadrature solvers, and a catalogue of automatic integrability-condition
detectors, all cross-validated against the oracle.  It re-exports every
public name of these modules; the command line stays in ``cli``.
"""

from .expr import *
from .projline import *
from .riccati import *
from .sl2 import *
from .transform import *
from .solvers import *
from .criteria import *

__all__ = (expr.__all__ + projline.__all__ + riccati.__all__ + sl2.__all__
           + transform.__all__ + solvers.__all__ + criteria.__all__)

__version__ = "0.1.0"
