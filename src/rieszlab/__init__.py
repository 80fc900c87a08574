"""Discrete Riesz potential theory: sweeping, capacities, and Green kernels."""

from . import balayage, core, equilibrium, errors, green, kelvin, regions, solver, thinness
from .balayage import *
from .core import *
from .equilibrium import *
from .errors import *
from .green import *
from .kelvin import *
from .regions import *
from .solver import *
from .thinness import *

__version__ = "0.1.0"

__all__ = sorted(errors.__all__ + core.__all__ + regions.__all__ + kelvin.__all__ + solver.__all__
                 + balayage.__all__ + green.__all__ + equilibrium.__all__ + thinness.__all__)
