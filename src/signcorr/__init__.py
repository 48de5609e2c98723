"""Numerical toolkit for sign-correlation functionals of Gaussian function
families: multi-method quadrature of the analytically continued correlation
integral, Taylor-coefficient extraction and series reversion, seeded Monte
Carlo cross-validation, and scalar optimization of the family parameter.
"""

from . import mc, optimize, phi, quad, series, specfun
from .mc import *  # noqa: F403
from .optimize import *  # noqa: F403
from .phi import *  # noqa: F403
from .quad import *  # noqa: F403
from .series import *  # noqa: F403
from .specfun import *  # noqa: F403

__version__ = "1.0.0"

__all__ = ["__version__"] + [
    name
    for mod in (specfun, quad, phi, series, mc, optimize)
    for name in mod.__all__
]
