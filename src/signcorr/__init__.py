"""Numerical toolkit for sign-correlation functionals of Gaussian function
families: multi-method quadrature of the analytically continued correlation
integral, Taylor-coefficient extraction and series reversion, seeded Monte
Carlo cross-validation, and scalar optimization of the family parameter.
"""

from .mc import (
    Family,
    McEstimate,
    estimate_phi_i,
    estimate_phi_t,
    hermite5,
    identity1,
    rotation3,
)
from .optimize import MaximizeResult, ScanResult, grid_scan, maximize_eta
from .phi import (
    METHODS,
    THRESHOLD,
    RotationFamily,
    VerificationReport,
    phi_i_bessel,
    phi_i_cartesian,
    phi_i_polar,
    phi_real_t,
    verify_theorem,
)
from .quad import NonConvergenceError, QuadResult, integrate_1d, integrate_2d
from .series import (
    AlternationVerdict,
    OddSeries,
    alternation_check,
    conditional_bound,
    mehler_coefficients,
    revert_odd_series,
)
from .specfun import arcsin_coeff, bessel_j0, hermite_prob

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "hermite_prob", "arcsin_coeff", "bessel_j0",
    "QuadResult", "NonConvergenceError", "integrate_1d", "integrate_2d",
    "RotationFamily", "VerificationReport",
    "THRESHOLD", "METHODS",
    "phi_i_polar", "phi_i_cartesian", "phi_i_bessel",
    "phi_real_t", "verify_theorem",
    "OddSeries", "AlternationVerdict", "mehler_coefficients",
    "revert_odd_series", "alternation_check", "conditional_bound",
    "Family", "McEstimate", "identity1", "rotation3", "hermite5",
    "estimate_phi_t", "estimate_phi_i",
    "ScanResult", "MaximizeResult", "grid_scan", "maximize_eta",
]
