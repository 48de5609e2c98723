"""Phi(t) by the radial I0 quadrature that phi_real_t ran before its closed
form, kept as a test oracle: 4 / (pi sqrt(1-t^2)) times the integral over
[0, 100] of arcsin(t cos(eta(2 rho - 1))) e^{-2 rho/(1+|t|)} i0e(x),
x = 2 |t| rho / (1-t^2), by integrate_1d, with the tail beyond 100 charged to
the error. integrate_1d is looked up at call time, so a test may rebind it.
"""

import math

import numpy as np
import pytest

from signcorr import integrate_1d
from signcorr.phi import _CUTOFF, _cutoff_tail, _solve


def phi_real_t(family, t, tol=1e-9):
    i0e = pytest.importorskip("scipy.special").i0e
    omt2 = 1.0 - t * t
    scale = 2.0 * abs(t) / omt2
    rate = 2.0 / (1.0 + abs(t))
    pref = 4.0 / (math.pi * math.sqrt(omt2))
    eta = family.eta

    def g(rho):
        return (
            np.arcsin(t * np.cos(eta * (2.0 * rho - 1.0)))
            * np.exp(-rate * rho)
            * i0e(scale * rho)
        )

    # |arcsin(t cos)| <= arcsin|t| and e^{-x} I0(x) <= 1
    tail = pref * _cutoff_tail(math.asin(abs(t)), rate, _CUTOFF)
    return _solve(integrate_1d, g, (0.0, _CUTOFF), pref, tail, tol)
