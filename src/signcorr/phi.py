"""Sign-correlation functional of the n=3 rotation family.

Phi(t) is the expected product of signs of F and G applied to coordinatewise
t-correlated Gaussian vectors, where the family mixes two coordinates by the
angle eps*(x^2 - 1) of a third. Phi(i)/i is real; this module evaluates it by
three independent quadrature routes and verifies that it clears the
(2/pi) ln(1+sqrt 2) threshold. On both axes the angular integral collapses to
a Bessel kernel, J0 at t = i and I0 at real t, so one radial integral gives
Phi(i)/i and Phi(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quad import QuadResult, _integrate_lanes, integrate_1d, integrate_2d
from .specfun import _bessel_i0e, bessel_j0

__all__ = [
    "THRESHOLD",
    "METHODS",
    "RotationFamily",
    "VerificationReport",
    "phi_i_polar",
    "phi_i_cartesian",
    "phi_i_bessel",
    "phi_real_t",
    "verify_theorem",
]

# (2/pi) ln(1+sqrt 2): the value of Phi(i)/i at eta = 0, and the bar every
# family must clear. Its reciprocal pi/(2 ln(1+sqrt 2)) = 1.7822... is the
# classical sign-rounding bound.
THRESHOLD = 2.0 / math.pi * math.asinh(1.0)

_ASINH1 = math.asinh(1.0)
_PREFACTOR = 2.0 * math.sqrt(2.0) / math.pi**2  # polar and folded-Cartesian forms
_PREFACTOR_BESSEL = 2.0 * math.sqrt(2.0) / math.pi

# truncated domains: rho in [0, _CUTOFF] for the radial integrals, the square
# [-_BOX, _BOX]^2, folded to one quadrant, for the Cartesian route
_CUTOFF = 100.0
_BOX = 14.0


@dataclass(frozen=True)
class RotationFamily:
    """Family parameter eta; the mixing angle uses eps = eta/2."""

    eta: float

    def __post_init__(self):
        if not math.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta}")

    @property
    def epsilon(self) -> float:
        return self.eta / 2.0


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a threshold verification at one eta.

    passed is True only when the margin clears the quadrature error estimate,
    i.e. the strict inequality is established beyond numerical uncertainty.
    """

    eta: float
    phi_i_value: float
    method: str
    error_estimate: float
    threshold: float
    margin: float
    passed: bool


def _integrand_polar(eta: float, rho, theta):
    """argsinh(cos(eta(2 rho - 1))) e^{-rho} cos(rho sin theta), elementwise."""
    return (
        np.arcsinh(np.cos(eta * (2.0 * rho - 1.0)))
        * np.exp(-rho)
        * np.cos(rho * np.sin(theta))
    )


def _solve(integrate, f, domain, pref, tail, tol) -> QuadResult:
    """pref times the integral of f over domain (the interval arguments of
    integrate) to tolerance tol in result units. The error estimate is pref
    times the quadrature's plus tail, a bound in result units on what the
    truncated domain leaves out."""
    # at an eta near the float maximum the phase overflows and its cosine is
    # NaN, which the quadrature reports as non-convergence in its first round,
    # so a numpy warning would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        r = integrate(f, *domain, tol / pref)
    return QuadResult(pref * r.value, pref * r.error_estimate + tail, r.evaluations)


def _cutoff_tail(bound: float, rate: float) -> float:
    """The integral over [_CUTOFF, inf) of bound e^{-rate rho}."""
    return bound * math.exp(-rate * _CUTOFF) / rate


def phi_i_polar(family: RotationFamily, tol: float = 1e-9) -> QuadResult:
    """Phi(i)/i as (2 sqrt2 / pi^2) times the polar double integral over
    [0, _CUTOFF] x [0, pi], with the radial tail charged to the error."""
    def f(rho, th):
        return _integrand_polar(family.eta, rho, th)

    # |integrand| <= argsinh(1) e^{-rho}, integrated over the theta range
    tail = _PREFACTOR * _cutoff_tail(_ASINH1 * math.pi, 1.0)
    domain = ((0.0, _CUTOFF), (0.0, math.pi))
    return _solve(integrate_2d, f, domain, _PREFACTOR, tail, tol)


def phi_i_cartesian(family: RotationFamily, tol: float = 1e-9) -> QuadResult:
    """Phi(i)/i as the plane integral of
    argsinh(cos(eps(x^2+y^2-2))) e^{-(x^2+y^2)/4} cos(xy/2) / (sqrt2 pi^2),
    folded to [0, _BOX]^2 (the integrand is even in x and in y separately)."""
    eps = family.epsilon

    def f(x, y):
        return (
            np.arcsinh(np.cos(eps * (x * x + y * y - 2.0)))
            * np.exp(-(x * x + y * y) / 4.0)
            * np.cos(x * y / 2.0)
        )

    # Gaussian tail outside the box, with the plane prefactor folded in;
    # _BOX = 14 puts this near 1e-22
    tail = 8.0 * _ASINH1 * math.sqrt(math.pi) / _BOX * math.exp(-_BOX * _BOX / 4.0)
    return _solve(integrate_2d, f, ((0.0, _BOX), (0.0, _BOX)), _PREFACTOR, tail, tol)


def _phi_i_bessel_each(etas, tol: float) -> list[QuadResult]:
    """phi_i_bessel at every eta of a sequence, one quadrature lane each,
    solved together: each result is the one phi_i_bessel gives alone, bit
    for bit."""
    eta = np.array(etas, dtype=float)

    def g(lane, rho):
        return (
            np.arcsinh(np.cos(eta[lane] * (2.0 * rho - 1.0)))
            * np.exp(-rho)
            * bessel_j0(rho)
        )

    def integrate(f, a, b, tol):
        return _integrate_lanes(f, a, b, tol, eta.size)

    # |arcsinh(cos)| <= argsinh(1) and |J0| <= 1
    tail = _PREFACTOR_BESSEL * _cutoff_tail(_ASINH1, 1.0)
    r = _solve(integrate, g, (0.0, _CUTOFF), _PREFACTOR_BESSEL, tail, tol)
    fields = (r.value.tolist(), r.error_estimate.tolist(), r.evaluations.tolist())
    return [QuadResult(*x) for x in zip(*fields)]


def phi_i_bessel(family: RotationFamily, tol: float = 1e-9) -> QuadResult:
    """Phi(i)/i as (2 sqrt2 / pi) times the 1D radial integral over
    [0, _CUTOFF] of argsinh(cos(eta(2 rho - 1))) e^{-rho} J0(rho); the theta
    integral collapses to pi J0(rho). The tail beyond _CUTOFF is charged to
    the error."""
    return _phi_i_bessel_each([family.eta], tol)[0]


def phi_real_t(family: RotationFamily, t: float, tol: float = 1e-9) -> QuadResult:
    """Phi(t) for real |t| < 1: (2/pi) times the integral of
    arcsin(t cos(eps(x^2+y^2-2))) against the t-correlated Gaussian density.
    In polar coordinates about the diagonals the angular integral is I0, so
    Phi(t) = 4 / (pi sqrt(1-t^2)) * int_0^inf arcsin(t cos(eta(2 rho - 1)))
    e^{-2 rho/(1+|t|)} e^{-x} I0(x) d rho, x = 2 |t| rho / (1-t^2). The
    tail beyond _CUTOFF is charged to the error."""
    if not abs(t) < 1:
        raise ValueError(f"need |t| < 1, got t={t}")
    omt2 = 1.0 - t * t
    scale = 2.0 * abs(t) / omt2
    rate = 2.0 / (1.0 + abs(t))
    pref = 4.0 / (math.pi * math.sqrt(omt2))
    eta = family.eta

    def g(rho):
        return (
            np.arcsin(t * np.cos(eta * (2.0 * rho - 1.0)))
            * np.exp(-rate * rho)
            * _bessel_i0e(scale * rho)
        )

    # |arcsin(t cos)| <= arcsin|t| and e^{-x} I0(x) <= 1
    tail = pref * _cutoff_tail(math.asin(abs(t)), rate)
    return _solve(integrate_1d, g, (0.0, _CUTOFF), pref, tail, tol)


_ROUTES = {
    "polar": phi_i_polar,
    "cartesian": phi_i_cartesian,
    "bessel": phi_i_bessel,
}
METHODS = tuple(_ROUTES)


def verify_theorem(
    family: RotationFamily, method: str = "bessel", tol: float = 1e-9
) -> VerificationReport:
    """Evaluate Phi(i)/i by the chosen route and check it clears THRESHOLD.

    passed = (margin > error_estimate); a false verdict is a result, not an
    error.
    """
    if method not in _ROUTES:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    r = _ROUTES[method](family, tol)
    margin = r.value - THRESHOLD
    return VerificationReport(
        eta=family.eta,
        phi_i_value=r.value,
        method=method,
        error_estimate=r.error_estimate,
        threshold=THRESHOLD,
        margin=margin,
        passed=margin > r.error_estimate,
    )
