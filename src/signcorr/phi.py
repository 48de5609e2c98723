"""Sign-correlation functional of the n=3 rotation family.

Phi(t) is the expected product of signs of F and G applied to coordinatewise
t-correlated Gaussian vectors, where the family mixes two coordinates by the
angle eps*(x^2 - 1) of a third. Phi(i)/i is real; this module evaluates it by
four independent routes and verifies that it clears the (2/pi) ln(1+sqrt 2)
threshold. On both axes the angular integral collapses to a Bessel kernel, J0
at t = i and I0 at real t, so one radial integral gives Phi(i)/i and Phi(t).
Three routes integrate by quadrature. The fourth, and phi_real_t, expand the
radial integrand's asinh or arcsin factor in odd cosine harmonics, each of
which has a closed-form Laplace transform against the Bessel kernel
(Gradshteyn-Ryzhik 6.611.1), so Phi is a finite sum of closed-form terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._common import METHODS, check_finite, check_tol
from .quad import _EPS, NonConvergenceError, QuadResult, integrate_1d, integrate_2d
from .specfun import bessel_j0

__all__ = [
    "THRESHOLD",
    "METHODS",
    "RotationFamily",
    "VerificationReport",
    "phi_i_polar",
    "phi_i_cartesian",
    "phi_i_bessel",
    "phi_i_fourier",
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
# |asinh(cos x)| on the strip |Im x| <= asinh 1, where |cos x| <= sqrt 2
_ASINH_STRIP_BOUND = math.hypot(math.asinh(math.sqrt(2.0)), math.pi / 2.0)
# the samples one harmonic sum may take: 2^20, the scale of the quadrature's
# 10^6 evaluations
_MAX_SAMPLES = 2**20
# the etas one harmonic sum takes at once, so its arrays hold at most this
# many rows of K terms, however many etas a grid has
_ETA_BLOCK = 512

# truncated domains: rho in [0, _CUTOFF] for the radial integrals, the square
# [-_BOX, _BOX]^2, folded to one quadrant, for the Cartesian route
_CUTOFF = 100.0
_BOX = 14.0


@dataclass(frozen=True)
class RotationFamily:
    """Family parameter eta; the mixing angle uses eps = eta/2."""

    eta: float

    def __post_init__(self):
        check_finite("eta", self.eta)

    @property
    def epsilon(self) -> float:
        return self.eta / 2.0


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a threshold verification at one eta.

    passed is True only when the margin clears the route's error estimate,
    i.e. the strict inequality is established beyond numerical uncertainty.
    """

    eta: float
    phi_i_value: float
    method: str
    error_estimate: float
    threshold: float
    margin: float
    passed: bool


def _radial(eta: float, rho):
    """The radial factor argsinh(cos(eta(2 rho - 1))) e^{-rho} that every
    quadrature route integrates against its own kernel, elementwise."""
    return np.arcsinh(np.cos(eta * (2.0 * rho - 1.0))) * np.exp(-rho)


def _integrand_polar(eta: float, rho, theta):
    """argsinh(cos(eta(2 rho - 1))) e^{-rho} cos(rho sin theta), elementwise."""
    return _radial(eta, rho) * np.cos(rho * np.sin(theta))


def _solve(integrate, f, domain, pref, tail, tol) -> QuadResult:
    """pref times the integral of f over domain (the interval arguments of
    integrate) to tolerance tol in result units. The error estimate is pref
    times the quadrature's plus tail, a bound in result units on what the
    truncated domain leaves out."""
    check_tol("tol", tol)
    # at an eta near the float maximum the phase overflows and its cosine is
    # NaN, which the quadrature reports as non-convergence in its first round,
    # so a numpy warning would only repeat it. tol / pref may overflow where
    # tol does not, and 1e308 already accepts every panel
    with np.errstate(over="ignore", invalid="ignore"):
        r = integrate(f, *domain, min(tol / pref, 1e308))
    return QuadResult(pref * r.value, pref * r.error_estimate + tail, r.evaluations)


def _cutoff_tail(bound: float, rate: float) -> float:
    """The integral over [_CUTOFF, inf) of bound e^{-rate rho}."""
    return bound * math.exp(-rate * _CUTOFF) / rate


def phi_i_polar(family: RotationFamily, tol: float = 1e-9) -> QuadResult:
    """Phi(i)/i as (2 sqrt2 / pi^2) times the polar double integral over
    [0, _CUTOFF] x [0, pi], with the radial tail charged to the error."""
    def f(rho, th):
        return _integrand_polar(family.eta, rho, th)

    # pi argsinh(1) e^{-rho} bounds the theta integral, as in the Bessel route
    tail = _PREFACTOR_BESSEL * _cutoff_tail(_ASINH1, 1.0)
    domain = ((0.0, _CUTOFF), (0.0, math.pi))
    return _solve(integrate_2d, f, domain, _PREFACTOR, tail, tol)


def phi_i_cartesian(family: RotationFamily, tol: float = 1e-9) -> QuadResult:
    """Phi(i)/i as the plane integral of
    argsinh(cos(eta(2 rho - 1))) e^{-rho} cos(xy/2) / (sqrt2 pi^2),
    rho = (x^2+y^2)/4, folded to [0, _BOX]^2 (the integrand is even in x
    and in y separately)."""
    eta = family.eta

    def f(x, y):
        return _radial(eta, (x * x + y * y) / 4.0) * np.cos(x * y / 2.0)

    # Gaussian tail outside the box, with the plane prefactor folded in;
    # _BOX = 14 puts this near 1e-22
    tail = 8.0 * _ASINH1 * math.sqrt(math.pi) / _BOX * math.exp(-_BOX * _BOX / 4.0)
    return _solve(integrate_2d, f, ((0.0, _BOX), (0.0, _BOX)), _PREFACTOR, tail, tol)


def phi_i_bessel(family: RotationFamily, tol: float = 1e-9) -> QuadResult:
    """Phi(i)/i as (2 sqrt2 / pi) times the 1D radial integral over
    [0, _CUTOFF] of argsinh(cos(eta(2 rho - 1))) e^{-rho} J0(rho); the theta
    integral collapses to pi J0(rho). The tail beyond _CUTOFF is charged to
    the error."""
    eta = family.eta

    def g(rho):
        return _radial(eta, rho) * bessel_j0(rho)

    # |arcsinh(cos)| <= argsinh(1) and |J0| <= 1
    tail = _PREFACTOR_BESSEL * _cutoff_tail(_ASINH1, 1.0)
    return _solve(integrate_1d, g, (0.0, _CUTOFF), _PREFACTOR_BESSEL, tail, tol)


def _fourier_laplace(g, bound, q, etas, p, s, pref, tol) -> list[QuadResult]:
    """pref * sum_k c_k Re[e^{-i w_k} / (sqrt(p - 2i w_k) sqrt(s - 2i w_k))],
    w_k = (2k+1) eta, at every eta of etas, over the cosine coefficients c_k
    of the odd harmonics 2k+1 of f(x) = g(cos x)[0], an even function with
    only odd harmonics. g(u) returns f and |df/du| at the points u.

    f extends to the strip |Im x| <= a with |f| <= bound there and q = e^{-a},
    so |c_m| <= 2 bound q^m, and the n-point trapezoid rule gets c_m within
    4 bound cosh(m a) / (e^{a n} - 1) (Trefethen and Weideman, SIAM Review
    2014). pref times each Laplace factor is at most lmax = pref / sqrt|p s|
    in modulus, as |(p - 2iw)(s - 2iw)| >= |p s| for both uses. The harmonic
    count K leaves a tail of at most tol/2, and n, a power of two, aliases at
    most tol/2; the error estimate adds both to a rounding bound. evaluations
    counts the n samples, at most _MAX_SAMPLES. None of K, n, the c_k or
    their rounding depends on eta, so one FFT serves every eta. The etas are
    summed _ETA_BLOCK at a time as rows of one array, each row by the same
    operations as an eta alone, so each eta's result is the one it gets
    alone, bit for bit, whatever the block size.
    """
    check_tol("tol", tol)
    lmax = pref / math.sqrt(abs(p * s))
    scale = 2.0 * bound * lmax  # term m is at most scale q^m
    qq = q * q
    # the smallest K whose tail, scale q^{2K+1} / (1 - q^2), is at most tol/2
    room = tol * (1.0 - qq) / (2.0 * scale)
    k = 1
    if q > 0.0 and room < 1.0:
        k = max(1, math.ceil((math.log(room) / math.log(q) - 1.0) / 2.0))
    tail = scale * q ** (2 * k + 1) / (1.0 - qq)
    n = 8
    while True:
        if n >= 4 * k - 2:  # harmonic 2K-1 is at most n/2
            alias = (
                scale * (q ** (n - 2 * k + 1) + q ** (n + 1)) * (1.0 - qq**k)
                / ((1.0 - qq) * (1.0 - q**n))
            )
            if alias <= tol / 2.0:
                break
        if n >= _MAX_SAMPLES:
            raise NonConvergenceError(
                f"the harmonic sum at tol={tol} needs more than {_MAX_SAMPLES} "
                f"samples ({k} harmonics, decay {q!r})"
            )
        n *= 2
    eta = max(etas, key=abs)
    # the Laplace factor is about -2i w_k, so 2 w_k (and w_k) must be finite
    if not math.isfinite(2.0 * (2 * k - 1) * eta):
        raise NonConvergenceError(
            f"the Laplace factor, about 2 (2k+1) eta, overflows for some k < {k} "
            f"at eta={eta!r}"
        )

    x = np.arange(n) * (2.0 * math.pi / n)
    f, slope = g(np.cos(x))
    c = np.fft.rfft(f)[1 : 2 * k : 2].real * (2.0 / n)

    # Rounding. A sample is within eps (2 pi + 3 |df/du| + 2 |f|): x_j within
    # 2 pi eps with |df/dx| <= 1, cos x_j and its product with |t| within
    # 3 eps, f within 2 ulps. Over the K coefficients used, the samples'
    # errors and the FFT's, within 7 log2(n) eps of its 2-norm (Higham,
    # Accuracy and Stability, Thm 24.2), add at most 2 sqrt(K/n) times their
    # 2-norms (Cauchy-Schwarz). Each term is within 16 ulps of its modulus,
    # plus the rounding of w_k times |d/dw log(e^{-iw} lap)| <= 3, and fsum
    # within one ulp of the value.
    df = _EPS * (2.0 * math.pi + 3.0 * slope + 2.0 * np.abs(f))
    coef_err = 2.0 * math.sqrt(k / n) * (
        math.sqrt(df @ df) + 7.0 * math.log2(n) * _EPS * math.sqrt(f @ f)
    )
    harmonics = np.arange(1, 2 * k, 2)
    results = []
    # memory is bounded by one block. Each row keeps its eta's bits alone:
    # fsum of the same terms, and a BLAS ddot per row by np.vecdot, as 1-D @
    # takes; a pairwise sum(axis=1) or einsum would move the last bits
    for b in range(0, len(etas), _ETA_BLOCK):
        w = harmonics * np.array(etas[b : b + _ETA_BLOCK])[:, None]
        lap = pref / (np.sqrt(p - 2j * w) * np.sqrt(s - 2j * w))
        terms = c * (np.exp(-1j * w) * lap).real
        dots = np.vecdot(np.abs(c * lap), 16.0 + 2.0 * np.abs(w))
        for row, dot in zip(terms.tolist(), dots.tolist()):
            value = math.fsum(row)
            rounding = lmax * coef_err + _EPS * dot + _EPS * abs(value)
            results.append(QuadResult(value, tail + alias + rounding, n))
    return results


def _phi_i_fourier_each(etas, tol: float) -> list[QuadResult]:
    """phi_i_fourier at every eta of a sequence, all from one set of
    coefficients: each result is the one phi_i_fourier gives at that eta
    alone, bit for bit."""

    def g(u):
        return np.arcsinh(u), 1.0 / np.sqrt(1.0 + u * u)

    return _fourier_laplace(
        g, _ASINH_STRIP_BOUND, math.sqrt(2.0) - 1.0, etas,
        1.0 - 1.0j, 1.0 + 1.0j, _PREFACTOR_BESSEL, tol,
    )


def phi_i_fourier(family: RotationFamily, tol: float = 1e-9) -> QuadResult:
    """Phi(i)/i as the closed-form sum

        (2 sqrt2 / pi) sum_k b_k Re[e^{-i w_k} / sqrt((1 - 2i w_k)^2 + 1)],

    w_k = (2k+1) eta, over the odd harmonics b_k of asinh(cos x): the Laplace
    transform of phi_i_bessel's radial integral, term by term, with no
    quadrature, no cutoff and no J0. asinh(cos x) is analytic on
    |Im x| < asinh 1, where |cos x| <= sqrt2 and |asinh w| <=
    hypot(asinh |w|, pi/2). The square root is taken as the product of
    sqrt(1 - i - 2i w) and sqrt(1 + i - 2i w)."""
    return _phi_i_fourier_each([family.eta], tol)[0]


def phi_real_t(family: RotationFamily, t: float, tol: float = 1e-9) -> QuadResult:
    """Phi(t) for real |t| < 1. Phi(t) = 4 / (pi sqrt(1-t^2)) times the
    integral over rho > 0 of arcsin(t cos(eta(2 rho - 1))) e^{-2 rho/(1-t^2)}
    I0(2 |t| rho / (1-t^2)); in odd harmonics beta_k of arcsin(|t| cos x) it is

        4 / (pi sqrt(1-t^2)) sum_k beta_k Re[e^{-i w_k} /
            (sqrt(2/(1+|t|) - 2i w_k) sqrt(2/(1-|t|) - 2i w_k))],

    w_k = (2k+1) eta, the sign of t applied last, so Phi(-t) = -Phi(t) bit
    for bit. The two square roots are the factors of the I0 transform's
    sqrt(s^2 - c^2), whose difference of squares would cancel near |t| = 1.
    |arcsin w| <= arcsin |w| <= pi/2 on |Im x| <= acosh(1/|t|), so
    |beta_m| <= pi r^m with r = |t| / (1 + sqrt(1-t^2))."""
    if not abs(t) < 1:
        raise ValueError(f"need |t| < 1, got t={t}")
    a = abs(t)
    sigma = math.sqrt((1.0 - a) * (1.0 + a))

    def g(u):
        w = a * u
        return np.arcsin(w), a / np.sqrt((1.0 - w) * (1.0 + w))

    (r,) = _fourier_laplace(
        g, math.pi / 2.0, a / (1.0 + sigma), [family.eta],
        2.0 / (1.0 + a), 2.0 / (1.0 - a), 4.0 / (math.pi * sigma), tol,
    )
    return QuadResult(math.copysign(1.0, t) * r.value, r.error_estimate, r.evaluations)


_ROUTES = dict(
    zip(METHODS, (phi_i_polar, phi_i_cartesian, phi_i_bessel, phi_i_fourier), strict=True)
)


def verify_theorem(
    family: RotationFamily, method: str = "bessel", tol: float = 1e-9
) -> VerificationReport:
    """Evaluate Phi(i)/i by the chosen route and check it clears THRESHOLD.

    passed = (margin > error_estimate), the route's error estimate; a false
    verdict is a result, not an error.
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
