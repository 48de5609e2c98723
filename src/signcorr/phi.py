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

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._common import METHODS, check_finite, check_tol
from .quad import _EPS, NonConvergenceError, QuadResult
from .quad import integrate_1d, integrate_2d
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

# the largest truncated domains: rho in [0, _CUTOFF] for the radial
# integrals, the square [-_BOX, _BOX]^2, folded to one quadrant, for the
# Cartesian route. Each route integrates over the least domain whose tail
# bound is at most _TAIL_SHARE of tol (_domains), within these caps
_CUTOFF = 100.0
_BOX = 14.0
# the share of tol the truncation may take: three orders below the request,
# so the quadrature's own estimate still dominates the error
_TAIL_SHARE = 1e-3


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


def _trapezoid(rho, h: int):
    """At each node, the 2h-point trapezoid sum of int_0^pi cos(rho sin
    theta) dtheta (= pi J0(rho)), from its h + 1 distinct points theta_j =
    j pi / 2h: theta and pi - theta give the same sine, so the sum is pi / h
    times the sum over j, less half the ends theta = 0 (cosine 1) and pi/2.
    Each row is summed on its own, so a node's bits do not depend on the
    other nodes.

    The integrand has period pi and is entire, and on |Im theta| <= asinh 1
    it is at most cosh(rho sinh asinh 1) = cosh(rho). So the sum is within
    2 pi cosh(rho) / (e^{4 h asinh 1} - 1) + pi eps (h + 9 rho + 9) of
    pi J0(rho): the first term the rule's (Trefethen and Weideman, SIAM
    Review 2014, Thm 3.2, on the period), the second its rounding. With each
    sine and cosine within 2 ulps, theta_j, its sine and rho times that are
    within 4 eps relative, so each cosine is within eps (4 rho + 2), and the
    h weights of pi / h carry that as pi eps (4 rho + 2). The row sum, in
    any order, errs by at most h eps/2 times its h + 1 terms' moduli, pi eps
    (h + 1) / 2 after scaling; the ends, the subtraction and the scaling by
    a rounded pi / h add at most pi eps (4 + 1/h). In all at most
    pi eps (4 rho + h/2 + 7)."""
    v = np.cos(rho[:, None] * np.sin(np.arange(h + 1) * math.pi / (2 * h)))
    return (v.sum(axis=1) - 0.5 * (1.0 + v[:, h])) * (math.pi / h)


def _trapezoid_count(tol: float, cutoff: float) -> int:
    """The polar route's one trapezoid count at tol and cutoff C: the least
    h >= 1 with asinh(1) 2 pi / (e^{4 asinh(1) h} - 1) <= tau =
    tol / (2 pref C), which is 4 asinh(1) h >= log(1 + X) for
    X = 2 pi asinh(1) / tau. In logs, as _domains takes its rule, so a
    subnormal tol gives a finite h: 8 at tol 1e-9, 213 at 5e-324."""
    log_x = math.log(4.0 * math.pi * _ASINH1 * _PREFACTOR * cutoff) - math.log(tol)
    log1p_x = max(log_x, 0.0) + math.log1p(math.exp(-abs(log_x)))
    return max(1, math.ceil(log1p_x / (4.0 * _ASINH1)))


def _solve(integrate, f, domain, pref, tail, tol) -> QuadResult:
    """pref times the integral of f over domain (the interval arguments of
    integrate) to tolerance tol in result units. The error estimate is pref
    times the quadrature's, plus tail, a bound in result units on what the
    truncated domain leaves out."""
    check_tol("tol", tol)
    # at an eta near the float maximum the phase overflows and its cosine is
    # NaN, which the quadrature reports as non-convergence in its first round,
    # so a numpy warning would only repeat it. tol / pref may overflow where
    # tol does not, and 1e308 already accepts every panel
    with np.errstate(over="ignore", invalid="ignore"):
        r = integrate(f, *domain, min(tol / pref, 1e308))
    return QuadResult(pref * r.value, pref * r.error_estimate + tail, r.evaluations)


def _cutoff_tail(bound: float, rate: float, cutoff: float) -> float:
    """The integral over [cutoff, inf) of bound e^{-rate rho}."""
    return bound * math.exp(-rate * cutoff) / rate


def _radial_tail(cutoff: float) -> float:
    """The Bessel and polar routes' bound on rho > cutoff: |argsinh(cos)| <=
    argsinh(1), and pi |J0| <= pi bounds the theta integral."""
    return _PREFACTOR_BESSEL * _cutoff_tail(_ASINH1, 1.0, cutoff)


def _box_tail(box: float) -> float:
    """The Cartesian route's bound on the plane outside [-box, box]^2, with
    the plane prefactor folded in: the Gaussian tail of |argsinh(cos)|
    e^{-rho} <= argsinh(1) e^{-(x^2+y^2)/4} beyond |x| or |y| = box."""
    return 8.0 * _ASINH1 * math.sqrt(math.pi) / box * math.exp(-box * box / 4.0)


def _domains(tol: float) -> tuple[float, float]:
    """The radial cutoff C and the Cartesian half-side B at tol: the least
    at which the tail bound, for B its form without the factor 1/B, is at
    most tol * _TAIL_SHARE, capped at _CUTOFF and _BOX (read at call time)
    and floored at 1.

    _radial_tail(C) = pref asinh(1) e^{-C}, so C = log(pref asinh(1) /
    (tol share)). For B >= 1, _box_tail(B) <= 8 asinh(1) sqrt(pi)
    e^{-B^2/4}, so B = 2 sqrt(log(8 asinh(1) sqrt(pi) / (tol share))). At
    tol 1e-9 they are 27.40 and 10.98. The caps bind below tol 3e-41 and
    7e-18. The floor keeps a domain, and B >= 1, above tol 292 and 9,733,
    where the rule would give less; there the tail at 1, charged in full,
    exceeds tol * _TAIL_SHARE."""
    log_room = math.log(tol) + math.log(_TAIL_SHARE)  # tol may be subnormal
    c = math.log(_PREFACTOR_BESSEL * _ASINH1) - log_room
    b = 2.0 * math.sqrt(max(0.0, math.log(8.0 * _ASINH1 * math.sqrt(math.pi)) - log_room))
    return min(_CUTOFF, max(1.0, c)), min(_BOX, max(1.0, b))


def phi_i_polar(family: RotationFamily, tol: float = 1e-9) -> QuadResult:
    """Phi(i)/i as (2 sqrt2 / pi^2) times the polar double integral over
    [0, C] x [0, pi] of argsinh(cos(eta(2 rho - 1))) e^{-rho}
    cos(rho sin theta), C the cutoff of _domains at tol, with the radial tail
    charged to the error.

    The outer rho-integral is adaptive, by integrate_1d at tol/2. At each of
    its nodes the inner theta-integral, pi J0(rho), is the periodic
    trapezoid sum of _trapezoid, one count h for the whole solve, set from
    tol before any evaluation (_trapezoid_count). The radial factor is at
    most asinh(1) e^{-rho}, and e^{-rho} cosh(rho) <= 1, so asinh(1)
    e^{-rho} times each node's rule error is at most tau = tol / (2 pref C),
    and its rounding at most asinh(1) pi eps (h + 9). The K15 weights are
    positive and sum to C, so the inner sums add at most tol/2 plus
    pref C asinh(1) pi eps (h + 9) to the result, which the error estimate
    adds to the outer solve's. evaluations counts the distinct inner points,
    h + 1 at each outer node, which integrate_1d's budget bounds."""
    check_tol("tol", tol)
    eta = family.eta
    cutoff, _ = _domains(tol)
    h = _trapezoid_count(tol, cutoff)

    def f(rho):
        return _radial(eta, rho) * _trapezoid(rho, h)

    # halved after _solve divides by pref: tol/2 is 0 at the least subnormal
    r = _solve(
        lambda g, a, b, t: integrate_1d(g, a, b, t / 2.0),
        f, (0.0, cutoff), _PREFACTOR, _radial_tail(cutoff), tol,
    )
    charge = 0.5 * tol + _PREFACTOR * cutoff * _ASINH1 * math.pi * _EPS * (h + 9)
    return QuadResult(r.value, r.error_estimate + charge, (h + 1) * r.evaluations)


def phi_i_cartesian(family: RotationFamily, tol: float = 1e-9) -> QuadResult:
    """Phi(i)/i as the plane integral of
    argsinh(cos(eta(2 rho - 1))) e^{-rho} cos(xy/2) / (sqrt2 pi^2),
    rho = (x^2+y^2)/4, folded to [0, B]^2 (the integrand is even in x and in
    y separately), B the half-side of _domains at tol, with the Gaussian
    tail outside the square charged to the error."""
    check_tol("tol", tol)
    eta = family.eta

    def f(x, y):
        return _radial(eta, (x * x + y * y) / 4.0) * np.cos(x * y / 2.0)

    _, box = _domains(tol)
    return _solve(
        integrate_2d, f, ((0.0, box), (0.0, box)), _PREFACTOR, _box_tail(box), tol
    )


def phi_i_bessel(family: RotationFamily, tol: float = 1e-9) -> QuadResult:
    """Phi(i)/i as (2 sqrt2 / pi) times the 1D radial integral over [0, C]
    of argsinh(cos(eta(2 rho - 1))) e^{-rho} J0(rho), C the cutoff of
    _domains at tol; the theta integral collapses to pi J0(rho). The tail
    beyond C is charged to the error."""
    check_tol("tol", tol)
    eta = family.eta

    def g(rho):
        return _radial(eta, rho) * bessel_j0(rho)

    cutoff, _ = _domains(tol)
    return _solve(
        integrate_1d, g, (0.0, cutoff), _PREFACTOR_BESSEL, _radial_tail(cutoff), tol
    )


def _harmonics(g, bound, q, p, s, pref, tol):
    """The sum pref * sum_k c_k Re[e^{-i w_k} / (sqrt(p - 2i w_k)
    sqrt(s - 2i w_k))], w_k = (2k+1) eta, over the cosine coefficients c_k
    of the odd harmonics 2k+1 of f(x) = g(cos x)[0], an even function with
    only odd harmonics, as sums(etas) -> (values, errors, n): its value and
    error estimate at each eta, and n, the samples it took, which
    evaluations reports. g(u) returns f and |df/du| at the points u.

    f extends to the strip |Im x| <= a with |f| <= bound there and q = e^{-a},
    so |c_m| <= 2 bound q^m, and the n-point trapezoid rule gets c_m within
    4 bound cosh(m a) / (e^{a n} - 1) (Trefethen and Weideman, SIAM Review
    2014). pref times each Laplace factor is at most lmax = pref / sqrt|p s|
    in modulus, as |(p - 2iw)(s - 2iw)| >= |p s| for both uses. The harmonic
    count K leaves a tail of at most tol/2, and n, a power of two, aliases at
    most tol/2. n is at most _MAX_SAMPLES. None of K, n, the c_k or their
    rounding depends on eta, so they are computed once, here, for every eta.
    Each estimate adds the tail and aliasing to a rounding bound: the c_k's
    rounding carried through lmax, each term within 16 ulps of its modulus
    plus the rounding of w_k times |d/dw log(e^{-iw} lap)| <= 3, and fsum
    within one ulp of the value. sums takes the etas _ETA_BLOCK at a time as
    rows of one array, each row by the same operations as an eta alone, so
    each eta's result is the one it gets alone, bit for bit, whatever the
    block size.
    """
    check_tol("tol", tol)
    lmax = pref / math.sqrt(abs(p * s))
    scale = 2.0 * bound * lmax  # term m is at most scale q^m
    qq = q * q
    # the smallest K whose tail, scale q^{2K+1} / (1 - q^2), is at most tol/2,
    # with log(tol (1 - q^2) / (2 scale)) as a sum of logs: tol may be subnormal
    log_room = math.log(tol) + math.log(1.0 - qq) - math.log(2.0 * scale)
    k = 1
    if q > 0.0 and log_room < 0.0:
        k = max(1, math.ceil((log_room / math.log(q) - 1.0) / 2.0))
    tail = scale * q ** (2 * k + 1) / (1.0 - qq)
    n = 8
    while True:
        if n >= 4 * k - 2:  # harmonic 2K-1 is at most n/2
            alias = (
                scale * (q ** (n - 2 * k + 1) + q ** (n + 1)) * (1.0 - qq**k)
                / ((1.0 - qq) * (1.0 - q**n))
            )
            if 2.0 * alias <= tol:  # tol / 2 is 0 at the least subnormal
                break
        if n >= _MAX_SAMPLES:
            raise NonConvergenceError(
                f"the harmonic sum at tol={tol} needs more than {_MAX_SAMPLES} "
                f"samples ({k} harmonics, decay {q!r})"
            )
        n *= 2

    x = np.arange(n) * (2.0 * math.pi / n)
    f, slope = g(np.cos(x))
    c = np.fft.rfft(f)[1 : 2 * k : 2].real * (2.0 / n)

    # Rounding. A sample is within eps (2 pi + 3 |df/du| + 2 |f|): x_j within
    # 2 pi eps with |df/dx| <= 1, cos x_j and its product with |t| within
    # 3 eps, f within 2 ulps. Over the K coefficients used, the samples'
    # errors and the FFT's, within 7 log2(n) eps of its 2-norm (Higham,
    # Accuracy and Stability, Thm 24.2), add at most 2 sqrt(K/n) times their
    # 2-norms (Cauchy-Schwarz).
    df = _EPS * (2.0 * math.pi + 3.0 * slope + 2.0 * np.abs(f))
    coef_err = lmax * (2.0 * math.sqrt(k / n) * (
        math.sqrt(df @ df) + 7.0 * math.log2(n) * _EPS * math.sqrt(f @ f)
    ))
    bounds = tail + alias
    harmonics = np.arange(1, 2 * k, 2)

    def sums(etas) -> tuple[list[float], list[float], int]:
        eta = max(etas, key=abs)
        # the Laplace factor is about -2i w_k, so 2 w_k (and w_k) must be finite
        if not math.isfinite(2.0 * (2 * k - 1) * eta):
            raise NonConvergenceError(
                f"the Laplace factor, about 2 (2k+1) eta, overflows for some "
                f"k < {k} at eta={eta!r}"
            )
        values, errors = [], []
        # memory is bounded by one block. Each row keeps its eta's bits
        # alone: fsum of the same terms, and a BLAS ddot per row by
        # np.vecdot, as 1-D @ takes; a pairwise sum(axis=1) or einsum would
        # move the last bits. The error terms add as a lone eta's do,
        # elementwise
        for b in range(0, len(etas), _ETA_BLOCK):
            w = harmonics * np.array(etas[b : b + _ETA_BLOCK])[:, None]
            lap = pref / (np.sqrt(p - 2j * w) * np.sqrt(s - 2j * w))
            terms = c * (np.exp(-1j * w) * lap).real
            dots = np.vecdot(np.abs(c * lap), 16.0 + 2.0 * np.abs(w))
            block = list(map(math.fsum, terms.tolist()))
            rounding = coef_err + _EPS * dots + _EPS * np.abs(block)
            values += block
            errors += (bounds + rounding).tolist()
        return values, errors, n

    return sums


# Phi(i)/i's sum as _harmonics takes it, g, bound, q, p, s and pref: asinh(cos
# x) on |Im x| <= asinh 1, and the factors of sqrt((1 - 2i w)^2 + 1)
_PHI_I_SUM = (
    lambda u: (np.arcsinh(u), 1.0 / np.sqrt(1.0 + u * u)),
    _ASINH_STRIP_BOUND, math.sqrt(2.0) - 1.0, 1.0 - 1.0j, 1.0 + 1.0j, _PREFACTOR_BESSEL,
)


@functools.lru_cache(maxsize=8)
def _phi_i_harmonics(tol: float):
    """Phi(i)/i's sum at tol as a function of its etas, computed on first use
    and kept per process for the eight tolerances used last: its harmonics
    do not depend on eta."""
    return _harmonics(*_PHI_I_SUM, tol)


def _phi_i_fourier_each(etas, tol: float) -> tuple[list[float], list[float], int]:
    """phi_i_fourier's values and error estimates at every eta of a sequence,
    and its evaluations, all from one set of harmonics: each is the one
    phi_i_fourier gives at that eta alone, bit for bit."""
    check_tol("tol", tol)  # before float(tol), which takes a string
    return _phi_i_harmonics(float(tol))(etas)


def phi_i_fourier(family: RotationFamily, tol: float = 1e-9) -> QuadResult:
    """Phi(i)/i as the closed-form sum

        (2 sqrt2 / pi) sum_k b_k Re[e^{-i w_k} / sqrt((1 - 2i w_k)^2 + 1)],

    w_k = (2k+1) eta, over the odd harmonics b_k of asinh(cos x): the Laplace
    transform of phi_i_bessel's radial integral, term by term, with no
    quadrature, no cutoff and no J0. asinh(cos x) is analytic on
    |Im x| < asinh 1, where |cos x| <= sqrt2 and |asinh w| <=
    hypot(asinh |w|, pi/2). The square root is taken as the product of
    sqrt(1 - i - 2i w) and sqrt(1 + i - 2i w). The b_k at each tol are
    computed once per process."""
    (value,), (err,), n = _phi_i_fourier_each([family.eta], tol)
    return QuadResult(value, err, n)


def _phi_real_t_sum(a: float) -> tuple:
    """Phi(|t|)'s sum as _harmonics takes it, g, bound, q, p, s and pref, at
    a = |t| < 1."""
    sigma = math.sqrt((1.0 - a) * (1.0 + a))

    def g(u):
        w = a * u
        return np.arcsin(w), a / np.sqrt((1.0 - w) * (1.0 + w))

    return (
        g, math.pi / 2.0, a / (1.0 + sigma),
        2.0 / (1.0 + a), 2.0 / (1.0 - a), 4.0 / (math.pi * sigma),
    )


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
    |beta_m| <= pi r^m with r = |t| / (1 + sqrt(1-t^2)). The beta_k depend
    on t, so each call computes its own."""
    if not abs(t) < 1:
        raise ValueError(f"need |t| < 1, got t={t}")
    sums = _harmonics(*_phi_real_t_sum(abs(t)), tol)
    (value,), (err,), n = sums([family.eta])
    return QuadResult(math.copysign(1.0, t) * value, err, n)


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
