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
from .quad import _EPS, NonConvergenceError, QuadResult, _Budget
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

# the inner points the polar route's outer nodes may take together
_POLAR_MAX_EVALS = 10**7

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


@functools.cache
def _strips():
    """The strip half-widths a = 1/8 .. 8 over which the polar route's inner
    point counts are least, as a column, and sinh a: built on first use, so
    that importing the module builds no array."""
    a = 2.0 ** np.arange(-3.0, 4.0)[:, None]
    return a, np.sinh(a)


def _trapezoid_counts(rho, log_target):
    """Per node, the least even M >= 2 for which the M-point trapezoid sum
    of int_0^pi cos(rho sin theta) dtheta (= pi J0(rho)) errs by at most
    e^log_target, as M/2, and the log of the bound on its error at that M.

    The integrand has period pi and is entire; on |Im theta| <= a it is at
    most cosh(rho sinh a). So M points err by at most
    2 pi cosh(rho sinh a) / (e^{2aM} - 1) (Trefethen and Weideman, SIAM
    Review 2014, Thm 3.2, on the period), and M is the least over the strips
    a of _strips(), as is the bound at that M. All in log space: cosh
    overflows at rho = 100. Both are functions of each node's rho and target
    alone."""
    a, sinh_a = _strips()
    x = sinh_a * rho  # rho sinh a, one row per strip
    log_size = math.log(math.pi) + x + np.log1p(np.exp(-2.0 * x))  # 2 pi cosh x
    # e^{2aM} - 1 >= X, X = e^need, is 2aM >= log(1 + X)
    need = log_size - log_target
    h = np.maximum(np.ceil(np.logaddexp(0.0, need) / (4.0 * a)).min(axis=0), 1.0)
    y = 4.0 * a * h
    log_bound = (log_size - y - np.log(-np.expm1(-y))).min(axis=0)
    return h.astype(np.int64), log_bound


def _trapezoid(rho, h):
    """Per node, the 2h-point trapezoid sum of int_0^pi cos(rho sin theta)
    dtheta, from its h + 1 distinct points theta_j = j pi / 2h: theta and
    pi - theta give the same sine, so the sum is pi / h times the sum over
    j, less half the ends theta = 0 (cosine 1) and pi/2. Each node's sum
    comes from its own points alone, in one order, so its bits do not depend
    on the other nodes."""
    ends = np.cumsum(h + 1)
    j = np.arange(ends[-1]) - np.repeat(ends - h - 1, h + 1)
    step = (0.5 * math.pi) / h
    v = np.cos(np.repeat(rho, h + 1) * np.sin(j * np.repeat(step, h + 1)))
    return (np.add.reduceat(v, ends - h - 1) - 0.5 * (1.0 + v[ends - 1])) * (2.0 * step)


def _solve(integrate, f, domain, pref, tail, tol, inner=None) -> QuadResult:
    """pref times the integral of f over domain (the interval arguments of
    integrate) to tolerance tol in result units. The error estimate is pref
    times the quadrature's, plus tail, a bound in result units on what the
    truncated domain leaves out. An f that sums an inner integral at each of
    its nodes, sized for tol/2, passes inner; the quadrature then gets the
    other tol/2, and inner returns after the solve a bound in f's units on
    what those sums' errors add to it, charged with pref, and the sums'
    evaluations, which the result reports in place of the nodes."""
    check_tol("tol", tol)
    # at an eta near the float maximum the phase overflows and its cosine is
    # NaN, which the quadrature reports as non-convergence in its first round,
    # so a numpy warning would only repeat it. tol / pref may overflow where
    # tol does not, and 1e308 already accepts every panel
    with np.errstate(over="ignore", invalid="ignore"):
        r = integrate(f, *domain, min(tol / pref * (0.5 if inner else 1.0), 1e308))
    bound, evaluations = inner() if inner else (0.0, r.evaluations)
    return QuadResult(
        pref * r.value, pref * (r.error_estimate + bound) + tail, evaluations
    )


def _cutoff_tail(bound: float, rate: float) -> float:
    """The integral over [_CUTOFF, inf) of bound e^{-rate rho}."""
    return bound * math.exp(-rate * _CUTOFF) / rate


def _radial_tail() -> float:
    """The Bessel and polar routes' bound on rho > _CUTOFF, read at call time:
    |argsinh(cos)| <= argsinh(1), and pi |J0| <= pi bounds the theta integral."""
    return _PREFACTOR_BESSEL * _cutoff_tail(_ASINH1, 1.0)


def phi_i_polar(family: RotationFamily, tol: float = 1e-9) -> QuadResult:
    """Phi(i)/i as (2 sqrt2 / pi^2) times the polar double integral over
    [0, _CUTOFF] x [0, pi] of argsinh(cos(eta(2 rho - 1))) e^{-rho}
    cos(rho sin theta), with the radial tail charged to the error.

    The outer rho-integral is adaptive, by integrate_1d at tol/2. At each of
    its nodes the inner theta-integral, pi J0(rho), is a periodic trapezoid
    sum of M = 2h points (_trapezoid), h set before any evaluation
    (_trapezoid_counts) so that the sum's bound B times asinh(1) e^{-rho},
    which bounds the radial factor, is at most tau = tol / (2 pref _CUTOFF).
    Each node's sum is within B + pi eps (h + 9 rho + 9) of pi J0(rho), the
    second term its rounding, with each sine and cosine within 2 ulps. The
    K15 weights are positive and sum to each panel's width, so the outer sum
    carries at most _CUTOFF times the largest asinh(1) e^{-rho} times that,
    over the nodes evaluated: a bound of at most tol/2 plus the rounding,
    which the error estimate adds to the outer K15-G7 estimate. evaluations
    counts the distinct inner points, h + 1 per outer node, summed over the
    outer nodes. There may be at most _POLAR_MAX_EVALS: an outer integrand
    call that would pass that raises NonConvergenceError before it is
    evaluated."""
    check_tol("tol", tol)
    eta = family.eta
    # log(tau / asinh 1): a node's target is tau e^rho / asinh 1
    log_tau = math.log(min(tol / _PREFACTOR, 1e308)) - math.log(2.0 * _CUTOFF * _ASINH1)
    budget, worst, most_h = _Budget(_POLAR_MAX_EVALS), -math.inf, 0

    def f(rho):
        nonlocal worst, most_h
        h, log_bound = _trapezoid_counts(rho, log_tau + rho)
        budget.spend(int(h.sum()) + h.size, 0.0, _CUTOFF, tol)
        worst = max(worst, float((log_bound - rho).max()))
        most_h = max(most_h, int(h.max()))
        return _radial(eta, rho) * _trapezoid(rho, h)

    def inner():
        # the largest e^{-rho} B, and e^{-rho} (h + 9 rho + 9) <= h + 9, each
        # a maximum over the nodes, so neither depends on how they were split
        most = math.exp(worst) + math.pi * _EPS * (most_h + 9)
        return _CUTOFF * _ASINH1 * most, budget.spent

    return _solve(
        integrate_1d, f, (0.0, _CUTOFF), _PREFACTOR, _radial_tail(), tol, inner=inner
    )


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

    return _solve(
        integrate_1d, g, (0.0, _CUTOFF), _PREFACTOR_BESSEL, _radial_tail(), tol
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
