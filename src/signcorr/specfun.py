"""Scalar special functions: probabilists' Hermite polynomials, arcsin
Maclaurin coefficients and the Bessel function J0.

Everything here is pure and re-entrant; array inputs are handled elementwise.
"""

from __future__ import annotations

import math

import numpy as np

from ._common import is_count

__all__ = ["hermite_prob", "arcsin_coeff", "bessel_j0"]

_ARCSIN_COEFF_MAX = 64


def _arcsin_table(nmax: int) -> tuple[float, ...]:
    # a_{j+1}/a_j = (2j+1)^2 / ((2j+2)(2j+3)) keeps everything in range;
    # raw factorials overflow doubles near j = 85 and lose accuracy long before.
    vals = [1.0]
    a = 1.0
    for j in range(nmax):
        a *= (2 * j + 1) ** 2 / ((2 * j + 2) * (2 * j + 3))
        vals.append(a)
    return tuple(vals)


_ARCSIN_COEFFS = _arcsin_table(_ARCSIN_COEFF_MAX)


def hermite_prob(m: int, x):
    """Evaluate the probabilists' Hermite polynomial He_m at x.

    Uses He_0 = 1, He_1 = x, He_{m+1}(x) = x He_m(x) - m He_{m-1}(x).
    Accepts scalars or numpy arrays.
    """
    if not is_count(m):
        raise ValueError(f"degree must be an integer, got {m!r}")
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    one = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    if m == 0:
        return one
    prev, cur = one, x * one
    for k in range(1, m):
        prev, cur = cur, x * cur - k * prev
    return cur


def arcsin_coeff(j: int) -> float:
    """Return a_j = (2j)! / (4^j (j!)^2 (2j+1)), the coefficient of u^{2j+1}
    in the Maclaurin series of arcsin(u). Supported for 0 <= j <= 64."""
    if not is_count(j):
        raise ValueError(f"index must be an integer, got {j!r}")
    if j < 0 or j > _ARCSIN_COEFF_MAX:
        raise ValueError(f"index must be in [0, {_ARCSIN_COEFF_MAX}], got {j}")
    return _ARCSIN_COEFFS[j]


# Power-series branch of J0: sum_k (-z)^k / (k!)^2, z = (x/2)^2, coefficients
# in extended precision, highest power first; the tail is below 1e-20 for x <= 5.
_INV_FACTORIAL_SQ = tuple(
    np.longdouble(1) / np.longdouble(math.factorial(k)) ** 2
    for k in range(24, -1, -1)
)

# Hankel asymptotic rational coefficients for x > 5 (Cephes Math Library, bessj0):
# J0(x) = sqrt(2/(pi x)) (P(25/x^2) cos(x - pi/4) - (5/x) Q(25/x^2) sin(x - pi/4)).
_PP = (
    7.96936729297347051624e-4,
    8.28352392107440799803e-2,
    1.23953371646414299388e0,
    5.44725003058768775090e0,
    8.74716500199817011941e0,
    5.30324038235394892183e0,
    9.99999999999999997821e-1,
)
_PQ = (
    9.24408810558863637013e-4,
    8.56288474354474431428e-2,
    1.25352743901058953537e0,
    5.47097740330417105182e0,
    8.76190883237069594232e0,
    5.30605288235394617618e0,
    1.00000000000000000218e0,
)
_QP = (
    -1.13663838898469149931e-2,
    -1.28252718670509318512e0,
    -1.95539544257735972385e1,
    -9.32060152123768231369e1,
    -1.77681167980488050595e2,
    -1.47077505154951170175e2,
    -5.14105326766599330220e1,
    -6.05014350600728481186e0,
)
_QQ = (
    1.0,
    6.43178256118178023184e1,
    8.56430025976980587198e2,
    3.88240183605401609683e3,
    7.24046774195652478189e3,
    5.93072701187316984827e3,
    2.06209331660327847417e3,
    2.42005740240291393179e2,
)
# The four evaluated as one: coefficient k of each, highest power first, is the
# (4, 1) column _HANKEL[k]. The 7-term ones lead with 0.0, which leaves their
# values exact, as 0*q + c = c for finite q.
_HANKEL = np.array([(0.0,) + _PP, (0.0,) + _PQ, _QP, _QQ]).T[:, :, None]
_SQ2OPI = 7.9788456080286535588e-1
_PIO4 = 7.85398163397448309616e-1


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def bessel_j0(x):
    """Bessel function of the first kind, order zero.

    Absolute error <= 1e-14 on [0, 200]. Accepts scalars or numpy arrays;
    negative arguments use the even extension J0(-x) = J0(x).
    """
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    ax = np.abs(np.atleast_1d(np.asarray(x, dtype=float)))
    out = np.empty_like(ax)

    small = ax <= 5.0
    if small.any():
        z = (ax[small].astype(np.longdouble) / 2) ** 2
        out[small] = _polevl(-z, _INV_FACTORIAL_SQ).astype(float)

    large = ~small
    if large.any():
        xl = ax[large]
        w = 5.0 / xl
        q = w * w
        pp, pq, qp, qq = _polevl(q, _HANKEL)
        p = pp / pq
        r = qp / qq
        xn = xl - _PIO4
        out[large] = _SQ2OPI * (p * np.cos(xn) - w * r * np.sin(xn)) / np.sqrt(xl)

    return float(out[0]) if scalar else out

