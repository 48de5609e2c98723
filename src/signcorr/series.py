"""Odd Taylor series of the correlation functional, compositional reversion,
and the sign-alternation verdict on the reverted coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phi import RotationFamily
# integrate_1d is not called here; the traced benchmark run rebinds it by name
from .quad import _Budget, _lockstep, integrate_1d  # noqa: F401
from .specfun import arcsin_coeff, hermite_prob

__all__ = [
    "OddSeries",
    "AlternationVerdict",
    "mehler_coefficients",
    "revert_odd_series",
    "alternation_check",
    "conditional_bound",
]

_MAX_ORDER = 15
_HERMITE_CUTOFF = 12.0  # He_m(x) phi(x) < 4e-17 here for every m <= 14
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MAX_EVALS = 10**6  # for the whole batch of characteristic integrals


@dataclass(frozen=True)
class OddSeries:
    """Odd power series sum_k c_k t^k stored as (c_1, c_3, ..., c_K)."""

    coeffs: tuple[float, ...]
    max_order: int

    def __post_init__(self):
        if self.max_order < 1 or self.max_order % 2 == 0:
            raise ValueError(f"max_order must be odd and >= 1, got {self.max_order}")
        if len(self.coeffs) != (self.max_order + 1) // 2:
            raise ValueError(
                f"expected {(self.max_order + 1) // 2} coefficients for order "
                f"{self.max_order}, got {len(self.coeffs)}"
            )
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError("coefficients must be finite")

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(range(1, self.max_order + 1, 2))

    def evaluate(self, t: float) -> float:
        """Partial sum sum_{k <= K} c_k t^k (Horner in t^2)."""
        t2 = t * t
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t2 + c
        return acc * t


@dataclass(frozen=True)
class AlternationVerdict:
    """Whether sign(b_{2k+1}) = (-1)^k with b_1 > 0 holds for all orders.

    signs classifies each coefficient as "+", "-", or "0" (inside the zero
    band); first_violation is the lowest offending odd order, None if the
    pattern holds throughout.
    """

    alternating: bool
    first_violation: int | None
    signs: tuple[str, ...]


def _char_integrals(betas, degrees, tol: float) -> np.ndarray:
    """I_m(beta) = integral of He_m(x) e^{i beta (x^2-1)} phi(x) dx for even m,
    one per (beta, m) pair, by real/imaginary quadratures folded onto
    [0, cutoff] and solved as one batch: problem 2i is the real part of pair
    i, problem 2i+1 its imaginary part."""
    beta = np.repeat(np.asarray(betas, dtype=float), 2)
    degree = np.repeat(np.asarray(degrees), 2)
    imag = np.tile([False, True], len(betas))

    def f(owner, x):
        phase = beta[owner] * (x * x - 1.0)
        trig = np.where(imag[owner], np.sin(phase), np.cos(phase))
        he = np.empty_like(x)
        deg = degree[owner]
        for m in set(degrees):
            sel = deg == m
            he[sel] = hermite_prob(m, x[sel])
        return he * trig * np.exp(-x * x / 2.0) / _SQRT_2PI

    parts, _, _ = _lockstep(
        f, 0.0, _HERMITE_CUTOFF, tol, beta.size, 1, _Budget(_MAX_EVALS)
    )
    return 2.0 * parts[0::2] + 2.0j * parts[1::2]


def mehler_coefficients(
    family: RotationFamily, K: int, tol: float = 1e-10
) -> OddSeries:
    """Taylor coefficients c_1, c_3, ..., c_K of Phi(t) for the rotation
    family.

    Expanding arcsin and the correlated density in the Hermite kernel reduces
    every coefficient to c_k = (2/pi) sum a_j A_{j,m} / m! over 2j+1+m = k,
    where A_{j,m} collapses (via the odd-power cosine expansion) to binomial
    combinations of Re[I_m((2q+1) eps)^2] with I_m a 1D Gaussian quadrature.
    A_{j,m} vanishes for odd m by parity.
    """
    if isinstance(K, bool) or not isinstance(K, int):
        raise ValueError(f"order must be an integer, got {K!r}")
    if K % 2 == 0:
        raise ValueError(f"order must be odd, got {K}")
    if not 1 <= K <= _MAX_ORDER:
        raise ValueError(f"order must be in [1, {_MAX_ORDER}], got {K}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    eps = family.epsilon
    # every (m, q) pair the sums below read: m = k-1-2j over odd k <= K
    pairs = [(m, q) for m in range(0, K, 2) for q in range((K - 1 - m) // 2 + 1)]
    values = _char_integrals(
        [(2 * q + 1) * eps for _, q in pairs], [m for m, _ in pairs], tol / 8.0
    )
    char = dict(zip(pairs, values.tolist()))

    coeffs = []
    for k in range(1, K + 1, 2):
        total = 0.0
        for j in range((k - 1) // 2 + 1):
            m = k - 1 - 2 * j
            a = 0.0
            for q in range(j + 1):
                z = char[m, q]
                a += math.comb(2 * j + 1, j - q) * (z * z).real
            a /= 4.0**j
            total += arcsin_coeff(j) * a / math.factorial(m)
        coeffs.append(2.0 / math.pi * total)
    return OddSeries(tuple(coeffs), K)


def _powers_of(series: list[float], K: int) -> dict[int, list[float]]:
    """Dense coefficient arrays of s^k for odd k <= K, truncated at order K."""

    def mul(p, q):
        out = [0.0] * (K + 1)
        for i, pv in enumerate(p):
            if pv == 0.0:
                continue
            for j in range(min(len(q), K + 1 - i)):
                if q[j] != 0.0:
                    out[i + j] += pv * q[j]
        return out

    s2 = mul(series, series)
    powers = {1: series[:]}
    for k in range(3, K + 1, 2):
        powers[k] = mul(powers[k - 2], s2)
    return powers


def _dense(series: OddSeries) -> list[float]:
    full = [0.0] * (series.max_order + 1)
    for k, c in zip(series.orders, series.coeffs):
        full[k] = c
    return full


def revert_odd_series(c: OddSeries) -> OddSeries:
    """Compositional inverse b of an odd series s: t = sum_k b_k s(t)^k
    through order K, solved order by order (each b_r from lower-order
    products, divided by c_1^r)."""
    if c.coeffs[0] == 0.0:
        raise ValueError("leading coefficient c_1 must be nonzero")
    K = c.max_order
    powers = _powers_of(_dense(c), K)
    b: dict[int, float] = {1: 1.0 / c.coeffs[0]}
    for r in range(3, K + 1, 2):
        acc = math.fsum(b[k] * powers[k][r] for k in range(1, r, 2))
        b[r] = -acc / c.coeffs[0] ** r
    return OddSeries(tuple(b[k] for k in range(1, K + 1, 2)), K)


def alternation_check(b: OddSeries) -> AlternationVerdict:
    """Classify coefficient signs against the pattern sign(b_{2k+1}) = (-1)^k.

    Magnitudes within tau = 1e-12 max|b_k| of zero are classified "0" and
    count as violations.
    """
    if b.coeffs[0] == 0.0:
        raise ValueError("leading coefficient b_1 must be nonzero")
    tau = 1e-12 * max(abs(v) for v in b.coeffs)
    signs = []
    first_violation = None
    for p, v in enumerate(b.coeffs):
        if abs(v) <= tau:
            s = "0"
        else:
            s = "+" if v > 0 else "-"
        signs.append(s)
        expected = "+" if p % 2 == 0 else "-"
        if s != expected and first_violation is None:
            first_violation = 2 * p + 1
    return AlternationVerdict(first_violation is None, first_violation, tuple(signs))


def conditional_bound(v: float) -> float:
    """The bound 1/v that sign alternation would have yielded."""
    if not v > 0:
        raise ValueError(f"need v > 0, got {v}")
    return 1.0 / v
