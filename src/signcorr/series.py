"""Odd Taylor series of the correlation functional, compositional reversion,
and the sign-alternation verdict on the reverted coefficients.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from ._common import check_order
from .phi import RotationFamily
# integrate_1d and hermite_prob are not called here; the traced benchmark run
# rebinds both by name
from .quad import integrate_1d  # noqa: F401
from .specfun import arcsin_coeff, hermite_prob  # noqa: F401

__all__ = [
    "OddSeries",
    "AlternationVerdict",
    "mehler_coefficients",
    "revert_odd_series",
    "alternation_check",
    "conditional_bound",
]


@dataclass(frozen=True)
class OddSeries:
    """Odd power series sum_k c_k t^k stored as (c_1, c_3, ..., c_K)."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("need at least the coefficient c_1")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError("coefficients must be finite")

    @property
    def max_order(self) -> int:
        return 2 * len(self.coeffs) - 1

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


def _char_integral(m: int, beta: float) -> complex:
    """I_m(beta) = E[He_m(X) e^{i beta (X^2-1)}] for X ~ N(0, 1) and even m,
    in closed form from the generating function e^{sx - s^2/2} =
    sum He_m(x) s^m/m! (DLMF 18.12): I_{2p} = e^{-i beta} (2p)!/p! (i beta)^p
    (1 - 2i beta)^{-p-1/2} on the principal branch, since Re(1 - 2i beta) = 1.
    Odd m give 0 by parity, so the sums below never ask for them."""
    p = m // 2
    ib = 1j * beta
    return (
        cmath.exp(-ib)
        * (math.factorial(m) // math.factorial(p))
        * ib**p
        * (1.0 - 2.0 * ib) ** (-p - 0.5)
    )


def mehler_coefficients(family: RotationFamily, K: int) -> OddSeries:
    """Taylor coefficients c_1, c_3, ..., c_K of Phi(t) for the rotation
    family.

    Expanding arcsin and the correlated density in the Hermite kernel reduces
    every coefficient to c_k = (2/pi) sum a_j A_{j,m} / m! over 2j+1+m = k,
    where A_{j,m} collapses (via the odd-power cosine expansion) to binomial
    combinations of Re[I_m((2q+1) eps)^2], with I_m the characteristic
    integral of He_m in closed form (_char_integral).
    A_{j,m} vanishes for odd m by parity.
    """
    check_order(K)

    eps = family.epsilon
    # Re[I_m((2q+1) eps)^2] for every pair the sums below take: m + 2j = k - 1
    # with q <= j, so q <= (K - 1 - m)/2; 36 pairs at K = 15, each once
    re_sq = {}
    for m in range(0, K, 2):
        for q in range((K - 1 - m) // 2 + 1):
            z = _char_integral(m, (2 * q + 1) * eps)
            re_sq[m, q] = (z * z).real
    coeffs = []
    for k in range(1, K + 1, 2):
        total = 0.0
        for j in range((k - 1) // 2 + 1):
            m = k - 1 - 2 * j
            a = 0.0
            for q in range(j + 1):
                a += math.comb(2 * j + 1, j - q) * re_sq[m, q]
            a /= 4.0**j
            total += arcsin_coeff(j) * a / math.factorial(m)
        coeffs.append(2.0 / math.pi * total)
    return OddSeries(tuple(coeffs))


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
    return OddSeries(tuple(b[k] for k in range(1, K + 1, 2)))


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
