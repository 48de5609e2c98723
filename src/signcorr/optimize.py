"""Locate the eta maximizing Phi(i)/i: grid scans and golden-section search
with a unimodality pre-check.

Every value comes from the Bessel route. A batch of etas (a grid scan, the
pre-scan, the two ends of a degenerate bracket) is solved in one call, each
eta a quadrature lane of its own: its own panels, evaluation budget and
rounding, so each value is the one phi_i_bessel gives at that eta alone, bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phi import _phi_i_bessel_each
from .quad import QuadResult

__all__ = ["ScanResult", "MaximizeResult", "grid_scan", "maximize_eta"]

_GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0
_PRESCAN_POINTS = 16


@dataclass(frozen=True)
class ScanResult:
    """Equispaced evaluations of Phi(i)/i with the argmax singled out.

    points holds (eta, value, error_estimate) triples ordered by eta.
    """

    points: tuple[tuple[float, float, float], ...]
    best_eta: float
    best_value: float


@dataclass(frozen=True)
class MaximizeResult:
    """Golden-section maximum of Phi(i)/i over a bracket.

    unimodal records whether the pre-scan looked unimodal within error bars;
    when it did not, the search still refined around the pre-scan argmax.
    """

    eta_star: float
    value_star: float
    error_estimate: float
    unimodal: bool
    evaluations: int


def grid_scan(lo: float, hi: float, steps: int, tol: float = 1e-9) -> ScanResult:
    """Evaluate Phi(i)/i at steps+1 equispaced eta values on [lo, hi].

    All etas are solved together, one quadrature lane each, and every value
    equals phi_i_bessel's at that eta. steps = 0 (or lo = hi) collapses to a
    single evaluation. Ties on the maximum go to the smallest eta.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"need finite lo <= hi, got [{lo}, {hi}]")
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ValueError(f"steps must be a non-negative integer, got {steps!r}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    etas = [float(e) for e in np.linspace(lo, hi, steps + 1)]
    results = _phi_i_bessel_each(etas, tol)
    points = tuple(
        (e, r.value, r.error_estimate) for e, r in zip(etas, results)
    )
    best = max(range(len(points)), key=lambda i: points[i][1])
    return ScanResult(points, points[best][0], points[best][1])


def maximize_eta(
    lo: float, hi: float, xtol: float = 1e-4, quad_tol: float = 1e-9
) -> MaximizeResult:
    """Golden-section maximization of Phi(i)/i over [lo, hi].

    A 16-point pre-scan, solved as one batch of quadrature lanes, checks
    unimodality within error bars and supplies the starting bracket around
    its argmax; golden-section then narrows it below xtol, one eta per step,
    since each step depends on the last. The result is the best of every
    evaluation made, so it dominates the pre-scan grid by construction.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    if not xtol > 0:
        raise ValueError(f"xtol must be positive, got {xtol}")
    if not quad_tol > 0:
        raise ValueError(f"quad_tol must be positive, got {quad_tol}")

    cache: dict[float, QuadResult] = {}

    def solve(etas: list[float]) -> None:
        new = [e for e in dict.fromkeys(etas) if e not in cache]
        cache.update(zip(new, _phi_i_bessel_each(new, quad_tol)))

    def value(eta: float) -> float:
        if eta not in cache:
            solve([eta])
        return cache[eta].value

    def finish(unimodal: bool) -> MaximizeResult:
        eta_star = max(cache, key=lambda e: (cache[e].value, -abs(e)))
        r = cache[eta_star]
        return MaximizeResult(
            eta_star, r.value, r.error_estimate, unimodal, len(cache)
        )

    if hi - lo <= xtol:
        # degenerate bracket: report the better endpoint
        solve([lo, hi])
        return finish(True)

    grid = [float(e) for e in np.linspace(lo, hi, _PRESCAN_POINTS)]
    solve(grid)
    vals = [cache[e].value for e in grid]
    errs = [cache[e].error_estimate for e in grid]
    peak = max(range(len(grid)), key=lambda i: vals[i])
    unimodal = True
    for i in range(len(grid) - 1):
        band = errs[i] + errs[i + 1]
        rising_break = i < peak and vals[i + 1] < vals[i] - band
        falling_break = i >= peak and vals[i + 1] > vals[i] + band
        if rising_break or falling_break:
            unimodal = False
            break

    a = grid[max(peak - 1, 0)]
    b = grid[min(peak + 1, len(grid) - 1)]
    c = b - _GOLDEN_RATIO * (b - a)
    d = a + _GOLDEN_RATIO * (b - a)
    while b - a > xtol:
        if value(c) > value(d):
            b, d = d, c
            c = b - _GOLDEN_RATIO * (b - a)
        else:
            a, c = c, d
            d = a + _GOLDEN_RATIO * (b - a)
    value(0.5 * (a + b))
    return finish(unimodal)
