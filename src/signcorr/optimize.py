"""Locate the eta maximizing Phi(i)/i: grid scans, refined around the argmax
until the bracket is within tolerance, with a unimodality check on the first.

Every value comes from the Fourier-Laplace route. Its harmonic coefficients
do not depend on eta, so they are computed once per tolerance and process
and serve every grid, and its closed-form sums run as array operations over
blocks of up to 512 etas. Each row is summed by the same operations as a
lone eta, so each value is the one phi_i_fourier gives at that eta, bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._common import check_bracket, check_grid, check_tol
from .phi import _phi_i_fourier_each

__all__ = ["ScanResult", "MaximizeResult", "grid_scan", "maximize_eta"]

_GRID_POINTS = 16


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
    """Maximum of Phi(i)/i over a bracket, found by refining grids.

    unimodal records whether the first grid looked unimodal within error
    bars; when it did not, the grids still refined around its argmax.
    evaluations counts the distinct etas solved.
    """

    eta_star: float
    value_star: float
    error_estimate: float
    unimodal: bool
    evaluations: int


def grid_scan(lo: float, hi: float, steps: int, tol: float = 1e-9) -> ScanResult:
    """Evaluate Phi(i)/i at steps+1 equispaced eta values on [lo, hi].

    All etas share one set of Fourier-Laplace coefficients, and every value
    and error estimate equals phi_i_fourier's at that eta. steps = 0 gives
    one point, and lo = hi gives steps+1 points all at lo; a grid of more
    than 2^20 etas raises ValueError. Ties on the maximum go to the smallest eta.
    """
    check_grid(lo, hi, steps)
    etas = np.linspace(lo, hi, steps + 1).tolist()
    values, errors, _ = _phi_i_fourier_each(etas, tol)
    points = tuple(zip(etas, values, errors))
    best = max(range(len(points)), key=lambda i: points[i][1])
    return ScanResult(points, points[best][0], points[best][1])


def _unimodal(points: tuple[tuple[float, float, float], ...], peak: int) -> bool:
    """Whether the values rise up to points[peak] and fall after it, each
    neighbouring pair allowed to break the trend by their summed error bars."""
    for i in range(len(points) - 1):
        (_, v0, e0), (_, v1, e1) = points[i], points[i + 1]
        band = e0 + e1
        if (v1 < v0 - band) if i < peak else (v1 > v0 + band):
            return False
    return True


def maximize_eta(
    lo: float, hi: float, xtol: float = 1e-4, quad_tol: float = 1e-9
) -> MaximizeResult:
    """Maximize Phi(i)/i over [lo, hi] by refining grids.

    A 16-point grid_scan of [lo, hi] checks unimodality within error bars.
    The bracket then narrows to the grid intervals on either side of the
    argmax, and each narrower bracket gets a 16-point grid_scan of its own,
    until the bracket is at most xtol wide; a bracket that narrow from the
    start is scanned at its two ends. Each grid is one grid_scan, so every
    value is phi_i_fourier's. The result is the best of every eta solved, a
    tie going to the smaller |eta|, so it dominates the first grid by
    construction.
    """
    check_bracket(lo, hi, "<")
    check_tol("xtol", xtol)
    check_tol("quad_tol", quad_tol)

    a, b = lo, hi
    steps = _GRID_POINTS - 1 if b - a > xtol else 1
    unimodal = None
    solved: list[tuple[float, float, float]] = []
    while True:
        points = grid_scan(a, b, steps, quad_tol).points
        solved += points
        peak = max(range(len(points)), key=lambda i: points[i][1])
        if unimodal is None:
            unimodal = _unimodal(points, peak)
        width = b - a
        a, b = points[max(peak - 1, 0)][0], points[min(peak + 1, steps)][0]
        # stop within xtol, or where float spacing keeps a grid from narrowing
        # its bracket any further
        if not xtol < b - a < width:
            break
        steps = _GRID_POINTS - 1
    # higher value, then smaller |eta|, then the eta solved first
    eta, value, err = max(solved, key=lambda p: (p[1], -abs(p[0])))
    return MaximizeResult(
        eta, value, err, unimodal, len({e for e, _, _ in solved})
    )
