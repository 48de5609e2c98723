"""Deterministic adaptive quadrature with a posteriori error estimates.

A nested Gauss-Kronrod (7, 15) pair drives batched panel subdivision. All
final reductions run in fixed position order, so identical inputs produce
bit-identical results regardless of how panels were discovered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["QuadResult", "NonConvergenceError", "integrate_1d", "integrate_2d"]


class NonConvergenceError(RuntimeError):
    """Raised when adaptive subdivision exhausts its evaluation budget."""


@dataclass(frozen=True)
class QuadResult:
    """Integral value with a conservative error estimate."""

    value: float
    error_estimate: float
    evaluations: int


# Gauss-Kronrod (7, 15) on [-1, 1]: Kronrod nodes/weights for the positive
# half, Gauss-7 weights on the shared nodes (every second Kronrod node).
_XK_HALF = (
    0.0,
    0.20778495500789848,
    0.4058451513773972,
    0.5860872354676911,
    0.7415311855993945,
    0.8648644233597691,
    0.9491079123427585,
    0.9914553711208126,
)
_WK_HALF = (
    0.20948214108472782,
    0.20443294007529889,
    0.19035057806478542,
    0.1690047266392679,
    0.14065325971552592,
    0.10479001032225019,
    0.06309209262997856,
    0.022935322010529224,
)
_WG_HALF = (
    0.4179591836734694,
    0.0,
    0.3818300505051189,
    0.0,
    0.27970539148927664,
    0.0,
    0.1294849661688697,
    0.0,
)

_NODES = np.array(tuple(-x for x in _XK_HALF[:0:-1]) + _XK_HALF)
_WK15 = np.array(_WK_HALF[:0:-1] + _WK_HALF)
_WG7 = np.array(_WG_HALF[:0:-1] + _WG_HALF)

_EPS = float(np.finfo(float).eps)
_INNER_MIN_PANELS = 8


def _adaptive(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    min_panels: int,
    max_evals: int,
) -> tuple[float, float, int]:
    """Batched adaptive G7K15 loop. f receives a flat array of points and
    must return the matching array of values."""
    span = b - a
    edges = np.linspace(a, b, min_panels + 1)
    panels = np.column_stack([edges[:-1], edges[1:]])
    done_pos: list[float] = []
    done_val: list[float] = []
    done_err: list[float] = []
    nev = 0
    width_floor = 100.0 * _EPS * max(abs(a), abs(b), 1.0)

    while panels.shape[0]:
        mid = 0.5 * (panels[:, 0] + panels[:, 1])
        hw = 0.5 * (panels[:, 1] - panels[:, 0])
        pts = mid[:, None] + hw[:, None] * _NODES[None, :]
        fv = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
        nev += fv.size

        ik = (fv @ _WK15) * hw
        ig = (fv @ _WG7) * hw
        err = np.abs(ik - ig)
        resabs = (np.abs(fv) @ _WK15) * hw
        # per-panel target scales with panel width; the roundoff floor stops
        # subdivision once the discrepancy is pure double-precision noise
        target = np.maximum(tol * (2.0 * hw) / span, 50.0 * _EPS * resabs)
        ok = (err <= target) | (2.0 * hw <= width_floor)

        for i in np.nonzero(ok)[0]:
            done_pos.append(float(panels[i, 0]))
            done_val.append(float(ik[i]))
            done_err.append(float(err[i]))

        bad = panels[~ok]
        if bad.shape[0] and nev >= max_evals:
            raise NonConvergenceError(
                f"no convergence on [{a}, {b}] after {nev} evaluations "
                f"({bad.shape[0]} unresolved panels, tol={tol})"
            )
        if bad.shape[0]:
            mids = 0.5 * (bad[:, 0] + bad[:, 1])
            panels = np.vstack(
                [
                    np.column_stack([bad[:, 0], mids]),
                    np.column_stack([mids, bad[:, 1]]),
                ]
            )
        else:
            panels = np.empty((0, 2))

    order = np.argsort(np.array(done_pos), kind="stable")
    value = math.fsum(done_val[i] for i in order)
    err = math.fsum(done_err[i] for i in order)
    return value, err, nev


def _check_interval(a: float, b: float, tol: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"interval endpoints must be finite, got [{a}, {b}]")
    if not a <= b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


def integrate_1d(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    *,
    max_evals: int = 10**6,
) -> QuadResult:
    """Integrate f over [a, b] to absolute tolerance tol.

    f must accept a numpy array of abscissae and evaluate elementwise.
    Subdivision stops per panel when the K15-G7 discrepancy drops below tol
    scaled by the panel's share of the interval; exceeding max_evals raises
    NonConvergenceError.
    """
    _check_interval(a, b, tol)
    if a == b:
        return QuadResult(0.0, 0.0, 0)
    value, err, nev = _adaptive(f, float(a), float(b), tol, 1, max_evals)
    return QuadResult(value, err, nev)


def integrate_2d(
    f: Callable,
    x_range: Sequence[float],
    y_range: Sequence[float],
    tol: float,
    *,
    max_evals: int = 10**6,
) -> QuadResult:
    """Integrate f(x, y) over a rectangle by iterated 1D quadrature.

    The outer (x) axis adapts over inner (y) integrals; each inner solve starts
    from 8 panels so mildly oscillatory integrands cannot fool a single coarse
    panel. f is called as f(x_scalar, y_array). The error estimate combines
    the outer estimate with the worst inner estimate spread over the x span;
    evaluations counts integrand evaluations. The max_evals budget applies to
    each 1D solve separately.
    """
    xa, xb = float(x_range[0]), float(x_range[1])
    ya, yb = float(y_range[0]), float(y_range[1])
    _check_interval(xa, xb, tol)
    _check_interval(ya, yb, tol)
    if xa == xb or ya == yb:
        return QuadResult(0.0, 0.0, 0)

    span_x = xb - xa
    inner_tol = tol / (2.0 * span_x)
    inner_errs: list[float] = []
    inner_evals = 0

    def outer_integrand(xs: np.ndarray) -> np.ndarray:
        nonlocal inner_evals
        out = np.empty(xs.size)
        for i, xv in enumerate(xs):
            v, e, n = _adaptive(
                lambda ys: f(float(xv), ys), ya, yb, inner_tol,
                _INNER_MIN_PANELS, max_evals,
            )
            inner_errs.append(e)
            inner_evals += n
            out[i] = v
        return out

    value, outer_err, _ = _adaptive(
        outer_integrand, xa, xb, tol / 2.0, 1, max_evals
    )
    err = outer_err + span_x * max(inner_errs)
    return QuadResult(value, err, inner_evals)
