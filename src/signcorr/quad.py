"""Deterministic adaptive quadrature with a posteriori error estimates.

A nested Gauss-Kronrod (7, 15) pair drives panel subdivision for many
problems in lockstep: each round evaluates every live panel of every problem
in a few integrand calls, the way integrate_2d solves the inner integrals of
each outer integrand call (up to _BLOCK outer panels) at once. Every call
has one shape: the nodes of at most _BLOCK panels, one row of 15 per panel,
against the column of their problems. Each problem's accepted panels are
summed by math.fsum, which is correctly rounded, so a result does not depend
on the order in which its panels were accepted. One evaluation budget covers
a whole request, nested solves included: _MAX_EVALS_1D for integrate_1d,
_MAX_EVALS_2D for integrate_2d, each read at call time, and a refusal names
the request's domain and tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._common import NonConvergenceError, check_bracket, check_tol

__all__ = ["QuadResult", "NonConvergenceError", "integrate_1d", "integrate_2d"]


@dataclass(frozen=True)
class QuadResult:
    """Integral value with an error estimate. A quadrature's estimate rests
    on the K15-G7 pair difference, a heuristic that can fall short, not a
    proven bound (see the README)."""

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
# every solve's first partition, for the reasons integrate_1d gives
_MIN_PANELS = 8
# the panels (_BLOCK * 15 points) per integrand call, which bounds the
# integrand's temporaries
_BLOCK = 128
# each request's evaluation budget, read at call time
_MAX_EVALS_1D = 10**6
_MAX_EVALS_2D = 10**7


class _Budget:
    """Evaluations left for one whole request, nested solves included."""

    def __init__(self, max_evals: int, domain: str, tol: float):
        self.max_evals = max_evals
        self.domain = domain
        self.tol = tol
        self.spent = 0

    def spend(self, n: int) -> None:
        if self.spent + n > self.max_evals:
            raise NonConvergenceError(
                f"no convergence on {self.domain} within {self.max_evals} "
                f"evaluations: {self.spent} spent, the next round needs {n} "
                f"(tol={self.tol})"
            )
        self.spent += n


def _lockstep(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    problems: int,
    budget: _Budget,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Adaptive G7K15 on [a, b] for `problems` integrands at once, all to
    the same tolerance.

    Every integrand call is f(owner, x): x holds the (k, 15) nodes of
    k <= _BLOCK panels, one row per panel, owner the (k, 1) column of their
    problems, and f must return exactly x's shape. Each round takes its K15,
    G7 and |f| sums once over the whole round, so a panel's sums depend on
    its row's place in the round, not on _BLOCK; everything elementwise runs
    once per round. A panel is accepted or halved by its own K15-G7 gap, so
    a problem's panels do not depend on the others. Returns each problem's
    value and error, each an fsum of its accepted panels, which is correctly
    rounded in any order, and the total evaluations. The round that would
    overrun the budget raises NonConvergenceError before it is evaluated,
    and an integrand call that returns a non-finite value raises it at once,
    naming its abscissa.
    """
    span = b - a
    width_floor = 100.0 * _EPS * max(abs(a), abs(b), 1.0)
    edges = np.linspace(a, b, _MIN_PANELS + 1)
    lo = np.tile(edges[:-1], problems)
    hi = np.tile(edges[1:], problems)
    owner = np.repeat(np.arange(problems), _MIN_PANELS)
    done: list[tuple[np.ndarray, ...]] = []
    nev = 0

    while lo.size:
        budget.spend(lo.size * _NODES.size)
        nev += lo.size * _NODES.size
        mid = 0.5 * (lo + hi)
        hw = 0.5 * (hi - lo)
        fv = np.empty((lo.size, _NODES.size))
        for s in range(0, lo.size, _BLOCK):
            e = min(s + _BLOCK, lo.size)
            x = mid[s:e, None] + hw[s:e, None] * _NODES
            v = np.asarray(f(owner[s:e, None], x), dtype=float)
            # the exact shape, so a short result raises instead of broadcasting
            if v.shape != x.shape:
                raise ValueError(
                    f"integrand returned shape {v.shape} for points of shape {x.shape}"
                )
            if not np.isfinite(v).all():
                i, j = np.argwhere(~np.isfinite(v))[0]
                raise NonConvergenceError(
                    f"non-finite integrand value {v[i, j]} at {x[i, j]} on [{a}, {b}]"
                )
            fv[s:e] = v

        ik = (fv @ _WK15) * hw
        ig = (fv @ _WG7) * hw
        resabs = (np.abs(fv) @ _WK15) * hw
        err = np.abs(ik - ig)
        # per-panel target scales with panel width; the roundoff floor stops
        # subdivision once the discrepancy is pure double-precision noise
        target = np.maximum(tol * (2.0 * hw) / span, 50.0 * _EPS * resabs)
        ok = (err <= target) | (2.0 * hw <= width_floor)
        done.append((owner[ok], ik[ok], err[ok]))

        bad = ~ok
        bl, bh, bo = lo[bad], hi[bad], owner[bad]
        mids = 0.5 * (bl + bh)
        lo = np.concatenate([bl, mids])
        hi = np.concatenate([mids, bh])
        owner = np.concatenate([bo, bo])

    own, val, err = (np.concatenate(c) for c in zip(*done))
    order = np.argsort(own, kind="stable")
    cuts = np.searchsorted(own[order], np.arange(problems + 1)).tolist()
    val, err = val[order].tolist(), err[order].tolist()
    values = np.array([math.fsum(val[i:j]) for i, j in zip(cuts[:-1], cuts[1:])])
    errors = np.array([math.fsum(err[i:j]) for i, j in zip(cuts[:-1], cuts[1:])])
    return values, errors, nev


def integrate_1d(f: Callable, a: float, b: float, tol: float) -> QuadResult:
    """Integrate f over [a, b] to absolute tolerance tol.

    f must accept a numpy array of abscissae and evaluate elementwise.
    The solve starts from 8 equal panels, 120 points in one call of f: one
    coarse panel can fool the K15-G7 estimate, and a round costs far more
    than its points. Subdivision stops per panel when the K15-G7
    discrepancy drops below tol scaled by the panel's share of the interval.
    A round that would take the evaluations past _MAX_EVALS_1D (10^6)
    raises NonConvergenceError, naming [a, b] and tol, before any of its
    points is evaluated; so does the first round in which f returns a
    non-finite value.
    """
    a, b = float(a), float(b)
    check_bracket(a, b, "<=")
    check_tol("tol", tol)
    if a == b:
        return QuadResult(0.0, 0.0, 0)
    value, err, nev = _lockstep(
        lambda owner, x: np.reshape(f(x.ravel()), x.shape),
        a, b, tol, 1, _Budget(_MAX_EVALS_1D, f"[{a}, {b}]", tol),
    )
    return QuadResult(float(value[0]), float(err[0]), nev)


def integrate_2d(
    f: Callable, x_range: Sequence[float], y_range: Sequence[float], tol: float
) -> QuadResult:
    """Integrate f(x, y) over a rectangle by iterated 1D quadrature.

    The outer (x) axis adapts over inner (y) integrals, and, as in
    integrate_1d, the outer solve and each inner one start from 8 equal
    panels. Each outer integrand call solves the inner integrals at all of
    its nodes together. f is called as f(x_array, y_array) with a (k, 1)
    column of x against the (k, 15) y nodes, one row per inner panel, and
    must return an array of the y nodes' shape; any other shape raises
    ValueError. The error estimate combines the outer estimate with the
    worst inner estimate spread over the x span; evaluations counts
    integrand evaluations. _MAX_EVALS_2D (10^7) bounds the whole solve:
    integrand evaluations plus outer nodes. The round that would pass it
    raises NonConvergenceError, naming the rectangle and tol, before it is
    evaluated.
    """
    xa, xb = float(x_range[0]), float(x_range[1])
    ya, yb = float(y_range[0]), float(y_range[1])
    check_bracket(xa, xb, "<=")
    check_bracket(ya, yb, "<=")
    check_tol("tol", tol)
    if xa == xb or ya == yb:
        return QuadResult(0.0, 0.0, 0)

    span_x = xb - xa
    inner_tol = tol / (2.0 * span_x)
    budget = _Budget(_MAX_EVALS_2D, f"[{xa}, {xb}] x [{ya}, {yb}]", tol)
    worst_inner = 0.0

    def outer_integrand(_owner: np.ndarray, x: np.ndarray) -> np.ndarray:
        nonlocal worst_inner
        xs = x.ravel()
        values, errs, _ = _lockstep(
            lambda owner, ys: f(xs[owner], ys), ya, yb, inner_tol, xs.size, budget
        )
        worst_inner = max(worst_inner, float(errs.max()))
        return values.reshape(x.shape)

    value, outer_err, nodes = _lockstep(outer_integrand, xa, xb, tol / 2.0, 1, budget)
    err = float(outer_err[0]) + span_x * worst_inner
    return QuadResult(float(value[0]), err, budget.spent - nodes)
