"""quad._lockstep as it ran when it passed the integrand flat arrays, one
owner per point, kept as a test oracle: every round builds each block's
nodes panel by panel and reshapes the values it gets back. A test rebinds
quad._lockstep to this function to get, through the public routes, the bits
each solve had then. It reads quad._BLOCK at call time, so both engines
split the same way.
"""

import math
from typing import Callable

import numpy as np

from signcorr import quad
from signcorr.quad import _EPS, _NODES, _WG7, _WK15, NonConvergenceError, _Budget


def lockstep(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    problems: int,
    min_panels: int,
    budget: _Budget,
) -> tuple[np.ndarray, np.ndarray, int]:
    span = b - a
    width_floor = 100.0 * _EPS * max(abs(a), abs(b), 1.0)
    edges = np.linspace(a, b, min_panels + 1)
    lo = np.tile(edges[:-1], problems)
    hi = np.tile(edges[1:], problems)
    owner = np.repeat(np.arange(problems), min_panels)
    done: list[tuple[np.ndarray, ...]] = []
    nev = 0

    while lo.size:
        budget.spend(lo.size * _NODES.size, a, b, tol)
        nev += lo.size * _NODES.size
        mid = 0.5 * (lo + hi)
        hw = 0.5 * (hi - lo)
        fv = np.empty((lo.size, _NODES.size))
        for s in range(0, lo.size, quad._BLOCK):
            e = min(s + quad._BLOCK, lo.size)
            x = mid[s:e, None] + hw[s:e, None] * _NODES
            v = np.asarray(
                f(np.repeat(owner[s:e], _NODES.size), x.ravel()), dtype=float
            )
            if not np.isfinite(v).all():
                i = np.flatnonzero(~np.isfinite(v))[0]
                raise NonConvergenceError(
                    f"non-finite integrand value {v[i]} at {x.flat[i]} on [{a}, {b}]"
                )
            # the exact shape, so a short result raises instead of broadcasting
            fv[s:e] = v.reshape(e - s, _NODES.size)

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
    cuts = np.searchsorted(own[order], np.arange(problems + 1))
    val, err = val[order].tolist(), err[order].tolist()
    values = np.array([math.fsum(val[i:j]) for i, j in zip(cuts[:-1], cuts[1:])])
    errors = np.array([math.fsum(err[i:j]) for i, j in zip(cuts[:-1], cuts[1:])])
    return values, errors, nev
