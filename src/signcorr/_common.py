"""What the command line needs before numpy loads: the Phi(i)/i routes, the
error that exits 3, and the rule for each argument it passes to the library,
which both raise from here. No `dataclasses`: `inspect` slows cold launches.
"""

import math
import numbers

# the verify routes, in the order phi pairs them with its route functions
METHODS = ("polar", "cartesian", "bessel", "fourier")
# the etas one grid may hold: 2^20, the scale of the quadrature's 10^6 evaluations
_MAX_GRID = 2**20
# the samples one Monte Carlo estimate may take: 1024 batches, minutes on two CPUs
_MAX_SAMPLES = 2**30
# sign verdicts past order 15 wait for error bars on the coefficients
_MAX_ORDER = 15


class NonConvergenceError(RuntimeError):
    """Raised when adaptive subdivision exhausts its evaluation budget or the
    integrand returns a non-finite value."""


def is_count(x) -> bool:
    """Whether x is an integer, numpy's included, and not a bool. An int is
    taken before the ABC check, which costs several times as much."""
    return type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool)


def check_finite(name: str, x) -> None:
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")


def check_tol(name: str, tol) -> None:
    if not 0 < tol < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {tol}")


def check_bracket(lo, hi, op: str) -> None:
    # op is "<=" or "<"; a finite width keeps np.linspace from overflowing to nan etas
    if not ((lo <= hi if op == "<=" else lo < hi) and math.isfinite(hi - lo)):
        raise ValueError(f"need finite lo {op} hi, hi - lo finite, got [{lo}, {hi}]")


def check_t(t) -> None:
    if not abs(t) <= 1:
        raise ValueError(f"need |t| <= 1, got t={t}")


def check_grid(lo, hi, steps) -> None:
    check_bracket(lo, hi, "<=")
    if not (is_count(steps) and 0 <= steps < _MAX_GRID):
        raise ValueError(f"steps must be an integer in [0, {_MAX_GRID}), got {steps!r}")


def check_order(K) -> None:
    if not (is_count(K) and K % 2 == 1 and 1 <= K <= _MAX_ORDER):
        raise ValueError(f"order must be an odd integer in [1, {_MAX_ORDER}], got {K!r}")


def check_draws(samples, seed) -> None:
    if not is_count(samples) or samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"samples must be at most 2**30, got {samples}")
    if not is_count(seed) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
