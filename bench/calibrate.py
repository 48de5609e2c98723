"""Reference kernels that put job times on a fixed machine speed.

The shared host this benchmark was written on runs the same job up to 1.6x
slower in some minutes than in others, whatever the benchmark does, so the
medians of runs taken minutes apart spread by 20-40%. A run therefore times,
between every two jobs, a kernel written here that does the same kind of
work as the job and shares no code with signcorr. The job's time is
multiplied by the kernel's reference time over its median time around the
job (`Kernel.scales`): the time the job would take on a machine where the
kernel takes its reference time. A slow minute slows both and
cancels; a slower signcorr slows only the job.

Each kernel follows one kind of work, and a kernel of the wrong kind adds
noise instead of removing it (the quadrature kernel drifts 1.4x while a
Monte Carlo job stays within 1.1x), so each workload has its own.

The reference times are medians measured on that host (2-vCPU KVM guest,
Intel Xeon, Python 3.11.7, numpy 2.4.6), so scaled times read close to wall
times there. They are constants: changing one rescales every later result.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_GAUSS15 = np.polynomial.legendre.leggauss(15)
_GAUSS7 = np.polynomial.legendre.leggauss(7)
_NUMPY_IMPORT = (
    "import time; t0 = time.perf_counter(); import numpy; "
    "print(time.perf_counter() - t0)"
)


def _integrand(x):
    return np.exp(-x * x) * np.cos(40.0 * x) + np.sqrt(np.abs(x) + 1e-3)


def _bisect(a: float, b: float) -> float:
    """Adaptive bisection with a 15- against a 7-point Gauss rule."""
    stack, total = [(a, b)], 0.0
    while stack:
        lo, hi = stack.pop()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fine = half * np.dot(_GAUSS15[1], _integrand(mid + half * _GAUSS15[0]))
        coarse = half * np.dot(_GAUSS7[1], _integrand(mid + half * _GAUSS7[0]))
        if abs(fine - coarse) < 1e-11 * (hi - lo) or hi - lo < 1e-6:
            total += fine
        else:
            stack += [(lo, mid), (mid, hi)]
    return total


def quadrature(ctx) -> float:
    """Many small adaptive solves on short numpy arrays, the work of
    `reproduce_2d` and `scan_1d`. -> seconds"""
    t0 = time.perf_counter()
    for _ in range(5):
        _bisect(-3.0, 3.0)
    return time.perf_counter() - t0


def streams(ctx) -> float:
    """Counter-based random numbers, Box-Muller and a reduction over arrays
    of 2^20 values, the work of `mc_sample`. -> seconds"""
    t0 = time.perf_counter()
    for k in range(6):
        z = np.arange(k << 20, (k + 1) << 20, dtype=np.uint64)
        z *= np.uint64(0x9E3779B97F4A7C15)
        z ^= z >> np.uint64(31)
        u = ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * u)
        float(np.sum(np.sign(r) * r * r))
    return time.perf_counter() - t0


def numpy_launch(ctx) -> tuple[float, float]:
    """A fresh interpreter that imports numpy, the start-up every signcorr
    process pays: (wall seconds of the launch, seconds of the import)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_IMPORT], cwd=ctx.root, env=ctx.env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return time.perf_counter() - t0, float(proc.stdout)


def launch(ctx) -> float:
    """`numpy_launch` as a kernel for `cli_cold`. -> wall seconds"""
    return numpy_launch(ctx)[0]


@dataclass(frozen=True)
class Kernel:
    """`run(ctx)` -> seconds, the seconds it takes at reference speed, and
    how many more of its runs on each side of a job set the job's scale."""

    run: Callable[[object], float]
    reference_s: float
    window: int = 0

    def scales(self, kernel_s: list[float]) -> list[float]:
        """One scale per job, from the kernel's times around the jobs:
        kernel_s[i] ran just before job i and kernel_s[i + 1] just after it.
        Job i's scale is the reference time over the median of those two and
        of `window` more runs on each side."""
        w = self.window
        return [
            self.reference_s / statistics.median(kernel_s[max(0, i - w): i + 2 + w])
            for i in range(len(kernel_s) - 1)
        ]


# A run of a few long jobs (mc_sample: six or seven of 4 s, cli_cold: about
# thirteen of 1.8 s) takes each job's scale from eight kernel runs around it,
# as one kernel run is noisier than one such job; short jobs use the two
# beside them, as the host's speed changes within seconds.
KERNELS = {
    "reproduce_2d": Kernel(quadrature, 0.018),
    "scan_1d": Kernel(quadrature, 0.018),
    "mc_sample": Kernel(streams, 0.250, window=3),
    "cli_cold": Kernel(launch, 0.170, window=3),
}
# in-child seconds of `import numpy`, the kernel of setup_s
NUMPY_IMPORT_S = 0.095
