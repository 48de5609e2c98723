"""Seeded Monte Carlo estimators for the sign-correlation functional of any
odd family, at real correlation t or on the imaginary axis.

Sampling is counter-based (SplitMix64 over a sample-indexed counter) with a
Box-Muller normal transform, so any (family, samples, seed) triple yields a
bit-identical estimate on every platform and run, independent of batching and
of how many threads weight a batch's blocks. Blocks run concurrently on the
CPUs the process may use, so a family's F and G must be safe to call at the
same time on disjoint blocks.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .phi import RotationFamily
from .quad import NonConvergenceError
from .specfun import _is_count, hermite_prob

__all__ = [
    "Family",
    "McEstimate",
    "identity1",
    "rotation3",
    "hermite5",
    "estimate_phi_t",
    "estimate_phi_i",
]

_U64 = np.uint64
# SplitMix64: golden-ratio increment and the two finalizer multipliers
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MULT1 = _U64(0xBF58476D1CE4E5B9)
_MULT2 = _U64(0x94D049BB133111EB)
_BATCH = 1 << 20
# the samples one estimate may take: 1024 batches, minutes on two CPUs
_MAX_SAMPLES = 1 << 30
# normals drawn and weighted at a time: 256 KB of float64, so a block's
# temporaries stay in cache instead of streaming batch-sized arrays
_BLOCK = 1 << 15
_INV_2_53 = 2.0**-53


@dataclass(frozen=True)
class Family:
    """An odd pair F, G: R^n -> R with its name and dimension.

    F and G take an (N, n) array of points and return N values. They are
    called concurrently from several threads, each on its own block of
    points, so they must not mutate shared state.
    """

    name: str
    n: int
    F: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    G: Callable[[np.ndarray], np.ndarray] = field(repr=False)


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with stderr = sample standard deviation / sqrt(samples)."""

    mean: float
    stderr: float
    samples: int
    seed: int


def identity1() -> Family:
    """n = 1, F = G = x0: the closed-form reference family."""
    first = lambda x: x[:, 0]
    return Family("identity1", 1, first, first)


def rotation3(eta: float) -> Family:
    """n = 3: coordinates 1, 2 mixed by the angle eps (x0^2 - 1), eps = eta/2,
    with opposite mixing orientation between F and G."""
    eps = RotationFamily(eta).epsilon

    def F(x):
        a = eps * hermite_prob(2, x[:, 0])
        return x[:, 1] * np.cos(a) + x[:, 2] * np.sin(a)

    def G(y):
        a = eps * hermite_prob(2, y[:, 0])
        return y[:, 1] * np.cos(a) - y[:, 2] * np.sin(a)

    return Family("rotation3", 3, F, G)


def hermite5(epsilon: float) -> Family:
    """n = 2, F = G = x0 + epsilon He_5(x1)."""
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")

    def F(x):
        return x[:, 0] + epsilon * hermite_prob(5, x[:, 1])

    return Family("hermite5", 2, F, F)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _MULT1
    z = (z ^ (z >> _U64(27))) * _MULT2
    return z ^ (z >> _U64(31))


def _normals(seed: int, start: int, count: int) -> np.ndarray:
    """count standard normals (count even) from counter positions
    start .. start+count-1 of the stream: SplitMix64 raw words, uniforms in
    (0, 1], then the Box-Muller cosine/sine pair."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        raw = _mix64(_U64(seed) + (idx + _U64(1)) * _GOLDEN)
    u = ((raw >> _U64(11)).astype(np.float64) + 1.0) * _INV_2_53
    u = u.reshape(-1, 2)
    r = np.sqrt(-2.0 * np.log(u[:, 0]))
    ang = 2.0 * math.pi * u[:, 1]
    z = np.empty(count)
    z[0::2] = r * np.cos(ang)
    z[1::2] = r * np.sin(ang)
    return z


def _worker_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (`taskset` narrows it), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _accumulate(
    family: Family, samples: int, seed: int, weights: Callable
) -> McEstimate:
    """Stream batches of 2n normals per sample through `weights`, in blocks
    of about _BLOCK normals dealt round-robin into one stripe per available
    CPU. The caller weights the first stripe and a thread pool the others,
    each in a copy of the caller's context, so its np.errstate applies there.
    The stream is counter-indexed, the weights act row by row and each block
    writes only its own rows, so neither blocking nor the thread count changes
    a bit; the fixed batch size and per-batch numpy sums keep the reduction
    bit-stable. A batch whose sums are not finite raises NonConvergenceError
    naming its first non-finite weight."""
    if not _is_count(samples) or samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"samples must be at most 2**30, got {samples}")
    if not _is_count(seed) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    # deferred: concurrent.futures imports logging, a cost `import signcorr` skips
    from concurrent.futures import ThreadPoolExecutor

    stride = 2 * family.n
    step = max(1, _BLOCK // stride)  # samples per block
    workers = min(_worker_count(), -(-min(samples, _BATCH) // step))
    ctx = contextvars.copy_context()

    def fill(w: np.ndarray, lo: int, stripe: range) -> None:
        for c0 in stripe:
            c1 = min(c0 + step, len(w))
            first, count = (lo + c0) * stride, (c1 - c0) * stride
            # unnamed, a block's normals are freed before the next block draws
            w[c0:c1] = weights(_normals(seed, first, count).reshape(-1, stride))

    sums: list[float] = []
    sqsums: list[float] = []
    # the caller's own stripe keeps block temporaries in the main malloc
    # arena: with every block on pool threads, peak RSS rose by 13%
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        for lo in range(0, samples, _BATCH):
            w = np.empty(min(_BATCH, samples - lo))
            stripes = [range(k * step, len(w), workers * step) for k in range(workers)]
            others = [pool.submit(ctx.copy().run, fill, w, lo, s) for s in stripes[1:]]
            fill(w, lo, stripes[0])
            for f in others:
                f.result()  # an error leaves the `with` once the pool has joined
            sums.append(float(np.sum(w)))
            sqsums.append(float(np.sum(w * w)))
            # a weight is a product of signs and a bounded factor, so only a
            # non-finite weight makes a sum non-finite
            if not math.isfinite(sums[-1] + sqsums[-1]):
                i = int(np.flatnonzero(~np.isfinite(w))[0])
                raise NonConvergenceError(
                    f"non-finite Monte Carlo weight {w[i]} at sample {lo + i} "
                    f"(seed {seed})"
                )
    total = math.fsum(sums)
    mean = total / samples
    if samples > 1:
        var = (math.fsum(sqsums) - total * total / samples) / (samples - 1)
        stderr = math.sqrt(max(var, 0.0) / samples)
    else:
        stderr = 0.0
    return McEstimate(mean, stderr, int(samples), int(seed))


def estimate_phi_t(family: Family, t: float, samples: int, seed: int) -> McEstimate:
    """Estimate Phi(t) = E[sign(F(X)) sign(G(Y))] with per-coordinate
    correlation E[X_i Y_i] = t via Y = t X + sqrt(1-t^2) Z."""
    if not abs(t) <= 1:
        raise ValueError(f"need |t| <= 1, got t={t}")
    n = family.n
    comp = math.sqrt(1.0 - t * t)

    def weights(z):
        x = z[:, :n]
        y = t * x + comp * z[:, n:]
        return np.sign(family.F(x)) * np.sign(family.G(y))

    return _accumulate(family, samples, seed, weights)


def estimate_phi_i(family: Family, samples: int, seed: int) -> McEstimate:
    """Estimate Phi(i)/i = 2^{n/2} E[sign(F(xi)) sign(G(zeta)) sin(<xi, zeta>/2)]
    with xi, zeta independent N(0, 2 I_n); the 2^{n/2} factor converts the
    sampling density to the functional's normalization."""
    n = family.n
    scale = 2.0 ** (n / 2.0)
    root2 = math.sqrt(2.0)

    def weights(z):
        xi = root2 * z[:, :n]
        zeta = root2 * z[:, n:]
        inner = np.sum(xi * zeta, axis=1)
        return scale * np.sign(family.F(xi)) * np.sign(family.G(zeta)) * np.sin(0.5 * inner)

    return _accumulate(family, samples, seed, weights)
