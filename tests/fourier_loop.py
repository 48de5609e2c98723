"""The Fourier-Laplace sum as signcorr ran it before etas were summed a
block at a time and its harmonics were kept per tolerance (today phi's
_harmonics and the function of the etas it returns), frozen as a test
oracle: the same K, n, FFT and error terms, then one 1-D sum per eta. Tests
call it on phi's own sum definitions (phi._PHI_I_SUM and
phi._phi_real_t_sum) to get the bits each eta had when it was summed alone.
"""

import math

import numpy as np

from signcorr.phi import _MAX_SAMPLES
from signcorr.quad import _EPS, NonConvergenceError, QuadResult


def fourier_laplace(g, bound, q, etas, p, s, pref, tol):
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    lmax = pref / math.sqrt(abs(p * s))
    scale = 2.0 * bound * lmax  # term m is at most scale q^m
    qq = q * q
    # the smallest K whose tail, scale q^{2K+1} / (1 - q^2), is at most tol/2
    room = tol * (1.0 - qq) / (2.0 * scale)
    k = 1
    if q > 0.0 and room < 1.0:
        k = max(1, math.ceil((math.log(room) / math.log(q) - 1.0) / 2.0))
    tail = scale * q ** (2 * k + 1) / (1.0 - qq)
    n = 8
    while True:
        if n >= 4 * k - 2:  # harmonic 2K-1 is at most n/2
            alias = (
                scale * (q ** (n - 2 * k + 1) + q ** (n + 1)) * (1.0 - qq**k)
                / ((1.0 - qq) * (1.0 - q**n))
            )
            if alias <= tol / 2.0:
                break
        if n >= _MAX_SAMPLES:
            raise NonConvergenceError(
                f"the harmonic sum at tol={tol} needs more than {_MAX_SAMPLES} "
                f"samples ({k} harmonics, decay {q!r})"
            )
        n *= 2
    eta = max(etas, key=abs)
    # the Laplace factor is about -2i w_k, so 2 w_k (and w_k) must be finite
    if not math.isfinite(2.0 * (2 * k - 1) * eta):
        raise NonConvergenceError(
            f"the Laplace factor, about 2 (2k+1) eta, overflows for some k < {k} "
            f"at eta={eta!r}"
        )

    x = np.arange(n) * (2.0 * math.pi / n)
    f, slope = g(np.cos(x))
    c = np.fft.rfft(f)[1 : 2 * k : 2].real * (2.0 / n)

    # Rounding. A sample is within eps (2 pi + 3 |df/du| + 2 |f|): x_j within
    # 2 pi eps with |df/dx| <= 1, cos x_j and its product with |t| within
    # 3 eps, f within 2 ulps. Over the K coefficients used, the samples'
    # errors and the FFT's, within 7 log2(n) eps of its 2-norm (Higham,
    # Accuracy and Stability, Thm 24.2), add at most 2 sqrt(K/n) times their
    # 2-norms (Cauchy-Schwarz). Each term is within 16 ulps of its modulus,
    # plus the rounding of w_k times |d/dw log(e^{-iw} lap)| <= 3, and fsum
    # within one ulp of the value.
    df = _EPS * (2.0 * math.pi + 3.0 * slope + 2.0 * np.abs(f))
    coef_err = 2.0 * math.sqrt(k / n) * (
        math.sqrt(df @ df) + 7.0 * math.log2(n) * _EPS * math.sqrt(f @ f)
    )
    harmonics = np.arange(1, 2 * k, 2)
    results = []
    for eta in etas:  # one K-term sum each: memory does not grow with etas
        w = harmonics * eta
        lap = pref / (np.sqrt(p - 2j * w) * np.sqrt(s - 2j * w))
        value = math.fsum((c * (np.exp(-1j * w) * lap).real).tolist())
        term_err = _EPS * float(np.abs(c * lap) @ (16.0 + 2.0 * np.abs(w)))
        rounding = lmax * coef_err + term_err + _EPS * abs(value)
        results.append(QuadResult(value, tail + alias + rounding, n))
    return results
