"""Seeded Monte Carlo estimators: reproducibility, closed-form cross-checks."""

import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from signcorr import mc
from signcorr import (
    THRESHOLD,
    RotationFamily,
    estimate_phi_i,
    estimate_phi_t,
    hermite5,
    identity1,
    phi_i_bessel,
    rotation3,
)
from signcorr.quad import NonConvergenceError


# (mean, stderr) frozen before batches were split into blocks: identity1 phi-t
# at t 0.3 past one batch boundary, seed 5, and the README command
# `mc --family rotation3 --eta 0.228 --seed 42`, whose bits the benchmark's
# references freeze too
FROZEN_ACROSS_BATCHES = (0.19360597471372273, 0.0009573023255627944)
FROZEN_README = (0.5647312593125925, 0.0018234982741031406)


def assert_within_sigma(estimate, truth, sigma=4.0):
    assert estimate.stderr > 0
    assert abs(estimate.mean - truth) <= sigma * estimate.stderr, (
        f"z = {(estimate.mean - truth) / estimate.stderr:.2f}"
    )


class TestFamilies:
    def test_identity1_shape(self):
        fam = identity1()
        assert fam.name == "identity1"
        assert fam.n == 1

    def test_rotation3_shape(self):
        fam = rotation3(0.228)
        assert fam.name == "rotation3"
        assert fam.n == 3

    def test_hermite5_shape(self):
        fam = hermite5(0.1)
        assert fam.name == "hermite5"
        assert fam.n == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="eta must be finite"):
            rotation3(math.nan)
        with pytest.raises(ValueError):
            hermite5(-0.1)


class TestDeterminism:
    def test_same_seed_same_bits(self):
        a = estimate_phi_t(identity1(), 0.5, 40000, 123)
        b = estimate_phi_t(identity1(), 0.5, 40000, 123)
        assert a.mean == b.mean
        assert a.stderr == b.stderr
        assert (a.samples, a.seed) == (40000, 123)

    def test_different_seed_different_stream(self):
        a = estimate_phi_t(identity1(), 0.5, 40000, 123)
        b = estimate_phi_t(identity1(), 0.5, 40000, 124)
        assert a.mean != b.mean

    def test_phi_i_deterministic(self):
        a = estimate_phi_i(rotation3(0.228), 50000, 7)
        b = estimate_phi_i(rotation3(0.228), 50000, 7)
        assert a.mean == b.mean

    def test_batch_boundary_consistency(self):
        # a sample count that crosses the internal batch size stays bitwise
        # reproducible
        n = (1 << 20) + 1717
        a = estimate_phi_t(identity1(), 0.3, n, 5)
        b = estimate_phi_t(identity1(), 0.3, n, 5)
        assert a.mean == b.mean
        assert a.samples == n
        assert (a.mean, a.stderr) == FROZEN_ACROSS_BATCHES

    def test_readme_command_frozen(self):
        # the stream, the weights and the reduction order all show in these bits
        est = estimate_phi_i(rotation3(0.228), 10**6, 42)
        assert (est.mean, est.stderr) == FROZEN_README


def _whole_batch_accumulate(family, samples, seed, weights):
    """The sampler before blocking: each batch's normals and weights as
    full-length arrays. Kept as the oracle the blocked sampler must match."""
    stride = 2 * family.n
    sums, sqsums = [], []
    for lo in range(0, samples, mc._BATCH):
        nb = min(mc._BATCH, samples - lo)
        z = mc._normals(seed, lo * stride, nb * stride).reshape(nb, stride)
        w = weights(z)
        sums.append(float(np.sum(w)))
        sqsums.append(float(np.sum(w * w)))
    total = math.fsum(sums)
    mean = total / samples
    if samples > 1:
        var = (math.fsum(sqsums) - total * total / samples) / (samples - 1)
        stderr = math.sqrt(max(var, 0.0) / samples)
    else:
        stderr = 0.0
    return mc.McEstimate(mean, stderr, int(samples), int(seed))


def _block_counts(n):
    block = mc._BLOCK // (2 * n)  # samples per block
    return [block - 1, block, block + 1, mc._BATCH + block + 3]


class TestBlocking:
    @pytest.mark.parametrize("samples", _block_counts(3))
    def test_rotation3_phi_i_matches_whole_batch(self, samples, monkeypatch):
        # at seed 0 the last count also catches per-block partial sums: they
        # move the mean and stderr by an ulp
        fam = rotation3(0.228)
        blocked = estimate_phi_i(fam, samples, 0)
        monkeypatch.setattr(mc, "_accumulate", _whole_batch_accumulate)
        assert blocked == estimate_phi_i(fam, samples, 0)

    @pytest.mark.parametrize("samples", _block_counts(2))
    def test_hermite5_phi_t_matches_whole_batch(self, samples, monkeypatch):
        fam = hermite5(0.1)
        blocked = estimate_phi_t(fam, 0.6, samples, 13)
        monkeypatch.setattr(mc, "_accumulate", _whole_batch_accumulate)
        assert blocked == estimate_phi_t(fam, 0.6, samples, 13)

    def test_working_memory_bounded(self):
        # one full batch: about 16 MB blocked, 264 MB with batch-sized temporaries
        assert _one_batch_peak() < 32 * 2**20


def _one_batch_peak():
    """Bytes tracemalloc sees at most while one rotation3 batch is weighted."""
    tracemalloc.start()
    try:
        estimate_phi_i(rotation3(0.228), 1 << 20, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def hermite5_across_batches():
    """Arguments of an estimate_phi_t call past one batch boundary, and the
    whole-batch oracle's estimate for them."""
    args = (hermite5(0.1), 0.6, mc._BATCH + 3 * (mc._BLOCK // 4) + 7, 13)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc, "_accumulate", _whole_batch_accumulate)
        return args, estimate_phi_t(*args)


class TestThreads:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_bits_independent_of_worker_count(
        self, workers, monkeypatch, hermite5_across_batches
    ):
        monkeypatch.setattr(mc, "_worker_count", lambda: workers)
        args, oracle = hermite5_across_batches
        assert estimate_phi_t(*args) == oracle
        est = estimate_phi_t(identity1(), 0.3, (1 << 20) + 1717, 5)
        assert (est.mean, est.stderr) == FROZEN_ACROSS_BATCHES
        est = estimate_phi_i(rotation3(0.228), 10**6, 42)
        assert (est.mean, est.stderr) == FROZEN_README

    def test_bits_kept_under_fast_thread_switching(self, monkeypatch):
        # more threads than cores, switching every 10 us: a block written
        # twice, skipped or torn would move these bits
        monkeypatch.setattr(mc, "_worker_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            est = estimate_phi_t(identity1(), 0.3, (1 << 20) + 1717, 5)
        finally:
            sys.setswitchinterval(interval)
        assert (est.mean, est.stderr) == FROZEN_ACROSS_BATCHES

    def test_exception_on_later_block_propagates(self, monkeypatch):
        monkeypatch.setattr(mc, "_worker_count", lambda: 3)
        calls = itertools.count()

        class Boom(Exception):
            pass

        def F(x):
            if next(calls) == 9:
                raise Boom("block 5")
            return x[:, 0]

        baseline = threading.active_count()
        with pytest.raises(Boom, match="block 5"):
            estimate_phi_t(mc.Family("boom", 1, F, F), 0.5, 20 * (mc._BLOCK // 2), 0)
        assert next(calls) < 40  # F and G once per block: the failing stripe stopped
        assert threading.active_count() == baseline

    def test_caller_errstate_applies_on_helpers(self, monkeypatch):
        monkeypatch.setattr(mc, "_worker_count", lambda: 2)
        caller, helper_ran = threading.current_thread(), threading.Event()

        def F(x):
            if threading.current_thread() is caller:
                helper_ran.wait(timeout=60)  # let a pool thread weight a block first
                return x[:, 0]
            helper_ran.set()
            return x[:, 0] * 1e308 * 10.0  # overflows for |x| > 0.18

        fam = mc.Family("overflow", 1, F, F)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            estimate_phi_t(fam, 0.5, 4 * (mc._BLOCK // 2), 0)
        assert helper_ran.is_set()

    def test_working_memory_bounded_at_8_workers(self, monkeypatch):
        monkeypatch.setattr(mc, "_worker_count", lambda: 8)
        assert _one_batch_peak() < 32 * 2**20


class TestClosedFormCrossChecks:
    @pytest.mark.parametrize("t", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_identity1_arcsin_law(self, t):
        est = estimate_phi_t(identity1(), t, 200000, 42)
        assert_within_sigma(est, 2.0 / math.pi * math.asin(t))

    def test_identity1_t_one_degenerate(self):
        est = estimate_phi_t(identity1(), 1.0, 1000, 3)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_identity1_phi_i(self):
        est = estimate_phi_i(identity1(), 10**6, 42)
        assert_within_sigma(est, THRESHOLD)

    def test_rotation3_phi_i(self):
        ref = phi_i_bessel(RotationFamily(0.228)).value
        est = estimate_phi_i(rotation3(0.228), 10**6, 42)
        assert_within_sigma(est, ref)

    def test_rotation3_even_in_eta(self):
        plus = estimate_phi_i(rotation3(0.35), 300000, 17)
        minus = estimate_phi_i(rotation3(-0.35), 300000, 17)
        # same seed, mirrored family: statistically equal means
        assert abs(plus.mean - minus.mean) <= 4.0 * (plus.stderr + minus.stderr)

    def test_hermite5_zero_epsilon(self):
        est = estimate_phi_i(hermite5(0.0), 200000, 11)
        assert_within_sigma(est, THRESHOLD)

    @pytest.mark.parametrize("t", [0.25, 0.6])
    def test_oddness_in_t(self, t):
        plus = estimate_phi_t(identity1(), t, 200000, 31)
        minus = estimate_phi_t(identity1(), -t, 200000, 31)
        assert abs(plus.mean + minus.mean) <= 4.0 * (plus.stderr + minus.stderr)


class TestStderr:
    def test_root_n_scaling(self):
        small = estimate_phi_t(identity1(), 0.5, 50000, 9)
        large = estimate_phi_t(identity1(), 0.5, 200000, 9)
        ratio = small.stderr / large.stderr
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_single_sample(self):
        est = estimate_phi_t(identity1(), 0.5, 1, 0)
        assert est.stderr == 0.0
        assert est.mean in (-1.0, 1.0)


class TestValidation:
    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            estimate_phi_t(identity1(), 1.5, 100, 0)

    def test_rejects_bad_samples(self):
        for bad in (0, -5, 2.5, True):
            with pytest.raises(ValueError):
                estimate_phi_t(identity1(), 0.5, bad, 0)
            with pytest.raises(ValueError):
                estimate_phi_i(identity1(), bad, 0)

    def test_rejects_samples_past_the_budget(self):
        # refused before any draw: 2**30 + 1 samples would run for minutes
        with pytest.raises(ValueError, match=r"samples must be at most 2\*\*30"):
            estimate_phi_t(identity1(), 0.5, 2**30 + 1, 0)
        with pytest.raises(ValueError, match=r"samples must be at most 2\*\*30"):
            estimate_phi_i(identity1(), 2**30 + 1, 0)

    def test_non_finite_weight_fails_as_non_convergence(self, monkeypatch):
        monkeypatch.setattr(mc, "_BATCH", 1024)
        x0 = mc._normals(1, 0, 2 * 4096)[0::2]
        first = int(np.flatnonzero(x0 > 3.0)[0])
        assert first >= mc._BATCH  # so the batch offset counts

        def F(x):
            return np.where(x[:, 0] > 3.0, np.nan, x[:, 0])

        with pytest.raises(
            NonConvergenceError,
            match=f"non-finite Monte Carlo weight nan at sample {first} ",
        ):
            estimate_phi_t(mc.Family("nan", 1, F, lambda y: y[:, 0]), 0.5, 4096, 1)

    def test_rejects_bad_seed(self):
        for bad in (-1, False, 2**64):
            with pytest.raises(ValueError):
                estimate_phi_t(identity1(), 0.5, 100, bad)
            with pytest.raises(ValueError):
                estimate_phi_i(identity1(), 100, bad)
