"""Adaptive quadrature: exactness, honest error estimates, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from signcorr import (
    NonConvergenceError,
    QuadResult,
    bessel_j0,
    integrate_1d,
    integrate_2d,
)

INV_SQRT2 = 0.7071067811865475244
PI_OVER_SQRT2 = 2.2214414690791831235


class TestIntegrate1d:
    def test_polynomial_exact(self):
        r = integrate_1d(lambda x: x * x, 0.0, 1.0, 1e-12)
        assert r.value == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert r.evaluations > 0

    def test_sine(self):
        r = integrate_1d(np.sin, 0.0, math.pi, 1e-12)
        assert r.value == pytest.approx(2.0, abs=1e-13)

    def test_exponential(self):
        r = integrate_1d(np.exp, 0.0, 1.0, 1e-12)
        assert r.value == pytest.approx(math.e - 1.0, rel=1e-14)

    @pytest.mark.parametrize(
        "f,a,b,truth",
        [
            (lambda x: np.cos(40.0 * x), 0.0, 1.0, math.sin(40.0) / 40.0),
            (lambda x: np.exp(-x) * np.cos(10.0 * x), 0.0, 20.0,
             (1.0 - math.exp(-20.0) * (math.cos(200.0) - 10.0 * math.sin(200.0))) / 101.0),
            (lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0, 2.0 * math.atan(4.0)),
            (lambda x: np.sqrt(np.abs(x)), 0.0, 1.0, 2.0 / 3.0),
            # semi-infinite integrals truncated at 100, where the tails are
            # below e^{-100}
            (lambda x: np.exp(-x), 0.0, 100.0, 1.0),
            (lambda x: np.exp(-x) * bessel_j0(x), 0.0, 100.0, INV_SQRT2),
            (lambda x: np.exp(-x) * np.cos(x), 0.0, 100.0, 0.5),
        ],
    )
    def test_honest_error_estimate(self, f, a, b, truth):
        r = integrate_1d(f, a, b, 1e-10)
        assert abs(r.value - truth) <= max(r.error_estimate, 1e-14)

    def test_requested_tolerance_met(self):
        truth = math.sin(40.0) / 40.0
        for tol in (1e-6, 1e-9, 1e-12):
            r = integrate_1d(lambda x: np.cos(40.0 * x), 0.0, 1.0, tol)
            assert abs(r.value - truth) <= tol

    def test_deterministic(self):
        f = lambda x: np.exp(-x) * np.cos(3.0 * x)
        r1 = integrate_1d(f, 0.0, 30.0, 1e-11)
        r2 = integrate_1d(f, 0.0, 30.0, 1e-11)
        assert r1.value == r2.value
        assert r1.error_estimate == r2.error_estimate
        assert r1.evaluations == r2.evaluations

    def test_additive_over_split(self):
        f = lambda x: np.cos(7.0 * x) * np.exp(-0.3 * x)
        whole = integrate_1d(f, 0.0, 5.0, 1e-12)
        left = integrate_1d(f, 0.0, 1.7, 1e-12)
        right = integrate_1d(f, 1.7, 5.0, 1e-12)
        assert whole.value == pytest.approx(left.value + right.value, abs=1e-11)

    def test_empty_interval(self):
        r = integrate_1d(np.sin, 2.0, 2.0, 1e-10)
        assert r.value == 0.0
        assert r.error_estimate == 0.0
        r2 = integrate_2d(lambda x, y: x + y, (0.0, 1.0), (3.0, 3.0), 1e-10)
        assert r2.value == 0.0

    def test_non_convergence_raises(self):
        with pytest.raises(NonConvergenceError):
            integrate_1d(lambda x: np.cos(5000.0 * x), 0.0, 100.0, 1e-14,
                         max_evals=500)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            integrate_1d(np.sin, 1.0, 0.0, 1e-10)
        with pytest.raises(ValueError):
            integrate_1d(np.sin, 0.0, 1.0, -1e-10)
        with pytest.raises(ValueError):
            integrate_1d(np.sin, 0.0, math.inf, 1e-10)

    @given(st.floats(0.3, 3.0), st.floats(-2.0, 2.0))
    def test_linearity_anchor(self, scale, shift):
        # int_0^1 (scale x + shift) dx = scale/2 + shift
        r = integrate_1d(lambda x: scale * x + shift, 0.0, 1.0, 1e-12)
        assert r.value == pytest.approx(scale / 2.0 + shift, rel=1e-13, abs=1e-13)


class TestIntegrate2d:
    def test_separable_polynomial(self):
        r = integrate_2d(lambda x, y: x * y, (0.0, 1.0), (0.0, 1.0), 1e-12)
        assert r.value == pytest.approx(0.25, abs=1e-13)

    def test_gaussian_quadrant(self):
        # int_0^8 int_0^8 e^{-(x^2+y^2)/2} = pi/2 up to an 1e-14 tail
        f = lambda x, y: np.exp(-(x * x + y * y) / 2.0)
        r = integrate_2d(f, (0.0, 8.0), (0.0, 8.0), 1e-11)
        assert r.value == pytest.approx(math.pi / 2.0, abs=1e-11)

    def test_oscillatory_laplace(self):
        # int_0^pi int_0^100 e^{-r} cos(r sin th) dr dth = pi/sqrt2 - O(e^-100)
        f = lambda x, y: np.exp(-x) * np.cos(x * np.sin(y))
        r = integrate_2d(f, (0.0, 100.0), (0.0, math.pi), 1e-10)
        assert r.value == pytest.approx(PI_OVER_SQRT2, abs=2e-10)
        assert abs(r.value - PI_OVER_SQRT2) <= r.error_estimate + 1e-14

    def test_deterministic(self):
        f = lambda x, y: np.cos(3.0 * x) * np.exp(-y) * (1.0 + x * y)
        r1 = integrate_2d(f, (0.0, 2.0), (0.0, 5.0), 1e-10)
        r2 = integrate_2d(f, (0.0, 2.0), (0.0, 5.0), 1e-10)
        assert r1.value == r2.value
        assert r1.error_estimate == r2.error_estimate

    def test_rejects_inverted_ranges(self):
        with pytest.raises(ValueError):
            integrate_2d(lambda x, y: x + y, (1.0, 0.0), (0.0, 1.0), 1e-10)
        with pytest.raises(ValueError):
            integrate_2d(lambda x, y: x + y, (0.0, 1.0), (1.0, 0.0), 1e-10)


class TestQuadResult:
    def test_fields_and_immutability(self):
        r = QuadResult(1.0, 1e-12, 15)
        assert r.value == 1.0
        with pytest.raises(AttributeError):
            r.value = 2.0
