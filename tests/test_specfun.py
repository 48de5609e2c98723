"""Special functions: Hermite polynomials, arcsin coefficients, J0."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from signcorr import arcsin_coeff, bessel_j0, hermite_prob, integrate_1d
from signcorr.specfun import _bessel_i0e

# Reference values computed with 40-digit interval arithmetic and frozen.
J0_TABLE = {
    0.0: 1.0,
    0.5: 0.93846980724081290423,
    1.0: 0.76519768655796655145,
    1.5: 0.51182767173591812875,
    2.0: 0.22389077914123566805,
    3.0: -0.26005195490193343762,
    5.0: -0.17759677131433830435,
    7.5: 0.26633965788037839687,
    10.0: -0.2459357644513483352,
    12.0: 0.047689310796833536624,
    15.0: -0.014224472826780773234,
    20.0: 0.16702466434058315473,
    30.0: -0.086367983581040211336,
    50.0: 0.055812327669251815005,
    75.0: 0.034643913805097056137,
    100.0: 0.019985850304223122424,
    150.0: -0.00077409037539429124695,
    200.0: -0.015437439930565091592,
}
J0_FIRST_ZERO = 2.4048255576957727686


class TestHermiteProb:
    def test_low_orders(self):
        for x in (-2.0, -0.3, 0.0, 0.7, 3.1):
            assert hermite_prob(0, x) == 1.0
            assert hermite_prob(1, x) == x
            assert hermite_prob(2, x) == pytest.approx(x * x - 1.0, abs=1e-15)
            assert hermite_prob(3, x) == pytest.approx(x**3 - 3 * x, rel=1e-14, abs=1e-14)

    def test_he5_explicit(self):
        # He_5 = x^5 - 10x^3 + 15x
        for x in (-1.5, 0.25, 2.0):
            expected = x**5 - 10 * x**3 + 15 * x
            assert hermite_prob(5, x) == pytest.approx(expected, rel=1e-13)

    def test_array_input(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(hermite_prob(2, x), x * x - 1.0)

    @given(st.integers(0, 14), st.floats(-5, 5))
    def test_parity(self, m, x):
        # He_m(-x) = (-1)^m He_m(x)
        left = hermite_prob(m, -x)
        right = (-1.0) ** m * hermite_prob(m, x)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-12)

    @given(st.integers(1, 13), st.floats(-4, 4))
    def test_recurrence(self, m, x):
        # He_{m+1}(x) = x He_m(x) - m He_{m-1}(x)
        lhs = hermite_prob(m + 1, x)
        rhs = x * hermite_prob(m, x) - m * hermite_prob(m - 1, x)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            hermite_prob(-1, 0.5)
        with pytest.raises(ValueError):
            hermite_prob(2.5, 0.5)


class TestArcsinCoeff:
    def test_leading_values(self):
        # (2j)! / (4^j (j!)^2 (2j+1))
        expected = [
            1.0,
            1.0 / 6.0,
            0.075,
            0.044642857142857142857,
            0.030381944444444444444,
            0.022372159090909090909,
        ]
        for j, ref in enumerate(expected):
            assert arcsin_coeff(j) == pytest.approx(ref, rel=1e-15)

    @pytest.mark.parametrize("u,tail", [(0.1, 1e-14), (0.5, 1e-14), (0.9, 1e-7)])
    def test_partial_sums_converge(self, u, tail):
        total = 0.0
        prev_gap = math.inf
        for j in range(64):
            total += arcsin_coeff(j) * u ** (2 * j + 1)
            gap = abs(math.asin(u) - total)
            assert gap < prev_gap or gap < 1e-15
            prev_gap = gap
        assert total == pytest.approx(math.asin(u), abs=tail)

    def test_all_positive_decreasing(self):
        values = [arcsin_coeff(j) for j in range(65)]
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            arcsin_coeff(-1)
        with pytest.raises(ValueError):
            arcsin_coeff(65)


class TestBesselJ0:
    @pytest.mark.parametrize("x,ref", sorted(J0_TABLE.items()))
    def test_reference_table(self, x, ref):
        assert bessel_j0(x) == pytest.approx(ref, abs=5e-15)

    def test_first_zero(self):
        assert abs(bessel_j0(J0_FIRST_ZERO)) < 1e-14

    def test_array_matches_scalar(self):
        xs = np.linspace(0.0, 40.0, 173)
        arr = bessel_j0(xs)
        assert arr.shape == xs.shape
        for x, v in zip(xs, arr):
            assert v == bessel_j0(float(x))

    @given(st.floats(0, 200))
    def test_even(self, x):
        assert bessel_j0(-x) == bessel_j0(x)

    @given(st.floats(0, 200))
    def test_bounded_by_one(self, x):
        assert abs(bessel_j0(x)) <= 1.0 + 1e-15

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 5.0, 20.0])
    def test_integral_representation(self, x):
        # J0(x) = (2/pi) int_0^{pi/2} cos(x sin theta) d theta
        r = integrate_1d(lambda th: np.cos(x * np.sin(th)), 0.0, math.pi / 2, 1e-12)
        assert bessel_j0(x) == pytest.approx(2.0 / math.pi * r.value, abs=1e-10)


class TestBesselI0e:
    def test_one_at_zero_and_even(self):
        assert _bessel_i0e(np.array([0.0]))[0] == 1.0
        x = np.array([0.3, 7.0, 20.0, 20.5, 1e4])
        assert np.array_equal(_bessel_i0e(-x), _bessel_i0e(x))

    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        # dense across the series/Hankel switch at 20, geometric out to 1e7
        x = np.concatenate([np.linspace(0.0, 40.0, 4001), np.geomspace(1e-8, 1e7, 2001)])
        np.testing.assert_allclose(_bessel_i0e(x), special.i0e(x), rtol=2e-15, atol=0.0)
