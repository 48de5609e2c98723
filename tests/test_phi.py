"""The correlation functional at i: three quadrature routes and the
Fourier-Laplace sum, real-t values, and the threshold verification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from signcorr import (
    METHODS,
    THRESHOLD,
    RotationFamily,
    integrate_2d,
    phi_i_bessel,
    phi_i_cartesian,
    phi_i_fourier,
    phi_i_polar,
    phi_real_t,
    verify_theorem,
)
from signcorr import phi
from signcorr.quad import _EPS, _NODES, NonConvergenceError

import fourier_loop
import radial

# Reference values computed with 40-digit interval arithmetic and frozen.
V_REF = {
    0.0: 0.56109985233918012714,
    0.1: 0.56112392726055849919,
    0.228: 0.56161447873454988115,
    0.35: 0.55797912588661795058,
    0.5: 0.53747065495067583318,
    1.2: 0.33125743803320892203,
}
PHI_T_REF_228_03 = 0.18861937676486745876
# Phi(t) at eta = 0.228 near |t| = 1, from mpmath 1.3.0 at 30 digits through
# the 1D I0 form of bench/make_references.py, on panels split at 1e-8 .. 1e-1
# and then at every integer up to 160; tanh-sinh and Gauss-Legendre agree to
# 2e-31 (t = 0.999) and 1.5e-26 (t = 0.9999).
PHI_T_REF_228_EDGE = {
    0.999: 0.85444584695499680573,
    0.9999: 0.85890841714974749024,
}
# the same, at t = 0.99999 and with the same mpmath setup, from 1e-10 on:
# tanh-sinh and Gauss-Legendre agree to 8e-19
PHI_T_REF_228_99999 = 0.85949631992827705820
# Phi(0.95) at eta 20, from scipy.integrate.quad with scipy.special.i0e on
# 2,000 panels of [0, 200] at rel 1e-14
PHI_T_REF_20_095 = 0.0962584753744171
QUADRATURE_ROUTES = (phi_i_polar, phi_i_cartesian, phi_i_bessel)
ROUTES = QUADRATURE_ROUTES + (phi_i_fourier,)


def _integrand_polar(eta, rho, theta):
    """The polar double integral's integrand, argsinh(cos(eta(2 rho - 1)))
    e^{-rho} cos(rho sin theta), elementwise. phi_i_polar sums its theta
    integral by the trapezoid rule; tests/test_quad.py integrates it in 2D."""
    return phi._radial(eta, rho) * np.cos(rho * np.sin(theta))


class TestConstants:
    def test_threshold_closed_form(self):
        assert THRESHOLD == 2.0 / math.pi * math.log(1.0 + math.sqrt(2.0))
        assert THRESHOLD == pytest.approx(0.56109985233918012714, abs=1e-16)

    def test_krivine_reciprocal(self):
        KRIVINE_BOUND = math.pi / (2.0 * math.asinh(1.0))
        assert KRIVINE_BOUND == pytest.approx(1.7822139781913691118, abs=2e-16)
        assert THRESHOLD * KRIVINE_BOUND == pytest.approx(1.0, abs=1e-15)


class TestRotationFamily:
    def test_epsilon_is_half_eta(self):
        assert RotationFamily(0.228).epsilon == 0.114
        assert RotationFamily(-0.5).epsilon == -0.25

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                RotationFamily(bad)


class TestIntegrandPolar:
    def test_matches_composition(self):
        for eta, rho, theta in [(0.228, 0.7, 1.1), (0.0, 3.0, 0.2), (0.5, 10.0, 2.9)]:
            expected = (
                math.asinh(math.cos(eta * (2.0 * rho - 1.0)))
                * math.exp(-rho)
                * math.cos(rho * math.sin(theta))
            )
            assert _integrand_polar(eta, rho, theta) == pytest.approx(expected, rel=1e-15)

    def test_vectorized(self):
        rho = np.linspace(0.0, 5.0, 7)
        theta = np.linspace(0.0, math.pi, 7)
        out = _integrand_polar(0.3, rho, theta)
        assert out.shape == rho.shape
        assert out[0] == pytest.approx(math.asinh(math.cos(0.3)), rel=1e-15)

    def test_envelope(self):
        rho = np.linspace(0.0, 30.0, 500)
        theta = np.linspace(0.0, math.pi, 500)
        vals = _integrand_polar(0.7, rho[:, None], theta[None, :])
        bound = math.asinh(1.0) * np.exp(-rho)[:, None]
        assert np.all(np.abs(vals) <= bound + 1e-15)


def _trapezoid_log_bound(rho, m):
    """log of min over the strips a = 2^-3 .. 2^3 of
    2 pi cosh(rho sinh a) / (e^{2am} - 1), the m-point trapezoid rule's error
    bound on int_0^pi cos(rho sin theta) dtheta, one node at a time."""
    best = math.inf
    for a in 2.0 ** np.arange(-3, 4):
        x = rho * math.sinh(a)
        log_cosh = x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)
        y = 2.0 * a * m
        best = min(best, math.log(2.0 * math.pi) + log_cosh - y - math.log(-math.expm1(-y)))
    return best


class TestPolarTrapezoid:
    """The polar route's inner integral, pi J0(rho), by the periodic
    trapezoid rule with an a-priori point count."""

    # the polar route's own targets, tau e^rho / asinh 1 at three tolerances,
    # and flat ones, loose to tight, whose counts turn on the narrow strips
    TARGETS = [
        *(("polar", tol) for tol in (1e-6, 1e-9, 1e-12)),
        *(("flat", t) for t in (10.0, 1.0, 0.1, 1e-3, 1e-8)),
    ]

    @staticmethod
    def _log_target(kind, value, rho):
        if kind == "flat":
            return np.full_like(rho, math.log(value))
        log_tau = math.log(value / phi._PREFACTOR) - math.log(
            2.0 * phi._CUTOFF * phi._ASINH1
        )
        return log_tau + rho

    def _nodes(self, kind, value):
        """rho over [0, 100], with the floats on both sides of every point
        where the count changes."""
        rho = np.linspace(0.0, 100.0, 1001)
        h, _ = phi._trapezoid_counts(rho, self._log_target(kind, value, rho))
        extra = []
        for i in np.flatnonzero(np.diff(h)):
            lo, hi = rho[i], rho[i + 1]
            while np.nextafter(lo, hi) < hi:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                pair = np.array([lo, mid])
                hh, _ = phi._trapezoid_counts(pair, self._log_target(kind, value, pair))
                lo, hi = (mid, hi) if hh[1] == hh[0] else (lo, mid)
            extra += [lo, hi]
        return np.concatenate([rho, extra])

    @pytest.mark.parametrize("kind,value", TARGETS)
    def test_sum_within_stated_bound(self, kind, value):
        # each node's sum is within B + pi eps (h + 9 rho + 9) of pi J0(rho);
        # scipy's j0 is allowed pi eps of its own
        j0 = pytest.importorskip("scipy.special").j0
        rho = self._nodes(kind, value)
        h, log_bound = phi._trapezoid_counts(rho, self._log_target(kind, value, rho))
        err = np.abs(phi._trapezoid(rho, h) - math.pi * j0(rho))
        stated = np.exp(log_bound) + math.pi * _EPS * (h + 9.0 * rho + 9.0)
        assert np.all(err <= stated + math.pi * _EPS)
        assert h.min() >= 1

    @pytest.mark.parametrize("kind,value", TARGETS)
    def test_count_is_the_least_that_meets_the_target(self, kind, value):
        # M = 2h meets the target by the bound, recomputed here, and M - 2
        # does not; 1e-12 in the log allows for ties at a breakpoint
        rho = self._nodes(kind, value)
        log_target = self._log_target(kind, value, rho)
        h, log_bound = phi._trapezoid_counts(rho, log_target)
        for r, k, lt, lb in zip(rho.tolist(), h.tolist(), log_target.tolist(),
                                log_bound.tolist()):
            assert lb == pytest.approx(_trapezoid_log_bound(r, 2 * k), abs=1e-12)
            assert _trapezoid_log_bound(r, 2 * k) <= lt + 1e-12
            if k > 1:
                assert _trapezoid_log_bound(r, 2 * k - 2) > lt - 1e-12

    def test_folded_sum_is_the_full_sum(self):
        # h + 1 distinct points give the 2h-point sum over the whole period
        rho = np.array([0.0, 0.3, 1.0, 2.5, 7.0, 19.0, 60.0, 100.0])
        for h in (1, 2, 3, 8, 21):
            hs = np.full(rho.size, h)
            theta = np.arange(2 * h) * (math.pi / (2 * h))
            full = np.cos(rho[:, None] * np.sin(theta)).sum(axis=1) * (math.pi / (2 * h))
            np.testing.assert_allclose(phi._trapezoid(rho, hs), full, rtol=0, atol=1e-13)

    def test_sum_of_a_node_does_not_depend_on_the_others(self):
        rho = np.linspace(0.0, 100.0, 301)
        h, _ = phi._trapezoid_counts(rho, np.full(rho.size, math.log(1e-10)))
        together = phi._trapezoid(rho, h)
        alone = [phi._trapezoid(rho[i : i + 1], h[i : i + 1])[0] for i in range(rho.size)]
        assert [v.hex() for v in together.tolist()] == [v.hex() for v in alone]

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("eta", [0.0, 0.228, 1.2, 5.0, 20.0])
    def test_agrees_with_fourier_within_estimate(self, eta, tol):
        fam = RotationFamily(eta)
        r, ref = phi_i_polar(fam, tol), phi_i_fourier(fam, 1e-14)
        assert abs(r.value - ref.value) <= r.error_estimate + ref.error_estimate

    def test_inner_budget_refused_before_evaluation(self, monkeypatch):
        # a budget of the first outer call's points: the second call raises
        # before any of its sums is taken
        points, trapezoid = [], phi._trapezoid

        def counting(rho, h):
            points.append(int(h.sum()) + h.size)
            return trapezoid(rho, h)

        monkeypatch.setattr(phi, "_trapezoid", counting)
        phi_i_polar(RotationFamily(0.228))
        first, points[:] = points[0], []
        monkeypatch.setattr(phi, "_POLAR_MAX_EVALS", first)
        with pytest.raises(NonConvergenceError, match=f"within {first} evaluations"):
            phi_i_polar(RotationFamily(0.228))
        assert points == [first]

    @pytest.mark.parametrize("eta", [0.228, 5.0])
    def test_evaluations_count_the_distinct_points(self, monkeypatch, eta):
        points, trapezoid = [], phi._trapezoid

        def counting(rho, h):
            points.append(int(h.sum()) + h.size)
            return trapezoid(rho, h)

        monkeypatch.setattr(phi, "_trapezoid", counting)
        r = phi_i_polar(RotationFamily(eta))
        assert r.evaluations == sum(points)


class TestPhiIRoutes:
    @pytest.mark.parametrize("route", ROUTES)
    def test_eta_zero_hits_threshold(self, route):
        r = route(RotationFamily(0.0))
        assert r.value == pytest.approx(THRESHOLD, abs=1e-10)

    @pytest.mark.parametrize("eta,ref", sorted(V_REF.items()))
    def test_bessel_reference_values(self, eta, ref):
        r = phi_i_bessel(RotationFamily(eta), 1e-9)
        assert r.value == pytest.approx(ref, abs=1e-9)
        assert abs(r.value - ref) <= r.error_estimate

    def test_headline_value(self):
        # independent third-party evaluation of the eta = 0.228 integral
        r = phi_i_bessel(RotationFamily(0.228))
        assert r.value == pytest.approx(0.561614475916681, abs=1e-7)

    @pytest.mark.parametrize("eta", [0.0, 0.1, 0.228, 0.35])
    def test_methods_pairwise_agree(self, eta):
        family = RotationFamily(eta)
        results = [route(family) for route in ROUTES]
        for r in results:
            assert r.error_estimate <= 1e-6
        for i, a in enumerate(results):
            for b in results[i + 1:]:
                assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate

    @pytest.mark.parametrize("route", ROUTES)
    def test_even_in_eta(self, route):
        plus = route(RotationFamily(0.228))
        minus = route(RotationFamily(-0.228))
        assert abs(plus.value - minus.value) <= plus.error_estimate + minus.error_estimate

    @given(st.floats(0.05, 0.6))
    def test_even_in_eta_property(self, eta):
        plus = phi_i_bessel(RotationFamily(eta), 1e-8)
        minus = phi_i_bessel(RotationFamily(-eta), 1e-8)
        assert plus.value == pytest.approx(minus.value, abs=1e-8)

    def test_tolerance_consistency(self):
        family = RotationFamily(0.228)
        loose = phi_i_bessel(family, 1e-6)
        tight = phi_i_bessel(family, 1e-12)
        assert abs(loose.value - tight.value) <= loose.error_estimate + tight.error_estimate
        assert tight.error_estimate < loose.error_estimate + 1e-12

    @pytest.mark.xfail(strict=True, reason="the K15-G7 estimate falls short at tol 1e-9")
    def test_estimate_covers_error_at_default_tolerance(self):
        # reference: phi_i_fourier at tol 1e-14, within 6e-17 of a piecewise
        # scipy quad. At tol 1e-9 phi_i_bessel misses by 6.48e-10 at eta 4.2
        # (estimate 5.86e-11) and by 1.91e-10 at eta 3.67 (estimate 2.80e-11).
        # phi_i_polar misses by 1.93e-10 at 3.67, which the bound on its
        # trapezoid sums, within its estimate of 5.22e-10, covers.
        misses = []
        for eta, routes in ((4.2, (phi_i_bessel,)), (3.67, (phi_i_bessel, phi_i_polar))):
            family = RotationFamily(eta)
            ref = phi_i_fourier(family, 1e-14)
            for route in routes:
                r = route(family, 1e-9)
                if abs(r.value - ref.value) > r.error_estimate + ref.error_estimate:
                    misses.append((eta, route.__name__))
        assert not misses


    @pytest.mark.xfail(strict=True, reason="the K15-G7 estimate falls short at tol 1e-6")
    def test_estimate_covers_error_at_loose_tolerance(self):
        # reference: phi_i_fourier at tol 1e-14. At tol 1e-6 phi_i_bessel
        # misses by 3.13e-7 at eta 5 (estimate 7.77e-8) and by 2.17e-7 at
        # eta 20 (estimate 5.28e-8). phi_i_polar's outer solve is the Bessel
        # route's at tol/2 and also misses at eta 5 by 3.11e-7; the bound on
        # its trapezoid sums, 5.5e-7 of its estimate, covers that
        misses = []
        for eta, routes in ((5.0, (phi_i_bessel, phi_i_polar)), (20.0, (phi_i_bessel,))):
            family = RotationFamily(eta)
            ref = phi_i_fourier(family, 1e-14)
            for route in routes:
                r = route(family, 1e-6)
                if abs(r.value - ref.value) > r.error_estimate + ref.error_estimate:
                    misses.append((eta, route.__name__))
        assert not misses


def _phi_real_t_03(family, tol=1e-9):
    return phi_real_t(family, 0.3, tol)


class TestPhiIFourier:
    @pytest.mark.parametrize("eta,ref", sorted(V_REF.items()))
    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-13])
    def test_reference_values(self, eta, ref, tol):
        r = phi_i_fourier(RotationFamily(eta), tol)
        assert abs(r.value - ref) <= r.error_estimate <= tol

    def test_not_pass_at_eta_zero(self):
        report = verify_theorem(RotationFamily(0.0), "fourier")
        assert not report.passed
        assert abs(report.margin) <= report.error_estimate

    @pytest.mark.usefixtures("cold_harmonics")
    def test_evaluations_count_the_samples(self, monkeypatch):
        sizes, rfft = [], np.fft.rfft

        def counting(x):
            sizes.append(x.size)
            return rfft(x)

        monkeypatch.setattr(np.fft, "rfft", counting)
        for tol in (1e-6, 1e-9, 1e-13):
            r = phi_i_fourier(RotationFamily(0.228), tol)
            assert [r.evaluations] == sizes[-1:]
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]

    def test_cleared_results_leave_the_cached_sum_alone(self):
        # the kept sum hands out fresh lists, so what a caller does to them
        # does not reach the next call
        etas = [-3.7, 0.0, 0.228, 5.0]
        first = phi._phi_i_fourier_each(etas, 1e-9)
        before = [[v.hex() for v in part] for part in first[:2]]
        for part in first[:2]:
            part.clear()
        again = phi._phi_i_fourier_each(etas, 1e-9)
        assert [[v.hex() for v in part] for part in again[:2]] == before
        assert again[2] == first[2]

    def test_rejects_bad_tolerance(self):
        for route in (phi_i_fourier, _phi_real_t_03):
            for tol in (0.0, -1e-9, math.nan):
                with pytest.raises(ValueError):
                    route(RotationFamily(0.228), tol)


@pytest.mark.parametrize(
    "route", [phi_i_polar, phi_i_cartesian, phi_i_bessel, phi_i_fourier, _phi_real_t_03]
)
def test_tolerance_must_be_finite(route):
    with pytest.raises(ValueError, match="tol must be positive and finite, got inf"):
        route(RotationFamily(0.228), math.inf)
    # a finite tolerance is taken however large, even where the quadrature
    # routes' scaling by 1/prefactor would overflow it
    assert route(RotationFamily(0.228), 1.7e308).evaluations > 0


class TestPhiRealT:
    def test_zero_at_zero(self):
        assert phi_real_t(RotationFamily(0.228), 0.0).value == 0.0

    def test_identity_limit(self):
        # eta = 0 collapses to the arcsin law: Phi(t) = (2/pi) arcsin t
        fam = RotationFamily(0.0)
        assert phi_real_t(fam, 0.5).value == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert phi_real_t(fam, 0.3).value == pytest.approx(
            0.193973368041356581, abs=1e-9
        )

    def test_reference_value(self):
        r = phi_real_t(RotationFamily(0.228), 0.3)
        assert r.value == pytest.approx(PHI_T_REF_228_03, abs=2e-9)
        assert abs(r.value - PHI_T_REF_228_03) <= r.error_estimate

    @given(st.floats(0.0, 0.9999), st.floats(0.0, 25.0))
    def test_odd_in_t(self, t, eta):
        # bit for bit: the sum runs on |t| and takes the sign of t last
        fam = RotationFamily(eta)
        plus = phi_real_t(fam, t, 1e-8)
        minus = phi_real_t(fam, -t, 1e-8)
        assert plus.value == -minus.value
        assert math.copysign(1.0, plus.value) == -math.copysign(1.0, minus.value)
        assert plus.error_estimate == minus.error_estimate

    @pytest.mark.parametrize("t", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_dominated_by_arcsin_law(self, t):
        # |Phi(t)| <= (2/pi) arcsin |t| with equality only at eta = 0
        v = phi_real_t(RotationFamily(0.228), t).value
        assert abs(v) <= 2.0 / math.pi * math.asin(t) + 1e-9

    @pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-14])
    def test_bits_match_per_eta_loop(self, tol):
        # the blocked sum gives a lone eta the bits of the frozen per-eta
        # loop, run on phi_real_t's sum at |t|
        etas = [-20.0, -1.3, 0.0, 1e-300, 0.228, 3.7, 20.0]
        cases = [(e, t) for e in etas for t in (0.3, -0.7, 0.95)]
        for e, t in cases:
            r = phi_real_t(RotationFamily(e), t, tol)
            g, bound, q, p, s, pref = phi._phi_real_t_sum(abs(t))
            (f,) = fourier_loop.fourier_laplace(g, bound, q, [e], p, s, pref, tol)
            assert (r.value.hex(), r.error_estimate.hex(), r.evaluations) == (
                (math.copysign(1.0, t) * f.value).hex(), f.error_estimate.hex(),
                f.evaluations,
            )

    def test_rejects_t_at_or_beyond_one(self):
        fam = RotationFamily(0.228)
        for t in (1.0, -1.0, 1.5, math.nan):
            with pytest.raises(ValueError):
                phi_real_t(fam, t)


def _phi_real_t_plane(family, t, tol):
    """Phi(t) as the plane integral that phi_real_t reduces to one radial
    integral: (2/pi) arcsin(t cos(eps(x^2+y^2-2))) against the t-correlated
    Gaussian density on [-14, 14]^2, with the Gaussian tail outside charged.
    Returns (value, error estimate)."""
    eps = family.epsilon
    omt2 = 1.0 - t * t
    norm = 1.0 / (2.0 * math.pi * math.sqrt(omt2))

    def f(x, y):
        return (
            np.arcsin(t * np.cos(eps * (x * x + y * y - 2.0)))
            * np.exp(-(x * x + y * y - 2.0 * t * x * y) / (2.0 * omt2))
            * norm
        )

    pref = 2.0 / math.pi
    r = integrate_2d(f, (-14.0, 14.0), (-14.0, 14.0), tol / pref)
    # density quadratic form >= (x^2+y^2)/4, |arcsin| <= pi/2
    tail = 8.0 * math.exp(-14.0 * 14.0 / 4.0) / math.sqrt(omt2)
    return pref * r.value, pref * r.error_estimate + tail


class TestPhiRealTRadial:
    @pytest.mark.parametrize("t", [-0.7, 0.95])
    def test_matches_plane_integral(self, t):
        fam = RotationFamily(0.228)
        r = phi_real_t(fam, t)
        value, err = _phi_real_t_plane(fam, t, 1e-9)
        assert abs(r.value - value) <= r.error_estimate + err

    @pytest.mark.parametrize(
        "eta,t", [(0.228, 0.3), (0.228, -0.7), (0.228, 0.95), (5.0, 0.3), (20.0, 0.95)]
    )
    def test_matches_radial_quadrature(self, eta, t):
        fam = RotationFamily(eta)
        r = phi_real_t(fam, t)
        q = radial.phi_real_t(fam, t)
        assert abs(r.value - q.value) <= r.error_estimate + q.error_estimate

    @pytest.mark.parametrize("t,ref", sorted(PHI_T_REF_228_EDGE.items()))
    def test_near_one(self, t, ref):
        fam = RotationFamily(0.228)
        plus, minus = phi_real_t(fam, t), phi_real_t(fam, -t)
        for r, truth in ((plus, ref), (minus, -ref)):
            assert math.isfinite(r.value) and math.isfinite(r.error_estimate)
            # samples, 2^11 at 0.999 and 2^12 at 0.9999: the harmonic count
            # grows like 1/acosh(1/|t|)
            assert r.evaluations <= 2**12
            assert abs(r.value - truth) <= r.error_estimate
            assert abs(r.value) <= 2.0 / math.pi * math.asin(t)
        assert abs(plus.value + minus.value) <= plus.error_estimate + minus.error_estimate

    @pytest.mark.parametrize(
        "t,ref", sorted({**PHI_T_REF_228_EDGE, 0.99999: PHI_T_REF_228_99999}.items())
    )
    def test_near_one_at_tight_tolerance(self, t, ref):
        # the Laplace factor as sqrt(s^2 - c^2) instead of its two factors
        # is 7.3e-12 off at 0.99999, above the estimate of 2.5e-12
        fam = RotationFamily(0.228)
        for sign in (1.0, -1.0):
            r = phi_real_t(fam, sign * t, 1e-13)
            assert abs(r.value - sign * ref) <= r.error_estimate < 3e-12

    def test_error_estimate_covers_error_at_large_eta(self):
        fam = RotationFamily(20.0)
        r = phi_real_t(fam, 0.95, 1e-9)
        assert abs(r.value - phi_real_t(fam, 0.95, 1e-13).value) <= r.error_estimate

    @pytest.mark.parametrize("tol", [1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13])
    def test_error_estimate_covers_reference_at_large_eta(self, tol):
        r = phi_real_t(RotationFamily(20.0), 0.95, tol)
        assert abs(r.value - PHI_T_REF_20_095) <= r.error_estimate


class TestTruncationTail:
    # At the real cutoffs the tails are 1e-43 and 1e-22, far below any
    # quadrature estimate. Here they are 2.5e-10 to 3.9e-4, so a route that
    # dropped its tail bound would under-report its error.
    @pytest.mark.parametrize("cutoff,box", [(6.0, 4.0), (8.0, 5.0), (12.0, 6.0)])
    def test_every_route_covers_its_truncation_error(self, monkeypatch, cutoff, box):
        monkeypatch.setattr(phi, "_CUTOFF", cutoff)
        monkeypatch.setattr(phi, "_BOX", box)
        fam = RotationFamily(0.228)
        for route in QUADRATURE_ROUTES:
            r = route(fam)
            assert abs(r.value - V_REF[0.228]) <= r.error_estimate, route.__name__


class TestNonFiniteIntegrand:
    # the Fourier-Laplace refusal, whether the phase (2k+1) eta overflows or
    # only twice it
    LAPLACE_OVERFLOW = r"^the Laplace factor, about 2 \(2k\+1\) eta, overflows for some k < "

    @pytest.mark.parametrize("route", [phi_i_bessel, phi_i_polar, phi_i_cartesian])
    def test_overflowing_eta_fails_fast_and_quietly(self, route):
        # eta (2 rho - 1) overflows to inf and cos(inf) is NaN: the first
        # round raises, with no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError, match="non-finite integrand value nan"):
                route(RotationFamily(1e308))

    @pytest.mark.parametrize("route", [phi_i_fourier, _phi_real_t_03])
    def test_overflowing_phase_fails_quietly(self, route):
        # (2k+1) eta overflows to inf for k >= 1; eta 5e6 still answers
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError, match=self.LAPLACE_OVERFLOW):
                route(RotationFamily(1e308))
        assert math.isfinite(route(RotationFamily(5e6)).value)

    @pytest.mark.parametrize("route,eta,below", [
        (phi_i_fourier, 5e306, 3.5e306),
        (_phi_real_t_03, 1e307, 8e306),
    ])
    def test_overflowing_laplace_factor_fails_quietly(self, route, eta, below):
        # (2k+1) eta is finite, but the Laplace factor, about 2 (2k+1) eta,
        # is not; just below that band the sum still answers
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError, match=self.LAPLACE_OVERFLOW):
                route(RotationFamily(eta))
            r = route(RotationFamily(below))
        assert math.isfinite(r.value) and math.isfinite(r.error_estimate)

    @pytest.mark.usefixtures("cold_harmonics")
    @pytest.mark.parametrize("route", [phi_i_fourier, _phi_real_t_03])
    def test_sample_budget(self, monkeypatch, route):
        # both need 2^5 or 2^6 samples at tol 1e-9
        monkeypatch.setattr(phi, "_MAX_SAMPLES", 16)
        with pytest.raises(NonConvergenceError, match="more than 16 samples"):
            route(RotationFamily(0.228))

    @pytest.mark.usefixtures("cold_harmonics")
    def test_sample_budget_refused_before_overflow(self, monkeypatch):
        # a cold cache takes the harmonics first, so their refusal comes
        # first; once they are kept, the phase check runs on every call
        monkeypatch.setattr(phi, "_MAX_SAMPLES", 16)
        with pytest.raises(NonConvergenceError, match="more than 16 samples"):
            phi_i_fourier(RotationFamily(5e306))
        monkeypatch.undo()
        phi_i_fourier(RotationFamily(0.228))
        with pytest.raises(NonConvergenceError, match=self.LAPLACE_OVERFLOW):
            phi_i_fourier(RotationFamily(5e306))

    def test_sample_budget_near_one(self):
        # 1 - |t| = 1e-9 needs more than 2^20 samples at tol 1e-9; 2e-9 fits
        fam = RotationFamily(0.228)
        with pytest.raises(NonConvergenceError, match="more than 1048576 samples"):
            phi_real_t(fam, 1.0 - 1e-9)
        assert phi_real_t(fam, 1.0 - 2e-9).evaluations == 2**20

    def test_raised_before_a_second_round(self, monkeypatch):
        calls, j0 = [], phi.bessel_j0

        def counting_j0(x):
            calls.append(x.size)
            return j0(x)

        monkeypatch.setattr(phi, "bessel_j0", counting_j0)
        with pytest.raises(NonConvergenceError):
            phi_i_bessel(RotationFamily(1e308))
        assert calls == [_NODES.size]


class TestVerifyTheorem:
    def test_passes_at_headline_eta(self):
        report = verify_theorem(RotationFamily(0.228))
        assert report.passed
        assert report.margin == pytest.approx(5.146264e-4, abs=1e-9)
        assert report.margin > report.error_estimate
        assert report.threshold == THRESHOLD
        assert report.method == "bessel"
        assert report.eta == 0.228

    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods_pass(self, method):
        assert verify_theorem(RotationFamily(0.228), method).passed

    def test_fails_at_eta_zero(self):
        # the margin vanishes at eta = 0, so the strict inequality cannot clear
        report = verify_theorem(RotationFamily(0.0))
        assert not report.passed
        assert abs(report.margin) <= report.error_estimate

    def test_fails_far_from_optimum(self):
        report = verify_theorem(RotationFamily(1.2))
        assert not report.passed
        assert report.margin < 0
        assert report.phi_i_value == pytest.approx(V_REF[1.2], abs=1e-9)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            verify_theorem(RotationFamily(0.228), "simpson")
