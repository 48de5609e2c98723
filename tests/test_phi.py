"""The correlation functional at i: three quadrature routes, real-t values,
and the threshold verification."""

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
    phi_i_polar,
    phi_real_t,
    verify_theorem,
)
from signcorr import phi
from signcorr.phi import _integrand_polar
from signcorr.quad import _NODES, NonConvergenceError

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
ROUTES = (phi_i_polar, phi_i_cartesian, phi_i_bessel)


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

    @given(st.floats(0.05, 0.9))
    def test_odd_in_t(self, t):
        fam = RotationFamily(0.228)
        plus = phi_real_t(fam, t, 1e-8)
        minus = phi_real_t(fam, -t, 1e-8)
        assert plus.value == pytest.approx(-minus.value, abs=1e-7)

    @pytest.mark.parametrize("t", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_dominated_by_arcsin_law(self, t):
        # |Phi(t)| <= (2/pi) arcsin |t| with equality only at eta = 0
        v = phi_real_t(RotationFamily(0.228), t).value
        assert abs(v) <= 2.0 / math.pi * math.asin(t) + 1e-9

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

    @pytest.mark.parametrize("t,ref", sorted(PHI_T_REF_228_EDGE.items()))
    def test_near_one(self, t, ref):
        fam = RotationFamily(0.228)
        plus, minus = phi_real_t(fam, t), phi_real_t(fam, -t)
        for r, truth in ((plus, ref), (minus, -ref)):
            assert math.isfinite(r.value) and math.isfinite(r.error_estimate)
            assert r.evaluations < 2000
            assert abs(r.value - truth) <= r.error_estimate
            assert abs(r.value) <= 2.0 / math.pi * math.asin(t)
        assert abs(plus.value + minus.value) <= plus.error_estimate + minus.error_estimate

    @pytest.mark.xfail(
        strict=True,
        reason="K15-G7 heuristic: at eta 20, t 0.95 the error is 6.14e-11 "
        "against an estimate of 6.02e-11",
    )
    def test_error_estimate_covers_error_at_large_eta(self):
        fam = RotationFamily(20.0)
        r = phi_real_t(fam, 0.95, 1e-9)
        assert abs(r.value - phi_real_t(fam, 0.95, 1e-13).value) <= r.error_estimate


class TestTruncationTail:
    # At the real cutoffs the tails are 1e-43 and 1e-22, far below any
    # quadrature estimate. Here they are 2.5e-10 to 3.9e-4, so a route that
    # dropped its tail bound would under-report its error.
    @pytest.mark.parametrize("cutoff,box", [(6.0, 4.0), (8.0, 5.0), (12.0, 6.0)])
    def test_every_route_covers_its_truncation_error(self, monkeypatch, cutoff, box):
        monkeypatch.setattr(phi, "_CUTOFF", cutoff)
        monkeypatch.setattr(phi, "_BOX", box)
        fam = RotationFamily(0.228)
        cases = [(route.__name__, route(fam), V_REF[0.228]) for route in ROUTES]
        cases.append(("phi_real_t", phi_real_t(fam, 0.3), PHI_T_REF_228_03))
        for name, r, ref in cases:
            assert abs(r.value - ref) <= r.error_estimate, name


class TestNonFiniteIntegrand:
    @pytest.mark.parametrize("route", [phi_i_bessel, phi_i_polar, phi_i_cartesian])
    def test_overflowing_eta_fails_fast_and_quietly(self, route):
        # eta (2 rho - 1) overflows to inf and cos(inf) is NaN: the first
        # round raises, with no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError, match="non-finite integrand value nan"):
                route(RotationFamily(1e308))

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
