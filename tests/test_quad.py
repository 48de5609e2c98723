"""Adaptive quadrature: exactness, honest error estimates, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signcorr.phi
from signcorr import (
    NonConvergenceError,
    QuadResult,
    RotationFamily,
    bessel_j0,
    integrate_1d,
    integrate_2d,
    phi_i_bessel,
)
from signcorr.quad import (
    _BLOCK,
    _INNER_MIN_PANELS,
    _NODES,
    _WG7,
    _WK15,
    _Budget,
    _integrate_lanes,
    _lockstep,
)

import radial

INV_SQRT2 = 0.7071067811865475244
PI_OVER_SQRT2 = 2.2214414690791831235
_EPS = float(np.finfo(float).eps)


def single_problem_adaptive(f, a, b, tol, min_panels, max_evals):
    """The one-problem G7K15 loop that the lockstep engine replaced, kept
    verbatim as an oracle: integrate_1d must reproduce it bit for bit."""
    span = b - a
    edges = np.linspace(a, b, min_panels + 1)
    panels = np.column_stack([edges[:-1], edges[1:]])
    done_pos: list[float] = []
    done_val: list[float] = []
    done_err: list[float] = []
    nev = 0
    width_floor = 100.0 * _EPS * max(abs(a), abs(b), 1.0)

    while panels.shape[0]:
        mid = 0.5 * (panels[:, 0] + panels[:, 1])
        hw = 0.5 * (panels[:, 1] - panels[:, 0])
        pts = mid[:, None] + hw[:, None] * _NODES[None, :]
        fv = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
        nev += fv.size

        ik = (fv @ _WK15) * hw
        ig = (fv @ _WG7) * hw
        err = np.abs(ik - ig)
        resabs = (np.abs(fv) @ _WK15) * hw
        target = np.maximum(tol * (2.0 * hw) / span, 50.0 * _EPS * resabs)
        ok = (err <= target) | (2.0 * hw <= width_floor)

        for i in np.nonzero(ok)[0]:
            done_pos.append(float(panels[i, 0]))
            done_val.append(float(ik[i]))
            done_err.append(float(err[i]))

        bad = panels[~ok]
        if bad.shape[0] and nev >= max_evals:
            raise NonConvergenceError("no convergence")
        if bad.shape[0]:
            mids = 0.5 * (bad[:, 0] + bad[:, 1])
            panels = np.vstack(
                [
                    np.column_stack([bad[:, 0], mids]),
                    np.column_stack([mids, bad[:, 1]]),
                ]
            )
        else:
            panels = np.empty((0, 2))

    order = np.argsort(np.array(done_pos), kind="stable")
    value = math.fsum(done_val[i] for i in order)
    err = math.fsum(done_err[i] for i in order)
    return value, err, nev


class CountingIntegrand:
    """Wraps an elementwise integrand and counts the points it is given."""

    def __init__(self, f):
        self.f = f
        self.points = 0

    def __call__(self, *args):
        self.points += np.size(args[-1])
        return self.f(*args)


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

    def test_non_finite_value_raises_in_first_round(self):
        # NaN on half the interval: reported in the round that meets it, not
        # after the budget is spent splitting panels around it
        f = CountingIntegrand(lambda x: np.where(x > 0.5, np.nan, 1.0))
        with pytest.raises(NonConvergenceError, match="non-finite integrand value nan at"):
            integrate_1d(f, 0.0, 1.0, 1e-9)
        assert f.points == _NODES.size

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            integrate_1d(np.sin, 1.0, 0.0, 1e-10)
        with pytest.raises(ValueError):
            integrate_1d(np.sin, 0.0, 1.0, -1e-10)
        with pytest.raises(ValueError):
            integrate_1d(np.sin, 0.0, math.inf, 1e-10)

    @pytest.mark.parametrize("max_evals", [15, 100, 1000, 3000])
    def test_budget_never_exceeded(self, max_evals):
        f = CountingIntegrand(lambda x: np.cos(300.0 * x) * np.exp(-x))
        try:
            r = integrate_1d(f, 0.0, 10.0, 1e-12, max_evals=max_evals)
        except NonConvergenceError:
            pass
        else:
            assert r.evaluations == f.points
        assert f.points <= max_evals

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


    def test_budget_covers_whole_nested_solve(self):
        # the polar Phi(i)/i integrand at eta 0.228 takes 34,200 integrand
        # evaluations at 285 outer nodes; each 1D pass alone needs far less
        f = CountingIntegrand(
            lambda rho, th: signcorr.phi._integrand_polar(0.228, rho, th)
        )
        for max_evals in (20_000, 34_484):
            f.points = 0
            with pytest.raises(NonConvergenceError):
                integrate_2d(f, (0.0, 100.0), (0.0, math.pi), 1e-9,
                             max_evals=max_evals)
            assert f.points <= max_evals
        f.points = 0
        r = integrate_2d(f, (0.0, 100.0), (0.0, math.pi), 1e-9,
                         max_evals=34_200 + 285)
        assert r.evaluations == f.points == 34_200


class TestLockstep:
    """The engine behind both integrators: P problems refined in lockstep."""

    @pytest.mark.parametrize(
        "route,args",
        [(phi_i_bessel, ()), (radial.phi_real_t, (0.3,)),
         (radial.phi_real_t, (-0.7,)), (radial.phi_real_t, (0.95,))],
    )
    # at eta 20 the largest rounds (262 and 400 panels) span several blocks
    @pytest.mark.parametrize("eta", [0.0, 0.228, 1.2, 20.0])
    def test_one_problem_matches_single_problem_loop(self, monkeypatch, route,
                                                     args, eta):
        # the radial real-t oracle solves through integrate_1d, phi_i_bessel
        # through one lane of _integrate_lanes; record either as a
        # one-problem solve
        calls = []

        def recording(f, a, b, tol):
            r = integrate_1d(f, a, b, tol)
            calls.append((f, a, b, tol, r))
            return r

        def recording_lanes(f, a, b, tol, lanes):
            r = _integrate_lanes(f, a, b, tol, lanes)
            assert lanes == 1
            fields = (r.value.item(), r.error_estimate.item(), r.evaluations.item())
            calls.append((lambda x: f(np.zeros(x.shape, dtype=int), x), a, b, tol,
                          QuadResult(*fields)))
            return r

        monkeypatch.setattr(radial, "integrate_1d", recording)
        monkeypatch.setattr(signcorr.phi, "_integrate_lanes", recording_lanes)
        route(RotationFamily(eta), *args)
        ((f, a, b, tol, r),) = calls
        value, err, nev = single_problem_adaptive(f, a, b, tol, 1, 10**6)
        assert (r.value, r.error_estimate, r.evaluations) == (value, err, nev)

    def test_batch_agrees_with_solo_solves(self):
        rate = np.array([0.1, 0.5, 1.0, 3.0, 0.2])
        freq = np.array([0.0, 2.0, 10.0, 40.0, 7.5])
        tol = 1e-11

        def f(owner, x):
            return np.exp(-rate[owner] * x) * np.cos(freq[owner] * x)

        values, errs, nev = _lockstep(f, 0.0, 20.0, tol, rate.size, 1,
                                      _Budget(10**6))
        solo_evals = 0
        for i in range(rate.size):
            solo = integrate_1d(lambda x: f(np.full(x.shape, i), x), 0.0, 20.0, tol)
            assert abs(values[i] - solo.value) <= errs[i] + solo.error_estimate
            solo_evals += solo.evaluations
        # acceptance is per panel, so each problem refines as it would alone
        assert nev == solo_evals

    def test_one_problem_lanes_match_solo_solves(self):
        # more lanes than one solve takes, some with rounds of several blocks
        n = 2 * _BLOCK + 5
        rate = np.linspace(0.05, 2.0, n)
        freq = np.linspace(0.0, 60.0, n)[::-1]
        tol = 1e-11

        def f(lane, x):
            return np.exp(-rate[lane] * x) * np.cos(freq[lane] * x)

        lanes = _integrate_lanes(f, 0.0, 20.0, tol, n)
        # the busiest lanes refine to rounds of more than one lane block
        assert max(lanes.evaluations) > 4 * _BLOCK * _NODES.size
        for i in range(n):
            solo = integrate_1d(lambda x: f(i, x), 0.0, 20.0, tol)
            got = (lanes.value[i], lanes.error_estimate[i], lanes.evaluations[i])
            assert got == (solo.value, solo.error_estimate, solo.evaluations)

    @given(
        st.lists(st.floats(0.0, 25.0), min_size=1, max_size=12),
        st.floats(6.0, 13.0),
    )
    @settings(max_examples=25)
    def test_bessel_lanes_match_solo_solves(self, etas, digits):
        # the Bessel route's integrand, any eta set, tol 1e-6 .. 1e-13
        tol = 10.0 ** -digits
        eta = np.array(etas)

        def f(lane, rho):
            return (np.arcsinh(np.cos(eta[lane] * (2.0 * rho - 1.0)))
                    * np.exp(-rho) * bessel_j0(rho))

        lanes = _integrate_lanes(f, 0.0, 100.0, tol, eta.size)
        for i in range(eta.size):
            solo = integrate_1d(lambda x: f(np.full(x.shape, i), x), 0.0, 100.0, tol)
            got = (lanes.value[i], lanes.error_estimate[i], lanes.evaluations[i])
            assert got == (solo.value, solo.error_estimate, solo.evaluations)

    def test_each_lane_has_its_own_budget(self):
        # the cheap lanes need 1,965 evaluations together but at most 945
        # each, so they fit a budget of 1,000 per lane; the lane at frequency
        # 5000 overruns it
        freq = np.array([1.0, 2.0, 3.0, 5.0, 8.0, 5000.0])
        points = CountingIntegrand(lambda lane, x: np.cos(freq[lane] * x))
        with pytest.raises(NonConvergenceError, match="within 1000 evaluations"):
            _integrate_lanes(points, 0.0, 10.0, 1e-10, freq.size, max_evals=1000)
        assert points.points <= freq.size * 1000
        cheap = _integrate_lanes(lambda lane, x: np.cos(freq[lane] * x),
                                 0.0, 10.0, 1e-10, freq.size - 1, max_evals=1000)
        assert cheap.evaluations.tolist() == [105, 225, 225, 465, 945]
        with pytest.raises(NonConvergenceError, match="within 1000 evaluations"):
            integrate_1d(lambda x: np.cos(5000.0 * x), 0.0, 10.0, 1e-10, max_evals=1000)

    def test_inner_integrals_match_bessel_at_every_outer_node(self):
        # one batched round of the polar route's inner solves: the 15 nodes of
        # each of 8 outer panels on [0, 100], each an integral of
        # cos(rho sin th) over [0, pi], which is pi J0(rho)
        edges = np.linspace(0.0, 100.0, 9)
        mid, hw = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        rho = (mid[:, None] + hw[:, None] * _NODES[None, :]).ravel()
        inner_tol = 1e-9 / (2.0 * 100.0)
        values, errs, _ = _lockstep(
            lambda owner, th: np.cos(rho[owner] * np.sin(th)),
            0.0, math.pi, inner_tol, rho.size, _INNER_MIN_PANELS, _Budget(10**7),
        )
        exact = math.pi * bessel_j0(rho)
        assert np.all(np.abs(values - exact) <= inner_tol)
        assert np.all(errs <= inner_tol)

    def test_budget_checked_before_each_round(self):
        f = CountingIntegrand(lambda owner, x: np.cos(50.0 * x))
        budget = _Budget(400)
        with pytest.raises(NonConvergenceError, match="within 400 evaluations"):
            _lockstep(f, 0.0, 10.0, 1e-12, 3, 1, budget)
        assert f.points == budget.spent <= 400


class TestQuadResult:
    def test_fields_and_immutability(self):
        r = QuadResult(1.0, 1e-12, 15)
        assert r.value == 1.0
        with pytest.raises(AttributeError):
            r.value = 2.0
