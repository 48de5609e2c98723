"""Adaptive quadrature: exactness, honest error estimates, determinism."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import signcorr.phi
import signcorr.quad
from signcorr import (
    NonConvergenceError,
    QuadResult,
    RotationFamily,
    bessel_j0,
    integrate_1d,
    integrate_2d,
    phi_i_bessel,
    phi_i_cartesian,
    phi_i_polar,
)
from signcorr.quad import (
    _BLOCK,
    _INNER_MIN_PANELS,
    _NODES,
    _WG7,
    _WK15,
    _Budget,
    _lockstep,
)

import lockstep_loop
import radial
from test_phi import _integrand_polar

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
        self.points += np.broadcast(*args).size
        return self.f(*args)


def _outcome(route, family, tol):
    """A route's value, estimate and count in exact form, or its refusal."""
    try:
        r = route(family, tol)
    except NonConvergenceError as e:
        return str(e)
    return r.value.hex(), r.error_estimate.hex(), r.evaluations


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
        with pytest.raises(NonConvergenceError, match="within 1000 evaluations"):
            integrate_1d(lambda x: np.cos(5000.0 * x), 0.0, 10.0, 1e-10, max_evals=1000)

    def test_non_finite_value_raises_in_first_round(self):
        # NaN on half the interval: reported in the round that meets it, not
        # after the budget is spent splitting panels around it
        f = CountingIntegrand(lambda x: np.where(x > 0.5, np.nan, 1.0))
        with pytest.raises(NonConvergenceError, match="non-finite integrand value nan at"):
            integrate_1d(f, 0.0, 1.0, 1e-9)
        assert f.points == _NODES.size

    def test_non_finite_value_in_later_round_names_its_point(self):
        # NaN past 0.999 is first met in round 4, in the last of its 8
        # panels, so the message must name that panel's node
        f = CountingIntegrand(lambda x: np.where(x > 0.999, np.nan, np.cos(50.0 * x)))
        expected = "non-finite integrand value nan at 0.9994659606950508 on [0.0, 1.0]"
        with pytest.raises(NonConvergenceError, match=f"^{re.escape(expected)}$"):
            integrate_1d(f, 0.0, 1.0, 1e-12)
        assert f.points == (1 + 2 + 4 + 8) * _NODES.size

    def test_f_receives_flat_arrays(self):
        # the engine passes a column against a block; integrate_1d's f still
        # gets one 1-D array of abscissae per round
        shapes = []

        def f(x):
            shapes.append(x.shape)
            return np.cos(50.0 * x)

        r = integrate_1d(f, 0.0, 10.0, 1e-12)
        assert len(shapes) > 1
        assert all(len(shape) == 1 for shape in shapes)
        assert sum(shape[0] for shape in shapes) == r.evaluations

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            integrate_1d(np.sin, 1.0, 0.0, 1e-10)
        with pytest.raises(ValueError):
            integrate_1d(np.sin, 0.0, 1.0, -1e-10)
        with pytest.raises(ValueError):
            integrate_1d(np.sin, 0.0, math.inf, 1e-10)
        # finite ends whose width overflows: refused before any panel, with
        # no numpy warning
        with pytest.raises(ValueError, match="hi - lo finite"):
            integrate_1d(lambda x: np.ones_like(x), -1e308, 1e308, 1e-9)

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

    @pytest.mark.parametrize(
        "f,truth",
        [(lambda x, y: np.exp(-y), 2.0 * (1.0 - math.exp(-3.0))),
         (lambda x, y: np.cos(x), 3.0 * math.sin(2.0)),
         (lambda x, y: 1.5, 9.0)],
        ids=["ignores_x", "ignores_y", "ignores_both"],
    )
    def test_integrand_may_ignore_an_argument(self, f, truth):
        # an inner call passes x as a (k, 1) column against (k, 15) y nodes,
        # so such an f returns shape (k, 15), (k, 1) or a scalar
        counted = CountingIntegrand(f)
        r = integrate_2d(counted, (0.0, 2.0), (0.0, 3.0), 1e-10)
        both = integrate_2d(lambda x, y: f(x, y) + 0.0 * (x + y),
                            (0.0, 2.0), (0.0, 3.0), 1e-10)
        assert r.value == pytest.approx(truth, abs=1e-10)
        assert (r.value, r.evaluations) == (both.value, both.evaluations)
        assert r.evaluations == counted.points

    def test_rejects_inverted_ranges(self):
        with pytest.raises(ValueError):
            integrate_2d(lambda x, y: x + y, (1.0, 0.0), (0.0, 1.0), 1e-10)
        with pytest.raises(ValueError):
            integrate_2d(lambda x, y: x + y, (0.0, 1.0), (1.0, 0.0), 1e-10)

    def test_rejects_overflowing_width_on_either_axis(self):
        wide, unit = (-1e308, 1e308), (0.0, 1.0)
        for ranges in ((wide, unit), (unit, wide)):
            with pytest.raises(ValueError, match="hi - lo finite"):
                integrate_2d(lambda x, y: np.ones_like(x * y), *ranges, 1e-9)


    def test_budget_covers_whole_nested_solve(self):
        # the polar double integral's integrand at eta 0.228, solved in 2D,
        # takes 34,200 integrand evaluations at 285 outer nodes; each 1D
        # pass alone needs far less
        f = CountingIntegrand(lambda rho, th: _integrand_polar(0.228, rho, th))
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
        # the radial real-t oracle and phi_i_bessel both solve through an
        # integrate_1d looked up at call time; record the one solve
        calls = []

        def recording(f, a, b, tol):
            r = integrate_1d(f, a, b, tol)
            calls.append((f, a, b, tol, r))
            return r

        monkeypatch.setattr(radial, "integrate_1d", recording)
        monkeypatch.setattr(signcorr.phi, "integrate_1d", recording)
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

    def test_inner_integrals_match_bessel_at_every_outer_node(self):
        # the inner solves of one outer call of the polar double integral in
        # 2D: the 15 nodes of each of 8 outer panels on [0, 100], each an
        # integral of cos(rho sin th) over [0, pi], which is pi J0(rho)
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

    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize(
        "route,eta",
        # at eta 20 the Bessel route's rounds span several default blocks
        [(phi_i_bessel, 20.0), (phi_i_polar, 0.228), (phi_i_polar, 1.2),
         (phi_i_polar, 5.0), (phi_i_cartesian, 0.228)],
    )
    def test_bits_do_not_depend_on_block_size(self, monkeypatch, route, eta,
                                              block):
        # each round is summed whole, so _BLOCK only sizes integrand calls;
        # in the 2D routes it also decides which inner solves share a round,
        # which moves no bit at 0.228
        fam = RotationFamily(eta)
        ref = route(fam)
        monkeypatch.setattr(signcorr.quad, "_BLOCK", block)
        got = route(fam)
        assert got.value.hex() == ref.value.hex()
        assert got.error_estimate.hex() == ref.error_estimate.hex()
        assert got.evaluations == ref.evaluations

    @pytest.mark.xfail(
        strict=True,
        reason="an inner row's BLAS sum depends on its place in the round",
    )
    def test_cartesian_bits_do_not_depend_on_block_size_at_tight_tolerance(
        self, monkeypatch
    ):
        # at eta 1.2, tol 1e-12, _BLOCK = 1 gives the error estimate
        # 0x1.9cc366f5a8aa2p-43 against 0x1.9cc366f5a8ab5p-43: each outer
        # call solves its inner integrals as one batch, so the block decides
        # which inner rows share a round, and dgemv's sum of a row depends
        # on its place there
        fam = RotationFamily(1.2)
        ref = phi_i_cartesian(fam, 1e-12)
        monkeypatch.setattr(signcorr.quad, "_BLOCK", 1)
        got = phi_i_cartesian(fam, 1e-12)
        assert (got.value.hex(), got.error_estimate.hex(), got.evaluations) == (
            ref.value.hex(), ref.error_estimate.hex(), ref.evaluations
        )

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("eta", [0.0, 0.228, 1.2, 5.0])
    @pytest.mark.parametrize("route", [phi_i_polar, phi_i_cartesian, phi_i_bessel])
    def test_bits_match_per_panel_loop(self, monkeypatch, route, eta, tol):
        # every solve has the bits of the frozen engine that passes the
        # integrand flat arrays; cartesian at eta 5, tol 1e-12 compares its
        # refusal
        fam = RotationFamily(eta)
        got = _outcome(route, fam, tol)
        monkeypatch.setattr(signcorr.quad, "_lockstep", lockstep_loop.lockstep)
        assert got == _outcome(route, fam, tol)

    def test_refusal_matches_per_panel_loop(self, monkeypatch):
        fam = RotationFamily(20.0)
        with pytest.raises(NonConvergenceError) as got:
            phi_i_cartesian(fam)
        monkeypatch.setattr(signcorr.quad, "_lockstep", lockstep_loop.lockstep)
        with pytest.raises(NonConvergenceError) as frozen:
            phi_i_cartesian(fam)
        assert str(got.value) == str(frozen.value)

    def test_every_call_passes_an_owner_column_against_panel_nodes(self):
        # round one included: 8 panels for each of _BLOCK // 8 + 3 problems,
        # so its _BLOCK + 24 panels take a full block and then the rest
        calls = []

        def f(owner, x):
            calls.append((owner.copy(), x.copy()))
            return np.cos(30.0 * (1.0 + owner) * x)

        problems = _BLOCK // 8 + 3
        _lockstep(f, 0.0, 10.0, 1e-12, problems, 8, _Budget(10**6))
        for own, pts in calls:
            k = pts.shape[0]
            assert own.shape == (k, 1) and pts.shape == (k, _NODES.size)
            assert k <= _BLOCK
        (own1, pts1), (own2, pts2) = calls[:2]
        owners = np.repeat(np.arange(problems), 8)[:, None]
        assert np.array_equal(np.vstack([own1, own2]), owners)
        edges = np.linspace(0.0, 10.0, 9)
        mid, hw = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        nodes = np.tile(mid[:, None] + hw[:, None] * _NODES, (problems, 1))
        assert np.array_equal(np.vstack([pts1, pts2]), nodes)
        # a later round of more than _BLOCK panels is split into full blocks
        assert any(pts.shape[0] == _BLOCK for _, pts in calls[2:])

    def test_short_block_result_raises_instead_of_broadcasting(self, monkeypatch):
        # 15 values for a 2-panel block would fill both rows if broadcast
        monkeypatch.setattr(signcorr.quad, "_BLOCK", 2)
        with pytest.raises(ValueError):
            _lockstep(lambda owner, x: np.ones(_NODES.size), 0.0, 1.0, 1e-9,
                      3, 1, _Budget(10**6))

    def test_short_result_after_round_one_raises(self):
        # every call passes (k, 15) nodes; one panel's 15 values would fill
        # every row if broadcast
        calls = []

        def f(owner, x):
            calls.append(x.shape)
            v = np.cos(50.0 * x) + 0.0 * owner
            return v if len(calls) == 1 else v[0]

        with pytest.raises(ValueError, match="integrand returned shape"):
            _lockstep(f, 0.0, 10.0, 1e-12, 3, 1, _Budget(10**6))
        assert calls == [(3, _NODES.size), (6, _NODES.size)]

    def test_non_finite_value_in_later_block_names_its_point(self, monkeypatch):
        # three problems on [0, 1], one panel each: blocks {0, 1} and {2};
        # problem 2 is NaN past 0.5, so the second call raises
        monkeypatch.setattr(signcorr.quad, "_BLOCK", 2)
        f = CountingIntegrand(
            lambda owner, x: np.where((owner == 2) & (x > 0.5), np.nan, x)
        )
        x = 0.5 + 0.5 * _NODES
        expected = f"non-finite integrand value nan at {x[x > 0.5][0]} on [0.0, 1.0]"
        with pytest.raises(NonConvergenceError, match=f"^{re.escape(expected)}$"):
            _lockstep(f, 0.0, 1.0, 1e-9, 3, 1, _Budget(10**6))
        assert f.points == 3 * _NODES.size

    def test_budget_checked_before_each_round(self):
        f = CountingIntegrand(lambda owner, x: np.cos(50.0 * x) + 0.0 * owner)
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
