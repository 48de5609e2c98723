"""Grid scan and grid-refinement maximization of the functional over eta."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import signcorr._common
import signcorr.phi
from signcorr import (
    NonConvergenceError,
    RotationFamily,
    grid_scan,
    integrate_1d,
    maximize_eta,
    phi_i_bessel,
    phi_i_fourier,
)

import fourier_loop

ETA_STAR_REF = 0.227560943876

# grids across the eta block boundary, with negative etas, 0.0 and 1e-300
ORACLE_GRIDS = [(-20.0, 20.0, 1200), (-5.0, 5.0, 3000), (0.0, 1e-300, 1)]


def _bits(scan):
    return [(e, v.hex(), err.hex()) for e, v, err in scan.points]


def _result_bits(etas, results):
    return [(e, r.value.hex(), r.error_estimate.hex()) for e, r in zip(etas, results)]


class TestGridScan:
    def test_basic_scan(self):
        scan = grid_scan(0.0, 0.5, 50)
        assert len(scan.points) == 51
        assert scan.points[0][0] == 0.0
        assert scan.points[-1][0] == 0.5
        assert 0.20 <= scan.best_eta <= 0.26
        assert scan.best_value == max(p[1] for p in scan.points)

    def test_points_match_direct_evaluation(self):
        # a short grid, the CLI's default grid and a long one at a tight tol:
        # every point has the bits phi_i_fourier gives at its eta alone
        grids = [
            (0.1, 0.3, 4, 1e-9),
            (0.0, 0.5, 50, 1e-9),
            (0.0, 50.0, 300, 1e-13),
        ]
        for lo, hi, steps, tol in grids:
            scan = grid_scan(lo, hi, steps, tol)
            assert len(scan.points) == steps + 1
            for eta, value, err in scan.points:
                direct = phi_i_fourier(RotationFamily(eta), tol)
                assert value.hex() == direct.value.hex()
                assert err.hex() == direct.error_estimate.hex()

    @pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-14])
    def test_points_match_per_eta_loop(self, tol):
        # grid_scan and phi_i_fourier share the blocked sum and the cached
        # harmonics, so only the frozen per-eta loop, run on phi_i_fourier's
        # sum, shows whether a grid's bits moved
        g, bound, q, p, s, pref = signcorr.phi._PHI_I_SUM
        blocked, looped = [], []
        for grid in ORACLE_GRIDS:
            scan = grid_scan(*grid, tol)
            etas = [e for e, _, _ in scan.points]
            loop = fourier_loop.fourier_laplace(g, bound, q, etas, p, s, pref, tol)
            blocked.append(_bits(scan))
            looped.append(_result_bits(etas, loop))
        # the oracle ran once per grid, on every point
        assert [len(bits) for bits in looped] == [n + 1 for *_, n in ORACLE_GRIDS]
        assert blocked == looped
        etas = {e for points in blocked for e, _, _ in points}
        assert {0.0, 1e-300, -20.0} <= etas
        assert len(blocked[0]) > signcorr.phi._ETA_BLOCK

    @given(
        st.floats(-30.0, 30.0),
        st.floats(-30.0, 30.0),
        # short grids, and grids across the first eta block's end
        st.integers(0, 64) | st.integers(500, 640),
        st.floats(1e-14, 1e-6),
    )
    def test_points_match_single_eta_on_a_warm_cache(self, a, b, steps, tol):
        # whichever fills the cache at tol, a grid or a lone eta, the other
        # reads the same harmonics and gets the same bits
        lo, hi = min(a, b), max(a, b)
        for grid_first in (True, False):
            signcorr.phi._phi_i_harmonics.cache_clear()
            if grid_first:
                scan = grid_scan(lo, hi, steps, tol)
            etas = np.linspace(lo, hi, steps + 1).tolist()
            direct = [phi_i_fourier(RotationFamily(e), tol) for e in etas]
            if not grid_first:
                scan = grid_scan(lo, hi, steps, tol)
            assert _bits(scan) == _result_bits(etas, direct)

    @pytest.mark.usefixtures("cold_harmonics")
    def test_one_fft_per_tolerance(self, monkeypatch):
        # the harmonics at a tol are computed on first use and kept: a sweep
        # and the grids of a maximization take one FFT between them
        sizes, rfft = [], np.fft.rfft

        def counting(x):
            sizes.append(x.size)
            return rfft(x)

        monkeypatch.setattr(np.fft, "rfft", counting)
        grid_scan(0.0, 0.5, 50)
        maximize_eta(0.1, 0.4)
        phi_i_fourier(RotationFamily(0.228))
        assert len(sizes) == 1
        grid_scan(0.0, 0.5, 50, 1e-12)
        maximize_eta(0.1, 0.4, quad_tol=1e-12)
        assert len(sizes) == 2
        grid_scan(0.0, 0.5, 50)
        assert len(sizes) == 2

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_bits_do_not_depend_on_eta_block(self, monkeypatch, block):
        whole = _bits(grid_scan(-0.5, 0.5, 50))
        monkeypatch.setattr(signcorr.phi, "_ETA_BLOCK", block)
        assert _bits(grid_scan(-0.5, 0.5, 50)) == whole

    def test_overflowing_phase_raises(self):
        # the overflow check runs against the grid's largest |eta|, before
        # any sampling
        overflow = r"^the Laplace factor, about 2 \(2k\+1\) eta, overflows"
        with pytest.raises(NonConvergenceError, match=overflow):
            grid_scan(0.0, 1e307, 2)

    def test_no_quadrature_through_traced_name(self, monkeypatch):
        # the traced benchmark run rebinds phi.integrate_1d to count solves:
        # the Bessel route makes one, a sweep none
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return integrate_1d(*args, **kwargs)

        monkeypatch.setattr(signcorr.phi, "integrate_1d", recording)
        assert phi_i_bessel(RotationFamily(0.228)).evaluations == 285
        assert len(calls) == 1
        calls.clear()
        grid_scan(0.0, 0.5, 50)
        assert calls == []

    def test_single_point(self):
        scan = grid_scan(0.228, 0.228, 0)
        assert len(scan.points) == 1
        assert scan.best_eta == 0.228

    def test_zero_steps_on_interval(self):
        scan = grid_scan(0.1, 0.3, 0)
        assert len(scan.points) == 1
        assert scan.points[0][0] == 0.1

    def test_degenerate_interval(self):
        scan = grid_scan(0.0, 0.0, 3)
        assert len(scan.points) == 4
        assert all(p[0] == 0.0 for p in scan.points)

    def test_deterministic(self):
        a = grid_scan(0.0, 0.4, 8)
        b = grid_scan(0.0, 0.4, 8)
        assert a.points == b.points

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_scan(0.5, 0.0, 10)
        with pytest.raises(ValueError):
            grid_scan(0.0, 0.5, -1)
        with pytest.raises(ValueError):
            grid_scan(0.0, math.inf, 10)
        with pytest.raises(ValueError):
            grid_scan(0.0, 0.5, True)
        with pytest.raises(ValueError):
            grid_scan(-1e308, 1e308, 2)

    def test_grid_size_bounded_by_sample_budget(self, monkeypatch):
        with pytest.raises(ValueError, match=re.escape("in [0, 1048576)")):
            grid_scan(0.0, 0.5, 2**20)
        monkeypatch.setattr(signcorr._common, "_MAX_GRID", 4)
        assert len(grid_scan(0.0, 0.5, 3).points) == 4
        with pytest.raises(ValueError, match=re.escape("in [0, 4)")):
            grid_scan(0.0, 0.5, 4)


class TestMaximizeEta:
    def test_finds_interior_maximum(self):
        res = maximize_eta(0.0, 0.5)
        assert 0.20 <= res.eta_star <= 0.26
        assert abs(res.eta_star - ETA_STAR_REF) <= 1e-4
        assert res.value_star >= 0.5616144
        assert res.unimodal
        assert res.evaluations > 16

    def test_dominates_headline_eta(self):
        res = maximize_eta(0.0, 0.5)
        v228 = phi_i_bessel(RotationFamily(0.228)).value
        assert res.value_star >= v228 - 1e-9

    def test_symmetric_bracket(self):
        # the functional is even, so a symmetric bracket still locates +-eta*
        res = maximize_eta(-0.5, 0.5)
        assert 0.20 <= abs(res.eta_star) <= 0.26
        assert res.value_star >= 0.5616144
        # the functional is even and dips at 0: the first grid has two peaks
        assert res.unimodal is False

    @pytest.mark.parametrize(
        "lo, hi, edge", [(0.3, 0.5, 0.3), (0.0, 0.1, 0.1)]
    )
    def test_maximum_on_bracket_edge(self, lo, hi, edge):
        # the functional falls away from eta* on both sides, so a bracket
        # that misses it peaks at the end nearer to it
        res = maximize_eta(lo, hi)
        assert res.eta_star == edge
        assert res.value_star == phi_i_fourier(RotationFamily(edge)).value

    def test_degenerate_bracket_returns_endpoint(self):
        res = maximize_eta(0.228, 0.228001)
        assert res.eta_star in (0.228, 0.228001)
        assert res.unimodal
        assert res.evaluations == 2

    @pytest.mark.parametrize("lo, hi", [(0.1, 0.4), (0.0, 0.5)])
    @pytest.mark.parametrize("xtol", [1e-3, 1e-4, 1e-5])
    def test_xtol_controls_precision(self, xtol, lo, hi):
        res = maximize_eta(lo, hi, xtol=xtol)
        assert abs(res.eta_star - ETA_STAR_REF) <= xtol

    def test_xtol_below_float_spacing_terminates(self):
        # grids stop narrowing once their points are adjacent floats
        res = maximize_eta(0.1, 0.4, xtol=1e-300)
        assert abs(res.eta_star - ETA_STAR_REF) <= 1e-5

    def test_deterministic(self):
        a = maximize_eta(0.0, 0.5)
        b = maximize_eta(0.0, 0.5)
        assert a.eta_star == b.eta_star
        assert a.value_star == b.value_star

    def test_value_matches_direct_evaluation(self):
        res = maximize_eta(0.0, 0.5)
        direct = phi_i_fourier(RotationFamily(res.eta_star))
        assert res.value_star.hex() == direct.value.hex()
        assert res.error_estimate.hex() == direct.error_estimate.hex()

    def test_validation(self):
        with pytest.raises(ValueError):
            maximize_eta(0.4, 0.1)
        with pytest.raises(ValueError):
            maximize_eta(0.1, 0.1)
        with pytest.raises(ValueError):
            maximize_eta(-1e308, 1e308)
        with pytest.raises(ValueError):
            maximize_eta(0.0, 0.5, xtol=-1.0)
        with pytest.raises(ValueError):
            maximize_eta(0.0, 0.5, quad_tol=0.0)
