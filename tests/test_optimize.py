"""Grid scan and grid-refinement maximization of the functional over eta."""

import math

import pytest

from signcorr import (
    RotationFamily,
    grid_scan,
    maximize_eta,
    phi_i_bessel,
)
from signcorr.phi import _phi_i_bessel_each
from signcorr.quad import _BLOCK

ETA_STAR_REF = 0.227560943876


class TestGridScan:
    def test_basic_scan(self):
        scan = grid_scan(0.0, 0.5, 50)
        assert len(scan.points) == 51
        assert scan.points[0][0] == 0.0
        assert scan.points[-1][0] == 0.5
        assert 0.20 <= scan.best_eta <= 0.26
        assert scan.best_value == max(p[1] for p in scan.points)

    def test_points_match_direct_evaluation(self):
        # a short grid, the CLI's default grid and one with more etas than a
        # single quadrature solve takes: every eta gets the bits it gets alone
        grids = [
            (0.1, 0.3, 4, 1e-9),
            (0.0, 0.5, 50, 1e-9),
            (0.0, 3.0, 2 * _BLOCK + 20, 1e-11),
        ]
        for lo, hi, steps, tol in grids:
            scan = grid_scan(lo, hi, steps, tol)
            etas = [eta for eta, _, _ in scan.points]
            swept = _phi_i_bessel_each(etas, tol)
            for (eta, value, err), r in zip(scan.points, swept):
                direct = phi_i_bessel(RotationFamily(eta), tol)
                assert value == direct.value
                assert err == direct.error_estimate
                assert r == direct
        # and the one-eta case refines as it always has
        assert phi_i_bessel(RotationFamily(0.228)).evaluations == 285

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
        assert res.value_star == phi_i_bessel(RotationFamily(edge)).value

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
        direct = phi_i_bessel(RotationFamily(res.eta_star))
        assert res.value_star == direct.value
        assert res.error_estimate == direct.error_estimate

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
