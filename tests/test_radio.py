"""Propagation and ED-map tests."""

from __future__ import annotations

import numpy as np
import pytest

from ctclink.radio import PathlossModel, RadioLink, ShadowingField, map_ed_register


class TestPathloss:
    def test_reference_distance(self):
        link = RadioLink(distance_m=1.0, tx_power_dbm=20.0)
        assert link.mean_rx_dbm() == pytest.approx(20.0 - 46.4)

    def test_doubling_distance(self):
        pl = PathlossModel()
        drop = pl.loss_db(2.0) - pl.loss_db(1.0)
        assert drop == pytest.approx(10 * pl.exponent * np.log10(2))

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            PathlossModel().loss_db(0.0)

    def test_rx_power_inversion(self):
        link = RadioLink.at_rx_power(-77.0)
        assert link.mean_rx_dbm() == pytest.approx(-77.0)
        # decode radius sits inside the multicell geometry window
        assert 28.9 < link.distance_m < 43.3


class TestEdRegisterMap:
    def test_calibration_anchors(self):
        assert map_ed_register(3) == -92.0
        assert map_ed_register(23) == -77.0
        assert map_ed_register(28) == -62.0

    def test_piecewise_interpolation(self):
        # slope 0.75 dB/step below register 23, 3 dB/step above
        assert map_ed_register(13) == pytest.approx(-84.5)
        assert map_ed_register(25) == pytest.approx(-71.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            map_ed_register(2)
        with pytest.raises(ValueError):
            map_ed_register(29)

    def test_link_accepts_register(self):
        link = RadioLink(distance_m=5.0, ed_register=3)
        assert link.ed_threshold_dbm == -92.0
        default = RadioLink(distance_m=5.0)
        assert default.ed_threshold_dbm == -62.0


class TestShadowingField:
    def test_zero_sigma_is_flat(self):
        f = ShadowingField(0.0, 3, (-50, 50, -50, 50))
        assert np.all(f.values_at([(0, 0), (10, 10)]) == 0.0)

    def test_deterministic_per_seed(self):
        bounds = (-40, 40, -40, 40)
        a = ShadowingField(6.0, 2, bounds, rng=np.random.default_rng(3))
        b = ShadowingField(6.0, 2, bounds, rng=np.random.default_rng(3))
        pts = [(1.0, 2.0), (-17.0, 33.0)]
        assert np.array_equal(a.values_at(pts), b.values_at(pts))

    def test_spatial_correlation_decays(self):
        f = ShadowingField(6.0, 400, (-60, 60, -60, 60), rng=np.random.default_rng(5))
        base = f.values_at([(0.0, 0.0)])[0]
        near = f.values_at([(2.0, 0.0)])[0]
        far = f.values_at([(55.0, 0.0)])[0]
        corr_near = np.corrcoef(base, near)[0, 1]
        corr_far = np.corrcoef(base, far)[0, 1]
        assert corr_near > 0.6
        assert corr_far < corr_near - 0.3

    def test_marginal_std(self):
        f = ShadowingField(6.0, 800, (-30, 30, -30, 30), rng=np.random.default_rng(11))
        vals = f.values_at([(0.0, 0.0), (11.0, -7.0), (-23.0, 18.0)])
        assert abs(vals.std() - 6.0) / 6.0 < 0.1

    def test_clamped_to_its_anchor_grid(self):
        f = ShadowingField(6.0, 4, (-20, 20, -20, 20), rng=np.random.default_rng(2))
        far = f.values_at([(5e3, 5e3), (1e6, 1e6), (5e3, -5e3), (-1e6, 3.0)])
        # beyond the grid a point takes the value at the grid's nearest edge
        assert np.array_equal(far[0], far[1])
        assert np.array_equal(far[3], f.values_at([(-1e3, 3.0)])[0])
        assert np.abs(far).max() < 10 * 6.0

    def test_points_inside_are_interpolated_as_before(self):
        # bilinear interpolation between the anchors, without clamping
        f = ShadowingField(6.0, 3, (-40, 40, -30, 30), rng=np.random.default_rng(8))
        pts = np.random.default_rng(9).uniform((-40, -30), (40, 30), size=(200, 2))
        pts = np.concatenate([pts, [(-40.0, -30.0), (40.0, 30.0), (0.0, 0.0)]])
        xs, ys, values = f._xs, f._ys, f._values
        ix = np.clip(np.searchsorted(xs, pts[:, 0]) - 1, 0, len(xs) - 2)
        iy = np.clip(np.searchsorted(ys, pts[:, 1]) - 1, 0, len(ys) - 2)
        wx = ((pts[:, 0] - xs[ix]) / (xs[ix + 1] - xs[ix]))[:, None]
        wy = ((pts[:, 1] - ys[iy]) / (ys[iy + 1] - ys[iy]))[:, None]
        want = (values[ix, iy] * (1 - wx) * (1 - wy) + values[ix + 1, iy] * wx * (1 - wy)
                + values[ix, iy + 1] * (1 - wx) * wy + values[ix + 1, iy + 1] * wx * wy)
        assert np.array_equal(f.values_at(pts), want)
