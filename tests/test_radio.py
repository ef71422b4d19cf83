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
