"""Tests for the deterministic spatial structure (geometry, clusters, pairs)."""

import numpy as np
import pytest

from blockfade import (ArrayGeometry, ClusterSpec, ResourceGrid, SpatialPair,
                       UserSpec, build_spatial_pair, phase_ramp)

QUARTER = ArrayGeometry(n_antennas=4, spacing_ratio=0.25)


class TestPhaseRamp:
    def test_broadside_is_flat(self):
        ramp = phase_ramp(np.pi / 2, QUARTER)
        assert np.allclose(ramp, 0.0, atol=1e-12)

    def test_endfire_quarter_wavelength(self):
        # slope (pi/2)*cos(0) = pi/2 at quarter-wavelength spacing
        ramp = phase_ramp(0.0, QUARTER)
        assert np.allclose(ramp, [0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-12)

    def test_sixty_degree_slope(self):
        ramp = phase_ramp(np.pi / 3, ArrayGeometry(3, 0.25))
        assert np.allclose(ramp, [0, np.pi / 4, np.pi / 2], atol=1e-12)

    def test_range_and_general_spacing(self):
        geo = ArrayGeometry(64, 0.5)
        for theta in (0.0, 1.0, 2.5, 100.0, -7.0):
            ramp = phase_ramp(theta, geo)
            assert ramp.shape == (64,)
            assert (ramp >= 0).all() and (ramp < 2 * np.pi).all()

    def test_adjacent_differences_equal_slope(self):
        rng = np.random.default_rng(7)
        geo = ArrayGeometry(32, 0.25)
        for theta in rng.uniform(0, np.pi, 20):
            slope = 2 * np.pi * geo.spacing_ratio * np.cos(theta)
            diffs = np.mod(np.diff(phase_ramp(theta, geo)), 2 * np.pi)
            assert np.allclose(diffs, slope % (2 * np.pi), atol=1e-11)

    def test_mirror_angles_share_slope_magnitude(self):
        # theta and pi - theta give opposite slopes of equal magnitude
        geo = ArrayGeometry(16, 0.25)
        for theta in (0.2, 0.7, 1.2):
            d1 = np.mod(np.diff(phase_ramp(theta, geo)), 2 * np.pi)
            d2 = np.mod(np.diff(phase_ramp(np.pi - theta, geo)), 2 * np.pi)
            m1 = np.minimum(d1, 2 * np.pi - d1)
            m2 = np.minimum(d2, 2 * np.pi - d2)
            assert np.allclose(m1, m2, atol=1e-10)
            assert not np.allclose(d1, d2)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            phase_ramp(np.inf, QUARTER)


def spread_std(beta, s):
    """Spatial standard deviation r of a one-antenna cluster of power beta, spread s."""
    cluster = ClusterSpec(direction=0.0, spread_fraction=s, mean_power=beta)
    return build_spatial_pair(cluster, ArrayGeometry(1)).r[0]


class TestSpreadToStd:
    def test_endpoints(self):
        assert spread_std(1.0, 1.0) == 1.0
        assert spread_std(1.0, 0.0) == 0.0

    def test_mid_value_closes_power_budget(self):
        r = spread_std(0.64, 0.5)
        assert np.isclose(r, 0.4, atol=1e-15)
        assert np.isclose(0.64 - r ** 2, 0.48, atol=1e-15)

    def test_monotone_in_spread(self):
        values = [spread_std(2.5, s) for s in np.linspace(0, 1, 21)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("beta,s", [(1.0, -0.1), (1.0, 1.5), (0.0, 0.5), (-2.0, 0.5)])
    def test_rejects_out_of_range(self, beta, s):
        with pytest.raises(ValueError):
            ClusterSpec(direction=0.0, spread_fraction=s, mean_power=beta)


class TestBuildSpatialPair:
    def test_fully_random_limit(self):
        pair = build_spatial_pair(ClusterSpec(direction=0.3, spread_fraction=1.0),
                                  QUARTER)
        assert np.allclose(pair.p, 0.0)
        assert np.allclose(pair.r, 1.0)

    def test_fully_deterministic_ramp(self):
        pair = build_spatial_pair(ClusterSpec(direction=0.0, spread_fraction=0.0),
                                  QUARTER)
        expected = np.exp(1j * np.array([0, np.pi / 2, np.pi, 3 * np.pi / 2]))
        assert np.allclose(pair.p, expected, atol=1e-12)
        assert np.allclose(pair.r, 0.0)

    def test_small_spread_magnitudes(self):
        pair = build_spatial_pair(ClusterSpec(direction=1.0, spread_fraction=0.1),
                                  QUARTER)
        assert np.allclose(np.abs(pair.p), np.sqrt(0.99))
        assert np.allclose(pair.r, 0.1)

    def test_power_budget_random_inputs(self):
        rng = np.random.default_rng(11)
        geo = ArrayGeometry(8, 0.25)
        for _ in range(100):
            beta = rng.uniform(0.05, 20.0)
            s = rng.uniform(0.0, 1.0)
            theta = rng.uniform(0.0, np.pi)
            pair = build_spatial_pair(
                ClusterSpec(direction=theta, spread_fraction=s, mean_power=beta), geo)
            rel = np.abs(pair.power - beta) / beta
            assert rel.max() <= 1e-12

    def test_per_antenna_power_vector(self):
        beta = np.linspace(0.5, 1.5, 4)
        pair = build_spatial_pair(
            ClusterSpec(direction=0.4, spread_fraction=0.3, mean_power=beta), QUARTER)
        assert np.allclose(pair.power, beta, rtol=1e-13)

    def test_random_direction_needs_a_draw(self):
        cluster = ClusterSpec(direction="random", spread_fraction=0.2)
        with pytest.raises(ValueError, match="random"):
            build_spatial_pair(cluster, QUARTER)

    def test_phase_offset_preserves_power_and_slope(self):
        cluster = ClusterSpec(direction=0.9, spread_fraction=0.4, mean_power=2.0)
        base = build_spatial_pair(cluster, QUARTER)
        shifted = build_spatial_pair(cluster, QUARTER, phase_offset=1.234)
        assert np.allclose(shifted.power, 2.0, rtol=1e-13)
        assert np.allclose(shifted.p, base.p * np.exp(1j * 1.234))


class TestSpecValidation:
    def test_geometry(self):
        with pytest.raises(ValueError):
            ArrayGeometry(0)
        with pytest.raises(ValueError):
            ArrayGeometry(4, -0.25)
        with pytest.raises(ValueError, match="n_antennas"):
            ArrayGeometry(n_antennas=True)

    def test_cluster(self):
        with pytest.raises(ValueError):
            ClusterSpec(direction=3.5, spread_fraction=0.5)  # outside [0, pi)
        with pytest.raises(ValueError):
            ClusterSpec(direction=0.5, spread_fraction=1.5)
        with pytest.raises(ValueError):
            ClusterSpec(direction=0.5, spread_fraction=0.5, mean_power=0.0)
        with pytest.raises(ValueError):
            ClusterSpec(direction="sideways", spread_fraction=0.5)

    def test_user_and_grid(self):
        with pytest.raises(ValueError):
            UserSpec(clusters=())
        with pytest.raises(ValueError):
            ResourceGrid(t_max=0)
        with pytest.raises(ValueError, match="t_max"):
            ResourceGrid(t_max=True)
        user = UserSpec(clusters=(ClusterSpec(direction=0.1, spread_fraction=0.2,
                                              mean_power=0.6),
                                  ClusterSpec(direction=0.2, spread_fraction=0.3,
                                              mean_power=0.4)))
        assert np.allclose(user.total_power(4), 1.0)

    def test_spatial_pair_rejects_negative_std(self):
        with pytest.raises(ValueError):
            SpatialPair(p=np.zeros(3, complex), r=np.array([0.1, -0.2, 0.3]))
