"""Tests for the deterministic spatial structure (geometry, clusters, pairs)
and for adding links into the channel tensor."""

import numpy as np
import pytest

from blockfade import (ArrayGeometry, ClusterSpec, CorrelationSpec, ResourceGrid,
                       ScenarioConfig, UserSpec, run_scenario, substream)
from blockfade.model import link_means, link_table, phase_ramps
from blockfade.stochastic import sample_link_grids

QUARTER = ArrayGeometry(n_antennas=4, spacing_ratio=0.25)


def spatial_pair(cluster, geometry, phase_offset=0.0):
    """(p, r) of one fixed-direction cluster: a one-link table and its means."""
    table = link_table((UserSpec(clusters=(cluster,)),), geometry)
    return link_means(table, [phase_offset])[0], table.r[0]


def power(p, r):
    return np.abs(p) ** 2 + r ** 2


class TestPhaseRamp:
    def test_broadside_is_flat(self):
        ramp = phase_ramps([np.pi / 2], QUARTER)[0]
        assert np.allclose(ramp, 0.0, atol=1e-12)

    def test_endfire_quarter_wavelength(self):
        # slope (pi/2)*cos(0) = pi/2 at quarter-wavelength spacing
        ramp = phase_ramps([0.0], QUARTER)[0]
        assert np.allclose(ramp, [0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-12)

    def test_sixty_degree_slope(self):
        ramp = phase_ramps([np.pi / 3], ArrayGeometry(3, 0.25))[0]
        assert np.allclose(ramp, [0, np.pi / 4, np.pi / 2], atol=1e-12)

    def test_range_and_general_spacing(self):
        geo = ArrayGeometry(64, 0.5)
        for theta in (0.0, 1.0, 2.5, 100.0, -7.0):
            ramp = phase_ramps([theta], geo)[0]
            assert ramp.shape == (64,)
            assert (ramp >= 0).all() and (ramp < 2 * np.pi).all()

    def test_adjacent_differences_equal_slope(self):
        rng = np.random.default_rng(7)
        geo = ArrayGeometry(32, 0.25)
        for theta in rng.uniform(0, np.pi, 20):
            slope = 2 * np.pi * geo.spacing_ratio * np.cos(theta)
            diffs = np.mod(np.diff(phase_ramps([theta], geo)[0]), 2 * np.pi)
            assert np.allclose(diffs, slope % (2 * np.pi), atol=1e-11)

    def test_mirror_angles_share_slope_magnitude(self):
        # theta and pi - theta give opposite slopes of equal magnitude
        geo = ArrayGeometry(16, 0.25)
        for theta in (0.2, 0.7, 1.2):
            d1 = np.mod(np.diff(phase_ramps([theta], geo)[0]), 2 * np.pi)
            d2 = np.mod(np.diff(phase_ramps([np.pi - theta], geo)[0]), 2 * np.pi)
            m1 = np.minimum(d1, 2 * np.pi - d1)
            m2 = np.minimum(d2, 2 * np.pi - d2)
            assert np.allclose(m1, m2, atol=1e-10)
            assert not np.allclose(d1, d2)


def spread_std(beta, s):
    """Spatial standard deviation r of a one-antenna cluster of power beta, spread s."""
    cluster = ClusterSpec(direction=0.0, spread_fraction=s, mean_power=beta)
    return spatial_pair(cluster, ArrayGeometry(1))[1][0]


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
        p, r = spatial_pair(ClusterSpec(direction=0.3, spread_fraction=1.0), QUARTER)
        assert np.allclose(p, 0.0)
        assert np.allclose(r, 1.0)

    def test_fully_deterministic_ramp(self):
        p, r = spatial_pair(ClusterSpec(direction=0.0, spread_fraction=0.0), QUARTER)
        expected = np.exp(1j * np.array([0, np.pi / 2, np.pi, 3 * np.pi / 2]))
        assert np.allclose(p, expected, atol=1e-12)
        assert np.allclose(r, 0.0)

    def test_small_spread_magnitudes(self):
        p, r = spatial_pair(ClusterSpec(direction=1.0, spread_fraction=0.1), QUARTER)
        assert np.allclose(np.abs(p), np.sqrt(0.99))
        assert np.allclose(r, 0.1)

    def test_power_budget_random_inputs(self):
        rng = np.random.default_rng(11)
        geo = ArrayGeometry(8, 0.25)
        for _ in range(100):
            beta = rng.uniform(0.05, 20.0)
            s = rng.uniform(0.0, 1.0)
            theta = rng.uniform(0.0, np.pi)
            p, r = spatial_pair(
                ClusterSpec(direction=theta, spread_fraction=s, mean_power=beta), geo)
            rel = np.abs(power(p, r) - beta) / beta
            assert rel.max() <= 1e-12

    def test_per_antenna_power_vector(self):
        beta = np.linspace(0.5, 1.5, 4)
        p, r = spatial_pair(
            ClusterSpec(direction=0.4, spread_fraction=0.3, mean_power=beta), QUARTER)
        assert np.allclose(power(p, r), beta, rtol=1e-13)

    def test_phase_offset_preserves_power_and_slope(self):
        cluster = ClusterSpec(direction=0.9, spread_fraction=0.4, mean_power=2.0)
        base, _ = spatial_pair(cluster, QUARTER)
        shifted, r = spatial_pair(cluster, QUARTER, phase_offset=1.234)
        assert np.allclose(power(shifted, r), 2.0, rtol=1e-13)
        assert np.allclose(shifted, base * np.exp(1j * 1.234))


class TestLinkMeans:
    """link_means of a table mixing fixed and "random" links, per-antenna powers
    and zero-amplitude (spread 1) links, over a leading chunk axis."""

    GEOMETRY = ArrayGeometry(n_antennas=5, spacing_ratio=0.3)
    # (direction, spread, power) per cluster of two users
    USERS = (((0.4, 0.3, tuple(np.linspace(0.5, 1.5, 5))), ("random", 0.5, 2.0),
              (1.1, 1.0, 1.0)),
             (("random", 1.0, 2.0), (2.0, 0.0, 0.7), ("random", 0.2, (1.0, 3.0, 0.5, 2.0, 1.0))))

    def _table(self):
        users = tuple(UserSpec(clusters=tuple(ClusterSpec(d, s, b) for d, s, b in user))
                      for user in self.USERS)
        return link_table(users, self.GEOMETRY)

    def test_matches_closed_form(self):
        table = self._table()
        clusters = [c for user in self.USERS for c in user]
        rng = np.random.default_rng(8)
        phases = rng.uniform(0.0, 2 * np.pi, (3, len(clusters)))
        directions = rng.uniform(0.0, np.pi, (3, 3))
        out = np.full((3, len(clusters), 5), np.nan, dtype=complex)
        p = link_means(table, phases, directions, out=out)
        assert p is out
        theta = iter(directions.T)
        for link, (d, s, b) in enumerate(clusters):
            beta = np.broadcast_to(np.asarray(b, dtype=float), 5)
            amp = np.sqrt(np.maximum(beta - (s * np.sqrt(beta)) ** 2, 0.0))
            ramp = phase_ramps(next(theta) if d == "random" else [d] * 3, self.GEOMETRY)
            want = amp * np.exp(1j * (ramp + phases[:, link, None]))
            # ramp + phase < 4*pi is rounded to within 4 eps, then exp adds a few ulp
            assert np.all(np.abs(p[:, link] - want) <= 8 * np.finfo(float).eps * amp), link
            if s == 1.0:
                assert (p[:, link] == 0).all()  # zero amplitude: exactly 0
        assert np.isfinite(p).all()

    def test_random_links_bit_for_bit(self):
        # the random links' means, formed in one pass, hold the bits of each link's
        # own ramp plus phase, through exp(1j * ...), times |p|
        table = self._table()
        clusters = [c for user in self.USERS for c in user]
        rng = np.random.default_rng(9)
        phases = rng.uniform(0.0, 2 * np.pi, (4, len(clusters)))
        directions = rng.uniform(0.0, np.pi, (4, 3))
        p = link_means(table, phases, directions)
        links = [link for link, (d, _, _) in enumerate(clusters) if d == "random"]
        assert len(links) == 3
        for theta, link in zip(directions.T, links):
            _, s, b = clusters[link]
            beta = np.broadcast_to(np.asarray(b, dtype=float), 5)
            amp = np.sqrt(np.maximum(beta - (s * np.sqrt(beta)) ** 2, 0.0))
            want = amp * np.exp(1j * (phase_ramps(theta, self.GEOMETRY) + phases[:, link, None]))
            assert np.array_equal(p[:, link].view(np.uint64), want.view(np.uint64)), link

    @pytest.mark.parametrize("count", [0, 1, 2, 4])
    def test_direction_count_must_match(self, count):
        # one direction per random link: a count of 1 would otherwise broadcast
        with pytest.raises(ValueError, match="directions"):
            link_means(self._table(), np.zeros((2, 6)), np.ones((2, count)))
        with pytest.raises(ValueError, match="directions"):
            link_means(self._table(), np.zeros(6), np.ones(count))

    def test_phasor_is_read_only(self):
        table = self._table()
        with pytest.raises(ValueError):
            table.phasor[0, 0] = 1.0
        assert not table.r.flags.writeable


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


GEO = ArrayGeometry(n_antennas=4, spacing_ratio=0.25)
GRID = ResourceGrid(t_max=2, f_max=3)


def _user(spreads, directions, betas=None):
    betas = betas or [1.0] * len(spreads)
    return UserSpec(clusters=tuple(ClusterSpec(direction=d, spread_fraction=s, mean_power=b)
                                   for s, d, b in zip(spreads, directions, betas)))


def _channels(user, seed, geometry=GEO, grid=GRID, realizations=1):
    """(R, t_max, f_max, N) channels of one user, from the realization kernel."""
    config = ScenarioConfig(seed=seed, geometry=geometry, users=(user,), grid=grid,
                            realizations=realizations, outputs=("raw-channel",))
    return run_scenario(config).artifacts["raw-channel"][..., 0]


def _spatial(user, seed, index=0, geometry=GEO):
    """The link table of ``user``, realization ``index``'s means (L, N) and its stream
    after the spatial draw: directions pi * u and phases 2*pi * u, as the kernel."""
    table = link_table((user,), geometry)
    rng = substream(seed, index)
    u = rng.random(len(table.phase_at) + len(table.direction_at))
    return table, link_means(table, 2 * np.pi * u[table.phase_at],
                             np.pi * u[table.direction_at]), rng


class TestAddLinks:
    """Adding a user's links into the channel tensor: the column of every RB is the
    sum of its grids r * z plus the sum of its means, as the kernel builds it."""

    def test_deterministic_limit_constant_over_blocks(self):
        user = _user([0.0, 0.0], [0.3, 1.1], betas=[0.6, 0.4])
        _, p, _ = _spatial(user, 1)
        expected = p[0] + p[1]
        h = _channels(user, 1)[0]
        for t in (1, 2):
            for f in (1, 2, 3):
                assert np.array_equal(h[t - 1, f - 1], expected)

    def test_single_unit_cluster_reduces_to_grid(self):
        user = _user([1.0], [0.5])
        table, _, rng = _spatial(user, 1)
        q = sample_link_grids(CorrelationSpec.none(), GRID, GEO.n_antennas, 1, rng,
                              variance=table.r ** 2)
        h = _channels(user, 1)[0][2 - 1, 3 - 1]
        assert np.array_equal(h, q[0][:, 1, 2])

    def test_block_fading_varies_only_across_rb_indices(self):
        user = _user([0.5], [0.7])
        again = _channels(user, 2)[0][0, 0]
        first = _channels(user, 2)[0][0, 0]
        other = _channels(user, 2)[0][0, 1]
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)

    def test_small_spread_moments(self):
        # 10^4 realizations of a single-antenna link, each turned back by its cluster
        # phase: mean -> p, std -> r
        cluster = ClusterSpec(direction=0.8, spread_fraction=0.1)
        geometry = ArrayGeometry(n_antennas=1)
        p, r = spatial_pair(cluster, geometry)
        user = UserSpec(clusters=(cluster,))
        h = _channels(user, 2, geometry=geometry, grid=ResourceGrid(), realizations=10 ** 4)
        phases = [2 * np.pi * substream(2, m).random() for m in range(10 ** 4)]
        samples = h[:, 0, 0, 0] * np.exp(-1j * np.array(phases))
        assert abs(samples.mean() - p[0]) <= 0.01
        std = np.sqrt(np.mean(np.abs(samples - samples.mean()) ** 2))
        assert abs(std - 0.1) <= 0.005

    def test_power_conservation_with_cluster_phases(self):
        # multi-cluster link: random per-realization cluster phases keep
        # E|h|^2 at the summed cluster powers
        user = _user([0.3, 0.6], [0.4, 0.9], betas=[0.7, 0.5])
        m = 10 ** 4
        h = _channels(user, 3, geometry=ArrayGeometry(n_antennas=2), grid=ResourceGrid(),
                      realizations=m)
        acc = np.mean(np.abs(h[:, 0, 0]) ** 2, axis=0)
        assert np.abs(acc - 1.2).max() <= 0.03 * 1.2
