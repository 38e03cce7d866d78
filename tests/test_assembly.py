"""Tests for channel assembly."""

import numpy as np
import pytest

from blockfade import (ArrayGeometry, ClusterSpec, CorrelationSpec, ResourceGrid,
                       assemble_channel, build_spatial_pair, sample_q_block, substream)

GEO = ArrayGeometry(n_antennas=4, spacing_ratio=0.25)
GRID = ResourceGrid(t_max=2, f_max=3)


def _pairs_and_grids(spreads, directions, rng, betas=None, geometry=GEO, grid=GRID):
    betas = betas or [1.0] * len(spreads)
    pairs = [[build_spatial_pair(
        ClusterSpec(direction=d, spread_fraction=s, mean_power=b), geometry)
        for s, d, b in zip(spreads, directions, betas)]]
    qgrids = [[sample_q_block(CorrelationSpec.none(), grid, geometry.n_antennas, rng)
               for _ in spreads]]
    return pairs, qgrids


class TestAssembleChannel:
    def test_deterministic_limit_constant_over_blocks(self):
        rng = substream(1, 0)
        pairs, qgrids = _pairs_and_grids([0.0, 0.0], [0.3, 1.1], rng, betas=[0.6, 0.4])
        expected = pairs[0][0].p + pairs[0][1].p
        h = assemble_channel(pairs, qgrids)
        for t in (1, 2):
            for f in (1, 2, 3):
                assert np.array_equal(h[t - 1, f - 1][:, 0], expected)

    def test_single_unit_cluster_reduces_to_grid(self):
        rng = substream(1, 1)
        pairs, qgrids = _pairs_and_grids([1.0], [0.5], rng)
        h = assemble_channel(pairs, qgrids)[2 - 1, 3 - 1]
        assert np.array_equal(h[:, 0], qgrids[0][0][:, 1, 2])

    def test_block_fading_varies_only_across_rb_indices(self):
        rng = substream(1, 2)
        pairs, qgrids = _pairs_and_grids([0.5], [0.7], rng)
        again = assemble_channel(pairs, qgrids)[0, 0]
        first = assemble_channel(pairs, qgrids)[0, 0]
        other = assemble_channel(pairs, qgrids)[0, 1]
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)

    def test_small_spread_moments(self):
        # 10^4 realizations of a single-antenna link: mean -> p, std -> r
        cluster = ClusterSpec(direction=0.8, spread_fraction=0.1)
        geometry = ArrayGeometry(n_antennas=1)
        grid = ResourceGrid()
        pair = build_spatial_pair(cluster, geometry)
        rng = substream(2, 0)
        samples = np.array([
            assemble_channel([[pair]],
                             [[sample_q_block(CorrelationSpec.none(), grid, 1, rng)]]
                             )[0, 0][0, 0]
            for _ in range(10 ** 4)])
        assert abs(samples.mean() - pair.p[0]) <= 0.01
        std = np.sqrt(np.mean(np.abs(samples - samples.mean()) ** 2))
        assert abs(std - 0.1) <= 0.005

    def test_power_conservation_with_cluster_phases(self):
        # multi-cluster link: random per-realization cluster phases keep
        # E|h|^2 at the summed cluster powers
        geometry = ArrayGeometry(n_antennas=2)
        grid = ResourceGrid()
        clusters = [ClusterSpec(direction=0.4, spread_fraction=0.3, mean_power=0.7),
                    ClusterSpec(direction=0.9, spread_fraction=0.6, mean_power=0.5)]
        rng = substream(3, 0)
        acc = np.zeros(2)
        m = 10 ** 4
        for _ in range(m):
            pairs = [[build_spatial_pair(c, geometry,
                                         phase_offset=rng.uniform(0, 2 * np.pi))
                      for c in clusters]]
            qg = [[sample_q_block(CorrelationSpec.none(), grid, 2, rng)
                   for _ in clusters]]
            acc += np.abs(assemble_channel(pairs, qg)[0, 0][:, 0]) ** 2
        acc /= m
        assert np.abs(acc - 1.2).max() <= 0.03 * 1.2

    def test_dimension_errors(self):
        rng = substream(5, 0)
        pairs, qgrids = _pairs_and_grids([0.5], [0.3], rng)
        with pytest.raises(ValueError):
            assemble_channel(pairs, [])
        bad = [[qgrids[0][0][:2]]]
        with pytest.raises(ValueError):
            assemble_channel(pairs, bad)

    def test_rejects_non_finite(self):
        pairs, qgrids = _pairs_and_grids([0.5], [0.3], substream(5, 1))
        qgrids[0][0][1, 1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            assemble_channel(pairs, qgrids)

