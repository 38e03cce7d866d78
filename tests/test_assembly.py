"""Tests for channel assembly and uplink frame synthesis."""

import numpy as np
import pytest

from blockfade import (ArrayGeometry, ChannelBlock, ClusterSpec, CorrelationSpec,
                       ResourceGrid, UplinkFrame, assemble_channel,
                       build_spatial_pair, qpsk_symbols, sample_q_block,
                       substream, synthesize_uplink)

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
        with pytest.raises(ValueError):
            ChannelBlock(h=np.array([[np.inf + 0j]]))
        pairs, qgrids = _pairs_and_grids([0.5], [0.3], substream(5, 1))
        qgrids[0][0][1, 1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            assemble_channel(pairs, qgrids)


class TestSynthesizeUplink:
    def _block(self, rng, n=4, k=2):
        h = np.asarray(sample_q_block(CorrelationSpec.none(), ResourceGrid(), n * k, rng)
                       ).reshape(n, k)
        return ChannelBlock(h=h)

    def test_noiseless_exact(self):
        rng = substream(6, 0)
        block = self._block(rng)
        x = qpsk_symbols(2, 16, rng)
        frame = synthesize_uplink(block, x, 0.0, rng)
        assert np.array_equal(frame.y, block.h @ x)

    def test_identity_pilots_recover_columns(self):
        rng = substream(6, 1)
        block = self._block(rng, n=5, k=3)
        frame = synthesize_uplink(block, np.eye(3, dtype=complex), 0.0, rng)
        assert np.array_equal(frame.y, block.h)

    def test_received_power_accounting(self):
        # E|y|^2 = K + sigma^2 for unit-power channel and symbols
        rng = substream(6, 2)
        k, n, t, frames = 4, 10, 250, 40
        noise_var = 0.1
        total = 0.0
        count = 0
        for _ in range(frames):
            block = self._block(rng, n=n, k=k)
            frame = synthesize_uplink(block, qpsk_symbols(k, t, rng), noise_var, rng)
            total += np.sum(np.abs(frame.y) ** 2)
            count += frame.y.size
        mean_power = total / count
        assert abs(mean_power - (k + noise_var)) <= 0.03 * (k + noise_var)

    def test_linearity(self):
        rng = substream(6, 3)
        block = self._block(rng)
        x1 = qpsk_symbols(2, 8, rng)
        x2 = qpsk_symbols(2, 8, rng)
        y12 = synthesize_uplink(block, x1 + x2, 0.0, rng).y
        y1 = synthesize_uplink(block, x1, 0.0, rng).y
        y2 = synthesize_uplink(block, x2, 0.0, rng).y
        assert np.allclose(y12, y1 + y2, atol=1e-12)

    def test_validation(self):
        rng = substream(6, 4)
        block = self._block(rng)
        with pytest.raises(ValueError):
            synthesize_uplink(block, qpsk_symbols(3, 8, rng), 0.0, rng)  # K mismatch
        with pytest.raises(ValueError):
            synthesize_uplink(block, qpsk_symbols(2, 8, rng), -0.1, rng)
        with pytest.raises(ValueError):
            # long frame with off-unit mean symbol power
            UplinkFrame(y=np.zeros((2, 128), complex),
                        x=1.2 * qpsk_symbols(2, 128, rng), noise_var=0.0)
        # unit-modulus alphabets pass exactly
        UplinkFrame(y=np.zeros((2, 128), complex), x=qpsk_symbols(2, 128, rng),
                    noise_var=0.0)
