"""Tests for Gram statistics, eigenvalues, CDFs, histograms, and profiles."""

import numpy as np
import pytest

from blockfade import (ArrayGeometry, ClusterSpec, NumericalError, UserSpec,
                       coefficient_histogram, eigenvalues_hermitian, empirical_cdf, gram,
                       power_profile, substream)
from blockfade.analytics import average_correlation, pairwise_correlation
from blockfade.emit import ecdf_rows
from blockfade.model import link_means, link_table
from blockfade.stochastic import link_normals


def _ramp_matrix(n, slopes, amplitude=1.0):
    """Columns are ideal phase ramps with the given slopes."""
    idx = np.arange(n)[:, None]
    return amplitude * np.exp(1j * idx * np.asarray(slopes)[None, :])


class TestGram:
    def test_orthogonal_ramps_give_identity(self):
        # DFT slopes are exactly orthogonal
        n, k = 8, 4
        h = _ramp_matrix(n, 2 * np.pi * np.arange(k) / n)
        g = gram(h)
        assert np.allclose(g, np.eye(k), atol=1e-12)
        assert np.allclose(g.diagonal(), 1.0)
        assert np.allclose(np.abs(g[np.triu_indices(k, 1)]), 0.0, atol=1e-12)

    def test_dirichlet_kernel_closed_form(self):
        rng = np.random.default_rng(5)
        n = 64
        for delta in rng.uniform(0.05, np.pi / 2, 10):
            h = _ramp_matrix(n, [0.0, delta])
            g12 = np.abs(gram(h)[0, 1])
            expected = abs(np.sin(n * delta / 2) / (n * np.sin(delta / 2)))
            assert abs(g12 - expected) <= 1e-12

    def test_iid_offdiag_second_moment(self):
        n, k, m = 128, 2, 1000
        rng = substream(8, 0)
        vals = np.empty(m)
        for i in range(m):
            h = link_normals(rng, 1, (n, k))[0]
            vals[i] = np.abs(gram(h)[0, 1]) ** 2
        assert abs(vals.mean() - 1 / n) <= 0.1 / n

    def test_hermitian_closure_and_trace(self):
        rng = substream(8, 1)
        h = link_normals(rng, 1, (16, 5))[0]
        g = gram(h)
        assert np.array_equal(g, g.conj().T)
        trace = g.trace().real
        assert abs(trace - np.linalg.norm(h) ** 2 / 16) <= 1e-10 * max(1.0, trace)


class TestEigenvaluesHermitian:
    def test_diagonal(self):
        assert np.allclose(eigenvalues_hermitian(np.diag([3.0, 1.0])), [1, 3])

    def test_complex_two_by_two(self):
        g = np.array([[2, 1j], [-1j, 2]])
        assert np.allclose(eigenvalues_hermitian(g), [1, 3], atol=1e-12)

    def test_identity_is_degenerate_unity(self):
        assert np.allclose(eigenvalues_hermitian(np.eye(6)), np.ones(6))

    @pytest.mark.parametrize("k", [2, 3])
    def test_characteristic_polynomial_oracle(self, k):
        # independent oracle: roots of the explicitly expanded char poly
        rng = np.random.default_rng(12)
        for _ in range(10):
            x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            g = x + x.conj().T
            coeffs = np.poly(g)  # characteristic polynomial coefficients
            roots = np.sort(np.roots(coeffs).real)
            assert np.allclose(eigenvalues_hermitian(g), roots, atol=1e-8)

    def test_matches_reference_solver(self):
        rng = np.random.default_rng(13)
        for k in (4, 6, 9):
            x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            g = (x + x.conj().T) / 2
            assert np.allclose(eigenvalues_hermitian(g),
                               np.sort(np.linalg.eigvalsh(g)), atol=1e-9)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((48, 4)) + 1j * rng.standard_normal((48, 4))
        base = eigenvalues_hermitian(gram(x))
        scaled = eigenvalues_hermitian(gram(2.5 * x))
        assert np.allclose(scaled, 2.5 ** 2 * base, rtol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NumericalError, match="Hermitian"):
            eigenvalues_hermitian(np.array([[1.0, 2.0], [0.5, 1.0]]))
        with pytest.raises(NumericalError, match="finite"):
            eigenvalues_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_trace_preserved(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((7, 7))
        g = x + x.T
        eig = eigenvalues_hermitian(g)
        assert abs(eig.sum() - np.trace(g)) <= 1e-10 * max(1.0, abs(np.trace(g)))


class TestEmpiricalCDF:
    # empirical_cdf returns the sorted samples; the CSV rows (value, cdf)
    # at the unique values come from emit.ecdf_rows
    def test_point_mass(self):
        assert list(ecdf_rows(empirical_cdf([1, 1, 1]))) == ["1,1"]

    def test_step_midpoint(self):
        cdf = empirical_cdf([4, 2, 3, 1])
        assert np.array_equal(cdf, [1.0, 2.0, 3.0, 4.0])
        assert (cdf <= 2.5).mean() == 0.5

    def test_exponential_median(self):
        q = link_normals(substream(16, 0), 1, (10 ** 4,))[0]
        cdf = empirical_cdf(np.abs(q) ** 2)
        assert abs((cdf <= np.log(2)).mean() - 0.5) <= 0.02

    def test_points_deduplicate(self):
        rows = list(ecdf_rows(empirical_cdf([2.0, 1.0, 2.0])))
        assert rows == ["1,0.33333333333333331", "2,1"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])


class TestUserCorrelation:
    @staticmethod
    def user_correlation(h):
        return average_correlation(pairwise_correlation(h))

    def test_identical_users(self):
        h = link_normals(substream(17, 0), 1, (8, 1))[0]
        corr = self.user_correlation(np.hstack([h, h])[None])
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert corr[0, 0] == 1.0

    def test_full_period_slope_offset_is_orthogonal(self):
        n = 32
        h = _ramp_matrix(n, [0.0, 2 * np.pi / n])
        corr = self.user_correlation(h[None])
        assert corr[0, 1] <= 1e-10

    def test_degenerate_user_rejected(self):
        h = np.zeros((4, 2), complex)
        h[:, 0] = 1.0
        with pytest.raises(NumericalError, match="zero-norm"):
            self.user_correlation(h[None])

    def test_contraction_with_antenna_count(self):
        # same seeds, more antennas -> lower mean cross-correlation
        def mean_corr(n):
            rng = substream(18, n)
            h = np.stack([link_normals(rng, 1, (n, 2))[0] for _ in range(300)])
            corr = self.user_correlation(h)
            return corr[~np.eye(2, dtype=bool)].mean()
        assert mean_corr(128) < mean_corr(20)


class TestCoefficientHistogram:
    def test_single_point_upper_quadrant(self):
        hist = coefficient_histogram(np.array([1 + 0j]), bins_per_axis=2)
        assert hist["counts"].sum() == 1
        assert hist["counts"][1, 1] == 1

    def test_deterministic_ring(self):
        cluster = ClusterSpec(direction=0.7, spread_fraction=0.0, mean_power=0.81)
        table = link_table((UserSpec(clusters=(cluster,)),), ArrayGeometry(n_antennas=256))
        hist = coefficient_histogram(link_means(table, [0.0])[0], bins_per_axis=32)
        edges = hist["edges"]
        diag = np.hypot(edges[1] - edges[0], edges[1] - edges[0])
        centers = 0.5 * (edges[:-1] + edges[1:])
        rc, ic = np.meshgrid(centers, centers, indexing="ij")
        radii = np.hypot(rc, ic)[hist["counts"] > 0]
        assert np.abs(radii - 0.9).max() <= diag

    def test_counts_cover_all_samples(self):
        q = link_normals(substream(19, 0), 1, (5000,))[0]
        hist = coefficient_histogram(q, bins_per_axis=16)
        assert hist["counts"].sum() == 5000
        assert hist["edges"][0] == -hist["edges"][-1]

    def test_validation(self):
        with pytest.raises(ValueError):
            coefficient_histogram([])
        with pytest.raises(ValueError):
            coefficient_histogram([1 + 1j], bins_per_axis=0)


class TestPowerProfile:
    def test_flat_iid_profile(self):
        rng = substream(20, 0)
        blocks = [link_normals(rng, 1, (8, 3))[0] for _ in range(10 ** 4)]
        profile = power_profile(blocks)
        assert profile.shape == (8, 3)
        assert np.abs(profile - 1.0).max() <= 0.05

    def test_fully_deterministic_single_cluster(self):
        beta = np.linspace(0.5, 1.5, 6)
        cluster = ClusterSpec(direction=0.3, spread_fraction=0.0, mean_power=beta)
        table = link_table((UserSpec(clusters=(cluster,)),), ArrayGeometry(n_antennas=6))
        blocks = [link_means(table, [0.0])[0][:, None]] * 50
        assert np.allclose(power_profile(blocks)[:, 0], beta, rtol=1e-12)

