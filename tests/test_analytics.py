"""Tests for Gram statistics, eigenvalues, CDFs, histograms, and profiles."""

import tracemalloc

import numpy as np
import pytest

from blockfade import (ArrayGeometry, ClusterSpec, NumericalError, UserSpec,
                       coefficient_histogram, eigenvalues_hermitian, empirical_cdf, gram,
                       power_profile, substream)
from blockfade.analytics import HISTOGRAM_BLOCK, gram_correlation, ordered_mean
from blockfade.emit import ecdf_rows
from blockfade.model import link_means, link_table
from blockfade.stochastic import complex_normals


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
            h = complex_normals(rng.random((2, n, k)))
            vals[i] = np.abs(gram(h)[0, 1]) ** 2
        assert abs(vals.mean() - 1 / n) <= 0.1 / n

    # one matrix, a (t_max, f_max) stack, K > N and N = 1
    @pytest.mark.parametrize("shape", [(16, 5), (3, 4, 16, 5), (2, 3, 7), (6, 1, 4)],
                             ids=["matrix", "stack", "k-above-n", "n-one"])
    def test_hermitian_closure_and_trace(self, shape):
        # bitwise Hermitian, so every |G_ij| / (d_i d_j) of a run is bitwise symmetric
        rng = substream(8, 1)
        h = complex_normals(rng.random((2,) + shape))
        g = gram(h)
        assert np.array_equal(g, g.conj().swapaxes(-1, -2))
        trace = g.diagonal(axis1=-2, axis2=-1).real.sum(axis=-1)
        norms = (np.abs(h) ** 2).sum(axis=(-2, -1)) / shape[-2]
        assert (np.abs(trace - norms) <= 1e-10 * np.maximum(1.0, trace)).all()


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
        assert ecdf_rows(empirical_cdf([1, 1, 1])) == "1,1\n"

    def test_step_midpoint(self):
        cdf = empirical_cdf([4, 2, 3, 1])
        assert np.array_equal(cdf, [1.0, 2.0, 3.0, 4.0])
        assert (cdf <= 2.5).mean() == 0.5

    def test_exponential_median(self):
        q = complex_normals(substream(16, 0).random((2, 10 ** 4)))
        cdf = empirical_cdf(np.abs(q) ** 2)
        assert abs((cdf <= np.log(2)).mean() - 0.5) <= 0.02

    def test_points_deduplicate(self):
        rows = ecdf_rows(empirical_cdf([2.0, 1.0, 2.0])).splitlines()
        assert rows == ["1,0.33333333333333331", "2,1"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])


def _two_products(h) -> np.ndarray:
    """The oracle: |h_i^H h_j| / (|h_i| |h_j|) from the inner products and the
    column norms, with no Gram matrix."""
    inner = np.abs(np.conj(h).swapaxes(-1, -2) @ h)
    norms = np.linalg.norm(h, axis=-2)
    return inner / (norms[..., :, None] * norms[..., None, :])


class TestGramCorrelation:
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("shape", [(3, 20, 4), (2, 5, 128, 6), (64, 8, 3), (7, 1, 5)],
                             ids=["stack", "multi-rb", "small-n", "k-above-n"])
    def test_matches_two_products(self, shape):
        # users' powers 1e-3..1e3 apart; at N = 1 every pair correlates fully
        rng = substream(25, len(shape))
        h = complex_normals(rng.random((2,) + shape)) * 10.0 ** rng.integers(-3, 4, shape[-1])
        got, want = gram_correlation(gram(h)), _two_products(h)
        off = ~np.eye(shape[-1], dtype=bool)
        # a few ulp of 1, the scale of a correlation
        assert np.abs(got - want)[..., off].max() <= 4 * self.EPS
        assert got[..., off].max() <= 1 + 4 * self.EPS
        assert np.abs(got[..., ~off] - 1).max() <= 2 * self.EPS

    def test_parallel_users_stay_at_one(self):
        # exact copies, scaled by powers of two and by 1j: Cauchy-Schwarz holds to 4 ulp
        h = complex_normals(substream(26, 0).random((2, 50, 64, 1)))
        h = np.concatenate([h, 2.0 ** -20 * h, 2.0 ** 30j * h, -1j * h], axis=-1)
        got = gram_correlation(gram(h))
        assert np.abs(got - 1).max() <= 4 * self.EPS

    def test_zero_norm_user_rejected(self):
        h = complex_normals(substream(27, 0).random((2, 4, 16, 3)))
        h[2, :, 1] = 0.0
        with pytest.raises(NumericalError, match="user 1 has a zero-norm"):
            gram_correlation(gram(h))


class TestUserCorrelation:
    @staticmethod
    def user_correlation(h):
        return ordered_mean(gram_correlation(gram(h)))

    def test_identical_users(self):
        h = complex_normals(substream(17, 0).random((2, 8, 1)))
        corr = self.user_correlation(np.hstack([h, h])[None])
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)

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
            h = np.stack([complex_normals(rng.random((2, n, 2))) for _ in range(300)])
            corr = self.user_correlation(h)
            return corr[~np.eye(2, dtype=bool)].mean()
        assert mean_corr(128) < mean_corr(20)


class TestOrderedMean:
    def test_stack_reduces_like_its_rows_as_a_list(self):
        # magnitudes 1e-8..1e8 make the float sum depend on the order of its terms
        rng = substream(21, 0)
        stack = rng.random((97, 3, 2)) * 10.0 ** rng.integers(-8, 9, (97, 3, 2))
        by_rows = ordered_mean(list(stack))
        assert ordered_mean(stack).tobytes() == by_rows.tobytes()
        acc = np.zeros((3, 2))
        for row in stack:
            acc = acc + row
        assert (acc / len(stack)).tobytes() == by_rows.tobytes()


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
        q = complex_normals(substream(19, 0).random((2, 5000)))
        hist = coefficient_histogram(q, bins_per_axis=16)
        assert hist["counts"].sum() == 5000
        assert hist["edges"][0] == -hist["edges"][-1]

    @staticmethod
    def _histogram2d(v, bins):
        """The reference: np.histogram2d on the samples' bounding square."""
        half = max(np.abs(v.real).max(), np.abs(v.imag).max()) or 1.0
        edges = np.linspace(-half, half, bins + 1)
        return edges, np.histogram2d(v.real, v.imag, bins=[edges, edges])[0].astype(np.int64)

    @staticmethod
    def _on_every_edge(n, bins, seed):
        """n Gaussians, then every edge of their square (+-half among them) as real and
        as imaginary parts, each paired with a random sample's other part."""
        rng = substream(seed, 0)
        v = complex_normals(rng.random((2, n)))
        half = max(np.abs(v.real).max(), np.abs(v.imag).max())
        edges = np.linspace(-half, half, bins + 1)
        partner = v[rng.integers(0, n, bins + 1)]
        return np.concatenate([v, edges + 1j * partner.imag, partner.real + 1j * edges])

    @pytest.mark.parametrize("v, bins", [
        (None, 7),  # several blocks and a partial one, samples on every edge
        (None, 160),  # bins**2 above a block: a block spans every bin
        (np.zeros(5, complex), 4),
        (np.array([0.3 - 2j]), 3),
        (np.array([-0.0 - 0.0j, 0.0 - 0.0j, complex(-0.0, 0.0)]), 2),
    ], ids=["edges-and-blocks", "wide-bins", "all-zero", "one-sample", "signed-zeros"])
    def test_matches_histogram2d(self, v, bins):
        if v is None:
            v = self._on_every_edge(3 * max(HISTOGRAM_BLOCK, bins ** 2) + 123, bins, 23)
        hist = coefficient_histogram(v, bins_per_axis=bins)
        edges, counts = self._histogram2d(v, bins)
        assert np.array_equal(hist["edges"], edges)
        assert hist["counts"].dtype == np.int64
        assert np.array_equal(hist["counts"], counts)
        assert hist["counts"].sum() == v.size

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                     complex(0, np.inf), complex(0, -np.inf)])
    def test_non_finite_sample_gives_nan_edges(self, bad):
        # the run's finiteness check then exits 3
        hist = coefficient_histogram(np.array([0.5 + 1j, bad, -2j]), bins_per_axis=4)
        assert np.isnan(hist["edges"]).all() and hist["edges"].shape == (5,)
        assert hist["counts"].shape == (4, 4) and not hist["counts"].any()

    def test_transients_stay_below_a_mebibyte(self):
        # 2**20 samples are 16 MiB; the histogram bins them block by block
        v = complex_normals(substream(24, 0).random((2, 2 ** 20)))
        tracemalloc.start()
        try:
            hist = coefficient_histogram(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hist["counts"].sum() == v.size
        assert peak < 2 ** 20

    def test_validation(self):
        with pytest.raises(ValueError):
            coefficient_histogram([])
        with pytest.raises(ValueError):
            coefficient_histogram([1 + 1j], bins_per_axis=0)


class TestPowerProfile:
    def test_flat_iid_profile(self):
        rng = substream(20, 0)
        blocks = [complex_normals(rng.random((2, 8, 3))) for _ in range(10 ** 4)]
        profile = power_profile(blocks)
        assert profile.shape == (8, 3)
        assert np.abs(profile - 1.0).max() <= 0.05

    def test_fully_deterministic_single_cluster(self):
        beta = np.linspace(0.5, 1.5, 6)
        cluster = ClusterSpec(direction=0.3, spread_fraction=0.0, mean_power=beta)
        table = link_table((UserSpec(clusters=(cluster,)),), ArrayGeometry(n_antennas=6))
        blocks = [link_means(table, [0.0])[0][:, None]] * 50
        assert np.allclose(power_profile(blocks)[:, 0], beta, rtol=1e-12)

