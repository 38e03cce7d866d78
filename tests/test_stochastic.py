"""Tests for covariance construction, factorization, and grid sampling."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockfade import (CorrelationSpec, NumericalError, ResourceGrid, build_covariance,
                       cholesky_psd, substream)
from blockfade.stochastic import (complex_normals, correlate, philox_keys, rekey,
                                  sample_link_grids, seed_pool)


class TestBuildCovariance:
    def test_uncorrelated_is_identity(self):
        sigma = build_covariance(CorrelationSpec.exponential("time", 0.0, 3))
        assert np.array_equal(sigma, np.eye(3))

    def test_exponential_entries(self):
        sigma = build_covariance(CorrelationSpec.exponential("time", 0.5, 3))
        expected = np.array([[1, .5, .25], [.5, 1, .5], [.25, .5, 1]])
        assert np.allclose(sigma, expected, atol=1e-15)

    def test_custom_not_psd_rejected(self):
        # eigenvalues {3, -1}
        with pytest.raises(ValueError, match="eigenvalue"):
            CorrelationSpec.custom("time", np.array([[1., 2.], [2., 1.]]))

    def test_custom_not_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            CorrelationSpec.custom("time", np.array([[1., .5], [.2, 1.]]))

    def test_custom_bad_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            CorrelationSpec.custom("time", np.array([[2., 0.], [0., 2.]]))

    @pytest.mark.parametrize("matrix, message", [
        (5.0, "square"), ([1.0, 0.0], "square"), ([[1.0, 0.5]], "square"),
        ([[1.0, 0.5j], [-0.5j, 1.0]], "real"), ([[1.0, np.nan], [np.nan, 1.0]], "real")])
    def test_custom_must_be_real_and_square(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            CorrelationSpec.custom("time", matrix)

    def test_custom_valid_round_trips(self):
        m = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert np.allclose(build_covariance(CorrelationSpec.custom("frequency", m)), m)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CorrelationSpec(mode="space")
        with pytest.raises(ValueError):
            CorrelationSpec.exponential("time", 1.0, 4)
        with pytest.raises(ValueError):
            CorrelationSpec(mode="time", rho=0.5, matrix=((1.0,),), length=1)
        with pytest.raises(ValueError):
            CorrelationSpec(mode="none", rho=0.5)
        with pytest.raises(ValueError, match="length"):
            CorrelationSpec.exponential("time", 0.5, 2.5)


class TestCholesky:
    def test_identity(self):
        lower = cholesky_psd(np.eye(3))
        assert np.allclose(lower, np.eye(3), atol=1e-10)

    def test_small_example(self):
        sigma = np.array([[4.0, 2.0], [2.0, 5.0]])
        lower = cholesky_psd(sigma)
        assert np.allclose(lower, [[2, 0], [1, 2]], atol=1e-6)
        assert np.abs(lower @ lower.conj().T - sigma).max() <= 1e-10 * np.abs(sigma).max()

    def test_singular_limit_jittered(self):
        sigma = np.ones((2, 2))
        lower = cholesky_psd(sigma)
        assert np.tril(lower, -1).shape  # lower triangular by construction
        assert np.abs(lower @ lower.conj().T - sigma).max() <= 1e-10
        assert lower[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert 0 < lower[1, 1] < 1e-5

    def test_rejects_indefinite(self):
        with pytest.raises(NumericalError, match="pivot"):
            cholesky_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_random_psd_reconstruction(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 9):
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            sigma = b @ b.conj().T
            lower = cholesky_psd(sigma)
            assert np.allclose(np.triu(lower, 1), 0.0)
            assert (np.diag(lower).real >= 0).all()
            assert np.abs(np.diag(lower).imag).max() == 0.0
            err = np.abs(lower @ lower.conj().T - sigma).max()
            assert err <= 1e-10 * np.abs(sigma).max()


class TestComplexNormal:
    def test_moments(self):
        q = complex_normals(substream(17, 0).random((2, 10 ** 5)))
        n = q.size
        assert np.abs(q.mean()) <= 5 / np.sqrt(n)
        assert abs(np.mean(np.abs(q) ** 2) - 1.0) <= 0.02
        # circular symmetry: non-conjugate second moment vanishes
        assert np.abs(np.mean(q ** 2)) <= 5 / np.sqrt(n)
        assert abs(np.var(q.real) - 0.5) <= 0.02
        assert abs(np.var(q.imag) - 0.5) <= 0.02

    def test_quarter_turns_are_exact(self):
        u1 = substream(17, 1).random(4)
        radius = np.sqrt(-np.log(1.0 - u1))
        q = complex_normals(np.stack([u1, [0.0, 0.25, 0.5, 0.75]]))
        assert np.array_equal(q, radius * np.array([1, 1j, -1, -1j]))

    def test_phase_within_two_ulp_of_the_radius(self):
        # random draws, the quarter turns' neighbours 1 ulp away, the ties of rint(4*u2)
        # k/4 +- 1/8 (psi = +-pi/4) and their neighbours 1 ulp away, and the largest
        # uniform below 1, against a long-double exp(2j*pi*u2)
        quarters, ties = np.arange(4) / 4, np.arange(4) / 4 + 1 / 8
        u2 = np.concatenate([substream(17, 2).random(10 ** 5),
                             np.nextafter(quarters, 1.0), np.nextafter(quarters[1:], 0.0),
                             ties, np.nextafter(ties, 0.0), np.nextafter(ties, 1.0),
                             [1.0 - 2.0 ** -53]])
        u1 = substream(17, 3).random(u2.size)
        radius = np.sqrt(-np.log(1.0 - u1))
        q = complex_normals(np.stack([u1, u2]))
        pi = np.arccos(np.longdouble(-1.0))
        exact = radius * np.exp(2j * pi * u2.astype(np.longdouble))
        ulp = np.spacing(radius)
        assert (np.abs(q.real - exact.real) <= 2 * ulp).all()
        assert (np.abs(q.imag - exact.imag) <= 2 * ulp).all()

    def test_turns_and_psi_match_rint(self):
        # k mod 4 and psi as np.rint(4*u2) gives them, bit for bit: random draws, the
        # ties 1/8 + k/4 (half to even), the quarters' neighbours 1 ulp away and the
        # largest uniform below 1
        quarters = np.arange(4) / 4
        u2 = np.concatenate([substream(17, 5).random(10 ** 5), quarters + 1 / 8,
                             np.nextafter(quarters, 1.0), np.nextafter(quarters[1:], 0.0),
                             [1.0 - 2.0 ** -53]])
        u1 = substream(17, 6).random(u2.size)
        q = complex_normals(np.stack([u1, u2]))
        k = np.rint(4.0 * u2)
        psi = (4.0 * u2 - k) * (np.pi / 2)
        # r sin psi, and r cos psi taken as r - tan(psi/2) * r sin psi
        radius = np.sqrt(-np.log(1.0 - u1))
        rs = radius * np.sin(psi)
        rc = radius - np.tan(psi / 2) * rs
        turn = k.astype(int) % 4
        for got, want in ((q.real, np.choose(turn, [rc, -rs, -rc, rs])),
                          (q.imag, np.choose(turn, [rs, rc, -rs, -rc]))):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_variance_folds_into_the_radius(self):
        # per-antenna r, the first 0: a spread-0 link's grid is exactly zero
        u = substream(17, 4).random((2, 32, 3, 5))
        r = np.linspace(0.0, 3.0, 32)[:, None, None]
        scaled = complex_normals(u.copy(), variance=r ** 2)
        np.testing.assert_allclose(scaled, r * complex_normals(u.copy()),
                                   rtol=4 * np.finfo(float).eps, atol=0.0)
        assert (scaled[0] == 0).all()


class TestSampleQBlock:
    def test_iid_mode_moments(self):
        q = sample_link_grids(CorrelationSpec.none(), ResourceGrid(t_max=100, f_max=1000),
                              1, 1, substream(23, 0))[0, 0]
        assert q.shape == (100, 1000)
        assert np.abs(q.mean()) <= 5 / np.sqrt(q.size)
        assert abs(np.mean(np.abs(q) ** 2) - 1.0) <= 0.02

    def test_lag_one_autocorrelation(self):
        spec = CorrelationSpec.exponential("time", 0.9, 64)
        q = sample_link_grids(spec, ResourceGrid(t_max=64, f_max=10 ** 4), 1, 1,
                              substream(23, 1))[0, 0]
        r1 = np.mean(q[1:, :] * q[:-1, :].conj()).real
        assert 0.87 <= r1 <= 0.93

    def test_single_block_time_matches_iid(self):
        grid = ResourceGrid(t_max=1, f_max=512)
        a = sample_link_grids(CorrelationSpec.exponential("time", 0.7, 1), grid, 1, 1,
                              substream(9, 4))[0, 0]
        b = sample_link_grids(CorrelationSpec.none(), grid, 1, 1, substream(9, 4))[0, 0]
        # 1x1 covariance factors to (nearly) 1; identical stream, same draws
        assert np.allclose(a, b, rtol=1e-6)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_covariance_recovery(self, rho):
        n = 4
        spec = CorrelationSpec.exponential("time", rho, n)
        q = sample_link_grids(spec, ResourceGrid(t_max=n, f_max=10 ** 4), 1, 1,
                              substream(31, int(rho * 10)))[0, 0]
        sample_cov = q @ q.conj().T / q.shape[1]
        target = build_covariance(spec)
        assert np.abs(sample_cov - target).max() <= 0.05

    def test_frequency_mode_correlates_rows(self):
        n = 4
        spec = CorrelationSpec.exponential("frequency", 0.8, n)
        q = sample_link_grids(spec, ResourceGrid(t_max=10 ** 4, f_max=n), 1, 1,
                              substream(31, 9))[0, 0]
        sample_cov = q.T.conj() @ q / q.shape[0]
        target = build_covariance(spec)
        assert np.abs(sample_cov.T - target).max() <= 0.05

    @pytest.mark.parametrize("spec, grid", [
        (CorrelationSpec.exponential("time", 0.9, 5), ResourceGrid(t_max=5, f_max=3)),
        (CorrelationSpec.exponential("frequency", 0.6, 4), ResourceGrid(t_max=3, f_max=4)),
        (CorrelationSpec.custom("time", [[1.0, 0.5, 0.2], [0.5, 1.0, 0.5], [0.2, 0.5, 1.0]]),
         ResourceGrid(t_max=3, f_max=2)),
        (CorrelationSpec.custom("frequency", [[1.0, 0.3], [0.3, 1.0]]),
         ResourceGrid(t_max=4, f_max=2)),
    ], ids=["time", "frequency", "custom-time", "custom-frequency"])
    def test_matches_einsum_oracle(self, spec, grid):
        q = sample_link_grids(spec, grid, 7, 1, substream(41, 2))[0]
        # the same substream gives the same draws; the product is the explicit sum
        z = complex_normals(substream(41, 2).random((2, 7, grid.t_max, grid.f_max)))
        lower = cholesky_psd(build_covariance(spec))
        if spec.mode == "time":
            expected = np.einsum("ab,nbf->naf", lower, z)
        else:
            expected = np.einsum("ntb,ab->nta", z, lower)
        np.testing.assert_allclose(q, expected, rtol=1e-13)
        assert np.array_equal(spec.lower, lower)
        assert not spec.lower.flags.writeable

    @pytest.mark.parametrize("spec", [
        CorrelationSpec.exponential("time", 0.9, 14), CorrelationSpec.exponential("time", 0.5, 1),
        CorrelationSpec.custom("time", [[1.0, 0.5, 0.2], [0.5, 1.0, 0.5], [0.2, 0.5, 1.0]]),
        CorrelationSpec.exponential("frequency", 0.6, 12)],
        ids=["time", "time-one-row", "custom-time", "frequency"])
    def test_correlate_is_the_complex_product(self, spec):
        # along time the real factor multiplies the real view of z: the complex matmul's
        # bits, with and without out
        time = spec.mode == "time"
        shape = (3, 16, spec.length, 5) if time else (3, 16, 5, spec.length)
        z = complex_normals(substream(43, 1).random((2,) + shape))
        want = np.matmul(spec.lower, z) if time else np.matmul(z, spec.lower.T)
        out = np.empty_like(z)
        assert correlate(spec, z, out) is out
        for got in (correlate(spec, z), out):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_factor_built_once_per_run(self, counting):
        from blockfade import parse_config, run_scenario, stochastic
        counting(stochastic, "cholesky_psd")
        cluster = {"direction": 0.3, "spread_fraction": 0.5}
        doc = {"seed": 5, "geometry": {"n_antennas": 4},
               "users": [{"clusters": [cluster, cluster]}] * 2,
               "grid": {"t_max": 3, "f_max": 2}, "realizations": 4,
               "correlation": {"mode": "time", "model": "exponential", "rho": 0.7,
                               "length": 3}}
        run_scenario(parse_config(json.dumps(doc)))
        assert counting.calls == {"cholesky_psd": 1}

    def test_custom_factor_built_once_at_construction(self, counting):
        # the factor is the PSD check of a custom matrix and the one the run uses
        from blockfade import stochastic
        counting(stochastic, "cholesky_psd")
        spec = CorrelationSpec.custom("time", [[1.0, 0.5], [0.5, 1.0]])
        assert counting.calls == {"cholesky_psd": 1}
        sample_link_grids(spec, ResourceGrid(t_max=2, f_max=3), 4, 2, substream(1, 0))
        assert counting.calls == {"cholesky_psd": 1}

    def test_block_sampling_shape(self):
        grid = ResourceGrid(t_max=3, f_max=2)
        block = sample_link_grids(CorrelationSpec.none(), grid, 5, 1, substream(2, 0))[0]
        assert block.shape == (5, 3, 2)
        assert abs(np.mean(np.abs(block) ** 2) - 1.0) <= 0.4  # coarse moment sanity

    def test_independence_across_substreams(self):
        grid = ResourceGrid(t_max=1, f_max=10 ** 4)
        a = sample_link_grids(CorrelationSpec.none(), grid, 1, 1, substream(77, 0, 0)).ravel()
        b = sample_link_grids(CorrelationSpec.none(), grid, 1, 1, substream(77, 0, 1)).ravel()
        cross = np.abs(np.mean(a * b.conj()))
        assert cross <= 0.05


class TestSubstream:
    def test_reproducible_and_distinct(self):
        a = substream(99, 3, 1).random(8)
        b = substream(99, 3, 1).random(8)
        c = substream(99, 3, 2).random(8)
        d = substream(98, 3, 1).random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


def _substream_key(seed, index):
    return substream(seed, index).bit_generator.state["state"]["key"]


class TestPhiloxKeys:
    """The batched keys are the Philox keys ``substream`` seeds, whatever the
    number of 32-bit words of the seed and of the index."""

    @pytest.mark.parametrize("index", [0, 2 ** 32 - 1, 2 ** 32])
    @pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
    def test_key_of_one_index(self, seed, index):
        keys = philox_keys(seed_pool(seed), [index])
        assert keys.dtype == np.uint64 and keys.shape == (1, 2)
        assert np.array_equal(keys[0], _substream_key(seed, index))

    @pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
    def test_chunk_straddling_two_spawn_words(self, seed):
        # indices from 2**32 on take a second spawn word
        indices = range(2 ** 32 - 3, 2 ** 32 + 3)
        expected = [_substream_key(seed, m) for m in indices]
        assert np.array_equal(philox_keys(seed_pool(seed), indices), expected)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), index=st.integers(0, 2 ** 64 - 1))
    def test_matches_substream(self, seed, index):
        assert np.array_equal(philox_keys(seed_pool(seed), [index])[0],
                              _substream_key(seed, index))

    def test_rekeyed_generator_draws_the_substream(self):
        rng = np.random.Generator(np.random.Philox(5))
        rng.integers(0, 2 ** 31, size=3, dtype=np.uint32)  # leave a buffered half word
        pool = seed_pool(7)
        for index in (3, 2 ** 32 + 1, 3):
            key = philox_keys(pool, [index])[0].tolist()
            assert np.array_equal(rekey(rng, key).random(9), substream(7, index).random(9))
