"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from dataclasses import replace

import numpy as np

from blockfade import (ArrayGeometry, ClusterSpec, CorrelationSpec, ResourceGrid,
                       UserSpec, ScenarioConfig, build_covariance, expand_preset, gram,
                       run_scenario, substream)
from blockfade.model import link_means, link_table, phase_ramps
from blockfade.stochastic import sample_link_grids


def announce(criterion: str, ok: bool, detail: str):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_power_budget():
    rng = substream(101, 0)
    geo = ArrayGeometry(n_antennas=16)
    worst = 0.0
    for _ in range(100):
        beta = rng.uniform(0.05, 20.0)
        s = rng.uniform(0.0, 1.0)
        theta = rng.uniform(0.0, np.pi)
        cluster = ClusterSpec(direction=theta, spread_fraction=s, mean_power=beta)
        table = link_table((UserSpec(clusters=(cluster,)),), geo)
        power = np.abs(link_means(table, [0.0])[0]) ** 2 + table.r[0] ** 2
        worst = max(worst, float(np.abs(power - beta).max() / beta))
    announce("criterion 1: power budget", worst <= 1e-12,
             f"max relative error {worst:.3e} (tol 1e-12)")


def test_criterion_02_phase_slope_law():
    geo = ArrayGeometry(n_antennas=64, spacing_ratio=0.25)
    worst = 0.0
    for theta in (0.0, np.pi / 6, np.pi / 3, np.pi / 2):
        slope = (np.pi / 2) * np.cos(theta)
        diffs = np.mod(np.diff(phase_ramps([theta], geo)[0]), 2 * np.pi)
        worst = max(worst, float(np.abs(diffs - slope).max()))
    announce("criterion 2: phase-slope law", worst <= 1e-12,
             f"max slope deviation {worst:.3e} (tol 1e-12)")


def test_criterion_03_covariance_recovery():
    spec = CorrelationSpec.exponential("time", 0.9, 64)
    q = sample_link_grids(spec, ResourceGrid(t_max=64, f_max=10 ** 4), 1, 1,
                          substream(103, 0))[0, 0]
    sample_cov = q @ q.conj().T / q.shape[1]
    err = float(np.abs(sample_cov - build_covariance(spec)).max())
    announce("criterion 3: covariance recovery", err <= 0.05,
             f"max covariance error {err:.4f} over 10^4 columns (tol 0.05)")


def _iid_users(k):
    return tuple(UserSpec(clusters=(ClusterSpec(direction="random",
                                                spread_fraction=1.0,
                                                mean_power=1.0),))
                 for _ in range(k))


def test_criterion_04_iid_favorable_propagation():
    config = ScenarioConfig(seed=104, geometry=ArrayGeometry(n_antennas=128),
                            users=_iid_users(2), realizations=2000,
                            outputs=("cross-correlation",))
    mags = run_scenario(config, threads=4).artifacts["cross-correlation"]["magnitudes"]
    second_moment = float(np.mean(mags ** 2))
    exceedance = float(np.mean(mags > 0.4))
    ok = abs(second_moment - 1 / 128) <= 0.1 / 128 and exceedance < 0.001
    announce("criterion 4: i.i.d. favorable propagation", ok,
             f"E|g_nd|^2 = {second_moment:.6f} vs 1/128 = {1 / 128:.6f} (tol 10%), "
             f"P(|g_nd| > 0.4) = {exceedance:.5f} (tol < 0.001)")


def test_criterion_05_deterministic_gram_oracle():
    n = 128
    geo = ArrayGeometry(n_antennas=n, spacing_ratio=0.25)
    rng = substream(105, 0)
    deltas = np.concatenate([[2 * np.pi / n], rng.uniform(0.05, np.pi / 2, 20)])
    worst = 0.0
    for delta in deltas:
        thetas = (np.pi / 2, float(np.arccos(2 * delta / np.pi)))
        users = tuple(UserSpec(clusters=(ClusterSpec(direction=t, spread_fraction=0.0),))
                      for t in thetas)
        block = link_means(link_table(users, geo), [0.0, 0.0]).T
        g12 = float(np.abs(gram(block)[0, 1]))
        expected = abs(np.sin(n * delta / 2) / (n * np.sin(delta / 2)))
        worst = max(worst, abs(g12 - expected))
    announce("criterion 5: deterministic Gram oracle", worst <= 1e-10,
             f"max |g_12| deviation from Dirichlet kernel {worst:.3e} over "
             f"{len(deltas)} slope offsets incl. the 2*pi/N zero (tol 1e-10)")


def _band_mass(hist, lo=0.7, hi=1.3) -> float:
    centers = 0.5 * (hist["edges"][:-1] + hist["edges"][1:])
    rc, ic = np.meshgrid(centers, centers, indexing="ij")
    radii = np.hypot(rc, ic)
    inside = (radii >= lo) & (radii <= hi)
    return float(hist["counts"][inside].sum() / hist["counts"].sum())


def test_criterion_06_ring_histograms():
    fig2 = run_scenario(expand_preset("fig2"), threads=4)
    mass2 = _band_mass(fig2.artifacts["histogram"])

    cfg3 = replace(expand_preset("fig3"), outputs=("histogram", "raw-channel"))
    fig3 = run_scenario(cfg3, threads=4)
    mass3 = _band_mass(fig3.artifacts["histogram"])
    samples = fig3.artifacts["raw-channel"].ravel()
    m2 = np.mean(np.abs(samples) ** 2)
    m4 = np.mean(np.abs(samples) ** 4)
    # second/fourth-moment estimator of the spatial standard deviation of a
    # nonzero-mean complex Gaussian: r^2 = m2 - sqrt(2 m2^2 - m4)
    radial_std = float(np.sqrt(m2 - np.sqrt(max(2 * m2 ** 2 - m4, 0.0))))
    ok = mass2 >= 0.99 and mass3 < 0.99 and abs(radial_std - 0.5) <= 0.05
    announce("criterion 6: ring histograms", ok,
             f"fig2 band mass {mass2:.4f} (>= 0.99), fig3 band mass {mass3:.4f} "
             f"(< 0.99), fig3 radial std {radial_std:.4f} vs 0.5 (tol 10%)")


def test_criterion_07_correlation_matrix_family():
    runs = {name: [] for name in ("paper-A", "paper-B", "paper-C", "paper-D")}
    for k in range(20):
        for name in runs:
            config = expand_preset(name, seed=7000 + k)
            matrix = run_scenario(config, threads=2).artifacts["correlation-matrix"]
            runs[name].append(float(matrix[~np.eye(len(matrix), dtype=bool)].mean()))
    a, b, c, d = (np.array(runs[n]) for n in ("paper-A", "paper-B", "paper-C", "paper-D"))
    counts = {"C>A": int((c > a).sum()), "D>B": int((d > b).sum()),
              "A>B": int((a > b).sum()), "C>D": int((c > d).sum())}
    orderings_ok = all(v >= 19 for v in counts.values())
    q05, q95 = np.quantile(a, [0.05, 0.95])
    covered = 0.5 * q05 <= 0.187 <= 1.5 * q95
    announce("criterion 7: correlation matrices A-D", orderings_ok and covered,
             f"ordering counts {counts} (>= 19/20 each); NLOS/128 mean off-diagonal "
             f"central 90% [{q05:.3f}, {q95:.3f}] widened +/-50% "
             f"[{0.5 * q05:.3f}, {1.5 * q95:.3f}] covers 0.187: {covered}")


def _pooled_eigen(config) -> np.ndarray:
    bundle = run_scenario(replace(config, outputs=("eigencdf",)), threads=4)
    return bundle.artifacts["eigencdf"]


def test_criterion_08_eigenvalue_cdf_shape():
    # i.i.d. curve: pooled 1%-99% quantiles inside the Marchenko-Pastur
    # support widened by 15% of its span on each side
    eig_iid = _pooled_eigen(expand_preset("iid"))
    ratio = 6 / 128
    lo, hi = (1 - np.sqrt(ratio)) ** 2, (1 + np.sqrt(ratio)) ** 2
    span = hi - lo
    q01, q99 = np.quantile(eig_iid, [0.01, 0.99])
    mp_ok = (lo - 0.15 * span) <= q01 and q99 <= (hi + 0.15 * span)

    # fewer antennas spread the NLOS eigenvalues
    def iqr(values):
        return float(np.quantile(values, 0.75) - np.quantile(values, 0.25))
    iqr_20 = iqr(_pooled_eigen(expand_preset("paper-C")))
    iqr_128 = iqr(_pooled_eigen(expand_preset("paper-A")))
    spread_ok = iqr_20 > iqr_128

    # growing spatial determinism confines the eigenvalues toward unity
    iqrs = []
    for i, s in enumerate((1.0, 0.8, 0.6, 0.4, 0.2, 0.05)):
        users = tuple(UserSpec(clusters=(ClusterSpec(direction="random",
                                                     spread_fraction=s),))
                      for _ in range(6))
        config = ScenarioConfig(seed=108 + i, geometry=ArrayGeometry(n_antennas=128),
                                users=users, realizations=400, outputs=("eigencdf",))
        eig = run_scenario(config, threads=4).artifacts["eigencdf"]
        iqrs.append(iqr(eig))
    decreases = sum(b < a for a, b in zip(iqrs, iqrs[1:]))
    sweep_ok = decreases >= 4 and iqrs[-1] < 0.5 * iqrs[0]
    announce("criterion 8: eigenvalue CDF shape", mp_ok and spread_ok and sweep_ok,
             f"iid q01/q99 = {q01:.3f}/{q99:.3f} inside MP [{lo:.3f}, {hi:.3f}] "
             f"widened 15%: {mp_ok}; IQR N=20 {iqr_20:.3f} > N=128 {iqr_128:.3f}: "
             f"{spread_ok}; sweep IQRs {[round(x, 3) for x in iqrs]} "
             f"({decreases}/5 decreasing)")


def test_criterion_09_power_profile_recovery():
    n = 64
    ramp = np.linspace(0.5, 1.5, n)
    users = (UserSpec(clusters=(ClusterSpec(direction=0.9, spread_fraction=0.5,
                                            mean_power=ramp),)),)
    config = ScenarioConfig(seed=109, geometry=ArrayGeometry(n_antennas=n),
                            users=users, realizations=10 ** 4,
                            outputs=("power-profile",))
    profile = run_scenario(config, threads=4).artifacts["power-profile"][:, 0]
    rel = float(np.max(np.abs(profile - ramp) / ramp))
    announce("criterion 9: power profile recovery", rel <= 0.05,
             f"max relative ramp error {rel:.4f} over 10^4 realizations (tol 5%)")


def test_criterion_10_determinism_across_threads(tmp_path):
    config = expand_preset("paper-C")
    run_a = run_scenario(config, out_dir=tmp_path / "t1", threads=1)
    run_b = run_scenario(config, out_dir=tmp_path / "t8", threads=8)
    same = run_a.manifest == run_b.manifest
    announce("criterion 10: determinism", same,
             "manifest sha256 digests identical for threads=1 vs threads=8: "
             f"{same} ({len(run_a.manifest)} artifacts)")
