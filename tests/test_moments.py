"""Closed-form second moments of the assembled channel.

The channel of user j is ``h_j = sum_c p_c + r_c o q_c(t, f)``.  Its second
moments follow from the model's formulas alone, so this oracle does not come
from the code it checks.  Per cluster and antenna i, with beta the mean
power and s the spread fraction, ``r_i = s * sqrt(beta_i)`` and
``|p_i| = sqrt(beta_i - r_i**2)``; the mean carries the phase ramp
``2*pi*d*cos(theta)*i`` plus a cluster phase uniform on [0, 2*pi).  The
phases are independent, so different users and different clusters are
uncorrelated, and the channel is circularly symmetric (``E[h h'] = 0``):

    E[h(t,f,i) conj h(t',f',i')] = sum_c |p_ci| |p_ci'| E[exp(1j*(ramp_ci - ramp_ci'))]
                                   + [i == i'] * sum_c r_ci**2 * Sigma(t,f; t',f')

A fixed direction gives ``exp(1j*2*pi*d*cos(theta)*(i - i'))``; a "random"
direction, theta ~ U[0, pi), gives its average ``J0(2*pi*d*(i - i'))``,
taken here by Gauss-Legendre quadrature.  ``Sigma`` is the RB covariance on
the correlated axis and the identity on the other.

The test compares every sample second moment of the real vector
``[Re h, Im h]`` of the raw-channel artifact with the closed form, in
standard errors of the sample mean, for three fixed documents and for
small documents Hypothesis generates (derandomized, so the same examples
every run).  The bound was fixed at 5 before the first run of each and is
not to be loosened.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockfade import parse_config, run_scenario
from blockfade.stochastic import MODES

BOUND_SE = 5.0

N = 4
USERS = [
    {"clusters": [{"direction": 0.7, "spread_fraction": 0.4,
                   "mean_power": [0.5, 1.0, 1.5, 2.0]},
                  {"direction": 2.1, "spread_fraction": 0.8, "mean_power": 0.6}]},
    {"clusters": [{"direction": "random", "spread_fraction": 0.3, "mean_power": 1.2},
                  {"direction": 1.2, "spread_fraction": 0.5, "mean_power": 0.4}]},
]
CUSTOM = [[1.0, 0.6, 0.2], [0.6, 1.0, 0.5], [0.2, 0.5, 1.0]]
CASES = {
    "time": ({"t_max": 3, "f_max": 2},
             {"mode": "time", "model": "exponential", "rho": 0.7, "length": 3}),
    "frequency": ({"t_max": 2, "f_max": 3},
                  {"mode": "frequency", "model": "custom", "matrix": CUSTOM}),
    "none": ({"t_max": 2, "f_max": 2}, {"mode": "none"}),
}
REALIZATIONS = 8000


def _ramp_factor(direction, spacing: float, n: int) -> np.ndarray:
    """(n, n) mean of exp(1j*(ramp_i - ramp_i')) over the cluster's direction."""
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    if direction == "random":
        x, w = np.polynomial.legendre.leggauss(64)
        theta = 0.5 * np.pi * (x + 1.0)
        return np.einsum("q,qab->ab", w / 2.0, np.exp(
            2j * np.pi * spacing * np.cos(theta)[:, None, None] * lag))
    return np.exp(2j * np.pi * spacing * np.cos(direction) * lag)


def _rb_covariance(grid: dict, correlation: dict) -> np.ndarray:
    """(B, B) covariance of the RB grid, RBs in t-major order."""
    t, f = grid["t_max"], grid["f_max"]
    if correlation["mode"] == "none":
        return np.eye(t * f)
    if correlation.get("model") == "custom":
        sigma = np.array(correlation["matrix"])
    else:
        lags = np.abs(np.subtract.outer(np.arange(correlation["length"]),
                                        np.arange(correlation["length"])))
        sigma = correlation["rho"] ** lags
    if correlation["mode"] == "time":
        return np.kron(sigma, np.eye(f))
    return np.kron(np.eye(t), sigma)


def _closed_form(doc: dict) -> np.ndarray:
    """(D, D) covariance E[h_a conj h_b] of the flattened (t, f, N, K) channel."""
    n, spacing = doc["geometry"]["n_antennas"], doc["geometry"].get("spacing_ratio", 0.25)
    rb = _rb_covariance(doc["grid"], doc["correlation"])
    b, k = len(rb), len(doc["users"])
    cov = np.zeros((b, n, k, b, n, k), dtype=complex)
    for j, user in enumerate(doc["users"]):
        means = np.zeros((n, n), dtype=complex)
        random_power = np.zeros(n)
        for cluster in user["clusters"]:
            beta = np.broadcast_to(np.asarray(cluster.get("mean_power", 1.0), dtype=float), n)
            r = cluster["spread_fraction"] * np.sqrt(beta)
            amp = np.sqrt(beta - r ** 2)
            means += np.outer(amp, amp) * _ramp_factor(cluster["direction"], spacing, n)
            random_power += r ** 2
        cov[:, :, j, :, :, j] = (means[None, :, None, :]
                                 + rb[:, None, :, None] * np.diag(random_power)[None, :, None, :])
    return cov.reshape(b * n * k, b * n * k)


def _worst_z(doc: dict) -> float:
    """Largest |sample - closed form| of any second moment of [Re h, Im h],
    in standard errors of its sample mean."""
    h = run_scenario(parse_config(json.dumps(doc))).artifacts["raw-channel"]
    # the (t, f, N, K) order of the closed form, real parts then imaginary parts
    y =np.concatenate([h.real.reshape(len(h), -1), h.imag.reshape(len(h), -1)], axis=1)
    cov = _closed_form(doc)
    truth = 0.5 * np.block([[cov.real, -cov.imag], [cov.imag, cov.real]])
    r = len(y)
    moments = y.T @ y / r
    variance = (y * y).T @ (y * y) / r - moments ** 2
    return float((np.abs(moments - truth) / np.sqrt(variance / r)).max())


@pytest.mark.parametrize("mode", CASES)
def test_second_moments_match_closed_form(mode):
    grid, correlation = CASES[mode]
    doc = {"seed": 20160402, "geometry": {"n_antennas": N}, "users": USERS,
           "realizations": REALIZATIONS, "grid": grid, "correlation": correlation,
           "outputs": ["raw-channel"]}
    z = _worst_z(doc)
    assert z < BOUND_SE, f"a second moment is {z:.2f} standard errors off the closed form"


@st.composite
def small_documents(draw):
    """1-2 users of 1-2 clusters at N = 2 or 3 on at most 2x2 RBs, in any
    correlation mode, with 4000 realizations of the raw channel."""
    n = draw(st.integers(2, 3))
    power = st.one_of(st.floats(0.2, 2.0), st.lists(st.floats(0.2, 2.0), min_size=n, max_size=n))
    cluster = st.fixed_dictionaries({
        "direction": st.one_of(st.floats(0.0, 3.1), st.just("random")),
        "spread_fraction": st.floats(0.1, 1.0), "mean_power": power})
    grid = {"t_max": draw(st.integers(1, 2)), "f_max": draw(st.integers(1, 2))}
    mode = draw(st.sampled_from(MODES))
    correlation = {"mode": mode}
    if mode != "none":
        correlation.update(model="exponential", rho=draw(st.floats(0.0, 0.95)),
                           length=grid["t_max" if mode == "time" else "f_max"])
    return {"seed": draw(st.integers(0, 2 ** 64 - 1)),
            "geometry": {"n_antennas": n, "spacing_ratio": draw(st.floats(0.1, 0.5))},
            "users": draw(st.lists(st.fixed_dictionaries(
                {"clusters": st.lists(cluster, min_size=1, max_size=2)}), min_size=1, max_size=2)),
            "realizations": 4000, "grid": grid, "correlation": correlation,
            "outputs": ["raw-channel"]}


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(doc=small_documents())
def test_second_moments_of_generated_documents(doc):
    z = _worst_z(doc)
    assert z < BOUND_SE, f"a second moment is {z:.2f} standard errors off the closed form"
