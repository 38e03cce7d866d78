"""Composition of spatial pairs and stochastic grids into the channel
tensor of one realization, plus uplink frame synthesis."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import SpatialPair
from .stochastic import complex_normal


@dataclass(frozen=True)
class ChannelBlock:
    """N x K channel matrix of one resource block."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        if h.ndim != 2:
            raise ValueError("channel matrix must be 2-D (antennas x users)")
        if not np.isfinite(h.view(float)).all():
            raise ValueError("channel matrix has non-finite entries")
        object.__setattr__(self, "h", h)

    @property
    def n_users(self) -> int:
        return self.h.shape[1]


@dataclass(frozen=True)
class UplinkFrame:
    """Received uplink frame y = h x + w for one resource block.

    The transmitted matrix is expected to carry unit average symbol energy;
    for frames of at least 100 symbols the sample mean power must sit within
    1% of 1 (unit-modulus alphabets satisfy this exactly).
    """

    y: np.ndarray
    x: np.ndarray
    noise_var: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=complex)
        x = np.asarray(self.x, dtype=complex)
        if y.ndim != 2 or x.ndim != 2 or y.shape[1] != x.shape[1]:
            raise ValueError("y and x must be 2-D with matching symbol counts")
        if self.noise_var < 0:
            raise ValueError(f"noise variance must be >= 0, got {self.noise_var!r}")
        if x.shape[1] >= 100:
            mean_power = np.mean(np.abs(x) ** 2)
            if abs(mean_power - 1.0) > 0.01:
                raise ValueError(f"transmit matrix mean symbol power {mean_power:.4f} "
                                 "deviates from 1 by more than 1%")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)


def add_links(h: np.ndarray, users, p: np.ndarray, r: np.ndarray, q: np.ndarray):
    """Add links into the channel tensor h (t_max, f_max, N, K), in order.

    Link l adds ``p[l] + r[l] * q[l]`` to the column of user ``users[l]``
    of every RB, where p and r are (L, N) spatial pairs and q the
    (L, N, t_max, f_max) grids; users' clusters are summed in the order
    the links are listed.
    """
    # transpose, not np.moveaxis: its overhead shows on single-RB scenarios
    terms = p[:, None, None, :] + r[:, None, None, :] * q.transpose(0, 2, 3, 1)
    for j, term in zip(users, terms):
        h[..., j] += term


def assemble_channel(pairs: Sequence[Sequence[SpatialPair]],
                     qgrids: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """(t_max, f_max, N, K) channel tensor of every resource block.

    Entry ``[t - 1, f - 1, i, j]`` is ``h_ij(t, f) = sum_c p_ijc + r_ijc *
    q_ijc(t, f)``: the deterministic spatial means plus the spread-scaled
    stochastic values, clusters summed in their listed order
    (:func:`add_links`).  No normalization is applied.

    Args:
        pairs: pairs[j][c] is the SpatialPair of user j, cluster c.
        qgrids: qgrids[j][c] is the (N, t_max, f_max) complex grid of user j,
            cluster c.
    """
    if len(pairs) != len(qgrids) or len(pairs) == 0:
        raise ValueError("pairs and qgrids must list the same non-empty set of users")
    n = len(pairs[0][0].p)
    grid_shape = np.shape(qgrids[0][0])[1:]
    links = []
    for j, (user_pairs, user_grids) in enumerate(zip(pairs, qgrids)):
        if len(user_pairs) != len(user_grids):
            raise ValueError("cluster count mismatch between pairs and qgrids")
        for pair, q in zip(user_pairs, user_grids):
            if len(pair.p) != n:
                raise ValueError("all spatial pairs must share the antenna count")
            if q.shape != (n,) + grid_shape:
                raise ValueError(f"cluster grid must have shape (N, t_max, f_max) = "
                                 f"{(n,) + grid_shape}, got {q.shape}")
            links.append((j, pair, q))
    h = np.zeros(grid_shape + (n, len(pairs)), dtype=complex)
    users, used_pairs, grids = zip(*links)
    add_links(h, users, np.array([pair.p for pair in used_pairs]),
              np.array([pair.r for pair in used_pairs]), np.array(grids))
    if not np.isfinite(h.view(float)).all():
        raise ValueError("channel tensor has non-finite entries")
    return h


def qpsk_symbols(n_users: int, n_symbols: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-modulus QPSK transmit matrix with independent user streams."""
    points = np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, (n_users, n_symbols))))
    return points


def synthesize_uplink(block: ChannelBlock, x: np.ndarray, noise_var: float,
                      rng: np.random.Generator) -> UplinkFrame:
    """Received frame y = h x + w with w i.i.d. CN(0, noise_var)."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != block.n_users:
        raise ValueError(f"x must be (K, T) with K={block.n_users}, got {x.shape}")
    if noise_var < 0:
        raise ValueError(f"noise variance must be >= 0, got {noise_var!r}")
    y = block.h @ x
    if noise_var > 0:
        y = y + np.sqrt(noise_var) * complex_normal(rng, y.shape)
    return UplinkFrame(y=y, x=x, noise_var=float(noise_var))
