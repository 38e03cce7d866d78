"""Composition of spatial pairs and stochastic grids into the channel
tensor of one realization."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import SpatialPair


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

