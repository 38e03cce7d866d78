"""Channel statistics: Gram matrix and user cross-correlation, Hermitian
eigenvalues, empirical CDFs, complex-plane coefficient histograms, and
per-antenna average power profiles.

Every statistic is a numpy array, or a dict of arrays where it has several
parts (a histogram's edges and counts).  The per-matrix statistics accept
one N x K channel matrix or a stack (..., N, K) of them, such as the
(t_max, f_max, N, K) tensor of one realization, and work on the whole stack
at once.  Means over realizations or resource blocks are sums in a fixed
order, so threaded runs reduce bit for bit like sequential ones: ``ordered_mean``
sums a sequence, and the realization kernel and ``run_scenario`` keep running
sums in the same order, RB by RB and realization by realization.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

HERMITIAN_INPUT_TOLERANCE = 1e-10
# Samples coefficient_histogram bins at a time: its transients stay O(block)
HISTOGRAM_BLOCK = 2 ** 14


def gram(h) -> np.ndarray:
    """Gram matrix G = (1/N) H^H H of a channel matrix or stack, shape
    (..., K, K), symmetrized so that it is exactly Hermitian."""
    matrix = np.asarray(h, dtype=complex)
    g = np.conj(matrix).swapaxes(-1, -2) @ matrix / matrix.shape[-2]
    return 0.5 * (g + np.conj(g).swapaxes(-1, -2))


def eigenvalues_hermitian(g) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix or stack (..., K, K), ascending.

    One batched LAPACK call (``numpy.linalg.eigvalsh``).  Raises
    NumericalError if a matrix is not finite and Hermitian to 1e-10 of its
    largest entry (at least 1), if LAPACK fails, or if the eigenvalue sum of
    a matrix drifts from its trace by more than 1e-10 relative.
    """
    a = np.asarray(g, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    a_h = np.conj(a).swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    asym = np.abs(a - a_h).max(axis=(-2, -1), initial=0.0)
    if not (asym <= HERMITIAN_INPUT_TOLERANCE * scale).all():  # NaN fails too
        raise NumericalError("matrix is not finite and Hermitian within 1e-10")
    a = 0.5 * (a + a_h)
    try:
        eig = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solve failed: {exc}") from exc
    trace = a.diagonal(axis1=-2, axis2=-1).real.sum(axis=-1)
    if not (np.abs(eig.sum(axis=-1) - trace) <= 1e-10 * np.maximum(1.0, np.abs(trace))).all():
        raise NumericalError("eigenvalue sum drifted from the trace beyond 1e-10 relative")
    return eig


def empirical_cdf(samples) -> np.ndarray:
    """Sorted samples of a real multiset: the empirical CDF at a sample value
    x is (#samples <= x) / n."""
    values = np.sort(np.asarray(samples, dtype=float).ravel())
    if values.size == 0:
        raise ValueError("empirical_cdf needs at least one sample")
    return values


def gram_correlation(g) -> np.ndarray:
    """Normalized user correlation |G_ij| / sqrt(G_ii G_jj) of a Gram matrix
    or stack (..., K, K) from :func:`gram`, which is |h_i^H h_j| / (|h_i| |h_j|);
    raises on a zero-norm (degenerate) user column."""
    g = np.asarray(g)
    d = np.sqrt(g.diagonal(axis1=-2, axis2=-1).real)
    if (d == 0).any():
        bad = int(np.argwhere(d == 0)[0, -1])
        raise NumericalError(f"user {bad} has a zero-norm channel column")
    return np.abs(g) / (d[..., :, None] * d[..., None, :])


def ordered_mean(arrays) -> np.ndarray:
    """Mean of equally shaped arrays (a sequence, or the leading axis of an
    array), summed one after another in the given order so the result never
    depends on how the arrays were produced."""
    return sum(arrays) / len(arrays)


def coefficient_histogram(values, bins_per_axis: int = 64) -> dict:
    """2-D histogram of complex coefficients on the bounding square of the
    samples, symmetric about 0: ``{"edges", "counts"}``, where ``edges`` bound
    both the real and the imaginary axis and ``counts[i, j]`` counts real bin
    i and imaginary bin j."""
    v = np.asarray(values).ravel()
    if v.size == 0:
        raise ValueError("coefficient_histogram needs at least one sample")
    if bins_per_axis < 1:
        raise ValueError("bins_per_axis must be >= 1")
    half = np.max([v.real.max(), -v.real.min(), v.imag.max(), -v.imag.min()])
    finite = np.isfinite(half)  # a NaN or infinite sample: NaN edges, nothing counted
    half = (half or 1.0) if finite else np.nan
    edges = np.linspace(-half, half, bins_per_axis + 1)
    counts = np.zeros(bins_per_axis ** 2, dtype=np.int64)
    step = max(HISTOGRAM_BLOCK, counts.size)  # a block's bincount spans every bin
    for a in range(0, v.size if finite else 0, step):
        # np.histogram2d's bins: side="right", samples on the last edge in the last bin
        i, j = (np.minimum(np.searchsorted(edges, x, side="right") - 1, bins_per_axis - 1)
                for x in (v.real[a:a + step], v.imag[a:a + step]))
        counts += np.bincount(i * bins_per_axis + j, minlength=counts.size)
    return {"edges": edges, "counts": counts.reshape(bins_per_axis, bins_per_axis)}


def power_profile(realizations) -> np.ndarray:
    """Per-antenna, per-user average power: entry (i, j) is the ordered
    sample mean of |h_ij|^2 over the supplied channel matrices, given as a
    sequence or as a stack (..., N, K) such as the RB tensor of one
    realization."""
    if len(realizations) == 0:
        raise ValueError("power_profile needs at least one realization")
    h = np.asarray(realizations, dtype=complex)
    return ordered_mean((np.abs(h) ** 2).reshape((-1,) + h.shape[-2:]))

