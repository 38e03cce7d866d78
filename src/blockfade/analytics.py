"""Channel statistics: Gram matrix and user cross-correlation, Hermitian
eigenvalues, empirical CDFs, complex-plane coefficient histograms, and
per-antenna average power profiles.

The per-matrix statistics accept one N x K channel matrix or a stack
(..., N, K) of them, such as the (t_max, f_max, N, K) tensor of one
realization, and work on the whole stack at once.  Means over realizations
or resource blocks accumulate in a fixed order (:func:`ordered_mean`), so
threaded runs reduce bit for bit like sequential ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .assembly import ChannelBlock
from .errors import NumericalError

HERMITIAN_INPUT_TOLERANCE = 1e-10


@dataclass(frozen=True)
class GramStats:
    """Gram matrix G = (1/N) H^H H with its partition into diagonal and
    off-diagonal magnitudes; every field carries the stack axes of H."""

    g: np.ndarray
    offdiag_mags: np.ndarray
    diag: np.ndarray


@dataclass(frozen=True)
class EmpiricalCDF:
    """Right-continuous empirical CDF: query(x) = (#samples <= x) / n."""

    values: np.ndarray
    probabilities: np.ndarray

    def query(self, x) -> Union[float, np.ndarray]:
        idx = np.searchsorted(self.values, x, side="right")
        out = idx / len(self.values)
        return float(out) if np.isscalar(x) else out

    def quantile(self, q) -> Union[float, np.ndarray]:
        return np.quantile(self.values, q)

    def points(self):
        """(value, cdf) pairs at the unique sample values."""
        uniq, counts = np.unique(self.values, return_counts=True)
        return uniq, np.cumsum(counts) / len(self.values)


@dataclass(frozen=True)
class Histogram2D:
    """2-D histogram on a uniform square grid symmetric about the origin."""

    re_edges: np.ndarray
    im_edges: np.ndarray
    counts: np.ndarray

    @property
    def re_centers(self) -> np.ndarray:
        return 0.5 * (self.re_edges[:-1] + self.re_edges[1:])

    @property
    def im_centers(self) -> np.ndarray:
        return 0.5 * (self.im_edges[:-1] + self.im_edges[1:])

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class UserCorrelationMatrix:
    """K x K symmetric matrix of mean normalized inner-product magnitudes,
    unit diagonal."""

    values: np.ndarray

    @property
    def mean_offdiagonal(self) -> float:
        k = self.values.shape[0]
        off = self.values[~np.eye(k, dtype=bool)]
        return float(off.mean())


def _as_stack(h) -> np.ndarray:
    """Complex array of a matrix, a stack, a ChannelBlock or a sequence of them."""
    if isinstance(h, ChannelBlock):
        return h.h
    if isinstance(h, (list, tuple)):
        return np.stack([_as_stack(b) for b in h])
    return np.asarray(h, dtype=complex)


def gram(h) -> GramStats:
    """Gram statistics G = (1/N) H^H H of a channel matrix or stack.

    The product is symmetrized to make the stored matrix exactly Hermitian;
    the off-diagonal magnitudes are taken from the upper triangle.
    """
    matrix = _as_stack(h)
    g = np.conj(matrix).swapaxes(-1, -2) @ matrix / matrix.shape[-2]
    g = 0.5 * (g + np.conj(g).swapaxes(-1, -2))
    iu = np.triu_indices(g.shape[-1], 1)
    return GramStats(g=g, offdiag_mags=np.abs(g[..., iu[0], iu[1]]),
                     diag=g.diagonal(axis1=-2, axis2=-1).real.copy())


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


def empirical_cdf(samples) -> EmpiricalCDF:
    """Empirical CDF of a real sample multiset."""
    values = np.sort(np.asarray(samples, dtype=float).ravel())
    if values.size == 0:
        raise ValueError("empirical_cdf needs at least one sample")
    probs = np.arange(1, values.size + 1) / values.size
    return EmpiricalCDF(values=values, probabilities=probs)


def pairwise_correlation(h) -> np.ndarray:
    """Normalized inner-product magnitudes |h_i^H h_j| / (|h_i| |h_j|) of a
    channel matrix or stack, shape (..., K, K); raises on a zero-norm
    (degenerate) user column."""
    h = _as_stack(h)
    norms = np.linalg.norm(h, axis=-2)
    if (norms == 0).any():
        bad = int(np.argwhere(norms == 0)[0, -1])
        raise NumericalError(f"user {bad} has a zero-norm channel column")
    g = np.abs(np.conj(h).swapaxes(-1, -2) @ h)
    return g / (norms[..., :, None] * norms[..., None, :])


def ordered_mean(arrays) -> np.ndarray:
    """Mean of equally shaped arrays (a sequence, or the leading axis of an
    array), summed one after another in the given order so the result never
    depends on how the arrays were produced."""
    return sum(arrays) / len(arrays)


def average_correlation(per_realization) -> UserCorrelationMatrix:
    """User correlation matrix from per-realization K x K correlation
    magnitudes: their ordered mean, symmetrized, with the diagonal forced to
    exactly 1."""
    acc = ordered_mean(per_realization)
    acc = 0.5 * (acc + acc.T)
    np.fill_diagonal(acc, 1.0)
    return UserCorrelationMatrix(values=acc)


def user_correlation(realizations: Sequence) -> UserCorrelationMatrix:
    """Cross-correlation of users averaged over channel realizations.

    Per realization the normalized inner-product magnitude of every user
    pair is computed; the average over realizations forms the matrix.  The
    diagonal is forced to exactly 1.
    """
    if len(realizations) == 0:
        raise ValueError("user_correlation needs at least one realization")
    h = _as_stack(realizations)
    if h.shape[-1] < 2:
        raise ValueError("user_correlation needs at least two users")
    return average_correlation(pairwise_correlation(h))


def coefficient_histogram(values, bins_per_axis: int = 64) -> Histogram2D:
    """2-D histogram of complex coefficients on the bounding square of the
    samples, symmetric about 0."""
    v = np.asarray(values).ravel()
    if v.size == 0:
        raise ValueError("coefficient_histogram needs at least one sample")
    if bins_per_axis < 1:
        raise ValueError("bins_per_axis must be >= 1")
    half = max(np.abs(v.real).max(), np.abs(v.imag).max())
    if half == 0.0:
        half = 1.0
    edges = np.linspace(-half, half, bins_per_axis + 1)
    counts, _, _ = np.histogram2d(v.real, v.imag, bins=[edges, edges])
    return Histogram2D(re_edges=edges, im_edges=edges.copy(),
                       counts=counts.astype(np.int64))


def power_profile(realizations) -> np.ndarray:
    """Per-antenna, per-user average power: entry (i, j) is the ordered
    sample mean of |h_ij|^2 over the supplied channel matrices, given as a
    sequence or as a stack (..., N, K) such as the RB tensor of one
    realization."""
    if len(realizations) == 0:
        raise ValueError("power_profile needs at least one realization")
    h = _as_stack(realizations)
    return ordered_mean((np.abs(h) ** 2).reshape((-1,) + h.shape[-2:]))


def offdiag_exceedance(stats: Sequence[GramStats], threshold: float) -> float:
    """Fraction of off-diagonal Gram magnitudes above ``threshold`` across
    all provided realizations; 0.0 when there are no off-diagonals."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    total = 0
    above = 0
    for s in stats:
        total += s.offdiag_mags.size
        above += int((s.offdiag_mags > threshold).sum())
    return above / total if total else 0.0
