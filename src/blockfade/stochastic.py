"""Correlated complex Gaussian grids driving channel variation across
resource blocks.

One grid per (antenna, user, cluster) link holds zero-mean unit-variance
circularly-symmetric Gaussian values indexed by (RB time, RB frequency).
Correlation is imposed along exactly one RB dimension through a covariance
matrix: along time it plays the role of Doppler spread, along frequency of
delay spread.

Sampling is reproducible across platforms: all Gaussians come from the
fixed transform ``sqrt(-ln u1) * exp(2j*pi*u2)`` applied to uniforms from a
counter-based (Philox) stream, so a seed plus a stream path fully
determines every value.  The stream order is part of that contract: a link
grid takes a block of u1 values followed by a block of u2 values, and
``link_normals`` draws several consecutive links as one
``(n_links, 2, ...)`` block, which is the same sequence.

``CorrelationSpec`` validates its fields at construction, a custom matrix
included (real, square, symmetric, unit diagonal, PSD), so
``build_covariance`` only builds the matrix.  ``check_length`` is the one
check that a spec fits a resource grid.

The Cholesky factor of a covariance is built once per spec, on first use
(``CorrelationSpec.lower``), and the correlation itself is one batched
BLAS ``matmul`` per block of links (``sample_link_grids``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericalError
from .model import ResourceGrid, is_finite_real, is_int

MODES = ("time", "frequency", "none")

PSD_TOLERANCE = -1e-10
CHOLESKY_JITTER = 1e-12


@dataclass(frozen=True)
class CorrelationSpec:
    """Correlation model for one RB dimension.

    mode selects which dimension carries correlation ("time", "frequency",
    or "none").  The model is either the exponential family
    ``Sigma[a, b] = rho ** |a - b|`` or a user-supplied real, square,
    symmetric PSD matrix with unit diagonal.
    """

    mode: str
    rho: Optional[float] = None
    matrix: Optional[tuple] = None
    length: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "none":
            if self.rho is not None or self.matrix is not None:
                raise ValueError("mode 'none' takes no correlation model")
            return
        if not (is_int(self.length) and self.length >= 1):
            raise ValueError(f"length must be a positive integer, got {self.length!r}")
        if (self.rho is None) == (self.matrix is None):
            raise ValueError("exactly one of rho / matrix must be given")
        if self.rho is not None:
            if not (is_finite_real(self.rho) and 0.0 <= self.rho < 1.0):
                raise ValueError(f"exponential rho must be a real number in [0, 1), "
                                 f"got {self.rho!r}")
            object.__setattr__(self, "rho", float(self.rho))
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=object)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"custom matrix must be a square 2-D array, "
                                 f"got shape {m.shape}")
            if m.shape != (self.length, self.length):
                raise ValueError(f"custom matrix must be {self.length}x{self.length}, "
                                 f"got {m.shape}")
            if not all(is_finite_real(x) for x in m.flat):
                raise ValueError("custom matrix must hold finite real numbers")
            m = m.astype(float)
            if not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
                raise ValueError("custom covariance must be Hermitian")
            if not np.allclose(np.diag(m), 1.0, rtol=0.0, atol=1e-12):
                raise ValueError("custom covariance must have unit diagonal")
            if np.linalg.eigvalsh(m).min() < PSD_TOLERANCE:
                raise ValueError("custom covariance has an eigenvalue below -1e-10; not PSD")
            # nested tuples so the spec stays hashable and comparable
            object.__setattr__(self, "matrix", tuple(map(tuple, m.tolist())))

    @classmethod
    def none(cls) -> "CorrelationSpec":
        return cls(mode="none")

    @classmethod
    def exponential(cls, mode: str, rho: float, length: int) -> "CorrelationSpec":
        return cls(mode=mode, rho=rho, length=length)

    @classmethod
    def custom(cls, mode: str, matrix: np.ndarray) -> "CorrelationSpec":
        matrix = np.asarray(matrix, dtype=object)
        # a scalar gets length 1, so the square-matrix check is the one that names it
        return cls(mode=mode, matrix=matrix, length=matrix.shape[0] if matrix.ndim else 1)

    @cached_property
    def lower(self) -> np.ndarray:
        """Read-only Cholesky factor of the covariance, built on first use.

        The spec is frozen, so the factor depends on nothing else: it is
        kept on the instance and shared by every ``sample_q_block`` call
        and thread that uses the spec.
        """
        lower = cholesky_psd(build_covariance(self))
        lower.flags.writeable = False
        return lower


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent, reproducible random stream for (seed, *path).

    Uses a counter-based Philox bit generator keyed by a spawn path, so
    streams for different paths are statistically independent and any
    (seed, path) pair regenerates the identical stream regardless of the
    order or thread in which streams are consumed.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def link_normals(rng: np.random.Generator, n_links: int, shape) -> np.ndarray:
    """(n_links,) + shape circularly-symmetric complex Gaussians, E|q|^2 = 1.

    One draw of ``(n_links, 2) + shape`` uniforms: per link a u1 block and
    then a u2 block, transformed by ``sqrt(-ln u1) * exp(2j*pi*u2)`` with u1
    taken as ``1 - u`` in (0, 1]; real and imaginary parts each have
    variance 1/2.
    """
    u = rng.random((n_links, 2) + shape)
    return np.sqrt(-np.log(1.0 - u[:, 0])) * np.exp(2j * np.pi * u[:, 1])


def build_covariance(spec: CorrelationSpec) -> np.ndarray:
    """Covariance matrix of the correlated RB dimension.

    The exponential model yields ``rho ** |a - b|``; a custom model yields
    its matrix, which the spec validated when it was built.
    """
    if spec.mode == "none":
        return np.eye(1)
    n = spec.length
    if spec.rho is not None:
        lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        with np.errstate(all="ignore"):
            sigma = np.where(lags == 0, 1.0, float(spec.rho) ** lags)
        return sigma
    return np.array(spec.matrix, dtype=float)


def cholesky_psd(sigma: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L^H = sigma, tolerant of semidefinite input.

    A jitter of 1e-12 is added to the diagonal before factorization so
    near-singular covariances (e.g. rho -> 1) factor stably; a pivot below
    -1e-10 after jitter signals a genuinely non-PSD matrix.  The diagonal of
    L is real and nonnegative.
    """
    a = np.array(sigma, dtype=complex if np.iscomplexobj(sigma) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("covariance must be square")
    n = a.shape[0]
    a[np.diag_indices(n)] += CHOLESKY_JITTER
    lower = np.zeros_like(a)
    for j in range(n):
        col = a[j:, j] - lower[j:, :j] @ lower[j, :j].conj()
        pivot = col[0].real
        if pivot < PSD_TOLERANCE:
            raise NumericalError(f"pivot {pivot:.3e} at column {j} below tolerance; "
                                 "matrix is not positive semidefinite")
        d = np.sqrt(max(pivot, 0.0))
        if d == 0.0:
            lower[j:, j] = 0.0
        else:
            lower[j, j] = d
            lower[j + 1:, j] = col[1:] / d
    return lower


def check_length(spec: CorrelationSpec, grid: ResourceGrid):
    """Raise ConfigError unless ``spec.length`` equals the correlated grid size."""
    if spec.mode == "time" and spec.length != grid.t_max:
        raise ConfigError(f"correlation length {spec.length} does not match "
                          f"t_max {grid.t_max}")
    if spec.mode == "frequency" and spec.length != grid.f_max:
        raise ConfigError(f"correlation length {spec.length} does not match "
                          f"f_max {grid.f_max}")


def sample_link_grids(spec: CorrelationSpec, grid: ResourceGrid, n_antennas: int,
                      n_links: int, rng: np.random.Generator) -> np.ndarray:
    """Correlated grids of ``n_links`` consecutive links, shape
    (n_links, n_antennas, t_max, f_max), from one draw of uniforms.

    The correlation is one batched BLAS product with the spec's cached
    factor ``L``: ``L @ z`` along time, ``z @ L.T`` along frequency.
    """
    check_length(spec, grid)
    z = link_normals(rng, n_links, (n_antennas, grid.t_max, grid.f_max))
    if spec.mode == "none":
        return z
    if spec.mode == "time":
        return spec.lower @ z
    return z @ spec.lower.T


def sample_q_block(spec: CorrelationSpec, grid: ResourceGrid, n_links: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Sample the correlated Gaussian grids of ``n_links`` links in one call.

    Returns an (n_links, t_max, f_max) array.  mode "time": each column
    (fixed f) of a link's grid is a draw of CN(0, Sigma), columns mutually
    independent.  mode "frequency": each row is such a draw, rows
    independent.  mode "none": all entries i.i.d. CN(0, 1).  Stacking
    several links into one call changes only how the uniform stream is
    chunked, not the distribution.  It is :func:`sample_link_grids` for one
    link whose antenna axis holds the ``n_links`` rows.
    """
    return sample_link_grids(spec, grid, n_links, 1, rng)[0]
