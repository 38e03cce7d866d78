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

``CorrelationSpec`` validates its fields at construction, so
``build_covariance`` only builds the matrix; ``ScenarioConfig`` checks
once that a spec's length fits the resource grid, and a mismatched spec
that reaches the sampler fails in numpy's ``matmul``.  A custom matrix
must be real, square, symmetric, unit-diagonal and PSD, where PSD means
that ``cholesky_psd`` (LAPACK after a 1e-12 diagonal jitter) factors it.
The factor is built once per spec (``CorrelationSpec.lower``), for a
custom matrix at construction as its PSD check, and the correlation
itself is one batched BLAS ``matmul`` per block of links
(``sample_link_grids``, the one sampler; a single link is ``n_links=1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import NumericalError
from .model import ResourceGrid, draw_uniforms, is_finite_real, is_int

MODES = ("time", "frequency", "none")

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
        object.__setattr__(self, "length", int(self.length))
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
            # nested tuples so the spec stays hashable and comparable
            object.__setattr__(self, "matrix", tuple(map(tuple, m.tolist())))
            try:
                self.lower  # the factor the run uses, built here once
            except NumericalError as exc:
                raise ValueError("custom covariance has an eigenvalue below about -1e-12 "
                                 "(no Cholesky factor); not PSD") from exc

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
        """Read-only Cholesky factor of the covariance, built on first use
        (for a custom matrix at construction, as its PSD check).

        The spec is frozen, so the factor depends on nothing else: it is
        kept on the instance and shared by every ``sample_link_grids`` call
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


def link_normals(rng, n_links: int, shape) -> np.ndarray:
    """(n_links,) + shape circularly-symmetric complex Gaussians, E|q|^2 = 1.

    One ``draw_uniforms`` of ``(n_links, 2) + shape``: per link a u1 block
    and then a u2 block, transformed by ``sqrt(-ln u1) * exp(2j*pi*u2)``
    with u1 taken as ``1 - u`` in (0, 1]; real and imaginary parts each
    have variance 1/2.
    """
    u1, u2 = np.moveaxis(draw_uniforms(rng, (n_links, 2) + tuple(shape)), -1 - len(shape), 0)
    radius = np.subtract(1.0, u1, out=u1)  # the formula, in place in the fresh draw
    np.sqrt(np.negative(np.log(radius, out=radius), out=radius), out=radius)
    z = np.multiply(2j * np.pi, u2)
    return np.multiply(radius, np.exp(z, out=z), out=z)


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
    """Lower-triangular L with L @ L^H = sigma + 1e-12 * I, from LAPACK.

    The jitter lets near-singular covariances (e.g. rho -> 1) factor; a
    matrix that still has no factor is not PSD and raises NumericalError.
    The diagonal of L is real and positive.
    """
    a = np.array(sigma, dtype=complex if np.iscomplexobj(sigma) else float)
    a[np.diag_indices_from(a)] += CHOLESKY_JITTER
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("Cholesky factorization met a non-positive pivot; "
                             "matrix is not positive semidefinite") from exc


def sample_link_grids(spec: CorrelationSpec, grid: ResourceGrid, n_antennas: int,
                      n_links: int, rng) -> np.ndarray:
    """Correlated grids of ``n_links`` consecutive links, shape
    (..., n_links, n_antennas, t_max, f_max), from one ``draw_uniforms``.

    Per link and antenna, mode "time" makes each column (fixed f) of the
    grid a CN(0, Sigma) draw, columns independent; mode "frequency" each
    row; mode "none" all entries i.i.d. CN(0, 1).  The correlation is one
    batched BLAS product with the spec's cached factor ``L``: ``L @ z``
    along time, ``z @ L.T`` along frequency.
    """
    z = link_normals(rng, n_links, (n_antennas, grid.t_max, grid.f_max))
    if spec.mode == "none":
        return z
    if spec.mode == "time":
        return spec.lower @ z
    return z @ spec.lower.T
