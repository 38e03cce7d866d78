"""Correlated complex Gaussian grids driving channel variation across
resource blocks.

One grid per (antenna, user, cluster) link holds zero-mean
circularly-symmetric Gaussian values indexed by (RB time, RB frequency).
Correlation is imposed along exactly one RB dimension through a covariance
matrix: along time it plays the role of Doppler spread, along frequency of
delay spread.

Sampling is reproducible: all Gaussians come from the fixed transform
``sqrt(-ln u1 * r**2) * exp(2j*pi*u2)`` (a link's grid ``r * q`` as drawn),
by quarter turns applied as exact products with ``QUARTER_TURNS``, on
uniforms from a counter-based (Philox) stream.  A seed and a stream path fix
every uniform, and every value but the last digits that libm, numpy's SIMD
``tan`` and BLAS may round otherwise on another platform or CPU.  The stream
order is part of that contract: a link grid takes a block of u1 values
followed by a block of u2 values, and several consecutive links drawn as one
``(n_links, 2, ...)`` block are the same sequence.  ``substream`` is the
reference stream of a path; a run re-keys one generator per worker to it,
with keys computed for a chunk of paths at once (``philox_keys``).

``CorrelationSpec`` validates its fields at construction, so
``build_covariance`` only builds the matrix; ``ScenarioConfig`` checks
once that a spec's length fits the resource grid, and a mismatched spec
that reaches the sampler fails in numpy's ``matmul``.  A custom matrix
must be real, square, symmetric, unit-diagonal and PSD, where PSD means
that ``cholesky_psd`` (LAPACK after a 1e-12 diagonal jitter) factors it.
The factor is built once per spec (``CorrelationSpec.lower``), for a
custom matrix at construction as its PSD check.  The correlation is linear
and every link shares it, so a run correlates each user's sum of grids, in
one batched BLAS ``matmul`` per user and chunk (``correlate``); along time
the real factor multiplies the grids' real view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import NumericalError
from .model import ResourceGrid, is_finite_real, is_int

MODES = ("time", "frequency", "none")

CHOLESKY_JITTER = 1e-12

QUARTER_TURNS = np.array([1, 1j, -1, -1j])  # 1j**k, k = 0..3


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
        """Read-only Cholesky factor of the covariance, built on first use (for a
        custom matrix at construction, as its PSD check) and kept on the frozen
        spec, shared by every ``correlate`` call and thread that uses the spec."""
        lower = cholesky_psd(build_covariance(self))
        lower.flags.writeable = False
        return lower


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent, reproducible random stream for (seed, *path): a counter-based
    Philox keyed by the spawn path, so any (seed, path) regenerates the same stream
    whatever the order or thread in which streams are consumed."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def _constants(init: int, mult: int, count: int) -> np.ndarray:
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)


# numpy SeedSequence's hash constants, which no entropy changes: mix_entropy hashes the
# 4 pool words, 12 word pairs and then 4 times per spawn word (2 at most here), and
# generate_state hashes 4 words into a Philox key; _MIX are the multipliers of mix
_HASH_A, _HASH_B = _constants(0x43B0D7E5, 0x931E8875, 24), _constants(0x8B51F9DD, 0x58F38DED, 4)
_MIX = (0xCA01F9DD, 0x4973F715)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of the rows of uint32 ``value`` in turn, from ``consts``."""
    consts = consts.reshape((-1,) + (1,) * (value.ndim - 1))
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _mix(x, y):
    result = _MIX[0] * x - _MIX[1] * y
    return result ^ result >> 16


def seed_pool(seed: int) -> np.ndarray:
    """The entropy pool of ``SeedSequence(seed, spawn_key=(m,))``, seed < 2**64, before
    its spawn words are mixed in: the seeding all realizations of a run share."""
    pool = _hashmix(np.array([seed & 0xFFFFFFFF, seed >> 32, 0, 0], dtype=np.uint32),
                    _HASH_A[:5])  # the seed's words, zero-padded
    for src in range(4):  # each word mixed into the others
        others = [dst for dst in range(4) if dst != src]
        value = _hashmix(np.repeat(pool[src], 3), _HASH_A[4 + 3 * src:8 + 3 * src])
        pool[others] = _mix(pool[others], value)
    return pool


def philox_keys(pool: np.ndarray, indices) -> np.ndarray:
    """(len(indices), 2) uint64 Philox keys of ``substream(seed, m)`` for m in ``indices``,
    ``pool = seed_pool(seed)``: the hash of the spawn words (one below 2**32, else
    two) and ``generate_state(2, uint64)``, on every index at once."""
    m = np.asarray(indices, dtype=np.uint64)
    mixed = pool[:, None]
    for i, (word, used) in enumerate(((m & 0xFFFFFFFF, True), (m >> 32, m >> 32 != 0))):
        value = _hashmix(word.astype(np.uint32)[None], _HASH_A[16 + 4 * i:21 + 4 * i])
        mixed = np.where(used, _mix(mixed, value), mixed)
    state = _hashmix(mixed, _HASH_B)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


def rekey(rng: np.random.Generator, key) -> np.random.Generator:
    """Set ``rng`` (on Philox) to the start of the stream of ``key``, a ``philox_keys`` row."""
    rng.bit_generator.state = {"bit_generator": "Philox", "buffer": (0,) * 4, "buffer_pos": 4,
                               "state": {"counter": (0,) * 4, "key": key},
                               "has_uint32": 0, "uinteger": 0}
    return rng


def complex_normals(u: np.ndarray, variance=1.0, out=None) -> np.ndarray:
    """Circularly-symmetric complex Gaussians ``sqrt(-ln u1 * variance) * exp(2j*pi*u2)``,
    E|q|^2 = variance, of a contiguous ``(2, ...)`` block ``u1, u2 = u`` of uniforms, u1
    taken as ``1 - u`` in (0, 1], into ``out`` if given; u's and out's bytes are the scratch.
    The phase is ``1j**k * (cos psi + 1j*sin psi)``, k = rint(4*u2), psi = 2*pi*(u2 - k/4)
    exactly, |psi| <= pi/4 where libm is fast.  ``y = r sin psi`` is libm's, and
    ``x = r cos psi`` is ``r - tan(psi/2) * y`` by numpy's vectorized tan, within 2 ulp of r.
    ``1j**k`` is an exact product with ``QUARTER_TURNS[k & 3]``, gathered into u's bytes: one
    term of each part is an exact zero, so u2 = 0, 1/4, 1/2, 3/4 give r * (1, 1j, -1, -1j)."""
    u1, u2 = u
    radius = np.log(np.subtract(1.0, u1, out=u1), out=u1)
    np.sqrt(np.multiply(radius, np.negative(variance), out=radius), out=radius)
    out = np.empty(u1.shape, dtype=complex) if out is None else out
    big, t = out.reshape(-1).view(float).reshape((2,) + u1.shape)
    turns = np.multiply(4.0, u2, out=u2)
    # turns + 1.5 * 2**52 rounds half to even, as rint does, to a double whose low bits are
    # rint(turns); k is its last two bits, and psi is taken from it without a cast
    np.add(turns, 1.5 * 2 ** 52, out=big)
    k = np.bitwise_and(big.view(np.int64), 3)
    psi = np.subtract(turns, np.subtract(big, 1.5 * 2 ** 52, out=t), out=turns)
    psi *= np.pi / 2
    # r cos psi = r - 2 r sin(psi/2)**2 = r - tan(psi/2) * r sin psi
    tan = np.tan(np.multiply(psi, 0.5, out=t), out=t)
    np.multiply(radius, np.sin(psi, out=psi), out=psi)
    radius -= np.multiply(tan, psi, out=tan)
    out.real, out.imag = radius, psi
    # k is in 0..3 already; take's default mode="raise" would copy out through a buffer
    turn = QUARTER_TURNS.take(k, out=u.reshape(-1).view(complex).reshape(k.shape), mode="wrap")
    return np.multiply(out, turn, out=out)


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
        with np.errstate(all="ignore"):  # rho ** 0 is 1.0 for every rho, 0 included
            return float(spec.rho) ** lags
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


def correlate(spec: CorrelationSpec, z: np.ndarray, out=None) -> np.ndarray:
    """Grids (..., t_max, f_max) of i.i.d. Gaussians z correlated in one batched BLAS
    product, into ``out`` if given: mode "time" makes each column (fixed f) a
    CN(0, Sigma) draw, ``L @ z``; "frequency" each row, ``z @ L.T``; "none" is z.
    L is real, so along time it multiplies the real view (..., t_max, 2*f_max) of z,
    which gives the complex product's bits; z's last axis, and out's, must then be
    contiguous, as every grid the sampler draws is."""
    if spec.mode == "none":
        return z
    if spec.mode == "time":
        out = np.empty_like(z) if out is None else out
        np.matmul(spec.lower, z.view(float), out=out.view(float))
        return out
    return np.matmul(z, spec.lower.T, out=out)


def sample_link_grids(spec: CorrelationSpec, grid: ResourceGrid, n_antennas: int,
                      n_links: int, rng, variance=1.0) -> np.ndarray:
    """Correlated grids (n_links, n_antennas, t_max, f_max) of consecutive links from one
    draw, per link a u1 block and then a u2 block, of ``variance`` (..., n_antennas)."""
    u = rng.random((n_links, 2, n_antennas, grid.t_max, grid.f_max)).swapaxes(0, 1)
    z = complex_normals(np.ascontiguousarray(u), np.asarray(variance)[..., None, None])
    return correlate(spec, z)
