"""Deterministic spatial structure of the channel.

A scatterer cluster seen from a uniform linear array contributes a complex
mean vector (a phase ramp along the array, scaled by the deterministic
amplitude) and a nonnegative standard-deviation vector (the random Rician
part).  The split between the two is controlled by the cluster's angular
spread fraction: at spread 0 the link is fully deterministic, at spread 1
it degenerates to i.i.d. Rayleigh fading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

RANDOM_DIRECTION = "random"

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array at the base station.

    Args:
        n_antennas: number of array elements (N >= 1).
        spacing_ratio: element spacing as a fraction of the carrier
            wavelength (d / lambda).  Defaults to quarter-wavelength.
    """

    n_antennas: int
    spacing_ratio: float = 0.25

    def __post_init__(self):
        if not (isinstance(self.n_antennas, (int, np.integer)) and self.n_antennas >= 1):
            raise ValueError(f"n_antennas must be a positive integer, got {self.n_antennas!r}")
        if not (np.isfinite(self.spacing_ratio) and self.spacing_ratio > 0):
            raise ValueError(f"spacing_ratio must be > 0, got {self.spacing_ratio!r}")


@dataclass(frozen=True)
class ClusterSpec:
    """One scatterer cluster of a user link.

    Args:
        direction: cluster direction in radians relative to the array axis,
            in [0, pi), or the marker string "random" for a direction drawn
            uniformly on [0, pi) per realization.
        spread_fraction: angular-spread fraction s in [0, 1]. 0 behaves like
            a point source (fully deterministic), 1 like isotropic scattering
            (fully random).
        mean_power: average received power of the cluster; a positive scalar,
            or a length-N vector of per-antenna powers.
    """

    direction: Union[float, str]
    spread_fraction: float
    mean_power: Union[float, np.ndarray] = 1.0

    def __post_init__(self):
        if isinstance(self.direction, str):
            if self.direction != RANDOM_DIRECTION:
                raise ValueError(f"direction must be an angle or {RANDOM_DIRECTION!r}, "
                                 f"got {self.direction!r}")
        else:
            d = float(self.direction)
            if not (np.isfinite(d) and 0.0 <= d < np.pi):
                raise ValueError(f"fixed direction must lie in [0, pi), got {d!r}")
            object.__setattr__(self, "direction", d)
        s = float(self.spread_fraction)
        if not (np.isfinite(s) and 0.0 <= s <= 1.0):
            raise ValueError(f"spread_fraction must lie in [0, 1], got {self.spread_fraction!r}")
        object.__setattr__(self, "spread_fraction", s)
        power = np.atleast_1d(np.asarray(self.mean_power, dtype=float))
        if power.ndim != 1 or power.size < 1:
            raise ValueError("mean_power must be a scalar or a 1-D vector")
        if not (np.isfinite(power).all() and (power > 0).all()):
            raise ValueError("all mean powers must be positive and finite")
        # scalars stay floats and vectors become tuples so specs hash and compare
        if np.ndim(self.mean_power) == 0:
            object.__setattr__(self, "mean_power", float(power[0]))
        else:
            object.__setattr__(self, "mean_power", tuple(float(x) for x in power))

    @property
    def is_random_direction(self) -> bool:
        return isinstance(self.direction, str)

    def power_vector(self, n_antennas: int) -> np.ndarray:
        """Per-antenna power vector, broadcasting a scalar power to length N."""
        power = np.atleast_1d(np.asarray(self.mean_power, dtype=float))
        if power.size == 1:
            return np.full(n_antennas, power[0])
        if power.size != n_antennas:
            raise ValueError(f"per-antenna power vector has length {power.size}, "
                             f"expected {n_antennas}")
        return power.copy()


@dataclass(frozen=True)
class UserSpec:
    """All clusters contributing to one mobile terminal's link."""

    clusters: tuple

    def __post_init__(self):
        clusters = tuple(self.clusters)
        object.__setattr__(self, "clusters", clusters)
        if len(clusters) < 1:
            raise ValueError("a user needs at least one cluster")
        for c in clusters:
            if not isinstance(c, ClusterSpec):
                raise ValueError(f"clusters must be ClusterSpec instances, got {type(c)!r}")

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def total_power(self, n_antennas: int) -> np.ndarray:
        """Per-antenna total average power, summed over clusters."""
        return sum(c.power_vector(n_antennas) for c in self.clusters)


@dataclass(frozen=True)
class SpatialPair:
    """Spatial mean vector p and spatial standard-deviation vector r of one
    (user, cluster) link across the array.

    Every antenna satisfies |p_i|^2 + r_i^2 = beta_i for the power the pair
    was built from.
    """

    p: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=complex)
        r = np.asarray(self.r, dtype=float)
        if p.shape != r.shape or p.ndim != 1:
            raise ValueError("p and r must be 1-D vectors of equal length")
        if (r < 0).any():
            raise ValueError("r must be elementwise nonnegative")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)

    @property
    def power(self) -> np.ndarray:
        """Per-antenna power |p|^2 + r^2 carried by this link."""
        return np.abs(self.p) ** 2 + self.r ** 2


@dataclass(frozen=True)
class ResourceGrid:
    """Block-fading resource grid: t_max x f_max resource blocks, T symbols each."""

    t_max: int = 1
    f_max: int = 1
    symbols_per_rb: int = 1

    def __post_init__(self):
        for name in ("t_max", "f_max", "symbols_per_rb"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 1):
                raise ValueError(f"{name} must be a positive integer, got {v!r}")


def phase_ramp(theta: float, geometry: ArrayGeometry) -> np.ndarray:
    """Deterministic antenna phases of a cluster at direction theta.

    The phase at antenna i (1-based) is
    ``(2*pi * spacing_ratio * cos(theta) * (i - 1)) mod 2*pi``;
    at quarter-wavelength spacing the slope is (pi/2)*cos(theta).

    Any finite angle is accepted; the result lies in [0, 2*pi).
    """
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError(f"direction must be finite, got {theta!r}")
    slope = TWO_PI * geometry.spacing_ratio * np.cos(theta)
    return np.mod(slope * np.arange(geometry.n_antennas), TWO_PI)


def spread_to_std(beta: Union[float, np.ndarray], s: float) -> Union[float, np.ndarray]:
    """Map angular-spread fraction s to the spatial standard deviation.

    r = s * sqrt(beta), so the power budget |p|^2 + r^2 = beta closes for
    every beta: s=0 leaves the link fully deterministic, s=1 puts all the
    power into the random part.
    """
    s = float(s)
    if not (np.isfinite(s) and 0.0 <= s <= 1.0):
        raise ValueError(f"spread fraction must lie in [0, 1], got {s!r}")
    beta_arr = np.asarray(beta, dtype=float)
    if not (np.isfinite(beta_arr).all() and (beta_arr > 0).all()):
        raise ValueError("power must be positive and finite")
    r = s * np.sqrt(beta_arr)
    return float(r) if np.isscalar(beta) or beta_arr.ndim == 0 else r


def draw_direction(rng: np.random.Generator) -> float:
    """Draw a cluster direction uniformly on [0, pi)."""
    return float(rng.uniform(0.0, np.pi))


def build_spatial_pair(cluster: ClusterSpec,
                       geometry: ArrayGeometry,
                       direction_rng: np.random.Generator = None,
                       phase_offset: float = 0.0) -> SpatialPair:
    """Build the (p, r) vectors of one cluster link.

    Per antenna: r_i = s * sqrt(beta_i), |p_i| = sqrt(beta_i - r_i^2) and
    arg(p_i) follows the phase ramp of the cluster direction.  A cluster
    marked "random" draws its direction from ``direction_rng``.

    Args:
        cluster: cluster parameters.
        geometry: array geometry.
        direction_rng: random stream for "random"-direction clusters.
        phase_offset: common phase added to every antenna; models the
            unresolved propagation phase of the cluster and leaves both the
            power budget and the phase slope untouched.
    """
    if cluster.is_random_direction:
        if direction_rng is None:
            raise ValueError("cluster direction is 'random' but no direction_rng given")
        theta = draw_direction(direction_rng)
    else:
        theta = float(cluster.direction)
    beta = cluster.power_vector(geometry.n_antennas)
    r = spread_to_std(beta, cluster.spread_fraction)
    amp = np.sqrt(np.maximum(beta - r ** 2, 0.0))
    phases = phase_ramp(theta, geometry) + phase_offset
    return SpatialPair(p=amp * np.exp(1j * phases), r=np.asarray(r, dtype=float))
