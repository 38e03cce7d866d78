"""Deterministic spatial structure of the channel.

A scatterer cluster seen from a uniform linear array contributes a complex
mean vector (a phase ramp along the array, scaled by the deterministic
amplitude) and a nonnegative standard-deviation vector (the random Rician
part).  The split between the two is controlled by the cluster's angular
spread fraction: at spread 0 the link is fully deterministic, at spread 1
it degenerates to i.i.d. Rayleigh fading.

The spec types check their own fields once, at construction, so the
numerics trust a constructed spec.  Direction and spread are fixed for a
scenario, so ``link_table`` computes every link's Rician part and phasor
``|p| exp(1j * ramp)`` once, as scenario constants.  Per realization, or per
chunk of them along a leading axis, ``link_means`` turns each fixed link's
phasor by its cluster phase and forms all "random" links' ramps from their
drawn directions together, not one link at a time.  The realization kernel
(``scenario._realize_chunk``) adds the means to the grids, drawn as ``r * z``
and correlated once per user; a single link is a one-row ``link_table``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

RANDOM_DIRECTION = "random"

TWO_PI = 2.0 * np.pi


def is_int(value) -> bool:
    """True for integers; bools and integral floats are not integers here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """True for finite ints and floats; bools, strings, complex, NaN and inf are not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and \
        not isinstance(value, bool) and abs(value) <= sys.float_info.max


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
        if not (is_int(self.n_antennas) and self.n_antennas >= 1):
            raise ValueError(f"n_antennas must be a positive integer, got {self.n_antennas!r}")
        if not (is_finite_real(self.spacing_ratio) and self.spacing_ratio > 0):
            raise ValueError(f"spacing_ratio must be a finite real number > 0, "
                             f"got {self.spacing_ratio!r}")
        # plain Python numbers, so the config.json echo is one asdict away
        object.__setattr__(self, "n_antennas", int(self.n_antennas))
        object.__setattr__(self, "spacing_ratio", float(self.spacing_ratio))


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
        elif is_finite_real(self.direction) and 0.0 <= self.direction < np.pi:
            object.__setattr__(self, "direction", float(self.direction))
        else:
            raise ValueError(f"fixed direction must be a real number in [0, pi), "
                             f"got {self.direction!r}")
        s = self.spread_fraction
        if not (is_finite_real(s) and 0.0 <= s <= 1.0):
            raise ValueError(f"spread_fraction must be a real number in [0, 1], got {s!r}")
        object.__setattr__(self, "spread_fraction", float(s))
        power = np.asarray(self.mean_power, dtype=object)
        if not all(is_finite_real(x) and x > 0 for x in power.flat):
            raise ValueError(f"mean_power must hold positive finite real numbers, "
                             f"got {self.mean_power!r}")
        power = np.atleast_1d(power.astype(float))
        if power.ndim != 1 or power.size < 1:
            raise ValueError("mean_power must be a scalar or a 1-D vector")
        # scalars stay floats and vectors become tuples so specs hash and compare
        if np.ndim(self.mean_power) == 0:
            object.__setattr__(self, "mean_power", float(power[0]))
        else:
            object.__setattr__(self, "mean_power", tuple(float(x) for x in power))

    @property
    def is_random_direction(self) -> bool:
        return isinstance(self.direction, str)

    def power_vector(self, n_antennas: int) -> np.ndarray:
        """Per-antenna power vector, broadcasting a scalar power to length N
        (``ScenarioConfig`` checks that a vector has length 1 or N)."""
        return np.broadcast_to(np.asarray(self.mean_power, dtype=float), n_antennas).copy()


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

    def total_power(self, n_antennas: int) -> np.ndarray:
        """Per-antenna total average power, summed over clusters."""
        return sum(c.power_vector(n_antennas) for c in self.clusters)


@dataclass(frozen=True)
class ResourceGrid:
    """Block-fading resource grid: t_max x f_max resource blocks, T symbols each."""

    t_max: int = 1
    f_max: int = 1
    symbols_per_rb: int = 1

    def __post_init__(self):
        for name in ("t_max", "f_max", "symbols_per_rb"):
            v = getattr(self, name)
            if not (is_int(v) and v >= 1):
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))


def phase_ramps(theta, geometry: ArrayGeometry) -> np.ndarray:
    """(..., N) antenna phases of clusters at the directions theta (...).

    The phase at antenna i (1-based) is
    ``(2*pi * spacing_ratio * cos(theta) * (i - 1)) mod 2*pi``;
    at quarter-wavelength spacing the slope is (pi/2)*cos(theta).
    """
    slope = TWO_PI * geometry.spacing_ratio * np.cos(np.asarray(theta, dtype=float))
    ramp = slope[..., None] * np.arange(geometry.n_antennas)
    return np.mod(ramp, TWO_PI, out=ramp)


@dataclass(frozen=True)
class LinkTable:
    """Scenario constants of every (user, cluster) link, in (user, cluster)
    order, shared read-only by all realizations.  ``direction_at`` and
    ``phase_at`` index the uniforms of a realization's spatial draw, which
    holds per link the direction of a "random" cluster and then the phase.
    """

    geometry: ArrayGeometry
    phasor: np.ndarray        # (L, N) |p| exp(1j * ramp) of a fixed link; |p| of a random one
    r: np.ndarray             # (L, N) Rician part s * sqrt(beta)
    user: tuple               # owning user of each link
    random_links: np.ndarray  # links whose direction is drawn per realization
    direction_at: np.ndarray  # their direction uniforms in the spatial draw
    phase_at: np.ndarray      # (L,) phase uniform of each link


def link_table(users, geometry: ArrayGeometry) -> LinkTable:
    """Per-scenario link table of ``users`` (a sequence of UserSpec).

    Per antenna: r_i = s * sqrt(beta_i) and |p_i| = sqrt(beta_i - r_i^2), so
    the power budget |p_i|^2 + r_i^2 = beta_i closes for every spread.
    """
    clusters = [c for user in users for c in user.clusters]
    beta = np.array([c.power_vector(geometry.n_antennas) for c in clusters])
    r = np.array([c.spread_fraction for c in clusters])[:, None] * np.sqrt(beta)
    phasor = np.sqrt(np.maximum(beta - r ** 2, 0.0)).astype(complex)
    random = np.array([c.is_random_direction for c in clusters])
    phasor[~random] *= np.exp(1j * phase_ramps([c.direction for c in clusters
                                                if not c.is_random_direction], geometry))
    # a random link takes two uniforms (direction, phase), a fixed one its phase
    phase_at = np.cumsum(random + 1) - 1
    for array in (phasor, r):
        array.flags.writeable = False
    return LinkTable(geometry=geometry, phasor=phasor, r=r,
                     user=tuple(j for j, user in enumerate(users) for _ in user.clusters),
                     random_links=np.flatnonzero(random), direction_at=phase_at[random] - 1,
                     phase_at=phase_at)


def link_means(table: LinkTable, phases, directions=(), out=None) -> np.ndarray:
    """(..., L, N) spatial means ``p = |p| exp(1j * (ramp + phase))`` of every link,
    into ``out`` if given: a fixed link's phasor turned by ``exp(1j * phase)``, and
    all random links' ramps formed together from their directions.

    ``phases`` (..., L) holds each link's common phase offset, ``directions``
    (..., R) the directions of the table's random links in their order.
    """
    phases, random = np.asarray(phases, dtype=float), table.random_links
    if np.shape(directions)[-1:] != random.shape:  # a count of 1 would broadcast
        raise ValueError(f"directions {np.shape(directions)}: need {len(random)} per realization")
    out = np.multiply(table.phasor, np.exp(1j * phases)[..., None], out=out)
    mean = 1j * (phase_ramps(directions, table.geometry) + phases[..., random, None])
    out[..., random, :] = np.multiply(table.phasor[random].real, np.exp(mean, out=mean), out=mean)
    return out

