"""Scenario configuration, validation presets, and seeded orchestration.

A scenario is a JSON document (or a preset name) that fixes the array, the
users' clusters, the resource grid, the RB correlation model, a seed, and
the requested output artifacts.  Running a scenario is deterministic given
the seed: every realization draws from its own counter-based substream, so
results are bitwise identical across repeat runs and across thread counts.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analytics
from .assembly import add_links
from .errors import ConfigError, NumericalError
from .model import (RANDOM_DIRECTION, ArrayGeometry, ClusterSpec, LinkTable, ResourceGrid,
                    UserSpec, draw_means, is_int, link_table)
from .stochastic import CorrelationSpec, check_length, sample_link_grids, substream

ARTIFACT_NAMES = ("histogram", "cross-correlation", "eigencdf",
                  "power-profile", "correlation-matrix", "raw-channel")

DEFAULT_BINS = 64
DEFAULT_PRESET_SEED = 1000003

# Largest array a run builds, in entries: the (t_max, f_max, N, K) channel
# tensor of one realization (2**24 complex entries are 256 MiB), the
# length x length RB covariance, the bins x bins coefficient histogram and
# the channel entries of all realizations, which the histogram and
# raw-channel outputs keep until the end of the run.  A larger scenario is
# a ConfigError at validation, not a failed allocation at run time; every
# preset, benchmark workload and README example stays far below it.
MAX_ARRAY_ENTRIES = 2 ** 24

# Uniforms per link-grid draw (512 KiB): a realization draws its link grids
# max(1, DRAW_BLOCK_UNIFORMS // (2*N*t_max*f_max)) links at a time, so a
# single-RB scenario draws all its links at once and a large RB grid one
# link at a time, which bounds the working set.
DRAW_BLOCK_UNIFORMS = 2 ** 16

# Frozen validation geometry: stratified principal user directions plus
# per-cluster offsets that scale with the cluster's angular spread, so the
# LOS and NLOS variants of one scenario share the same underlying draw and
# differ only through their spread fractions.
_K3_PRINCIPAL = (0.25111391655907217, 1.675313356991702, 2.386720909548449)
_K3_OFFSETS = ((-1.4398305372311229, 1.1242432238146183, -1.2684029636672087),
               (1.4003292775809402, -0.3916041804884667, -1.0575825162877153),
               (0.08908149162317724, -0.48545964647806206, -0.7609054870675304))
_K6_PRINCIPAL = (0.12555695827953609, 0.837656678495851, 1.1933604547742245,
                 1.640618309629896, 2.5060935867009606, 2.710672870635016)
_K6_OFFSETS = ((1.4003292775809402, -0.3916041804884667, -1.0575825162877153),
               (0.08908149162317724, -0.48545964647806206, -0.7609054870675304),
               (0.4011294607407494, -0.496410251801096, -0.24803178644918855),
               (0.6857236484089309, 0.5690262286997689, 0.4247061913718053),
               (1.401991652038597, 0.7798872776244901, -0.8998413060276411),
               (0.13707275693096022, 0.74462317203957, -1.0141169005376334))

NLOS_SPREADS = (0.6, 0.8, 1.0)
LOS_SPREADS = (0.05, 0.1, 0.15)
CLUSTER_POWER_SPLIT = (0.5, 0.3, 0.2)

PRESET_NAMES = ("iid", "nlos", "los", "paper-A", "paper-B", "paper-C", "paper-D",
                "fig2", "fig3", "fig4", "fig5", "fig6")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated simulation scenario; violations raise ConfigError."""

    seed: int
    geometry: ArrayGeometry
    users: tuple
    grid: ResourceGrid = ResourceGrid()
    correlation: CorrelationSpec = CorrelationSpec.none()
    realizations: int = 1
    outputs: tuple = ()
    bins: int = DEFAULT_BINS

    def __post_init__(self):
        if not (is_int(self.seed) and 0 <= self.seed < 2 ** 64):
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        users = tuple(self.users)
        object.__setattr__(self, "users", users)
        if len(users) < 1:
            raise ConfigError("at least one user required")
        if not (is_int(self.realizations) and self.realizations >= 1):
            raise ConfigError(f"realizations must be a positive integer, "
                              f"got {self.realizations!r}")
        seen = []
        for name in self.outputs:
            if name not in ARTIFACT_NAMES:
                raise ConfigError(f"unknown output {name!r}; valid outputs: {ARTIFACT_NAMES}")
            if name not in seen:
                seen.append(name)
        object.__setattr__(self, "outputs", tuple(seen))
        if not (is_int(self.bins) and self.bins >= 1):
            raise ConfigError(f"bins must be a positive integer, got {self.bins!r}")
        check_length(self.correlation, self.grid)
        n = self.geometry.n_antennas
        tensor = self.grid.t_max * self.grid.f_max * n * len(users)
        sizes = {"channel tensor t_max*f_max*n_antennas*users": tensor,
                 "covariance length**2": self.correlation.length ** 2,
                 "histogram bins**2": self.bins ** 2}
        if {"histogram", "raw-channel"} & set(self.outputs):
            sizes["kept channel realizations*t_max*f_max*n_antennas*users"] = \
                self.realizations * tensor
        for array, entries in sizes.items():
            if entries > MAX_ARRAY_ENTRIES:
                raise ConfigError(f"scenario too large: the {array} has {entries} "
                                  f"entries, limit {MAX_ARRAY_ENTRIES}")
        for j, user in enumerate(users):
            for c, cluster in enumerate(user.clusters):
                if np.size(cluster.mean_power) not in (1, n):
                    raise ConfigError(f"users[{j}].clusters[{c}].mean_power: per-antenna "
                                      f"power vector has length {np.size(cluster.mean_power)}, "
                                      f"expected 1 or n_antennas = {n}")
        k = len(users)
        if k < 2 and any(o in self.outputs for o in ("correlation-matrix", "cross-correlation")):
            raise ConfigError("correlation outputs need at least two users")

    @property
    def n_users(self) -> int:
        return len(self.users)

    def mean_link_power(self) -> float:
        """Configured average per-link power, mean over antennas and users."""
        n = self.geometry.n_antennas
        return float(np.mean([u.total_power(n).mean() for u in self.users]))


@dataclass(frozen=True)
class ReportBundle:
    """Computed artifacts of one scenario run, keyed by artifact name."""

    config: ScenarioConfig
    artifacts: dict
    files: Optional[dict] = None
    manifest: Optional[tuple] = None


# ---------------------------------------------------------------------------
# configuration documents

def _require_keys(mapping: dict, allowed: dict, path: str) -> dict:
    out = {}
    for key, value in mapping.items():
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r} (allowed: {sorted(allowed)})")
        out[key] = value
    for key, required in allowed.items():
        if required and key not in mapping:
            raise ConfigError(f"{path}: missing required key {key!r}")
    return out


def _build(path: str, make, *args, **kwargs):
    """Call a spec constructor; the error it raises becomes a ConfigError at ``path``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _cluster_from_dict(d: dict, path: str) -> ClusterSpec:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: cluster must be an object")
    d = _require_keys(d, {"direction": True, "spread_fraction": True, "mean_power": False},
                      path)
    return _build(path, ClusterSpec, **d)


def _correlation_from_dict(d: dict, path: str) -> CorrelationSpec:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: correlation must be an object")
    mode = d.get("mode", "none")
    if mode == "none":
        _require_keys(d, {"mode": False}, path)
        return CorrelationSpec.none()
    model = d.get("model", "exponential")
    if model == "exponential":
        d = _require_keys(d, {"mode": True, "model": False, "rho": True, "length": True},
                          path)
        return _build(path, CorrelationSpec.exponential, mode, d["rho"], d["length"])
    if model == "custom":
        d = _require_keys(d, {"mode": True, "model": True, "matrix": True}, path)
        return _build(path, CorrelationSpec.custom, mode, d["matrix"])
    raise ConfigError(f"{path}.model: must be 'exponential' or 'custom', got {model!r}")


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a JSON-compatible dictionary."""
    if not isinstance(doc, dict):
        raise ConfigError("config: document must be a JSON object")
    if "preset" in doc:
        doc = _require_keys(doc, {"preset": True}, "config")
        return expand_preset(doc["preset"])
    doc = _require_keys(doc, {"seed": True, "geometry": True, "users": True,
                              "grid": False, "correlation": False,
                              "realizations": True, "outputs": False,
                              "bins": False}, "config")
    geo = doc["geometry"]
    if not isinstance(geo, dict):
        raise ConfigError("config.geometry: must be an object")
    geo = _require_keys(geo, {"n_antennas": True, "spacing_ratio": False},
                        "config.geometry")
    geometry = _build("config.geometry", ArrayGeometry, **geo)
    if not isinstance(doc["users"], list) or not doc["users"]:
        raise ConfigError("config.users: must be a non-empty list")
    users = []
    for j, user_doc in enumerate(doc["users"]):
        path = f"config.users[{j}]"
        if not isinstance(user_doc, dict):
            raise ConfigError(f"{path}: user must be an object")
        user_doc = _require_keys(user_doc, {"clusters": True}, path)
        if not isinstance(user_doc["clusters"], list) or not user_doc["clusters"]:
            raise ConfigError(f"{path}.clusters: must be a non-empty list")
        clusters = tuple(_cluster_from_dict(c, f"{path}.clusters[{i}]")
                         for i, c in enumerate(user_doc["clusters"]))
        users.append(_build(path, UserSpec, clusters))
    grid_doc = doc.get("grid", {})
    if not isinstance(grid_doc, dict):
        raise ConfigError("config.grid: must be an object")
    grid_doc = _require_keys(grid_doc, {"t_max": False, "f_max": False,
                                        "symbols_per_rb": False}, "config.grid")
    grid = _build("config.grid", ResourceGrid, **grid_doc)
    correlation = _correlation_from_dict(doc.get("correlation", {"mode": "none"}),
                                         "config.correlation")
    outputs = doc.get("outputs", [])
    if not isinstance(outputs, list):
        raise ConfigError("config.outputs: must be a list of artifact names")
    return _build("config", ScenarioConfig, seed=doc["seed"], geometry=geometry,
                  users=tuple(users), grid=grid, correlation=correlation,
                  realizations=doc["realizations"], outputs=tuple(outputs),
                  bins=doc.get("bins", DEFAULT_BINS))


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document.

    Syntax errors carry the line and column; semantic errors name the
    offending field and the violated constraint.  Unknown keys are errors.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"syntax error at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError("document is nested too deeply") from exc
    return config_from_dict(doc)


def _cluster_to_dict(cluster: ClusterSpec) -> dict:
    power = cluster.mean_power
    return {"direction": cluster.direction,
            "spread_fraction": cluster.spread_fraction,
            "mean_power": list(power) if isinstance(power, tuple) else power}


def config_to_dict(config: ScenarioConfig) -> dict:
    """JSON-compatible echo of a config; parsing it reproduces the config."""
    doc = {
        "seed": int(config.seed),
        "geometry": {"n_antennas": int(config.geometry.n_antennas),
                     "spacing_ratio": float(config.geometry.spacing_ratio)},
        "users": [{"clusters": [_cluster_to_dict(c) for c in u.clusters]}
                  for u in config.users],
        "grid": {"t_max": int(config.grid.t_max), "f_max": int(config.grid.f_max),
                 "symbols_per_rb": int(config.grid.symbols_per_rb)},
        "realizations": int(config.realizations),
        "outputs": list(config.outputs),
        "bins": int(config.bins),
    }
    corr = config.correlation
    if corr.mode == "none":
        doc["correlation"] = {"mode": "none"}
    elif corr.rho is not None:
        doc["correlation"] = {"mode": corr.mode, "model": "exponential",
                              "rho": corr.rho, "length": int(corr.length)}
    else:
        doc["correlation"] = {"mode": corr.mode, "model": "custom",
                              "matrix": [[float(x) for x in row] for row in corr.matrix]}
    return doc


# ---------------------------------------------------------------------------
# presets

def _scattered_directions(principals, offsets, spreads):
    th = np.mod(np.asarray(principals)[:, None]
                + np.asarray(spreads)[None, :] * np.asarray(offsets), np.pi)
    return th


def _validation_users(principals, offsets, spreads, n_antennas,
                      power_ramp: bool = False):
    directions = _scattered_directions(principals, offsets, spreads)
    ramp = np.linspace(0.5, 1.5, n_antennas)
    users = []
    for j in range(len(principals)):
        clusters = []
        for c, s in enumerate(spreads):
            power = CLUSTER_POWER_SPLIT[c] * ramp if power_ramp else CLUSTER_POWER_SPLIT[c]
            clusters.append(ClusterSpec(direction=float(directions[j, c]),
                                        spread_fraction=s, mean_power=power))
        users.append(UserSpec(clusters=tuple(clusters)))
    return tuple(users)


def _paper_matrix_config(seed, n_antennas, spreads) -> ScenarioConfig:
    return ScenarioConfig(
        seed=seed,
        geometry=ArrayGeometry(n_antennas=n_antennas),
        users=_validation_users(_K3_PRINCIPAL, _K3_OFFSETS, spreads, n_antennas),
        realizations=1000,
        outputs=("correlation-matrix",),
    )


def _k6_config(seed, spreads, outputs, power_ramp=False) -> ScenarioConfig:
    n = 128
    return ScenarioConfig(
        seed=seed,
        geometry=ArrayGeometry(n_antennas=n),
        users=_validation_users(_K6_PRINCIPAL, _K6_OFFSETS, spreads, n,
                                power_ramp=power_ramp),
        realizations=1000,
        outputs=outputs,
    )


def _ring_config(seed, spread) -> ScenarioConfig:
    user = UserSpec(clusters=(ClusterSpec(direction=np.pi / 3,
                                          spread_fraction=spread, mean_power=1.0),))
    return ScenarioConfig(seed=seed, geometry=ArrayGeometry(n_antennas=128),
                          users=(user,), realizations=1000, outputs=("histogram",))


def expand_preset(name: str, seed: int = DEFAULT_PRESET_SEED) -> ScenarioConfig:
    """Expand a named preset into a full scenario configuration.

    The iid / nlos / los family and the validation scenarios paper-A..D use
    three clusters per user with power split 0.5/0.3/0.2; the paper-A/B and
    paper-C/D pairs differ only in the number of antennas (128 vs 20) and in
    the spread fractions (NLOS 0.6/0.8/1.0 vs LOS 0.05/0.1/0.15).  fig2/fig3
    are single-user ring histogram scenarios, fig4 draws two single-cluster
    users with fresh random directions per realization, fig5 emits the
    eigenvalue CDF and fig6 a power profile with a per-antenna power ramp.
    """
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; valid presets: {PRESET_NAMES}")
    if name == "paper-A":
        return _paper_matrix_config(seed, 128, NLOS_SPREADS)
    if name == "paper-B":
        return _paper_matrix_config(seed, 128, LOS_SPREADS)
    if name == "paper-C":
        return _paper_matrix_config(seed, 20, NLOS_SPREADS)
    if name == "paper-D":
        return _paper_matrix_config(seed, 20, LOS_SPREADS)
    if name == "nlos":
        return _k6_config(seed, NLOS_SPREADS, ("correlation-matrix", "eigencdf"))
    if name == "los":
        return _k6_config(seed, LOS_SPREADS, ("correlation-matrix", "eigencdf"))
    if name == "iid":
        users = tuple(
            UserSpec(clusters=tuple(ClusterSpec(direction=RANDOM_DIRECTION,
                                                spread_fraction=1.0,
                                                mean_power=p)
                                    for p in CLUSTER_POWER_SPLIT))
            for _ in range(6))
        return ScenarioConfig(seed=seed, geometry=ArrayGeometry(n_antennas=128),
                              users=users, realizations=1000,
                              outputs=("eigencdf", "cross-correlation"))
    if name == "fig2":
        return _ring_config(seed, 0.1)
    if name == "fig3":
        return _ring_config(seed, 0.5)
    if name == "fig4":
        users = tuple(UserSpec(clusters=(ClusterSpec(direction=RANDOM_DIRECTION,
                                                     spread_fraction=0.1,
                                                     mean_power=1.0),))
                      for _ in range(2))
        return ScenarioConfig(seed=seed, geometry=ArrayGeometry(n_antennas=128),
                              users=users, realizations=2000,
                              outputs=("cross-correlation",))
    if name == "fig5":
        return _k6_config(seed, NLOS_SPREADS, ("eigencdf",))
    return _k6_config(seed, NLOS_SPREADS, ("power-profile",), power_ramp=True)


# ---------------------------------------------------------------------------
# orchestration

def _realize(config: ScenarioConfig, links: LinkTable, index: int, needs: set) -> dict:
    """Compute one realization's artifact contributions.

    Draw order from substream(seed, index), the reproducibility contract:
    first one spatial block of uniforms holding, per (user, cluster) in
    lexicographic order, the direction (only for "random" clusters) and
    then the cluster phase; afterwards per (user, cluster) the link grid, a
    u1 block followed by a u2 block.  Consecutive links are drawn together
    as one block of that same sequence and added to the channel tensor in
    (user, cluster) order before the next block is drawn.  Each statistic
    is taken once over the (t_max, f_max, N, K) channel tensor, RBs in
    t-major order.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rng = substream(config.seed, index)
        n, grid = config.geometry.n_antennas, config.grid
        p = draw_means(links, rng)
        h = np.zeros((grid.t_max, grid.f_max, n, config.n_users), dtype=complex)
        step = max(1, DRAW_BLOCK_UNIFORMS // (2 * n * grid.t_max * grid.f_max))
        for a in range(0, len(p), step):
            block = slice(a, a + step)
            # the grids are bound to no name, so they are freed once added
            add_links(h, links.user[block], p[block], links.r[block],
                      sample_link_grids(config.correlation, grid, n, len(p[block]), rng))

        out = {}
        if "histogram" in needs:
            out["samples"] = h.ravel()
        if needs & {"cross-correlation", "eigencdf"}:
            stats = analytics.gram(h)
            if "cross-correlation" in needs:
                out["offdiag"] = stats.offdiag_mags.ravel()
            if "eigencdf" in needs:
                out["eigen"] = analytics.eigenvalues_hermitian(stats.g).ravel()
        if "power-profile" in needs:
            out["power"] = analytics.power_profile(h)
        if "correlation-matrix" in needs:
            k = config.n_users
            out["xcorr"] = analytics.ordered_mean(
                analytics.pairwise_correlation(h).reshape(-1, k, k))
        if "raw-channel" in needs:
            out["raw"] = [(index, t + 1, f + 1, h[t, f]) for t, f in np.ndindex(h.shape[:2])]
    return out


def _require_finite(artifacts: dict):
    """Raise NumericalError if an artifact holds nan or inf, as a reduction
    over overflowing channel powers does."""
    for name, payload in artifacts.items():
        if name == "raw-channel":
            arrays = [row[3] for row in payload]
        elif isinstance(payload, dict):
            arrays = payload.values()
        elif isinstance(payload, np.ndarray):
            arrays = [payload]
        else:
            arrays = vars(payload).values()
        if not all(np.isfinite(a).all() for a in arrays):
            raise NumericalError(f"{name} is not finite: a channel power overflowed")


def run_scenario(config: ScenarioConfig, out_dir=None, threads: int = 1) -> ReportBundle:
    """Run a scenario and compute its requested artifacts.

    Realizations are independent substreams of the config seed; with
    ``threads > 1`` they are computed concurrently but reduced in
    realization order, so artifacts are bitwise identical to a
    single-threaded run.  With ``out_dir`` set, artifacts are also written
    as CSV/SVG files plus a manifest (see :mod:`blockfade.emit`).
    """
    if not (is_int(threads) and threads >= 1):
        raise ConfigError(f"threads must be a positive integer, got {threads!r}")
    needs = set(config.outputs)
    links = link_table(config.users, config.geometry)
    indices = range(config.realizations)
    if threads == 1:
        results = [_realize(config, links, m, needs) for m in indices]
    else:
        with ThreadPoolExecutor(max_workers=min(threads, config.realizations)) as pool:
            results = list(pool.map(lambda m: _realize(config, links, m, needs), indices))

    # an overflowing channel power only becomes a non-finite artifact here
    with np.errstate(over="ignore", invalid="ignore"):
        artifacts = {}
        if "histogram" in needs:
            samples = np.concatenate([r["samples"] for r in results])
            artifacts["histogram"] = analytics.coefficient_histogram(samples, config.bins)
        if "cross-correlation" in needs:
            mags = np.concatenate([r["offdiag"] for r in results])
            top = max(1.0, float(mags.max()))
            edges = np.linspace(0.0, top, config.bins + 1)
            counts, _ = np.histogram(mags, bins=edges)
            artifacts["cross-correlation"] = {"edges": edges, "counts": counts.astype(np.int64),
                                              "magnitudes": mags}
        if "eigencdf" in needs:
            eigen = np.concatenate([r["eigen"] for r in results])
            artifacts["eigencdf"] = analytics.empirical_cdf(eigen / config.mean_link_power())
        if "power-profile" in needs:
            artifacts["power-profile"] = analytics.ordered_mean([r["power"] for r in results])
        if "correlation-matrix" in needs:
            artifacts["correlation-matrix"] = analytics.average_correlation(
                [r["xcorr"] for r in results])
        if "raw-channel" in needs:
            artifacts["raw-channel"] = [row for r in results for row in r["raw"]]
    _require_finite(artifacts)

    bundle = ReportBundle(config=config, artifacts=artifacts)
    if out_dir is not None:
        from .emit import write_bundle
        files, manifest = write_bundle(bundle, out_dir)
        bundle = ReportBundle(config=config, artifacts=artifacts,
                              files=files, manifest=manifest)
    return bundle
