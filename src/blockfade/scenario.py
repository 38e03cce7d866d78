"""Scenario configuration, validation presets, and seeded orchestration.

A scenario is a JSON document (or a preset name) that fixes the array, the
users' clusters, the resource grid, the RB correlation model, a seed, and
the requested output artifacts.  Running a scenario is deterministic given
the seed: every realization draws from its own counter-based substream, so
results are bitwise identical across repeat runs and across thread counts.

The spec dataclasses are the document schema: an object's keys are its
type's fields, required where the field has no default, and the type
validates their values.  Only the correlation object has its own form.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields
from functools import partial
from typing import Optional

import numpy as np

from . import analytics
from .errors import ConfigError, NumericalError
from .model import (RANDOM_DIRECTION, ArrayGeometry, ClusterSpec, LinkTable, ResourceGrid,
                    TWO_PI, UserSpec, is_int, link_means, link_table)
from .stochastic import CorrelationSpec, complex_normals, correlate, philox_keys, rekey

ARTIFACT_NAMES = ("histogram", "cross-correlation", "eigencdf",
                  "power-profile", "correlation-matrix", "raw-channel")

DEFAULT_BINS = 64
DEFAULT_PRESET_SEED = 1000003

# Largest array a run builds, in entries (2**24 complex entries are 256 MiB).
# ScenarioConfig sizes every array a run may build, of one realization or kept
# for all of them, with the outputs that need it: a larger scenario is a
# ConfigError at validation, not a failed allocation at run time.  Every preset,
# benchmark workload and README example stays far below it.
MAX_ARRAY_ENTRIES = 2 ** 24

# Bytes of all workers' workspaces (1 GiB), so a large workspace runs on fewer workers, and
# the most workers a run starts whatever --threads asks; no output depends on their number.
WORKSPACE_BUDGET = 4 * 16 * MAX_ARRAY_ENTRIES
MAX_WORKERS = 64

# Uniforms per link-grid draw (512 KiB), bounding the working set; `_plan` sizes by it.
DRAW_BLOCK_UNIFORMS = 2 ** 16

# Frozen validation geometry, a (principals, offsets) pair: stratified
# principal user directions plus per-cluster offsets that scale with the
# cluster's angular spread, so the LOS and NLOS variants of one scenario
# share the same underlying draw and differ only through their spread
# fractions.
_K3 = ((0.25111391655907217, 1.675313356991702, 2.386720909548449),
       ((-1.4398305372311229, 1.1242432238146183, -1.2684029636672087),
        (1.4003292775809402, -0.3916041804884667, -1.0575825162877153),
        (0.08908149162317724, -0.48545964647806206, -0.7609054870675304)))
_K6 = ((0.12555695827953609, 0.837656678495851, 1.1933604547742245,
        1.640618309629896, 2.5060935867009606, 2.710672870635016),
       ((1.4003292775809402, -0.3916041804884667, -1.0575825162877153),
        (0.08908149162317724, -0.48545964647806206, -0.7609054870675304),
        (0.4011294607407494, -0.496410251801096, -0.24803178644918855),
        (0.6857236484089309, 0.5690262286997689, 0.4247061913718053),
        (1.401991652038597, 0.7798872776244901, -0.8998413060276411),
        (0.13707275693096022, 0.74462317203957, -1.0141169005376334)))

NLOS_SPREADS = (0.6, 0.8, 1.0)
LOS_SPREADS = (0.05, 0.1, 0.15)
CLUSTER_POWER_SPLIT = (0.5, 0.3, 0.2)

# One row per preset: the cluster directions, as the frozen (principals,
# offsets) geometry or as one direction per user shared by its clusters (an
# angle or "random"); the clusters' spread fractions and mean powers; N; the
# realizations; the outputs; and whether each cluster's power ramps 0.5 ->
# 1.5 along the array.
_PRESETS = {
    "iid": (6 * (RANDOM_DIRECTION,), (1.0, 1.0, 1.0), CLUSTER_POWER_SPLIT, 128, 1000,
            ("eigencdf", "cross-correlation"), False),
    "nlos": (_K6, NLOS_SPREADS, CLUSTER_POWER_SPLIT, 128, 1000,
             ("correlation-matrix", "eigencdf"), False),
    "los": (_K6, LOS_SPREADS, CLUSTER_POWER_SPLIT, 128, 1000,
            ("correlation-matrix", "eigencdf"), False),
    "paper-A": (_K3, NLOS_SPREADS, CLUSTER_POWER_SPLIT, 128, 1000, ("correlation-matrix",), False),
    "paper-B": (_K3, LOS_SPREADS, CLUSTER_POWER_SPLIT, 128, 1000, ("correlation-matrix",), False),
    "paper-C": (_K3, NLOS_SPREADS, CLUSTER_POWER_SPLIT, 20, 1000, ("correlation-matrix",), False),
    "paper-D": (_K3, LOS_SPREADS, CLUSTER_POWER_SPLIT, 20, 1000, ("correlation-matrix",), False),
    "fig2": ((np.pi / 3,), (0.1,), (1.0,), 128, 1000, ("histogram",), False),
    "fig3": ((np.pi / 3,), (0.5,), (1.0,), 128, 1000, ("histogram",), False),
    "fig4": (2 * (RANDOM_DIRECTION,), (0.1,), (1.0,), 128, 2000, ("cross-correlation",), False),
    "fig5": (_K6, NLOS_SPREADS, CLUSTER_POWER_SPLIT, 128, 1000, ("eigencdf",), False),
    "fig6": (_K6, NLOS_SPREADS, CLUSTER_POWER_SPLIT, 128, 1000, ("power-profile",), True),
}

PRESET_NAMES = tuple(_PRESETS)


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated simulation scenario; violations raise ConfigError.
    Its fields are the top-level keys of a scenario document."""

    seed: int
    geometry: ArrayGeometry
    users: tuple
    realizations: int
    grid: ResourceGrid = ResourceGrid()
    correlation: CorrelationSpec = CorrelationSpec.none()
    outputs: tuple = ()
    bins: int = DEFAULT_BINS

    def __post_init__(self):
        if not (is_int(self.seed) and 0 <= self.seed < 2 ** 64):
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        users = tuple(self.users)
        object.__setattr__(self, "users", users)
        if len(users) < 1:
            raise ConfigError("at least one user required")
        for name in ("realizations", "bins"):
            value = getattr(self, name)
            if not (is_int(value) and value >= 1):
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        for name in self.outputs:
            if name not in ARTIFACT_NAMES:
                raise ConfigError(f"unknown output {name!r}; valid outputs: {ARTIFACT_NAMES}")
        object.__setattr__(self, "outputs", tuple(dict.fromkeys(self.outputs)))
        for name in ("seed", "realizations", "bins"):
            object.__setattr__(self, name, int(getattr(self, name)))
        axis = {"time": "t_max", "frequency": "f_max"}.get(self.correlation.mode)
        if axis and self.correlation.length != getattr(self.grid, axis):
            raise ConfigError(f"correlation length {self.correlation.length} does not match "
                              f"{axis} {getattr(self.grid, axis)}")
        n, k = self.geometry.n_antennas, len(users)
        rbs, outputs = self.grid.t_max * self.grid.f_max, set(self.outputs)
        for array, entries, needed in (  # the outputs that need the array; () for every run
                ("channel tensor t_max*f_max*n_antennas*users", rbs * n * k, ()),
                ("link table clusters*n_antennas", sum(len(u.clusters) for u in users) * n, ()),
                ("covariance length**2", self.correlation.length ** 2, ()),
                ("histogram bins**2", self.bins ** 2, ()),
                ("kept channel realizations*t_max*f_max*n_antennas*users",
                 self.realizations * rbs * n * k, {"histogram", "raw-channel"}),
                ("eigenvalues realizations*t_max*f_max*users", self.realizations * rbs * k,
                 {"eigencdf"}),
                ("cross-correlation magnitudes realizations*t_max*f_max*users*(users-1)/2",
                 self.realizations * rbs * k * (k - 1) // 2, {"cross-correlation"}),
                ("Gram matrix users**2", k * k,
                 {"eigencdf", "cross-correlation", "correlation-matrix"}),
                ("power profiles realizations*n_antennas*users", self.realizations * n * k,
                 {"power-profile"}),
                ("correlation matrices realizations*users**2", self.realizations * k * k,
                 {"correlation-matrix"})):
            if entries > MAX_ARRAY_ENTRIES and (not needed or needed & outputs):
                raise ConfigError(f"scenario too large: the {array} has {entries} "
                                  f"entries, limit {MAX_ARRAY_ENTRIES}")
        for j, user in enumerate(users):
            for c, cluster in enumerate(user.clusters):
                if np.size(cluster.mean_power) not in (1, n):
                    raise ConfigError(f"users[{j}].clusters[{c}].mean_power: per-antenna "
                                      f"power vector has length {np.size(cluster.mean_power)}, "
                                      f"expected 1 or n_antennas = {n}")
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

def _require_keys(mapping: dict, allowed: dict, path: str):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r} (allowed: {sorted(allowed)})")
    for key, required in allowed.items():
        if required and key not in mapping:
            raise ConfigError(f"{path}: missing required key {key!r}")


def _build(path: str, make, *args, **kwargs):
    """Call a spec constructor; the error it raises becomes a ConfigError at ``path``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _from_dict(cls, doc, path: str, **convert):
    """Build the spec type ``cls`` from the document object ``doc``, whose
    keys are its fields; ``convert[key](value, path)`` converts a value first."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: must be an object")
    _require_keys(doc, {f.name: f.default is MISSING for f in fields(cls)}, path)
    return _build(path, cls, **{key: convert[key](value, f"{path}.{key}") if key in convert
                                else value for key, value in doc.items()})


def _list(make):
    """Converter of a list (or tuple), empty or not, whose items ``make(item, path)`` converts."""
    def convert(items, path: str) -> tuple:
        if not isinstance(items, (list, tuple)):
            raise ConfigError(f"{path}: must be a list")
        return tuple(make(item, f"{path}[{i}]") for i, item in enumerate(items))
    return convert


def _correlation_from_dict(d: dict, path: str) -> CorrelationSpec:
    # not CorrelationSpec's fields: "model" names the family, a matrix implies length
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: must be an object")
    mode = d.get("mode", "none")
    if mode == "none":
        _require_keys(d, {"mode": False}, path)
        return CorrelationSpec.none()
    model = d.get("model", "exponential")
    if model == "exponential":
        _require_keys(d, {"mode": True, "model": False, "rho": True, "length": True}, path)
        return _build(path, CorrelationSpec.exponential, mode, d["rho"], d["length"])
    if model == "custom":
        _require_keys(d, {"mode": True, "model": True, "matrix": True}, path)
        return _build(path, CorrelationSpec.custom, mode, d["matrix"])
    raise ConfigError(f"{path}.model: must be 'exponential' or 'custom', got {model!r}")


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a JSON-compatible dictionary."""
    if isinstance(doc, dict) and "preset" in doc:
        _require_keys(doc, {"preset": True}, "config")
        return expand_preset(doc["preset"])
    user = partial(_from_dict, UserSpec, clusters=_list(partial(_from_dict, ClusterSpec)))
    return _from_dict(ScenarioConfig, doc, "config",
                      geometry=partial(_from_dict, ArrayGeometry), users=_list(user),
                      grid=partial(_from_dict, ResourceGrid),
                      correlation=_correlation_from_dict,
                      outputs=_list(lambda name, path: name))


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
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError(f"unreadable number: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("document is nested too deeply") from exc
    return config_from_dict(doc)


def config_to_dict(config: ScenarioConfig) -> dict:
    """JSON-compatible echo of a config; parsing it reproduces the config.
    The specs hold plain Python values, so it is their fields but for the
    correlation, which is echoed in its document form."""
    doc = asdict(config)
    corr = config.correlation
    if corr.mode == "none":
        doc["correlation"] = {"mode": "none"}
    elif corr.rho is not None:
        doc["correlation"] = {"mode": corr.mode, "model": "exponential",
                              "rho": corr.rho, "length": corr.length}
    else:
        doc["correlation"] = {"mode": corr.mode, "model": "custom", "matrix": corr.matrix}
    return doc


# ---------------------------------------------------------------------------
# presets

def expand_preset(name: str, seed: int = DEFAULT_PRESET_SEED) -> ScenarioConfig:
    """Expand a named preset into a full scenario configuration.

    Every preset is one row of ``_PRESETS``, built the same way.  The iid /
    nlos / los family and the validation scenarios paper-A..D use three
    clusters per user with power split 0.5/0.3/0.2; the paper-A/B and
    paper-C/D pairs differ only in the number of antennas (128 vs 20) and in
    the spread fractions (NLOS 0.6/0.8/1.0 vs LOS 0.05/0.1/0.15).  fig2/fig3
    are single-user ring histogram scenarios, fig4 draws two single-cluster
    users with fresh random directions per realization, fig5 emits the
    eigenvalue CDF and fig6 a power profile with a per-antenna power ramp.
    """
    if not isinstance(name, str) or name not in _PRESETS:  # a non-string name is unknown too
        raise ConfigError(f"unknown preset {name!r}; valid presets: {PRESET_NAMES}")
    directions, spreads, powers, n, realizations, outputs, ramp = _PRESETS[name]
    if isinstance(directions[0], tuple):  # the frozen (principals, offsets) geometry
        directions = [[float(np.mod(principal + s * offset, np.pi))
                       for s, offset in zip(spreads, offsets)]
                      for principal, offsets in zip(*directions)]
    else:
        directions = [[direction] * len(spreads) for direction in directions]
    users = tuple(UserSpec(clusters=tuple(
        ClusterSpec(direction=d, spread_fraction=s,
                    mean_power=p * np.linspace(0.5, 1.5, n) if ramp else p)
        for d, s, p in zip(user, spreads, powers))) for user in directions)
    return ScenarioConfig(seed=seed, geometry=ArrayGeometry(n_antennas=n), users=users,
                          realizations=realizations, outputs=outputs)


# ---------------------------------------------------------------------------
# orchestration

def _plan(config: ScenarioConfig, links: LinkTable, keep: bool) -> tuple:
    """The sizes the config alone fixes: C realizations per chunk, whose uniforms and per-RB
    Gram matrices fit DRAW_BLOCK_UNIFORMS; links per draw and RBs (one or more) per statistics
    block, which fit it too; and the bytes of a ``_Workspace(config, links, plan, keep)``."""
    n, rbs, k, n_links = (config.geometry.n_antennas, config.grid.t_max * config.grid.f_max,
                          config.n_users, len(links.user))
    c = max(1, DRAW_BLOCK_UNIFORMS // (rbs * max(2 * n_links * n, k ** 2)))
    step = min(n_links, max(1, DRAW_BLOCK_UNIFORMS // (2 * n * rbs)))
    # float64s per realization of spatial, uniforms and normals, acc and h, means; variance
    words = c * (len(links.phase_at) + len(links.direction_at) + 4 * step * n * rbs
                 + 2 * n * rbs * (1 + k * (not keep)) + 2 * n_links * n) + n_links * n
    return c, step, max(1, DRAW_BLOCK_UNIFORMS // (c * max(n, k) * k)), 8 * words


class _Workspace:
    """One worker's Philox generator and chunk buffers for one ``run_scenario`` call; a
    chunk uses the leading rows of each.  Link-grid uniforms go to ``uniforms``, gathered to
    ``normals`` (as ``flat``, then their quarter turns), Gaussians of variance r**2 to
    ``uniforms`` (as ``spare``); one link of one realization skips the gather: its turns
    replace its uniforms, its Gaussians go to ``normals``.  A user's grid sum goes to ``acc``,
    its correlation to whichever of ``acc`` and the grid's buffer does not hold the sum; ``h``
    is the channel tensor of a run that keeps none.  Only ``_realize_chunk`` uses them."""

    def __init__(self, config: ScenarioConfig, links: LinkTable, plan: tuple, keep: bool):
        n, t, f = config.geometry.n_antennas, config.grid.t_max, config.grid.f_max
        self.plan, (size, step) = plan, plan[:2]
        self.rng = np.random.Generator(np.random.Philox(0))  # re-keyed per realization
        self.spatial = np.empty((size, len(links.phase_at) + len(links.direction_at)))
        self.uniforms = np.empty((size, step, 2, n, t, f))
        self.normals = np.empty((size, step, n, t, f), dtype=complex)
        self.spare = self.uniforms.reshape(-1).view(complex).reshape(self.normals.shape)
        self.flat = self.normals.reshape(-1).view(float)
        self.acc = np.empty((size, n, t, f), dtype=complex)
        self.variance = links.r[:, :, None, None] ** 2
        self.means = np.empty((size, len(links.user), n), dtype=complex)
        self.h = None if keep else np.empty((size, t, f, n, config.n_users), dtype=complex)


def _realize_chunk(config: ScenarioConfig, links: LinkTable, ws: _Workspace, needs: set,
                   kept: dict, indices: range) -> dict:
    """One kernel pass over the C realizations in the range ``indices`` (see ``_plan``)
    in the worker's workspace ``ws``, keyed by ``philox_keys(config.seed, indices)``.  It writes
    their rows of the run-level arrays in ``kept`` and returns only their ``power-profile``
    and ``correlation-matrix`` means, each (C, ...) in realization order.

    Draw order from substream(seed, m), the reproducibility contract: first one
    spatial block of uniforms holding, per (user, cluster) in lexicographic order,
    the direction (only for "random" clusters) and then the cluster phase;
    afterwards per (user, cluster) the link grid, a u1 block followed by a u2 block.
    The generator is re-keyed to m's stream and draws its first link block into m's
    row after its spatial block; at C > 1 that block holds all links, at C = 1 the
    later links are drawn block by block, each once the block before is summed.  A
    user's grids are summed in link order and correlated once, at its last link, and
    its means, summed in link order, are added to every RB.  The statistics take the
    (C, t_max, f_max, N, K) channel tensor in RB blocks (see ``_plan``)
    t-major; one ``gram`` per block feeds every user statistic, and the power and
    correlation rows are summed RB by RB into each realization's mean.  A block
    whose Gram matrices are not finite (an overflowed channel power) gets NaN
    eigenvalues, unsolved.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c, (_, step, span, _), n_links = len(indices), ws.plan, len(links.user)
        for i, key in enumerate(philox_keys(config.seed, indices).tolist()):
            rekey(ws.rng, key).random(out=ws.spatial[i])
            ws.rng.random(out=ws.uniforms[i])  # the first link block, `step` links
        # directions pi * u and phases 2*pi * u: rng.uniform(0, pi) and (0, 2*pi) one by one
        p = link_means(links, TWO_PI * ws.spatial[:c, links.phase_at],
                       np.pi * ws.spatial[:c, links.direction_at], out=ws.means[:c])
        at = slice(indices.start, indices.stop)
        h = kept["channels"][at] if "channels" in kept else ws.h[:c]

        acc, first = ws.acc[:c], 0  # first: the first link of the user acc sums
        for a in range(0, n_links, step):  # each block of links' grids r * z (C, N, t, f)
            width = min(step, n_links - a)
            u = ws.uniforms[:c, :width]
            if a > 0:  # C = 1: the realization's stream goes on block by block
                ws.rng.random(out=u)
            if c * width == 1:  # one link of one realization: u1 and u2 are contiguous
                z = complex_normals(u.reshape((2, 1, 1) + u.shape[3:]), ws.variance[a:a + width],
                                    out=ws.normals[:c, :width])
            else:  # every link's u1 and u2 gathered into two contiguous blocks
                split = ws.flat[:u.size].reshape((2, c, width) + u.shape[3:])
                np.copyto(split, u.transpose(2, 0, 1, 3, 4, 5))
                z = complex_normals(split, ws.variance[a:a + width], out=ws.spare[:c, :width])
            for link in range(a, a + width):  # user j's column: L(sum r z) + sum p, in order
                grid, j = z[:, link - a], links.user[link]
                total, free = (grid, acc) if link == first else (np.add(acc, grid, out=acc), grid)
                if link + 1 < n_links and links.user[link + 1] == j:  # more links of j follow
                    if link == first:  # the sum starts in acc: a later draw reuses z
                        np.copyto(acc, grid)
                    continue
                # the correlation is linear and shared by every link: once per user, into
                # whichever of acc and the grid's buffer does not hold the sum
                total = correlate(config.correlation, total, free)
                mean = sum((p[:, i] for i in range(first + 1, link + 1)), p[:, first])
                np.add(total.transpose(0, 2, 3, 1), mean[:, None, None, :], out=h[..., j])
                first = link + 1

        # the (C, RBs, N, K) tensor t-major in blocks of one time row or part of one, whose
        # entries and Gram matrices each fit DRAW_BLOCK_UNIFORMS: the statistics stay O(block)
        rbs, f_max = h.reshape((c, -1) + h.shape[-2:]), h.shape[2]
        iu = np.triu_indices(config.n_users, 1)
        power = xcorr = 0  # each realization's sums over its RBs, RB by RB as ordered_mean
        for rows in (slice(a, min(a + span, t + f_max)) for t in range(0, rbs.shape[1], f_max)
                     for a in range(t, t + f_max, span)):
            if "power-profile" in needs:
                power = sum((np.abs(rbs[:, rows]) ** 2).swapaxes(0, 1), power)
            if needs & {"cross-correlation", "eigencdf", "correlation-matrix"}:
                g = analytics.gram(rbs[:, rows])
                if "cross-correlation" in needs:
                    kept["cross-correlation"][at, rows] = np.abs(g[..., iu[0], iu[1]])
                if "eigencdf" in needs:
                    kept["eigencdf"][at, rows] = (analytics.eigenvalues_hermitian(g)
                                                  if np.isfinite(g).all() else np.nan)
                if "correlation-matrix" in needs:
                    xcorr = sum(analytics.gram_correlation(g).swapaxes(0, 1), xcorr)
        return {name: total / rbs.shape[1] for name, total in (
            ("power-profile", power), ("correlation-matrix", xcorr)) if name in needs}


def _require_finite(artifacts: dict):
    """Raise NumericalError if an artifact holds nan or inf, as a reduction
    over overflowing channel powers does."""
    for name, payload in artifacts.items():
        arrays = payload.values() if isinstance(payload, dict) else [payload]
        if not all(np.isfinite(a).all() for a in arrays):
            raise NumericalError(f"{name} is not finite: a channel power overflowed")


def run_scenario(config: ScenarioConfig, out_dir=None, threads: int = 1) -> ReportBundle:
    """Run a scenario and compute its requested artifacts.

    Realizations are independent substreams of the config seed, computed
    in chunks the config alone fixes; with ``threads > 1`` chunks run
    concurrently but are reduced in realization order, so artifacts are
    bitwise identical to a single-threaded run.  With ``out_dir`` set,
    artifacts are also written as CSV/SVG files plus a manifest (see
    :mod:`blockfade.emit`).
    """
    if not (is_int(threads) and threads >= 1):
        raise ConfigError(f"threads must be a positive integer, got {threads!r}")
    needs = set(config.outputs)
    links = link_table(config.users, config.geometry)
    r, t, f, n, k = (config.realizations, config.grid.t_max, config.grid.f_max,
                     config.geometry.n_antennas, config.n_users)
    kept = {}  # every per-realization output, written in place by the chunks
    if needs & {"histogram", "raw-channel"}:
        kept["channels"] = np.empty((r, t, f, n, k), dtype=complex)
    for name, width in (("eigencdf", k), ("cross-correlation", k * (k - 1) // 2)):
        if name in needs:
            kept[name] = np.empty((r, t * f, width))
    plan = _plan(config, links, keep="channels" in kept)
    chunks = [range(r)[a:a + plan[0]] for a in range(0, r, plan[0])]
    local = threading.local()  # freed, with the workspaces, when the run returns

    def realize(chunk):
        if not hasattr(local, "workspace"):  # one workspace per worker thread
            local.workspace = _Workspace(config, links, plan, keep="channels" in kept)
        return _realize_chunk(config, links, local.workspace, needs, kept, chunk)

    workers = min(threads, len(chunks), MAX_WORKERS, max(1, WORKSPACE_BUDGET // plan[3]))
    sums = {}  # the chunks' means, summed in realization order on arrival as ordered_mean
    # an overflowing channel power only becomes a non-finite artifact here
    with np.errstate(over="ignore", invalid="ignore"), ThreadPoolExecutor(workers) as executor:
        try:  # submitting the chunks starts the threads, and one worker starts none
            results = map(realize, chunks) if workers == 1 else executor.map(realize, chunks)
        except RuntimeError as exc:  # a chunk's own errors surface in the loop, not here
            raise MemoryError(f"could not start a worker thread: {exc}") from exc
        for means in results:
            for name, rows in means.items():
                sums[name] = sum(rows, sums.get(name, 0))
        artifacts = {}
        if "histogram" in needs:
            artifacts["histogram"] = analytics.coefficient_histogram(kept["channels"].ravel(),
                                                                     config.bins)
        if "cross-correlation" in needs:
            mags = kept["cross-correlation"].ravel()
            top = max(1.0, float(mags.max()))
            edges = np.linspace(0.0, top, config.bins + 1)
            counts, _ = np.histogram(mags, bins=edges)
            artifacts["cross-correlation"] = {"edges": edges, "counts": counts.astype(np.int64),
                                              "magnitudes": mags}
        if "eigencdf" in needs:
            eigen = kept["eigencdf"].ravel() / config.mean_link_power()
            artifacts["eigencdf"] = analytics.empirical_cdf(eigen)
        if "power-profile" in needs:
            artifacts["power-profile"] = sums["power-profile"] / r
        if "correlation-matrix" in needs:
            # gram is exactly Hermitian, so each |G_ij| / (d_i d_j) and their mean are
            # bitwise symmetric; the diagonal, |G_ii| / d_i**2, is 1 within rounding
            artifacts["correlation-matrix"] = sums["correlation-matrix"] / r
            np.fill_diagonal(artifacts["correlation-matrix"], 1.0)
        if "raw-channel" in needs:
            artifacts["raw-channel"] = kept["channels"]
    _require_finite(artifacts)

    bundle = ReportBundle(config=config, artifacts=artifacts)
    if out_dir is not None:
        from .emit import write_bundle
        files, manifest = write_bundle(bundle, out_dir)
        bundle = ReportBundle(config=config, artifacts=artifacts,
                              files=files, manifest=manifest)
    return bundle
