"""Scenario inputs of each benchmark workload, generated from a workload seed.

The program under test only ever sees what this module writes: scenario
JSON documents and the argument vectors of ``blockfade.cli.main``.  The
same workload seed gives the same documents, byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 1

# Realizations per multi-RB document: sized so one pass runs for a few
# seconds, long enough to average over 168 RBs x 24 links per realization
# and short enough for several passes inside one measured run.
MULTI_RB_REALIZATIONS = 20
RAW_EXPORT_REALIZATIONS = 1000

VALIDATION_PRESETS = ("nlos", "fig4", "fig6", "fig2")

# paper-A geometry (three users, three clusters each, NLOS spreads), kept
# here rather than read from the program so the raw-export input cannot
# change when the program's presets do.
_K3_PRINCIPAL = (0.25111391655907217, 1.675313356991702, 2.386720909548449)
_K3_OFFSETS = ((-1.4398305372311229, 1.1242432238146183, -1.2684029636672087),
               (1.4003292775809402, -0.3916041804884667, -1.0575825162877153),
               (0.08908149162317724, -0.48545964647806206, -0.7609054870675304))
NLOS_SPREADS = (0.6, 0.8, 1.0)
CLUSTER_POWER_SPLIT = (0.5, 0.3, 0.2)

WORKLOADS = {
    "validation-presets": "presets nlos, fig4, fig6, fig2 at one thread: per-realization "
                          "Python cost, spatial pairs and the eigen solve",
    "multi-rb": "8 users x 3 clusters, N=128, 14x12 RB grid with time correlation at one "
                "thread: correlated draws, Cholesky and per-RB assembly",
    "multi-rb-2t": "the multi-rb documents at two threads: the thread-pool path and its "
                   "determinism",
    "raw-export": "paper-A geometry writing raw-channel rows: the emit layer",
}


@dataclass
class Invocation:
    """One ``blockfade`` command line of a pass and what its output must hold.

    ``doc`` is the generated scenario file (``simulate``), or None for a
    preset run, which ``preset`` and ``seed`` then name.  Artifacts go to
    the directory ``name`` inside the pass directory.  The shape fields
    are what the benchmark expects of the scenario, not read back from the
    program: realizations, RB grid, antennas, users, outputs and bins.
    """

    name: str
    threads: int
    seed: int
    realizations: int
    n_antennas: int
    n_users: int
    outputs: tuple
    t_max: int = 1
    f_max: int = 1
    bins: int = 64
    doc: str = None
    preset: str = None

    def argv(self, pass_dir):
        head = (["simulate", self.doc] if self.doc is not None
                else ["preset", self.preset, "--seed", str(self.seed)])
        return head + ["--out", f"{pass_dir}/{self.name}", "--threads", str(self.threads)]

    def to_json(self, pass_dir):
        return {"name": self.name, "argv": self.argv(pass_dir), "doc": self.doc,
                "preset": self.preset, "seed": self.seed}


# (realizations, users, outputs) of each validation preset; every one has
# N=128, a single RB and 64 bins.
_PRESET_SHAPES = {
    "nlos": (1000, 6, ("correlation-matrix", "eigencdf")),
    "fig4": (2000, 2, ("cross-correlation",)),
    "fig6": (1000, 6, ("power-profile",)),
    "fig2": (1000, 1, ("histogram",)),
}


def _seeds(seed, count):
    rng = random.Random(f"blockfade-bench:{seed}")
    return [rng.randrange(2 ** 63) for _ in range(count)], rng


def _write_doc(path, doc):
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode()).hexdigest()


def multi_rb_doc(seed, rng):
    # Directions stay clear of the ends of [0, pi), which the program rejects.
    users = [{"clusters": [{"direction": rng.uniform(0.05, 3.09),
                            "spread_fraction": s, "mean_power": p}
                           for s, p in zip(NLOS_SPREADS, CLUSTER_POWER_SPLIT)]}
             for _ in range(8)]
    return {"seed": seed, "geometry": {"n_antennas": 128}, "users": users,
            "grid": {"t_max": 14, "f_max": 12, "symbols_per_rb": 1},
            "correlation": {"mode": "time", "model": "exponential", "rho": 0.9,
                            "length": 14},
            "realizations": MULTI_RB_REALIZATIONS, "outputs": ["correlation-matrix"]}


def raw_export_doc(seed):
    # Same arithmetic as the program's frozen validation geometry:
    # (principal + spread * offset) mod pi, in float64.
    users = [{"clusters": [{"direction": (_K3_PRINCIPAL[j] + s * _K3_OFFSETS[j][c]) % math.pi,
                            "spread_fraction": s, "mean_power": CLUSTER_POWER_SPLIT[c]}
                           for c, s in enumerate(NLOS_SPREADS)]}
             for j in range(3)]
    return {"seed": seed, "geometry": {"n_antennas": 128, "spacing_ratio": 0.25},
            "users": users, "realizations": RAW_EXPORT_REALIZATIONS,
            "outputs": ["raw-channel"]}


def generate(workload, seed, doc_dir):
    """Write the workload's documents into ``doc_dir``.

    Returns (invocations, digests): the command lines of one pass in run
    order, and the sha256 of every generated input keyed by its name.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    seeds, rng = _seeds(seed, len(VALIDATION_PRESETS))
    if workload == "validation-presets":
        invocations, digests = [], {}
        for preset, s in zip(VALIDATION_PRESETS, seeds):
            realizations, users, outputs = _PRESET_SHAPES[preset]
            invocations.append(Invocation(preset, 1, s, realizations, 128, users, outputs,
                                          preset=preset))
            digests[preset] = hashlib.sha256(f"preset {preset} --seed {s}".encode()).hexdigest()
        return invocations, digests
    name = "raw-export" if workload == "raw-export" else "multi-rb"
    doc = raw_export_doc(seeds[0]) if name == "raw-export" else multi_rb_doc(seeds[0], rng)
    path = f"{doc_dir}/{name}.json"
    digest = _write_doc(path, doc)
    grid = doc.get("grid", {})
    inv = Invocation(name, 2 if workload == "multi-rb-2t" else 1, doc["seed"],
                     doc["realizations"], doc["geometry"]["n_antennas"], len(doc["users"]),
                     tuple(doc["outputs"]), t_max=grid.get("t_max", 1),
                     f_max=grid.get("f_max", 1), doc=path)
    return [inv], {name: digest}
