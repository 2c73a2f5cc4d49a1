"""Workload definitions: a workload seed in, fully pinned CLI experiments out.

Every experiment spells out every parameter of its subcommand, so a later
change to a CLI default cannot silently change what a workload measures.
The workload seed is the only source of variation; it is split into one CLI
``--seed`` per experiment and nothing else reaches the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("cone-fall", "field-far", "quick-runs")
QUICK_SEEDS_PER_PASS = 10


@dataclass(frozen=True)
class Experiment:
    """One CLI run: subcommand, complete parameter dict and root seed."""

    label: str
    subcommand: str
    parameters: dict
    seed: int


def _field(**overrides) -> dict:
    params = {
        "dim": 2,
        "side": 81,
        "mean": 0.0,
        "variance": 1.0,
        "spectrum": "white",
        "index": -2.0,
        "center": 8.0,
        "width": 2.0,
        "cutoff": 0.0,
        "spacing": 1.0,
        "interval": [-1.0, 1.0],
        "max_level": 3,
        "two_point_r": [1.0, 1.5],
        "isotropy_r": 1.5,
    }
    params.update(overrides)
    return params


def _cone() -> dict:
    return {
        "tilt_center": 0.01,
        "tilt_radius": 0.01,
        "azimuth_center": math.pi,
        "azimuth_radius": math.pi,
        "tilt_momentum_radius": 0.01,
        "azimuth_momentum_radius": 1e-8,
        "n_members": 2000,
        "n_sectors": 8,
        "fall_threshold": 1.0,
        "dt": 1e-3,
        "max_steps": 100_000,
        "damping": 0.0,
    }


def _quick(seed: int) -> list:
    """The seven short runs an interactive user makes, all at default sizes."""
    energies = [0.0, 1.0, 2.0, 3.0]
    return [
        Experiment("entropy", "entropy", {"blocks": [[0.5], [0.3, 0.2]]}, seed),
        # target_mean_energy is left out: its default (None, keep the fixed
        # temperature) has no JSON spelling the schema accepts
        Experiment("canonical-fixed", "canonical", {"energies": energies, "temperature": 1.0}, seed),
        Experiment(
            "canonical-solved",
            "canonical",
            {"energies": energies, "temperature": 1.0, "target_mean_energy": 1.0},
            seed,
        ),
        Experiment(
            "measure",
            "measure",
            {
                "coefficients": [0.6, 0.8],
                "n_microstates": 10_000,
                "n_members": 10_000,
                "ledger_n_micro": 1024,
                "suppression_m": [100, 1000, 10_000],
                "suppression_seeds": 200,
            },
            seed,
        ),
        Experiment(
            "spinecho",
            "spinecho",
            {
                "n": 10_000,
                "spread_kind": "normal",
                "spread_scale": 1.0,
                "tau": 50.0,
                "n_bins": 32,
                "samples_per_leg": 50,
            },
            seed,
        ),
        Experiment("field-2d", "field", _field(), seed),
        # a large field with only the 18 nearest offsets: the case a two-point
        # method with an offset-independent fixed cost must not slow down
        Experiment(
            "field-3d-near",
            "field",
            _field(dim=3, side=81, max_level=4, two_point_r=[1.0], isotropy_r=1.0),
            seed,
        ),
    ]


def _split(seed: int, n: int) -> list:
    state = np.random.SeedSequence(int(seed) % 2**64).generate_state(n, np.uint32)
    return [int(s) for s in state]


def experiments(workload: str, seed: int) -> list:
    """The experiments of one pass of ``workload`` under workload seed ``seed``."""
    if workload == "cone-fall":
        return [Experiment("cone", "cone", _cone(), _split(seed, 1)[0])]
    if workload == "field-far":
        params = _field(
            dim=3,
            side=162,
            spectrum="power_law",
            index=-3.0,
            max_level=4,
            two_point_r=[8.0],
            isotropy_r=4.0,
        )
        return [Experiment("field", "field", params, _split(seed, 1)[0])]
    if workload == "quick-runs":
        return [
            Experiment(f"{e.label}-{i}", e.subcommand, e.parameters, e.seed)
            for i, s in enumerate(_split(seed, QUICK_SEEDS_PER_PASS))
            for e in _quick(s)
        ]
    raise KeyError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")

