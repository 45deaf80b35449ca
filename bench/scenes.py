"""Seeded scenarios for the benchmark workloads.

Seed 0 is the shipped scene, unchanged.  Any other seed moves each
stationary target by a uniform offset of at most JITTER_WAVELENGTHS carrier
wavelengths in x and y, drawn from numpy.random.default_rng(seed).  Every
stationary return then changes its round-trip carrier phase by up to
~0.2 pi, so every matrix entry differs from the shipped scene's, while the
gate and the matrix shape (set by the never-moved mover's sweep) do not
change.

Offsets of a metre or more instead change the problem between seeds: the
five equal-strength stationary returns make the top singular values of the
gotcha matrix nearly equal, and with 1 m offsets sigma_2/sigma_1 ranged
from 0.83 to 0.996 over 13 seeds, so rpca.spectral_norm's power iteration
took from 26 to 483 steps (2.6 to 24 s).  Seed 0 takes 73 steps; the
per-layer metric rpca.spectral_norm_s reports that cost.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from sarlrs import Target, load_scenario, save_scenario, scenario_hash
from sarlrs.scenario import C_LIGHT

SRC = Path(__file__).resolve().parent.parent / "src"
JITTER_WAVELENGTHS = 0.05


def shipped_path(regime: str) -> Path:
    return SRC / "sarlrs" / "data" / f"{regime}.json"


def make_scene(regime: str, seed: int):
    base = load_scenario(shipped_path(regime))
    if seed == 0:
        return base
    rng = np.random.default_rng(seed)
    jitter = JITTER_WAVELENGTHS * 2 * np.pi * C_LIGHT / base.pulse.carrier_angular_frequency
    targets = []
    for t in base.targets:
        if t.stationary:
            dx, dy = rng.uniform(-jitter, jitter, size=2)
            t = Target(position=t.position + np.array([dx, dy, 0.0]),
                       velocity=t.velocity, reflectivity=t.reflectivity)
        targets.append(t)
    return base.with_targets(targets)


def write_scene(regime: str, seed: int, path) -> str:
    """Write the seeded scenario JSON to `path`; return its scenario_hash."""
    sc = make_scene(regime, seed)
    save_scenario(sc, path)
    return scenario_hash(sc)
