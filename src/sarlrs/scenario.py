"""Scene configuration: pulse, platform, targets, sampling grid.

All quantities are SI. Scenario JSON files carry plain frequencies in Hz
(field names say so); they are converted to angular frequencies on load.

Each type checks its own values with the rules of `errors` (a finite or
positive number, a count, a 3-vector) and stores what the rule returns, a
float, an int or a float array, whether it is built from a JSON file or in
Python.  So the reader only names fields, and a JSON `1` serializes as `1.0`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, count, finite, positive, store, vector3

C_LIGHT = 299_792_458.0

# Gate margin in units of 1/B.  exp(-8.5^2/2) ~ 2e-16, so truncated
# Gaussian tails are below 1e-14 of the peak.
GATE_MARGIN_OVER_B = 8.5


def advect(position, velocity, s):
    """position + velocity * s, with slow times s on the leading axes."""
    s = np.asarray(s, dtype=float)
    return position + velocity * s[..., None]


@dataclass(frozen=True)
class Pulse:
    carrier_angular_frequency: float  # omega_0 [rad/s]
    bandwidth_parameter: float        # B [rad/s], pulse envelope exp(-B^2 t^2 / 2)

    def __post_init__(self):
        store(self, carrier_angular_frequency=positive(self.carrier_angular_frequency,
                                                       "carrier angular frequency"),
              bandwidth_parameter=positive(self.bandwidth_parameter, "bandwidth parameter"))


@dataclass(frozen=True)
class Platform:
    position: np.ndarray   # r(0) [m]
    velocity: np.ndarray   # V_p [m/s]
    delta_s: float         # slow-time step [s]
    pulse_count: int       # n + 1, n even

    def __post_init__(self):
        store(self, position=vector3(self.position, "platform position"),
              velocity=vector3(self.velocity, "platform velocity"),
              delta_s=positive(self.delta_s, "delta_s"),
              pulse_count=count(self.pulse_count, "pulse_count", least=3))
        if self.pulse_count % 2 == 0:
            raise ConfigError("pulse_count must be n + 1 with n even")

    def position_at(self, s):
        return advect(self.position, self.velocity, s)


@dataclass(frozen=True)
class Target:
    position: np.ndarray   # rho(0) [m]
    velocity: np.ndarray   # v_t [m/s]
    reflectivity: float = 1.0

    def __post_init__(self):
        store(self, position=vector3(self.position, "target position"),
              velocity=vector3(self.velocity, "target velocity"),
              reflectivity=finite(self.reflectivity, "reflectivity"))
        if self.reflectivity < 0:
            raise ConfigError("reflectivity must be nonnegative")

    @property
    def stationary(self) -> bool:
        return float(np.linalg.norm(self.velocity)) == 0.0

    def position_at(self, s):
        return advect(self.position, self.velocity, s)


@dataclass(frozen=True)
class SamplingGrid:
    delta_t: float                     # fast-time step [s]
    gate_start: float | None = None    # explicit gate; None = auto from targets
    gate_end: float | None = None      # samples run on to a 5-smooth count (fast_times)

    def __post_init__(self):
        store(self, delta_t=positive(self.delta_t, "delta_t"))
        if (self.gate_start is None) != (self.gate_end is None):
            raise ConfigError("gate_start and gate_end must be given together")
        if self.gate_start is not None:
            store(self, gate_start=finite(self.gate_start, "gate_start"),
                  gate_end=finite(self.gate_end, "gate_end"))
            if self.gate_end <= self.gate_start:
                raise ConfigError("gate_end must exceed gate_start")


@dataclass(frozen=True)
class Scenario:
    pulse: Pulse
    platform: Platform
    reference_point: np.ndarray        # rho_o [m], fixed in slow time
    targets: tuple = ()
    sampling: SamplingGrid = field(default_factory=lambda: SamplingGrid(1e-9))

    def __post_init__(self):
        store(self, reference_point=vector3(self.reference_point, "reference point"),
               targets=tuple(self.targets))

    @property
    def n(self) -> int:
        return self.platform.pulse_count - 1

    def slow_times(self) -> np.ndarray:
        n = self.n
        return (np.arange(n + 1) - n // 2) * self.platform.delta_s

    def with_targets(self, targets) -> "Scenario":
        return replace(self, targets=tuple(targets))

    def moving_only(self) -> "Scenario":
        return self.with_targets(t for t in self.targets if not t.stationary)

    def stationary_only(self) -> "Scenario":
        return self.with_targets(t for t in self.targets if t.stationary)


def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"scenario JSON missing field '{key}'")
    return doc[key]


def _hz(doc: dict, key: str) -> float:
    """The frequency field `key` in Hz as an angular frequency; it is checked as a
    finite number before it is scaled, so `true` does not become 2 pi."""
    return 2 * np.pi * finite(_require(doc, key), key)


def _section(where: str, value, build):
    """build(value) for the JSON object `value`; a `ConfigError` it raises names `where`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    try:
        return build(value)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def scenario_from_dict(doc: dict) -> Scenario:
    """The scene a scenario JSON document describes; each type checks its own values.

    An error in a section names it: `pulse`, `platform`, `sampling` or `targets[i]`.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"scenario JSON must be an object, got {type(doc).__name__}")
    targets = doc.get("targets", [])
    if not isinstance(targets, list):
        raise ConfigError(f"targets must be a JSON list, got {type(targets).__name__}")
    return Scenario(
        pulse=_section("pulse", _require(doc, "pulse"), lambda p: Pulse(
            _hz(p, "carrier_frequency_hz"), _hz(p, "bandwidth_frequency_hz"))),
        platform=_section("platform", _require(doc, "platform"), lambda p: Platform(*(
            _require(p, key) for key in (
                "position_m", "velocity_mps", "delta_s_seconds", "pulse_count")))),
        reference_point=_require(doc, "reference_point_m"),
        targets=tuple(_section(f"targets[{i}]", t, lambda t: Target(
            _require(t, "position_m"), _require(t, "velocity_mps"), t.get("reflectivity", 1.0)))
            for i, t in enumerate(targets)),
        sampling=_section("sampling", _require(doc, "sampling"), lambda s: SamplingGrid(
            _require(s, "delta_t_seconds"), s.get("gate_start_seconds"),
            s.get("gate_end_seconds"))),
    )


def scenario_to_dict(sc: Scenario) -> dict:
    doc = {
        "pulse": {
            "carrier_frequency_hz": sc.pulse.carrier_angular_frequency / (2 * np.pi),
            "bandwidth_frequency_hz": sc.pulse.bandwidth_parameter / (2 * np.pi),
        },
        "platform": {
            "position_m": list(sc.platform.position),
            "velocity_mps": list(sc.platform.velocity),
            "delta_s_seconds": sc.platform.delta_s,
            "pulse_count": sc.platform.pulse_count,
        },
        "reference_point_m": list(sc.reference_point),
        "targets": [
            {
                "position_m": list(t.position),
                "velocity_mps": list(t.velocity),
                "reflectivity": t.reflectivity,
            }
            for t in sc.targets
        ],
        "sampling": {
            "delta_t_seconds": sc.sampling.delta_t,
            "gate_start_seconds": sc.sampling.gate_start,
            "gate_end_seconds": sc.sampling.gate_end,
        },
    }
    return doc


def serialize_scenario(sc: Scenario) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(scenario_to_dict(sc), indent=2, sort_keys=True) + "\n"


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario: {exc}") from exc
    return scenario_from_dict(doc)


def save_scenario(sc: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_scenario(sc))


def scenario_hash(sc: Scenario | str) -> str:
    """The first 16 hex digits of the SHA-256 of `serialize_scenario(sc)`; `sc` may be
    that text already, so a caller that writes it serializes the scene once."""
    text = sc if isinstance(sc, str) else serialize_scenario(sc)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
