"""Exception hierarchy shared across the toolkit, and the rules for input values.

Exit-code mapping used by the CLI:
  ConfigError            -> 1
  PhysicsError subtypes  -> 2
  NumericalError subtypes-> 3

Every module checks a number, a count, a 3-vector or a matrix with one of
the five rules below, and each raises `ConfigError` naming the value:
  finite    a `numbers.Real` that is not a bool, NaN or +-inf, returned as a float;
  positive  a finite number > 0, returned as a float;
  count     a `numbers.Integral` that is not a bool and is >= a lower bound
            (1 unless given), returned as an int;
  vector3   three finite numbers, returned as a float array;
  matrix    a 2-D array of integers, floats or complex numbers, returned as
            a numpy array without a copy (an ndarray is returned as itself).
A bool counts nothing and weighs nothing, so no rule takes one, and no rule
converts text: a quoted "2e8" is not a number.  `matrix` reads only the shape
and the dtype, never the entries, so it costs the same for any size and
leaves non-finite entries to the caller.  A frozen dataclass stores what its
rules return with `store`.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class SarlrsError(Exception):
    pass


class ConfigError(SarlrsError):
    """Bad scenario/run configuration (missing fields, wrong units, bad flags)."""


class PhysicsError(SarlrsError):
    """The requested geometry/sampling cannot represent the signal."""


class GateTooNarrow(PhysicsError):
    """A target's delay (plus 4/B pulse support) falls outside the fast-time gate."""

    def __init__(self, target_index, message=None):
        self.target_index = target_index
        super().__init__(message or f"fast-time gate too narrow for target {target_index}")


class CarrierAliased(PhysicsError):
    """The fast-time sampling cannot hold the band -omega_0 +- 6B: it reaches -pi/dt
    (Nyquist) or 0 (its own mirror image), so the baseband would lose data."""


class DegenerateGeometry(PhysicsError):
    """Platform position coincides with the reference point."""


class NumericalError(SarlrsError):
    pass


class SvdFailure(NumericalError):
    pass


class InsufficientSweep(ConfigError):
    """A sweep needs at least 4 points spanning one decade."""


def _as_finite(value) -> float | None:
    """value as a float if it is a finite real number other than a bool, else None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the range of a float
        return None
    return x if math.isfinite(x) else None


def finite(value, name: str) -> float:
    """value as a float: a real number that is not a bool, NaN or +-inf."""
    x = _as_finite(value)
    if x is None:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return x


def positive(value, name: str) -> float:
    """value as a float: a finite number > 0."""
    x = finite(value, name)
    if x <= 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return x


def count(value, name: str, least: int = 1) -> int:
    """value as an int: an integer that is not a bool and is >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def vector3(value, name: str) -> np.ndarray:
    """value as a float array of shape (3,): three finite numbers."""
    entries = np.asarray(value, dtype=object)  # 0-d for a scalar, set, dict or text
    items = [_as_finite(x) for x in entries] if entries.shape == (3,) else [None]
    if None in items:
        raise ConfigError(f"{name} must be 3 finite numbers, got {value!r}")
    return np.array(items)


def matrix(value, name: str) -> np.ndarray:
    """value as a 2-D numpy array of integers, floats or complex numbers, not copied.

    The dtype's kind must be i, u, f or c, so bool (b), object (O) and text
    (U, S) matrices are rejected, and so is a ragged nested list.
    """
    try:
        M = np.asarray(value)
    except ValueError:  # numpy's "inhomogeneous shape" of a ragged nested list
        raise ConfigError(f"{name} must be a 2-D matrix of numbers, got a ragged list") from None
    if M.ndim != 2 or M.dtype.kind not in "iufc":
        raise ConfigError(f"{name} must be a 2-D matrix of numbers, got {M.ndim}-D {M.dtype}")
    return M


def store(obj, **values) -> None:
    """Set a frozen dataclass's fields to the values its rules returned."""
    for field, value in values.items():
        object.__setattr__(obj, field, value)
