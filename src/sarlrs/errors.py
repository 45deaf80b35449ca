"""Exception hierarchy shared across the toolkit.

Exit-code mapping used by the CLI:
  ConfigError            -> 1
  PhysicsError subtypes  -> 2
  NumericalError subtypes-> 3
"""


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
    """omega_0 * dt >= pi: the fast-time sampling cannot represent the carrier."""


class DegenerateGeometry(PhysicsError):
    """Platform position coincides with the reference point."""


class NumericalError(SarlrsError):
    pass


class SvdFailure(NumericalError):
    pass


class InsufficientSweep(ConfigError):
    """A sweep needs at least 4 points spanning one decade."""
