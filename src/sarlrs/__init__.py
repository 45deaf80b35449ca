"""SAR data simulation and low-rank plus sparse moving-target separation."""

from .scenario import (Pulse, Platform, Target, SamplingGrid, Scenario,
                       load_scenario, save_scenario, scenario_hash)
from .simulate import (travel_time, delta_tau, synthesize_downramped,
                       synthesize_baseband_direct, column_support)
from .baseband import to_baseband, from_baseband
from .rpca import (RpcaConfig, Decomposition, soft_threshold,
                   singular_value_threshold, decompose, decompose_windowed)
from .eta import (ApertureParams, EtaBounds, analytic_column_support, analytic_l1,
                  eta_bounds_baseband, eta_bounds_original, conventional_eta)
from .analysis import (l1_norm, spectrum, empirical_eta_bounds,
                       nuclear_velocity_exponent, separation_metrics)
from .imaging import ImagingGrid, KmImage, migrate, peak_report

__version__ = "0.1.0"
