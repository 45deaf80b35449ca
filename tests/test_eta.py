import math
from dataclasses import replace

import numpy as np
import pytest

from sarlrs.cli import main
from sarlrs.errors import ConfigError, DegenerateGeometry
from sarlrs.eta import (ApertureParams, analytic_column_support,
                        conventional_eta, eta_bounds_baseband,
                        eta_bounds_original)
from sarlrs.scenario import save_scenario
from sarlrs.simulate import column_support

from conftest import make_scenario, moving_target


def params_for(speed=15.0, direction=(1.0, 0.0, 0.0), scenario=None):
    sc = scenario or make_scenario()
    d = np.asarray(direction, float)
    d = d / np.linalg.norm(d)
    return ApertureParams.from_scenario(sc, speed * d)


def test_transverse_motion_floors_at_one():
    # velocity orthogonal to the platform-to-scene direction
    look = np.array([7100.0, 0.0, 7300.0])
    perp = np.array([-7300.0, 0.0, 7100.0])
    assert abs(np.dot(look, perp)) < 1e-9
    p = params_for(direction=perp)
    assert analytic_column_support(p) == 1.0


def test_column_support_tracks_simulation():
    sc = make_scenario([moving_target(15.0)])
    p = ApertureParams.from_scenario(sc, sc.targets[0].velocity)
    analytic = analytic_column_support(p)
    measured = column_support(sc, sc.targets[0])
    assert abs(analytic - measured) / measured <= 0.2


def test_column_support_linear_in_aperture():
    p1 = params_for()
    p2 = ApertureParams(aperture_time=2 * p1.aperture_time, delta_s=p1.delta_s,
                        delta_t=p1.delta_t, bandwidth_parameter=p1.bandwidth_parameter,
                        velocity=p1.velocity, platform_position=p1.platform_position,
                        reference_point=p1.reference_point)
    assert analytic_column_support(p2) == pytest.approx(2 * analytic_column_support(p1))


def test_degenerate_geometry_rejected():
    p = params_for()
    bad = ApertureParams(aperture_time=p.aperture_time, delta_s=p.delta_s,
                         delta_t=p.delta_t, bandwidth_parameter=p.bandwidth_parameter,
                         velocity=p.velocity, platform_position=[0.0, 0.0, 0.0],
                         reference_point=[0.0, 0.0, 0.0])
    with pytest.raises(DegenerateGeometry):
        analytic_column_support(bad)


def test_eta_star_is_geometric_mean_and_minimizer():
    b = eta_bounds_baseband(params_for())
    assert b.eta_star == pytest.approx(math.sqrt(b.eta_min * b.eta_max), rel=1e-15)

    def objective(x):
        return b.eta_min / x + x / b.eta_max

    # exact minimizer of eta_min/x + x/eta_max, and its value
    assert objective(b.eta_star) == pytest.approx(2 * math.sqrt(b.eta_min / b.eta_max),
                                                  rel=1e-14)
    for x in (0.9 * b.eta_star, 1.1 * b.eta_star):
        assert objective(x) > objective(b.eta_star)


def test_eta_star_grows_like_fourth_root():
    # for large N*B*dt, eta* ~ (N B dt)^(1/4)
    sc = make_scenario(n=200, ds=0.045)
    speeds = np.geomspace(100.0, 3000.0, 8)
    stars = [eta_bounds_baseband(params_for(v, scenario=sc)).eta_star for v in speeds]
    nbdt = [analytic_column_support(params_for(v, scenario=sc))
            * sc.pulse.bandwidth_parameter * sc.sampling.delta_t for v in speeds]
    assert min(nbdt) > 10
    slope = np.polyfit(np.log(nbdt), np.log(stars), 1)[0]
    assert slope == pytest.approx(0.25, abs=0.03)


def test_small_support_limit_is_hard_to_separate():
    # N -> 1 with small B*dt: the band collapses (ratio -> 1/2, inadmissible)
    b = eta_bounds_baseband(params_for(1e-6))
    assert b.eta_max / b.eta_min == pytest.approx(0.5, abs=0.05)
    assert not b.admissible
    assert b.dynamic_range < 1.0


def test_eta_max_is_continuous_across_n_b_dt_sqrt_pi():
    # the model sum is one explicit sum for every N B dt, so eta_max has no
    # jump at N B dt = sqrt(pi), where the large-N closed form is 2.1% off
    p = params_for(100.0)
    b_dt = p.bandwidth_parameter * p.delta_t
    nbdt_per_speed = analytic_column_support(p) * b_dt / 100.0
    v = math.sqrt(math.pi) / nbdt_per_speed
    below, above = (eta_bounds_baseband(params_for(v * f)) for f in (1 - 1e-6, 1 + 1e-6))
    assert below.column_support > 1.0  # clear of the floor at N = 1
    assert above.eta_max == pytest.approx(below.eta_max, rel=1e-4)


def test_nonpositive_aperture_time_rejected():
    p = params_for()
    for aperture_time in (0.0, -p.aperture_time):
        with pytest.raises(ConfigError):
            ApertureParams(aperture_time=aperture_time, delta_s=p.delta_s,
                           delta_t=p.delta_t, bandwidth_parameter=p.bandwidth_parameter,
                           velocity=p.velocity, platform_position=p.platform_position,
                           reference_point=p.reference_point)


def test_eta_max_monotone_in_radial_speed():
    values = [eta_bounds_baseband(params_for(v)).eta_max
              for v in (2.0, 5.0, 10.0, 20.0, 40.0, 80.0)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_original_bounds_scaled_by_pi_over_two():
    bb = eta_bounds_baseband(params_for())
    orig = eta_bounds_original(params_for())
    assert orig.eta_min == pytest.approx(bb.eta_min * math.pi / 2, rel=1e-14)
    assert orig.eta_max == pytest.approx(bb.eta_max * math.pi / 2, rel=1e-14)
    assert orig.eta_star == pytest.approx(bb.eta_star * math.pi / 2, rel=1e-14)
    assert orig.dynamic_range == pytest.approx(bb.dynamic_range, rel=1e-14)


def test_bounds_have_no_reflectivity_dependence(tmp_path, scaled_scenario):
    # the formulas are normalization-free: two scenes that differ only in every
    # target's reflectivity get the same eta_report.json, which holds
    # eta_bounds_baseband, eta_bounds_original and conventional_eta
    brighter = scaled_scenario.with_targets(replace(t, reflectivity=3 * t.reflectivity + 0.5)
                                            for t in scaled_scenario.targets)
    reports = []
    for name, sc in (("scaled", scaled_scenario), ("brighter", brighter)):
        save_scenario(sc, tmp_path / f"{name}.json")
        assert main(["eta", "--config", str(tmp_path / f"{name}.json"),
                     "--out", str(tmp_path / name)]) == 0
        reports.append((tmp_path / name / "eta_report.json").read_text())
    assert all(a.reflectivity != b.reflectivity
               for a, b in zip(scaled_scenario.targets, brighter.targets))
    assert reports[0] == reports[1]


def test_conventional_eta_values():
    assert conventional_eta(237, 237) == pytest.approx(1 / math.sqrt(237))
    assert conventional_eta(100, 400) == pytest.approx(0.05)
    assert conventional_eta(400, 100) == conventional_eta(100, 400)


def test_conventional_eta_rejects_bad_dims():
    for dims in [(0, 5), (2.5, 4), (True, 4), (4, -1), (4, "5")]:
        with pytest.raises(ConfigError):
            conventional_eta(*dims)


def test_bounds_admissible_for_demo_speed():
    b = eta_bounds_baseband(params_for(15.0))
    assert b.admissible
    assert 0 < b.eta_min < b.eta_max
