"""The benchmark workloads: set-up, one operation, and the checks on its output.

Each workload's constructor is its set-up (what a user pays before the
first operation: loading the scenario and building inputs).  `run` is one
operation and calls sarlrs only through module attributes, so the tracer's
wrappers see every call.  `check` raises CheckFailed when an output is
wrong and otherwise returns quality figures for the per-layer report.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from sarlrs import analysis, baseband, cli, eta, imaging, matrixio, rpca, simulate
from sarlrs.errors import SarlrsError
from sarlrs.scenario import SamplingGrid, load_scenario, scenario_hash

# The CLI's default half-extent.  At +-60 m it misses the scaled mover at
# x = -110 m; the benchmark keeps that visible in imaging.mover_pbr.
GRID_EXTENT_M = 60.0
GRID_PIXELS = 121
PIPELINE_TOL = 1e-7          # RpcaConfig default, used by `sarlrs pipeline`
# The full gotcha solve to 1e-7 takes minutes and one to 1e-3 (17 iterations)
# over a minute on a 2-core machine; 1e-2 (11 iterations at seed 0) keeps one
# operation under a minute, so many seeded runs stay affordable.
GOTCHA_TOL = 1e-2
RECONSTRUCTION_TOL = 1e-6
# At seed 0 the pipeline's solve is pinned: 45 iterations, rank 14.
SEED0_PIPELINE = {"iterations": 45, "rank_L": 14}


class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def first_mover(sc):
    return next(t for t in sc.targets if not t.stationary)


def optimal_eta(sc) -> float:
    params = eta.ApertureParams.from_scenario(sc, first_mover(sc).velocity)
    bounds = eta.eta_bounds_baseband(params)
    lo, hi = sorted((bounds.eta_min, bounds.eta_max))
    require(0 < lo <= bounds.eta_star <= hi and math.isfinite(hi),
            f"eta bounds out of order: {bounds.as_dict()}")
    return bounds.eta_star


def load_checked(scene_path, expected_hash: str):
    sc = load_scenario(scene_path)
    require(scenario_hash(sc) == expected_hash, "scenario hash changed on load")
    return sc


def moving_reference(sc) -> np.ndarray:
    """Baseband model of the movers alone, on the full scene's gate."""
    t0, t1 = simulate.fast_time_gate(sc)
    pinned = replace(sc, sampling=SamplingGrid(delta_t=sc.sampling.delta_t,
                                               gate_start=t0, gate_end=t1))
    return simulate.synthesize_baseband_direct(pinned.moving_only())


def sep_error(S, m_ref) -> float:
    """||S - M_ref||_F / ||M_ref||_F; stays meaningful when masks overlap."""
    return float(np.linalg.norm(S - m_ref) / np.linalg.norm(m_ref))


def check_split(DB, L, S, rank: int, tol: float) -> None:
    """L + S must reproduce DB to tol, and the split must not be degenerate."""
    norm = np.linalg.norm(DB)
    residual = float(np.linalg.norm(DB - L - S) / norm)
    require(residual <= tol, f"||DB - L - S|| / ||DB|| = {residual:.3g} > {tol:g}")
    require(rank >= 1, "L has rank 0")
    require(np.linalg.norm(S - DB) / norm > 1e-3, "S equals the data")


def read_sarm(path, shape, dtype) -> np.ndarray:
    try:
        M, _ = matrixio.read_matrix(path)
    except (SarlrsError, OSError) as exc:
        raise CheckFailed(f"{Path(path).name}: {exc}") from exc
    require(M.shape == shape and M.dtype == dtype,
            f"{Path(path).name}: {M.shape} {M.dtype}, expected {shape} {dtype}")
    return M


def check_image(img, shape) -> None:
    require(img.values.shape == shape and np.all(np.isfinite(img.values)),
            f"bad {img.source} image")


def imaging_grid(sc) -> imaging.ImagingGrid:
    return imaging.ImagingGrid(center=sc.reference_point,
                               extent_x=GRID_EXTENT_M, extent_y=GRID_EXTENT_M,
                               nx=GRID_PIXELS, ny=GRID_PIXELS)


class ScaledPipeline:
    """`sarlrs pipeline --config <scene> --eta optimal`, in-process."""

    def __init__(self, scene_path, seed: int, expected_hash: str):
        self.scene_path = str(scene_path)
        self.seed = seed
        self.expected_hash = expected_hash
        self.sc = load_checked(scene_path, expected_hash)
        self.eta_star = optimal_eta(self.sc)

    def prepare_checks(self) -> None:
        self.m_ref = moving_reference(self.sc)
        self.shape = self.m_ref.shape

    def run(self, out_dir):
        return cli.main(["pipeline", "--config", self.scene_path,
                         "--eta", "optimal", "--out", str(out_dir)])

    def check(self, rc, out_dir) -> dict:
        out = Path(out_dir)
        require(rc == cli.EXIT_OK, f"pipeline exit code {rc}")
        summary = json.loads((out / "summary.json").read_text())
        r = summary["rpca"]
        require(summary["scenario_hash"] == self.expected_hash, "summary hash differs")
        require(r["converged"] is True, "RPCA did not converge")
        require(r["residual"] <= PIPELINE_TOL, f"residual {r['residual']:.3g}")
        if self.seed == 0:
            got = {k: r[k] for k in SEED0_PIPELINE}
            require(got == SEED0_PIPELINE, f"seed 0 solve changed: {got}")
        used = summary["eta"]["value"]
        require(math.isclose(used, self.eta_star, rel_tol=1e-12), f"eta {used}")
        D = read_sarm(out / "D.sarm", self.shape, np.float64)
        mats = {name: read_sarm(out / f"{name}.sarm", self.shape, np.complex128)
                for name in ("DB", "L", "S")}
        require(np.all(np.isfinite(D)), "D is not finite")
        check_split(mats["DB"], mats["L"], mats["S"], r["rank_L"], PIPELINE_TOL)
        err = sep_error(mats["S"], self.m_ref)
        require(math.isfinite(err), "sep_error is not finite")
        return {"sep_error": err}


class GotchaRpca:
    """decompose + separation_metrics + migrate(S) + peak_report on gotcha."""

    def __init__(self, scene_path, seed: int, expected_hash: str):
        sc = self.sc = load_checked(scene_path, expected_hash)
        D = simulate.synthesize_downramped(sc)
        t = simulate.fast_times(sc)
        self.DB = baseband.to_baseband(D, sc.pulse, sc.sampling.delta_t, t0=t[0])
        self.config = rpca.RpcaConfig(eta=optimal_eta(sc), tol=GOTCHA_TOL)
        self.grid = imaging_grid(sc)
        self.mover = first_mover(sc)

    def prepare_checks(self) -> None:
        self.m_ref = moving_reference(self.sc)

    def run(self, out_dir):
        dec = rpca.decompose(self.DB, self.config)
        metrics = analysis.separation_metrics(dec, self.sc)
        img = imaging.migrate(dec.S, self.sc, self.grid,
                              hypothesis_velocity=self.mover.velocity, source="S")
        return dec, metrics, img, imaging.peak_report(img)

    def check(self, output, out_dir) -> dict:
        dec, metrics, img, peaks = output
        require(dec.converged, "RPCA did not converge")
        require(dec.residual <= GOTCHA_TOL, f"residual {dec.residual:.3g}")
        check_split(self.DB, dec.L, dec.S, dec.rank, GOTCHA_TOL)
        require(all(math.isfinite(v) for v in metrics.as_dict().values()),
                f"separation metrics not finite: {metrics.as_dict()}")
        check_image(img, (GRID_PIXELS, GRID_PIXELS))
        require(len(peaks) > 0, "no peak in the S image")
        err = sep_error(dec.S, self.m_ref)
        require(math.isfinite(err), "sep_error is not finite")
        return {"sep_error": err}


class GotchaFrontend:
    """Synthesis, baseband, .sarm write/read and both migrate branches on gotcha."""

    def __init__(self, scene_path, seed: int, expected_hash: str):
        sc = self.sc = load_checked(scene_path, expected_hash)
        self.t0 = simulate.fast_times(sc)[0]
        self.grid = imaging_grid(sc)
        self.mover = first_mover(sc)

    def prepare_checks(self) -> None:
        pass

    def run(self, out_dir):
        sc, out = self.sc, Path(out_dir)
        D = simulate.synthesize_downramped(sc)
        DB = baseband.to_baseband(D, sc.pulse, sc.sampling.delta_t, t0=self.t0)
        matrixio.write_matrix(out / "D.sarm", D)
        matrixio.write_matrix(out / "DB.sarm", DB)
        DB_read, _ = matrixio.read_matrix(out / "DB.sarm")
        img_db = imaging.migrate(DB_read, sc, self.grid,
                                 hypothesis_velocity=self.mover.velocity, source="DB")
        img_d = imaging.migrate(D, sc, self.grid, source="D")
        return D, DB, DB_read, img_db, img_d, imaging.peak_report(img_db)

    def check(self, output, out_dir) -> dict:
        D, DB, DB_read, img_db, img_d, peaks = output
        sc = self.sc
        require(DB_read.dtype == DB.dtype and DB_read.tobytes() == DB.tobytes(),
                "DB read back differs from DB written")
        D_rec = baseband.from_baseband(DB, sc.pulse, sc.sampling.delta_t, t0=self.t0)
        rel = float(np.linalg.norm(D_rec - D) / np.linalg.norm(D))
        require(rel <= RECONSTRUCTION_TOL, f"baseband round trip error {rel:.3g}")
        for img in (img_db, img_d):
            check_image(img, (GRID_PIXELS, GRID_PIXELS))
        require(len(peaks) > 0, "no peak in the DB image")
        return {}


WORKLOADS = {
    "scaled-pipeline": ScaledPipeline,
    "gotcha-rpca": GotchaRpca,
    "gotcha-frontend": GotchaFrontend,
}
