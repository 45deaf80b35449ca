"""Command-line pipeline: simulate -> baseband -> decompose -> eta, metrics, images.

`simulate`, `baseband`, `decompose`, `image` and `pipeline` all call one staged
run, `_run`, which stops after the stage the subcommand names: each is a prefix
of `pipeline`.  `image` stops at the stage that makes its --source (D simulate,
DB baseband, L and S decompose) and images that matrix.  `eta` and `analyze`
take their own short paths.  `analyze` picks the scene's first mover and
first stationary target and writes what `analysis.eta_sweeps` computes from
them.

RPCA runs on DB's critically sampled grid: `baseband.to_solve_grid` reads D
through the same band extraction as `baseband.to_baseband` and puts DB onto as
many columns as that band has DFT bins, C-ordered, so the solve takes it
without a copy, and `baseband.from_solve_grid` moves that grid's DB, L and S
onto the gate's columns, so the written matrices keep the gate's shape.  The
CLI knows nothing of that grid's scale: it asks `baseband.solve_grid_scale`
to put the gate-grid eta onto the solve grid.  The run holds at most one
gate-length matrix at a time: D is read once for its band and dropped, and
DB, L and S are each mapped, written and imaged in the stage that makes
them, then dropped.  `pipeline`'s tail stays on the solve grid: it writes
spectra.csv from `analysis.solve_grid_spectra` and metrics.json from
`analysis.solve_grid_metrics` of DB_K and its split.

Every command that takes --eta and --windows checks both, whatever stage it
stops at: --eta's syntax as argparse reads it, --windows against the scene's
pulse count.  Every command that reads the band (each stage from baseband on,
and `analyze`) meets `baseband.passband_bins`' rule before it writes a file.

Exit codes: 0 success, 1 configuration or usage error, 2 physics/gate error,
3 numerical failure (RPCA did not converge, or L has rank 0; raised after the
outputs are written).  An S of zero is named in rpca_report.json's
`degenerate` but exits 0: a scene with no mover gives it legitimately.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, baseband, eta, imaging, matrixio, rpca, simulate
from .errors import ConfigError, NumericalError, PhysicsError, vector3
from .scenario import (Scenario, Target, load_scenario, scenario_hash,
                       serialize_scenario)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PHYSICS = 2
EXIT_NUMERICAL = 3

STAGES = ("simulate", "baseband", "decompose", "pipeline")
SOURCE_STAGE = {"D": "simulate", "DB": "baseband", "L": "decompose", "S": "decompose"}


def _load(args) -> Scenario:
    if args.config:
        return load_scenario(args.config)
    if args.regime:
        with resources.as_file(resources.files("sarlrs") / f"data/{args.regime}.json") as path:
            return load_scenario(path)
    raise ConfigError("either --config or --regime is required")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _first_target(sc: Scenario, moving: bool) -> Target:
    for t in sc.targets:
        if t.stationary != moving:
            return t
    raise ConfigError(f"scenario has no {'moving' if moving else 'stationary'} target")


def _eta_mode(text: str) -> str | float:
    """--eta's syntax, checked as argparse reads it: 'conventional', 'optimal', or an
    eta `rpca.RpcaConfig` accepts (a finite, positive number)."""
    try:
        return text if text in ("conventional", "optimal") else rpca.RpcaConfig(float(text)).eta
    except (ValueError, ConfigError):
        raise argparse.ArgumentTypeError("must be 'conventional', 'optimal', or a finite, "
                                         f"positive number, got '{text}'") from None


def _resolve_eta(mode: str | float, sc: Scenario, m: int) -> tuple[float, str]:
    """An --eta mode's value on the gate's grid of m columns, and its name."""
    if mode == "conventional":
        return eta.conventional_eta(sc.platform.pulse_count, m), "conventional"  # D's shape
    if mode == "optimal":
        params = eta.ApertureParams.from_scenario(sc, _first_target(sc, moving=True).velocity)
        return eta.eta_bounds_baseband(params).eta_star, "analytic-optimal"
    return mode, "explicit"


def _build() -> dict:
    """The numpy and BLAS builds behind a solve's numbers."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _decompose(DB_K: np.ndarray, args, config: rpca.RpcaConfig, eta_value: float,
               eta_mode: str):
    """RPCA of DB's critically sampled grid DB_K, and the report for rpca_report.json.

    The split stays on DB_K's K columns: `_run` maps L and S onto DB's m
    columns.  The relative residual and the rank carry over exactly; nnz_S
    counts S on the short grid (the mapped S is dense).  `degenerate` names
    a rank-0 L (all of DB in S) or an S of zero (all of DB in L), else it
    is None.
    """
    dec = rpca.decompose_windowed(DB_K, args.windows, config)
    degenerate = ("rank-0 L: S holds all of DB" if dec.rank == 0 else
                  "S = 0: L holds all of DB" if dec.sparse_count == 0 else None)
    report = {"eta": eta_value, "eta_mode": eta_mode, "windows": args.windows,
              "solve_columns": DB_K.shape[1], "iterations": dec.iterations,
              "residual": dec.residual, "rank_L": dec.rank, "nnz_S": dec.sparse_count,
              "converged": dec.converged, "degenerate": degenerate,
              "build": _build(), "trace": dec.trace}
    return dec, report


def _eta_bounds(sc: Scenario, m: int) -> dict:
    params = eta.ApertureParams.from_scenario(sc, _first_target(sc, moving=True).velocity)
    return {
        "baseband": eta.eta_bounds_baseband(params).as_dict(),
        "original": eta.eta_bounds_original(params).as_dict(),
        "conventional": _resolve_eta("conventional", sc, m)[0],
    }


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _write_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _write_pgm(path, mag: np.ndarray) -> None:
    peak = mag.max()
    scaled = (mag / peak * 65535.0 if peak > 0 else mag).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{mag.shape[1]} {mag.shape[0]}\n65535\n".encode())
        fh.write(scaled.tobytes())


def _write_image(out: Path, name: str, img: imaging.KmImage) -> None:
    mag = img.magnitude()
    _write_pgm(out / f"{name}.pgm", mag)
    _write_json(out / f"{name}.json", {
        "source": img.source,
        "center_m": list(img.grid.center),
        "extent_m": [img.grid.extent_x, img.grid.extent_y],
        "pixels": [img.grid.nx, img.grid.ny],
        "dynamic_range": float(mag.max() / np.median(mag)) if np.median(mag) > 0 else None,
        "out_of_gate": img.out_of_gate,
        "peaks": imaging.peak_report(img),
    })


def _grid(args, sc: Scenario) -> imaging.ImagingGrid:
    return imaging.ImagingGrid(center=sc.reference_point,
                               extent_x=args.grid_extent, extent_y=args.grid_extent,
                               nx=args.grid_pixels, ny=args.grid_pixels)


def _velocity(text: str | None) -> np.ndarray:
    """--velocity's vx,vy,vz as a 3-vector; none given is zero."""
    try:
        velocity = [float(x) for x in text.split(",")] if text else [0.0] * 3
    except ValueError:
        raise ConfigError(f"--velocity must be vx,vy,vz, got '{text}'") from None
    return vector3(velocity, "--velocity")


def _run(args, last: str) -> int:
    """Run the stages simulate, baseband, decompose, pipeline in order, up to `last`.

    `last` == "image" runs up to the stage that makes --source, then images it.
    Each gate-length matrix is written and imaged in the stage that makes it
    and then dropped, so at most one is held at a time.
    """
    sc = _load(args)
    t = simulate.fast_times(sc)
    # bad --velocity, --windows or grid options (or an --eta, already at parsing) are
    # configuration errors, and a band `baseband.passband_bins` rejects a physics error,
    # before any stage writes
    images = {}
    if last == "image":
        last, images = SOURCE_STAGE[args.source], {args.source: _velocity(args.velocity)}
    stages = STAGES[:STAGES.index(last) + 1]
    band = (sc.pulse, sc.sampling.delta_t)
    if "windows" in args and not 1 <= args.windows <= sc.platform.pulse_count:
        raise ConfigError("--windows must be in [1, pulse count]")
    # every stage from baseband on reads the band
    scale = baseband.solve_grid_scale(t.size, *band) if "baseband" in stages else None
    if "decompose" in stages:
        eta_used = _resolve_eta(args.eta, sc, t.size)
        config = rpca.RpcaConfig(eta=eta_used[0] * scale)  # rejects an overflow
    if last == "pipeline":
        images = {"DB": [0.0] * 3, "L": [0.0] * 3, "S": _first_target(sc, moving=True).velocity}
    grid = _grid(args, sc) if images else None
    out = _outdir(args)
    text = serialize_scenario(sc)  # scenario.json, and the hash every file records
    digest = scenario_hash(text)

    def emit(name: str, M: np.ndarray, provenance: str) -> None:
        """Write the gate-length matrix `name`, and image it where the run asks."""
        matrixio.write_matrix(out / f"{name}.sarm", M, {
            "scenario_hash": digest, "regime": args.regime or "custom",
            "provenance": provenance})
        if name in images:
            img = imaging.migrate(M, sc, grid, hypothesis_velocity=images[name], source=name)
            _write_image(out, f"image_{name}", img)

    ends = [("start", time.perf_counter())]  # (stage, when it ended)
    D = simulate.synthesize_downramped(sc)
    emit("D", D, "simulate")
    (out / "scenario.json").write_text(text)
    if "baseband" in stages:
        DB_K = baseband.to_solve_grid(D, *band)
    del D
    ends.append(("simulate", time.perf_counter()))
    dec = None
    if "baseband" in stages:
        emit("DB", baseband.from_solve_grid(DB_K, *band, t.size, t0=t[0]), "baseband")
        ends.append(("baseband", time.perf_counter()))
    if "decompose" in stages:
        dec, report = _decompose(DB_K, args, config, *eta_used)
        for name, M in (("L", dec.L), ("S", dec.S)):
            emit(name, baseband.from_solve_grid(M, *band, t.size, t0=t[0]), f"decompose:{name}")
        _write_json(out / "rpca_report.json", report)
        ends.append(("decompose", time.perf_counter()))
    if last == "pipeline":
        _write_csv(out / "spectra.csv", [
            {"matrix": name, "k": k, "sigma": float(s)}
            for name, sig in analysis.solve_grid_spectra(dec, DB_K, sc).items()
            for k, s in enumerate(sig[:64])])
        used = {"value": report["eta"], "mode": report["eta_mode"], "windows": report["windows"]}
        _write_json(out / "eta_report.json", {"used": used, **_eta_bounds(sc, t.size)})
        metrics = analysis.solve_grid_metrics(dec, DB_K, sc).as_dict()
        _write_json(out / "metrics.json", metrics)
        ends.append(("tail", time.perf_counter()))
        seconds = {stage: t - before for (_, before), (stage, t) in zip(ends, ends[1:])}
        _write_json(out / "summary.json", {"scenario_hash": digest, "eta": used,
                                           "rpca": report, "metrics": metrics,
                                           "seconds": seconds})
    if dec is not None and not dec.converged:
        raise NumericalError("RPCA did not converge within the iteration cap")
    if dec is not None and dec.rank == 0:
        raise NumericalError(f"RPCA returned {report['degenerate']}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    return _run(args, "simulate")


def cmd_baseband(args) -> int:
    return _run(args, "baseband")


def cmd_decompose(args) -> int:
    return _run(args, "decompose")


def cmd_image(args) -> int:
    return _run(args, "image")


def cmd_pipeline(args) -> int:
    return _run(args, "pipeline")


def cmd_eta(args) -> int:
    sc = _load(args)
    report = _eta_bounds(sc, simulate.fast_times(sc).size)
    _write_json(_outdir(args) / "eta_report.json", report)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_analyze(args) -> int:
    sc = _load(args)
    velocity_rows, count_rows, summary = analysis.eta_sweeps(
        sc, _first_target(sc, moving=True), _first_target(sc, moving=False))
    out = _outdir(args)
    _write_csv(out / "velocity_sweep.csv", velocity_rows)
    _write_csv(out / "stationary_count_sweep.csv", count_rows)
    _write_json(out / "analysis_summary.json", summary)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarlrs",
        description="SAR simulation and low-rank plus sparse moving-target separation")
    sub = parser.add_subparsers(dest="command", required=True)
    regimes = sorted(f.name.removesuffix(".json")
                     for f in (resources.files("sarlrs") / "data").iterdir()
                     if f.name.endswith(".json"))
    commands = {
        "simulate": cmd_simulate,
        "baseband": cmd_baseband,
        "decompose": cmd_decompose,
        "eta": cmd_eta,
        "image": cmd_image,
        "analyze": cmd_analyze,
        "pipeline": cmd_pipeline,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="scenario JSON file")
        p.add_argument("--regime", choices=regimes,
                       help="built-in scenario to use when --config is absent")
        p.add_argument("--out", default="runs/latest", help="output directory")
        if name in ("decompose", "image", "pipeline"):
            p.add_argument("--eta", default="conventional", type=_eta_mode,
                           help="conventional | optimal | explicit value")
            p.add_argument("--windows", type=int, default=1,
                           help="consecutive slow-time blocks for RPCA")
        if name == "image":
            p.add_argument("--source", choices=["D", "DB", "L", "S"], default="D")
            p.add_argument("--velocity", help="hypothesis velocity vx,vy,vz [m/s]")
        if name in ("image", "pipeline"):
            p.add_argument("--grid-extent", type=float, default=60.0,
                           help="image half-extent [m]")
            p.add_argument("--grid-pixels", type=int, default=41)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_OK if not exc.code else EXIT_CONFIG
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
