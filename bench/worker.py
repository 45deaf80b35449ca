"""One benchmark process: set up a workload, then run it closed-loop.

Started by run.py, never by hand.  Protocol on stdout: the line "ready"
once set-up is done, then (unless --setup-only) one JSON line with the
per-operation results.  --probe instead times one scaled decompose, for the
single-thread BLAS baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from sarlrs import baseband, imaging, rpca, simulate  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, first_mover  # noqa: E402

SELF_SUM_TOL_S = 1e-6


def install(tracer: Tracer, sc) -> None:
    """Wrap every sarlrs function the workloads reach, with its counts."""
    pulses = sc.platform.pulse_count
    mover = first_mover(sc).position

    def out_bytes(a, k, r):
        return {"bytes": r.nbytes}

    def in_bytes(a, k, r):
        return {"bytes": np.asarray(a[0]).nbytes}

    def file_bytes(a, k, r):
        return {"bytes": os.path.getsize(a[0])}

    def solve(a, k, r):
        return {"iterations": r.iterations, "rank": r.rank,
                "nnz_S": r.sparse_count, "residual": r.residual}

    def migrated(a, k, r):
        info = {"samples": r.values.size * pulses, "out_of_gate": r.out_of_gate}
        v = k.get("hypothesis_velocity", a[3] if len(a) > 3 else (0.0, 0.0, 0.0))
        if np.any(np.asarray(v)):
            info["pbr"] = imaging.value_at(r, mover) / float(np.median(r.magnitude()))
        return info

    for name, measure in (
            ("simulate.synthesize_downramped", out_bytes),
            ("simulate.synthesize_baseband_direct", out_bytes),
            ("baseband.to_baseband", in_bytes),
            ("rpca.decompose", solve),
            ("rpca.decompose_windowed", None),
            ("rpca.singular_value_threshold", None),
            ("rpca.soft_threshold", None),
            ("rpca.spectral_norm", None),
            ("analysis.separation_metrics", None),
            ("imaging.migrate", migrated),
            ("imaging.peak_report", None),
            ("matrixio.write_matrix", file_bytes),
            ("matrixio.read_matrix", file_bytes),
            ("cli.cmd_pipeline", None)):
        tracer.patch(name, measure)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-operation averages of the traced spans, keyed by metric name."""
    selfs = tracer.self_times()
    time, self_time, calls, info = {}, {}, {}, {}
    for sp, st in zip(tracer.spans, selfs):
        time[sp.name] = time.get(sp.name, 0.0) + sp.duration
        self_time[sp.name] = self_time.get(sp.name, 0.0) + st
        calls[sp.name] = calls.get(sp.name, 0) + 1
        for key, value in sp.info.items():
            info.setdefault(f"{sp.name}:{key}", []).append(value)

    def per_op(table, *names):
        return sum(table.get(n, 0) for n in names) / n_ops

    def total(key):
        return float(sum(info.get(key, [])))

    def mean(key):
        values = info.get(key)
        return float(np.mean(values)) if values else 0.0

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    synth = ("simulate.synthesize_downramped", "simulate.synthesize_baseband_direct")
    svt_s = per_op(time, "rpca.singular_value_threshold")
    svt_calls = per_op(calls, "rpca.singular_value_threshold")
    migrate_s = per_op(time, "imaging.migrate")
    samples = total("imaging.migrate:samples")
    write_s = per_op(time, "matrixio.write_matrix")
    read_s = per_op(time, "matrixio.read_matrix")
    ops = [sp.duration for sp in tracer.spans if sp.name == "op"]
    return {
        "simulate.synth_s": per_op(time, *synth),
        "simulate.synth_calls": per_op(calls, *synth),
        "simulate.mb_out": (total(f"{synth[0]}:bytes") + total(f"{synth[1]}:bytes"))
        / 1e6 / n_ops,
        "baseband.to_baseband_s": per_op(time, "baseband.to_baseband"),
        "baseband.mb_in": total("baseband.to_baseband:bytes") / 1e6 / n_ops,
        "rpca.decompose_s": per_op(time, "rpca.decompose"),
        "rpca.iterations": mean("rpca.decompose:iterations"),
        "rpca.svt_s": svt_s,
        "rpca.svt_calls": svt_calls,
        "rpca.svt_ms_per_call": rate(1e3 * svt_s, svt_calls),
        "rpca.shrink_s": per_op(time, "rpca.soft_threshold"),
        "rpca.spectral_norm_s": per_op(time, "rpca.spectral_norm"),
        "rpca.other_s": per_op(self_time, "rpca.decompose"),
        "rpca.rank": mean("rpca.decompose:rank"),
        "rpca.nnz_S": mean("rpca.decompose:nnz_S"),
        "rpca.residual": mean("rpca.decompose:residual"),
        "analysis.separation_metrics_s": per_op(time, "analysis.separation_metrics"),
        "imaging.migrate_s": migrate_s,
        "imaging.migrate_calls": per_op(calls, "imaging.migrate"),
        "imaging.pixel_samples_per_s": rate(samples / n_ops, migrate_s),
        "imaging.out_of_gate_ratio": rate(total("imaging.migrate:out_of_gate"), samples),
        "imaging.peak_report_s": per_op(time, "imaging.peak_report"),
        "imaging.mover_pbr": mean("imaging.migrate:pbr"),
        "matrixio.write_s": write_s,
        "matrixio.read_s": read_s,
        "matrixio.write_mb_per_s":
            rate(total("matrixio.write_matrix:bytes") / 1e6 / n_ops, write_s),
        "matrixio.read_mb_per_s":
            rate(total("matrixio.read_matrix:bytes") / 1e6 / n_ops, read_s),
        "cli.pipeline_s": per_op(time, "cli.cmd_pipeline"),
        "cli.self_s": per_op(self_time, "cli.cmd_pipeline"),
        "trace.wall_s": statistics.median(ops),
        "trace.op_self_s": per_op(self_time, "op"),
    }


def run_loop(wl, work: Path, seconds: float, tracer: Tracer | None) -> dict:
    """Closed loop: one operation at a time until `seconds` have passed.

    Peak RSS is taken after the first operation, before any check runs.
    """
    ops = []
    peak_rss_mb = 0.0
    start = perf_counter()
    while not ops or perf_counter() - start < seconds:
        out_dir = work / f"op{len(ops)}"
        out_dir.mkdir()
        first_span = len(tracer.spans) if tracer else 0
        record = {"ok": False, "error": None}
        try:
            if tracer:
                install(tracer, wl.sc)
            try:
                with tracer.span("op") if tracer else nullcontext():
                    t0 = perf_counter()
                    output = wl.run(out_dir)
                    record["wall"] = perf_counter() - t0
            finally:
                if tracer:
                    tracer.unpatch()
            if not peak_rss_mb:
                # before the checks, whose reference matrices are not the program's
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
                wl.prepare_checks()
            record.update(wl.check(output, out_dir))
            if tracer:
                op_span = tracer.spans[first_span]
                gap = sum(tracer.self_times()[first_span:]) - op_span.duration
                if abs(gap) > SELF_SUM_TOL_S:
                    raise CheckFailed(f"self times miss the op wall time by {gap:.3g} s")
            record["ok"] = True
        except Exception as exc:  # an operation that raises counts as failed
            record["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            output = None
            shutil.rmtree(out_dir, ignore_errors=True)
        ops.append(record)
    return {"ops": ops, "peak_rss_mb": peak_rss_mb}


def probe(scene: str, expected_hash: str) -> float:
    """Seconds for the pipeline's decompose of the scaled scene."""
    wl = WORKLOADS["scaled-pipeline"](scene, 0, expected_hash)
    sc = wl.sc
    D = simulate.synthesize_downramped(sc)
    DB = baseband.to_baseband(D, sc.pulse, sc.sampling.delta_t,
                              t0=simulate.fast_times(sc)[0])
    t0 = perf_counter()
    rpca.decompose(DB, rpca.RpcaConfig(eta=wl.eta_star))
    return perf_counter() - t0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--hash", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", default=".")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--probe", action="store_true")
    args = p.parse_args()
    if args.probe:
        print(json.dumps({"decompose_s": probe(args.scene, args.hash)}), flush=True)
        return 0
    wl = WORKLOADS[args.workload](args.scene, args.seed, args.hash)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    tracer = Tracer() if args.trace else None
    result = run_loop(wl, Path(args.work), args.seconds, tracer)
    if tracer:
        result["layers"] = layer_metrics(tracer, len(result["ops"]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
