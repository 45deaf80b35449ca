"""sarlrs benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload gotcha-rpca --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 15 --trace 1

Run from the repository root.  The seeded scenario is written to a private
directory under .bench_run/ and removed at the end.  Set-up is timed in
SETUP_RUNS fresh processes, from launch until the workload is ready; the
last of them then runs the workload closed-loop, one operation at a time,
for --seconds (at least one operation).  With --trace 1 every operation is
traced and the per-layer metrics replace the end-to-end ones.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

--workload all runs every workload in turn and prints a table; with
--trace 1 it also runs each untraced, to report the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
REGIMES = {"scaled-pipeline": "scaled", "gotcha-rpca": "gotcha",
           "gotcha-frontend": "gotcha"}
SETUP_RUNS = 3
DEADLINE_S = 170.0   # every child is killed after this, counted from launch
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SPEC = ROOT / "BENCHMARK.json"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def steal_seconds() -> float:
    """Cumulative steal time of this machine, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


class Child:
    """A worker process, killed at the deadline or on leaving its block."""

    def __init__(self, argv, deadline: float, env=None):
        self.start = perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(WORKER), *argv],
                                     stdout=subprocess.PIPE, text=True, env=env)
        self.timer = threading.Timer(max(deadline - self.start, 0.0), self.proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def ready(self) -> float:
        """Seconds from launch until the worker reports its set-up done."""
        if self.proc.stdout.readline().strip() != "ready":
            raise BenchError("worker failed during set-up")
        return perf_counter() - self.start

    def finish(self) -> dict:
        """Wait for the worker; return its last stdout line as JSON, if any."""
        lines = self.proc.stdout.read().strip().splitlines()
        code = self.proc.wait()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        return json.loads(lines[-1]) if lines else {}


def run_workload(args, work: Path, deadline: float) -> tuple[dict, int, int]:
    from scenes import write_scene
    scene = work / "scene.json"
    scene_hash = write_scene(REGIMES[args.workload], args.seed, scene)
    base = ["--workload", args.workload, "--scene", str(scene), "--hash", scene_hash,
            "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_RUNS - 1):
        with Child([*base, "--setup-only"], deadline) as child:
            setups.append(child.ready())
            child.finish()
    with Child([*base, "--work", str(work), "--seconds", str(args.seconds),
                "--trace", str(args.trace)], deadline) as child:
        setups.append(child.ready())
        result = child.finish()
    ops = result["ops"]
    failed = [op for op in ops if not op["ok"]]
    for op in failed:
        print(f"check failed: {op['error']}", file=sys.stderr)
    print(f"# scenario_hash {scene_hash}  setups_s {[round(s, 3) for s in setups]}  "
          f"ops_s {[round(op.get('wall', 0.0), 3) for op in ops]}")
    if not args.trace:
        walls = [op["wall"] for op in ops if "wall" in op]
        metrics = {
            "wall_s": statistics.median(walls) if walls else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        return metrics, len(ops), len(failed)
    metrics = result["layers"]
    errors = [op["sep_error"] for op in ops if "sep_error" in op]
    metrics["rpca.sep_error"] = statistics.mean(errors) if errors else 0.0
    metrics["rpca.thread_speedup"] = (thread_speedup(base, deadline)
                                      if args.workload == "scaled-pipeline" else 0.0)
    return metrics, len(ops), len(failed)


def thread_speedup(base, deadline: float) -> float:
    """Decompose time with one BLAS thread over that with the default count."""
    one = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    times = {}
    for name, env in (("default", None), ("one", one)):
        with Child([*base, "--probe"], deadline, env) as child:
            times[name] = child.finish()["decompose_s"]
    return times["one"] / times["default"]


def run_one(args) -> int:
    deadline = perf_counter() + DEADLINE_S
    steal0 = steal_seconds()
    work = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, attempted, failed = run_workload(args, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    steal = steal_seconds() - steal0
    env = dict(environment(), steal_s=round(steal, 3), seed=args.seed,
               workload=args.workload)
    if args.trace:
        metrics["env.steal_s"] = steal
    units = declared_metrics(args.trace)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from {SPEC.name}",
              file=sys.stderr)
        return 3
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own run; a table at the end."""
    rows = {}
    status = 0
    for workload in REGIMES:
        for trace in ((0, 1) if args.trace else (0,)):
            argv = [sys.executable, __file__, "--workload", workload, "--seed",
                    str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload}: run failed with code {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            rows.setdefault(workload, {"error_rate": result["failed"] / result["attempted"]})
            rows[workload].update({k: v["value"] for k, v in result["metrics"].items()})
    units = {**declared_metrics(0), **declared_metrics(1)}
    for workload, metrics in rows.items():
        print(f"== {workload}")
        if "trace.wall_s" in metrics and "wall_s" in metrics:
            metrics["trace.overhead"] = metrics["trace.wall_s"] / metrics["wall_s"] - 1.0
        for name, value in metrics.items():
            print(f"  {name:32s} {value:14.6g} {units.get(name, 'ratio')}")
    print(json.dumps(rows))
    return status


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*REGIMES, "all"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # a terminated run still kills its workers and removes its directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "sarlrs" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a sarlrs checkout; {SRC} or {SPEC} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
