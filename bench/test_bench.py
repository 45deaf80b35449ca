"""Self-tests of the benchmark: its checks, scenes, metric names and tracing.

    python3 -m pytest -q bench
"""

import json
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import sarlrs  # noqa: E402
from sarlrs import cli, rpca  # noqa: E402
from scenes import make_scene, shipped_path, write_scene  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import install, layer_metrics, run_loop  # noqa: E402
from workloads import CheckFailed, ScaledPipeline, check_split  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_and_workload_names_are_well_formed():
    groups = (SPEC["workloads"], SPEC["end_to_end"], SPEC["per_layer"])
    names = [entry["name"] for group in groups for entry in group]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)


@pytest.mark.parametrize("regime", ["scaled", "gotcha"])
def test_seed_zero_writes_the_shipped_scene(regime, tmp_path):
    path = tmp_path / "scene.json"
    write_scene(regime, 0, path)
    assert path.read_bytes() == shipped_path(regime).read_bytes()


def test_same_seed_gives_same_scene_hash(tmp_path):
    hashes = [write_scene("gotcha", seed, tmp_path / f"{i}.json")
              for i, seed in enumerate((5, 5, 6))]
    assert hashes[0] == hashes[1] != hashes[2]
    base, jittered = make_scene("gotcha", 0), make_scene("gotcha", 5)
    for a, b in zip(base.targets, jittered.targets):
        assert np.array_equal(a.position, b.position) != a.stationary


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One `sarlrs pipeline` run of the shipped scaled scene, checked clean."""
    tmp = tmp_path_factory.mktemp("pipeline")
    scene = tmp / "scene.json"
    scene_hash = write_scene("scaled", 0, scene)
    wl = ScaledPipeline(scene, 0, scene_hash)
    wl.prepare_checks()
    out = tmp / "out"
    rc = wl.run(out)
    assert wl.check(rc, out)["sep_error"] < 0.05
    return wl, rc, out


def corrupt_copy(pipeline_run, tmp_path, corrupt):
    wl, rc, out = pipeline_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    corrupt(copy)
    with pytest.raises(CheckFailed):
        wl.check(rc, copy)


def test_sparse_part_replaced_by_data_fails(pipeline_run, tmp_path):
    corrupt_copy(pipeline_run, tmp_path,
                 lambda d: shutil.copyfile(d / "DB.sarm", d / "S.sarm"))


def test_truncated_sarm_fails(pipeline_run, tmp_path):
    def truncate(d):
        data = (d / "L.sarm").read_bytes()
        (d / "L.sarm").write_bytes(data[:len(data) // 2])
    corrupt_copy(pipeline_run, tmp_path, truncate)


def test_degenerate_split_fails():
    DB = np.arange(12.0).reshape(3, 4) + 1j
    L = np.zeros_like(DB)
    with pytest.raises(CheckFailed, match="rank 0"):
        check_split(DB, L, DB.copy(), rank=0, tol=1e-3)
    with pytest.raises(CheckFailed, match="equals the data"):
        check_split(DB, L, DB.copy(), rank=1, tol=1e-3)


def test_traced_self_times_add_up_to_op_wall_time(pipeline_run, tmp_path):
    wl = pipeline_run[0]
    tracer = Tracer()
    ops = run_loop(wl, tmp_path, 0.0, tracer)["ops"]
    assert [op["ok"] for op in ops] == [True], ops
    op_span = tracer.spans[0]
    assert op_span.name == "op"
    assert sum(tracer.self_times()) == pytest.approx(op_span.duration, abs=1e-9)
    parents = {tracer.spans[sp.parent].name for sp in tracer.spans
               if sp.name == "rpca.singular_value_threshold"}
    assert parents == {"rpca.decompose"}
    # every wrapper is removed again
    assert not hasattr(rpca.decompose, "__wrapped__")
    assert not hasattr(cli.cmd_pipeline, "__wrapped__")
    declared = {m["name"] for m in SPEC["per_layer"]}
    added_by_run_py = {"rpca.sep_error", "rpca.thread_speedup", "env.steal_s"}
    assert set(layer_metrics(tracer, 1)) == declared - added_by_run_py


def test_unpatch_restores_every_binding():
    originals = (sarlrs.decompose, rpca.soft_threshold, sarlrs.analysis.synthesize_downramped)
    tracer = Tracer()
    install(tracer, make_scene("scaled", 0))
    assert sarlrs.decompose is not originals[0]
    assert sarlrs.decompose is rpca.decompose
    tracer.unpatch()
    assert (sarlrs.decompose, rpca.soft_threshold,
            sarlrs.analysis.synthesize_downramped) == originals
