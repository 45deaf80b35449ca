import csv
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import sarlrs.analysis
import sarlrs.cli
import sarlrs.rpca
import sarlrs.scenario
import sarlrs.simulate
from sarlrs.analysis import SCORE_ROWS, SWEEP_SPEEDS, separation_metrics
from sarlrs.baseband import passband_bins
from sarlrs.cli import build_parser, main
from sarlrs.errors import ConfigError
from sarlrs.eta import ApertureParams, conventional_eta, eta_bounds_baseband
from sarlrs.matrixio import read_matrix, write_matrix
from sarlrs.scenario import (SamplingGrid, Scenario, load_scenario, scenario_hash,
                             scenario_to_dict, serialize_scenario)
from sarlrs.simulate import fast_times

from conftest import ALIASED_BANDS


def test_real_matrix_round_trip(tmp_path):
    M = np.arange(12, dtype=float).reshape(3, 4)
    path = tmp_path / "m.sarm"
    write_matrix(path, M, {"tag": "test"})
    out, meta = read_matrix(path)
    assert np.array_equal(out, M)
    assert not np.iscomplexobj(out)
    assert meta == {"tag": "test"}


def test_complex_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    path = tmp_path / "m.sarm"
    write_matrix(path, M)
    out, meta = read_matrix(path)
    assert np.array_equal(out, M)
    assert meta == {}


def write_matrix_reference(path, M, metadata=None):
    """The writer that copied each payload with tobytes() before writing it."""
    M = np.asarray(M)
    if np.iscomplexobj(M):
        kind, payload = 1, np.ascontiguousarray(M, dtype="<c16").tobytes()
    else:
        kind, payload = 0, np.ascontiguousarray(M, dtype="<f8").tobytes()
    header = struct.pack("<4sHHQQ", b"SARM", 1, kind, M.shape[0], M.shape[1])
    trailer = json.dumps(metadata or {}, sort_keys=True).encode()
    Path(path).write_bytes(header + payload + trailer)


_rng = np.random.default_rng(1)
_COMPLEX = _rng.standard_normal((5, 7)) + 1j * _rng.standard_normal((5, 7))
WRITE_INPUTS = {
    "real": _rng.standard_normal((6, 4)),
    "complex": _COMPLEX,
    "float32": _rng.standard_normal((3, 9)).astype(np.float32),
    "fortran": np.asfortranarray(_COMPLEX),
    "empty": np.zeros((0, 6)),
}


@pytest.mark.parametrize("name", sorted(WRITE_INPUTS))
def test_write_matrix_matches_the_copying_writer(tmp_path, name):
    M = WRITE_INPUTS[name]
    write_matrix(tmp_path / "a.sarm", M, {"tag": name})
    write_matrix_reference(tmp_path / "b.sarm", M, {"tag": name})
    assert (tmp_path / "a.sarm").read_bytes() == (tmp_path / "b.sarm").read_bytes()


def test_write_matrix_copies_no_payload(tmp_path):
    rng = np.random.default_rng(2)
    M = rng.standard_normal((2000, 500)) + 1j * rng.standard_normal((2000, 500))
    tracemalloc.start()
    try:
        write_matrix(tmp_path / "m.sarm", M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * M.nbytes
    assert np.array_equal(read_matrix(tmp_path / "m.sarm")[0], M)


def test_write_matrix_rejects_a_vector(tmp_path):
    with pytest.raises(ConfigError):
        write_matrix(tmp_path / "v.sarm", np.ones(5))
    assert not (tmp_path / "v.sarm").exists()


@pytest.mark.parametrize("corrupt", [
    lambda b: b[:10],                                        # truncated header
    lambda b: b"NOPE" + b[4:],                               # bad magic
    lambda b: b[:4] + (2).to_bytes(2, "little") + b[6:],     # bad version
    lambda b: b[:6] + (7).to_bytes(2, "little") + b[8:],     # unknown kind
    lambda b: b[:40],                                        # short payload
    lambda b: b + b"\xff{",                                  # bad trailer
    lambda b: b[:8] + (2**20).to_bytes(8, "little") * 2 + b[24:],  # 2^40 elements
], ids=["truncated-header", "bad-magic", "bad-version", "unknown-kind", "short-payload",
        "bad-trailer", "oversized-header"])
def test_malformed_matrix_rejected(tmp_path, corrupt):
    path = tmp_path / "m.sarm"
    write_matrix(path, np.ones((4, 4)), {"tag": "test"})
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ConfigError):
        read_matrix(path)


def test_shipped_scenarios_round_trip_byte_identical():
    for name in ("gotcha", "scaled"):
        ref = resources.files("sarlrs").joinpath(f"data/{name}.json")
        text = ref.read_text()
        with resources.as_file(ref) as path:
            sc = load_scenario(path)
        assert serialize_scenario(sc) == text


def test_gotcha_scenario_contents():
    ref = resources.files("sarlrs").joinpath("data/gotcha.json")
    doc = json.loads(ref.read_text())
    assert doc["pulse"]["carrier_frequency_hz"] == 9.6e9
    assert doc["pulse"]["bandwidth_frequency_hz"] == 311e6
    assert doc["platform"]["pulse_count"] == 237
    assert doc["platform"]["delta_s_seconds"] == 0.015
    assert doc["platform"]["velocity_mps"] == [0.0, 300.0, 0.0]
    assert len(doc["targets"]) == 6
    movers = [t for t in doc["targets"] if any(t["velocity_mps"])]
    assert len(movers) == 1
    assert movers[0]["reflectivity"] == 0.05
    assert np.linalg.norm(movers[0]["velocity_mps"]) == 15.0


def _scaled_config(tmp_path):
    ref = resources.files("sarlrs").joinpath("data/scaled.json")
    cfg = tmp_path / "scene.json"
    cfg.write_text(ref.read_text())
    return cfg


def test_cli_simulate(tmp_path):
    cfg = _scaled_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    D, meta = read_matrix(out / "D.sarm")
    assert D.shape[0] == 101
    assert meta["provenance"] == "simulate"
    assert "scenario_hash" in meta


def test_cli_empty_scene_zero_matrix(tmp_path):
    doc = json.loads(_scaled_config(tmp_path).read_text())
    doc["targets"] = []
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    D, _ = read_matrix(out / "D.sarm")
    assert not np.any(D)


def test_cli_missing_config_is_config_error(tmp_path):
    assert main(["simulate", "--out", str(tmp_path / "x")]) == 1
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 1
    assert main(["simulate", "--config", str(tmp_path), "--out", str(tmp_path / "x")]) == 1


def test_cli_malformed_json_is_config_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("where, update", [
    ((), {"reference_point_m": ["a", 0, 0]}),
    ((), {"reference_point_m": [0.0, 0.0]}),
    (("targets", 0), {"position_m": [0.0, 0.0]}),
    (("sampling",), {"gate_start_seconds": "a", "gate_end_seconds": "b"}),
    (("platform",), {"pulse_count": 101.5}),
    (("sampling",), {"delta_t_seconds": float("nan")}),
    (("pulse",), {"bandwidth_frequency_hz": 0.0}),
    (("platform",), {"delta_s_seconds": -0.03}),
    (("platform",), {"pulse_count": 100}),
    (("targets", 0), {"reflectivity": -1.0}),
    (("sampling",), {"delta_t_seconds": 0.0}),
    (("sampling",), {"gate_start_seconds": -1e-6}),
    (("sampling",), {"gate_start_seconds": 1e-6, "gate_end_seconds": -1e-6}),
    ((), {"pulse": {"carrier_frequency_hz": 2e8}}),
    (("targets", 0), {"reflectivity": True}),
    (("sampling",), {"delta_t_seconds": True}),
    (("targets", 0), {"position_m": [True, 0, 0]}),
    (("pulse",), {"carrier_frequency_hz": "2e8"}),
    (("platform",), {"pulse_count": True}),
    (("platform",), {"velocity_mps": [0.0, 10.0, 0.0, 0.0]}),
    (("sampling",), {"gate_start_seconds": float("-inf"), "gate_end_seconds": 1e-6}),
    (("pulse",), {"bandwidth_frequency_hz": float("inf")}),
    (("platform",), {"delta_s_seconds": 10**400}),
    ((), {"reference_point_m": ["1", 0, 0]}),
    ((), {"pulse": [2e8, 1e7]}),
    ((), {"sampling": None}),
    ((), {"targets": {"position_m": [0.0, 0.0, 0.0], "velocity_mps": [0.0, 0.0, 0.0]}}),
    (("targets",), {2: 5}),
    (("targets", 2), {"velocity_mps": [0.0, 0.0]}),
], ids=["reference-not-numeric", "reference-2-vector", "target-2-vector", "gate-strings",
        "pulse-count-fractional", "delta-t-nan", "bandwidth-zero", "delta-s-negative",
        "pulse-count-even", "reflectivity-negative", "delta-t-zero", "gate-start-alone",
        "gate-end-before-start", "bandwidth-missing", "reflectivity-true", "delta-t-true",
        "target-position-bool", "carrier-quoted", "pulse-count-true", "platform-4-vector",
        "gate-start-minus-inf", "bandwidth-inf", "delta-s-beyond-float", "reference-quoted",
        "pulse-not-object", "sampling-null", "targets-not-list", "target-not-object",
        "third-target-2-vector"])
def test_cli_malformed_scenario_is_config_error(tmp_path, capsys, where, update):
    doc = json.loads(_scaled_config(tmp_path).read_text())
    section = doc
    for key in where:
        section = section[key]
    for key, value in update.items():
        section[key] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert not out.exists()
    # an error in a section names it, and a target by its index
    path = where + tuple(update)[:1]
    if path[0] in ("pulse", "platform", "sampling", "targets"):
        named = f"targets[{path[1]}]" if path[0] == "targets" and len(path) > 1 else path[0]
        assert err.startswith(f"error: {named}")


def test_cli_gate_too_narrow_exit_code(tmp_path):
    doc = json.loads(_scaled_config(tmp_path).read_text())
    doc["sampling"]["gate_start_seconds"] = -1e-9
    doc["sampling"]["gate_end_seconds"] = 1e-9
    cfg = tmp_path / "narrow.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("command", ["baseband", "decompose", "pipeline"])
def test_cli_empty_passband_is_physics_error(tmp_path, capsys, command):
    # 24 samples of 0.1 ns resolve 417 MHz: no bin lies within 6B = 0.6 MHz of 1 GHz
    doc = json.loads(_scaled_config(tmp_path).read_text())
    doc["targets"] = []
    doc["pulse"] = {"carrier_frequency_hz": 1e9, "bandwidth_frequency_hz": 1e5}
    doc["sampling"] = {"delta_t_seconds": 1e-10, "gate_start_seconds": 0.0,
                       "gate_end_seconds": 2e-9}
    doc["platform"]["pulse_count"] = 5
    cfg = tmp_path / "empty-band.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("physics error: ")
    assert not out.exists()


@pytest.mark.parametrize("variant", sorted(ALIASED_BANDS))
@pytest.mark.parametrize("argv", [["baseband"], ["decompose"], ["pipeline"],
                                  ["image", "--source", "DB"], ["image", "--source", "S"],
                                  ["analyze"]],
                         ids=["baseband", "decompose", "pipeline", "image-DB", "image-S",
                              "analyze"])
def test_cli_aliased_band_fails_before_any_output(tmp_path, capsys, argv, variant):
    # every command here exited 0 on the first three scenes, each output built from a
    # D_B the band cut; all but analyze wrote D.sarm and scenario.json on the last
    carrier_hz, dt, edge = ALIASED_BANDS[variant]
    doc = json.loads(_scaled_config(tmp_path).read_text())
    doc["pulse"]["carrier_frequency_hz"], doc["sampling"]["delta_t_seconds"] = carrier_hz, dt
    cfg = tmp_path / "aliased.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"reaches {edge} " in capsys.readouterr().err
    assert not out.exists()


def test_cli_eta_report(tmp_path):
    cfg = _scaled_config(tmp_path)
    out = tmp_path / "run"
    assert main(["eta", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "eta_report.json").read_text())
    for regime in ("baseband", "original"):
        assert set(report[regime]) >= {"eta_min", "eta_max", "eta_star",
                                       "dynamic_range", "N", "regime"}
    assert report["baseband"]["eta_min"] < report["baseband"]["eta_max"]
    ratio = report["original"]["eta_star"] / report["baseband"]["eta_star"]
    assert ratio == pytest.approx(np.pi / 2, rel=1e-12)


def test_cli_decompose_and_image(tmp_path):
    cfg = _scaled_config(tmp_path)
    out = tmp_path / "run"
    assert main(["decompose", "--config", str(cfg), "--eta", "optimal",
                 "--out", str(out)]) == 0
    L, _ = read_matrix(out / "L.sarm")
    S, _ = read_matrix(out / "S.sarm")
    report = json.loads((out / "rpca_report.json").read_text())
    assert report["converged"]
    assert report["eta_mode"] == "analytic-optimal"
    assert np.iscomplexobj(L) and np.iscomplexobj(S)

    assert main(["image", "--config", str(cfg), "--source", "D",
                 "--grid-extent", "20", "--grid-pixels", "11",
                 "--out", str(out)]) == 0
    pgm = (out / "image_D.pgm").read_bytes()
    assert pgm.startswith(b"P5\n11 11\n65535\n")
    assert len(pgm) == len(b"P5\n11 11\n65535\n") + 11 * 11 * 2
    sidecar = json.loads((out / "image_D.json").read_text())
    assert sidecar["pixels"] == [11, 11]


def _pinned(sc):
    """The scene on its own resolved gate, so its class subsets share its columns."""
    t0, t1 = sarlrs.simulate.fast_time_gate(sc)
    return replace(sc, sampling=SamplingGrid(sc.sampling.delta_t, t0, t1))


def _reference(sc, subset=Scenario.moving_only):
    """Baseband model of one target class alone, on the full scene's gate."""
    return sarlrs.simulate.synthesize_baseband_direct(subset(_pinned(sc)))


def _count_syntheses(monkeypatch) -> list:
    """Record every synthesis the package makes, as (name, scene, rows), in order.

    Both synthesizers are wrapped in both modules that call them; each wrapper
    forwards its positional and keyword arguments.
    """
    calls = []
    for module in (sarlrs.simulate, sarlrs.analysis):
        for name in ("synthesize_downramped", "synthesize_baseband_direct"):
            def counted(sc, *args, _name=name, _synth=getattr(module, name), **kwargs):
                rows = kwargs.get("rows", args[0] if args else slice(None))
                calls.append(SimpleNamespace(name=_name, scene=sc, rows=rows))
                return _synth(sc, *args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


def _assert_syntheses(calls, sc, pipeline: bool) -> None:
    """The run synthesized the real D of the full scene once, and `pipeline` its
    moving-only scene on the same gate, SCORE_ROWS rows at a time; nothing else."""
    assert all(c.name == "synthesize_downramped" for c in calls)  # no complex model
    scenes = [serialize_scenario(c.scene) for c in calls]
    assert (scenes[0], calls[0].rows) == (serialize_scenario(sc), slice(None))
    movers = serialize_scenario(_pinned(sc).moving_only())
    assert all(scene == movers for scene in scenes[1:])
    n = sc.platform.pulse_count
    blocks = [slice(first, first + SCORE_ROWS) for first in range(0, n, SCORE_ROWS)]
    assert [c.rows for c in calls[1:]] == (blocks if pipeline else [])


def _strict_json(path):
    """Parse a JSON file, rejecting NaN and Infinity."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_cli_short_grid_split_matches_full_grid_solve(tmp_path):
    cfg = _scaled_config(tmp_path)
    sc = load_scenario(cfg)
    out = tmp_path / "run"
    assert main(["decompose", "--config", str(cfg), "--eta", "optimal",
                 "--out", str(out)]) == 0
    report = json.loads((out / "rpca_report.json").read_text())
    mover = next(t for t in sc.targets if not t.stationary)
    star = eta_bounds_baseband(ApertureParams.from_scenario(sc, mover.velocity)).eta_star
    assert report["eta"] == pytest.approx(star, rel=1e-12)  # the full-grid value
    assert report["solve_columns"] == 135
    DB, L, S = (read_matrix(out / f"{name}.sarm")[0] for name in ("DB", "L", "S"))
    full = sarlrs.rpca.decompose(DB, sarlrs.rpca.RpcaConfig(eta=star))
    assert (report["iterations"], report["rank_L"]) == (full.iterations, full.rank)
    assert np.linalg.norm(L - full.L) <= 1e-3 * np.linalg.norm(full.L)
    M_ref = _reference(sc)
    error = lambda S: np.linalg.norm(S - M_ref) / np.linalg.norm(M_ref)
    assert abs(error(S) - error(full.S)) <= 0.005


def test_cli_conventional_eta_is_the_full_grid_value(tmp_path):
    cfg = _scaled_config(tmp_path)
    out = tmp_path / "run"
    assert main(["decompose", "--config", str(cfg), "--eta", "conventional",
                 "--out", str(out)]) == 0
    report = json.loads((out / "rpca_report.json").read_text())
    assert report["eta_mode"] == "conventional"
    assert report["eta"] == conventional_eta(101, 3000)


def _traced_main(argv):
    """main(argv) and the peak of what it allocated, in bytes."""
    tracemalloc.start()
    try:
        return main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cli_decompose_gotcha_end_to_end(tmp_path):
    # the default gotcha run: `decompose` is a prefix of `pipeline`
    out = tmp_path / "run"
    rc, peak = _traced_main(["pipeline", "--regime", "gotcha", "--eta", "optimal",
                             "--out", str(out)])
    assert rc == 0
    DB, L, S = (read_matrix(out / f"{name}.sarm")[0] for name in ("DB", "L", "S"))
    for M in (L, S):
        assert M.dtype == np.complex128 and M.shape == (237, 32000)
    # one gate-length matrix at a time: holding D, DB, L and S to the tail
    # as well peaked at 3.7x DB's bytes
    assert peak <= 1.5 * DB.nbytes
    assert np.linalg.norm(DB - L - S) <= 1e-7 * np.linalg.norm(DB)
    del DB
    docs = {p.name: _strict_json(p) for p in out.glob("*.json")}
    summary, report, metrics = docs["summary.json"], docs["rpca_report.json"], docs["metrics.json"]
    assert summary["rpca"] == report and summary["metrics"] == metrics
    # the scores, taken on the solve grid, are the errors their names say of the
    # written matrices against gate-length baseband references; each 121 MB
    # reference is freed before the next is made
    sc = load_scenario(out / "scenario.json")
    for X, subset, key in ((S, Scenario.moving_only, "s_error"),
                           (L, Scenario.stationary_only, "l_error")):
        R = _reference(sc, subset)
        assert metrics[key] == pytest.approx(np.linalg.norm(X - R) / np.linalg.norm(R),
                                             rel=1e-9)
        del R
    assert 0 <= metrics["s_cosine"] <= 1
    assert set(summary["seconds"]) == {"simulate", "baseband", "decompose", "tail"}
    assert 1 <= report["rank_L"] < 237
    with open(out / "spectra.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [sum(r["matrix"] == name for r in rows) for name in ("D", "DB", "L", "S")] == [64] * 4


def test_cli_rank_zero_split_writes_outputs_then_exits_3(tmp_path, capsys):
    # eight 30-row blocks at the conventional eta put all of DB into S
    out = tmp_path / "run"
    assert main(["decompose", "--regime", "gotcha", "--windows", "8", "--eta", "conventional",
                 "--out", str(out)]) == 3
    assert "rank-0" in capsys.readouterr().err
    report = json.loads((out / "rpca_report.json").read_text())
    assert report["rank_L"] == 0
    assert report["degenerate"] == "rank-0 L: S holds all of DB"
    assert (out / "L.sarm").exists() and (out / "S.sarm").exists()


@pytest.mark.parametrize("eta", [["--eta", "bogus"], ["--eta", "nan"], ["--eta", "inf"],
                                 ["--eta", "0"], ["--eta=-1"], ["--eta", "1e308"]],
                         ids=["bogus", "nan", "inf", "0", "-1", "1e308"])
def test_cli_bad_eta_value(tmp_path, eta):
    # 1e308 is finite, but its short-grid value 1e308 * sqrt(3000 / 135) is not
    cfg = _scaled_config(tmp_path)
    out = tmp_path / "x"
    assert main(["decompose", "--config", str(cfg), *eta, "--out", str(out)]) == 1
    assert not out.exists() or not any(out.iterdir())


def test_cli_zero_s_is_flagged_but_exits_0(tmp_path):
    # at eta 0.2 the shrinkage keeps no entry of the scaled scene's DB; a scene
    # with no mover gives S = 0 legitimately, so only rank-0 L exits 3
    out = tmp_path / "run"
    assert main(["pipeline", "--regime", "scaled", "--eta", "0.2",
                 "--grid-pixels", "5", "--out", str(out)]) == 0
    report = _strict_json(out / "rpca_report.json")
    assert report["nnz_S"] == 0 and report["rank_L"] >= 1 and report["converged"]
    assert report["degenerate"] == "S = 0: L holds all of DB"
    assert _strict_json(out / "metrics.json")["s_error"] == 1.0


@pytest.mark.parametrize("command", ["decompose", "pipeline"])
def test_cli_holds_one_gate_length_matrix_at_a_time(tmp_path, command):
    # D is dropped once its band is read, and DB, L and S each once written
    # and imaged: holding them to the tail as well
    # peaked at 3.7x (decompose) and 4.2x (pipeline) DB's bytes
    out = tmp_path / "run"
    rc, peak = _traced_main([command, "--regime", "scaled", "--eta", "optimal",
                             "--out", str(out)])
    assert rc == 0
    assert peak <= 2.0 * read_matrix(out / "DB.sarm")[0].nbytes


def test_cli_metrics_score_the_written_matrices(tmp_path):
    out = tmp_path / "run"
    assert main(["pipeline", "--regime", "scaled", "--eta", "optimal",
                 "--grid-pixels", "5", "--out", str(out)]) == 0
    L, S = (read_matrix(out / f"{name}.sarm")[0] for name in ("L", "S"))
    residual = _strict_json(out / "rpca_report.json")["residual"]
    split = SimpleNamespace(L=L, S=S, residual=residual)
    expected = separation_metrics(split, load_scenario(out / "scenario.json")).as_dict()
    # the run scores the solve-grid split these matrices are mapped from, against
    # references on that grid: equal to the band's 6B tail (4e-11 measured)
    assert _strict_json(out / "metrics.json") == pytest.approx(expected, rel=1e-9)


def test_cli_serializes_the_scene_once(tmp_path, monkeypatch):
    # one text is scenario.json, and the scenario_hash of every .sarm and summary.json
    texts = []
    for module in (sarlrs.scenario, sarlrs.cli):
        monkeypatch.setattr(module, "serialize_scenario",
                            lambda sc, _f=serialize_scenario: texts.append(1) or _f(sc))
    out = tmp_path / "run"
    assert main(["pipeline", "--regime", "scaled", "--eta", "optimal",
                 "--grid-pixels", "5", "--out", str(out)]) == 0
    assert len(texts) == 1
    text = (out / "scenario.json").read_text()
    digest = scenario_hash(load_scenario(out / "scenario.json"))
    assert scenario_hash(text) == digest == _strict_json(out / "summary.json")["scenario_hash"]
    for name in ("D", "DB", "L", "S"):
        assert read_matrix(out / f"{name}.sarm")[1]["scenario_hash"] == digest, name


@pytest.mark.parametrize("source", ["D", "DB", "L", "S"])
def test_cli_image_writes_only_its_own_image(tmp_path, source):
    out = tmp_path / "run"
    assert main(["image", "--regime", "scaled", "--source", source, "--eta", "optimal",
                 "--grid-pixels", "5", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("image_*")) == [f"image_{source}.json",
                                                         f"image_{source}.pgm"]
    assert not (out / "metrics.json").exists() and not (out / "spectra.csv").exists()


def test_cli_explicit_eta_is_scaled_onto_the_short_grid(tmp_path, monkeypatch):
    cfg = _scaled_config(tmp_path)
    out = tmp_path / "run"
    etas = []
    windowed = sarlrs.rpca.decompose_windowed
    monkeypatch.setattr(sarlrs.rpca, "decompose_windowed",
                        lambda D, w, config: etas.append(config.eta) or windowed(D, w, config))
    # 0.002 lies below the scene's eta_min (0.0082), so S
    # takes all of DB and the run exits 3 after writing its report
    assert main(["decompose", "--config", str(cfg), "--eta", "0.002", "--windows", "4",
                 "--out", str(out)]) == 3
    report = json.loads((out / "rpca_report.json").read_text())
    assert (report["eta_mode"], report["eta"]) == ("explicit", 0.002)
    assert report["rank_L"] == 0
    assert etas == [0.002 * math.sqrt(3000 / 135)]


@pytest.mark.parametrize("command, moving, message", [
    ("eta", False, "no moving target"),
    ("analyze", True, "no stationary target"),
], ids=["eta-stationary-only", "analyze-mover-only"])
def test_cli_unusable_scene_fails_before_any_output(tmp_path, capsys, command, moving,
                                                    message):
    doc = json.loads(_scaled_config(tmp_path).read_text())
    doc["targets"] = [t for t in doc["targets"] if any(t["velocity_mps"]) == moving]
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["decompose", "--windows", "0"],
    ["decompose", "--windows", "102"],  # the scaled scene has 101 pulses
    ["pipeline", "--grid-pixels", "1"],
    ["image", "--source", "S", "--windows", "0"],
    ["image", "--grid-pixels", "5", "--grid-extent", "nan"],
    ["image", "--grid-pixels", "5", "--grid-extent", "inf"],
    ["image", "--grid-pixels", "5", "--velocity", "nan,0,0"],
    ["image", "--grid-pixels", "5", "--velocity", "0,-inf,0"],
    # --source D and DB never solve, but take --eta and --windows all the same
    ["image", "--source", "D", "--eta", "bogus", "--windows", "-3"],
    ["image", "--source", "D", "--windows", "102"],
    ["image", "--source", "DB", "--eta", "nan"],
    ["image", "--source", "DB", "--windows", "0"],
], ids=["decompose-windows-0", "decompose-windows-102", "pipeline-grid-pixels-1",
        "image-windows-0", "image-extent-nan", "image-extent-inf", "image-velocity-nan",
        "image-velocity-inf", "image-D-eta-bogus-windows-neg", "image-D-windows-102",
        "image-DB-eta-nan", "image-DB-windows-0"])
def test_cli_bad_settings_fail_before_any_output(tmp_path, argv):
    cfg = _scaled_config(tmp_path)
    out = tmp_path / "run"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists() or not any(out.iterdir())


def test_cli_simulate_deterministic(tmp_path):
    cfg = _scaled_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    assert (a / "D.sarm").read_bytes() == (b / "D.sarm").read_bytes()


def test_cli_pipeline_outputs(tmp_path, monkeypatch):
    cfg = _scaled_config(tmp_path)
    out = tmp_path / "run"
    calls, qr_rows = _count_syntheses(monkeypatch), []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, **k: qr_rows.append(a.shape[0]) or qr(a, **k))
    assert main(["pipeline", "--config", str(cfg), "--eta", "optimal",
                 "--grid-extent", "20", "--grid-pixels", "11",
                 "--out", str(out)]) == 0
    # D is synthesized once and reused for DB; the scores' moving-only
    # reference is synthesized in row blocks and mapped onto the solve grid
    _assert_syntheses(calls, load_scenario(cfg), pipeline=True)
    # no spectrum is taken at the gate's 3000 columns: every one is read off
    # the short-grid matrices the solve holds, D's off DB_K's real form
    assert qr_rows.count(3000) == 0
    for name in ("D.sarm", "DB.sarm", "L.sarm", "S.sarm", "eta_report.json",
                 "spectra.csv", "metrics.json", "summary.json",
                 "image_DB.pgm", "image_L.pgm", "image_S.pgm"):
        assert (out / name).exists(), name
    docs = {p.name: _strict_json(p) for p in out.glob("*.json")}
    summary = docs["summary.json"]
    assert summary["rpca"]["degenerate"] is None
    build = summary["rpca"]["build"]
    assert set(build) == {"numpy", "blas"} and build["numpy"] == np.__version__
    trace = summary["rpca"]["trace"]
    assert len(trace) == summary["rpca"]["iterations"]
    assert set(trace[0]) == {"residual", "mu", "nnz", "rank", "svt_s", "pass_s", "window"}
    assert trace[-1]["residual"] == pytest.approx(summary["rpca"]["residual"], rel=1e-9)
    assert set(summary["seconds"]) == {"simulate", "baseband", "decompose", "tail"}
    assert all(seconds >= 0 for seconds in summary["seconds"].values())
    metrics = docs["metrics.json"]
    assert list(metrics) == ["s_error", "l_error", "s_cosine", "residual"]
    assert metrics["s_error"] <= 0.05 and metrics["s_cosine"] >= 0.99
    for path in (out / "D.sarm", out / "L.sarm"):
        M, meta = read_matrix(path)  # everything emitted is re-readable
        assert M.size > 0 and "scenario_hash" in meta
    with open(out / "spectra.csv") as fh:
        rows = list(csv.DictReader(fh))
    # D's row agrees with D's own spectrum to the band's 6B tail (2.4e-12 of
    # sigma_0 measured, in the values near that tail); the others map exactly
    for name, rel in (("D", 1e-11), ("DB", 1e-12), ("L", 1e-12), ("S", 1e-12)):
        ref = np.linalg.svd(read_matrix(out / f"{name}.sarm")[0], compute_uv=False)[:64]
        sigma = np.array([float(r["sigma"]) for r in rows if r["matrix"] == name])
        assert sigma.shape == ref.shape, name
        assert np.max(np.abs(sigma - ref)) <= rel * ref[0], name


def test_cli_pipeline_mover_only_scene_scores_no_l_error(tmp_path):
    # with no stationary target C_ref = 0, so the L error has no denominator
    doc = json.loads(_scaled_config(tmp_path).read_text())
    doc["targets"] = [t for t in doc["targets"] if any(t["velocity_mps"])]
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--eta", "optimal",
                 "--grid-extent", "20", "--grid-pixels", "11", "--out", str(out)]) == 0
    metrics = _strict_json(out / "metrics.json")
    assert metrics["l_error"] is None
    assert metrics["s_error"] <= 0.05 and metrics["s_cosine"] >= 0.99
    assert _strict_json(out / "summary.json")["metrics"] == metrics


def test_cli_pipeline_not_converged_writes_outputs_then_exits_3(tmp_path, monkeypatch):
    cfg = _scaled_config(tmp_path)
    out = tmp_path / "run"
    windowed = sarlrs.rpca.decompose_windowed
    capped = lambda D, w, config: windowed(D, w, sarlrs.rpca.RpcaConfig(eta=config.eta,
                                                                       max_iter=2))
    monkeypatch.setattr(sarlrs.rpca, "decompose_windowed", capped)
    assert main(["pipeline", "--config", str(cfg), "--eta", "optimal",
                 "--grid-extent", "20", "--grid-pixels", "11",
                 "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rpca"]["converged"] is False
    assert summary["rpca"]["iterations"] == 2
    assert (out / "image_S.pgm").exists()


def test_cli_image_bad_velocity_is_config_error(tmp_path):
    cfg = _scaled_config(tmp_path)
    for velocity in ("a,b,c", "1,2"):
        assert main(["image", "--config", str(cfg), "--velocity", velocity,
                     "--out", str(tmp_path / "x")]) == 1


def test_cli_image_of_d_takes_optimal_eta_without_a_mover(tmp_path):
    # --eta optimal needs a mover only where the solve runs
    doc = json.loads(_scaled_config(tmp_path).read_text())
    doc["targets"] = [t for t in doc["targets"] if not any(t["velocity_mps"])]
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["image", "--config", str(cfg), "--source", "D", "--eta", "optimal",
                 "--grid-pixels", "5", "--out", str(out)]) == 0
    assert (out / "image_D.pgm").exists()


def test_cli_image_zero_background_writes_strict_json(tmp_path):
    # most of a +-400 m grid lies outside the gate, so the median of |I| is 0
    out = tmp_path / "run"
    assert main(["image", "--regime", "scaled", "--source", "D", "--grid-extent", "400",
                 "--grid-pixels", "21", "--out", str(out)]) == 0
    docs = {p.name: _strict_json(p) for p in out.glob("*.json")}
    assert sorted(docs) == ["image_D.json", "scenario.json"]
    image = docs["image_D.json"]
    assert image["dynamic_range"] is None
    assert image["peaks"] and all(p["peak_to_background"] is None for p in image["peaks"])


def test_cli_image_not_converged_writes_image_then_exits_3(tmp_path, monkeypatch):
    cfg = _scaled_config(tmp_path)
    out = tmp_path / "run"
    windowed = sarlrs.rpca.decompose_windowed
    capped = lambda D, w, config: windowed(D, w, sarlrs.rpca.RpcaConfig(eta=config.eta,
                                                                       max_iter=2))
    monkeypatch.setattr(sarlrs.rpca, "decompose_windowed", capped)
    assert main(["image", "--config", str(cfg), "--source", "S", "--eta", "optimal",
                 "--grid-extent", "20", "--grid-pixels", "11", "--out", str(out)]) == 3
    assert (out / "image_S.pgm").exists() and (out / "image_S.json").exists()


def test_cli_stages_are_prefixes_of_pipeline(tmp_path, monkeypatch):
    cfg = _scaled_config(tmp_path)
    mover = next(t for t in load_scenario(cfg).targets if not t.stationary)
    velocity = ",".join(map(str, mover.velocity.tolist()))
    solve = ["--eta", "optimal"]
    grid = ["--grid-extent", "20", "--grid-pixels", "11"]
    runs = {
        "simulate": ["simulate"],
        "baseband": ["baseband"],
        "decompose": ["decompose", *solve],
        "image-DB": ["image", "--source", "DB", *grid],
        "image-S": ["image", "--source", "S", "--velocity", velocity, *solve, *grid],
        "pipeline": ["pipeline", *solve, *grid],
    }
    calls = _count_syntheses(monkeypatch)
    outs = {run: tmp_path / run for run in runs}
    for run, argv in runs.items():
        calls.clear()
        assert main([*argv, "--config", str(cfg), "--out", str(outs[run])]) == 0, run
        # D is synthesized once per run; only `pipeline` scores, on the solve grid
        _assert_syntheses(calls, load_scenario(cfg), pipeline=run == "pipeline")
    # each stage writes its own files and those of every stage before it
    for name, writers in (("D.sarm", 6), ("scenario.json", 6), ("DB.sarm", 5),
                          ("image_DB.pgm", 2), ("image_DB.json", 2)):
        written = [(out / name).read_bytes() for out in outs.values() if (out / name).exists()]
        assert len(written) == writers, name
        assert all(data == written[0] for data in written), name
    for run in ("decompose", "image-S"):
        for name in ("L.sarm", "S.sarm"):
            a = read_matrix(outs[run] / name)[0]
            b = read_matrix(outs["pipeline"] / name)[0]
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b), (run, name)  # threaded BLAS
    a, b = (json.loads((outs[run] / "image_S.json").read_text())
            for run in ("image-S", "pipeline"))
    assert a.pop("dynamic_range") == pytest.approx(b.pop("dynamic_range"), rel=1e-12)
    peaks_a, peaks_b = a.pop("peaks"), b.pop("peaks")
    assert a == b
    assert [p["location"] for p in peaks_a] == [p["location"] for p in peaks_b]
    for key in ("magnitude", "peak_to_background"):
        assert [p[key] for p in peaks_a] == pytest.approx([p[key] for p in peaks_b], rel=1e-12)
    summary = json.loads((outs["pipeline"] / "summary.json").read_text())
    assert json.loads((outs["pipeline"] / "rpca_report.json").read_text()) == summary["rpca"]


def test_cli_usage_errors_exit_1(tmp_path):
    out = ["--out", str(tmp_path / "x")]
    assert main(["simulate", "--bogus"]) == 1
    assert main([]) == 1
    assert main(["simulate", "--regime", "nowhere", *out]) == 1
    assert main(["pipeline", "--regime", "bogus", *out]) == 1
    assert main(["decompose", "--regime", "scaled", "--windows", "x", *out]) == 1
    assert main(["pipeline", "--regime", "scaled", "--eta", "bogus", *out]) == 1
    assert not (tmp_path / "x").exists()  # rejected before any stage writes a file
    assert main(["simulate", "--help"]) == 0
    # --regime offers exactly the scenes the package ships
    shipped = sorted(p.stem for p in (Path(sarlrs.cli.__file__).parent / "data").glob("*.json"))
    assert {"gotcha", "scaled"} <= set(shipped)
    for action in build_parser()._subparsers._group_actions:
        for command, sub in action.choices.items():
            regime = next(a for a in sub._actions if a.dest == "regime")
            assert regime.choices == shipped, command


def test_cli_options_only_where_read(tmp_path):
    # --eta and --windows only reach the RPCA stage; elsewhere they are usage errors
    for command in ("simulate", "baseband", "eta", "analyze"):
        assert main([command, "--regime", "scaled", "--eta", "bogus", "--windows", "-3",
                     "--out", str(tmp_path / "x")]) == 1, command
    settable = sum(len(sub._actions) - 1  # every action but -h
                   for action in build_parser()._subparsers._group_actions
                   for sub in action.choices.values())
    assert settable == 33


def test_cli_analyze_reports(tmp_path, monkeypatch):
    cfg = _scaled_config(tmp_path)
    out = tmp_path / "run"
    spectra, widths, calls = [], [], _count_syntheses(monkeypatch)
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: spectra.append(1) or svd(*a, **k))
    values = sarlrs.analysis.singular_values
    monkeypatch.setattr(sarlrs.analysis, "singular_values",
                        lambda M: widths.append(M.shape[1]) or values(M))
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    synthesized = [c.name for c in calls]
    # one synthesis of the real D per scene: the stationary representative, one
    # per sweep speed, the mover and 10 stationary sets
    assert synthesized == ["synthesize_downramped"] * (1 + len(SWEEP_SPEEDS) + 1 + 10)
    assert len(synthesized) == 18
    # one spectrum of each scene's K-column solve grid, and one of its 2K-column
    # real form where D's ratio is reported: the representative and each speed
    assert len(spectra) == len(widths) == 2 + 2 * len(SWEEP_SPEEDS) + 1 + 10 == 25
    sc = load_scenario(cfg)
    K = passband_bins(fast_times(sc).size, sc.pulse, sc.sampling.delta_t).size
    assert max(widths) <= 2 * K
    with open(out / "velocity_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    nuclear = [float(r["nuclear"]) for r in rows]
    assert all(b >= a for a, b in zip(nuclear, nuclear[1:]))
    with open(out / "stationary_count_sweep.csv") as fh:
        stat_rows = list(csv.DictReader(fh))
    assert len(stat_rows) == 10
    summary = json.loads((out / "analysis_summary.json").read_text())
    assert 0.3 <= summary["beta"] <= 0.6
    # the sweep's N B dt range, from the analytic column support at each speed
    assert summary["n_b_dt"] == pytest.approx([1.315, 13.15], rel=1e-3)


def _python_m_sarlrs(*argv) -> subprocess.CompletedProcess:
    """`python -m sarlrs` with argv in a subprocess, with this checkout's src on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "sarlrs", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_m_sarlrs_runs_the_cli():
    done = _python_m_sarlrs("--help")
    assert done.returncode == 0, done.stderr
    assert "pipeline" in done.stdout


def test_python_m_sarlrs_runs_a_command(tmp_path):
    done = _python_m_sarlrs("eta", "--regime", "scaled", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "eta_report.json").read_text())
    assert json.loads(done.stdout) == report
    assert report["baseband"]["eta_min"] < report["baseband"]["eta_max"]


def test_readme_examples_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    python_blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(python_blocks) == 1
    exec(compile(python_blocks[0], "README.md", "exec"), {})
    commands = [line.split("#")[0] for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                for line in block.splitlines() if line.startswith("sarlrs ")]
    assert len(commands) == 7
    parser = build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])  # exits on an unknown argument
