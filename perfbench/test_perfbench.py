"""Tests of the benchmark itself, at tiny sizes (J=40, a few steps).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import argparse
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import swmoment.scheme
import swmoment.sim as sim
from swmoment.friction import MuI

import gates
import run
import tracer
import worker
from workloads import WORKLOADS, make_config

SPEC = run.load_spec()


def _bench(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--tiny"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_name_is_emitted(capsys, workload, trace):
    result = _bench(capsys, workload, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    # the default-seed reference solve plus at least one round
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2 + trace
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_seed_sets_the_inputs():
    assert make_config("slip_semi", 3) == make_config("slip_semi", 3)
    assert make_config("slip_semi", 3).ic != make_config("slip_semi", 4).ic


@pytest.fixture(scope="module")
def tiny_result():
    cfg = make_config("muI_N2_explicit", 1, tiny=True)
    grid = sim.build_grid(cfg)
    return cfg, grid, sim.run(cfg)


def _corrupt(result, **fields):
    snaps = list(result.snapshots)
    snaps[-1] = replace(snaps[-1], **fields)
    return replace(result, snapshots=snaps)


def test_clean_result_passes_the_gates(tiny_result):
    cfg, grid, result = tiny_result
    failures, interior = gates.check(result, gates.initial_mass(grid), cfg.h_min, grid.dx)
    assert failures == [] and interior


def test_corrupted_results_trip_the_gates(tiny_result):
    cfg, grid, result = tiny_result
    snap = result.snapshots[-1]
    wet = int(np.argmax(snap.h))
    dry = int(np.argmin(snap.h))
    assert snap.h[dry] <= cfg.h_min
    nan_h = snap.h.copy()
    nan_h[wet] = np.nan
    neg_h = snap.h.copy()
    neg_h[dry] = -1e-3
    moving_dry = snap.u_m.copy()
    moving_dry[dry] = 1e-9
    heavier = snap.h.copy()
    heavier[wet] *= 1.0 + 1e-9
    mass0 = gates.initial_mass(grid)
    for bad in ({"h": nan_h}, {"h": neg_h}, {"u_m": moving_dry}, {"h": heavier}):
        failures, _ = gates.check(_corrupt(result, **bad), mass0, cfg.h_min, grid.dx)
        assert failures, bad


def test_reference_distance_flags_a_changed_state(tiny_result):
    _, _, result = tiny_result
    reference = gates.final_fields(result)
    assert gates.reference_distance(result, reference) == 0.0
    snap = result.snapshots[-1]
    shifted = _corrupt(result, alpha=snap.alpha * (1.0 + 10 * gates.REFERENCE_RTOL))
    assert gates.reference_distance(shifted, reference) > gates.REFERENCE_RTOL


def test_every_run_checks_the_default_seed_reference(tmp_path, monkeypatch):
    spec = {"workload": "muI_N2_explicit", "seed": 7, "mode": "reference", "tiny": True,
            "out_dir": str(tmp_path)}
    record = worker.measure(spec)
    assert record["ok"], record["failures"]
    assert record["digest"] == gates.state_digest(
        sim.run(make_config("muI_N2_explicit", 0, tiny=True)))
    # a reference that the default-seed solve misses fails the record
    wrong = tmp_path / "wrong"
    monkeypatch.setattr(gates, "REFERENCE_DIR", wrong)
    gates.save_reference("muI_N2_explicit", sim.run(make_config("muI_N2_explicit", 7, tiny=True)),
                         tiny=True)
    record = worker.measure(spec)
    assert not record["ok"]
    assert "differs from reference" in record["failures"][0]


def test_failed_run_is_counted(capsys):
    args = argparse.Namespace(workload="slip_semi", seed=0, trace=0)
    good = {"mode": "solve", "ok": True, "time_to_solution_s": 1.0, "setup_s": 0.1,
            "solve_s": 0.8, "J": 40, "steps": 10, "peak_rss_mb": 40.0}
    bad = {"mode": "solve", "ok": False, "failures": ["mass drift 1e-3 exceeds 1e-12"]}
    result = run.report(args, SPEC, [good, bad], {})
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "FAILED solve: mass drift" in capsys.readouterr().out


def _traced_names():
    return [(m, a, getattr(m, a)) for m, a, *_ in tracer.MODULE_SPANS]


@pytest.mark.parametrize("workload", ["slip_semi", "muI_N6_runoff"])
def test_traced_and_untraced_runs_agree_bit_for_bit(tmp_path, workload):
    cfg = make_config(workload, 2, tiny=True)
    plain, _ = worker.solve(cfg, str(tmp_path / "plain"))
    ledger = tracer.Ledger()
    traced, timings = worker.solve(cfg, str(tmp_path / "traced"), ledger)
    assert gates.state_digest(plain) == gates.state_digest(traced)
    for key, arr in gates.final_fields(plain).items():
        assert np.array_equal(arr, gates.final_fields(traced)[key])
    gap = sum(ledger.self_time[n] for n in tracer.SPANS) - timings["time_to_solution_s"]
    assert 0.0 <= gap <= run.LEDGER_SLACK_S
    assert ledger.counts["sim.steps"] == len(traced.diagnostics["time"])
    assert ledger.calls["friction.stresses"] > 0


def test_ledger_gate_fails_a_trace_that_misses_wall_time():
    plain = {"mode": "solve", "ok": True, "digest": "d", "time_to_solution_s": 1.0}
    traced = [dict(plain, mode="trace", failures=[], self_sum_s=s) for s in (1.0001, 0.9, 1.1)]
    run.trace_gates([plain] + traced)
    assert [r["ok"] for r in traced] == [True, False, False]


def test_wrappers_are_removed_afterwards(tmp_path):
    before = _traced_names()
    cfg = make_config("slip_semi", 1, tiny=True)
    model_cls = type(sim.build_model(cfg))
    assert "stresses" not in model_cls.__dict__
    worker.solve(cfg, str(tmp_path), tracer.Ledger())
    assert _traced_names() == before
    assert "stresses" not in model_cls.__dict__
    wavespeeds = swmoment.scheme.wavespeeds_batch
    with pytest.raises(RuntimeError):
        with tracer.installed(tracer.Ledger(), model_cls):
            assert swmoment.scheme.wavespeeds_batch is not wavespeeds
            raise RuntimeError("solve failed")
    assert _traced_names() == before
    assert "stresses" not in model_cls.__dict__
    own = MuI.__dict__["stresses"]
    worker.solve(make_config("muI_N2_explicit", 1, tiny=True), str(tmp_path), tracer.Ledger())
    assert MuI.__dict__["stresses"] is own


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("results", ".scratch", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "slip_semi", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
