"""One benchmark solve in a fresh interpreter; prints a JSON line as its result.

Usage: python perfbench/worker.py '{"workload": ..., "seed": ..., "mode": ...,
"tiny": false, "out_dir": ...}' with swmoment importable (PYTHONPATH=src).

Modes:
  solve      time one untraced solve from SimConfig to the last output file
  trace      the same solve with every tracer span installed
  reference  one untraced solve of the default seed, checked against the
             committed reference final state (whatever the run's --seed)
"""

import json
import resource
import shutil
import sys
import tempfile
import traceback
from time import perf_counter

import swmoment.sim as sim

import gates
import tracer
from workloads import DEFAULT_SEED, make_config


def solve(cfg, out_dir: str, ledger: tracer.Ledger | None = None):
    """Run and write outputs; returns (result, timings). Traced if ledger is set."""
    stamps = []

    def body():
        start = perf_counter()
        with tracer.first_call_probe(sim, "cfl_dt", stamps):
            result = sim.run(cfg)
        ran = perf_counter()
        sim.write_outputs(result, out_dir)
        return result, start, ran, perf_counter()

    if ledger is None:
        result, start, ran, done = body()
    else:
        model_cls = type(sim.build_model(cfg))
        with tracer.installed(ledger, model_cls):
            result, start, ran, done = ledger.span(tracer.ROOT_SPAN, body)
    first_cfl = stamps[0] if stamps else ran
    timings = {
        "time_to_solution_s": done - start,
        "setup_s": first_cfl - start,
        "solve_s": ran - first_cfl,
    }
    return result, timings


def layer_metrics(ledger: tracer.Ledger) -> dict:
    """Flatten a ledger into named per-layer values (counts before ratios)."""
    out = {}
    for name in tracer.SPANS:
        out[f"{name}.s"] = ledger.total[name]
        out[f"{name}.self_s"] = ledger.self_time[name]
        out[f"{name}.calls"] = ledger.calls[name]
    for name in tracer.ROW_SPANS:
        out[f"{name}.rows"] = ledger.rows[name]
    for name in tracer.COUNTS:
        out[name] = ledger.counts[name]
    return out


def measure(spec: dict) -> dict:
    """Run one worker job and return its result record."""
    tiny = spec.get("tiny", False)
    seed = DEFAULT_SEED if spec["mode"] == "reference" else spec["seed"]
    cfg = make_config(spec["workload"], seed, tiny)
    ledger = tracer.Ledger() if spec["mode"] == "trace" else None
    out_dir = tempfile.mkdtemp(dir=spec["out_dir"])
    try:
        result, record = solve(cfg, out_dir, ledger)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    # built after the solve so that the timed set-up stays cold
    grid0 = sim.build_grid(cfg)
    failures, mass_gated = gates.check(result, gates.initial_mass(grid0), cfg.h_min, grid0.dx)
    if spec["mode"] == "reference":
        failures += gates.check_reference(result, spec["workload"], tiny)
    record.update(
        ok=not failures,
        failures=failures,
        mass_gated=mass_gated,
        steps=len(result.diagnostics["time"]),
        J=cfg.J,
        digest=gates.state_digest(result),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if ledger is not None:
        record["layers"] = layer_metrics(ledger)
        # summed here, checked in run.py against the perf_counter bracket that
        # solve() takes inside the root span, independently of the ledger
        record["self_sum_s"] = sum(ledger.self_time[name] for name in tracer.SPANS)
    return record


def main(argv: list) -> int:
    spec = json.loads(argv[0])
    try:
        record = measure(spec)
    except Exception as exc:  # a solve that raises is a failed run, not a crash
        traceback.print_exc()
        record = {"ok": False, "failures": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
