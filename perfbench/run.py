"""swmoment benchmark: one workload, repeated fresh-interpreter solves, medians.

    python3 perfbench/run.py --workload slip_semi --seed 1 --seconds 40 --trace 0

Every solve runs in its own interpreter (cold set-up, as for a `simulate`
user), one after another, from this one process. Each run first makes one
untimed solve of the default seed and checks it against the committed
reference. Then --trace 0 repeats timed solves and reports the end-to-end
metrics; --trace 1 alternates untraced and traced solves and reports the
per-layer metrics. Every solve passes the correctness gates in gates.py or
counts as failed.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SCRATCH = HERE / ".scratch"

WALL_LIMIT_S = 170.0  # the whole run, solves included, ends within this
# slack for the perf_counter calls and frame set-up of the root span wrapper,
# which sit outside the bracket solve() takes inside it
LEDGER_SLACK_S = 1e-3

RATIOS = (  # (ratio, numerator, denominator)
    ("hswme.source_batch.rows_per_newton_iter", "hswme.source_batch.rows", "scheme.newton_iters"),
    ("state.to_primitive.rows_per_cell_step", "state.to_primitive.rows", "sim.cell_steps"),
    ("scheme.newton_iters_per_wet_cell_step", "scheme.newton_iters", "scheme.wet_cell_steps"),
    ("scheme.wet_fraction", "scheme.wet_cell_steps", "sim.cell_steps"),
    ("trace.overhead", "trace.wall_s", "trace.untraced_wall_s"),
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_worker(spec: dict, deadline: float) -> dict:
    """One fresh-interpreter worker; a crash or timeout is a failed record."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"ok": False, "failures": ["worker timed out"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"ok": False, "failures": [f"worker exited with code {proc.returncode}"]}
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def collect(args, out_dir: str) -> list:
    """The reference solve, then rounds of workers while another round fits in
    --seconds (at least one)."""
    start = time.monotonic()
    deadline = start + WALL_LIMIT_S
    base = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
            "out_dir": out_dir}
    round_modes = ("solve", "trace") if args.trace else ("solve",)
    records = [dict(run_worker(dict(base, mode="reference"), deadline), mode="reference")]
    reference_s = time.monotonic() - start
    rounds = 0
    while True:
        # alternate which mode runs first, so that a drift in host speed
        # during the run does not favour one of them
        for mode in round_modes[::-1] if rounds % 2 else round_modes:
            records.append(dict(run_worker(dict(base, mode=mode), deadline), mode=mode))
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed + (elapsed - reference_s) / rounds > min(args.seconds, WALL_LIMIT_S - 30.0):
            return records


def median_of(records: list, key: str) -> float:
    return statistics.median(r[key] for r in records)


def end_to_end(records: list) -> dict:
    solves = [r for r in records if r["mode"] == "solve" and r["ok"]]
    return {
        "time_to_solution_s": median_of(solves, "time_to_solution_s"),
        "setup_s": median_of(solves, "setup_s"),
        "cell_steps_per_s": statistics.median(
            r["J"] * r["steps"] / r["solve_s"] for r in solves),
        "peak_rss_mb": median_of(solves, "peak_rss_mb"),
    }


def trace_gates(records: list) -> None:
    """Fail traced solves whose span self times miss the traced wall time (the
    perf_counter bracket solve() takes around run + write_outputs, apart from
    the ledger) or whose final state differs from the untraced one."""
    plain = {r["digest"] for r in records if r["mode"] == "solve" and r["ok"]}
    for r in records:
        if r["mode"] != "trace" or not r["ok"]:
            continue
        gap = r["self_sum_s"] - r["time_to_solution_s"]
        if not 0.0 <= gap <= LEDGER_SLACK_S:
            r["failures"].append(f"span self times miss the traced wall time by {gap:.3g} s")
        if len(plain) != 1 or r["digest"] not in plain:
            r["failures"].append("traced and untraced final states differ")
        r["ok"] = not r["failures"]


def per_layer(records: list) -> dict:
    """Median per-layer values over traced solves, plus the ratios."""
    traced = [r for r in records if r["mode"] == "trace" and r["ok"]]
    plain = [r for r in records if r["mode"] == "solve" and r["ok"]]
    metrics = {k: statistics.median(r["layers"][k] for r in traced)
               for k in traced[0]["layers"]}
    metrics["trace.wall_s"] = median_of(traced, "time_to_solution_s")
    metrics["trace.untraced_wall_s"] = median_of(plain, "time_to_solution_s")
    for name, num, den in RATIOS:
        metrics[name] = metrics[num] / metrics[den] if metrics[den] else 0.0
    return metrics


def environment() -> dict:
    """Interpreter, numpy, BLAS and its thread count, nproc, git SHA."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                             ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
    }


def blas_threads():
    """OpenBLAS thread count of this process (numpy default), if readable."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def report(args, spec: dict, records: list, env: dict) -> dict:
    if args.trace:
        trace_gates(records)
    failed = [r for r in records if not r["ok"]]
    for r in failed:
        print(f"FAILED {r['mode']}: {'; '.join(r['failures'])}")
    needed = ("solve", "trace") if args.trace else ("solve",)
    metrics = {}
    if all(any(r["mode"] == m and r["ok"] for r in records) for m in needed):
        values = per_layer(records) if args.trace else end_to_end(records)
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        print_metrics(args, records, values, wanted)
    print(f"fail_ratio = {len(failed)}/{len(records)} runs"
          f" (the default-seed reference solve included)")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    return {"correct": not failed and bool(metrics), "attempted": len(records),
            "failed": len(failed), "metrics": metrics}


def print_metrics(args, records: list, values: dict, wanted: list) -> None:
    n = {mode: sum(1 for r in records if r["mode"] == mode and r["ok"])
         for mode in ("solve", "trace")}
    print(f"workload {args.workload} seed {args.seed}: {n['solve']} timed solves, "
          f"{n['trace']} traced solves (medians; too few samples for a tail percentile)")
    ratios = {name: (num, den) for name, num, den in RATIOS}
    for m in wanted:
        line = f"  {m['name']} = {values[m['name']]:.10g} {m['unit']}"
        if m["name"] in ratios:
            num, den = ratios[m["name"]]
            line += f"  (= {num} {values[num]:.10g} / {den} {values[den]:.10g})"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to J=40 and a few steps (smoke test)")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "swmoment" / "__init__.py").is_file():
        print(f"error: swmoment sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = environment()
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as out_dir:
        records = collect(args, out_dir)
    result = report(args, spec, records, env)
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    with open(RESULTS / f"{tag}.json", "w") as f:
        json.dump({"environment": env, "records": records, **result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
