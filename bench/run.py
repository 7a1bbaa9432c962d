"""Benchmark of hiercubes: four seeded workloads, measured end to end and per layer.

    python3 bench/run.py --workload {sampling,oracle,analytics,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its `src/`.
Every workload is a closed loop with one caller in one fresh process.

--trace 0 measures with tracing off.  Seven fresh processes each import
hiercubes and build the workload's models; `setup_s` is their median.  One
more process runs whole rounds of ops until S seconds of op time have passed
and at least 200 ops ran, and reports `ops_per_s`, `op_p50_ms`, `op_p95_ms`
and `peak_rss_mb`.

Times are scaled to a fixed reference speed: a calibration kernel (see
worker.py) is timed before and after set-up and every 0.1 s of op time, and a
time t measured while the kernel took c seconds is reported as t * 1 ms / c.
A vCPU of a shared host changes speed by up to 2x within seconds; scaling
removes that drift and leaves changes of the program.  The unscaled figures
are in the run record.

--trace 1 runs a fixed number of rounds of the same seed twice, in two
processes: untraced, then with every public function of the package wrapped
(see tracer.py).  It reports the per-layer metrics, `error_rate` and
`trace.overhead_ratio`, and counts an op whose traced result differs from the
untraced one as failed.

Every op's output is checked (see workloads.py); a failed check or an
exception is a failed op.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  The run record (versions,
seed, op mix, sample counts, digest of all results) goes to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
DEADLINE_S = 170.0
# rounds of a --trace 1 run: about five seconds of untraced op time each
TRACE_ROUNDS = {"sampling": 5, "oracle": 8, "analytics": 30, "cli": 10}


class BenchError(RuntimeError):
    pass


def child(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion; its last output line is JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[94]


def end_to_end(name: str, seed: int, seconds: float, deadline: float):
    common = ["--workload", name, "--seed", str(seed)]
    setups = [child(common + ["--mode", "setup"], deadline)
              for _ in range(SETUP_REPEATS)]
    run = child(common + ["--mode", "run", "--seconds", repr(seconds)], deadline)
    lat = run["scaled_latencies"]
    tail = p95(lat)
    metrics = {
        "setup_s": statistics.median(s["scaled_setup_s"] for s in setups),
        "ops_per_s": len(lat) / run["scaled_s"],
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p95_ms": tail * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    raw = run["latencies"]
    record = {"percentile_samples": {"op_p50_ms": len(lat), "op_p95_ms": len(lat),
                                     "beyond_p95": sum(x > tail for x in lat)},
              "unscaled": {"setup_s": [s["setup_s"] for s in setups],
                           "ops_per_s": len(raw) / run["timed_s"],
                           "op_p50_ms": statistics.median(raw) * 1e3,
                           "op_p95_ms": p95(raw) * 1e3},
              "calibrations": run["calibrations"],
              "calibration_median_s": run["calibration_median_s"]}
    return run, metrics, record


def traced(name: str, seed: int, deadline: float):
    common = ["--workload", name, "--seed", str(seed), "--mode", "run",
              "--rounds", str(TRACE_ROUNDS[name])]
    plain = child(common, deadline)
    run = child(common + ["--trace"], deadline)
    mismatched = sum(a != b for a, b in zip(plain["records"], run["records"]))
    mismatched += abs(len(plain["records"]) - len(run["records"]))
    if mismatched:
        run["failed"] += mismatched
        run["failures"].append(f"{mismatched} traced results differ from the untraced run")
    metrics = {**run["layers"], **run["outputs"],
               "trace.overhead_ratio": run["scaled_s"] / plain["scaled_s"],
               "error_rate": run["failed"] / run["attempted"]}
    record = {"untraced_timed_s": plain["timed_s"], "absent": run["absent"],
              "hook_errors": run["hook_errors"], "spans_file": run["spans_file"],
              "untraced_digest": plain["digest"]}
    return run, metrics, record


def run_record(name: str, seed: int, trace: int, run: dict, extra: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=30)
        sha = proc.stdout.strip() or None
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"workload": name, "seed": seed, "trace": trace, "git_sha": sha,
            "versions": versions, "nproc": os.cpu_count(),
            "rounds": run["rounds"], "ops": run["attempted"], "op_mix": run["kinds"],
            "failed": run["failed"], "failures": run["failures"],
            "results_digest": run["digest"], **extra}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TRACE_ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "hiercubes" / "__init__.py").is_file():
        print(f"no hiercubes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BENCHMARK.json declares which metrics a run reports, and their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.trace:
            run, measured, extra = traced(args.workload, args.seed, deadline)
        else:
            run, measured, extra = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing or not all(math.isfinite(v) for v in measured.values()):
        print(f"benchmark failed: metrics missing or not finite: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}
    record = run_record(args.workload, args.seed, args.trace, run, extra)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    error_rate = run["failed"] / run["attempted"]
    shown = " ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in metrics.items())
    print(f"{args.workload} seed={args.seed} ops={run['attempted']} "
          f"error_rate={error_rate:.6g} ratio {shown}")
    for message in run["failures"]:
        print(f"failed: {message}")
    print(f"run record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
