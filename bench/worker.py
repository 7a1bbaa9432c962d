"""One process of the hiercubes benchmark: set-up, or set-up plus a run.

    python3 bench/worker.py --workload NAME --seed N --mode setup
    python3 bench/worker.py --workload NAME --seed N --mode run --seconds S
    python3 bench/worker.py --workload NAME --seed N --mode run --rounds R [--trace]

`bench/run.py` starts these processes; the last line of standard output is a
JSON object with the measurements.  The program is imported from `src/` of
the checkout that holds this file, never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MAX_FAILURE_MESSAGES = 10
# Times are scaled to a reference speed at which the calibration kernel takes
# REFERENCE_S.  On a shared host the speed of a vCPU drifts by up to 2x over
# seconds; the kernel, timed next to the ops, tracks that drift.
REFERENCE_S = 1e-3
CALIBRATE_EVERY_S = 0.1


@dataclass(frozen=True)
class _Cell:
    scale: int
    index: tuple


def _kernel(n: int = 250) -> float:
    """Interpreter work of the program's kind: frozen dataclasses, tuple index
    arithmetic, frozensets, dicts, float math and one hash per item."""
    cells = [_Cell(i % 5, (i, i >> 1)) for i in range(n)]
    acc = 0.0
    seen = set()
    for i, c in enumerate(cells):
        other = cells[(i * 7) % n]
        shift = 2 ** abs(c.scale - other.scale)
        if _Cell(c.scale, tuple(m // shift for m in other.index)) == c:
            acc += 1.0
        seen.add(frozenset((c, other)) | frozenset((cells[i // 2],)))
        acc += math.log1p(i * 0.1)
        acc += hashlib.blake2b(repr(c.index).encode(), digest_size=8).digest()[0]
    return acc + len(seen) + sum({c: i for i, c in enumerate(cells)}.values())


def calibrate() -> float:
    """Seconds the kernel takes at the host's current speed (best of two)."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def set_up(name: str, seed: int, tmp: Path):
    """Import the package and build the workload.

    Returns the workload, the set-up seconds and the same scaled to the
    reference speed.
    """
    src = (ROOT / "src").resolve()
    before = calibrate()
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import hiercubes.cli        # imports every module of the package
    t1 = time.perf_counter()
    if not Path(hiercubes.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"hiercubes imported from {hiercubes.cli.__file__}, not {src}")
    import workloads
    t2 = time.perf_counter()
    wl = workloads.WORKLOADS[name](seed, tmp)
    seconds = (t1 - t0) + (time.perf_counter() - t2)
    return wl, seconds, seconds * REFERENCE_S / math.sqrt(before * calibrate())


def run_rounds(wl, seconds: float | None, rounds: int | None, tracer=None) -> dict:
    """Whole rounds until `rounds` are done, or until `seconds` of op time
    have passed and at least `wl.min_ops` ops ran.

    Each op's latency is also scaled to the reference speed, by the geometric
    mean of the calibrations taken before and after it.
    """
    perf = time.perf_counter
    latencies, scaled, records, kinds, failures = [], [], [], Counter(), []
    digest = hashlib.sha256()
    failed = 0
    r = 0
    timed = 0.0
    cal = calibrate()
    calibrations = [cal]
    pending = []            # ops not yet scaled
    since = 0.0             # their op time

    def rescale():
        nonlocal cal
        new = calibrate()
        calibrations.append(new)
        factor = REFERENCE_S / math.sqrt(cal * new)
        scaled.extend(latencies[i] * factor for i in pending)
        pending.clear()
        cal = new

    while (r < rounds) if rounds is not None else (timed < seconds or len(latencies) < wl.min_ops):
        for op in wl.round(r):
            if tracer is not None:
                tracer.enabled = True
            t0 = perf()
            try:
                result, error = op.run(), None
            except Exception:
                result, error = None, traceback.format_exc(limit=-3)
            dt = perf() - t0
            if tracer is not None:
                tracer.enabled = False
            timed += dt
            since += dt
            pending.append(len(latencies))
            latencies.append(dt)
            if since >= CALIBRATE_EVERY_S:
                rescale()
                since = 0.0
            kinds[op.kind] += 1
            if error is None:
                try:
                    error = op.check(result)
                except Exception:
                    error = "check raised " + traceback.format_exc(limit=-3)
            text = f"error: {op.kind}" if error else op.record(result)
            digest.update(text.encode() + b"\n")
            records.append(hashlib.sha1(text.encode()).hexdigest()[:12])
            if error:
                failed += 1
                if len(failures) < MAX_FAILURE_MESSAGES:
                    failures.append(f"round {r} {op.kind}: {error}")
        r += 1
    if pending:
        rescale()
    for count, message in wl.finish():
        failed += count
        failures.append(message)
    return {"rounds": r, "attempted": len(latencies), "failed": failed,
            "failures": failures, "latencies": latencies, "timed_s": timed,
            "scaled_latencies": scaled, "scaled_s": sum(scaled),
            "calibrations": len(calibrations),
            "calibration_median_s": sorted(calibrations)[len(calibrations) // 2],
            "kinds": dict(sorted(kinds.items())), "records": records,
            "digest": digest.hexdigest(), "outputs": wl.outputs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        wl, setup_s, scaled_setup_s = set_up(args.workload, args.seed, tmp)
        out = {"setup_s": setup_s, "scaled_setup_s": scaled_setup_s}
        if args.mode == "run":
            tracer = None
            if args.trace:
                from tracer import Tracer
                tracer = Tracer()
                tracer.install()
            out.update(run_rounds(wl, args.seconds, args.rounds, tracer))
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None:
                tracer.uninstall()
                out["layers"] = tracer.layer_metrics()
                out["absent"] = tracer.absent
                out["hook_errors"] = tracer.counts.get("trace.hook_errors", 0)
                OUT.mkdir(exist_ok=True)
                spans = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
                tracer.write_spans(spans)
                out["spans_file"] = str(spans.relative_to(ROOT))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
