"""sigmafp benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload sample-lp --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of that checkout and answers are
checked with ``tests/oracles.py``; without them the run exits with code 2.
``--trace 0`` runs a closed loop for ``--seconds`` and reports the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` runs a fixed
slice of the same workload twice, untraced then traced, and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is the JSON result.  A full record of the run (metadata,
input properties, every figure) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
# Reference time of `calibration_s` (Python 3.11, 2-vCPU shared VM).
CAL_REF_S = 0.0070


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def fresh_import():
    """Import the package from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "sigmafp" or n.startswith("sigmafp.")]:
        del sys.modules[name]
    sf = importlib.import_module("sigmafp")
    importlib.import_module("sigmafp.cli")
    return sf


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _calibration_work() -> Fraction:
    values = [Fraction(i + 1, (1 << 16) + i) for i in range(40)]
    acc = Fraction(0)
    for x in values:
        for y in values[:20]:
            acc += x * y - y / x
    return acc


def calibration_s() -> float:
    """Median of three timings of a fixed loop of Fraction arithmetic, the
    work that dominates the package's profiles.

    The machine is shared, and its speed drifts by up to +-20% over tens of
    seconds.  Timings are therefore also reported in reference-speed units:
    measured time scaled by CAL_REF_S over the calibration timed right
    before and after the work.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calibrated(run):
    """Call `run()`; return its result and the reference-speed scale."""
    before = calibration_s()
    result = run()
    return result, CAL_REF_S / ((before + calibration_s()) / 2)


def closed_loop(workload, seconds: float) -> list:
    """One client: the next call starts when the previous one returns.
    A calibration between units serves the units on both sides of it."""
    ops, unit = [], 0
    deadline = time.perf_counter() + seconds
    before = calibration_s()
    while unit == 0 or time.perf_counter() < deadline:
        unit_ops = workload.run_unit(unit)
        after = calibration_s()
        for op in unit_ops:
            op.scale = CAL_REF_S / ((before + after) / 2)
        ops.extend(unit_ops)
        before = after
        unit += 1
    return ops


def same_outputs(a, b) -> bool:
    """Traced and untraced calls must return the same answers."""
    ra, rb = a.result, b.result
    if hasattr(ra, "elapsed_ms"):
        ra, rb = dataclasses.replace(ra, elapsed_ms=0), dataclasses.replace(rb, elapsed_ms=0)
    return ra == rb


def timed_setups(workload):
    """SETUP_REPEATS fresh set-ups; the package from the last one is kept."""
    raw, ref = [], []
    for _ in range(SETUP_REPEATS):
        def setup():
            t0 = time.perf_counter()
            sf = fresh_import()
            workload.setup(sf)
            return sf, time.perf_counter() - t0

        (sf, seconds), scale = calibrated(setup)
        raw.append(seconds)
        ref.append(seconds * scale)
    return sf, raw, ref


def traced_slice(workload, sf):
    """Run the workload's trace units untraced and traced, back to back and
    in alternating order, so load changes on a shared machine hit both
    sides alike.  Returns both op lists, the tracer and the overhead."""
    plain, traced = [], []
    untraced_s = traced_s = 0.0
    tracer = tracing.Tracer()
    for i, unit in enumerate(workload.trace_units()):
        for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            if use_tracer:
                tracer.install(sf)
            t0 = time.perf_counter()
            try:
                unit_ops = workload.run_unit(unit)
            finally:
                elapsed = time.perf_counter() - t0
                tracer.uninstall()
            if use_tracer:
                traced += unit_ops
                traced_s += elapsed
            else:
                plain += unit_ops
                untraced_s += elapsed
    for a, b in zip(plain, traced):
        if not a.failed and not b.failed and not same_outputs(a, b):
            b.failed = True
    return plain, traced, tracer, traced_s / untraced_s


def layer_separation(workload: str, layers: dict) -> list[str]:
    """A workload that stops isolating its layer can no longer back a claim."""
    problems = []
    solves, optimal = layers["lp.solve.calls"], layers["lp.solve.optimal"]
    if workload == "sample-vsp" and solves != 0:
        problems.append(f"sample-vsp solved {solves} LPs; it must solve none")
    if workload == "sample-lp" and solves == 0:
        problems.append("sample-lp solved no LP")
    if (optimal > 0) != (workload == "cli-mix"):
        problems.append(f"{optimal} optimal-status LPs on {workload}; "
                        "they must appear on cli-mix only")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "sigmafp" / "__init__.py").is_file() or not (
        ROOT / "tests" / "oracles.py"
    ).is_file() or not spec_path.is_file():
        print("error: run from a sigmafp source checkout (src/sigmafp, tests/oracles.py "
              "and BENCHMARK.json are required)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": loadavg(),
    }
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.workload, args.seed, ROOT)
    sf, setup_raw, setup_ref = timed_setups(workload)
    oracles = importlib.import_module("tests.oracles")
    figures = {"setup_s": statistics.median(setup_ref), "setup_runs_s": setup_ref,
               "raw.setup_s": statistics.median(setup_raw)}
    problems = []
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        timed, traced, tracer, overhead = traced_slice(workload, sf)
        ops = timed + traced
        layers = tracing.layer_metrics(tracer, sf)
        layers["trace.overhead_ratio"] = overhead
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
        problems += layer_separation(args.workload, layers)
        reported, wanted = layers, spec["per_layer"]
    else:
        timed = ops = closed_loop(workload, args.seconds)
        figures["peak_rss_mb"] = peak_rss_mb()
        reported, wanted = figures, spec["end_to_end"]

    figures.update(workload.end_to_end(timed, lambda op: op.seconds * op.scale))
    raw = workload.end_to_end(timed, lambda op: op.seconds)
    figures.update({f"raw.{k}": v for k, v in raw.items() if "_ms" in k})
    inputs = workload.check(ops, oracles)
    failed = sum(op.failed for op in ops)
    for op in ops:
        if op.error:
            print(f"error in {op.kind}:\n{op.error}", file=sys.stderr)
    figures["ops_failed_ratio"] = failed / len(ops)
    meta["loadavg_end"] = loadavg()
    metrics = {}
    for m in wanted:
        if reported.get(m["name"]) is None:
            problems.append(f"metric {m['name']} was not measured")
        else:
            metrics[m["name"]] = {"value": reported[m["name"]], "unit": m["unit"]}

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for key in ("commit", "source_sha256", "python", "nproc", "loadavg_start", "loadavg_end"):
        print(f"# {key}: {meta[key]}")
    for key, value in figures.items():
        print(f"{key}: {value}")
    print(f"ops_failed: {failed} of {len(ops)}")
    print(f"inputs: {json.dumps(inputs, default=str)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    record = {"meta": meta, "figures": figures, "inputs": inputs, "metrics": metrics,
              "attempted": len(ops), "failed": failed, "problems": problems,
              "ops": [[op.kind, op.seconds, op.scale, op.failed] for op in ops]}
    if args.trace:
        record["layers"] = layers
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    result = {"correct": failed == 0 and not problems, "attempted": len(ops),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
