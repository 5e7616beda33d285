#!/usr/bin/env python3
"""The widir benchmark: one workload per call, one JSON result on the last line.

    python3 benchmarks/run.py --workload retrain --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 15

Run from the repository root. The program is imported from ./src, and
`widir serve` runs as `python3 -m widir.cli` with ./src on PYTHONPATH, so
no install is needed. Scratch files go to ./.bench_work and are removed,
except the traced run's spans (./.bench_work/traces/).

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from a run that records a span around every public call (see
NOTES.md). The exit code is 0 only when every output checked was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("retrain", "daily_refresh", "serve")


def _units(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def _run_one(args) -> int:
    import harness

    harness.pin_blas_threads()
    # a terminated run still stops its server subprocess and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import importlib

    from workload import Context

    module = importlib.import_module({"daily_refresh": "refresh"}.get(args.workload, args.workload))
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    ctx = Context(seed=args.seed, seconds=float(args.seconds), trace=bool(args.trace), workdir=workdir)
    os.makedirs(workdir, exist_ok=True)
    t0 = time.perf_counter()
    try:
        out = module.run(ctx)
        if ctx.trace:
            import kernels

            kernels.run(ctx, out)
            ctx.tracer.write(os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.e2e.setdefault("peak_rss_mb", harness.peak_rss_mb())

    env = harness.environment(ROOT)
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} shape {json.dumps(out.shape, sort_keys=True, default=str)}")
    e2e_units = _units("end_to_end")
    named = dict(out.named)
    if not ctx.trace:
        named.update({name: (value, e2e_units[name]) for name, value in out.e2e.items()})
    for name, (value, unit) in named.items():
        print(f"{args.workload:14s} {name:24s} {value:14.6g} {unit}")
    for problem in out.problems:
        print(f"# FAILED CHECK: {problem}")
    print(f"# wall {time.perf_counter() - t0:.1f} s")

    kind = "per_layer" if ctx.trace else "end_to_end"
    values = out.layer if ctx.trace else out.e2e
    units = _units(kind)
    missing = sorted(set(units) - set(values))
    if ctx.trace:
        for name in missing:  # layer not exercised by this workload
            values[name] = 0
    elif missing:
        out.problems.append(f"end-to-end metrics not measured: {missing}")
    correct = not out.problems and out.failed == 0
    result = {
        "correct": correct,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units if name in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _run_all(args) -> int:
    """Every workload in its own process (peak memory is per process)."""
    code = 0
    summary = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        code = code or proc.returncode
        summary[workload] = json.loads(lines[-1]) if lines else {"correct": False}
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "widir", "__init__.py")):
        print(f"benchmark: no widir sources at {os.path.join(ROOT, 'src', 'widir')}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
