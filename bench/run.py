"""Time-to-verdict benchmark of the optheory command line.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  With ``--trace 0`` it first times
set-up in fresh interpreters (``setup_s``), then runs the workload's
verdicts round after round for ``--seconds`` seconds in one more fresh
interpreter and reports the end-to-end metrics named in ``BENCHMARK.json``.
With ``--trace 1`` it reports the per-layer metrics instead.  Every verdict's
output is checked; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A human-readable table,
the environment and the full record (also written under ``.bench_run/``)
come before it.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import KernelProcess, host_factor

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_run"
SETUP_PROBES = 9  # timed fresh interpreters per run; set-up reports their median
KERNEL_REPS = 3  # reference kernel runs before and after each set-up probe
TIME_LIMIT_S = 170.0  # every process this run starts is killed by then


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Start ``worker.py``; return the seconds until it printed ``ready``, and its output."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return ready_s, out


def measure_setup(probes: int, deadline: float) -> dict:
    """Median over fresh interpreters of the time to ``ready``, each divided by
    the host factor of the reference kernels run just before and after it."""
    run_worker(["--setup-only"], deadline)  # untimed: fills the bytecode and file caches
    with KernelProcess() as kernels:
        around = [kernels.run(KERNEL_REPS)]
        times = []
        for _ in range(probes):
            times.append(run_worker(["--setup-only"], deadline)[0])
            around.append(kernels.run(KERNEL_REPS))
    factors = [host_factor(before + after)[0] for before, after in zip(around, around[1:])]
    scaled = [t / f for t, f in zip(times, factors)]
    return {
        "value": statistics.median(scaled),
        "raw": statistics.median(times),
        "samples": len(times),
        "all_raw": times,
        "host_factors": factors,
    }


def select(spec: list[dict], measured: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {**measured[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="two trials, dims <= 3 (for tests)")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S
    # Every process of the run inherits this one CPU, so that the reference
    # kernels time the CPU the verdicts run on: on a shared host the CPUs of
    # one machine can run at different speeds at the same moment.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (ROOT / "src" / "optheory" / "cli.py").is_file():
            raise BenchError(f"no optheory sources under {ROOT / 'src'}")
        OUT_DIR.mkdir(exist_ok=True)
        setup = None if args.trace else measure_setup(1 if args.tiny else SETUP_PROBES, deadline)
        worker_args = [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        _, out = run_worker(worker_args, deadline)
        result = json.loads(out.strip().splitlines()[-1])
        measured = result["metrics"]
        if setup is not None:
            measured["setup_s"] = setup
        metrics = select(spec["per_layer" if args.trace else "end_to_end"], measured)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:  # BenchError is a RuntimeError
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    record = {**result, "metrics": metrics, "all_measured": measured}
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(
        f"workload {args.workload}  seed {args.seed}  rounds {result['rounds']}"
        f"  host factor {result['host_factor']:.4f}"
    )
    for name, m in metrics.items():
        raw = f"  (measured {m['raw']:.6g})" if "raw" in m else ""
        print(f"  {name:<58} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}{raw}")
    if args.trace:
        print("  no wait metric: one process runs every layer, no layer queues for another")
        print(f"  spans: {result['spans']['count']} in {result['spans']['path']}")
    print(f"verdicts: {result['attempted'] - result['failed']} correct of {result['attempted']}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    print(f"environment: {json.dumps(result['environment'], sort_keys=True)}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
