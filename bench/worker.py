"""One benchmark process: import the optheory CLI, warm up, run verdict rounds.

``run.py`` starts this file in a fresh interpreter.  It prints ``ready``
once ``optheory.cli`` is imported and one untimed warm-up verdict is done;
the time to that line is the set-up time.  With ``--setup-only`` it stops
there.  Otherwise it runs rounds of the workload's verdicts until
``--seconds`` have passed and prints one JSON line: round timings reduced
to end-to-end figures, verdict check results and, with ``--trace 1``,
per-layer figures from the traced rounds.

Every round runs the same verdicts with the same seed, each after one run
of the reference kernels (``reference.py``) in a sibling process; one more
run follows the last verdict.  With
``--trace 1`` the first round is untraced and fills the caches; the rest
alternate traced and untraced, so the difference of their medians is the
tracing overhead.
"""

from __future__ import annotations

# Pin BLAS and OpenMP to one thread before numpy is first imported (by optheory).
from pinning import THREAD_VARS  # noqa: I001

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import check_verdict  # noqa: E402
from reference import KernelProcess, host_factor, kinds_for  # noqa: E402
from tracer import Tracer, layer_of  # noqa: E402
from workloads import FOCUS, TIMED_SUITES, round_verdicts  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_run"  # the checkout's scratch directory, ignored by git
# Trials >= 2: quantum-nosig with one trial exits 1 (see README, known traps).
WARMUP = ["--suite", "all", "--trials", "2"]


# ---------------------------------------------------------------------------
# Counts computed from argument shapes, recorded by tracer hooks
# ---------------------------------------------------------------------------

def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _rank_of_rows(tracer, args, kwargs, result, parent):
    rows = _arg(args, kwargs, 0, "rows")
    shape = getattr(rows, "shape", None) or (len(rows), len(rows[0]))
    m, n = (1, shape[0]) if len(shape) == 1 else shape[:2]
    big, small = max(m, n), min(m, n)
    tracer.count("linalg.rank_of_rows.rows", m)
    # Singular values only: bidiagonalization, 4 m n^2 - 4 n^3 / 3 for m >= n.
    tracer.count("linalg.rank_of_rows.flops_computed", 4 * big * small**2 - 4 * small**3 / 3)
    if parent.startswith("tomography."):
        tracer.count("tomography.rank_rows", m)


def _observability_audit(tracer, args, kwargs, result, parent):
    tracer.count("tomography.ambient_dims", result.details["ambient_effect_dim"])


def _transformation_distance(tracer, args, kwargs, result, parent):
    t1, t2 = _arg(args, kwargs, 1, "t1").payload, _arg(args, kwargs, 2, "t2").payload
    # One d^2 x d^2 complex kron per Kraus operator of either operation.
    tracer.count(
        "quantum.superop_bytes_computed", (len(t1.kraus) + len(t2.kraus)) * t1.dim_in**4 * 16
    )


HOOKS = {
    "linalg.rank_of_rows": _rank_of_rows,
    "tomography.local_observability_audit": _observability_audit,
    "quantum.QuantumModel.transformation_distance": _transformation_distance,
}


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def run_rounds(cli, verdicts, seed, seconds, tracer, kernels_proc, json_path, sink) -> dict:
    argvs = [v.argv(seed, json_path) for v in verdicts]
    rounds, problems = [], []
    attempted = failed = 0
    max_defect = 0.0
    deadline = time.perf_counter() + seconds
    # Traced runs compare traced with untraced rounds; their first round fills
    # the caches and is left out of that comparison, so it is never traced.
    min_rounds = 3 if tracer else 1
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        traced = tracer is not None and len(rounds) % 2 == 0 and len(rounds) > 0
        if traced:
            tracer.install()
        times, kernels = [], []
        for i, (v, argv) in enumerate(zip(verdicts, argvs)):
            if tracer:
                tracer.verdict = len(rounds) * len(verdicts) + i
            with contextlib.suppress(FileNotFoundError):
                os.remove(json_path)
            kernels.append(kernels_proc.run()[0])
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    code = cli.main(argv)
            except Exception:  # a crashing verdict is a failed operation, not a crashed run
                code = None
                traceback.print_exc()
            times.append(time.perf_counter() - start)
            found, defect = check_verdict(v, code, json_path)
            attempted += 1
            if found:
                failed += 1
                problems += [f"{v.label()}: {p}" for p in found]
            elif v.expect_exit == 0:
                max_defect = max(max_defect, defect)
        if traced:
            tracer.uninstall()
        rounds.append(
            {
                "traced": traced,
                "times": times,
                "kernels": kernels,
                "trace": tracer.take_round() if traced else None,
            }
        )
    samples = [k for r in rounds for k in r["kernels"]] + kernels_proc.run()
    kinds = [kinds_for(v.d1 * v.d2) for v in verdicts]
    for n, r in enumerate(rounds):
        # Each verdict's host factor comes from the kernel runs just before
        # and just after it: the host drifts within seconds.
        first = n * len(verdicts)
        r["factors"] = [
            host_factor(samples[first + i : first + i + 2], kinds[i])[0] for i in range(len(verdicts))
        ]
    factor, kernel_medians = host_factor(samples)
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "max_defect": max_defect,
        "host_factor": factor,
        "kernel_medians_s": kernel_medians,
    }


def end_to_end(rounds, verdicts) -> dict:
    """Medians over untraced rounds, of the whole round and of the mean verdict
    time per suite, each verdict's time divided by its host factor (see
    reference.py).  The medians of the measured times are kept as ``raw``."""
    plain = [r for r in rounds if not r["traced"]]
    scaled_times = [[t / f for t, f in zip(r["times"], r["factors"])] for r in plain]

    def summary(of_round) -> dict:
        return {
            "value": statistics.median(of_round(times) for times in scaled_times),
            "raw": statistics.median(of_round(r["times"]) for r in plain),
            "samples": len(plain),
        }

    out = {"wall_s": summary(sum)}
    for suite in TIMED_SUITES:
        idx = [i for i, v in enumerate(verdicts) if v.timed and v.suite == suite]
        out[f"verdict_s.{suite}"] = summary(lambda times, idx=idx: statistics.fmean(times[i] for i in idx))
    out["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples": 1,
    }
    return out


def _round_layers(trace: dict) -> dict:
    flat: dict[str, float] = {}
    layers: dict[str, dict[str, float]] = {}
    for name, stats in trace["functions"].items():
        for key, value in stats.items():
            flat[f"{name}.{key}"] = value
        totals = layers.setdefault(layer_of(name), dict.fromkeys(stats, 0))
        for key, value in stats.items():
            totals[key] += value
    for layer, totals in layers.items():
        for key, value in totals.items():
            flat[f"{layer}.{key}"] = value
    counters = trace["counters"]
    flat.update(counters)
    if counters.get("tomography.ambient_dims"):
        flat["tomography.rows_per_rank"] = (
            counters.get("tomography.rank_rows", 0) / counters["tomography.ambient_dims"]
        )
    return flat


def per_layer(rounds, max_defect) -> dict:
    """Medians over traced rounds of per-function and per-layer figures."""
    traced = [_round_layers(r["trace"]) for r in rounds if r["traced"]]
    keys = set().union(*traced)
    out = {
        key: {"value": statistics.median(t.get(key, 0) for t in traced), "samples": len(traced)}
        for key in sorted(keys)
    }
    walls = {flag: [sum(r["times"]) for r in rounds[1:] if r["traced"] == flag] for flag in (False, True)}
    out["trace_overhead_s"] = {
        "value": statistics.median(walls[True]) - statistics.median(walls[False]),
        "samples": len(rounds) - 1,
    }
    out["report.max_defect"] = {"value": max_defect, "samples": len(rounds)}
    return out


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_commit(root: Path) -> str:
    """HEAD of the checkout's own ``.git``, read as files; never looks above ``root``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (checkout has no readable .git)"


def environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(FOCUS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from optheory import cli

    with open(os.devnull, "w") as sink:
        with contextlib.redirect_stdout(sink):
            code = cli.main(WARMUP)
        if code != 0:
            print(f"warm-up verdict {' '.join(WARMUP)} exited {code}", file=sys.stderr)
            return 1
        print("ready", flush=True)
        if args.setup_only:
            return 0

        OUT_DIR.mkdir(exist_ok=True)
        verdicts = round_verdicts(args.workload, tiny=args.tiny)
        tracer = Tracer("optheory", HOOKS) if args.trace else None
        with KernelProcess() as kernels_proc:
            run = run_rounds(
                cli, verdicts, args.seed, args.seconds, tracer, kernels_proc,
                str(OUT_DIR / "verdict.json"), sink,
            )

    result = {
        "attempted": run["attempted"],
        "failed": run["failed"],
        "problems": run["problems"],
        "rounds": len(run["rounds"]),
        "round_times_s": [r["times"] for r in run["rounds"]],
        "round_kernels_s": [r["kernels"] for r in run["rounds"]],
        "round_host_factors": [r["factors"] for r in run["rounds"]],
        "host_factor": run["host_factor"],
        "kernel_medians_s": run["kernel_medians_s"],
        "config": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "tiny": args.tiny,
            "warmup": " ".join(WARMUP),
            "verdicts_per_round": [v.label() for v in verdicts],
        },
        "environment": environment(),
    }
    if tracer:
        result["metrics"] = per_layer(run["rounds"], run["max_defect"])
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        result["spans"] = {"path": str(spans.relative_to(ROOT)), "count": tracer.write_spans(spans)}
    else:
        result["metrics"] = end_to_end(run["rounds"], verdicts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
