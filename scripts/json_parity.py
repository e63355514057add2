"""Compare the ``--json`` reports of two checkouts of optheory, float for float.

    python3 scripts/json_parity.py PARENT_ROOT [CHANGE_ROOT]

Runs ``python -m optheory --json`` from each root's ``src`` directory for
every case in ``CASES`` (100 trials, seeds 0-2, plus tomo-audit at the
benchmark's sizes, boxworld's landmarks and the packaged fixtures at seed 0),
with BLAS pinned to one thread.  ``CHANGE_ROOT`` defaults to
the checkout holding this script.
Apart from the timestamp the two reports must be equal: every float bit for
bit (compared by ``repr``, so -0.0 differs from 0.0), every ``worst_trial``,
every other value, and the exit code.  Prints each difference and a summary
that gives the largest absolute difference of two floats and, apart, the
count of all other differences; exits 1 when there is any difference, and 2
without a run when the arguments are wrong or a root has no ``src/optheory``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SUITES = ("opcore", "dsum", "quantum-nosig", "lemma")
CASES = [
    (suite, d1, d2, seed)
    for seed in range(3)
    for d1, d2 in ((2, 2), (2, 3), (3, 3), (6, 6))
    for suite in SUITES + (("all",) if d1 < 6 else ())
] + [("tomo-audit", 5, 6, 0), ("tomo-audit", 6, 6, 0), ("boxworld", 2, 2, 0)] + [
    (suite, 2, 2, 0, flag, name)
    for suite, flag, name in (
        ("quantum-nosig", "--fixture", "mutant-instrument"),
        ("quantum-nosig", "--fixture", "z-instrument"),
        ("boxworld", "--box", "signaling-box"),
        ("boxworld", "--box", "pr-box"),
    )
]
TRIALS = 100


def run(root: Path, suite: str, d1: int, d2: int, seed: int, *flags: str) -> tuple[int, dict]:
    """Exit code and report (without its timestamp) of one CLI run from ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    env.update(OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        args = ["--suite", suite, "--d1", str(d1), "--d2", str(d2), "--seed", str(seed), *flags]
        proc = subprocess.run(
            [sys.executable, "-m", "optheory", *args, "--trials", str(TRIALS), "--json", str(out)],
            env=env,
            cwd=tmp,
            stdout=subprocess.DEVNULL,
        )
        report = json.loads(out.read_text())
    report.pop("timestamp")
    return proc.returncode, report


def differences(a, b, path: str = ""):
    """``(path, message, gap)`` wherever two parsed JSON values differ, floats
    compared by ``repr``; ``gap`` is ``|a - b|`` for two floats (inf when it
    is NaN) and None for every other difference."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                yield f"{path}/{key}", "present on one side only", None
            else:
                yield from differences(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}/{i}")
    elif type(a) is not type(b) or repr(a) != repr(b):
        gap = None
        if type(a) is float and type(b) is float:
            gap = abs(a - b)
            gap = math.inf if math.isnan(gap) else gap
        yield path, f"{a!r} != {b!r}", gap


def compare(parent: Path, change: Path, case: tuple) -> list[tuple[str, float | None]]:
    (code_p, rep_p), (code_c, rep_c) = run(parent, *case), run(change, *case)
    found = [(f"{path}: {message}", gap) for path, message, gap in differences(rep_p, rep_c)]
    if code_p != code_c:
        found.append((f"exit code {code_p} != {code_c}", None))
    return [(f"{' '.join(map(str, case))}: {line}", gap) for line, gap in found]


USAGE = "usage: python3 scripts/json_parity.py PARENT_ROOT [CHANGE_ROOT]"


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(USAGE, file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    change = Path(argv[1]).resolve() if len(argv) > 1 else Path(__file__).resolve().parents[1]
    for root in (parent, change):
        if not (root / "src" / "optheory").is_dir():
            print(f"{USAGE}: {root} has no src/optheory", file=sys.stderr)
            return 2
    with ThreadPoolExecutor(max_workers=2) as pool:
        found = [d for ds in pool.map(lambda c: compare(parent, change, c), CASES) for d in ds]
    for line, _ in found:
        print(line)
    gaps = [gap for _, gap in found if gap is not None]
    print(
        f"{len(CASES)} cases, {len(found)} differences: largest float difference "
        f"{max(gaps, default=0.0):.3e} over {len(gaps)} floats, "
        f"{len(found) - len(gaps)} non-float differences"
    )
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
