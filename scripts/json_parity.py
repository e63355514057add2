"""Compare the ``--json`` reports of two checkouts of optheory, float for float.

    python3 scripts/json_parity.py PARENT_ROOT [CHANGE_ROOT]

Runs ``python -m optheory --json`` from each root's ``src`` directory for
every case in ``CASES`` (100 trials, seeds 0-2, plus tomo-audit at (2,2), (2,3)
and (3,2) for seeds 0-2, the benchmark's lemma verdicts (500 trials at (2,2) and
300 at (6,6)) and its small-dims opcore verdict (20 trials at (2,2)) for
seeds 0-2, opcore at (6,6) with 150 trials, whose invariant suites end in a
partial chunk, tomo-audit at the benchmark's sizes, at (6,5), and at (4,4)
and (3,4), whose d = 4 POVM no other case builds, boxworld's
landmarks and the packaged fixtures at seed 0, opcore (20 trials) and
dsum (100 trials) at (2,3) with ``--outcomes 4`` at seed 0, whose action
samplers otherwise run at two outcomes only, opcore at (3,3) with
``--outcomes 16`` at seed 0, whose coarse-grained action totals of Kraus
rank 16 meet zero-padded operations of rank 2 in both composite loops, and
dsum at seed 0 at (2,2) with 700 trials, which span two full chunks and a
partial one, and at
(6,6) with ``--outcomes 16``, whose 100 trials end in a partial chunk,
quantum-nosig at (2,2) with 2600 trials, whose random loop and trace
biconditional each span two full chunks and a partial one, quantum-nosig at
(3,3) with 600 trials, whose random loop spans a full chunk and a partial
one that each hold several outcome-count groups, so each check's columns
arrive out of trial order, opcore at (2,2) with 2000 trials, whose quantum and
direct-sum composite loops end in a partial chunk, and the lemma at (2,3)
and (3,2) with 1000 trials, a full chunk and a partial one of unequal
sides, and the lemma at (2,2) with 500 trials and quantum-nosig at (2,3)
at seed 2**32 + 7, whose trial generators are seeded from a two-word seed,
``--suite all`` at (2,3) with 20 trials and the ``z-instrument`` fixture, where
quantum-nosig runs the fixture alone and every other suite its trials, and
quantum-nosig at (2,2) with one trial, whose trace biconditional adds no
``no_trace_preserved_case`` check), with BLAS pinned to one thread.
``CHANGE_ROOT`` defaults to the checkout holding this script.
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
TRIALS = 100
# A case is (suite, d1, d2, seed, trials, *flags).
CASES = [
    (suite, d1, d2, seed, TRIALS)
    for seed in range(3)
    for d1, d2 in ((2, 2), (2, 3), (3, 3), (6, 6))
    for suite in SUITES + (("all",) if d1 < 6 else ())
] + [
    ("tomo-audit", d1, d2, seed, TRIALS)
    for seed in range(3)
    for d1, d2 in ((2, 2), (2, 3), (3, 2))
] + [
    # The benchmark's lemma verdicts: one chunk of trials at (2,2), many at (6,6).
    ("lemma", d, d, seed, trials)
    for seed in range(3)
    for d, trials in ((2, 500), (6, 300))
] + [
    # The benchmark's small-dims opcore verdict: every invariant suite in one chunk.
    ("opcore", 2, 2, seed, 20)
    for seed in range(3)
] + [
    # Chunks of 68 (quantum) and 34 (direct sum) trials at d=6: 150 ends in a partial one.
    ("opcore", 6, 6, 0, 150),
] + [
    ("tomo-audit", 5, 6, 0, TRIALS),
    ("tomo-audit", 6, 6, 0, TRIALS),
    ("tomo-audit", 6, 5, 0, TRIALS),
    ("tomo-audit", 4, 4, 0, TRIALS),
    ("tomo-audit", 3, 4, 0, TRIALS),
    ("boxworld", 2, 2, 0, TRIALS),
    ("opcore", 2, 3, 0, 20, "--outcomes", "4"),
    ("dsum", 2, 3, 0, TRIALS, "--outcomes", "4"),
    # Action totals of rank 16 composed with stacks padded to rank 2.
    ("opcore", 3, 3, 0, TRIALS, "--outcomes", "16"),
    # Chunks of 348 trials at (2,2), and of 26 at (6,6) with 16 outcomes.
    ("dsum", 2, 2, 0, 700),
    ("dsum", 6, 6, 0, TRIALS, "--outcomes", "16"),
    # Chunks of 992 (random loop) and 1092 (biconditional) trials at (2,2).
    ("quantum-nosig", 2, 2, 0, 2600),
    # A chunk of 327 random-loop trials at (3,3) and a partial one, each of three outcome counts.
    ("quantum-nosig", 3, 3, 0, 600),
    # 400 composite trials: chunks of 348 (quantum) and 376 (direct sum) at (2,2).
    ("opcore", 2, 2, 0, 2000),
    # Chunks of 819 lemma trials at (2,3) and of 728 at (3,2).
    ("lemma", 2, 3, 0, 1000),
    ("lemma", 3, 2, 0, 1000),
    # A seed of two 32-bit words.
    ("lemma", 2, 2, 2**32 + 7, 500),
    ("quantum-nosig", 2, 3, 2**32 + 7, TRIALS),
] + [
    (suite, 2, 2, 0, TRIALS, flag, name)
    for suite, flag, name in (
        ("quantum-nosig", "--fixture", "mutant-instrument"),
        ("quantum-nosig", "--fixture", "z-instrument"),
        ("boxworld", "--box", "signaling-box"),
        ("boxworld", "--box", "pr-box"),
    )
] + [
    # All with a fixture: quantum-nosig runs no trial loop, the other suites do.
    ("all", 2, 3, 0, 20, "--fixture", "z-instrument"),
    # One biconditional trial, too few to add no_trace_preserved_case.
    ("quantum-nosig", 2, 2, 0, 1),
]


def run(
    root: Path, suite: str, d1: int, d2: int, seed: int, trials: int, *flags: str
) -> tuple[int, dict]:
    """Exit code and report (without its timestamp) of one CLI run from ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    env.update(OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        args = ["--suite", suite, "--d1", str(d1), "--d2", str(d2), "--seed", str(seed), *flags]
        proc = subprocess.run(
            [sys.executable, "-m", "optheory", *args, "--trials", str(trials), "--json", str(out)],
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
