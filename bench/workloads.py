"""The verdicts one benchmark round runs, per workload.

A verdict is one call of the ``optheory`` command line with ``--json``.
Every workload times all five suites that have an end-to-end metric
(``verdict_s.<suite>``): its focus suites at the workload's sizes, and the
other suites at their ``small-dims`` configuration, where they serve as
controls that a change aimed at another workload should leave alone.
Every workload also runs the boundary verdicts: the CHSH landmarks and the
two packaged mutants, which must be rejected with exit code 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    suite: str
    d1: int = 2
    d2: int = 2
    trials: int | None = None  # None: the suite's flag is not passed (tomo-audit ignores it)
    fixture: str | None = None
    box: str | None = None
    expect_exit: int = 0

    @property
    def timed(self) -> bool:
        """Counts towards ``verdict_s.<suite>``; fixture verdicts count only towards ``wall_s``."""
        return self.fixture is None and self.box is None

    def argv(self, seed: int, json_path: str) -> list[str]:
        args = ["--suite", self.suite, "--d1", str(self.d1), "--d2", str(self.d2)]
        if self.trials is not None:
            args += ["--trials", str(self.trials)]
        if self.fixture is not None:
            args += ["--fixture", self.fixture]
        if self.box is not None:
            args += ["--box", self.box]
        return args + ["--seed", str(seed), "--json", json_path]

    def label(self) -> str:
        parts = [self.suite, f"{self.d1}x{self.d2}"]
        if self.trials is not None:
            parts.append(f"trials={self.trials}")
        if self.fixture or self.box:
            parts.append(self.fixture or self.box)
        return " ".join(parts)


# Trial counts make each verdict take a few tenths of a second on one core,
# long enough that one verdict's time is not dominated by timer and host jitter.
SMALL_DIMS = {
    "opcore": [Verdict("opcore", trials=20)],
    "quantum-nosig": [Verdict("quantum-nosig", trials=200)],
    "lemma": [Verdict("lemma", trials=500)],
    "dsum": [Verdict("dsum", trials=100)],
    "tomo-audit": [Verdict("tomo-audit", 2, 2), Verdict("tomo-audit", 2, 3)],
}

# d=6 is the command line's maximum: kernels on the 36-dimensional joint.
# opcore's cost depends on how many Kraus operators each random transformation
# draws (one or two); 100 trials (20 on the composites) average that out, so
# that a verdict costs about the same at every seed.  It takes three times as
# long as the other three suites together, so they run three times per round,
# to give their medians as many seconds of samples as opcore's.
LARGE_DIMS = {
    "opcore": [Verdict("opcore", 6, 6, trials=100)],
    "quantum-nosig": [Verdict("quantum-nosig", 6, 6, trials=200)] * 3,
    "lemma": [Verdict("lemma", 6, 6, trials=300)] * 3,
    "dsum": [Verdict("dsum", 6, 6, trials=100)] * 3,
}

# One rank SVD per composite, up to 2624 x 1296 rows at (6, 6).
TOMO_AUDIT = {
    "tomo-audit": [Verdict("tomo-audit", 6, 6), Verdict("tomo-audit", 5, 6)],
}

BOUNDARY = [
    Verdict("boxworld"),
    Verdict("quantum-nosig", fixture="mutant-instrument", expect_exit=1),
    Verdict("boxworld", box="signaling-box", expect_exit=1),
]

FOCUS = {"small-dims": SMALL_DIMS, "large-dims": LARGE_DIMS, "tomo-audit": TOMO_AUDIT}
# Rounds of the other workloads are long (two audits of seconds each, or a
# 100-trial opcore at d=6), so they run the controls several times per round.
# large-dims runs fewer rounds and its controls are the tiny tomo-audit pair,
# so it repeats them more often.
CONTROL_PASSES = {"small-dims": 1, "large-dims": 6, "tomo-audit": 3}
TIMED_SUITES = tuple(SMALL_DIMS)


def _tiny(v: Verdict) -> Verdict:
    # Two trials, not one: quantum-nosig --trials 1 sees no trace-preserving
    # case in trace-biconditional and exits 1.
    trials = None if v.trials is None else 2
    return Verdict(v.suite, min(v.d1, 3), min(v.d2, 3), trials, v.fixture, v.box, v.expect_exit)


def round_verdicts(workload: str, tiny: bool = False) -> list[Verdict]:
    """One round: the suites interleaved round-robin, then the boundary verdicts.

    ``tiny`` shrinks trials to 2 and dimensions to at most 3, for the
    benchmark's own tests.
    """
    focus = FOCUS[workload]
    suites = {
        suite: focus.get(suite, verdicts * CONTROL_PASSES[workload])
        for suite, verdicts in SMALL_DIMS.items()
    }
    order = [v for tier in itertools.zip_longest(*suites.values()) for v in tier if v]
    order += BOUNDARY
    return [_tiny(v) for v in order] if tiny else order
