"""Outcome records for randomized verification suites."""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import asdict, dataclass, field
from typing import Any

from .sampling import trial_rng


def worst_defect(*defects: float) -> float:
    """Largest of ``defects`` (0.0 for none), counting NaN as +inf.

    Python's ``max`` drops a NaN that is not its first argument and every
    comparison with NaN is false, so a NaN defect would otherwise pass any
    tolerance.  As +inf it fails every one.
    """
    return max((math.inf if math.isnan(d) else d for d in defects), default=0.0)


@dataclass(frozen=True)
class Check:
    """One named gate of a report: its worst defect, its tolerance, and the
    earliest trial that reached that defect (None when no trial evaluated
    the check, or when the check is made once per report)."""

    name: str
    defect: float
    tol: float
    worst_trial: int | None = None

    @property
    def passed(self) -> bool:
        return self.defect <= self.tol  # False for NaN


def run_trials(
    seed: int, indices: Iterable[int], trial: Callable[..., Mapping[str, float]], tols: dict
) -> list[Check]:
    """Run ``trial(trial_rng(seed, k), k)`` for every ``k`` in ``indices``.

    ``trial`` returns ``{check_name: defect}`` for the checks that trial
    evaluated; ``tols`` names every check, in report order, with its
    tolerance.  Each check's defects are folded with :func:`worst_defect`.
    """
    worst = dict.fromkeys(tols, 0.0)
    at: dict[str, int | None] = dict.fromkeys(tols)
    for k in indices:
        for name, defect in trial(trial_rng(seed, k), k).items():
            folded = worst_defect(worst[name], defect)
            if at[name] is None or folded > worst[name]:
                worst[name], at[name] = folded, k
    return [Check(name, worst[name], tol, at[name]) for name, tol in tols.items()]


@dataclass(frozen=True)
class VerificationReport:
    """Result of one verification: its named checks, or the sub-reports it
    combines, and a headline worst defect against a tolerance.

    ``passed`` is never given: a report passes when every check is within
    its tolerance and every sub-report is :attr:`ok`.  ``expected_failure``
    marks checks that are supposed to fail (the report then counts as OK
    when the underlying check indeed failed).  ``witness`` carries an
    optional machine-readable fixture describing the worst trial or
    auxiliary measurements.
    """

    suite: str
    seed: int
    trials: int
    max_defect: float
    tol: float
    expected_failure: bool = False
    witness: dict[str, Any] | None = None
    details: dict[str, Any] = field(default_factory=dict)
    checks: tuple[Check, ...] = ()
    sub_reports: tuple[VerificationReport, ...] = ()

    def __post_init__(self):
        if not self.checks and not self.sub_reports:
            raise ValueError(f"report {self.suite!r} has neither checks nor sub-reports")

    @classmethod
    def from_checks(
        cls, suite: str, seed: int, trials: int, checks: Iterable[Check], tol: float, **extra: Any
    ) -> VerificationReport:
        """The report of ``checks``; ``max_defect`` defaults to their worst defect."""
        checks = tuple(checks)
        extra.setdefault("max_defect", worst_defect(*(c.defect for c in checks)))
        return cls(suite, seed, trials, tol=tol, checks=checks, **extra)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks) and all(r.ok for r in self.sub_reports)

    @property
    def ok(self) -> bool:
        """True when the outcome matches expectation (pass, or an expected failure)."""
        return self.passed != self.expected_failure

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "suite": self.suite,
            "seed": int(self.seed),
            "trials": int(self.trials),
            "max_defect": float(self.max_defect),
            "tol": float(self.tol),
            "pass": self.passed,
            "witness": self.witness,
        }
        if self.expected_failure:
            out["expected_failure"] = True
        details = dict(self.details)
        if self.sub_reports:
            details["sub_reports"] = [r.to_dict() for r in self.sub_reports]
        if details:
            out["details"] = details
        if self.checks:
            out["checks"] = [asdict(c) for c in self.checks]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        if self.expected_failure:
            verdict += " (expected failure)" if not self.passed else " (unexpected pass)"
        return (
            f"{self.suite}: {verdict}  max_defect={self.max_defect:.3e} "
            f"tol={self.tol:.1e} trials={self.trials} seed={self.seed}"
        )


def combine_reports(suite: str, reports: list[VerificationReport]) -> VerificationReport:
    """Aggregate sub-reports: worst defect; passes when every sub-report is ok."""
    if not reports:
        raise ValueError("cannot combine an empty report list")
    return VerificationReport(
        suite=suite,
        seed=reports[0].seed,
        trials=sum(r.trials for r in reports),
        max_defect=worst_defect(*(r.max_defect for r in reports)),
        tol=min(r.tol for r in reports),
        sub_reports=tuple(reports),
    )
