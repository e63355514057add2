"""Outcome records for randomized verification suites."""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import asdict, dataclass, field
from functools import reduce
from numbers import Number
from typing import Any

import numpy as np

from .sampling import trial_rng


def worst_defect(*defects: float) -> float:
    """Largest of ``defects`` (0.0 for none), counting NaN and negative
    defects as +inf.

    Python's ``max`` drops a NaN that is not its first argument and every
    comparison with NaN is false, so a NaN defect would otherwise pass any
    tolerance; a negative one, which no distance or gap can be, would pass
    too, hidden by the 0.0 a fold starts from.  As +inf each fails every
    tolerance.  ``-0.0`` is not negative.
    """
    return max((math.inf if math.isnan(d) or d < 0 else d for d in defects), default=0.0)


def worst_defects(*defects):
    """:func:`worst_defect` trial by trial: the elementwise largest of arrays
    of per-trial defects, NaN and negative defects as +inf; of numbers
    alone, :func:`worst_defect`."""
    if not any(isinstance(d, np.ndarray) for d in defects):
        return worst_defect(*defects)
    return reduce(np.maximum, (np.where(np.isnan(d) | (d < 0), np.inf, d) for d in defects))


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


# A chunk of trials holds at most about this many drawn array entries: 2^15
# complex entries are 512 KiB, few enough that the stacks a chunk's evaluation
# builds stay small next to the process, many enough that one stacked call
# serves hundreds of small trials.
CHUNK_ENTRIES = 2**15


def _entries(drawn: Any) -> int:
    """The number of entries of the arrays and numbers ``drawn`` holds, in
    tuples nested to any depth.  A draw holds nothing else: the runner sizes
    chunks by it, and an evaluation finishes it as stacks."""
    if isinstance(drawn, (np.ndarray, Number)):
        return np.size(drawn)
    if not isinstance(drawn, tuple):
        raise TypeError(f"a draw holds arrays, numbers and tuples of them, not {drawn!r:.80}")
    return sum(_entries(x) for x in drawn)


def _chunk_length(drawn: Any) -> int:
    """How many trials of the size of ``drawn``, the number of entries of the
    arrays and numbers it holds, fill a chunk."""
    return max(1, CHUNK_ENTRIES // max(1, _entries(drawn)))


def trial_outcomes(
    seed: int, indices: Iterable[int], draw: Callable[..., Any], evaluate: Callable[[list], list]
) -> Iterator[tuple[int, Any]]:
    """``(k, outcome)`` for every ``k`` in ``indices``, in order.

    Trial ``k`` draws its objects as ``draw(trial_rng(seed, k), k)``.  The
    draws of a chunk of consecutive trials are evaluated together:
    ``evaluate(draws)`` returns one outcome per draw.  The chunk length comes
    from the size of the chunk's first draw (``CHUNK_ENTRIES``); since an
    outcome depends on its own draw only, no outcome depends on it.
    """
    indices = list(indices)
    start = 0
    while start < len(indices):
        first = draw(trial_rng(seed, indices[start]), indices[start])
        chunk = indices[start : start + _chunk_length(first)]
        drawn = [first, *(draw(trial_rng(seed, k), k) for k in chunk[1:])]
        yield from zip(chunk, evaluate(drawn), strict=True)
        start += len(chunk)


def fold_checks(outcomes: Iterable[tuple[int, Mapping[str, float]]], tols: dict) -> list[Check]:
    """Fold ``(k, {check_name: defect})`` pairs into one :class:`Check` per name.

    ``tols`` names every check, in report order, with its tolerance; a trial
    names the checks it evaluated.  Each check's defects are folded with
    :func:`worst_defect`, and its ``worst_trial`` is the earliest trial at
    the largest defect.
    """
    worst = dict.fromkeys(tols, 0.0)
    at: dict[str, int | None] = dict.fromkeys(tols)
    for k, defects in outcomes:
        for name, defect in defects.items():
            folded = worst_defect(worst[name], defect)
            if at[name] is None or folded > worst[name]:
                worst[name], at[name] = folded, k
    return [Check(name, worst[name], tol, at[name]) for name, tol in tols.items()]


def run_trials(
    seed: int,
    indices: Iterable[int],
    draw: Callable[..., Any],
    evaluate: Callable[[list], list[Mapping[str, float]]],
    tols: dict,
) -> list[Check]:
    """The checks ``tols`` names, folded over the trials ``indices``: each
    trial's outcome (see :func:`trial_outcomes`) is ``{check_name: defect}``."""
    return fold_checks(trial_outcomes(seed, indices, draw, evaluate), tols)


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
