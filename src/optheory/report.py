"""Outcome records for randomized verification suites."""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass, field
from functools import reduce
from numbers import Number
from typing import Any

import numpy as np

from .sampling import trial_rngs


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
    return reduce(np.maximum, (np.where(d >= 0, d, np.inf) for d in defects))  # NaN >= 0 is False


@dataclass(frozen=True)
class Check:
    """One named gate of a report: its worst defect, its tolerance, and the
    smallest index of a trial at that defect, whatever order the trials were
    folded in (None when no trial evaluated the check, or when the check is
    made once per report).  ``evaluations`` counts the trials whose columns
    covered the check (1 for a check made once per report); the text
    summary says when it is 0, the JSON does not carry it."""

    name: str
    defect: float
    tol: float
    worst_trial: int | None = None
    evaluations: int = field(default=1, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return self.defect <= self.tol  # False for NaN

    @property
    def evaluated(self) -> bool:
        return self.evaluations > 0


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
    seed: int, indices: Iterable[int], draw: Callable[..., Any], evaluate: Callable[..., Iterable]
) -> Iterator[tuple[str, np.ndarray, np.ndarray]]:
    """``(check_name, trials, defects)`` columns of the trials ``indices``.

    Trial ``k`` draws as ``draw(trial_rng(seed, k), k)``, its generator
    taken from one ``trial_rngs`` batch of ``indices``; ``evaluate(draws)``
    of a chunk of consecutive trials yields ``(check_name, rows, defects)``,
    ``rows`` positions in the chunk (an index array, or ``slice(None)`` for
    all) and ``defects`` an array over them or one number for each.  The
    chunk length comes from the size of its first draw (``CHUNK_ENTRIES``);
    since a defect depends on its own trial's draw only, none depends on it.
    """
    indices = list(indices)
    rngs = trial_rngs(seed, indices)
    start = 0
    while start < len(indices):
        first = draw(next(rngs), indices[start])
        chunk = np.array(indices[start : start + _chunk_length(first)])
        drawn = [first, *(draw(next(rngs), k) for k in chunk[1:].tolist())]
        for name, rows, defects in evaluate(drawn):
            if not isinstance(rows, slice) and (np.asarray(rows) < 0).any():
                raise IndexError(f"{name}: rows {rows} lie outside a chunk of {len(chunk)}")
            trials = chunk[rows]  # an IndexError past the chunk's end too
            defects = np.asarray(defects, dtype=float)
            if defects.shape == ():  # one number for the whole stack
                defects = np.full(trials.shape, defects)
            if defects.shape != trials.shape:
                raise ValueError(f"{name}: {defects.shape} defects for {len(trials)} rows")
            yield name, trials, defects
        start += len(chunk)


def fold_checks(columns: Iterable[tuple[str, np.ndarray, np.ndarray]], tols: dict) -> list[Check]:
    """Fold ``(check_name, trials, defects)`` columns into one :class:`Check` per name.

    ``tols`` names every check, in report order, with its tolerance.  A
    check's defect is its largest, NaN and negative ones as +inf
    (:func:`worst_defects`), and its ``worst_trial`` the smallest trial
    index at that defect, whatever order the columns come in; its
    ``evaluations`` the number of rows its columns hold.
    """
    worst = dict.fromkeys(tols, 0.0)
    at: dict[str, int | None] = dict.fromkeys(tols)
    count = dict.fromkeys(tols, 0)
    for name, trials, defects in columns:
        running = worst[name]  # a KeyError for a check ``tols`` does not name
        if not len(defects):
            continue
        count[name] += len(defects)
        folded = worst_defects(defects)
        top = float(folded.max())
        if at[name] is not None and top < running:
            continue  # a column below the running worst moves nothing
        first = int(trials[folded == top].min())
        if at[name] is None or top > running:
            worst[name], at[name] = max(running, top), first  # max keeps 0.0 over -0.0
        else:
            at[name] = min(at[name], first)
    return [
        Check(name, worst[name], tol, at[name], evaluations=count[name])
        for name, tol in tols.items()
    ]


def run_trials(
    seed: int,
    indices: Iterable[int],
    draw: Callable[..., Any],
    evaluate: Callable[[list], Iterable],
    tols: dict,
) -> list[Check]:
    """The checks ``tols`` names, folded over the trials ``indices`` from the
    columns each chunk's ``evaluate`` yields (see :func:`trial_outcomes`)."""
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

    @classmethod
    def from_defects(
        cls, suite: str, seed: int, trials: int, defects: dict, tols: dict, **extra: Any
    ) -> VerificationReport:
        """The report of ``defects``, by check name, each at its tolerance in ``tols``."""
        checks = [Check(name, defect, tols[name]) for name, defect in defects.items()]
        return cls.from_checks(suite, seed, trials, checks, headline_tol(tols), **extra)

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
            out["checks"] = [
                {k: v for k, v in asdict(c).items() if k != "evaluations"} for c in self.checks
            ]
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


def headline_tol(tols: dict) -> float:
    """The headline tolerance of a report of the checks ``tols`` names: the
    ``no_signaling`` check's, else the largest."""
    return tols.get("no_signaling", max(tols.values()))


@dataclass(frozen=True)
class TrialReport:
    """Trials 0..trials-1 of ``draw`` and ``evaluate`` (:func:`trial_outcomes`)
    folded into the checks ``tols`` names, at their tolerances; the headline
    tolerance is the ``no_signaling`` check's, else the largest.  ``finish``,
    if given, shapes the folded report (its details, headline, added checks)."""

    name: str
    draw: Callable[..., Any]
    evaluate: Callable[[list], Iterable]
    trials: int
    tols: dict[str, float]
    finish: Callable[[VerificationReport], VerificationReport] | None = None

    def run(self, seed: int) -> VerificationReport:
        checks = run_trials(seed, range(self.trials), self.draw, self.evaluate, self.tols)
        tol = headline_tol(self.tols)
        report = VerificationReport.from_checks(self.name, seed, self.trials, checks, tol)
        return report if self.finish is None else self.finish(report)


@dataclass(frozen=True)
class OnceReport:
    """A sub-report made once per report by ``build(name, seed, tols)``, each
    check at its tolerance in ``tols``, which names every check it can make."""

    name: str
    tols: dict[str, float]
    build: Callable[[str, int, dict[str, float]], VerificationReport]

    def run(self, seed: int) -> VerificationReport:
        return self.build(self.name, seed, self.tols)


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
