"""The trial runner and the named checks every trial-based report lists."""

import json
import math
import sys
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optheory import cli, framework, linalg, quantum, report, sampling
from optheory.cli import SUITES, SuiteConfig, main, run_suite
from optheory.directsum import DSumBipartite, DSumModel
from optheory.quantum import QuantumModel
from optheory.report import (
    Check,
    TrialReport,
    VerificationReport,
    combine_reports,
    fold_checks,
    run_trials,
    trial_outcomes,
)
from optheory.linalg import hermitian_part, max_eig_herm, min_eig_herm, partial_trace, require_psd
from optheory.sampling import complex_gaussian, gram, trial_rng


def _index(rng, k):
    """A draw that is the trial's index alone."""
    return (k,)


def _each_trial(evaluate_one):
    """An ``evaluate`` that calls ``evaluate_one(*draw)`` on each trial's draw
    alone and yields its ``{check: defect}`` as one-row columns."""

    def evaluate(drawn):
        for row, draw in enumerate(drawn):
            for name, defect in evaluate_one(*draw).items():
                yield name, [row], [defect]

    return evaluate


def _per_trial(columns) -> dict:
    """``{trial: {check: defect}}`` rebuilt from ``(check, trials, defects)`` columns."""
    trials: dict = {}
    for name, ks, defects in columns:
        for k, defect in zip(ks.tolist(), defects.tolist()):
            trials.setdefault(k, {})[name] = defect
    return trials


def _others(columns, trial: int) -> dict:
    """:func:`_per_trial` of ``columns`` without ``trial``."""
    per_trial = _per_trial(columns)
    del per_trial[trial]
    return per_trial


def _reference_fold(per_trial: dict, tols: dict) -> list:
    """The per-trial fold that the column fold replaced: trials in ascending
    order, each defect folded with ``worst_defect``, the earliest trial kept
    at the worst defect."""
    worst, at = dict.fromkeys(tols, 0.0), dict.fromkeys(tols)
    for k in sorted(per_trial):
        for name, defect in per_trial[k].items():
            folded = report.worst_defect(worst[name], defect)
            if at[name] is None or folded > worst[name]:
                worst[name], at[name] = folded, k
    return [Check(name, worst[name], tol, at[name]) for name, tol in tols.items()]


class TestRunTrials:
    def test_folds_each_check_and_keeps_the_earliest_worst_trial(self):
        defects = [0.5, 2.0, 1.0, 2.0]
        evaluate = _each_trial(lambda k: {"a": defects[k], "b": 0.0})
        checks = run_trials(0, range(4), _index, evaluate, {"a": 1.0, "b": 1.0})
        assert checks == [Check("a", 2.0, 1.0, 1), Check("b", 0.0, 1.0, 0)]
        assert [c.passed for c in checks] == [False, True]
        assert [c.evaluations for c in checks] == [4, 4]

    def test_check_never_evaluated_has_no_worst_trial(self):
        (check,) = run_trials(3, range(5), _index, _each_trial(lambda k: {}), {"rare": 1e-9})
        assert check == Check("rare", 0.0, 1e-9, None)
        assert check.evaluations == 0 and not check.evaluated
        assert Check("once", 0.0, 0.0).evaluated  # a check made once per report

    def test_nan_counts_as_inf(self):
        values = [0.1, math.nan, math.inf]
        evaluate = _each_trial(lambda k: {"x": values[k]})
        (check,) = run_trials(0, range(3), _index, evaluate, {"x": 1.0})
        assert check.defect == math.inf and check.worst_trial == 1
        assert not check.passed

    def test_trial_draws_from_its_own_generator(self):
        def draws(indices):
            evaluate = lambda drawn: [("u", slice(None), drawn)]  # noqa: E731
            return _per_trial(trial_outcomes(7, indices, lambda rng, k: rng.uniform(), evaluate))

        everything = draws(range(5))
        assert draws([4, 2]) == {4: everything[4], 2: everything[2]}

    def test_unnamed_check_raises(self):
        with pytest.raises(KeyError):
            run_trials(0, range(1), _index, _each_trial(lambda k: {"typo": 0.0}), {"name": 1.0})

    @pytest.mark.parametrize("entries", [1, 1000, 2**15, 2**16])
    def test_chunk_length_comes_from_the_draw_size(self, entries):
        chunks = []

        def evaluate(drawn):
            chunks.append(len(drawn))
            yield "k", slice(None), [k for k, _ in drawn]

        draw = lambda rng, k: (k, np.zeros(entries - 1))  # noqa: E731
        outcomes = list(trial_outcomes(0, range(70), draw, evaluate))
        trials = [k for _, ks, _ in outcomes for k in ks.tolist()]
        assert trials == [k for _, _, ks in outcomes for k in ks.tolist()] == list(range(70))
        length = max(1, report.CHUNK_ENTRIES // entries)
        assert chunks == [min(length, 70 - start) for start in range(0, 70, length)]

    @pytest.mark.parametrize("held", [object(), [1.0, 2.0], "text", None])
    def test_a_draw_holding_anything_but_arrays_and_numbers_is_refused(self, held):
        draw = lambda rng, k: (np.zeros(2), (k, held))  # noqa: E731
        with pytest.raises(TypeError, match="holds arrays, numbers and tuples") as refused:
            list(trial_outcomes(0, range(4), draw, lambda drawn: ()))
        assert repr(held)[:40] in str(refused.value)

    def test_a_column_must_lie_in_its_chunk_and_match_its_rows(self):
        # A chunk of three trials: rows outside it, and defects whose length
        # differs from their rows, raise.
        for rows, defects, error in (
            ([3], [0.0], IndexError),
            ([-1], [0.0], IndexError),
            ([0, 1], [0.0], ValueError),
            (slice(None), [0.0, 0.0], ValueError),
            (slice(None), [0.0] * 4, ValueError),
        ):
            evaluate = lambda drawn: [("x", rows, defects)]  # noqa: E731
            with pytest.raises(error):
                list(trial_outcomes(0, range(3), _index, evaluate))
        # One number holds for every row.
        one_number = lambda drawn: [("x", [0, 2], 5.0)]  # noqa: E731
        ((_, trials, defects),) = trial_outcomes(0, range(3), _index, one_number)
        assert trials.tolist() == [0, 2] and defects.tolist() == [5.0, 5.0]

    def test_report_passes_when_every_check_does(self):
        checks = [Check("a", 1e-12, 1e-10), Check("b", 5e-10, 1e-10)]
        report = VerificationReport.from_checks("x", 0, 3, checks, 1e-8)
        assert report.max_defect == 5e-10 and report.max_defect <= report.tol
        assert not report.passed
        assert report.to_dict()["checks"][1] == {
            "name": "b", "defect": 5e-10, "tol": 1e-10, "worst_trial": None
        }
        assert "checks" not in combine_reports("y", [report]).to_dict()

    def test_pass_is_not_an_argument(self):
        with pytest.raises(TypeError):
            VerificationReport("x", 0, 1, 0.0, 1.0, passed=True, checks=(Check("a", 0.0, 1.0),))

    def test_report_without_checks_or_sub_reports_is_refused(self):
        with pytest.raises(ValueError, match="neither checks nor sub-reports"):
            VerificationReport("x", 0, 1, 0.0, 1.0)


# ---------------------------------------------------------------------------
# The fold: the largest defect and the smallest trial at it, in any column order
# ---------------------------------------------------------------------------

def _column(name: str, trials: list, defects: list) -> tuple:
    return name, np.array(trials), np.array(defects, dtype=float)


def _quantum_nosig_columns() -> list:
    """The random quantum-nosig loop's columns at (3,3): a full chunk and a
    partial one, each yielding one column per check and outcome-count group
    (2, 3 and 4 outcomes), so each check arrives in six columns whose
    trials, end to end, are out of order.  No trial evaluates
    ``trace_preserving_outcomes``, so its six columns are empty."""
    cfg = SuiteConfig("quantum-nosig", seed=0, d1=3, d2=3)
    draw = partial(cli._quantum_nosig_draw, cfg)
    evaluate = partial(cli._quantum_nosig_evaluate, cfg)
    columns = list(trial_outcomes(cfg.seed, range(400), draw, evaluate))
    for check in QNOSIG_TOLS:
        assert [name for name, _, _ in columns].count(check) == 6, check
    trials = np.concatenate([t for name, t, _ in columns if name == "no_signaling"])
    assert not all(np.diff(trials) > 0) and sorted(trials.tolist()) == list(range(400))
    return columns


QNOSIG_TOLS = {"no_signaling": 1e-8, "trace_preserving_outcomes": 1e-8}
# Trials 6 and 1 tie at the largest defect in two groups (a NaN and a
# negative defect both count as +inf); trial 0, the smallest, sits below it
# in a later group.
TIED = [
    _column("x", [4, 6], [2.0, math.nan]),
    _column("x", [5, 1], [0.5, -1.0]),
    _column("x", [0, 2], [1.0, 3.0]),
]
BELOW = [_column("x", [5, 7], [3.0, 1.0]), _column("x", [0, 1], [1.0, 2.0])]


def _same_fold(columns, variant, tols) -> list:
    """Assert that ``variant`` folds to the checks of ``columns`` and of the
    per-trial reference fold, worst trials included; return those checks."""
    checks = fold_checks(columns, tols)
    assert fold_checks(variant, tols) == checks == _reference_fold(_per_trial(columns), tols)
    return checks


class TestFoldRule:
    def test_columns_in_reversed_group_order_fold_alike(self):
        columns = _quantum_nosig_columns()
        _same_fold(columns, columns[::-1], QNOSIG_TOLS)

    @pytest.mark.parametrize("size", [1, 7, 40])
    def test_each_column_cut_into_pieces_folds_alike(self, size):
        columns = _quantum_nosig_columns()
        pieces = [
            (name, trials[i : i + size], defects[i : i + size])
            for name, trials, defects in columns
            for i in range(0, len(trials), size)
        ]
        assert len(pieces) >= 2 * sum(len(trials) > 0 for _, trials, _ in columns)
        _same_fold(columns, pieces[::-1], QNOSIG_TOLS)

    def test_columns_tied_at_the_maximum_keep_the_smallest_trial(self):
        (check,) = _same_fold(TIED, TIED[::-1], {"x": 1.0})
        assert check == Check("x", math.inf, 1.0, 1)
        (check,) = _same_fold(TIED[:1], TIED[:1], {"x": 1.0})
        assert check.worst_trial == 6

    def test_a_later_group_below_the_running_worst_moves_nothing(self):
        (check,) = _same_fold(BELOW, BELOW[::-1], {"x": 1.0})
        assert check == Check("x", 3.0, 1.0, 5)


# ---------------------------------------------------------------------------
# Sharding: trials are keyed on (seed, trial_index)
# ---------------------------------------------------------------------------

def _merge(first: list[Check], second: list[Check]) -> list[Check]:
    """Per check, the worse of two shards; the earlier shard wins ties."""
    return [
        a if b.worst_trial is None or (a.worst_trial is not None and a.defect >= b.defect) else b
        for a, b in zip(first, second)
    ]


SHARD_CFG = SuiteConfig(suite="all", trials=10, d1=2, d2=3, seed=0)


def _trial_records(cfg: SuiteConfig, suite: str) -> list[TrialReport]:
    """The trial sub-reports of ``suite``'s table, in run order."""
    return [record for record in cli.sub_reports(cfg, suite) if isinstance(record, TrialReport)]


def _loop_name(draw) -> str:
    """The function a draw comes from: a closure's builder, or a partial's function."""
    return getattr(draw, "func", draw).__qualname__.split(".")[0]


@pytest.mark.parametrize("suite", [s for s in SUITES[:-1] if _trial_records(SHARD_CFG, s)])
def test_two_shards_reproduce_the_full_run(suite, monkeypatch):
    calls = []
    real = report.trial_outcomes

    def spy(seed, indices, draw, evaluate):
        indices = list(indices)
        calls.append((seed, len(indices), draw, evaluate))
        return real(seed, indices, draw, evaluate)

    # Every trial loop of the suite, as the table lists it, reaches the runner
    # through report.run_trials, in table order.
    monkeypatch.setattr(report, "trial_outcomes", spy)
    cfg = replace(SHARD_CFG, suite=suite)
    run_suite(cfg)
    names = [_loop_name(draw) for _, _, draw, _ in calls]
    expected = [(_loop_name(record.draw), record.trials) for record in _trial_records(cfg, suite)]
    assert [(name, n) for name, (_, n, _, _) in zip(names, calls)] == expected
    for (seed, n, draw, evaluate), name in zip(calls, names):
        full = list(real(seed, range(n), draw, evaluate))
        halves = [
            list(real(seed, range(a, b), draw, evaluate)) for a, b in ((0, n // 2), (n // 2, n))
        ]
        assert _per_trial(halves[0]) | _per_trial(halves[1]) == _per_trial(full), name
        tols = dict.fromkeys((check for check, _, _ in full), 1.0)
        assert _merge(*(fold_checks(h, tols) for h in halves)) == fold_checks(full, tols), name


TABLE_CFG = SuiteConfig("all", trials=20, d1=2, d2=3)
TABLE = [record for suite in SUITES[:-1] for record in _trial_records(TABLE_CFG, suite)]


@pytest.mark.parametrize("record", TABLE, ids=[record.name for record in TABLE])
def test_a_record_reports_alike_after_its_trials_run_outside_it(record):
    # A record keeps no state between runs: a shard or a replay of its trials
    # through run_trials leaves its next report as it was.
    before = record.run(3).to_dict()
    run_trials(3, range(record.trials), record.draw, record.evaluate, record.tols)
    assert record.run(3).to_dict() == before


@pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (3, 2), (6, 6)])
@pytest.mark.parametrize("trials", [1, 2, 30, 31])
def test_the_biconditional_counts_every_channel_and_aligned_filter(d1, d2, trials):
    # Kinds 1 (channels) and 2 (filters aligned with the state) preserve the
    # trace; kind 0 (generic selective operations) never does.
    record = quantum.biconditional_report(trials, d1, d2)
    expected = sum(k % 3 != 0 for k in range(trials))
    checks = run_trials(0, range(trials), record.draw, record.evaluate, record.tols)
    assert [c.evaluations for c in checks] == [trials, expected]
    rep = record.run(0)
    assert rep.details == {"trace_preserved_cases": expected}
    assert [c.name for c in rep.checks][1:] == ["no_trace_preserved_case"] * (trials > 1)


def _evaluations(record, seed: int, indices) -> dict:
    """``{check: evaluations}`` of ``record``'s trials ``indices``."""
    checks = run_trials(seed, indices, record.draw, record.evaluate, record.tols)
    return {c.name: c.evaluations for c in checks}


@pytest.mark.parametrize("d1,d2", [(2, 2), (3, 3)])
def test_quantum_nosig_evaluations_of_two_shards_add_up_to_the_full_run(d1, d2):
    cfg = SuiteConfig("quantum-nosig", trials=50, d1=d1, d2=d2, seed=4)
    random, biconditional = _trial_records(cfg, "quantum-nosig")
    for record in (random, biconditional):
        full = _evaluations(record, cfg.seed, range(50))
        halves = [_evaluations(record, cfg.seed, r) for r in (range(23), range(23, 50))]
        assert {name: halves[0][name] + halves[1][name] for name in full} == full, record.name
    # Haar-random outcomes never preserve the trace, so no trial evaluates that gate.
    assert _evaluations(random, cfg.seed, range(50)) == {
        "no_signaling": 50, "trace_preserving_outcomes": 0
    }


# ---------------------------------------------------------------------------
# `pass` follows from the printed checks
# ---------------------------------------------------------------------------

def _sub_reports(report: dict) -> list:
    return (report.get("details") or {}).get("sub_reports", [])


def _reports(report: dict):
    yield report
    for sub in _sub_reports(report):
        yield from _reports(sub)


def _json_report(argv, tmp_path, capsys):
    path = tmp_path / "out.json"
    code = main(argv + ["--json", str(path)])
    capsys.readouterr()
    return code, json.loads(path.read_text())["report"]


def test_opcore_gates_commutation_at_its_printed_tol(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "commutation_defect", lambda bip, a, b: 5e-10)
    code, report = _json_report(["--suite", "opcore", "--trials", "5"], tmp_path, capsys)
    assert code == 1
    failing = [r for r in _sub_reports(report) if not r["pass"]]
    assert [r["suite"].split("[")[0] for r in failing] == ["commutation-and-no-signaling"] * 3
    for sub in failing:
        assert sub["max_defect"] <= sub["tol"]  # the headline numbers alone would pass
        assert {"name": "commutation", "defect": 5e-10, "tol": 1e-10, "worst_trial": 0} in sub[
            "checks"
        ]


def test_dsum_gates_the_quotient_at_its_printed_tol(monkeypatch, tmp_path, capsys):
    real_condition, real_prob = cli.condition, cli.prob
    conditioned = []

    def condition(omega, t):
        conditioned.append(real_condition(omega, t))
        return conditioned[-1]

    def prob(state, t):
        shift = 5e-10 if any(state is c for c in conditioned) else 0.0
        return real_prob(state, t) + shift

    monkeypatch.setattr(cli, "condition", condition)
    monkeypatch.setattr(cli, "prob", prob)
    code, report = _json_report(["--suite", "dsum", "--trials", "5"], tmp_path, capsys)
    assert code == 1 and not report["pass"]
    assert report["max_defect"] <= report["tol"]
    quotient = {c["name"]: c for c in report["checks"]}["conditioning_quotient"]
    assert quotient["defect"] == pytest.approx(5e-10, rel=1e-5)
    assert quotient["tol"] == 1e-10


def test_random_quantum_nosig_keeps_the_per_outcome_verdict(monkeypatch, tmp_path, capsys):
    # Stacked defects that fail only on a trace-preserving outcome's reduced defect.
    def stub(rho, outcomes, d1, d2):
        n, m = len(rho), len(outcomes)
        return np.zeros(n), np.zeros((n, m)), np.full((n, m), 1e-6)

    columns = quantum.no_signaling_trial_defects(*stub([None], [None] * 2, 2, 3), 1e-8)
    assert [(name, np.arange(1)[rows].tolist(), d.tolist()) for name, rows, d in columns] == [
        ("no_signaling", [0], [0.0]),
        ("trace_preserving_outcomes", [0], [1e-6]),
    ]
    assert 1e-6 > quantum.REDUCED_TOL
    monkeypatch.setattr(cli, "quantum_no_signaling_defects", stub)
    argv = ["--suite", "quantum-nosig", "--trials", "5", "--d1", "2", "--d2", "3"]
    code, report = _json_report(argv, tmp_path, capsys)
    assert code == 1
    random = report["details"]["sub_reports"][0]
    assert random["suite"] == "quantum-no-signaling[random]"
    assert not random["pass"] and random["max_defect"] == 0.0
    assert {c["name"]: c["defect"] for c in random["checks"]}["trace_preserving_outcomes"] == 1e-6


@settings(max_examples=20, deadline=None)
@given(
    suite=st.sampled_from(SUITES),
    d1=st.integers(2, 3),
    d2=st.integers(2, 3),
    trials=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    outcomes=st.integers(2, 4),
    tol=st.sampled_from([1e-16, 1e-12, 1e-8, 1e-4]),
    fixture=st.sampled_from([None, "z-instrument", "mutant-instrument"]),
    box=st.sampled_from([None, "pr-box", "signaling-box"]),
)
def test_pass_is_all_checks_within_tol(suite, d1, d2, trials, seed, outcomes, tol, fixture, box):
    # A leaf's pass is all its checks within tol; a combined report's is all
    # its sub-reports ok.  The packaged fixtures act on qubits.
    d1 = 2 if fixture else d1
    cfg = SuiteConfig(suite, seed, trials, d1, d2, outcomes, tol, fixture=fixture, box=box)
    for sub in _reports(run_suite(cfg).to_dict()):
        subs = _sub_reports(sub)
        if subs:
            assert "checks" not in sub
            ok = [s["pass"] != s.get("expected_failure", False) for s in subs]
            assert sub["pass"] == all(ok), sub["suite"]
        else:
            assert sub["checks"], sub["suite"]
            passed = all(c["defect"] <= c["tol"] for c in sub["checks"])
            assert sub["pass"] == passed, sub["suite"]


# ---------------------------------------------------------------------------
# The lemma's trials are evaluated as stacked chunks
# ---------------------------------------------------------------------------

def _lemma_chunk(d1: int, d2: int) -> int:
    return report.CHUNK_ENTRIES // (d1 * d1 + (d1 * d2) ** 2)


def _spy_on_the_stacked_kernel(monkeypatch, plant=None):
    """Record each chunk's length and minimum eigenvalues; ``plant(lows, offset)``
    may overwrite some of them, ``offset`` being the chunk's first trial."""
    chunks, lows_seen = [], []
    real = cli.trusted_reduced_min_eigs

    def spy(a, g, d1, d2):
        lows = real(a, g, d1, d2)
        if plant is not None:
            plant(lows, sum(chunks))
        chunks.append(len(lows))
        lows_seen.extend(lows.tolist())
        return lows

    monkeypatch.setattr(cli, "trusted_reduced_min_eigs", spy)
    return chunks, lows_seen


@pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (6, 6)])
def test_stacked_lemma_equals_the_per_matrix_kernel_bit_for_bit(d1, d2, monkeypatch):
    chunk = _lemma_chunk(d1, d2)
    trials = chunk + chunk // 2 + 1
    chunks, lows = _spy_on_the_stacked_kernel(monkeypatch)
    rep = run_suite(SuiteConfig("lemma", seed=5, trials=trials, d1=d1, d2=d2))
    assert chunks == [chunk, trials - chunk]
    expected = []
    for k in range(trials):
        rng = trial_rng(5, k)
        a, g = gram(complex_gaussian(rng, d1, d1)), complex_gaussian(rng, d1 * d2, d1 * d2)
        # The same kernel on this trial alone.
        (low,) = quantum.trusted_reduced_min_eigs(hermitian_part(a)[None], g[None], d1, d2)
        expected.append(float(low))
        # The validating R route on R = G G^dag, the per-matrix formula one
        # 2-D call at a time: the factor kernel reassociates its product, so
        # the two agree within roundoff of the reduction's largest eigenvalue.
        r = gram(g)
        reference = quantum.reduced_positivity_min_eig(a, r, d1, d2)
        product = quantum._on_side1(require_psd(a, ""), require_psd(r, ""))
        reduced = partial_trace(product, d1, d2, side=1)
        assert reference == min_eig_herm(reduced)
        assert abs(low - reference) <= 1e-14 * max_eig_herm(reduced)
    assert lows == expected
    # The per-trial loop's fold of -min(low, 0.0) gives the same check.
    (check,) = _reference_fold(
        {k: {"reduced_positivity": -min(low, 0.0)} for k, low in enumerate(expected)},
        {"reduced_positivity": 1e-10},
    )
    assert rep.checks == (check,) and rep.passed


@pytest.mark.parametrize("planted,defect", [(math.nan, math.inf), (-1.0, 1.0)])
def test_a_planted_reduction_in_a_middle_chunk_fails_reduced_positivity(
    planted, defect, monkeypatch
):
    chunk, bad = _lemma_chunk(6, 6), 30

    def plant(lows, offset):
        if offset <= bad < offset + len(lows):
            lows[bad - offset] = planted

    chunks, _ = _spy_on_the_stacked_kernel(monkeypatch, plant)
    rep = run_suite(SuiteConfig("lemma", trials=60, d1=6, d2=6))
    assert chunks == [chunk, chunk, 60 - 2 * chunk] and chunk < bad < 2 * chunk
    (check,) = rep.checks
    assert check.name == "reduced_positivity" and not rep.passed
    assert check.defect == defect and check.worst_trial == bad


def test_a_nan_in_a_middle_lemma_draw_never_passes(monkeypatch):
    # np.linalg.eigvalsh can return finite eigenvalues for a matrix holding a
    # NaN, so only the validators' finiteness scan keeps this draw from passing.
    real, bad = cli._lemma_draw, 250

    def planted(cfg, rng, k):
        a, r = real(cfg, rng, k)
        if k == bad:
            r[0, 0] = math.nan
        return a, r

    monkeypatch.setattr(cli, "_lemma_draw", planted)
    try:
        rep = run_suite(SuiteConfig("lemma", trials=500, d1=2, d2=2))
    except ValueError as exc:
        assert "must be finite" in str(exc)
    else:
        assert not rep.passed


def test_a_nan_in_a_middle_lemma_draw_fails_its_own_trial(monkeypatch):
    real, bad = cli._lemma_draw, 250

    def planted(cfg, rng, k):
        a, r = real(cfg, rng, k)
        if k == bad:
            r[0, 0] = math.nan
        return a, r

    monkeypatch.setattr(cli, "_lemma_draw", planted)
    rep = run_suite(SuiteConfig("lemma", trials=500, d1=2, d2=2))
    (check,) = rep.checks
    assert check.name == "reduced_positivity" and not rep.passed
    assert check.defect == math.inf and check.worst_trial == bad


def _shapes_of_calls(monkeypatch, module, name: str) -> list:
    """The shapes of the first argument of every call of ``module.name``,
    made through any optheory module's binding of it."""
    calls, real = [], getattr(module, name)

    def counted(m, *args, **kwargs):
        calls.append(np.shape(m))
        return real(m, *args, **kwargs)

    for bound in [m for key, m in sys.modules.items() if key.split(".")[0] == "optheory"]:
        if getattr(bound, name, None) is real:
            monkeypatch.setattr(bound, name, counted)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_nan_in_a_middle_6x6_lemma_draw_fails_its_own_trial(monkeypatch):
    # At (6,6) a NaN in R's Gaussian makes the trial's whole reduction NaN,
    # on which eigvalsh does not converge: the kernel zeroes that reduction
    # first, or the chunk's stacked eigensolve raises.
    real, bad = cli._lemma_draw, 30

    def planted(cfg, rng, k):
        a, g = real(cfg, rng, k)
        if k == bad:
            g[0, 0] = math.nan
        return a, g

    monkeypatch.setattr(cli, "_lemma_draw", planted)
    rep = run_suite(SuiteConfig("lemma", trials=60, d1=6, d2=6))
    (check,) = rep.checks
    assert _lemma_chunk(6, 6) < bad < 2 * _lemma_chunk(6, 6)
    assert check.defect == math.inf and check.worst_trial == bad and not rep.passed


def test_the_lemma_runs_one_eigensolve_per_chunk_and_none_of_its_draws(monkeypatch):
    # The suite's G G^dag draws are PSD by construction: only the reductions
    # reach eigvalsh, one stacked call per chunk.  The reductions are read
    # from R's Gaussian factor: R = G G^dag is never formed, and no D x D
    # product is partial-traced.
    chunk = _lemma_chunk(6, 6)
    trials = 2 * chunk + 1
    calls = _shapes_of_calls(monkeypatch, np.linalg, "eigvalsh")
    grams = _shapes_of_calls(monkeypatch, sampling, "gram")
    traces = _shapes_of_calls(monkeypatch, linalg, "partial_trace")
    rep = run_suite(SuiteConfig("lemma", trials=trials, d1=6, d2=6))
    assert rep.passed and calls == [(chunk, 6, 6), (chunk, 6, 6), (1, 6, 6)]
    assert grams == calls and traces == []


@settings(max_examples=40, deadline=None)
@given(
    d1=st.integers(1, 4),
    d2=st.integers(1, 4),
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_trusted_lemma_kernel_equals_the_validating_one_within_roundoff(d1, d2, n, seed):
    # The trusted kernel reads Tr_1[(A (x) I) G G^dag] from G, the validating
    # one from R = G G^dag: one reassociated product.  Each form on a stack
    # equals itself on every pair alone, bit for bit.
    rng = np.random.default_rng(seed)
    ga, g = (complex_gaussian(rng, n * d, d).reshape(n, d, d) for d in (d1, d1 * d2))
    a, r = gram(ga), gram(g)
    trusted = quantum.trusted_reduced_min_eigs(hermitian_part(a), g, d1, d2)
    alone = [
        quantum.trusted_reduced_min_eigs(hermitian_part(a[k : k + 1]), g[k : k + 1], d1, d2)
        for k in range(n)
    ]
    assert trusted.tobytes() == np.concatenate(alone).tobytes()
    validated = quantum.reduced_positivity_min_eig(a, r, d1, d2)
    assert validated.tolist() == [quantum.reduced_positivity_min_eig(*p, d1, d2) for p in zip(a, r)]
    top = np.linalg.eigvalsh(partial_trace(quantum._on_side1(a, r), d1, d2, side=1))[:, -1]
    assert (np.abs(trusted - validated) <= 1e-14 * top).all()


def test_two_lemma_shards_split_inside_a_chunk_reproduce_the_full_run():
    cfg = SuiteConfig("lemma", seed=3, trials=60, d1=6, d2=6)
    chunk, split = _lemma_chunk(6, 6), 30
    assert chunk < split < 2 * chunk
    draw, evaluate = partial(cli._lemma_draw, cfg), partial(cli._lemma_evaluate, cfg)
    full = list(trial_outcomes(cfg.seed, range(60), draw, evaluate))
    halves = [
        list(trial_outcomes(cfg.seed, range(a, b), draw, evaluate))
        for a, b in ((0, split), (split, 60))
    ]
    assert _per_trial(halves[0]) | _per_trial(halves[1]) == _per_trial(full)
    tols = {"reduced_positivity": 1e-10}
    assert _merge(*(fold_checks(h, tols) for h in halves)) == fold_checks(full, tols)


# ---------------------------------------------------------------------------
# The framework invariants are evaluated as stacked chunks too
# ---------------------------------------------------------------------------

INVARIANT_CASES = [(QuantumModel(6), 150, 100), (DSumModel(6, 6), 80, 50)]


def _planted(model, plant):
    """A model of ``model``'s class whose stacked transformation distances
    pass through ``plant(distances)`` first."""

    cls = type(model)

    def transformation_distance(self, t1, t2):
        return plant(np.array(cls.transformation_distance(self, t1, t2), dtype=float))

    namespace = {"transformation_distance": transformation_distance}
    planted = type(f"Planted{cls.__name__}", (cls,), namespace)
    return planted(*(getattr(model, f.name) for f in fields(model) if f.init))


def _spy_on_invariant_chunks(monkeypatch):
    """Record each chunk's length in ``chunks``; while a chunk is evaluated,
    ``state["position"]`` is the position in it of trial ``state["bad"]``,
    or None when the chunk does not hold that trial."""
    chunks, state = [], {"bad": None}
    real = framework.invariant_defects

    def spy(model, *objects):
        offset, n = sum(chunks), len(objects[-1])
        chunks.append(n)
        bad = state["bad"]
        state["position"] = bad - offset if bad is not None and offset <= bad < offset + n else None
        return real(model, *objects)

    monkeypatch.setattr(framework, "invariant_defects", spy)
    return chunks, state


@pytest.mark.parametrize("model,trials,bad", INVARIANT_CASES, ids=lambda x: getattr(x, "name", x))
def test_a_planted_nan_distance_in_a_middle_chunk_fails_associativity(
    model, trials, bad, monkeypatch
):
    chunks, state = _spy_on_invariant_chunks(monkeypatch)
    state["bad"] = bad

    def plant(distances):
        if state["position"] is not None:
            distances[state["position"]] = math.nan
        return distances

    rep = framework.model_invariant_suite(_planted(model, plant), seed=1, trials=trials, outcomes=2)
    assert len(chunks) == 3 and chunks[0] == chunks[1] > chunks[2]
    assert chunks[0] < bad < 2 * chunks[0]
    checks = {c.name: c for c in rep.checks}
    assert not rep.passed
    for name in ("associativity", "identity_neutral", "distributivity"):
        assert checks[name].defect == math.inf and checks[name].worst_trial == bad, name
    assert checks["completeness"].passed


@pytest.mark.parametrize("model,trials,bad", INVARIANT_CASES, ids=lambda x: getattr(x, "name", x))
def test_a_planted_probability_shift_in_a_middle_chunk_fails_completeness(
    model, trials, bad, monkeypatch
):
    chunks, state = _spy_on_invariant_chunks(monkeypatch)
    state["bad"] = bad
    real_prob = framework.prob

    def shifted(omega, t):
        p = real_prob(omega, t)
        if t.label == "outcome0" and state["position"] is not None:
            p = p.copy()
            p[state["position"]] -= 1.0
        return p

    monkeypatch.setattr(framework, "prob", shifted)
    rep = framework.model_invariant_suite(model, seed=1, trials=trials, outcomes=2)
    assert chunks[0] < bad < 2 * chunks[0]
    (completeness,) = [c for c in rep.checks if c.name == "completeness"]
    assert completeness.defect == pytest.approx(1.0, abs=1e-12)
    assert completeness.worst_trial == bad
    assert [c.name for c in rep.checks if not c.passed] == ["completeness"]


@pytest.mark.parametrize("model,trials,split", INVARIANT_CASES, ids=lambda x: getattr(x, "name", x))
def test_two_invariant_shards_split_inside_a_chunk_reproduce_the_full_run(
    model, trials, split, monkeypatch
):
    calls = []
    real = report.trial_outcomes

    def spy(seed, indices, draw, evaluate):
        calls.append((draw, evaluate))
        return real(seed, indices, draw, evaluate)

    monkeypatch.setattr(report, "trial_outcomes", spy)
    framework.model_invariant_suite(model, seed=3, trials=1, outcomes=2)
    ((draw, evaluate),) = calls
    chunk = report._chunk_length(draw(trial_rng(3, 0), 0))
    assert chunk < split < 2 * chunk
    full = list(real(3, range(trials), draw, evaluate))
    halves = [
        list(real(3, range(a, b), draw, evaluate)) for a, b in ((0, split), (split, trials))
    ]
    assert _per_trial(halves[0]) | _per_trial(halves[1]) == _per_trial(full)
    tols = dict.fromkeys(framework._INVARIANTS, 1e-9)
    assert _merge(*(fold_checks(h, tols) for h in halves)) == fold_checks(full, tols)


# ---------------------------------------------------------------------------
# The dsum suite's trials are evaluated as stacked chunks too
# ---------------------------------------------------------------------------

DSUM_CFG = SuiteConfig("dsum", seed=3, trials=100, d1=6, d2=6)
DSUM_TOLS = {"commutation": 1e-12, "no_signaling": 1e-8, "conditioning_quotient": 1e-10}


def _dsum_outcomes(indices, evaluate=None) -> list:
    """The defect columns of the dsum suite's trials ``indices`` under
    DSUM_CFG, each chunk evaluated by ``evaluate`` (default: ``cli._dsum_evaluate``)."""
    model = DSumModel(DSUM_CFG.d1, DSUM_CFG.d2)
    draw = partial(cli._dsum_draw, DSUM_CFG, model)
    evaluate = evaluate or partial(cli._dsum_evaluate, model)
    return list(trial_outcomes(DSUM_CFG.seed, indices, draw, evaluate))


def test_a_planted_nan_in_a_middle_dsum_chunk_fails_commutation_at_its_trial(monkeypatch):
    trials, bad = range(DSUM_CFG.trials), 60
    clean = _dsum_outcomes(trials)
    chunks, real = [], cli.ds_finish_local_op

    def planted(side, *raw):
        # A NaN in trial ``bad``'s finished side-1 block, once its chunk is drawn.
        op = real(side, *raw)
        position = bad - sum(chunks[:-1])
        if side == 1 and 0 <= position < chunks[-1]:
            op.op_block.kraus[position, 0, 0, 0] = math.nan
        return op

    def evaluate(drawn):
        chunks.append(len(drawn))
        return cli._dsum_evaluate(DSumModel(DSUM_CFG.d1, DSUM_CFG.d2), drawn)

    monkeypatch.setattr(cli, "ds_finish_local_op", planted)
    outcomes = _dsum_outcomes(trials, evaluate)
    chunk = chunks[0]
    assert chunks == [chunk, chunk, DSUM_CFG.trials - 2 * chunk] and chunk < bad < 2 * chunk
    defects, clean_defects = _per_trial(outcomes).pop(bad), _per_trial(clean).pop(bad)
    assert _others(outcomes, bad) == _others(clean, bad)
    assert defects["commutation"] == math.inf
    assert defects["no_signaling"] == clean_defects["no_signaling"]
    # Its probability of the planted operation is NaN, so it joins no quotient.
    assert "conditioning_quotient" in clean_defects and "conditioning_quotient" not in defects
    commutation, no_signaling, quotient = fold_checks(outcomes, DSUM_TOLS)
    assert commutation.defect == math.inf and commutation.worst_trial == bad
    assert no_signaling.passed and quotient.passed


def test_two_dsum_shards_split_inside_a_chunk_reproduce_the_full_run():
    n, split = DSUM_CFG.trials, 60
    model = DSumModel(DSUM_CFG.d1, DSUM_CFG.d2)
    chunk = report._chunk_length(cli._dsum_draw(DSUM_CFG, model, trial_rng(DSUM_CFG.seed, 0), 0))
    assert chunk < split < 2 * chunk
    full = _dsum_outcomes(range(n))
    halves = [_dsum_outcomes(range(a, b)) for a, b in ((0, split), (split, n))]
    assert _per_trial(halves[0]) | _per_trial(halves[1]) == _per_trial(full)
    assert _merge(*(fold_checks(h, DSUM_TOLS) for h in halves)) == fold_checks(full, DSUM_TOLS)


# ---------------------------------------------------------------------------
# The composite and quantum no-signaling loops are evaluated as stacked chunks
# ---------------------------------------------------------------------------

def _shards_split_inside_a_chunk(seed: int, n: int, draw, evaluate) -> None:
    """Assert that two shards of trials 0..n-1, split inside the second chunk,
    reproduce the full run's outcomes and checks."""
    chunks = []

    def spy(drawn):
        chunks.append(len(drawn))
        return evaluate(drawn)

    full = list(trial_outcomes(seed, range(n), draw, spy))
    assert len(chunks) >= 3 and chunks[1] >= 2
    split = chunks[0] + chunks[1] // 2
    halves = [
        list(trial_outcomes(seed, range(a, b), draw, evaluate))
        for a, b in ((0, split), (split, n))
    ]
    assert _per_trial(halves[0]) | _per_trial(halves[1]) == _per_trial(full)
    tols = dict.fromkeys((check for check, _, _ in full), 1.0)
    assert _merge(*(fold_checks(h, tols) for h in halves)) == fold_checks(full, tols)


COMPOSITE_CFG = SuiteConfig("opcore", seed=4, d1=6, d2=6)
COMPOSITES = {
    "classical": framework.ClassicalBipartite,
    "quantum": quantum.QuantumBipartite,
    "dsum": DSumBipartite,
}


def _composite(kind: str):
    """The composite ``kind`` at COMPOSITE_CFG's dimensions, its draw and
    evaluate, and the length of its chunks."""
    bip = COMPOSITES[kind](COMPOSITE_CFG.d1, COMPOSITE_CFG.d2)
    draw = partial(cli._composite_draw, COMPOSITE_CFG, bip)
    chunk = report._chunk_length(draw(trial_rng(COMPOSITE_CFG.seed, 0), 0))
    return bip, draw, partial(cli._composite_evaluate, bip), chunk


@pytest.mark.parametrize("kind", sorted(COMPOSITES))
def test_two_composite_shards_split_inside_a_chunk_reproduce_the_full_run(kind):
    _, draw, evaluate, chunk = _composite(kind)
    _shards_split_inside_a_chunk(COMPOSITE_CFG.seed, 2 * chunk + chunk // 2, draw, evaluate)


def test_two_random_quantum_nosig_shards_split_inside_a_chunk_reproduce_the_full_run():
    cfg = SuiteConfig("quantum-nosig", seed=2, d1=6, d2=6)
    draw = partial(cli._quantum_nosig_draw, cfg)
    evaluate = partial(cli._quantum_nosig_evaluate, cfg)
    _shards_split_inside_a_chunk(cfg.seed, 60, draw, evaluate)


@pytest.mark.parametrize("d", [2, 6])
def test_a_planted_nan_in_a_middle_quantum_nosig_chunk_fails_no_signaling_at_its_trial(
    monkeypatch, tmp_path, capsys, d
):
    # A NaN in one trial's finished outcome stack: the middle trial of the
    # second of three chunks' first outcome-count group (a chunk's length
    # follows its first draw's outcome count).  Its shifts are not finite,
    # so the stacked SVD of its group must not raise: the trial alone fails
    # no_signaling, as +inf.
    cfg = SuiteConfig("quantum-nosig", d1=d, d2=d)
    chunk = report._chunk_length(cli._quantum_nosig_draw(cfg, trial_rng(cfg.seed, 0), 0))
    cfg = replace(cfg, trials=2 * chunk + chunk // 2)
    draw = partial(cli._quantum_nosig_draw, cfg)
    evaluate_clean = partial(cli._quantum_nosig_evaluate, cfg)
    clean = list(trial_outcomes(cfg.seed, range(cfg.trials), draw, evaluate_clean))
    chunks, planted = [], {}
    real_evaluate, real_finish = cli._quantum_nosig_evaluate, cli.finish_outcomes

    def evaluate(cfg, drawn):
        chunks.append(len(drawn))
        if len(chunks) == 2:
            counts = np.array([n_out for _, n_out, _ in drawn])
            group = np.flatnonzero(counts == counts[0])
            planted["position"] = len(group) // 2
            planted["trial"] = chunks[0] + int(group[len(group) // 2])
        return real_evaluate(cfg, drawn)

    def finish(a, d1):
        outcomes = real_finish(a, d1)
        if "position" in planted:
            outcomes[0].kraus[planted.pop("position"), 0, 0, 0] = math.nan
        return outcomes

    monkeypatch.setattr(cli, "finish_outcomes", finish)
    outcomes = list(trial_outcomes(cfg.seed, range(cfg.trials), draw, partial(evaluate, cfg)))
    bad = planted["trial"]
    assert len(chunks) == 3 and chunks[0] < bad < chunks[0] + chunks[1]
    assert math.isnan(_per_trial(outcomes)[bad]["no_signaling"])
    assert _others(outcomes, bad) == _others(clean, bad)
    no_signaling, gate = fold_checks(outcomes, QNOSIG_TOLS)
    assert no_signaling.defect == math.inf and no_signaling.worst_trial == bad
    assert gate.passed

    chunks.clear()
    monkeypatch.setattr(cli, "_quantum_nosig_evaluate", evaluate)
    argv = ["--suite", "quantum-nosig", "--trials", str(cfg.trials), "--d1", str(d), "--d2", str(d)]
    code, result = _json_report(argv, tmp_path, capsys)
    assert code == 1 and planted["trial"] == bad
    random, *others = result["details"]["sub_reports"]
    checks = {c["name"]: c for c in random["checks"]}
    assert checks["no_signaling"]["defect"] == math.inf
    assert checks["no_signaling"]["worst_trial"] == bad
    assert not random["pass"] and all(sub["pass"] for sub in others)


@pytest.mark.parametrize("d", [2, 6])
def test_a_planted_nan_in_a_biconditional_draw_fails_its_trial_alone(d):
    # A NaN in the Gaussian of trial 7's M (a kind 1 channel, grouped with
    # trials 1, 4, ...): its reduced shift is not finite, so the stacked SVD
    # of its group must not raise, and the trial alone fails the check.
    record, bad = quantum.biconditional_report(30, d, d), 7

    def planted(rng, k):
        kind, count, a, g = record.draw(rng, k)
        if k == bad:
            a[0, 0] = math.nan
        return kind, count, a, g

    clean = list(trial_outcomes(0, range(30), record.draw, record.evaluate))
    outcomes = list(trial_outcomes(0, range(30), planted, record.evaluate))
    assert math.isnan(_per_trial(outcomes)[bad]["biconditional"])
    assert _others(outcomes, bad) == _others(clean, bad)
    biconditional, _ = fold_checks(outcomes, record.tols)
    assert biconditional.defect == math.inf and biconditional.worst_trial == bad


def test_a_nan_in_a_quantum_nosig_joint_state_fails_no_signaling_at_its_trial(
    monkeypatch, tmp_path, capsys
):
    # A NaN in the Gaussian of trial 7's joint state.  Its G G^dag gets a
    # finite stand-in before unit_trace and the validators of the stack, so
    # the run does not raise and the trial alone fails no_signaling, as +inf.
    cfg, bad, real = SuiteConfig("quantum-nosig", trials=30, d1=2, d2=2), 7, cli._quantum_nosig_draw

    def planted(cfg, rng, k):
        g, n_out, a = real(cfg, rng, k)
        if k == bad:
            g[0, 0] = math.nan
        return g, n_out, a

    evaluate = partial(cli._quantum_nosig_evaluate, cfg)
    clean = list(trial_outcomes(cfg.seed, range(30), partial(real, cfg), evaluate))
    outcomes = list(trial_outcomes(cfg.seed, range(30), partial(planted, cfg), evaluate))
    assert math.isnan(_per_trial(outcomes)[bad]["no_signaling"])
    assert _others(outcomes, bad) == _others(clean, bad)
    no_signaling, gate = fold_checks(outcomes, QNOSIG_TOLS)
    assert no_signaling.defect == math.inf and no_signaling.worst_trial == bad
    assert gate.passed

    monkeypatch.setattr(cli, "_quantum_nosig_draw", planted)
    code, result = _json_report(["--suite", "quantum-nosig", "--trials", "30"], tmp_path, capsys)
    random, *others = result["details"]["sub_reports"]
    checks = {c["name"]: c for c in random["checks"]}
    assert code == 1 and checks["no_signaling"]["defect"] == math.inf
    assert checks["no_signaling"]["worst_trial"] == bad
    assert not random["pass"] and all(sub["pass"] for sub in others)


@pytest.mark.parametrize("bad", [7, 8])
@pytest.mark.parametrize("d", [2, 6])
def test_a_nan_in_a_biconditional_joint_state_fails_its_trial_alone(d, bad):
    # A NaN in the Gaussian of R of trial 7 (a kind 1 channel) or 8 (a kind 2
    # filter, which filters R before unit_trace).  Its G G^dag gets a finite
    # stand-in before unit_trace and partial_trace, so the run does not
    # raise, and the trial alone fails the check, as +inf.
    record = quantum.biconditional_report(30, d, d)

    def planted(rng, k):
        kind, count, a, g = record.draw(rng, k)
        if k == bad:
            g[0, 0] = math.nan
        return kind, count, a, g

    clean = list(trial_outcomes(0, range(30), record.draw, record.evaluate))
    outcomes = list(trial_outcomes(0, range(30), planted, record.evaluate))
    assert math.isnan(_per_trial(outcomes)[bad]["biconditional"])
    assert _others(outcomes, bad) == _others(clean, bad)
    biconditional, _ = fold_checks(outcomes, record.tols)
    assert biconditional.defect == math.inf and biconditional.worst_trial == bad


def test_two_trace_biconditional_shards_split_inside_a_chunk_reproduce_the_full_run(monkeypatch):
    calls = []
    real = report.trial_outcomes

    def spy(seed, indices, draw, evaluate):
        calls.append((draw, evaluate))
        return real(seed, indices, draw, evaluate)

    monkeypatch.setattr(report, "trial_outcomes", spy)
    quantum.trace_biconditional_check(trials=1, d1=6, d2=6, seed=2)
    ((draw, evaluate),) = calls
    _shards_split_inside_a_chunk(2, 60, draw, evaluate)


@pytest.mark.parametrize("kind", ["classical", "quantum", "dsum"])
def test_a_planted_nan_in_a_middle_composite_chunk_fails_commutation_at_its_trial(
    kind, monkeypatch
):
    bip, draw, evaluate, chunk = _composite(kind)
    trials, bad = range(2 * chunk + chunk // 2), chunk + chunk // 2
    clean = list(trial_outcomes(COMPOSITE_CFG.seed, trials, draw, evaluate))
    chunks, real = [], cli.commutation_defect

    def planted(bip, ta, tb):
        # A NaN in trial ``bad``'s finished left transformation, once its chunk is drawn.
        position = bad - sum(chunks)
        # A classical stack is an (n, d, d) array, a quantum one an (n, r, d, d) Kraus array.
        stack = ta.payload if isinstance(ta.payload, np.ndarray) else ta.payload.kraus
        n = len(stack)
        chunks.append(n)
        if 0 <= position < n:
            stack[(position,) + (0,) * (stack.ndim - 1)] = math.nan
        return real(bip, ta, tb)

    monkeypatch.setattr(cli, "commutation_defect", planted)
    outcomes = list(trial_outcomes(COMPOSITE_CFG.seed, trials, draw, evaluate))
    assert chunks == [chunk, chunk, len(trials) - 2 * chunk] and chunk < bad < 2 * chunk
    defects, clean_defects = _per_trial(outcomes).pop(bad), _per_trial(clean).pop(bad)
    assert _others(outcomes, bad) == _others(clean, bad)
    assert report.worst_defect(defects["commutation"]) == math.inf
    assert defects["no_signaling"] == clean_defects["no_signaling"]
    commutation, no_signaling = fold_checks(outcomes, {"commutation": 1e-10, "no_signaling": 1e-8})
    assert commutation.defect == math.inf and commutation.worst_trial == bad
    assert no_signaling.passed


def test_a_leaky_stacked_quantum_embedding_fails_opcore_commutation(
    monkeypatch, tmp_path, capsys
):
    # Planted defect: embedding a right operation also flips side 1, on every
    # trial of a stack.
    real = quantum.QuantumBipartite._embed

    def leaky(self, t, side):
        embedded = real(self, t, side)
        if side == 1:
            return embedded
        flip = np.kron(quantum.PAULI_X, np.eye(self.d2))
        return quantum.KrausOp._trusted(embedded.kraus @ flip)

    monkeypatch.setattr(quantum.QuantumBipartite, "_embed", leaky)
    code, rep = _json_report(["--suite", "opcore", "--trials", "10"], tmp_path, capsys)
    assert code == 1
    failing = {r["suite"] for r in _sub_reports(rep) if not r["pass"]}
    assert failing == {"commutation-and-no-signaling[quantum(4)]"}
    (sub,) = [r for r in _sub_reports(rep) if r["suite"] in failing]
    commutation = {c["name"]: c for c in sub["checks"]}["commutation"]
    assert commutation["defect"] > 1e-3 > commutation["tol"]
