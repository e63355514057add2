"""Checks one verdict's exit code and JSON report against the paper's results."""

from __future__ import annotations

import json
import math

from workloads import Verdict

LANDMARK_TOL = 1e-9


def _leaves(report: dict):
    subs = (report.get("details") or {}).get("sub_reports")
    if not subs:
        yield report
        return
    for sub in subs:
        yield from _leaves(sub)


def _boxworld_landmarks(report: dict, v: Verdict) -> list[str]:
    found = report["details"]["sub_reports"][0]["details"]
    expected = {"classical_max": 2.0, "singlet_chsh": 2.0 * math.sqrt(2.0), "pr_chsh": 4.0}
    return [
        f"{key} = {found[key]!r}, expected {value!r}"
        for key, value in expected.items()
        if not abs(found[key] - value) <= LANDMARK_TOL
    ]


def _tomo_rows(report: dict, v: Verdict) -> list[str]:
    d1, d2 = v.d1, v.d2
    rows = {r["model"].split()[0]: r for r in report["details"]["rows"]}
    # adm(S) of the joint state space, its ambient effect dimension, and the
    # rank that locally generated effects must reach: full for the tensor
    # composites, d1^2 + d2^2 for the direct sum.
    expected = {
        "classical": (d1 * d2 - 1, d1 * d2, d1 * d2),
        "quantum": ((d1 * d2) ** 2 - 1, (d1 * d2) ** 2, (d1 * d2) ** 2),
        "dsum": (d1 * d1 + d2 * d2 - 1, (d1 + d2) ** 2, d1 * d1 + d2 * d2),
    }
    problems = []
    for model, (adm, ambient, rank) in expected.items():
        row = rows.get(model)
        if row is None:
            problems.append(f"no {model} row")
            continue
        got = (row["adm_states"], row["lop_ambient"], row["lop_rank"])
        if got != (adm, ambient, rank):
            problems.append(f"{model} (adm, ambient, rank) = {got}, expected {(adm, ambient, rank)}")
    return problems


def _mutant_caught(report: dict, v: Verdict) -> list[str]:
    """The mutant instrument must be rejected at the input boundary (its trace
    operators do not sum to I); the signaling box is a valid box, and the
    no-signaling check itself must flag it."""
    witnesses = [sub.get("witness") or {} for sub in _leaves(report) if not sub["pass"]]
    if v.fixture is not None:
        if not any(w.get("rejected_fixture") == v.fixture for w in witnesses):
            return [f"{v.fixture} not rejected at the input boundary"]
    elif not any("box" in w and "rejected_fixture" not in w for w in witnesses):
        return [f"{v.box} not flagged by the no-signaling check"]
    return []


LANDMARKS = {"boxworld": _boxworld_landmarks, "tomo-audit": _tomo_rows}


def check_verdict(v: Verdict, exit_code: int | None, json_path: str) -> tuple[list[str], float | None]:
    """Problems found in one verdict's output, and its report's ``max_defect``.

    A verdict is correct when its exit code is the expected one, its JSON
    parses and its ``pass`` agrees with the exit code, every passing
    sub-report has ``max_defect <= tol`` (NaN fails), and the suite's
    landmarks hold, or a packaged mutant is caught for the right reason.
    """
    problems = []
    if exit_code != v.expect_exit:
        problems.append(f"exit code {exit_code}, expected {v.expect_exit}")
    try:
        with open(json_path) as fh:
            report = json.load(fh)["report"]
        if report["pass"] != (exit_code == 0):
            problems.append(f"pass={report['pass']} disagrees with exit code {exit_code}")
        for sub in _leaves(report):
            if sub["pass"] and not sub["max_defect"] <= sub["tol"]:
                problems.append(f"{sub['suite']} passes with max_defect {sub['max_defect']} > tol {sub['tol']}")
        if v.fixture is not None or v.box is not None:
            problems += _mutant_caught(report, v)
        else:
            problems += LANDMARKS.get(v.suite, lambda *_: [])(report, v)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return problems + [f"unreadable report: {exc!r}"], None
    return problems, float(report["max_defect"])
