"""Tests of the benchmark itself: metrics emitted, tracer arithmetic, checks.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from checks import check_verdict  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FOCUS, Verdict  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(FOCUS))
def test_every_workload_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if trace and workload == "small-dims":
        # quantum calls partial_trace only through its own `from .linalg import` binding.
        assert result["metrics"]["linalg.partial_trace.calls"]["value"] > 0


def test_workloads_match_benchmark_json():
    assert sorted(FOCUS) == sorted(w["name"] for w in SPEC["workloads"])


def test_self_time_is_parent_minus_children():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: time.sleep(0.002), "t.leaf")

    def mid_body():
        leaf()
        leaf()
        time.sleep(0.001)

    mid = tracer.wrap(mid_body, "t.mid")
    top = tracer.wrap(lambda: (mid(), leaf()), "t.top")
    top()

    stats = tracer.take_round()["functions"]
    names = [tracer.names[i] for i in tracer.span_name]
    duration = [e - s for s, e in zip(tracer.span_start, tracer.span_end)]
    children = [0.0] * len(names)
    for i, parent in enumerate(tracer.span_parent):
        if parent >= 0:
            children[parent] += duration[i]
    for name in ("t.leaf", "t.mid", "t.top"):
        expected = sum(duration[i] - children[i] for i in range(len(names)) if names[i] == name)
        assert stats[name]["self_s"] == pytest.approx(expected, abs=1e-9)
    assert [stats[n]["calls"] for n in ("t.leaf", "t.mid", "t.top")] == [3, 1, 1]
    top_span = names.index("t.top")
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(duration[top_span], abs=1e-9)
    assert stats["t.mid"]["self_s"] >= 0.001 and stats["t.top"]["self_s"] < 0.001


def test_errors_count_exceptions_leaving_a_call():
    tracer = Tracer()

    def fail():
        raise ValueError("planted")

    wrapped = tracer.wrap(fail, "t.fail")
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.take_round()["functions"]["t.fail"] == {
        "calls": 1, "self_s": pytest.approx(0.0, abs=0.01), "errors": 1
    }


def test_install_wraps_every_binding_and_uninstall_restores():
    import optheory.linalg as linalg
    import optheory.quantum as quantum
    from optheory.sampling import ginibre_positive, trial_rng

    original = linalg.partial_trace
    tracer = Tracer("optheory")
    tracer.install()
    try:
        assert quantum.partial_trace is linalg.partial_trace is not original
        assert quantum.KrausOp.trace_operator.__wrapped__ is not None
        rng = trial_rng(0, 0)
        quantum.reduced_positivity_min_eig(ginibre_positive(rng, 2), ginibre_positive(rng, 4), 2, 2)
    finally:
        tracer.uninstall()
    assert quantum.partial_trace is original and linalg.partial_trace is original
    assert tracer.take_round()["functions"]["linalg.partial_trace"]["calls"] > 0


def test_end_to_end_scales_each_verdict_by_its_own_host_factor():
    from worker import end_to_end

    verdicts = [Verdict(suite) for suite in ("opcore", "quantum-nosig", "lemma", "dsum")]
    verdicts.append(Verdict("tomo-audit", 6, 6))
    rounds = [
        {"traced": False, "times": [1.0] * 4 + [4.0], "factors": [0.5] * 4 + [2.0]},
        {"traced": False, "times": [3.0] * 4 + [6.0], "factors": [1.0] * 4 + [3.0]},
        {"traced": True, "times": [9.0] * 5, "factors": [1.0] * 5},
    ]
    out = end_to_end(rounds, verdicts)
    assert out["verdict_s.lemma"] == {"value": 2.5, "raw": 2.0, "samples": 2}
    assert out["verdict_s.tomo-audit"] == {"value": 2.0, "raw": 5.0, "samples": 2}
    assert out["wall_s"] == {"value": 12.0, "raw": 13.0, "samples": 2}


def _report(tmp_path, report: dict) -> str:
    path = tmp_path / "verdict.json"
    path.write_text(json.dumps({"report": report}))
    return str(path)


def test_checks_flag_wrong_outputs(tmp_path):
    good_row = {"model": "quantum 2x2", "adm_states": 15, "lop_ambient": 16, "lop_rank": 16}
    rows = [
        {"model": "classical 2x2", "adm_states": 3, "lop_ambient": 4, "lop_rank": 4},
        good_row,
        {"model": "dsum 2+2", "adm_states": 7, "lop_ambient": 16, "lop_rank": 8},
    ]
    tomo = Verdict("tomo-audit")
    report = {"suite": "tomo-audit", "pass": True, "max_defect": 0.0, "tol": 0.0, "details": {"rows": rows}}
    assert check_verdict(tomo, 0, _report(tmp_path, report)) == ([], 0.0)

    rows[1] = {**good_row, "lop_rank": 15}
    assert check_verdict(tomo, 0, _report(tmp_path, report))[0]
    assert check_verdict(tomo, 1, _report(tmp_path, report))[0]  # wrong exit code

    sub = {"suite": "lemma", "pass": True, "max_defect": float("nan"), "tol": 1e-10}
    lemma = {"suite": "lemma", "pass": True, "max_defect": 0.0, "tol": 1e-10, "details": {"sub_reports": [sub]}}
    assert check_verdict(Verdict("lemma"), 0, _report(tmp_path, lemma))[0]

    landmarks = {"classical_max": 2.0, "pr_chsh": 4.0, "singlet_chsh": 2.83}
    box = {"suite": "boxworld", "pass": True, "max_defect": 0.0, "tol": 1e-9,
           "details": {"sub_reports": [{"suite": "boxworld[landmarks]", "pass": True,
                                        "max_defect": 0.0, "tol": 1e-9, "details": landmarks}]}}
    assert check_verdict(Verdict("boxworld"), 0, _report(tmp_path, box))[0]
    assert check_verdict(Verdict("lemma"), 0, str(tmp_path / "missing.json"))[0]


def _failed(suite: str, witness: dict | None) -> dict:
    sub = {"suite": f"{suite}[fixture]", "pass": False, "max_defect": 0.1, "tol": 1e-8, "witness": witness}
    return {"suite": suite, "pass": False, "max_defect": 0.1, "tol": 1e-8, "details": {"sub_reports": [sub]}}


def test_checks_require_mutants_caught_for_the_right_reason(tmp_path):
    mutant = Verdict("quantum-nosig", fixture="mutant-instrument", expect_exit=1)
    rejected = _failed("quantum-nosig", {"rejected_fixture": "mutant-instrument", "reason": "defect"})
    assert check_verdict(mutant, 1, _report(tmp_path, rejected))[0] == []
    # Exit 1 from a plain no-signaling failure: validation at the boundary was skipped.
    assert check_verdict(mutant, 1, _report(tmp_path, _failed("quantum-nosig", None)))[0]

    box = Verdict("boxworld", box="signaling-box", expect_exit=1)
    flagged = _failed("boxworld", {"box": [1.0] + [0.0] * 15, "chsh": 2.0})
    assert check_verdict(box, 1, _report(tmp_path, flagged))[0] == []
    refused = _failed("boxworld", {"rejected_fixture": "signaling-box", "reason": "bad box"})
    assert check_verdict(box, 1, _report(tmp_path, refused))[0]
