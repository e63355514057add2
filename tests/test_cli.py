"""Suite runner: exit codes, determinism, fixtures, JSON schema."""

import json
import math
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from optheory import cli
from optheory.cli import SuiteConfig, UsageError, exit_code, main, run_suite
from optheory.fixtures import (
    instrument_from_json,
    instrument_to_json,
    load_box,
    load_instrument,
)
from optheory.boxes import pr_box
from optheory.directsum import DSumModel, ds_random_local_op
from optheory.linalg import min_eig_herm, partial_trace, tensor
from optheory.quantum import PAULI_X, KrausOp, z_instrument
from optheory.report import Check, VerificationReport, combine_reports

MUTANT_FILE = Path(str(resources.files("optheory").joinpath("data", "mutant_instrument.json")))


class TestSuiteConfig:
    def test_defaults_valid(self):
        SuiteConfig(suite="lemma").validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"suite": "bogus"},
            {"suite": "lemma", "seed": -1},
            {"suite": "lemma", "trials": 0},
            {"suite": "lemma", "d1": 7},
            {"suite": "lemma", "d2": 1},
            {"suite": "lemma", "outcomes": 17},
            {"suite": "lemma", "tol": 0.0},
            {"suite": "lemma", "outcomes": 1},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(UsageError):
            SuiteConfig(**kwargs).validate()


@pytest.mark.parametrize(
    "suite", ["opcore", "quantum-nosig", "lemma", "dsum", "tomo-audit", "boxworld"]
)
def test_each_suite_passes(suite):
    report = run_suite(SuiteConfig(suite=suite, trials=20, seed=3))
    assert exit_code(report) == 0, report.summary()


def test_one_trial_passes(capsys):
    assert main(["--suite", "all", "--trials", "1"]) == 0
    capsys.readouterr()


def test_exit_code_reflects_expectation():
    ok = VerificationReport.from_checks("x", 0, 1, [Check("a", 0.0, 1e-9)], 1e-9)
    bad = VerificationReport.from_checks("x", 0, 1, [Check("a", 1.0, 1e-9)], 1e-9)
    expected_fail = replace(bad, expected_failure=True)
    assert exit_code(ok) == 0
    assert exit_code(bad) == 1
    assert exit_code(expected_fail) == 0
    assert exit_code(combine_reports("both", [ok, expected_fail])) == 0
    assert exit_code(combine_reports("both", [ok, bad])) == 1


class TestDeterminism:
    def test_identical_flags_identical_json(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code = main(
                ["--suite", "lemma", "--trials", "25", "--seed", "9", "--json", str(p)]
            )
            assert code == 0
        capsys.readouterr()
        payloads = [json.loads(p.read_text()) for p in paths]
        raw = [p.read_text() for p in paths]
        for payload in payloads:
            assert set(payload) == {"config", "report", "timestamp"}
            payload.pop("timestamp")
        assert payloads[0] == payloads[1]
        # Byte-identical other than the timestamp line.
        lines = [
            [ln for ln in text.splitlines() if '"timestamp"' not in ln] for text in raw
        ]
        assert lines[0] == lines[1]

    @pytest.mark.parametrize(
        "suite,ignored",
        [
            ("opcore", {"fixture", "box"}),
            ("quantum-nosig", {"outcomes", "box"}),
            ("lemma", {"outcomes", "tol", "fixture", "box"}),
            ("dsum", {"fixture", "box"}),
            ("tomo-audit", {"trials", "outcomes", "tol", "fixture", "box"}),
            ("boxworld", {"seed", "trials", "d1", "d2", "outcomes", "tol", "fixture"}),
            ("all", set()),
        ],
    )
    def test_config_echoes_only_flags_that_matter(self, suite, ignored, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["--suite", suite, "--trials", "5", "--seed", "1", "--json", str(path)]) == 0
        capsys.readouterr()
        config = json.loads(path.read_text())["config"]
        flags = {"suite", "seed", "trials", "d1", "d2", "outcomes", "tol", "fixture", "box"}
        assert set(config) == flags - ignored
        assert config["suite"] == suite

    def test_seed_changes_report(self):
        a = run_suite(SuiteConfig(suite="quantum-nosig", trials=10, seed=1))
        b = run_suite(SuiteConfig(suite="quantum-nosig", trials=10, seed=2))
        assert a.to_dict() != b.to_dict()

    def test_same_seed_same_report(self):
        a = run_suite(SuiteConfig(suite="dsum", trials=15, seed=4))
        b = run_suite(SuiteConfig(suite="dsum", trials=15, seed=4))
        assert a.to_dict() == b.to_dict()


class TestMutantDetection:
    def test_mutant_instrument_rejected(self, capsys):
        code = main(
            ["--suite", "quantum-nosig", "--fixture", "mutant-instrument", "--trials", "5"]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_mutant_instrument_from_file(self, capsys):
        code = main(
            [
                "--suite",
                "quantum-nosig",
                "--fixture",
                str(MUTANT_FILE),
                "--trials",
                "5",
            ]
        )
        assert code == 1
        capsys.readouterr()

    def test_signaling_box_rejected(self, capsys):
        code = main(["--suite", "boxworld", "--box", "signaling-box"])
        assert code == 1
        capsys.readouterr()

    def test_nan_box_fixture_rejected_at_load(self, tmp_path, capsys):
        # A Popescu-Rohrlich box with one NaN entry is bad input, not a signaling box.
        entries = pr_box().to_json()
        entries[12] = float("nan")
        box_path = tmp_path / "nan_box.json"
        box_path.write_text(json.dumps({"p": entries}))
        out_path = tmp_path / "out.json"
        code = main(["--suite", "boxworld", "--box", str(box_path), "--json", str(out_path)])
        assert code == 1
        capsys.readouterr()
        (sub,) = json.loads(out_path.read_text())["report"]["details"]["sub_reports"]
        assert sub["witness"]["rejected_fixture"] == str(box_path)
        assert "finite" in sub["witness"]["reason"]

    @pytest.mark.parametrize(
        "flag,suite,content",
        [
            ("--fixture", "quantum-nosig", [[{"rows": 2}]]),
            ("--fixture", "quantum-nosig", [1]),
            ("--box", "boxworld", {"a": 1}),
            ("--box", "boxworld", {"p": {"x": 1}}),
        ],
        ids=[
            "instrument-missing-key",
            "instrument-wrong-type",
            "box-missing-key",
            "box-wrong-type",
        ],
    )
    def test_malformed_fixture_rejected_at_load(self, flag, suite, content, tmp_path, capsys):
        # Valid JSON without the expected structure is bad input: exit 1 with
        # a rejected_fixture witness, not a traceback.
        fixture_path = tmp_path / "malformed.json"
        fixture_path.write_text(json.dumps(content))
        out_path = tmp_path / "out.json"
        code = main(["--suite", suite, flag, str(fixture_path), "--json", str(out_path)])
        assert code == 1
        capsys.readouterr()
        subs = json.loads(out_path.read_text())["report"]["details"]["sub_reports"]
        (witness,) = [s["witness"] for s in subs if s["witness"]]
        assert witness["rejected_fixture"] == str(fixture_path)
        assert witness["reason"].startswith("malformed fixture")

    def test_dsum_suite_runs_on_from_local(self, monkeypatch, capsys):
        # Planted defect: the passive sector gets sqrt(p) X instead of sqrt(p) I
        # (qubit sectors, the default), so opposite-side operations stop
        # commuting.  The suite must see it.
        def leaky_from_local(self, op):
            passive = KrausOp([np.sqrt(op.p) * PAULI_X])
            blocks = (op.op_block, passive) if op.side == 1 else (passive, op.op_block)
            return self.transformation(*blocks, op.label)

        monkeypatch.setattr(DSumModel, "from_local", leaky_from_local)
        assert main(["--suite", "dsum", "--trials", "5"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_nan_in_a_model_built_payload_fails_its_check(self, monkeypatch, tmp_path, capsys):
        # Kernels store what they derive from a validated operation unchecked,
        # so a NaN planted in the first drawn block must reach the named
        # commutation check (as +inf) instead of raising in compose_kraus.
        draws = []

        def planted(rng, side, d):
            op = ds_random_local_op(rng, side, d)
            if not draws:
                op.op_block.kraus[0, 0, 0] = np.nan
            draws.append(op)
            return op

        monkeypatch.setattr(cli, "ds_random_local_op", planted)
        out = tmp_path / "out.json"
        assert main(["--suite", "dsum", "--trials", "3", "--json", str(out)]) == 1
        capsys.readouterr()
        report = json.loads(out.read_text())["report"]
        commutation = next(c for c in report["checks"] if c["name"] == "commutation")
        assert commutation["defect"] == math.inf and commutation["worst_trial"] == 0
        assert not report["pass"]

    def test_pr_box_posing_as_the_singlet_fails_singlet_chsh(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "singlet_box", lambda angles: pr_box())
        out = tmp_path / "out.json"
        assert main(["--suite", "boxworld", "--json", str(out)]) == 1
        capsys.readouterr()
        (landmarks,) = json.loads(out.read_text())["report"]["details"]["sub_reports"]
        failing = [c["name"] for c in landmarks["checks"] if c["defect"] > c["tol"]]
        assert failing == ["singlet_chsh"] and not landmarks["pass"]

    def test_flipped_reduction_fails_reduced_positivity(self, monkeypatch, tmp_path, capsys):
        # Planted defect: the lemma reads the spectrum of -Tr_1[(A (x) I) R],
        # whose smallest eigenvalue is minus the largest one of the reduction.
        flipped_defects = []

        def flipped(a, r, d1, d2):
            low = min_eig_herm(-partial_trace(tensor(a, np.eye(d2)) @ r, d1, d2, side=1))
            flipped_defects.append(-low)
            return low

        monkeypatch.setattr(cli, "reduced_positivity_min_eig", flipped)
        out = tmp_path / "out.json"
        assert main(["--suite", "lemma", "--json", str(out)]) == 1
        capsys.readouterr()
        report = json.loads(out.read_text())["report"]
        (check,) = report["checks"]
        assert check["name"] == "reduced_positivity" and not report["pass"]
        assert check["defect"] > 1000 * check["tol"]
        assert check["defect"] == max(flipped_defects)
        assert check["worst_trial"] == flipped_defects.index(max(flipped_defects))

    def test_valid_fixture_instrument_passes(self, capsys):
        code = main(["--suite", "quantum-nosig", "--fixture", "z-instrument", "--trials", "5"])
        assert code == 0
        capsys.readouterr()

    def test_valid_box_fixture_passes(self, capsys):
        code = main(["--suite", "boxworld", "--box", "pr-box"])
        assert code == 0
        capsys.readouterr()


class TestUsageErrors:
    def test_unknown_suite_exits_two(self, capsys):
        assert main(["--suite", "nonsense"]) == 2
        capsys.readouterr()

    def test_bad_dimension_exits_two(self, capsys):
        assert main(["--suite", "lemma", "--d1", "9"]) == 2
        capsys.readouterr()

    def test_missing_fixture_file_exits_two(self, capsys):
        assert main(["--suite", "quantum-nosig", "--fixture", "/no/such.json"]) == 2
        assert "usage error" in capsys.readouterr().err


class TestFixtures:
    def test_named_instruments(self):
        for name in ("z-instrument", "x-instrument"):
            inst = load_instrument(name)
            assert inst.completeness_defect() <= 1e-12

    def test_instrument_json_roundtrip(self, tmp_path):
        inst = z_instrument()
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instrument_to_json(inst)))
        again = load_instrument(str(path))
        for a, b in zip(again.outcomes, inst.outcomes):
            assert np.allclose(a.kraus[0], b.kraus[0])

    def test_mutant_file_contents(self):
        obj = json.loads(MUTANT_FILE.read_text())
        with pytest.raises(Exception):
            instrument_from_json(obj)

    def test_signaling_box_fixture_matches_builtin(self):
        from optheory.boxes import signaling_box

        assert np.array_equal(load_box("signaling-box").table, signaling_box().table)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_instrument("/nonexistent/inst.json")

    @pytest.mark.parametrize(
        "load,content",
        [(load_instrument, [[{"rows": 2}]]), (load_box, {"a": 1})],
        ids=["instrument", "box"],
    )
    def test_malformed_file_raises_value_error(self, load, content, tmp_path):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(content))
        with pytest.raises(ValueError, match="malformed fixture"):
            load(str(path))


def test_report_json_schema():
    report = run_suite(SuiteConfig(suite="lemma", trials=5, seed=0))
    obj = report.to_dict()
    assert {"suite", "seed", "trials", "max_defect", "tol", "pass", "witness"} <= set(obj)
    assert isinstance(obj["pass"], bool)
    json.dumps(obj)  # everything must be JSON-serializable


def test_main_all_suites(capsys):
    assert main(["--suite", "all", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "all: PASS" in out


# Defects of the d=6 verdicts as computed by the superoperator (sum of
# np.kron) kernel that choi_distance replaced, and of the d=2 dsum verdict as
# computed by the hand-written block formulas that DSumModel replaced.  A
# faster kernel or a refactor may move them by roundoff only.
GOLDEN = {
    ("opcore", 6, 5): {
        "framework-invariants[classical(6)]": 2.3592239273284576e-16,
        "framework-invariants[quantum(6)]": 3.868898910159119e-16,
        "framework-invariants[dsum(6+6)]": 2.778804785128387e-16,
        "commutation-and-no-signaling[classical(36)]": 1.1102230246251565e-16,
        "commutation-and-no-signaling[quantum(36)]": 1.1102230246251565e-16,
        "commutation-and-no-signaling[dsum(6+6)]": 1.1102230246251565e-16,
        "commutation-and-no-signaling[quantum(36)].commutation": 1.3904866443919908e-17,
        "commutation-and-no-signaling[dsum(6+6)].commutation": 0.0,
    },
    ("dsum", 6, 20): {
        "dsum": 2.220446049250313e-16,
        "dsum.commutation": 0.0,
        "dsum.no_signaling": 2.220446049250313e-16,
        "dsum.conditioning_quotient": 1.1102230246251565e-16,
    },
    ("dsum", 2, 100): {
        "dsum": 4.440892098500626e-16,
        "dsum.commutation": 4.530366969944047e-17,
        "dsum.no_signaling": 4.440892098500626e-16,
        "dsum.conditioning_quotient": 2.220446049250313e-16,
    },
}


@pytest.mark.parametrize(
    "suite,d,trials",
    [("opcore", 6, 5), ("dsum", 6, 20), ("dsum", 2, 100)],
    ids=["opcore-5", "dsum-20", "dsum-d2-100"],
)
def test_d6_defects_match_golden(suite, d, trials, tmp_path, capsys):
    path = tmp_path / "out.json"
    argv = ["--suite", suite, "--d1", str(d), "--d2", str(d), "--trials", str(trials)]
    assert main(argv + ["--seed", "0", "--json", str(path)]) == 0
    capsys.readouterr()
    report = json.loads(path.read_text())["report"]
    found = {}
    for sub in report["details"].get("sub_reports", [report]):
        found[sub["suite"]] = sub["max_defect"]
        for key, value in sub.get("details", {}).items():
            found[f"{sub['suite']}.{key}"] = value
    for name, expected in GOLDEN[suite, d, trials].items():
        assert abs(found[name] - expected) <= 1e-14, name


# The whole --json report of `--suite all --trials 10 --seed 0` at (2, 2) and
# (2, 3), captured before the direct sum was rebuilt on the quantum kernels.
# A refactor keeps every non-float field and moves floats by roundoff only.
PARITY_GOLDEN = Path(__file__).parent / "golden" / "all_trials10_seed0.json"


def _assert_parity(found, expected, where="report"):
    assert type(found) is type(expected), where
    if isinstance(expected, dict):
        assert found.keys() == expected.keys(), where
        for key in expected:
            _assert_parity(found[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(found) == len(expected), where
        for k, (f, e) in enumerate(zip(found, expected)):
            _assert_parity(f, e, f"{where}[{k}]")
    elif isinstance(expected, float) and math.isfinite(expected):
        assert abs(found - expected) <= 1e-14, where
    else:
        assert found == expected, where


@pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3)], ids=["2x2", "2x3"])
def test_all_suites_report_matches_golden(d1, d2, tmp_path, capsys):
    path = tmp_path / "out.json"
    argv = ["--suite", "all", "--trials", "10", "--seed", "0", "--d1", str(d1), "--d2", str(d2)]
    assert main(argv + ["--json", str(path)]) == 0
    capsys.readouterr()
    expected = json.loads(PARITY_GOLDEN.read_text())[f"{d1}x{d2}"]
    _assert_parity(json.loads(path.read_text())["report"], expected)


@pytest.mark.parametrize(
    "args", [[], ["no-such-root"], ["a", "b", "c"]], ids=["none", "no-src", "three"]
)
def test_json_parity_usage_errors_exit_2(args, tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "json_parity.py"
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:") and "Traceback" not in proc.stderr
    assert proc.stdout == ""
