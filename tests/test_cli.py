"""Suite runner: exit codes, determinism, fixtures, JSON schema."""

import copy
import json
import math
import operator
import os
import subprocess
import sys
from dataclasses import replace
from functools import reduce
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import optheory
from optheory import cli
from optheory.cli import SuiteConfig, UsageError, exit_code, main, run_suite
from optheory.fixtures import (
    instrument_from_json,
    instrument_to_json,
    load_box,
    load_instrument,
)
from optheory.boxes import is_nosignaling_box, pr_box
from optheory.directsum import DSumModel
from optheory.linalg import min_eig_herm, partial_trace, tensor
from optheory.quantum import PAULI_X, KrausOp, z_instrument
from optheory.report import Check, TrialReport, VerificationReport, combine_reports

MUTANT_FILE = Path(str(resources.files("optheory").joinpath("data", "mutant_instrument.json")))
# The one-outcome identity instrument on a qubit, as fixture JSON.
IDENTITY_JSON = {"rows": 2, "cols": 2, "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0] * 4}
# The two fixture flags and the suite each one feeds.
FIXTURE_FLAGS = [("--fixture", "quantum-nosig"), ("--box", "boxworld")]


class TestSuiteConfig:
    def test_defaults_valid(self):
        SuiteConfig(suite="lemma").validate()

    def test_every_trial_index_below_two_to_the_32_is_valid(self):
        SuiteConfig(suite="lemma", trials=2**32).validate()  # validation only: no trial runs

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"suite": "bogus"},
            {"suite": "lemma", "seed": -1},
            {"suite": "lemma", "trials": 0},
            {"suite": "lemma", "trials": 2**32 + 1},
            {"suite": "lemma", "d1": 7},
            {"suite": "lemma", "d2": 1},
            {"suite": "lemma", "outcomes": 17},
            {"suite": "lemma", "tol": 0.0},
            {"suite": "lemma", "tol": float("nan")},
            {"suite": "lemma", "tol": float("inf")},
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

    @pytest.mark.parametrize("suite,reads_trials", [("quantum-nosig", False), ("all", True)])
    def test_a_fixture_run_echoes_trials_only_where_a_suite_reads_them(
        self, suite, reads_trials, tmp_path, capsys
    ):
        # quantum-nosig checks a fixture once and runs no trials; `all`'s other suites do.
        payloads = []
        for trials in ("5", "7"):
            path = tmp_path / f"{trials}.json"
            argv = ["--suite", suite, "--fixture", "z-instrument", "--trials", trials]
            assert main(argv + ["--json", str(path)]) == 0
            payloads.append(json.loads(path.read_text()))
        capsys.readouterr()
        assert [("trials" in p["config"]) for p in payloads] == [reads_trials] * 2
        assert (payloads[0]["report"] == payloads[1]["report"]) is not reads_trials

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

    @pytest.mark.parametrize("flag,suite", FIXTURE_FLAGS)
    def test_deeply_nested_fixture_rejected_at_load(self, flag, suite, tmp_path, capsys):
        # Nested past the parser's recursion limit: a file that fails parsing.
        fixture_path = tmp_path / "fixture.json"
        fixture_path.write_text("[" * 100000 + "]" * 100000)
        out_path = tmp_path / "out.json"
        assert main(["--suite", suite, flag, str(fixture_path), "--json", str(out_path)]) == 1
        capsys.readouterr()
        (sub,) = json.loads(out_path.read_text())["report"]["details"]["sub_reports"]
        assert sub["witness"]["rejected_fixture"] == str(fixture_path)
        assert "nested too deeply" in sub["witness"]["reason"]

    @pytest.mark.parametrize(
        "key,value",
        [
            ("rows", 2.5),
            ("rows", 2.0),
            ("rows", "2"),
            ("rows", True),
            ("cols", None),
            ("re", ["1e0", 0.0, 0.0, 1.0]),
            ("re", [True, 0.0, 0.0, True]),
            ("im", [[0.0, 0.0], [0.0, 0.0]]),
            ("im", "0000"),
        ],
    )
    def test_wrongly_typed_instrument_is_rejected_naming_the_key(
        self, key, value, tmp_path, capsys
    ):
        witness, code = self._fixture_witness(
            "--fixture", "quantum-nosig", [[{**IDENTITY_JSON, key: value}]], tmp_path, capsys
        )
        assert code == 1
        assert witness["rejected_fixture"].endswith("fixture.json")
        assert witness["reason"].startswith("malformed fixture") and repr(key) in witness["reason"]

    @pytest.mark.parametrize("entry", ["0.5", True, None, [0.5]])
    def test_wrongly_typed_box_is_rejected_naming_the_key(self, entry, tmp_path, capsys):
        entries = pr_box().to_json()
        entries[3] = entry
        for content in (entries, {"p": entries}):
            witness, code = self._fixture_witness("--box", "boxworld", content, tmp_path, capsys)
            assert code == 1
            assert witness["reason"].startswith("malformed fixture") and "'p'" in witness["reason"]

    @pytest.mark.parametrize(
        "flag,suite,content,expected",
        [
            # JSON integers are numbers: the identity instrument, entries as ints.
            ("--fixture", "quantum-nosig", [[{**IDENTITY_JSON, "re": [1, 0, 0, 1]}]], 0),
            ("--fixture", "quantum-nosig", instrument_to_json(z_instrument()), 0),
            ("--fixture", "quantum-nosig", json.loads(MUTANT_FILE.read_text()), 1),
            ("--box", "boxworld", {"p": pr_box().to_json()}, 0),
            ("--box", "boxworld", [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0], 1),
        ],
        ids=["int-identity", "z-instrument", "mutant-instrument", "pr-box", "signaling-box"],
    )
    def test_well_typed_fixtures_keep_their_verdicts(
        self, flag, suite, content, expected, tmp_path, capsys
    ):
        # The mutant instrument is rejected by value (it is incomplete), not by type.
        witness, code = self._fixture_witness(flag, suite, content, tmp_path, capsys)
        assert code == expected
        assert not witness.get("reason", "").startswith("malformed fixture")

    @staticmethod
    def _fixture_witness(flag, suite, content, tmp_path, capsys):
        """The fixture sub-report's witness and the exit code of one run."""
        fixture_path = tmp_path / "fixture.json"
        fixture_path.write_text(json.dumps(content))
        out_path = tmp_path / "out.json"
        argv = ["--suite", suite, flag, str(fixture_path), "--trials", "2", "--json", str(out_path)]
        code = main(argv)
        capsys.readouterr()
        (sub,) = json.loads(out_path.read_text())["report"]["details"]["sub_reports"]
        return sub["witness"] or {}, code

    def test_dsum_suite_runs_on_from_local(self, monkeypatch, capsys):
        # Planted defect: the passive sector gets sqrt(p) X instead of sqrt(p) I
        # (qubit sectors, the default), so opposite-side operations stop
        # commuting.  The suite embeds each chunk's stack of local operations,
        # so the mutant builds a stack of rank-1 passive blocks.
        def leaky_from_local(self, op):
            x = np.sqrt(op.p)[:, None, None, None] * PAULI_X
            passive = KrausOp._trusted(x)
            blocks = (op.op_block, passive) if op.side == 1 else (passive, op.op_block)
            return self.transformation(*blocks, op.label)

        monkeypatch.setattr(DSumModel, "from_local", leaky_from_local)
        assert main(["--suite", "dsum", "--trials", "5"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_nan_in_a_model_built_payload_fails_its_check(self, monkeypatch, tmp_path, capsys):
        # Kernels store what they derive from a validated operation unchecked,
        # so a NaN planted in trial 0's block of the first finished stack must
        # reach the named commutation check (as +inf) instead of raising in
        # compose_kraus.
        finished = []
        real = cli.ds_finish_local_op

        def planted(side, *raw):
            op = real(side, *raw)
            if not finished:
                op.op_block.kraus[0, 0, 0, 0] = np.nan
            finished.append(op)
            return op

        monkeypatch.setattr(cli, "ds_finish_local_op", planted)
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
        # The kernel is passed the Gaussian G of each R = G G^dag.
        flipped_defects = []

        def flipped(a, g, d1, d2):
            lows = [
                min_eig_herm(
                    -partial_trace(tensor(ak, np.eye(d2)) @ gk @ gk.conj().T, d1, d2, side=1)
                )
                for ak, gk in zip(a, g)
            ]
            flipped_defects.extend(-low for low in lows)
            return np.array(lows)

        monkeypatch.setattr(cli, "trusted_reduced_min_eigs", flipped)
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

    def test_nan_tol_exits_two(self, capsys):
        # A usage error, not a failed verification: NaN compares false with every defect.
        assert main(["--suite", "dsum", "--trials", "3", "--tol", "nan"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "tol must be finite and positive" in err

    @pytest.mark.parametrize("suite", ["lemma", "all"])
    def test_trials_past_the_index_range_exit_two(self, suite, monkeypatch, capsys):
        # Trial indices lie in [0, 2**32).  The loop must not start: building
        # its index list alone would take tens of GB.
        def unreachable(*args, **kwargs):
            raise AssertionError("an out-of-range --trials reached the trial loop")

        monkeypatch.setattr("optheory.report.trial_outcomes", unreachable)
        assert main(["--suite", suite, "--trials", str(2**32 + 1)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "trials must lie in [1, 2**32]" in err

    def test_missing_fixture_file_exits_two(self, capsys):
        assert main(["--suite", "quantum-nosig", "--fixture", "/no/such.json"]) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,suite", FIXTURE_FLAGS)
    def test_directory_fixture_exits_two(self, flag, suite, tmp_path, capsys):
        assert main(["--suite", suite, flag, str(tmp_path)]) == 2
        assert "not a readable file" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,suite", FIXTURE_FLAGS)
    def test_overlong_fixture_path_exits_two(self, flag, suite, tmp_path, capsys):
        # A name far beyond the file system's limit makes a path query raise
        # OSError (ENAMETOOLONG), not report a missing file.
        path = tmp_path / ("x" * 5000)
        assert main(["--suite", suite, flag, str(path)]) == 2
        assert "not a readable file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["--suite", "opcore", "--fixture", "z-instrument", "--d1", "3"], 0),
            (["--suite", "quantum-nosig", "--fixture", "z-instrument", "--d1", "3"], 2),
            (["--suite", "all", "--fixture", "z-instrument", "--d1", "3"], 2),
            (["--suite", "lemma", "--box", "MISSING"], 0),
            (["--suite", "boxworld", "--box", "MISSING"], 2),
        ],
        ids=["opcore", "quantum-nosig", "all", "lemma", "boxworld"],
    )
    def test_a_fixture_is_read_only_by_the_suite_it_feeds(self, argv, code, tmp_path, capsys):
        # A qubit instrument at d1 = 3 and a missing box file are usage errors
        # of the suites that read them, and nothing to a suite that does not.
        missing = str(tmp_path / "missing.json")
        argv = [missing if a == "MISSING" else a for a in argv]
        assert main([*argv, "--trials", "2"]) == code
        assert ("usage error" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("name", ["", "missing/out.json"], ids=["directory", "missing-dir"])
    def test_unwritable_json_path_exits_two(self, name, tmp_path, capsys):
        path = tmp_path / name
        assert main(["--suite", "boxworld", "--json", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # refused before the suite runs
        assert err.count("\n") == 1 and err.startswith("usage error") and str(path) in err


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


# Valid fixtures to mutate: (flag, suite, loader, fixture JSON).
FUZZ_BASES = [
    ("--fixture", "quantum-nosig", load_instrument, instrument_to_json(z_instrument())),
    ("--box", "boxworld", load_box, {"p": pr_box().to_json()}),
    ("--box", "boxworld", load_box, pr_box().to_json()),
]
# Replacement values: non-finite and huge numbers, half the time, else other
# JSON types and integers small enough that a mutated ``rows`` or ``cols``
# allocates nothing large.
ODD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]),
    st.sampled_from([None, True, False, "", "1", [], {}, -1, 0, 1, 2, 3, 0.0, 0.5, 1.0]),
)


def _positions(node, path=()):
    """The key paths of ``node`` and of everything nested in it."""
    yield path
    if isinstance(node, (list, dict)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _positions(child, path + (key,))


def _mutated_node(draw, node):
    """``node`` with a changed value or type, a dropped key, or as a nested
    or shortened list."""
    kind = draw(st.sampled_from(["replace", "drop", "nest"]))
    if kind == "nest":
        return [node]
    if kind == "drop" and isinstance(node, dict) and node:
        del node[draw(st.sampled_from(sorted(node)))]
        return node
    if kind == "drop" and isinstance(node, list) and node:
        return node[: draw(st.integers(0, len(node) - 1))]
    return draw(ODD_VALUES)


@st.composite
def mutated(draw, base):
    """``base`` with one to three mutations, each at a position drawn uniformly."""
    obj = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_positions(obj))))
        if not path:
            obj = _mutated_node(draw, obj)
            continue
        parent = reduce(operator.getitem, path[:-1], obj)
        parent[path[-1]] = _mutated_node(draw, parent[path[-1]])
    return obj


@pytest.mark.parametrize(
    "flag,suite,load,base", FUZZ_BASES, ids=["instrument", "box-under-p", "bare-box"]
)
@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_mutated_fixture_exits_cleanly(flag, suite, load, base, data, tmp_path, capsys):
    # No run raises: exit 0 only for a fixture that still loads and passes,
    # 1 with a rejected_fixture witness for one that fails to load, 1 for a
    # valid but signaling box, 2 for an instrument of the wrong dimension.
    content = data.draw(mutated(base))
    fixture_path, out_path = tmp_path / "fixture.json", tmp_path / "out.json"
    fixture_path.write_text(json.dumps(content))
    out_path.unlink(missing_ok=True)
    argv = ["--suite", suite, flag, str(fixture_path), "--trials", "2", "--json", str(out_path)]
    code = main(argv)
    err = capsys.readouterr().err
    try:
        fixture = load(str(fixture_path))
    except ValueError:
        assert code == 1
        (sub,) = json.loads(out_path.read_text())["report"]["details"]["sub_reports"]
        assert sub["witness"]["rejected_fixture"] == str(fixture_path)
        return
    if flag == "--box":
        assert code == (0 if is_nosignaling_box(fixture, tol=1e-10) else 1)
    elif fixture.dim != 2:
        assert code == 2 and "usage error" in err
    else:
        assert code == 0


def test_report_json_schema():
    report = run_suite(SuiteConfig(suite="lemma", trials=5, seed=0))
    obj = report.to_dict()
    assert {"suite", "seed", "trials", "max_defect", "tol", "pass", "witness"} <= set(obj)
    assert isinstance(obj["pass"], bool)
    json.dumps(obj)  # everything must be JSON-serializable


def test_text_summary_names_a_check_no_trial_evaluated(tmp_path, capsys):
    # Haar-random outcomes never preserve the trace, so no trial evaluates
    # trace_preserving_outcomes; a check made once per report keeps its line.
    out = tmp_path / "out.json"
    assert main(["--suite", "quantum-nosig", "--trials", "20", "--json", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    (unevaluated,) = [line for line in lines if "trace_preserving_outcomes" in line]
    assert unevaluated.endswith("tol=1.0e-08 not evaluated")
    (once,) = [line for line in lines if "no_trace_preserved_case" in line]
    assert once.endswith("worst_trial=None")
    # The JSON is unchanged: the check lists its four fields alone.
    (random, *_) = json.loads(out.read_text())["report"]["details"]["sub_reports"]
    assert random["checks"][1] == {
        "name": "trace_preserving_outcomes", "defect": 0.0, "tol": 1e-08, "worst_trial": None
    }


def _leaf_reports(report: dict):
    """The reports under ``report`` (itself included) that list checks."""
    subs = (report.get("details") or {}).get("sub_reports", [])
    return [report] * ("checks" in report) + [leaf for sub in subs for leaf in _leaf_reports(sub)]


# Extra flags of a `--suite all --trials 20` run (a later `--suite` wins) and
# its exit code; REJECTED is a file that parses but holds no fixture.
TABLE_CASES = {
    "2x2": ([], 0),
    "2x3": (["--d2", "3"], 0),
    "2x3-tol": (["--d2", "3", "--tol", "1e-9"], 0),
    "2x2-rejected-fixture": (["--fixture", "REJECTED"], 1),
    "2x2-fixture": (["--fixture", "z-instrument"], 0),
    "pr-box": (["--suite", "boxworld", "--box", "pr-box"], 0),
    "signaling-box": (["--suite", "boxworld", "--box", "signaling-box"], 1),
    "rejected-box": (["--suite", "boxworld", "--box", "REJECTED"], 1),
}


@pytest.mark.parametrize("case", TABLE_CASES)
def test_printed_checks_match_the_trial_table(case, tmp_path, capsys):
    # Every printed sub-report is a record of the table, and every record is
    # printed.  A trial record prints exactly its checks; one made once per
    # report prints some of them, as a fixture prints
    # trace_preserving_outcomes only when some outcome preserves the trace.
    path, rejected = tmp_path / "out.json", tmp_path / "rejected.json"
    rejected.write_text("{}")
    extra, code = TABLE_CASES[case]
    argv = ["--suite", "all", "--trials", "20", *extra, "--json", str(path)]
    assert main([str(rejected) if a == "REJECTED" else a for a in argv]) == code
    capsys.readouterr()
    payload = json.loads(path.read_text())
    cfg = SuiteConfig(**payload["config"])
    suites = cli.SUITES[:-1] if cfg.suite == "all" else [cfg.suite]
    records = {record.name: record for s in suites for record in cli.sub_reports(cfg, s)}
    leaves = _leaf_reports(payload["report"])
    assert sorted(leaf["suite"] for leaf in leaves) == sorted(records)
    for leaf in leaves:
        record, checks = records[leaf["suite"]], {c["name"]: c["tol"] for c in leaf["checks"]}
        if isinstance(record, TrialReport):
            assert checks == record.tols, leaf["suite"]
        else:
            assert checks and checks.items() <= record.tols.items(), leaf["suite"]


def test_main_all_suites(capsys):
    assert main(["--suite", "all", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "all: PASS" in out


def test_all_suites_print_the_tables_of_each_suite(capsys):
    assert main(["--suite", "all", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "      classical_max = 2.0000000000\n" in out
    assert "pr_box p(a,b|x,y):\n" in out and "singlet_box p(a,b|x,y):\n" in out
    assert out.count("model               adm(S)  adm(P1)  local-obs") == 1


def test_runs_import_no_undeclared_dependency():
    # pyproject.toml declares numpy alone at runtime; scipy, mpmath and sympy
    # may be installed, so only a fresh interpreter shows that none is imported.
    code = (
        "import json, sys\n"
        "from optheory.cli import main\n"
        "codes = [main(['--suite', 'all', '--trials', '3']),\n"
        "         main(['--suite', 'tomo-audit', '--d1', '3', '--d2', '3'])]\n"
        "roots = {name.partition('.')[0] for name in sys.modules}\n"
        "print(json.dumps([codes, sorted(roots & {'scipy', 'mpmath', 'sympy'})]))\n"
    )
    src = str(Path(optheory.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0], []]


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
