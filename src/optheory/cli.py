"""Command-line suite runner with deterministic seeding and JSON reports.

Exit codes: 0 when every check passes (expected failures matching
expectation included), 1 on an unexpected violation, 2 on usage errors.
Identical flags produce byte-identical JSON except the timestamp field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .boxes import (
    OPTIMAL_CHSH_ANGLES,
    chsh_value,
    classical_chsh_max,
    is_nosignaling_box,
    pr_box,
    singlet_box,
)
from .directsum import (
    DSumBipartite,
    DSumModel,
    ds_draw_action,
    ds_draw_local_op,
    ds_finish_action,
    ds_finish_local_op,
)
from .framework import (
    Action,
    ClassicalBipartite,
    ClassicalModel,
    commutation_defect,
    condition,
    embedded_probe_shifts,
    invariant_report,
    prob,
    probe_shifts,
    raw_columns,
    take_trials,
    total_of_action,
)
from .linalg import hermitian_part
from .quantum import (
    REDUCED_TOL,
    QuantumBipartite,
    QuantumModel,
    biconditional_report,
    finish_outcomes,
    no_signaling_trial_defects,
    quantum_no_signaling_check,
    quantum_no_signaling_defects,
    singlet_state,
    trusted_reduced_min_eigs,
    x_instrument,
    z_instrument,
)
from .report import (
    Check,
    TrialReport,
    VerificationReport,
    combine_reports,
    worst_defects,
)
from .sampling import (
    complex_gaussian,
    finite_gram,
    ginibre_state,
    gram,
    trial_rng,
    unit_trace,
)
from .tomography import audit_rows

SUITES = ("opcore", "quantum-nosig", "lemma", "dsum", "tomo-audit", "boxworld", "all")
# The flags each suite reads; its JSON config echoes only these (and the suite).
SUITE_FLAGS = {
    "opcore": ("seed", "trials", "d1", "d2", "outcomes", "tol"),
    "quantum-nosig": ("seed", "trials", "d1", "d2", "tol", "fixture"),
    "lemma": ("seed", "trials", "d1", "d2"),
    "dsum": ("seed", "trials", "d1", "d2", "outcomes", "tol"),
    "tomo-audit": ("seed", "d1", "d2"),
    "boxworld": ("box",),
}
# `all` runs every suite, so it reads every flag any of them reads.
SUITE_FLAGS["all"] = tuple(dict.fromkeys(f for flags in SUITE_FLAGS.values() for f in flags))


class UsageError(ValueError):
    """Invalid suite configuration."""


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    seed: int = 0
    trials: int = 100
    d1: int = 2
    d2: int = 2
    outcomes: int = 2
    tol: float = 1e-8
    json_path: str | None = None
    fixture: str | None = None
    box: str | None = None

    def validate(self) -> None:
        if self.suite not in SUITES:
            raise UsageError(f"unknown suite {self.suite!r}; choose from {SUITES}")
        if self.seed < 0:
            raise UsageError("seed must be a nonnegative integer")
        if not 1 <= self.trials <= 2**32:  # trial indices lie in [0, 2**32)
            raise UsageError("trials must lie in [1, 2**32]")
        if not (2 <= self.d1 <= 6 and 2 <= self.d2 <= 6):
            raise UsageError("d1 and d2 must lie in [2, 6]")
        if not (2 <= self.outcomes <= 16):
            raise UsageError("outcomes must lie in [2, 16]")
        if not 0 < self.tol < float("inf"):  # also false for NaN
            raise UsageError("tol must be finite and positive")


def exit_code(report: VerificationReport) -> int:
    """0 when the report matches expectation, 1 otherwise."""
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _rejected(
    suite: str, cfg: SuiteConfig, source: str, tol: float, exc: ValueError
) -> VerificationReport:
    """A fixture that failed parsing or validation: a ``valid_fixture`` check
    at an infinite defect and a witness naming the fixture and the reason."""
    checks = [Check("valid_fixture", float("inf"), tol)]
    witness = {"rejected_fixture": source, "reason": str(exc)}
    return VerificationReport.from_checks(suite, cfg.seed, 1, checks, tol, witness=witness)


def _defects(report: VerificationReport) -> VerificationReport:
    """``report`` with its check defects as details, by name."""
    return replace(report, details={c.name: c.defect for c in report.checks})


def _composite_draw(cfg: SuiteConfig, bip, rng: np.random.Generator, k: int) -> tuple:
    left, right = bip.left.draw_transformation(rng), bip.right.draw_transformation(rng)
    joint = bip.joint.draw_state(rng)
    action = bip.left.draw_action(rng, cfg.outcomes)
    probes = tuple(bip.right.draw_transformation(rng) for _ in range(3))
    return left, right, joint, action, probes


def _composite_evaluate(bip, drawn: list):
    """The defect columns of a chunk of trials: its raw draws finished as
    stacks, and one call per check on them."""
    left, right, joint, action, probes = zip(*drawn)
    ta = bip.left.finish_transformation(*raw_columns(left))
    tb = bip.right.finish_transformation(*raw_columns(right))
    yield "commutation", slice(None), commutation_defect(bip, ta, tb)

    omega = bip.joint.finish_state(*raw_columns(joint))
    action = bip.left.finish_action(*raw_columns(action))
    probes = [bip.right.finish_transformation(*raw_columns(p)) for p in zip(*probes)]
    shifts = embedded_probe_shifts(omega, action, bip, probes)
    yield "no_signaling", slice(None), worst_defects(*shifts)


def _quantum_nosig_draw(cfg: SuiteConfig, rng: np.random.Generator, k: int) -> tuple:
    g = complex_gaussian(rng, cfg.d1 * cfg.d2, cfg.d1 * cfg.d2)
    n_out = int(rng.integers(2, 5))
    return g, n_out, complex_gaussian(rng, n_out * cfg.d1, cfg.d1)


def _quantum_nosig_evaluate(cfg: SuiteConfig, drawn: list):
    """The defect columns of a chunk of trials, one stacked call per outcome
    count, each group's columns as they come.  A trial whose joint state is
    not finite gets NaN defects."""
    g, counts, a = zip(*drawn)
    rho, broken = finite_gram(np.array(g))
    # Rebinding frees G G^dag, which this generator's frame would otherwise hold.
    rho = unit_trace(rho)
    counts = np.array(counts)
    for n_out in dict.fromkeys(counts.tolist()):
        trials = np.flatnonzero(counts == n_out)
        outcomes = finish_outcomes(np.array([a[k] for k in trials]), cfg.d1)
        found = quantum_no_signaling_defects(rho[trials], outcomes, cfg.d1, cfg.d2)
        for defects in found:
            defects[broken[trials]] = np.nan
        for name, rows, defects in no_signaling_trial_defects(*found, cfg.tol):
            yield name, trials[rows], defects


def _run_quantum_nosig(cfg: SuiteConfig, ran: list) -> list:
    """The fixture's report, or ``ran`` with the singlet's checks after the random loop at (2,2)."""
    if cfg.fixture is not None:
        from .fixtures import load_instrument

        try:
            inst = load_instrument(cfg.fixture)
            if inst.dim != cfg.d1:
                raise UsageError(
                    f"fixture instrument acts on dimension {inst.dim}, expected {cfg.d1}"
                )
            rho = ginibre_state(trial_rng(cfg.seed, 0), cfg.d1 * cfg.d2)
            return [quantum_no_signaling_check(rho, inst, cfg.d1, cfg.d2, cfg.tol, cfg.seed)]
        except UsageError:
            raise
        except ValueError as exc:  # IncompleteInstrument is a ValueError too
            return [_rejected("quantum-no-signaling[fixture]", cfg, cfg.fixture, cfg.tol, exc)]
    if cfg.d1 != 2 or cfg.d2 != 2:
        return ran
    singlet = [
        replace(quantum_no_signaling_check(singlet_state(), inst, 2, 2, 1e-12, cfg.seed),
                suite=f"quantum-no-signaling[singlet-{name}]", trials=1, details={})
        for name, inst in (("z", z_instrument()), ("x", x_instrument()))
    ]
    return [ran[0], *singlet, *ran[1:]]


def _lemma_draw(cfg: SuiteConfig, rng: np.random.Generator, k: int) -> tuple:
    """The Gaussians G of trial ``k``'s A and R, each of which is ``G G^dag``.
    The evaluation forms A alone and reads R's reduction from R's G."""
    d = cfg.d1 * cfg.d2
    return complex_gaussian(rng, cfg.d1, cfg.d1), complex_gaussian(rng, d, d)


def _lemma_evaluate(cfg: SuiteConfig, drawn: list):
    """The defect column of a chunk of trials: one call of the trusted kernel
    on the stack of A, finished and PSD by construction, and the stack of
    R's Gaussians.  The kernel never forms R, a D^3 product per trial; the
    validating ``reduced_positivity_min_eig`` takes R itself, so it keeps
    the R route."""
    a, g = (np.stack(side) for side in zip(*drawn))
    lows = trusted_reduced_min_eigs(hermitian_part(gram(a)), g, cfg.d1, cfg.d2)
    # np.minimum keeps a NaN low, as min(low, 0.0) does.
    yield "reduced_positivity", slice(None), -np.minimum(lows, 0.0)


def _dsum_draw(cfg: SuiteConfig, model, rng: np.random.Generator, k: int) -> tuple:
    a = ds_draw_local_op(rng, cfg.d1)
    b = ds_draw_local_op(rng, cfg.d2)
    omega = model.draw_state(rng)
    action = ds_draw_action(rng, cfg.d1, cfg.outcomes)
    probes = tuple(ds_draw_local_op(rng, cfg.d2) for _ in range(3))
    return a, b, omega, action, probes


def _dsum_evaluate(model, drawn: list):
    """The defect columns of a chunk of trials: its raw draws finished as
    stacks, and one call per model operation on them."""
    left, right, state, action, probes = zip(*drawn)
    ta = model.from_local(ds_finish_local_op(1, *raw_columns(left)))
    tb = model.from_local(ds_finish_local_op(2, *raw_columns(right)))
    omega = model.finish_state(*raw_columns(state))
    ab = model.compose(ta, tb)
    yield "commutation", slice(None), model.transformation_distance(ab, model.compose(tb, ta))

    outcomes = ds_finish_action(1, *raw_columns(action))
    total = total_of_action(Action(map(model.from_local, outcomes)))
    probes = [model.from_local(ds_finish_local_op(2, *raw_columns(p))) for p in zip(*probes)]
    yield "no_signaling", slice(None), worst_defects(*probe_shifts(omega, total, probes))

    # The Bayes quotient on the sub-stack of trials where a is not too rare.
    pa = prob(omega, ta)
    sub = np.flatnonzero(pa > 1e-6)
    if len(sub):
        o, a, b, ab = take_trials((omega, ta, tb, ab), sub, len(drawn))
        quotient = prob(o, ab) / pa[sub]
        yield "conditioning_quotient", sub, np.abs(prob(condition(o, a), b) - quotient)


def trial_reports(cfg: SuiteConfig) -> dict[str, list[TrialReport]]:
    """Every trial sub-report of each suite, in run order: its name, draw, evaluation,
    trial count, the tolerance of each of its checks and the finish that shapes its report."""
    quantum, dsum = QuantumModel(cfg.d1), DSumModel(cfg.d1, cfg.d2)
    composites = [b(cfg.d1, cfg.d2) for b in (ClassicalBipartite, QuantumBipartite, DSumBipartite)]
    return {
        # Framework axioms on three models; commutation, hence no signaling, on three composites.
        "opcore": [
            *(invariant_report(m, cfg.trials, cfg.outcomes, 1e-9)
              for m in (ClassicalModel(cfg.d1), quantum, dsum)),
            *(TrialReport(
                f"commutation-and-no-signaling[{bip.joint.name}]",
                partial(_composite_draw, cfg, bip), partial(_composite_evaluate, bip),
                max(cfg.trials // 5, 5), {"commutation": 1e-10, "no_signaling": cfg.tol}, _defects,
            ) for bip in composites),
        ],
        # Averaged instruments fix the remote reduction; trace preserved iff reduction fixed.
        "quantum-nosig": [] if cfg.fixture is not None else [
            TrialReport(
                "quantum-no-signaling[random]",
                partial(_quantum_nosig_draw, cfg), partial(_quantum_nosig_evaluate, cfg),
                cfg.trials, {"no_signaling": cfg.tol, "trace_preserving_outcomes": REDUCED_TOL},
                lambda r: replace(r, max_defect=r.checks[0].defect),  # the averaged instrument's
            ),
            biconditional_report(cfg.trials, cfg.d1, cfg.d2),
        ],
        # Local positive filters keep the remote reduction positive.
        "lemma": [TrialReport(
            "lemma", partial(_lemma_draw, cfg), partial(_lemma_evaluate, cfg),
            cfg.trials, {"reduced_positivity": 1e-10},
        )],
        # Commutation, no signaling and the Bayes quotient of direct-sum local operations.
        "dsum": [TrialReport(
            "dsum", partial(_dsum_draw, cfg, dsum), partial(_dsum_evaluate, dsum), cfg.trials,
            {"commutation": 1e-12, "no_signaling": cfg.tol, "conditioning_quotient": 1e-10},
            _defects,
        )],
    }


def _run_tomo_audit(cfg: SuiteConfig) -> VerificationReport:
    """One check per composite and verdict, with defect 1 when the verdict
    does not match its expectation; the headline defect counts mismatches."""
    rows = audit_rows(cfg.d1, cfg.d2, seed=cfg.seed)
    checks = [
        Check(f"{name}[{r['model'].split()[0]}]", float(not r[key]), 0.0)
        for r in rows
        for name, key in (("local_observability", "lop_ok"), ("dimension_identity", "identity_ok"))
    ]
    mismatches, details = sum(c.defect for c in checks), {"rows": rows}
    return VerificationReport.from_checks(
        "tomo-audit", cfg.seed, len(rows), checks, 0.0, max_defect=mismatches, details=details
    )


def _run_boxworld(cfg: SuiteConfig) -> VerificationReport:
    reports = []
    if cfg.box is not None:
        from .fixtures import load_box

        try:
            box = load_box(cfg.box)
            checks = [Check("no_signaling", float(not is_nosignaling_box(box, tol=1e-10)), 0.0)]
            witness = {"box": box.to_json(), "chsh": chsh_value(box)}
            reports.append(
                VerificationReport.from_checks(
                    "boxworld[fixture]", cfg.seed, 1, checks, 0.0, witness=witness
                )
            )
        except ValueError as exc:
            reports.append(_rejected("boxworld[fixture]", cfg, cfg.box, 0.0, exc))
    else:
        classical = classical_chsh_max()
        pr = pr_box()
        quantum = singlet_box(OPTIMAL_CHSH_ANGLES)
        landmarks = {
            "classical_max": classical,
            "pr_chsh": chsh_value(pr),
            "singlet_chsh": chsh_value(quantum),
        }
        defects = {
            "classical_chsh": abs(classical - 2.0),
            "pr_chsh": abs(chsh_value(pr) - 4.0),
            "pr_no_signaling": float(not is_nosignaling_box(pr, tol=0.0)),
            "singlet_chsh": abs(chsh_value(quantum) - 2.0 * np.sqrt(2.0)),
            "singlet_no_signaling": float(not is_nosignaling_box(quantum, tol=1e-10)),
        }
        reports.append(
            VerificationReport.from_checks(
                "boxworld[landmarks]",
                cfg.seed,
                3,
                [Check(name, defect, 1e-9) for name, defect in defects.items()],
                1e-9,
                details=landmarks,
                witness={"pr_box": pr.to_json(), "singlet_box": quantum.to_json()},
            )
        )
    return combine_reports("boxworld", reports)


# The once-per-report sub-reports of a suite, placed around its trial sub-reports ``ran``.
_ONCE = {
    "quantum-nosig": _run_quantum_nosig,
    "tomo-audit": lambda cfg, ran: [_run_tomo_audit(cfg)],
    "boxworld": lambda cfg, ran: [_run_boxworld(cfg)],
}


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    """Run one suite (or all) under a validated configuration: each suite's
    trial sub-reports in table order, then its once-per-report ones.  A suite
    whose one sub-report bears its name reports as that sub-report."""
    cfg.validate()
    table, suites = trial_reports(cfg), []
    for name in [s for s in SUITES if s != "all"] if cfg.suite == "all" else [cfg.suite]:
        ran = [record.run(cfg.seed) for record in table.get(name, [])]
        subs = _ONCE.get(name, lambda cfg, ran: ran)(cfg, ran)
        suites.append(subs[0] if [r.suite for r in subs] == [name] else combine_reports(name, subs))
    return combine_reports("all", suites) if cfg.suite == "all" else suites[0]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _print_tomo_table(rows: list[dict]) -> None:
    header = f"{'model':<18}{'adm(S)':>8}{'adm(P1)':>9}  {'local-obs':<24}{'identity':<18}"
    print(header)
    print("-" * len(header))
    for r in rows:
        lop = "pass" if r["lop_pass"] else f"FAIL ({r['lop_rank']}/{r['lop_ambient']})"
        if r["expected_failure"]:
            lop += " [expected]" if not r["lop_pass"] else " [unexpected pass]"
        ident = "pass" if r["identity_pass"] else "fail"
        if r["expected_failure"] and not r["identity_pass"]:
            ident += " [expected]"
        print(f"{r['model']:<18}{r['adm_states']:>8}{r['adm_effects']:>9}  {lop:<24}{ident:<18}")


def _print_box_table(name: str, entries: list[float]) -> None:
    table = np.asarray(entries).reshape(2, 2, 2, 2)
    print(f"{name} p(a,b|x,y):")
    for x in range(2):
        for y in range(2):
            row = "  ".join(f"{table[x, y, a, b]:6.4f}" for a in range(2) for b in range(2))
            print(f"  x={x} y={y}:  {row}")


def _print_checks(report: VerificationReport, indent: str) -> None:
    for c in report.checks:
        verdict = "ok" if c.passed else "FAIL"
        where = f"worst_trial={c.worst_trial}" if c.evaluated else "not evaluated"
        print(f"{indent}{verdict:<4} {c.name:<28} defect={c.defect:.3e} tol={c.tol:.1e} {where}")


def _print_tables(report: VerificationReport) -> None:
    """The values and tables of a boxworld or tomo-audit report, after its checks."""
    if report.suite.startswith("boxworld["):
        for key, value in report.details.items():
            print(f"      {key} = {value:.10f}")
        for key, value in (report.witness or {}).items():
            if isinstance(value, list) and len(value) == 16:
                _print_box_table(key, value)
    if report.suite == "tomo-audit":
        _print_tomo_table(report.details["rows"])


def _print_sub_report(sub: VerificationReport, indent: str) -> None:
    verdict = "PASS" if sub.passed else "FAIL"
    if sub.expected_failure:
        verdict += " (expected)" if not sub.passed else " (unexpected)"
    print(f"{indent}{verdict:<18} {sub.suite:<42} max_defect={sub.max_defect:.3e}")
    _print_checks(sub, indent + "    ")
    for nested in sub.sub_reports:
        _print_sub_report(nested, indent + "  ")
    _print_tables(sub)


def _emit(report: VerificationReport, cfg: SuiteConfig) -> None:
    for sub in report.sub_reports:
        _print_sub_report(sub, "  ")
    _print_checks(report, "  ")
    _print_tables(report)
    print(report.summary())
    if cfg.json_path:
        echoed = ["suite", *SUITE_FLAGS[cfg.suite]]
        if cfg.suite == "quantum-nosig" and cfg.fixture is not None:
            echoed.remove("trials")  # a fixture's check runs no trials
        payload = {
            "config": {k: v for k, v in asdict(cfg).items() if k in echoed},
            "report": report.to_dict(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        with open(cfg.json_path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"wrote {cfg.json_path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optheory",
        description="Randomized verification suites for operational probabilistic theories.",
    )
    parser.add_argument("--suite", default="all", choices=SUITES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--d1", type=int, default=2)
    parser.add_argument("--d2", type=int, default=2)
    parser.add_argument("--outcomes", type=int, default=2)
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--json", dest="json_path", default=None, metavar="PATH")
    parser.add_argument(
        "--fixture",
        default=None,
        help="instrument fixture (name or JSON path) for the quantum-nosig suite",
    )
    parser.add_argument(
        "--box", default=None, help="box fixture (name or JSON path) for the boxworld suite"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    cfg = SuiteConfig(**vars(args))
    path = cfg.json_path
    try:
        if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
            raise UsageError(f"cannot write the JSON report to {path}")
        report = run_suite(cfg)
        _emit(report, cfg)  # any other unwritable --json path is a usage error too
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
