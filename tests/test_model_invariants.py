"""One generic harness, three theories: the framework axioms hold in each.

Also checks the implication at the heart of the no-signaling result: any
composite whose embedded local transformations commute leaves remote
states untouched under complete local actions.
"""

import math

import numpy as np
import pytest

from optheory.directsum import DSumBipartite, DSumModel
from optheory.framework import (
    ClassicalBipartite,
    ClassicalModel,
    ModelMismatch,
    State,
    Transformation,
    commutation_defect,
    model_invariant_suite,
    no_signaling_check,
    prob,
)
from optheory.quantum import QuantumBipartite, QuantumModel
from optheory.report import worst_defect
from optheory.sampling import trial_rng

MODELS = [
    ClassicalModel(2),
    ClassicalModel(4),
    QuantumModel(2),
    QuantumModel(3),
    DSumModel(2, 2),
    DSumModel(2, 3),
]

COMPOSITES = [
    ClassicalBipartite(2, 2),
    ClassicalBipartite(2, 3),
    QuantumBipartite(2, 2),
    QuantumBipartite(2, 3),
    DSumBipartite(2, 2),
    DSumBipartite(2, 3),
]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_framework_invariants(model):
    report = model_invariant_suite(model, seed=7, trials=40, outcomes=3, tol=1e-9)
    assert report.passed, report.details


class NaNDistanceModel(ClassicalModel):
    """Planted defect: a transformation distance that is always NaN."""

    def transformation_distance(self, t1, t2):
        return float("nan")


def test_nan_defect_fails_the_invariant_suite():
    report = model_invariant_suite(NaNDistanceModel(3), seed=7, trials=3)
    assert not report.passed
    assert report.max_defect == math.inf
    assert report.details["per_invariant"]["associativity"] == math.inf


# Planted defects, one overridden method each, for the eight invariants.


class ComposeReversed(ClassicalModel):
    """``compose`` applies ``then`` first."""

    def compose(self, first, then):
        return Transformation(self, first.payload @ then.payload)


class MixRenormalized(ClassicalModel):
    """``mix_states`` renormalizes its result."""

    def mix_states(self, s1, s2, w1, w2):
        mixed = super().mix_states(s1, s2, w1, w2)
        return State(self, mixed.payload / mixed.payload.sum())


class LossyIdentity(ClassicalModel):
    """``identity`` loses a tenth of the weight."""

    def identity(self):
        return Transformation(self, 0.9 * np.eye(self.n), "identity")


class ScaleShifted(ClassicalModel):
    """``scale_transformation`` shifts the dynamics before scaling."""

    def scale_transformation(self, lam, t):
        return Transformation(self, lam * (t.payload + 0.01 * np.eye(self.n)))


class ComposeSandwich(ClassicalModel):
    """``compose`` applies ``then`` on both sides of ``first``."""

    def compose(self, first, then):
        return Transformation(self, then.payload @ first.payload @ then.payload)


class AddByMaximum(ClassicalModel):
    """``add_transformations`` doubles the entrywise maximum."""

    def add_transformations(self, t1, t2):
        return Transformation(self, 2 * np.maximum(t1.payload, t2.payload))


class SquaredEvaluate(ClassicalModel):
    """``evaluate`` squares the pairing."""

    def evaluate(self, e, s):
        return super().evaluate(e, s) ** 2


INVARIANT_MUTANTS = [
    (ComposeReversed, "bayes_chain"),
    (MixRenormalized, "mixture_linearity"),
    (LossyIdentity, "identity_neutral"),
    (ScaleShifted, "scale_conditioning"),
    (ComposeSandwich, "associativity"),
    (AddByMaximum, "distributivity"),
    (AddByMaximum, "additivity"),
    (SquaredEvaluate, "completeness"),
]


@pytest.mark.parametrize(
    "mutant,check", INVARIANT_MUTANTS, ids=[check for _, check in INVARIANT_MUTANTS]
)
def test_invariant_mutant_breaks_its_check(mutant, check):
    tol = 1e-9
    report = model_invariant_suite(mutant(3), seed=0, trials=20, tol=tol)
    assert not report.passed
    (named,) = [c for c in report.checks if c.name == check]
    assert named.defect > 1000 * tol
    assert named.worst_trial is not None


def test_every_invariant_has_a_mutant():
    report = model_invariant_suite(ClassicalModel(3), seed=0, trials=1)
    assert {c.name for c in report.checks} == {check for _, check in INVARIANT_MUTANTS}


def test_worst_defect_counts_nan_as_inf():
    assert worst_defect() == 0.0
    assert worst_defect(1e-16, 3e-16) == 3e-16
    assert worst_defect(0.0, float("nan")) == math.inf
    assert worst_defect(float("nan"), 1.0) == math.inf


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_action_completeness_on_many_states(model):
    rng = trial_rng(30)
    action = model.random_action(rng, 4)
    for k in range(100):
        omega = model.random_state(trial_rng(31, k))
        total = sum(prob(omega, t) for t in action.transformations)
        assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_probabilities_bounded(model):
    for k in range(25):
        rng = trial_rng(32, k)
        p = prob(model.random_state(rng), model.random_transformation(rng))
        assert -1e-12 <= p <= 1.0 + 1e-12


@pytest.mark.parametrize("bip", COMPOSITES, ids=lambda b: b.joint.name)
def test_commutation_implies_no_signaling(bip):
    worst_commute = 0.0
    for k in range(15):
        rng = trial_rng(33, k)
        worst_commute = max(
            worst_commute,
            commutation_defect(
                bip,
                bip.left.random_transformation(rng),
                bip.right.random_transformation(rng),
            ),
        )
    assert worst_commute <= 1e-10
    for k in range(15):
        rng = trial_rng(34, k)
        joint = bip.joint.random_state(rng)
        action = bip.left.random_action(rng, int(rng.integers(2, 5)))
        probes = [bip.right.random_transformation(rng) for _ in range(3)]
        report = no_signaling_check(joint, action, bip, probes, tol=1e-10)
        assert report.passed, report.max_defect


@pytest.mark.parametrize(
    "bip",
    [ClassicalBipartite(2, 3), QuantumBipartite(2, 3), DSumBipartite(2, 3)],
    ids=lambda b: b.joint.name,
)
def test_embedding_rejects_the_other_component(bip):
    # Unequal sides: with 2 x 2 both components are the same model.
    left, right = bip.left.identity(), bip.right.identity()
    with pytest.raises(ModelMismatch, match="left component"):
        bip.embed_left(right)
    with pytest.raises(ModelMismatch, match="right component"):
        bip.embed_right(left)


@pytest.mark.parametrize("bip", COMPOSITES, ids=lambda b: b.joint.name)
def test_embedding_preserves_identity_and_units(bip):
    ident = bip.embed_left(bip.left.identity())
    rng = trial_rng(35)
    joint = bip.joint.random_state(rng)
    assert prob(joint, ident) == pytest.approx(1.0, abs=1e-10)
    unit = bip.product_effect(bip.left.unit_effect(), bip.right.unit_effect())
    diff = np.abs(
        bip.joint.effect_coords(unit) - bip.joint.effect_coords(bip.joint.unit_effect())
    ).max()
    assert diff <= 1e-10
