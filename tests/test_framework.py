"""Generic framework operations on the classical reference model."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optheory.framework import (
    Action,
    BipartiteModel,
    ClassicalBipartite,
    ClassicalModel,
    IncompleteAction,
    IndeterminateSpan,
    ModelMismatch,
    NotCoexistent,
    TheoryModel,
    ZeroProbability,
    add_coexistent,
    complement,
    compose,
    condition,
    determinism_equivalence_check,
    dynamically_equivalent,
    effect_of,
    informationally_equivalent,
    no_signaling_check,
    prob,
    scale,
    total_of_action,
)
from optheory.sampling import trial_rng

cm = ClassicalModel(2)


def classical(matrix, label=""):
    return cm.transformation(np.asarray(matrix, dtype=float), label)


class TestProb:
    def test_point_projector(self):
        assert prob(cm.state([0.5, 0.5]), classical(np.diag([1.0, 0.0]))) == pytest.approx(0.5)

    def test_identity_is_certain(self):
        rng = trial_rng(0)
        for _ in range(5):
            assert prob(cm.random_state(rng), cm.identity()) == pytest.approx(1.0)

    def test_weighted_diagonal(self):
        s = cm.state([0.2, 0.8])
        t = classical(np.diag([0.5, 0.25]))
        assert prob(s, t) == pytest.approx(0.2 * 0.5 + 0.8 * 0.25)

    def test_model_mismatch(self):
        other = ClassicalModel(3)
        with pytest.raises(ModelMismatch):
            prob(other.state([1.0, 0.0, 0.0]), cm.identity())


class TestCondition:
    def test_point_mass(self):
        out = condition(cm.state([0.5, 0.5]), classical(np.diag([1.0, 0.0])))
        assert np.allclose(out.payload, [1.0, 0.0])

    def test_identity_fixes_state(self):
        s = cm.state([0.3, 0.7])
        assert np.allclose(condition(s, cm.identity()).payload, s.payload)

    def test_bayes_renormalization(self):
        out = condition(cm.state([0.2, 0.8]), classical(np.diag([0.5, 0.25])))
        assert np.allclose(out.payload, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_zero_probability(self):
        with pytest.raises(ZeroProbability):
            condition(cm.state([0.0, 1.0]), classical(np.diag([1.0, 0.0])))


class TestCompose:
    def test_identity_neutral(self):
        t = classical([[0.5, 0.1], [0.2, 0.3]])
        for composed in (compose(t, cm.identity()), compose(cm.identity(), t)):
            assert np.allclose(composed.payload, t.payload)

    def test_matrix_product_order(self):
        first = classical(np.diag([1.0, 0.0]))
        then = classical(np.diag([0.5, 1.0]))
        assert np.allclose(compose(first, then).payload, np.diag([0.5, 0.0]))

    def test_bayes_chain_random(self):
        model = ClassicalModel(3)
        for k in range(50):
            rng = trial_rng(1, k)
            omega = model.random_state(rng)
            a = model.random_transformation(rng)
            b = model.random_transformation(rng)
            pa = prob(omega, a)
            if pa <= 1e-6:
                continue
            lhs = prob(omega, compose(a, b))
            rhs = prob(condition(omega, a), b) * pa
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestAddCoexistent:
    def test_projectors_sum_to_unit(self):
        total = add_coexistent(classical(np.diag([1.0, 0.0])), classical(np.diag([0.0, 1.0])))
        rng = trial_rng(2)
        for _ in range(10):
            assert prob(cm.random_state(rng), total) == pytest.approx(1.0)

    def test_convex_mixture_always_allowed(self):
        rng = trial_rng(3)
        for k in range(10):
            lam = rng.uniform()
            t1 = cm.random_transformation(rng)
            t2 = cm.random_transformation(rng)
            mixed = add_coexistent(scale(lam, t1), scale(1.0 - lam, t2))
            s = cm.random_state(rng)
            assert prob(s, mixed) == pytest.approx(
                lam * prob(s, t1) + (1 - lam) * prob(s, t2), abs=1e-12
            )

    def test_not_coexistent(self):
        with pytest.raises(NotCoexistent):
            add_coexistent(classical(np.diag([0.8, 0.0])), classical(np.diag([0.5, 0.0])))


class TestScale:
    def test_scale_one_is_identity_on_payload(self):
        t = classical([[0.5, 0.1], [0.2, 0.3]])
        assert np.allclose(scale(1.0, t).payload, t.payload)

    def test_scale_zero_kills_probability(self):
        t = classical([[0.5, 0.1], [0.2, 0.3]])
        rng = trial_rng(4)
        assert prob(cm.random_state(rng), scale(0.0, t)) == pytest.approx(0.0, abs=1e-15)

    def test_scaling_preserves_conditioning(self):
        for k in range(10):
            rng = trial_rng(5, k)
            omega = cm.random_state(rng)
            t = cm.random_transformation(rng)
            if prob(omega, t) <= 1e-6:
                continue
            a = condition(omega, scale(0.3, t))
            b = condition(omega, t)
            assert np.allclose(a.payload, b.payload, atol=1e-10)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            scale(1.5, cm.identity())


class TestTotalOfAction:
    def test_singleton_identity(self):
        total = total_of_action(Action([cm.identity()]))
        rng = trial_rng(6)
        assert prob(cm.random_state(rng), total) == pytest.approx(1.0)

    def test_projective(self):
        action = Action([classical(np.diag([1.0, 0.0])), classical(np.diag([0.0, 1.0]))])
        total = total_of_action(action)
        rng = trial_rng(7)
        for _ in range(5):
            assert prob(cm.random_state(rng), total) == pytest.approx(1.0)

    def test_random_three_outcome(self):
        model = ClassicalModel(3)
        rng = trial_rng(8)
        action = model.random_action(rng, 3)
        total = total_of_action(action)
        for _ in range(20):
            assert prob(model.random_state(rng), total) == pytest.approx(1.0, abs=1e-12)

    def test_incomplete_action_rejected(self):
        lone = classical(np.diag([0.5, 0.5]))
        with pytest.raises(IncompleteAction):
            total_of_action(Action([lone]))


class TestComplement:
    def test_identity_complement_is_null(self):
        comp = complement(cm.identity())
        rng = trial_rng(9)
        assert prob(cm.random_state(rng), comp) == pytest.approx(0.0, abs=1e-15)

    def test_column_sums(self):
        comp = complement(classical(np.diag([0.3, 0.7])))
        assert np.allclose(effect_of(comp).payload, [0.7, 0.3])

    def test_completes_to_action(self):
        for k in range(10):
            rng = trial_rng(10, k)
            t = cm.random_transformation(rng)
            total = total_of_action(Action([t, complement(t)]))
            assert prob(cm.random_state(rng), total) == pytest.approx(1.0, abs=1e-12)


class TestEquivalences:
    swap_half = [[0.0, 0.5], [0.5, 0.0]]

    def test_self_equivalence(self):
        t = classical(np.diag([0.5, 0.5]))
        assert informationally_equivalent(t, t)

    def test_equal_effects_different_dynamics(self):
        keep = classical(np.diag([0.5, 0.5]))
        swap = classical(self.swap_half)
        assert informationally_equivalent(keep, swap)
        probes = [cm.state([1.0, 0.0]), cm.state([0.0, 1.0]), cm.state([0.5, 0.5])]
        assert not dynamically_equivalent(keep, swap, probes)

    def test_distinguished_projectors(self):
        assert not informationally_equivalent(
            classical(np.diag([1.0, 0.0])), classical(np.diag([0.0, 1.0]))
        )

    def test_probe_based_path(self):
        keep = classical(np.diag([0.5, 0.5]))
        swap = classical(self.swap_half)
        probes = [cm.state([1.0, 0.0]), cm.state([0.25, 0.75])]
        assert informationally_equivalent(keep, swap, state_probe=probes)

    def test_indeterminate_span(self):
        lone = [cm.state([0.5, 0.5])]
        with pytest.raises(IndeterminateSpan):
            informationally_equivalent(cm.identity(), cm.identity(), state_probe=lone)
        with pytest.raises(IndeterminateSpan):
            dynamically_equivalent(cm.identity(), cm.identity(), lone)

    def test_scaling_is_dynamically_equivalent(self):
        rng = trial_rng(21)
        t = cm.random_transformation(rng)
        probes = [cm.random_state(rng) for _ in range(4)]
        assert dynamically_equivalent(t, scale(0.4, t), probes)

    def test_identity_dynamically_self_equivalent(self):
        rng = trial_rng(22)
        probes = [cm.random_state(rng) for _ in range(4)]
        assert dynamically_equivalent(cm.identity(), cm.identity(), probes)


class TestNoSignaling:
    bip = ClassicalBipartite(2, 2)

    def correlated(self):
        return self.bip.joint.state([0.5, 0.0, 0.0, 0.5])

    def point_action(self):
        left = self.bip.left
        return Action(
            [
                left.transformation(np.diag([1.0, 0.0]), "p0"),
                left.transformation(np.diag([0.0, 1.0]), "p1"),
            ]
        )

    def probes(self):
        right = self.bip.right
        return [
            right.transformation(np.diag([1.0, 0.0]), "q0"),
            right.transformation(np.diag([0.0, 1.0]), "q1"),
        ]

    def test_projective_action_on_correlated_state(self):
        # Oracle: the side-2 marginal of (0.5, 0, 0, 0.5) is (0.5, 0.5) and
        # the total of the action is the identity channel, so nothing moves.
        report = no_signaling_check(self.correlated(), self.point_action(), self.bip, self.probes())
        assert report.passed and report.max_defect <= 1e-12

    def test_identity_action(self):
        report = no_signaling_check(
            self.correlated(), Action([self.bip.left.identity()]), self.bip, self.probes()
        )
        assert report.max_defect == pytest.approx(0.0, abs=1e-15)

    def test_random_complete_actions(self):
        for k in range(20):
            rng = trial_rng(23, k)
            joint = self.bip.joint.random_state(rng)
            action = self.bip.left.random_action(rng, 3)
            probes = [self.bip.right.random_transformation(rng) for _ in range(3)]
            report = no_signaling_check(joint, action, self.bip, probes)
            assert report.max_defect <= 1e-12


class TestDeterminismEquivalence:
    bip = ClassicalBipartite(2, 2)

    def test_deterministic_holds(self):
        joint = self.bip.joint.state([0.5, 0.0, 0.0, 0.5])
        report = determinism_equivalence_check(
            joint, self.bip.left.identity(), self.bip,
            [self.bip.right.transformation(np.diag([1.0, 0.0]))],
        )
        assert report.passed and report.max_defect == pytest.approx(0.0, abs=1e-15)

    def test_selective_on_correlated_state(self):
        # P(side1=0) = 0.5 != 1, and the probe "side2=1" shifts from 0.5 to 0:
        # both directions of the equivalence fail together, which is consistent.
        joint = self.bip.joint.state([0.5, 0.0, 0.0, 0.5])
        t = self.bip.left.transformation(np.diag([1.0, 0.0]), "p0")
        probes = [
            self.bip.right.transformation(np.diag([1.0, 0.0])),
            self.bip.right.transformation(np.diag([0.0, 1.0])),
        ]
        report = determinism_equivalence_check(joint, t, self.bip, probes)
        assert report.passed
        assert report.details["prob_untouched"] == pytest.approx(0.5)
        assert report.details["max_probe_shift"] == pytest.approx(0.5)

    def test_scaled_identity_holds(self):
        joint = self.bip.joint.state([0.25, 0.25, 0.25, 0.25])
        report = determinism_equivalence_check(
            joint, scale(1.0, self.bip.left.identity()), self.bip,
            [self.bip.right.transformation(np.diag([1.0, 0.0]))],
        )
        assert report.passed


unit_interval = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(p=unit_interval, a=unit_interval, b=unit_interval)
def test_prob_stays_in_unit_interval(p, a, b):
    s = cm.state([p, 1.0 - p])
    t = classical(np.diag([a, b]))
    assert -1e-12 <= prob(s, t) <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(p=st.floats(0.05, 0.95), a=st.floats(0.1, 1.0), b=st.floats(0.1, 1.0))
def test_bayes_chain_property(p, a, b):
    omega = cm.state([p, 1.0 - p])
    t = classical(np.diag([a, b]))
    u = classical([[0.0, 0.5], [1.0, 0.5]])
    lhs = prob(omega, compose(t, u))
    rhs = prob(condition(omega, t), u) * prob(omega, t)
    assert abs(lhs - rhs) <= 1e-10


def test_readme_names_what_a_theory_writes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Adding a theory", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`(\w+)", section))
    count = re.search(r"writes its (\d+) abstract\s+members", section)
    assert count and int(count.group(1)) == len(TheoryModel.__abstractmethods__)
    assert BipartiteModel.__abstractmethods__ == {"_embed"}
    assert TheoryModel.__abstractmethods__ <= named
    assert "_embed" in named
