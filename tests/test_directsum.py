"""Direct-sum composite: block probability rule, commutation, no-signaling,
conditioning, and the local effect-span deficit."""

import numpy as np
import pytest

from optheory.directsum import (
    DSumBipartite,
    DSumLocalOp,
    DSumModel,
    DSumState,
    ds_commutation_defect,
    ds_condition,
    ds_draw_local_op,
    ds_finish_action,
    ds_finish_local_op,
    ds_joint_prob,
    ds_local_effect_span,
    ds_local_prob,
    ds_nosig_check,
    ds_random_action,
    ds_random_local_op,
)
from optheory import cli
from optheory.cli import SuiteConfig
from optheory.framework import (
    Action,
    IncompleteAction,
    condition,
    prob,
    probe_shifts,
    raw_columns,
    total_of_action,
)
from optheory.linalg import direct_sum
from optheory.quantum import KrausOp, apply_quantum_op
from optheory.report import worst_defect
from optheory.sampling import ginibre_state, haar_isometry_blocks, trial_rng

I2 = np.eye(2)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def block_state(w_plus=0.6, seed=60, d1=2, d2=2):
    rng = trial_rng(seed)
    return DSumState(
        w_plus * ginibre_state(rng, d1), (1.0 - w_plus) * ginibre_state(rng, d2)
    )


def ds_identity(side, d):
    return DSumLocalOp(side, KrausOp([np.eye(d)]), 1.0, "identity")


def tp_channel(rng, d):
    return KrausOp(haar_isometry_blocks(rng, d, 2))


class TestLocalProb:
    def test_identity(self):
        assert ds_local_prob(block_state(), ds_identity(1, 2)) == pytest.approx(1.0)

    def test_trace_preserving_block_with_p_zero(self):
        omega = block_state(w_plus=0.6)
        a = DSumLocalOp(1, tp_channel(trial_rng(61), 2), 0.0)
        assert ds_local_prob(omega, a) == pytest.approx(0.6, abs=1e-12)

    def test_annihilated_block(self):
        omega = block_state(w_plus=0.6)
        a = DSumLocalOp(1, KrausOp([np.zeros((2, 2))]), 1.0)
        assert ds_local_prob(omega, a) == pytest.approx(0.4, abs=1e-12)

    def test_side2_mirror(self):
        omega = block_state(w_plus=0.6)
        b = DSumLocalOp(2, tp_channel(trial_rng(62), 2), 0.0)
        assert ds_local_prob(omega, b) == pytest.approx(0.4, abs=1e-12)

    def test_dim_mismatch(self):
        omega = block_state(d1=2, d2=3, seed=63)
        with pytest.raises(ValueError):
            ds_local_prob(omega, DSumLocalOp(1, KrausOp([np.eye(3)]), 0.5))


class TestJointProb:
    def test_identities(self):
        omega = block_state()
        assert ds_joint_prob(omega, ds_identity(1, 2), ds_identity(2, 2)) == pytest.approx(1.0)

    def test_deterministic_side1_is_invisible(self):
        # p = 1 with a trace-preserving block: exactly the deterministic case,
        # so the joint probability must equal the probe's own probability.
        omega = block_state()
        a = DSumLocalOp(1, tp_channel(trial_rng(64), 2), 1.0)
        for k in range(10):
            b = ds_random_local_op(trial_rng(65, k), 2, 2)
            assert ds_joint_prob(omega, a, b) == pytest.approx(
                ds_local_prob(omega, b), abs=1e-12
            )

    def test_order_swap(self):
        omega = block_state()
        model = DSumModel(2, 2)
        for k in range(20):
            rng = trial_rng(66, k)
            a = ds_random_local_op(rng, 1, 2)
            b = ds_random_local_op(rng, 2, 2)
            # Evaluate the composite in both orders, independently of the formula.
            def prob_of(blocks):
                plus, minus = blocks
                return float(
                    np.trace(apply_quantum_op(plus, omega.rho_plus)).real
                    + np.trace(apply_quantum_op(minus, omega.rho_minus)).real
                )

            ta, tb = model.from_local(a), model.from_local(b)
            ab = prob_of(model.compose(ta, tb).payload)
            ba = prob_of(model.compose(tb, ta).payload)
            formula = ds_joint_prob(omega, a, b)
            assert abs(ab - ba) <= 1e-12
            assert formula == pytest.approx(ab, abs=1e-12)

    def test_same_side_rejected(self):
        with pytest.raises(ValueError):
            ds_joint_prob(block_state(), ds_identity(1, 2), ds_identity(1, 2))


class TestCommutation:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_random_pairs_commute_exactly(self, dims):
        d1, d2 = dims
        for k in range(50):
            rng = trial_rng(67, k)
            a = ds_random_local_op(rng, 1, d1)
            b = ds_random_local_op(rng, 2, d2)
            assert ds_commutation_defect(a, b, d1, d2) <= 1e-12

    def test_noncommuting_pair_detected(self):
        # Planted defect: two side-1 filters whose products P0 P+ and P+ P0 differ.
        plus = (I2 + np.array([[0.0, 1.0], [1.0, 0.0]])) / 2
        a = DSumLocalOp(1, KrausOp([P0]), 0.5)
        b = DSumLocalOp(1, KrausOp([plus]), 0.5)
        assert ds_commutation_defect(a, b, 2, 2) > 1e-3


class TestCondition:
    def test_identity_fixes_state(self):
        omega = block_state()
        out = ds_condition(omega, ds_identity(1, 2))
        assert np.allclose(out.rho_plus, omega.rho_plus, atol=1e-14)
        assert np.allclose(out.rho_minus, omega.rho_minus, atol=1e-14)

    def test_p_zero_concentrates_on_plus_block(self):
        omega = block_state(w_plus=0.6)
        a = DSumLocalOp(1, tp_channel(trial_rng(68), 2), 0.0)
        out = ds_condition(omega, a)
        assert np.trace(out.rho_plus).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(out.rho_minus).max() <= 1e-15

    def test_quotient_formula(self):
        # Conditioning must reproduce the ratio of joint to local probability.
        for k in range(50):
            rng = trial_rng(69, k)
            omega = DSumModel(2, 2).random_state(rng).payload
            a = ds_random_local_op(rng, 1, 2)
            b = ds_random_local_op(rng, 2, 2)
            norm = ds_local_prob(omega, a)
            if norm <= 1e-6:
                continue
            conditioned = ds_condition(omega, a)
            assert ds_local_prob(conditioned, b) == pytest.approx(
                ds_joint_prob(omega, a, b) / norm, abs=1e-10
            )

    def test_zero_probability(self):
        omega = block_state(w_plus=1.0 - 1e-15, seed=70)
        a = DSumLocalOp(1, KrausOp([np.zeros((2, 2))]), 1.0)
        with pytest.raises(ValueError):
            ds_condition(omega, a)


class TestNoSignaling:
    def test_identity_action(self):
        report = ds_nosig_check(
            block_state(), [ds_identity(1, 2)], [ds_random_local_op(trial_rng(71), 2, 2)]
        )
        assert report.max_defect == pytest.approx(0.0, abs=1e-15)

    def test_projective_action(self):
        action = [DSumLocalOp(1, KrausOp([P0]), 0.5), DSumLocalOp(1, KrausOp([P1]), 0.5)]
        model = DSumModel(2, 2)
        assert Action([model.from_local(op) for op in action]).completeness_defect() <= 1e-15
        probes = [ds_random_local_op(trial_rng(72, k), 2, 2) for k in range(5)]
        report = ds_nosig_check(block_state(), action, probes)
        assert report.passed and report.max_defect <= 1e-12

    def test_random_actions(self):
        for k in range(30):
            rng = trial_rng(73, k)
            omega = DSumModel(2, 2).random_state(rng).payload
            action = ds_random_action(rng, 1, 2, int(rng.integers(2, 5)))
            probes = [ds_random_local_op(rng, 2, 2) for _ in range(3)]
            report = ds_nosig_check(omega, action, probes, tol=1e-10)
            assert report.passed

    def test_incomplete_action_rejected(self):
        bad = [DSumLocalOp(1, KrausOp([P0]), 0.5)]
        with pytest.raises(IncompleteAction):
            ds_nosig_check(block_state(), bad, [ds_identity(2, 2)])


class TestEffectSpan:
    @pytest.mark.parametrize(
        "d1,d2,expected", [(1, 1, 2), (2, 2, 8), (2, 3, 13)]
    )
    def test_span_deficit(self, d1, d2, expected):
        samples = max(4 * (d1 + d2) ** 2, 16)
        rank = ds_local_effect_span(d1, d2, samples, seed=3)
        assert rank == expected
        assert rank < (d1 + d2) ** 2

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            ds_local_effect_span(2, 2, 8)


@pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (6, 5)])
def test_state_distance_is_the_ambient_trace_norm(d1, d2):
    # Oracle: the direct sum is block-diagonal quantum theory on C^(d1+d2),
    # so the distance of two block states is the trace norm of the
    # difference of their block-diagonal matrices there.
    model = DSumModel(d1, d2)
    for k in range(20):
        rng = trial_rng(80, k)
        s1, s2 = model.random_state(rng), model.random_state(rng)
        ambient = direct_sum(*s1.payload.blocks) - direct_sum(*s2.payload.blocks)
        expected = np.linalg.svd(ambient, compute_uv=False).sum()
        assert abs(model.state_distance(s1, s2) - expected) <= 1e-12


class TestBlockStateType:
    def test_validation(self):
        with pytest.raises(ValueError):
            DSumState(np.diag([0.5, 0.5]), np.diag([0.5, 0.5]))  # total trace 2
        with pytest.raises(ValueError):
            DSumState(np.diag([1.5, 0.0]), np.diag([-0.5, 0.0]))  # negative block

    def test_json_roundtrip(self):
        omega = block_state(seed=74)
        again = DSumState.from_json(omega.to_json())
        assert np.allclose(again.rho_plus, omega.rho_plus, atol=1e-15)
        assert np.allclose(again.rho_minus, omega.rho_minus, atol=1e-15)


class TestBipartiteAdapter:
    def test_canonical_embedding_preserves_completeness(self):
        bip = DSumBipartite(2, 2)
        rng = trial_rng(75)
        action = bip.left.random_action(rng, 3)
        embedded = Action([bip.embed_left(t) for t in action.transformations])
        assert embedded.completeness_defect() <= 1e-10

    def test_identity_embeds_to_identity(self):
        bip = DSumBipartite(2, 3)
        emb = bip.embed_left(bip.left.identity())
        omega = bip.joint.random_state(trial_rng(76))
        assert prob(omega, emb) == pytest.approx(1.0, abs=1e-12)


class TestSectorDrawsKeepTheirStream:
    """The sector-wise draws against the block formulas they replaced, written
    out here as the reference: same RNG stream, same order, equal arrays.
    Every suite defect is roundoff, so a reordered draw would otherwise move
    no reported number beyond 1e-14."""

    @staticmethod
    def scaled_blocks(rng, d, lam_low):
        blocks = haar_isometry_blocks(rng, d, 3)
        keep = int(rng.integers(1, 3))
        lam = rng.uniform(lam_low, 1.0)
        return np.array([np.sqrt(lam) * b for b in blocks[:keep]])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_model_draws(self, seed):
        model, rng, ref = DSumModel(2, 3), trial_rng(77, seed), trial_rng(77, seed)
        state = model.random_state(rng).payload
        w = ref.uniform(0.1, 0.9)
        assert np.array_equal(state.rho_plus, w * ginibre_state(ref, 2))
        assert np.array_equal(state.rho_minus, (1.0 - w) * ginibre_state(ref, 3))
        plus, minus = model.random_transformation(rng).payload
        assert np.array_equal(plus.kraus, self.scaled_blocks(ref, 2, 0.3))
        assert np.array_equal(minus.kraus, self.scaled_blocks(ref, 3, 0.3))
        action = model.random_action(rng, 3)
        ref_plus, ref_minus = haar_isometry_blocks(ref, 2, 3), haar_isometry_blocks(ref, 3, 3)
        for t, p, m in zip(action.transformations, ref_plus, ref_minus):
            assert np.array_equal(t.payload[0].kraus[0], p)
            assert np.array_equal(t.payload[1].kraus[0], m)
        assert rng.uniform() == ref.uniform()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_local_op_draws(self, seed):
        rng, ref = trial_rng(78, seed), trial_rng(78, seed)
        op = ds_random_local_op(rng, 2, 3)
        assert np.array_equal(op.op_block.kraus, self.scaled_blocks(ref, 3, 0.2))
        assert op.p == ref.uniform()
        outcomes = ds_random_action(rng, 1, 2, 4)
        blocks = haar_isometry_blocks(ref, 2, 4)
        probs = ref.exponential(size=4)
        probs = probs / probs.sum()
        for o, b, p in zip(outcomes, blocks, probs):
            assert np.array_equal(o.op_block.kraus[0], b)
            assert o.p == p
        assert rng.uniform() == ref.uniform()


def _rare(draw: tuple) -> tuple:
    """A dsum draw whose side-1 operation is too rare to condition on: its
    block scaled by 1e-9 and its sector probability 1e-9."""
    (a, keep, _, _), *rest = draw
    return ((a, keep, 1e-9, 1e-9), *rest)


def _bits(outcomes: list) -> list:
    return [{name: float(v).hex() for name, v in defects.items()} for defects in outcomes]


def _rows(columns, n: int) -> list:
    """Each of ``n`` rows' ``{check: defect}`` from an evaluate's
    ``(check, rows, defects)`` columns over a chunk of ``n`` trials."""
    out: list = [{} for _ in range(n)]
    for name, rows, defects in columns:
        rows = np.arange(n)[rows]
        for k, defect in zip(rows.tolist(), np.broadcast_to(defects, rows.shape).tolist()):
            out[k][name] = defect
    return out


def _one_trial(model: DSumModel, draw: tuple) -> dict:
    """The defects of one dsum trial through the one-object operations: the
    per-trial evaluation that the stacked one replaced."""
    left, right, state, action, probes = draw
    a = model.from_local(ds_finish_local_op(1, *left))
    b = model.from_local(ds_finish_local_op(2, *right))
    omega = model.finish_state(*state)
    ab = model.compose(a, b)
    defects = {"commutation": model.transformation_distance(ab, model.compose(b, a))}
    total = total_of_action(Action(map(model.from_local, ds_finish_action(1, *action))))
    probes = [model.from_local(ds_finish_local_op(2, *p)) for p in probes]
    defects["no_signaling"] = worst_defect(*probe_shifts(omega, total, probes))
    pa = prob(omega, a)
    if pa > 1e-6:
        quotient = prob(omega, ab) / pa
        defects["conditioning_quotient"] = abs(prob(condition(omega, a), b) - quotient)
    return defects


class TestStacks:
    @pytest.mark.parametrize("side", [1, 2])
    def test_from_local_of_a_stack_equals_each_trial_alone(self, side):
        model = DSumModel(2, 3)
        d = (2, 3)[side - 1]
        raws = [ds_draw_local_op(trial_rng(80, k), d) for k in range(6)]
        stacked = model.from_local(ds_finish_local_op(side, *raw_columns(raws)))
        for k, raw in enumerate(raws):
            alone = model.from_local(ds_finish_local_op(side, *raw))
            for block, one in zip(stacked.payload, alone.payload):
                # The stack pads a lower-rank trial's block with zero operators.
                member, rank = block[k].kraus, len(one.kraus)
                assert np.array_equal(member[:rank], one.kraus) and not member[rank:].any()

    @pytest.mark.parametrize("bad", [1.5, -0.1, np.nan])
    def test_a_stack_of_local_ops_checks_every_sector_probability(self, bad):
        raws = [ds_draw_local_op(trial_rng(81, k), 2) for k in range(3)]
        a, keep, lam, p = raw_columns(raws)
        op = ds_finish_local_op(1, a, keep, lam, p)
        with pytest.raises(ValueError, match="sector probability"):
            DSumLocalOp(1, op.op_block, np.array([0.5, bad, 0.5]))

    @pytest.mark.parametrize("outcomes", [2, 4])
    @pytest.mark.parametrize("d1,d2", [(2, 3), (6, 5)])
    def test_a_dsum_chunk_equals_its_trials_evaluated_alone(self, d1, d2, outcomes):
        # Every third trial skips the conditioning quotient (pa <= 1e-6).
        cfg = SuiteConfig("dsum", seed=9, d1=d1, d2=d2, outcomes=outcomes)
        model = DSumModel(d1, d2)
        draws = [cli._dsum_draw(cfg, model, trial_rng(cfg.seed, k), k) for k in range(9)]
        draws = [_rare(draw) if k % 3 == 1 else draw for k, draw in enumerate(draws)]
        chunk = _rows(cli._dsum_evaluate(model, draws), len(draws))
        alone = [d for draw in draws for d in _rows(cli._dsum_evaluate(model, [draw]), 1)]
        assert _bits(chunk) == _bits(alone) == _bits([_one_trial(model, d) for d in draws])
        assert ["conditioning_quotient" in x for x in chunk] == [k % 3 != 1 for k in range(9)]
