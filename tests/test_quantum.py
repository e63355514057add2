"""Quantum model: operations, instruments, reductions, and the verifiers."""

import tracemalloc

import numpy as np
import pytest

from optheory import quantum
from optheory.framework import Transformation, commutation_defect, probe_shifts, total_of_action
from optheory.linalg import hermitian_coords, min_eig_herm, partial_trace, tensor, trace_norm
from optheory.report import run_trials
from optheory.quantum import (
    CHOI_BLOCK,
    CHOI_STACK_ENTRIES,
    CHOI_TILE,
    PAULI_X,
    IncompleteInstrument,
    Instrument,
    KrausOp,
    NotSelective,
    QuantumBipartite,
    QuantumModel,
    apply_quantum_op,
    choi_distance,
    coarse_grain_kraus,
    complement_kraus,
    local_embed,
    minimal_ic_povm,
    quantum_no_signaling_check,
    random_kraus,
    reduced_positivity_min_eig,
    scale_kraus,
    side1_kraus_outputs,
    side1_kraus_reductions,
    singlet_state,
    steering_witness,
    trace_biconditional_check,
    x_instrument,
    z_instrument,
)
from optheory.sampling import (
    ginibre_positive,
    ginibre_state,
    complex_gaussian,
    haar_isometry_blocks,
    trial_rng,
)

I2 = np.eye(2)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def random_op(rng, d):
    blocks = haar_isometry_blocks(rng, d, 3)
    return KrausOp(blocks[: int(rng.integers(1, 3))])


def superoperator(m: KrausOp) -> np.ndarray:
    """Reference kernel: sum_k K_k (x) conj(K_k), with row-major vec."""
    return sum(np.kron(k, k.conj()) for k in m.kraus)


def random_pure_state(rng, d):
    """Projector onto a Gaussian random unit vector."""
    v = complex_gaussian(rng, d, 1)[:, 0]
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


class TestKrausOpArray:
    def test_stacked_contract(self):
        blocks = haar_isometry_blocks(trial_rng(55), 3, 2)
        op = KrausOp(blocks)
        assert op.kraus.shape == (2, 3, 3) and op.kraus.dtype == complex
        assert len(op.kraus) == 2 and op.dim_in == op.dim_out == 3
        for k, b in enumerate(blocks):
            assert np.array_equal(op.kraus[k], b)
        again = KrausOp(op.kraus)
        assert np.array_equal(again.kraus, op.kraus)

    def test_rectangular_dims(self):
        op = KrausOp([np.ones((2, 3)) / 3])
        assert (op.dim_out, op.dim_in) == (2, 3)

    @pytest.mark.parametrize(
        "kraus",
        [
            [],
            np.zeros((0, 2, 2)),
            [I2, np.eye(3)],
            np.eye(2),
            [np.ones(2)],
            [np.array([[np.nan, 0.0], [0.0, 1.0]])],
            [np.array([[np.inf, 0.0], [0.0, 1.0]])],
        ],
        ids=["empty-list", "empty-array", "ragged", "bare-matrix", "vectors", "nan", "inf"],
    )
    def test_rejects_malformed(self, kraus):
        with pytest.raises(ValueError):
            KrausOp(kraus)


class TestChoiDistance:
    """``choi_distance`` against the superoperator kernel it replaces."""

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_matches_superoperator_distance(self, d):
        for k in range(8):
            rng = trial_rng(56, k)
            r1 = int(rng.integers(1, 4))
            r2 = r1 % 3 + 1  # never equal to r1
            a = KrausOp(haar_isometry_blocks(rng, d, 3)[:r1])
            b = KrausOp(haar_isometry_blocks(rng, d, 3)[:r2])
            reference = float(np.abs(superoperator(a) - superoperator(b)).max())
            assert reference > 1e-3
            assert abs(choi_distance(a, b) - reference) <= 1e-14

    def test_matches_superoperator_distance_on_the_joint(self):
        rng = trial_rng(57)
        a = KrausOp(haar_isometry_blocks(rng, 36, 3))
        b = KrausOp(haar_isometry_blocks(rng, 36, 2)[:1])
        reference = float(np.abs(superoperator(a) - superoperator(b)).max())
        assert abs(choi_distance(a, b) - reference) <= 1e-14

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            choi_distance(KrausOp([I2]), KrausOp([np.eye(3)]))


def dense_choi_difference(a: KrausOp, b: KrausOp) -> np.ndarray:
    """The whole ``D^2 x D^2`` product ``W^T S`` that the blocked kernel avoids."""
    w = np.concatenate([a.kraus, b.kraus]).reshape(len(a.kraus) + len(b.kraus), -1)
    s = w.conj()
    s[len(a.kraus) :] *= -1
    return w.T @ s


def dense_choi_distance(a: KrausOp, b: KrausOp) -> float:
    return float(np.abs(dense_choi_difference(a, b)).max())


class TestBlockedChoiDistance:
    """The upper block triangle, taken ``CHOI_BLOCK`` rows at a time or in
    square tiles of ``CHOI_TILE``, holds the largest entry of the whole
    Hermitian difference."""

    @pytest.mark.parametrize("d", [5, 9, 36])
    def test_matches_the_dense_product(self, d):
        assert (d * d) % CHOI_BLOCK != 0
        for k in range(3):
            rng = trial_rng(59, k)
            a = KrausOp(haar_isometry_blocks(rng, d, 3)[:2])
            b = KrausOp(haar_isometry_blocks(rng, d, 2)[:1])
            reference = dense_choi_distance(a, b)
            assert 0.01 < reference < 1.0
            assert abs(choi_distance(a, b) - reference) <= 1e-14

    def test_rectangular_map(self):
        # 9 x 12 Kraus operators: 108 entries, the last block partial.
        rng = trial_rng(60)
        # Not trace-nonincreasing, so stored unchecked.
        a = KrausOp._trusted(0.3 * complex_gaussian(rng, 2 * 9, 12).reshape(2, 9, 12))
        b = KrausOp._trusted(0.3 * complex_gaussian(rng, 3 * 9, 12).reshape(3, 9, 12))
        reference = dense_choi_distance(a, b)
        assert 0.01 < reference < 10.0
        assert abs(choi_distance(a, b) - reference) <= 1e-14

    @pytest.mark.parametrize("d, block", [(9, CHOI_BLOCK), (34, CHOI_TILE)])
    def test_largest_entry_in_the_last_partial_block(self, d, block):
        # d = 9 takes the batched route in blocks of CHOI_BLOCK rows, d = 34
        # the one-trial route in square tiles of CHOI_TILE.
        one_trial = CHOI_STACK_ENTRIES < 2 * CHOI_BLOCK * d * d
        assert one_trial == (block == CHOI_TILE) and (d * d) % block != 0
        last = (d * d - 1) // block * block
        assert block <= last < d * d
        rng = trial_rng(61)
        common = 0.05 * complex_gaussian(rng, 2 * d, d).reshape(2, d, d)
        # An extra Kraus operator on two vec indices of the last block adds
        # 0.3 to the four entries they span; elsewhere the difference is roundoff.
        planted = np.zeros((1, d * d), dtype=complex)
        planted[0, [last + 1, d * d - 1]] = np.sqrt(0.3)
        a = KrausOp(np.concatenate([common, planted.reshape(1, d, d)]))
        b = KrausOp(common)
        top = np.unravel_index(np.abs(dense_choi_difference(a, b)).argmax(), (d * d, d * d))
        assert min(top) >= last
        assert abs(choi_distance(a, b) - dense_choi_distance(a, b)) <= 1e-14
        assert choi_distance(a, b) == pytest.approx(0.3, abs=1e-14)

    def test_never_builds_the_whole_product(self):
        # The dense kernel peaks at about 40 MB here (two D^2 x D^2 arrays).
        rng = trial_rng(62)
        a = KrausOp(haar_isometry_blocks(rng, 36, 3))
        b = KrausOp(haar_isometry_blocks(rng, 36, 2)[:1])
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            choi_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 4e6

    def test_nan_planted_after_construction_fails_the_check(self):
        rng = trial_rng(63)
        a = KrausOp(haar_isometry_blocks(rng, 36, 2)[:1])
        b = KrausOp(a.kraus.copy())
        assert choi_distance(a, b) < 1e-14
        a.kraus[0, 35, 35] = np.nan  # the last vec index: the last block
        assert np.isnan(choi_distance(a, b))
        # In a stack, only the trial that holds the NaN reads NaN.
        distances = choi_distance(KrausOp._trusted(np.stack([b.kraus, a.kraus, b.kraus])), b)
        assert np.isnan(distances).tolist() == [False, True, False]
        assert distances[0] == distances[2] < 1e-14
        def evaluate(drawn):
            yield "commutation", slice(None), choi_distance(a, b)  # one NaN for every trial

        [check] = run_trials(0, range(3), lambda rng, k: (), evaluate, {"commutation": 1e-10})
        assert not check.passed
        assert check.worst_trial == 0


class TestKrausKernels:
    """The coarse-graining, scaling and complement kernels act on trace
    operators as K_a + K_b, lam K and I - K."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_trace_operators(self, d):
        for k in range(5):
            rng = trial_rng(58, k)
            a, b = random_kraus(rng, d, 0.3), random_kraus(rng, d, 0.3)
            ka, kb = a.trace_operator(), b.trace_operator()
            both = coarse_grain_kraus(a, b)
            assert len(both.kraus) == len(a.kraus) + len(b.kraus)
            assert np.abs(both.trace_operator() - (ka + kb)).max() <= 1e-14
            assert np.abs(scale_kraus(0.25, a).trace_operator() - 0.25 * ka).max() <= 1e-14
            rest = complement_kraus(a)
            assert len(rest.kraus) == 1
            assert np.abs(rest.trace_operator() + ka - np.eye(d)).max() <= 1e-12


class LeakyBipartite(QuantumBipartite):
    """Planted defect: embedding a right operation also flips side 1."""

    def embed_right(self, t):
        embedded = super().embed_right(t)
        flip = np.kron(PAULI_X, np.eye(self.d2))
        return Transformation(self.joint, KrausOp(embedded.payload.kraus @ flip), t.label)


def test_commutation_defect_catches_leaky_embedding():
    bip = LeakyBipartite(2, 2)
    worst = 0.0
    for k in range(5):
        rng = trial_rng(58, k)
        defect = commutation_defect(
            bip, bip.left.random_transformation(rng), bip.right.random_transformation(rng)
        )
        assert defect > 1e-3
        worst = max(worst, defect)
    assert not worst <= 1e-10  # the opcore gate


def test_probe_shifts_catches_a_same_side_probe():
    # Planted defect: the "probe" acts on side 1, where a complete Z measurement
    # dephases |+><+|, so the measurement is visible to it.
    bip = QuantumBipartite(2, 2)
    plus = np.full((2, 2), 0.5)
    joint = bip.joint.state(tensor(plus, I2 / 2))
    probe = bip.embed_left(bip.left.operation([plus]))
    z_total = total_of_action(bip.left.action_from_instrument(z_instrument()))
    assert probe_shifts(joint, bip.embed_left(z_total), [probe]) == pytest.approx([0.5], abs=1e-12)
    assert probe_shifts(joint, bip.embed_left(bip.left.identity()), [probe])[0] <= 1e-15


class TestApply:
    def test_identity(self):
        rng = trial_rng(40)
        rho = ginibre_state(rng, 3)
        assert np.allclose(apply_quantum_op(KrausOp([np.eye(3)]), rho), rho)

    def test_projector_on_maximally_mixed(self):
        out = apply_quantum_op(KrausOp([P0]), I2 / 2)
        assert np.trace(out).real == pytest.approx(0.5)
        assert np.allclose(out, P0 / 2)

    def test_positivity_preserved(self):
        for k in range(30):
            rng = trial_rng(41, k)
            rho = ginibre_state(rng, 3)
            out = apply_quantum_op(random_op(rng, 3), rho)
            assert min_eig_herm(out) >= -1e-10

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            apply_quantum_op(KrausOp([P0]), np.eye(3))


class TestKOperator:
    def test_trace_preserving_channel(self):
        blocks = haar_isometry_blocks(trial_rng(42), 2, 3)
        assert np.allclose(KrausOp(blocks).trace_operator(), I2, atol=1e-12)

    def test_scaled_identity(self):
        assert np.allclose(KrausOp([np.sqrt(0.3) * I2]).trace_operator(), 0.3 * I2, atol=1e-14)

    def test_trace_pairing(self):
        for k in range(25):
            rng = trial_rng(43, k)
            m = random_op(rng, 2)
            rho = ginibre_state(rng, 2)
            via_apply = np.trace(apply_quantum_op(m, rho)).real
            via_k = np.trace(m.trace_operator() @ rho).real
            assert abs(via_apply - via_k) <= 1e-12

    def test_rejects_trace_increasing(self):
        with pytest.raises(ValueError):
            KrausOp([1.2 * I2])


class TestLocalEmbed:
    def test_identity_embeds_to_identity(self):
        emb = local_embed(KrausOp([I2]), 3, side=1)
        assert np.allclose(emb.kraus[0], np.eye(6))

    @pytest.mark.parametrize("d", [2, 3])
    def test_opposite_sides_commute(self, d):
        for k in range(10):
            rng = trial_rng(44, k)
            a = local_embed(random_op(rng, d), d, side=1)
            b = local_embed(random_op(rng, d), d, side=2)
            rho = ginibre_state(rng, d * d)
            ab = apply_quantum_op(a, apply_quantum_op(b, rho))
            ba = apply_quantum_op(b, apply_quantum_op(a, rho))
            assert np.abs(ab - ba).max() <= 1e-12

    def test_projector_weight_on_singlet(self):
        emb = local_embed(KrausOp([P0]), 2, side=1)
        out = apply_quantum_op(emb, singlet_state())
        assert np.trace(out).real == pytest.approx(0.5, abs=1e-14)


class TestLocalState:
    def test_product(self):
        rng = trial_rng(45)
        rho = ginibre_state(rng, 2)
        sigma = ginibre_state(rng, 3)
        assert np.allclose(partial_trace(tensor(rho, sigma), 2, 3, side=1), sigma, atol=1e-12)

    def test_singlet_is_maximally_mixed(self):
        assert np.allclose(partial_trace(singlet_state(), 2, 2, side=1), I2 / 2, atol=1e-14)

    def test_weight_preserved(self):
        for k in range(10):
            rng = trial_rng(46, k)
            r = ginibre_positive(rng, 6)
            for side in (1, 2):
                assert np.trace(partial_trace(r, 2, 3, side)).real == pytest.approx(
                    np.trace(r).real, abs=1e-10
                )


class TestReducedPositivity:
    def test_identity_filter(self):
        rng = trial_rng(47)
        r = ginibre_positive(rng, 4)
        low = reduced_positivity_min_eig(np.eye(2), r, 2, 2)
        assert low == pytest.approx(min_eig_herm(partial_trace(r, 2, 2, side=1)), abs=1e-12)
        assert low >= 0.0

    def test_rank_one_case(self):
        r = np.zeros((4, 4), dtype=complex)
        r[0, 0] = 1.0  # |00><00|
        low = reduced_positivity_min_eig(P0, r, 2, 2)
        assert low == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_random_pairs(self, dims):
        d1, d2 = dims
        for k in range(60):
            rng = trial_rng(48, k)
            a = ginibre_positive(rng, d1)
            r = ginibre_positive(rng, d1 * d2)
            assert reduced_positivity_min_eig(a, r, d1, d2) >= -1e-10

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            reduced_positivity_min_eig(np.diag([1.0, -1.0]), np.eye(4), 2, 2)

    def test_stack_names_the_operator_that_fails(self):
        a = np.stack([np.eye(2), np.diag([1.0, -1.0]), np.eye(2)])
        r = np.broadcast_to(np.eye(4), (3, 4, 4))
        with pytest.raises(ValueError, match="local operator A must be PSD"):
            reduced_positivity_min_eig(a, r, 2, 2)
        with pytest.raises(ValueError, match="joint operator R must be PSD"):
            reduced_positivity_min_eig(r[:, :2, :2], -r, 2, 2)
        with pytest.raises(ValueError, match="3 local operators for 2 joint operators"):
            reduced_positivity_min_eig(r[:, :2, :2], r[:2], 2, 2)

    def test_a_reduction_that_overflows_is_refused_not_returned(self):
        # Finite PSD operands pass validation; their product does not fit a float.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="must be finite"):
                reduced_positivity_min_eig(1e200 * np.eye(2), 1e200 * np.eye(4), 2, 2)


class TestInstruments:
    def test_haar_instrument_complete(self):
        inst = QuantumModel(3).random_instrument(trial_rng(49), 4)
        assert inst.completeness_defect() <= 1e-12

    def test_incomplete_rejected(self):
        with pytest.raises(IncompleteInstrument):
            Instrument([KrausOp([np.sqrt(0.9) * I2])])


class TestQuantumNoSignaling:
    def test_singlet_z_and_x(self):
        rho = singlet_state()
        for inst in (z_instrument(), x_instrument()):
            report = quantum_no_signaling_check(rho, inst, 2, 2, tol=1e-12)
            assert report.passed and report.max_defect <= 1e-12
            after = sum(
                partial_trace(
                    apply_quantum_op(local_embed(op, 2, side=1), rho), 2, 2, side=1
                )
                for op in inst.outcomes
            )
            assert np.abs(after - I2 / 2).max() <= 1e-12

    def test_trivial_instrument(self):
        rng = trial_rng(50)
        rho = ginibre_state(rng, 4)
        inst = Instrument([KrausOp([I2])])
        report = quantum_no_signaling_check(rho, inst, 2, 2)
        assert report.max_defect == pytest.approx(0.0, abs=1e-15)

    def test_random_instruments(self):
        model = QuantumModel(2)
        for k in range(40):
            rng = trial_rng(51, k)
            rho = ginibre_state(rng, 6)
            inst = model.random_instrument(rng, int(rng.integers(2, 5)))
            report = quantum_no_signaling_check(rho, inst, 2, 3, tol=1e-10)
            assert report.passed, report.max_defect

    def test_trace_preserving_outcome_is_gated(self):
        # Outcome 0 of the Z instrument keeps all the weight of |0><0| (x) sigma.
        sigma = ginibre_state(trial_rng(54), 2)
        report = quantum_no_signaling_check(tensor(P0, sigma), z_instrument(), 2, 2)
        gate = next(c for c in report.checks if c.name == "trace_preserving_outcomes")
        assert report.details["trace_preserved_outcomes"] == 1
        assert gate.defect <= 1e-12 and report.passed

    def test_planted_shift_of_a_trace_preserving_outcome_fails_its_gate(self, monkeypatch):
        # A traceless 1e-4 |0><0| (x) Z added to outcome 0's output keeps its
        # trace, so the outcome stays trace-preserving while its reduction
        # moves: its remote reduction moves by Tr_1 of it, 1e-4 Z.
        real = side1_kraus_reductions
        planted = 1e-4 * np.diag([1.0, -1.0])

        def shifted(kraus, r, d1, d2):
            out = real(kraus, r, d1, d2)
            out[..., 0, :, :] += planted
            return out

        monkeypatch.setattr(quantum, "side1_kraus_reductions", shifted)
        sigma = ginibre_state(trial_rng(54), 2)
        report = quantum_no_signaling_check(tensor(P0, sigma), z_instrument(), 2, 2)
        gate = next(c for c in report.checks if c.name == "trace_preserving_outcomes")
        assert gate.defect > 1000 * quantum.REDUCED_TOL and not gate.passed
        assert not report.passed


def old_outcome_loop(rho, inst, d1, d2):
    """The per-outcome ``details`` the check built with ``kron`` embeddings."""
    before = partial_trace(rho, d1, d2, side=1)
    rows = []
    for op in inst.outcomes:
        out = apply_quantum_op(local_embed(op, d2, side=1), rho)
        reduced = partial_trace(out, d1, d2, side=1)
        trace_defect = abs(np.trace(out).real - np.trace(rho).real)
        rows.append({"trace_defect": trace_defect, "reduced_defect": trace_norm(reduced - before)})
    return rows


class TestSide1Kernel:
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (6, 6)])
    @pytest.mark.parametrize("n_kraus", [1, 2])
    def test_equals_the_kron_embedding(self, dims, n_kraus):
        d1, d2 = dims
        rng = trial_rng(55, 10 * d1 + d2 + 100 * n_kraus)
        r = ginibre_state(rng, d1 * d2)
        m = KrausOp(haar_isometry_blocks(rng, d1, 3)[:n_kraus])
        outs = side1_kraus_outputs(m.kraus, r)
        reduced = side1_kraus_reductions(m.kraus, r, d1, d2)
        assert outs.shape == (n_kraus, d1 * d2, d1 * d2) and reduced.shape == (n_kraus, d2, d2)
        for k, out, remote in zip(m.kraus, outs, reduced):
            single = apply_quantum_op(local_embed(KrausOp([k]), d2, side=1), r)
            assert np.abs(out - single).max() <= 1e-14
            assert np.abs(remote - partial_trace(single, d1, d2, side=1)).max() <= 1e-14
        whole = apply_quantum_op(local_embed(m, d2, side=1), r)
        assert np.abs(outs.sum(axis=0) - whole).max() <= 1e-14

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (6, 6)])
    def test_outcomes_with_different_kraus_counts(self, dims):
        # Kraus counts 2, 1 and 1, 2: each outcome sums its own run of the stack.
        d1, d2 = dims
        rng = trial_rng(56, 10 * d1 + d2)
        rho = ginibre_state(rng, d1 * d2)
        scaled = scale_kraus(0.6, KrausOp(haar_isometry_blocks(rng, d1, 3)[:2]))
        for outcomes in ([scaled, complement_kraus(scaled)], [complement_kraus(scaled), scaled]):
            inst = Instrument(outcomes)
            report = quantum_no_signaling_check(rho, inst, d1, d2)
            assert report.passed
            got, want = report.details["outcomes"], old_outcome_loop(rho, inst, d1, d2)
            assert len(got) == len(want) == 2
            for g, w in zip(got, want):
                assert g.keys() == w.keys()
                assert all(abs(g[key] - w[key]) <= 1e-14 for key in g)

    def test_rejects_a_local_operator_of_the_wrong_dimension(self):
        # A qubit operator divides a 6-dim joint space, so without the check
        # the reshape would read it as acting on a factor of the wrong size.
        rho = np.eye(6) / 6
        with pytest.raises(ValueError, match="expected d1=3"):
            quantum_no_signaling_check(rho, z_instrument(), 3, 2)
        with pytest.raises(ValueError, match="expected d1=3"):
            steering_witness(rho, KrausOp([P0]), 3, 2)
        with pytest.raises(ValueError, match="expected d1=3"):
            reduced_positivity_min_eig(P0, rho, 3, 2)


class TestTraceBiconditional:
    def test_passes_and_is_not_vacuous(self):
        report = trace_biconditional_check(trials=90, d1=2, d2=2, seed=5)
        assert report.passed
        assert report.details["trace_preserved_cases"] > 10

    def test_other_dims(self):
        report = trace_biconditional_check(trials=60, d1=2, d2=3, seed=6)
        assert report.passed

    def test_one_trial_draws_no_channel_and_is_not_gated_on_one(self):
        report = trace_biconditional_check(trials=1, d1=2, d2=2, seed=0)
        assert report.passed
        assert [c.name for c in report.checks] == ["biconditional"]

    def test_vacuous_audit_fails_its_gate(self, monkeypatch):
        # Halving every output, so its remote reduction, drops the trace of
        # each draw, channels included, so no trial exercises the
        # trace-preserved branch.
        real = quantum.side1_kraus_reductions
        monkeypatch.setattr(quantum, "side1_kraus_reductions", lambda *args: 0.5 * real(*args))
        report = trace_biconditional_check(trials=3, d1=2, d2=2, seed=0)
        assert report.details["trace_preserved_cases"] == 0
        assert [c.name for c in report.checks if not c.passed] == ["no_trace_preserved_case"]

    @pytest.mark.parametrize("d2,worst", [(2, 16), (3, 19)])
    def test_moved_reduction_at_preserved_trace_fails(self, monkeypatch, d2, worst):
        # A traceless shift |0><0| (x) diag(1, -1, 0...) of every output keeps
        # each trace and moves each remote reduction by diag(1e-4, -1e-4, 0...):
        # a trace-preserving M that signals.  A channel (kind 1) has two
        # outputs, so its shift is 4e-4.
        real = quantum.side1_kraus_reductions
        remote = np.zeros(d2)
        remote[:2] = 1.0, -1.0
        shift = 1e-4 * np.diag(remote)
        monkeypatch.setattr(quantum, "side1_kraus_reductions", lambda *args: real(*args) + shift)
        report = trace_biconditional_check(trials=30, d1=2, d2=d2, seed=0)
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["biconditional"]
        (check,) = failed
        assert check.defect == pytest.approx(4e-4, rel=1e-9)
        assert check.defect > 1000 * quantum.REDUCED_TOL
        assert check.worst_trial == worst and worst % 3 == 1
        assert report.witness["trial"] == worst
        assert report.witness["reduced_defect"] == check.defect


class TestSteering:
    def test_singlet_projector_steers_without_signaling(self):
        report = steering_witness(singlet_state(), KrausOp([P0]), 2, 2)
        w = report.witness
        assert w["conditional_distance"] == pytest.approx(1.0, abs=1e-10)
        assert w["average_defect"] <= 1e-12
        assert w["outcome_probability"] == pytest.approx(0.5, abs=1e-12)

    def test_product_state_is_not_steered(self):
        rng = trial_rng(52)
        sigma = ginibre_state(rng, 2)
        rho = tensor(I2 / 2, sigma)
        report = steering_witness(rho, KrausOp([P0]), 2, 2)
        assert report.witness["conditional_distance"] <= 1e-12

    def test_entangled_states_generically_steer(self):
        steered = 0
        for k in range(10):
            rng = trial_rng(53, k)
            rho = random_pure_state(rng, 4)
            outcome = KrausOp([random_pure_state(rng, 2)])
            try:
                report = steering_witness(rho, outcome, 2, 2)
            except NotSelective:
                continue
            if report.witness["conditional_distance"] > 1e-3:
                steered += 1
        assert steered >= 1

    def test_trace_preserving_outcome_rejected(self):
        with pytest.raises(NotSelective):
            steering_witness(singlet_state(), KrausOp([I2]), 2, 2)


class TestModelInterface:
    def test_complement_effect(self):
        model = QuantumModel(2)
        t = model.operation([np.sqrt(0.3) * I2], "weak")
        comp = model.complement(t)
        assert np.allclose(comp.payload.trace_operator(), 0.7 * I2, atol=1e-12)

    def test_superoperator_distance_ignores_kraus_gauge(self):
        model = QuantumModel(2)
        # Same channel, two Kraus decompositions: {P0, P1} and its rotation
        # by the unitary mixing matrix [[1,1],[1,-1]]/sqrt(2).
        t1 = model.operation([P0, P1])
        t2 = model.operation([(P0 + P1) / np.sqrt(2), (P0 - P1) / np.sqrt(2)])
        assert model.transformation_distance(t1, t2) <= 1e-14

    def test_state_validation(self):
        model = QuantumModel(2)
        with pytest.raises(ValueError):
            model.state(np.diag([1.2, -0.2]))
        with pytest.raises(ValueError):
            model.state(np.diag([0.7, 0.7]))


def tetrahedron_povm() -> list[np.ndarray]:
    """Reference: the qubit tetrahedron (I + s . sigma)/4, s in {(1,1,1), (1,-1,-1),
    (-1,1,-1), (-1,-1,1)}/sqrt(3), once built explicitly instead of as an orbit."""
    s = 1.0 / np.sqrt(3)
    dirs = [(s, s, s), (s, -s, -s), (-s, s, -s), (-s, -s, s)]
    return [
        (np.eye(2) + x * PAULI_X + y * quantum.PAULI_Y + z * quantum.PAULI_Z) / 4
        for x, y, z in dirs
    ]


def qutrit_orbit_povm() -> list[np.ndarray]:
    """Reference: the d = 3 orbit of (0, 1, -1)/sqrt(2) as it was once built, with
    the shift and clock matrices written out."""
    shift = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        shift[(j + 1) % 3, j] = 1.0
    clock = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    fiducial = np.array([0.0, 1.0, -1.0], dtype=complex) / np.sqrt(2)
    effects = []
    for a in range(3):
        for b in range(3):
            v = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b) @ fiducial
            effects.append(np.outer(v, v.conj()) / 3)
    return effects


def displaced(psi: np.ndarray, a: int, b: int) -> np.ndarray:
    """X^a Z^b psi from index arithmetic: Z multiplies psi_j by exp(2 pi i j / d),
    X moves entry j to j + 1 mod d."""
    d = len(psi)
    return np.roll(np.exp(2j * np.pi * b * np.arange(d) / d) * psi, a)


class TestICPovm:
    @pytest.mark.parametrize("d,expected", [(d, d * d) for d in range(2, 7)])
    def test_complete_and_full_rank(self, d, expected):
        effects = minimal_ic_povm(d)
        assert len(effects) == expected
        assert np.abs(sum(effects) - np.eye(d)).max() <= 1e-14
        from optheory.linalg import span_rank

        assert span_rank(list(effects)) == expected

    @pytest.mark.parametrize("d", range(2, 7))
    def test_effects_are_the_fiducial_orbit(self, d):
        psi = np.array(quantum._SIC_FIDUCIALS[d], dtype=complex)
        assert psi[0].imag == 0.0
        assert abs(np.vdot(psi, psi) - 1.0) <= 1e-15
        effects = minimal_ic_povm(d)
        for k, (a, b) in enumerate((a, b) for a in range(d) for b in range(d)):
            v = displaced(psi, a, b)
            np.testing.assert_allclose(effects[k], np.outer(v, v.conj()) / d, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_fiducial_overlaps_stay_away_from_zero(self, d):
        # IC exactly when no overlap vanishes; a SIC fiducial has them all at 1/sqrt(d+1).
        psi = np.array(quantum._SIC_FIDUCIALS[d], dtype=complex)
        overlaps = [
            abs(np.vdot(psi, displaced(psi, a, b)))
            for a in range(d)
            for b in range(d)
            if (a, b) != (0, 0)
        ]
        assert min(overlaps) >= 0.2
        assert max(abs(o - 1 / np.sqrt(d + 1)) for o in overlaps) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 7))
    def test_local_coordinate_rows_are_well_conditioned(self, d):
        svals = np.linalg.svd(hermitian_coords(np.array(minimal_ic_povm(d))), compute_uv=False)
        assert svals.min() / svals.max() >= 0.2

    def test_six_by_six_product_rows_are_well_conditioned(self):
        from optheory.tomography import minimal_ic_observable, product_rows

        bip = QuantumBipartite(6, 6)
        rows = product_rows(minimal_ic_observable(bip.left), minimal_ic_observable(bip.right), bip)
        svals = np.linalg.svd(rows, compute_uv=False)
        assert rows.shape == (1296, 1296)
        assert svals.min() / svals.max() >= 0.1

    @pytest.mark.parametrize("d", [1, 7])
    def test_dimension_outside_the_table_is_refused(self, d):
        with pytest.raises(ValueError, match=r"2\.\.6"):
            minimal_ic_povm(d)

    def test_a_rank_deficient_orbit_is_refused(self, monkeypatch):
        # The orbit of |0> is the d basis projectors, each d times: complete, rank d.
        monkeypatch.setitem(quantum._SIC_FIDUCIALS, 3, (1.0, 0.0, 0.0))
        with pytest.raises(RuntimeError, match="rank-deficient at d=3"):
            minimal_ic_povm.__wrapped__(3)  # past the cache

    def test_qubit_effects_are_the_tetrahedron(self):
        effects, reference = minimal_ic_povm(2), tetrahedron_povm()
        matches = [
            [k for k, r in enumerate(reference) if np.abs(e - r).max() <= 1e-15] for e in effects
        ]
        assert sorted(k for m in matches for k in m) == [0, 1, 2, 3]

    def test_qutrit_effects_equal_the_written_out_orbit_bit_for_bit(self):
        for got, want in zip(minimal_ic_povm(3), qutrit_orbit_povm(), strict=True):
            assert np.array_equal(got, want)

    def test_qubit_tetrahedron_overlaps(self):
        effects = minimal_ic_povm(2)
        # Tr[E_i E_j] = (1 + s_i . s_j)/8: 1/4 on the diagonal and, since
        # tetrahedron directions have s_i . s_j = -1/3, 1/12 off-diagonal.
        for i in range(4):
            for j in range(4):
                expected = 1.0 / 4.0 if i == j else 1.0 / 12.0
                got = np.trace(effects[i] @ effects[j]).real
                assert got == pytest.approx(expected, abs=1e-12)


def test_bipartite_embed_roundtrip():
    bip = QuantumBipartite(2, 3)
    rng = trial_rng(54)
    t = bip.left.random_transformation(rng)
    emb = bip.embed_left(t)
    rho = ginibre_state(rng, 6)
    direct = apply_quantum_op(local_embed(t.payload, 3, side=1), rho)
    assert np.allclose(apply_quantum_op(emb.payload, rho), direct, atol=1e-14)
