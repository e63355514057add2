"""Informational completeness, affine dimensions, and the observability audit."""

from dataclasses import replace

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optheory import quantum
from optheory.directsum import DSumBipartite, DSumModel
from optheory.framework import BipartiteModel, ClassicalBipartite, ClassicalModel, Effect, State
from optheory.linalg import (
    FULL_RANK_MARGIN,
    RANK_TOL,
    direct_sum,
    hermitian_coords,
    require_hermitian,
)
from optheory.quantum import QuantumBipartite, QuantumModel
from optheory.sampling import trial_rng
from optheory.tomography import (
    PRODUCT_CHUNK,
    _gram_full_rank_bound,
    ICCertificate,
    NotInformationallyComplete,
    Observable,
    affine_dims,
    audit_rows,
    dimension_identity_check,
    expand_in_ic,
    ic_rank,
    local_observability_audit,
    minimal_ic_observable,
    product_observable,
    product_rows,
)

qubit = QuantumModel(2)
qutrit = QuantumModel(3)

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


class TestICRank:
    def test_z_projectors_incomplete(self):
        obs = Observable([Effect(qubit, P0), Effect(qubit, P1)])
        cert = ic_rank(obs)
        assert cert.rank == 2
        assert cert.effect_space_dim == 4
        assert not cert.informationally_complete
        assert not cert.minimal

    def test_qubit_sic_is_minimal(self):
        cert = ic_rank(minimal_ic_observable(qubit))
        assert cert.rank == 4 == cert.effect_space_dim
        assert cert.informationally_complete and cert.minimal

    def test_qutrit_orbit_is_minimal(self):
        cert = ic_rank(minimal_ic_observable(qutrit))
        assert cert.rank == 9 and cert.minimal

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_classical_point_observable(self, n):
        cert = ic_rank(minimal_ic_observable(ClassicalModel(n)))
        assert cert.rank == n and cert.minimal

    def test_dsum_block_ic(self):
        cert = ic_rank(minimal_ic_observable(DSumModel(2, 2)))
        assert cert.rank == 8 == cert.effect_space_dim and cert.minimal


class TestExpandInIC:
    sic = minimal_ic_observable(qubit)

    def test_basis_element_gives_unit_vector(self):
        coeffs = expand_in_ic(self.sic.effects[1], self.sic)
        assert np.allclose(coeffs, [0.0, 1.0, 0.0, 0.0], atol=1e-10)

    def test_unit_effect_gives_all_ones(self):
        coeffs = expand_in_ic(qubit.unit_effect(), self.sic)
        assert np.allclose(coeffs, np.ones(4), atol=1e-10)

    def test_projector_reconstruction(self):
        coeffs = expand_in_ic(Effect(qubit, PLUS), self.sic)
        rebuilt = sum(c * e.payload for c, e in zip(coeffs, self.sic.effects))
        assert np.abs(rebuilt - PLUS).max() <= 1e-10

    def test_builds_the_rows_once(self, monkeypatch):
        calls = []
        rows = Observable.coordinate_rows

        def counted(obs):
            calls.append(obs)
            return rows(obs)

        monkeypatch.setattr(Observable, "coordinate_rows", counted)
        expand_in_ic(Effect(qubit, PLUS), self.sic)
        assert calls == [self.sic]

    def test_incomplete_observable_rejected(self):
        obs = Observable([Effect(qubit, P0), Effect(qubit, P1)])
        with pytest.raises(NotInformationallyComplete):
            expand_in_ic(qubit.unit_effect(), obs)

    def test_random_effects_reconstruct(self):
        from optheory.sampling import ginibre_positive, trial_rng
        from optheory.linalg import max_eig_herm

        for k in range(100):
            g = ginibre_positive(trial_rng(80, k), 2)
            effect = Effect(qubit, g / max(1.0, max_eig_herm(g)))
            coeffs = expand_in_ic(effect, self.sic)
            rebuilt = sum(c * e.payload for c, e in zip(coeffs, self.sic.effects))
            assert np.abs(rebuilt - effect.payload).max() <= 1e-9


class TestAffineDims:
    @pytest.mark.parametrize(
        "model,expected",
        [
            (qubit, (3, 4)),
            (ClassicalModel(2), (1, 2)),
            (qutrit, (8, 9)),
            (DSumModel(2, 2), (7, 8)),
        ],
        ids=["qubit", "bit", "qutrit", "dsum"],
    )
    def test_values(self, model, expected):
        assert affine_dims(model) == expected

    @pytest.mark.parametrize(
        "model",
        [ClassicalModel(2), ClassicalModel(5), qubit, qutrit, DSumModel(2, 3)],
        ids=lambda m: m.name,
    )
    def test_duality_count(self, model):
        adm_states, adm_effects = affine_dims(model)
        assert adm_states + 1 == adm_effects

    @pytest.mark.parametrize(
        "model", [ClassicalModel(3), qubit, qutrit, DSumModel(2, 2)], ids=lambda m: m.name
    )
    def test_builtin_ic_matches_effect_dim(self, model):
        obs = minimal_ic_observable(model)
        cert = ic_rank(obs)
        assert len(obs) == affine_dims(model)[1]
        assert cert.rank == len(obs)
        # One stacked coordinate call, bit for bit the per-effect rows.
        per_effect = np.array([model.effect_coords(e) for e in obs.effects])
        rows = obs.coordinate_rows()
        assert rows.shape == per_effect.shape and rows.tobytes() == per_effect.tobytes()


class TestProductObservable:
    def test_unit_times_unit(self):
        bip = ClassicalBipartite(2, 2)
        obs = product_observable(
            Observable([bip.left.unit_effect()]),
            Observable([bip.right.unit_effect()]),
            bip,
        )
        assert len(obs) == 1

    def test_sic_times_sic(self):
        bip = QuantumBipartite(2, 2)
        obs = product_observable(
            minimal_ic_observable(bip.left), minimal_ic_observable(bip.right), bip
        )
        assert len(obs) == 16  # observable construction validates the unit sum

    def test_classical_points(self):
        bip = ClassicalBipartite(2, 2)
        obs = product_observable(
            minimal_ic_observable(bip.left), minimal_ic_observable(bip.right), bip
        )
        assert len(obs) == 4

    def test_dsum_products_stay_complete(self):
        bip = DSumBipartite(2, 3)
        obs = product_observable(
            minimal_ic_observable(bip.left), minimal_ic_observable(bip.right), bip
        )
        assert len(obs) == 36


class Depolarized(QuantumBipartite):
    """Planted defect: the right factor of every product effect is replaced by
    its value on the maximally mixed state, Tr[e] I/d2."""

    def product_payloads(self, lefts, rights):
        mixed = [
            Effect(self.right, np.trace(e.payload) * np.eye(self.d2) / self.d2) for e in rights
        ]
        return super().product_payloads(lefts, mixed)


class TestObservabilityAudit:
    def test_two_qubit_tensor_passes(self):
        report = local_observability_audit(QuantumBipartite(2, 2), seed=1)
        assert report.passed
        assert report.details["rank"] == 16 == report.details["ambient_effect_dim"]
        assert report.details["product_observable_rank"] == 16

    def test_classical_passes(self):
        report = local_observability_audit(ClassicalBipartite(2, 2), seed=1)
        assert report.passed and report.details["rank"] == 4

    @pytest.mark.parametrize("d1,d2,rank,ambient", [(2, 2, 8, 16), (2, 3, 13, 25)])
    def test_dsum_fails_with_block_rank(self, d1, d2, rank, ambient):
        report = local_observability_audit(DSumBipartite(d1, d2), seed=1)
        assert not report.passed
        assert report.details["rank"] == rank
        assert report.details["ambient_effect_dim"] == ambient
        # A single tied product observable spans one dimension less than the
        # full block space: completeness couples the two sectors.
        assert report.details["product_observable_rank"] == rank - 1
        # The deficient product rank sends the audit through the sampled batch.
        assert report.trials == report.details["product_outcomes"] + ambient + 32

    @pytest.mark.parametrize(
        "bip", [QuantumBipartite(3, 3), ClassicalBipartite(2, 3)], ids=["quantum", "classical"]
    )
    def test_full_product_rank_draws_no_samples(self, bip, monkeypatch):
        def no_sampling(self, *args):
            raise AssertionError("a full product rank needs no sampled effects")

        monkeypatch.setattr(BipartiteModel, "random_product_effect", no_sampling)
        monkeypatch.setattr(BipartiteModel, "random_product_rows", no_sampling)
        report = local_observability_audit(bip, seed=2)
        d = report.details
        assert report.passed
        assert d["rank"] == d["product_observable_rank"] == d["ambient_effect_dim"]
        assert report.trials == d["product_outcomes"]

    def test_planted_defect_takes_the_sampled_path(self):
        # The product observable of Depolarized stays complete, but it spans
        # only d1^2 of (d1 d2)^2 dimensions, so the audit must sample and still fail.
        report = local_observability_audit(Depolarized(2, 3), seed=0)
        d = report.details
        assert not report.passed
        assert d["product_observable_rank"] == d["rank"] == 4 < d["ambient_effect_dim"] == 36
        assert report.trials == d["product_outcomes"] + 36 + 32


class TestRandomProductRows:
    """The stacked sampler repeats ``random_product_effect`` trial by trial."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (6, 6)], ids=str)
    def test_dsum_union_rows_equal_the_per_trial_effects(self, dims, seed):
        bip = DSumBipartite(*dims)
        n = bip.ambient_effect_dim + 32  # the audit's sample count
        drawn = [bip.random_product_effect(trial_rng(seed, k)).payload for k in range(n)]
        plus, minus = bip.joint.stack_effects(drawn)
        expected = hermitian_coords(direct_sum(plus, minus))
        rows = bip.random_product_rows(seed, n)
        assert rows.shape == (n, bip.ambient_effect_dim)
        assert rows.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "composite", [ClassicalBipartite, QuantumBipartite], ids=lambda c: c.__name__
    )
    def test_generic_rows_equal_the_per_trial_effects(self, composite, seed):
        bip = composite(2, 3)
        drawn = [bip.random_product_effect(trial_rng(seed, k)).payload for k in range(40)]
        expected = bip.joint.effect_coords(Effect(bip.joint, np.stack(drawn)))
        assert bip.random_product_rows(seed, 40).tobytes() == expected.tobytes()


def reference_rows(bip: BipartiteModel, o1: Observable, o2: Observable) -> np.ndarray:
    """Ambient rows of every product effect, one pair at a time, with the
    product and coordinate formulas the audit used before ``product_rows``."""
    rows = []
    for e1 in o1.effects:
        for e2 in o2.effects:
            if isinstance(bip, DSumBipartite):
                p = bip.left.evaluate(e1, State(bip.left, np.eye(bip.d1) / bip.d1))
                q = bip.right.evaluate(e2, State(bip.right, np.eye(bip.d2) / bip.d2))
                kl, kr = require_hermitian(e1.payload), require_hermitian(e2.payload)
                rows.append(hermitian_coords(direct_sum(q * kl, p * kr)))
            else:
                product = Effect(bip.joint, np.kron(e1.payload, e2.payload))
                rows.append(bip.joint.effect_coords(product))
    return np.array(rows)


COMPOSITES = [ClassicalBipartite, QuantumBipartite, DSumBipartite]


class TestProductRows:
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (6, 5)], ids=str)
    @pytest.mark.parametrize("composite", COMPOSITES, ids=lambda c: c.__name__)
    def test_equal_the_per_pair_reference(self, composite, dims):
        bip = composite(*dims)
        o1, o2 = minimal_ic_observable(bip.left), minimal_ic_observable(bip.right)
        expected = reference_rows(bip, o1, o2)
        rows = product_rows(o1, o2, bip)
        assert rows.shape == expected.shape == (len(o1) * len(o2), bip.ambient_effect_dim)
        assert rows.tobytes() == expected.tobytes()
        # product_effect is derived from the same hook.
        pairs = [bip.product_effect(e1, e2).payload for e1 in o1.effects for e2 in o2.effects]
        assert bip.ambient_rows(bip.joint.stack_effects(pairs)).tobytes() == expected.tobytes()
        # So is product_observable, one Effect per product.
        products = [e.payload for e in product_observable(o1, o2, bip).effects]
        assert bip.ambient_rows(bip.joint.stack_effects(products)).tobytes() == expected.tobytes()

    def test_no_call_exceeds_the_chunk(self, monkeypatch):
        coords = quantum.trusted_hermitian_coords
        sizes = []

        def spy(a):
            rows = coords(a)
            sizes.append(len(rows) if rows.ndim == 2 else 1)
            return rows

        monkeypatch.setattr(quantum, "trusted_hermitian_coords", spy)
        report = local_observability_audit(QuantumBipartite(6, 6), seed=0)
        assert report.passed and report.details["product_outcomes"] == 1296
        assert max(sizes) <= PRODUCT_CHUNK < 1296 <= sum(sizes)

    @pytest.mark.parametrize("composite", COMPOSITES, ids=lambda c: c.__name__)
    def test_dropped_product_fails_the_unit_sum(self, composite):
        class Dropped(composite):
            def product_payloads(self, lefts, rights):
                stack = super().product_payloads(lefts, rights)
                payloads = [self.joint.take(stack, k) for k in range(len(lefts) * len(rights))]
                zero = Effect(self.left, 0 * lefts[0].payload)
                payloads[0] = self.joint.take(super().product_payloads([zero], rights[:1]), 0)
                return self.joint.stack_effects(payloads)

        with pytest.raises(ValueError, match="effects do not sum to the unit: defect"):
            local_observability_audit(Dropped(2, 3), seed=0)

    @pytest.mark.parametrize(
        "composite,message",
        [
            (ClassicalBipartite, "effects do not sum to the unit: defect nan"),
            (QuantumBipartite, "effects do not sum to the unit: defect nan"),
            (DSumBipartite, "must be finite"),  # direct_sum scans its blocks
        ],
        ids=["classical", "quantum", "dsum"],
    )
    def test_a_nan_product_is_refused(self, composite, message):
        class Poisoned(composite):
            def product_payloads(self, lefts, rights):
                stack = super().product_payloads(lefts, rights)
                first = stack[0] if isinstance(stack, tuple) else stack
                first[(0,) * first.ndim] = np.nan
                return stack

        bip = Poisoned(2, 3)
        o1, o2 = minimal_ic_observable(bip.left), minimal_ic_observable(bip.right)
        with pytest.raises(ValueError, match=message):
            product_rows(o1, o2, bip)


class TestFullRankCertificateInAudit:
    def test_tensor_audit_needs_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("full rank should be certified without an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        report = local_observability_audit(QuantumBipartite(3, 3), seed=0)
        d = report.details
        assert report.passed and d["rank"] == d["ambient_effect_dim"] == 81
        assert d["product_full_rank_bound"] > FULL_RANK_MARGIN * RANK_TOL
        assert "union_full_rank_bound" not in d

    def test_six_by_six_tensor_bound_clears_the_margin_widely(self):
        # The Weyl-Heisenberg POVMs put the (6,6) Gram certificate near 0.143,
        # over 1e5 times FULL_RANK_MARGIN * RANK_TOL.
        d = local_observability_audit(QuantumBipartite(6, 6), seed=0).details
        assert d["rank"] == d["ambient_effect_dim"] == 1296
        assert d["product_full_rank_bound"] >= 0.1

    def test_dsum_audit_is_decided_by_the_svd(self, monkeypatch):
        svd = np.linalg.svd
        shapes = []

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        report = local_observability_audit(DSumBipartite(2, 3), seed=0)
        d = report.details
        assert not report.passed and d["rank"] == 13
        # The certificate declines on the product rows, so the SVD decides them
        # and then their union with the sampled batch.
        assert shapes == [(36, 25), (36 + 25 + 32, 25)]
        assert d["product_full_rank_bound"] == 0.0 and "union_full_rank_bound" not in d


class TestGramCertificate:
    """``_gram_full_rank_bound`` against the SVD of the rows it certifies."""

    @staticmethod
    def bound_and_svd_ratio(bip, perturbation=None):
        o1, o2 = minimal_ic_observable(bip.left), minimal_ic_observable(bip.right)
        rows = product_rows(o1, o2, bip)
        if perturbation is not None:
            rows = rows + perturbation(rows.shape)
        s = np.linalg.svd(rows, compute_uv=False)
        bound = _gram_full_rank_bound(rows, o1.coordinate_rows(), o2.coordinate_rows())
        return bound, s.min() / s.max()

    @settings(max_examples=40, deadline=None)
    @given(
        composite=st.sampled_from([ClassicalBipartite, QuantumBipartite]),
        d1=st.integers(2, 4),
        d2=st.integers(2, 4),
        scale=st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bound_never_exceeds_the_svd_ratio(self, composite, d1, d2, scale, seed):
        # A perturbation of the rows breaks their Gram identity by about its scale.
        noise = np.random.default_rng(seed).standard_normal
        bound, ratio = self.bound_and_svd_ratio(composite(d1, d2), lambda s: scale * noise(s))
        assert 0.0 <= bound <= ratio
        if scale <= 1e-12:
            assert bound > FULL_RANK_MARGIN * RANK_TOL

    @pytest.mark.parametrize("dims", [(5, 6), (6, 6)], ids=str)
    def test_large_quantum_bound_is_nearly_the_svd_ratio(self, dims):
        bound, ratio = self.bound_and_svd_ratio(QuantumBipartite(*dims))
        assert ratio - 1e-6 < bound <= ratio
        assert bound >= 0.1

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 4), (4, 4)], ids=str)
    @pytest.mark.parametrize("composite", [DSumBipartite, Depolarized], ids=lambda c: c.__name__)
    def test_deficient_rows_read_zero_and_the_svd_decides(self, composite, dims, monkeypatch):
        svd = np.linalg.svd
        shapes = []

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        report = local_observability_audit(composite(*dims), seed=0)
        d = report.details
        outcomes, ambient = d["product_outcomes"], d["ambient_effect_dim"]
        assert d["product_full_rank_bound"] == 0.0
        assert shapes == [(outcomes, ambient), (outcomes + ambient + 32, ambient)]
        assert not report.passed and d["rank"] < ambient

    def test_more_rows_than_columns_decline_before_any_gram(self):
        # Such rows cannot be independent: the local rows are never read.
        assert _gram_full_rank_bound(np.ones((5, 4)), None, None) == 0.0

    def test_holds_one_gram_sized_temporary(self):
        bip = QuantumBipartite(6, 6)
        o1, o2 = minimal_ic_observable(bip.left), minimal_ic_observable(bip.right)
        rows, c1, c2 = product_rows(o1, o2, bip), o1.coordinate_rows(), o2.coordinate_rows()
        tracemalloc.start()
        try:
            _gram_full_rank_bound(rows, c1, c2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * rows.shape[0] ** 2 * rows.itemsize


class TestDimensionIdentity:
    def test_qubit_qubit(self):
        report = dimension_identity_check(QuantumBipartite(2, 2), seed=1)
        assert report.passed
        d = report.details
        assert (d["adm_joint"], d["formula"]) == (15, 15)
        assert d["product_outcomes"] == d["expected_outcomes"] == 16

    def test_qubit_qutrit(self):
        report = dimension_identity_check(QuantumBipartite(2, 3), seed=1)
        assert report.passed
        assert report.details["adm_joint"] == 35 == report.details["formula"]
        assert report.details["product_outcomes"] == 36

    def test_qutrit_qutrit(self):
        report = dimension_identity_check(QuantumBipartite(3, 3), seed=1)
        assert report.passed and report.ok and not report.expected_failure
        assert report.details["adm_joint"] == 80 == report.details["formula"]
        assert report.details["product_outcomes"] == 81

    def test_bit_bit(self):
        report = dimension_identity_check(ClassicalBipartite(2, 2), seed=1)
        assert report.passed
        assert report.details["adm_joint"] == 3 == report.details["formula"]

    def test_trivial_component_degenerates(self):
        report = dimension_identity_check(ClassicalBipartite(1, 3), seed=1)
        assert report.passed
        assert report.details["adm_left"] == 0
        assert report.details["adm_joint"] == report.details["adm_right"] == 2

    def test_dsum_fails_as_expected(self):
        report = dimension_identity_check(DSumBipartite(2, 2), seed=1)
        assert not report.passed
        assert report.expected_failure
        assert report.ok
        assert report.details["adm_joint"] == 7 and report.details["formula"] == 15

    def test_outcome_count_off_by_one_fails_its_own_check(self):
        bip = QuantumBipartite(2, 2)
        lop = local_observability_audit(bip, seed=1)
        planted = replace(lop, details={**lop.details, "product_outcomes": 17})
        report = dimension_identity_check(bip, seed=1, audit=planted)
        assert not report.passed and not report.ok
        assert [c.name for c in report.checks if not c.passed] == ["product_outcomes"]
        assert report.max_defect == 1.0 > report.tol


    @pytest.mark.parametrize(
        "bip",
        [ClassicalBipartite(2, 3), QuantumBipartite(2, 3), DSumBipartite(2, 3)],
        ids=["classical", "quantum", "dsum"],
    )
    def test_given_audit_matches_own_audit(self, bip):
        lop = local_observability_audit(bip, seed=1)
        given = dimension_identity_check(bip, seed=1, audit=lop)
        own = dimension_identity_check(bip, seed=1)
        assert given.details == own.details
        assert (given.passed, given.expected_failure) == (own.passed, own.expected_failure)


ROW_KEYS = (
    "model", "adm_states", "adm_effects", "lop_rank", "lop_ambient",
    "lop_pass", "lop_ok", "identity_pass", "identity_ok", "expected_failure",
)
# audit_rows as computed when every audit also drew the sampled batch (the
# same rows at seeds 0 and 1).  Skipping the batch at full product rank must
# leave every field unchanged.
GOLDEN_ROWS = {
    (2, 3): [
        ("classical 2x3", 5, 6, 6, 6, True, True, True, True, False),
        ("quantum 2x3", 35, 36, 36, 36, True, True, True, True, False),
        ("dsum 2+3", 12, 13, 13, 25, False, True, False, True, True),
    ],
    (5, 6): [
        ("classical 5x6", 29, 30, 30, 30, True, True, True, True, False),
        ("quantum 5x6", 899, 900, 900, 900, True, True, True, True, False),
        ("dsum 5+6", 60, 61, 61, 121, False, True, False, True, True),
    ],
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("d1,d2", sorted(GOLDEN_ROWS))
def test_audit_rows_match_golden(d1, d2, seed):
    assert audit_rows(d1, d2, seed=seed) == [
        dict(zip(ROW_KEYS, row)) for row in GOLDEN_ROWS[d1, d2]
    ]


def test_audit_rows_structure():
    rows = audit_rows(2, 2, seed=0)
    assert [r["model"] for r in rows] == ["classical 2x2", "quantum 2x2", "dsum 2+2"]
    assert all(r["lop_ok"] and r["identity_ok"] for r in rows)
    dsum_row = rows[2]
    assert not dsum_row["lop_pass"] and dsum_row["lop_rank"] == 8


def test_certificate_dataclass_consistency():
    obs = minimal_ic_observable(qubit)
    cert = ic_rank(obs)
    assert isinstance(cert, ICCertificate)
    assert cert.rank <= cert.effect_space_dim


def test_incomplete_observable_rejected():
    with pytest.raises(ValueError, match="effects do not sum to the unit: defect 1.000e"):
        Observable([Effect(qubit, P0)])


def test_non_hermitian_local_effect_is_refused_at_the_observable():
    # The product rows skip re-validation, so the observable is the check.
    # The two skews cancel: the effects sum to the unit, so only a check of
    # each effect refuses them.
    skew = P0 + 1e-6 * np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        Observable([Effect(qubit, skew), Effect(qubit, np.eye(2) - skew)])


def test_model_without_dual_coordinates_rejected():
    class Opaque(ClassicalModel):
        def effect_coords(self, e):
            raise NotImplementedError("no dual coordinates")

    model = Opaque(2)
    with pytest.raises(ValueError, match="dual"):
        Observable([model.unit_effect()])
