"""Kernel linear algebra: composition, partial traces, eigenanalysis, spans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optheory.linalg import (
    FULL_RANK_MARGIN,
    PSD_SLACK,
    RANK_TOL,
    direct_sum,
    eigvals_herm,
    full_rank_bound,
    hermitian_basis,
    hermitian_coords,
    hermitian_from_coords,
    matrix_from_json,
    matrix_to_json,
    max_eig_herm,
    min_eig_herm,
    partial_trace,
    psd_sqrt,
    rank_of_rows,
    require_hermitian,
    require_psd,
    span_rank,
    tensor,
    trace_norm,
)
from optheory.directsum import DSumState
from optheory.framework import Effect
from optheory.quantum import PAULI_X, PAULI_Y, PAULI_Z, QuantumModel, reduced_positivity_min_eig
from optheory.sampling import complex_gaussian, ginibre_positive, trial_rng

I2 = np.eye(2)


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(I2, I2), np.eye(4))

    def test_basis_projectors(self):
        got = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_pauli_product_spectrum(self):
        # Eigenvalues of a Kronecker product are products of eigenvalues:
        # {+1,-1} x {+1,-1} gives -1 twice and +1 twice.
        eigs = np.linalg.eigvalsh(tensor(PAULI_X, PAULI_Z))
        assert np.allclose(eigs, [-1.0, -1.0, 1.0, 1.0], atol=1e-12)

    def test_associative_and_bilinear(self):
        rng = trial_rng(11)
        for _ in range(10):
            a = complex_gaussian(rng, 2, 2)
            b = complex_gaussian(rng, 3, 3)
            c = complex_gaussian(rng, 2, 2)
            left = tensor(tensor(a, b), c)
            right = tensor(a, tensor(b, c))
            assert np.abs(left - right).max() <= 1e-12 * max(1.0, np.abs(left).max())
            lam, mu = rng.standard_normal(2)
            lin = tensor(lam * a + mu * c, b)
            split = lam * tensor(a, b) + mu * tensor(c, b)
            assert np.abs(lin - split).max() <= 1e-12 * max(1.0, np.abs(lin).max())


class TestDirectSum:
    def test_scalars(self):
        assert np.array_equal(direct_sum([[1.0]], [[1.0]]), np.eye(2))

    def test_block_placement(self):
        got = direct_sum(PAULI_X, [[0.0]])
        expected = np.zeros((3, 3), dtype=complex)
        expected[:2, :2] = PAULI_X
        assert np.array_equal(got, expected)

    def test_trace_additivity(self):
        rng = trial_rng(12)
        for _ in range(10):
            a = complex_gaussian(rng, 2, 2)
            b = complex_gaussian(rng, 3, 3)
            assert np.isclose(
                np.trace(direct_sum(a, b)), np.trace(a) + np.trace(b), atol=1e-12
            )

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            direct_sum(np.ones((2, 3)), I2)


class TestPartialTrace:
    def test_product_state(self):
        rng = trial_rng(13)
        rho = ginibre_positive(rng, 2)
        sigma = ginibre_positive(rng, 3)
        reduced = partial_trace(tensor(rho, sigma), 2, 3, side=1)
        assert np.allclose(reduced, np.trace(rho) * sigma, atol=1e-12)

    def test_singlet_marginal(self):
        v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        rho = np.outer(v, v)
        # Independent oracle: sum the two diagonal 2x2 blocks by hand.
        blocks = rho.reshape(2, 2, 2, 2)
        expected = blocks[0, :, 0, :] + blocks[1, :, 1, :]
        got = partial_trace(rho, 2, 2, side=1)
        assert np.allclose(got, expected, atol=1e-15)
        assert np.allclose(got, I2 / 2, atol=1e-12)

    def test_trace_preserved_on_random_psd(self):
        for k in range(20):
            rng = trial_rng(14, k)
            r = ginibre_positive(rng, 6)
            for side in (1, 2):
                assert np.isclose(
                    np.trace(partial_trace(r, 2, 3, side)), np.trace(r), atol=1e-12
                )

    def test_side2_identity(self):
        rng = trial_rng(15)
        x = require_hermitian(ginibre_positive(rng, 2) - ginibre_positive(rng, 2))
        y = require_hermitian(ginibre_positive(rng, 3) - ginibre_positive(rng, 3))
        got = partial_trace(tensor(x, y), 2, 3, side=2)
        assert np.abs(got - np.trace(y) * x).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), 2, 3, side=1)


class TestEigen:
    def test_identity(self):
        assert min_eig_herm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    def test_known_spectrum(self):
        assert min_eig_herm(PAULI_Z) == pytest.approx(-1.0, abs=1e-14)

    def test_gram_construction_is_psd(self):
        for k in range(25):
            rng = trial_rng(16, k)
            g = complex_gaussian(rng, 4, 4)
            assert min_eig_herm(g @ g.conj().T) >= -1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            min_eig_herm(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestRequirePSD:
    def test_accepts_psd_within_slack(self):
        # A -1e-12 eigenvalue is roundoff at trace norm 1: PSD_SLACK is 1e-10.
        m = np.diag([1.0, -1e-12])
        assert np.array_equal(require_psd(m, "unused"), m)

    def test_returns_the_symmetrized_matrix(self):
        m = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        assert np.array_equal(require_psd(m, "unused"), require_hermitian(m))

    @pytest.mark.parametrize("factor,accepted", [(0.5, True), (2.0, False)])
    def test_slack_scales_with_the_trace_norm(self, factor, accepted):
        # Eigenvalues 3, 2 and -x with x = factor * PSD_SLACK * (5 + x): the
        # smallest sits at factor times the threshold of a trace norm 5 + x,
        # five times the slack a unit trace norm would allow.
        x = factor * PSD_SLACK * 5 / (1 - factor * PSD_SLACK)
        q, _ = np.linalg.qr(complex_gaussian(trial_rng(17), 3, 3))
        m = (q * [3.0, 2.0, -x]) @ q.conj().T
        assert trace_norm(m) == pytest.approx(5 + x, abs=1e-12)
        if accepted:
            assert np.array_equal(require_psd(m, "unused"), require_hermitian(m))
        else:
            with pytest.raises(ValueError, match="rejected"):
                require_psd(m, "rejected")

    @pytest.mark.parametrize(
        "check,message",
        [
            (lambda bad: require_psd(bad, "custom message"), "custom message"),
            (lambda bad: DSumState(bad, np.zeros((2, 2))), "rho_plus must be PSD"),
            (lambda bad: DSumState(np.zeros((2, 2)), bad), "rho_minus must be PSD"),
            (lambda bad: QuantumModel(2).state(bad), "density operator must be PSD"),
            (lambda bad: reduced_positivity_min_eig(bad, np.eye(4), 2, 2), "local operator A"),
            (lambda bad: reduced_positivity_min_eig(I2, tensor(bad, I2), 2, 2), "joint operator R"),
        ],
        ids=["kernel", "dsum-plus", "dsum-minus", "quantum-state", "lemma-A", "lemma-R"],
    )
    def test_each_caller_keeps_its_message(self, check, message):
        # Unit trace, eigenvalues 1.5 and -0.5: far below the slack.
        bad = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match=message):
            check(bad)


@pytest.mark.parametrize(
    "check",
    [
        eigvals_herm,
        min_eig_herm,
        max_eig_herm,
        lambda a: require_psd(a, "unused"),
        psd_sqrt,
        QuantumModel(3).state,
        lambda a: QuantumModel(3).effect_leq_unit(Effect(QuantumModel(3), a)),
    ],
    ids=[
        "eigvals_herm",
        "min_eig_herm",
        "max_eig_herm",
        "require_psd",
        "psd_sqrt",
        "quantum-state",
        "quantum-effect_leq_unit",
    ],
)
def test_eigenvalue_checks_reject_nan(check):
    # eigvalsh may return a finite spectrum such as [0, -0, 0.5] for this
    # matrix, whose minimum would pass a PSD test: only the finiteness scan
    # stands between the NaN and a pass.
    with pytest.raises(ValueError, match="finite"):
        check(np.diag([np.nan, 0.5, 0.5]))


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthonormal(self, d):
        basis = hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        gram = np.einsum("aij,bji->ab", basis, basis).real
        assert np.allclose(gram, np.eye(d * d), atol=1e-13)

    def test_coords_roundtrip(self):
        rng = trial_rng(17)
        m = require_hermitian(ginibre_positive(rng, 3) - ginibre_positive(rng, 3))
        v = hermitian_coords(m)
        assert np.allclose(hermitian_from_coords(v, 3), m, atol=1e-12)


class TestSpanRank:
    def test_pauli_basis(self):
        assert span_rank([I2, PAULI_X, PAULI_Y, PAULI_Z]) == 4

    def test_collinear(self):
        assert span_rank([I2, 2 * I2]) == 1

    def test_sic_effects(self):
        s = 1 / np.sqrt(3)
        dirs = [(s, s, s), (s, -s, -s), (-s, s, -s), (-s, -s, s)]
        effects = [(I2 + x * PAULI_X + y * PAULI_Y + z * PAULI_Z) / 4 for x, y, z in dirs]
        # Independent oracle: rank of the Gram matrix G_ij = Tr[E_i E_j].
        gram = np.array([[np.trace(a @ b).real for b in effects] for a in effects])
        gram_rank = int(np.sum(np.linalg.eigvalsh(gram) > 1e-10))
        assert gram_rank == 4
        assert span_rank(effects) == 4

    def test_invariances(self):
        rng = trial_rng(18)
        ops = [require_hermitian(ginibre_positive(rng, 2)) for _ in range(3)]
        base = span_rank(ops)
        assert span_rank(ops[::-1]) == base
        scaled = [ops[0] * 7.5] + ops[1:]
        assert span_rank(scaled) == base

    def test_rejects_empty_and_mixed(self):
        with pytest.raises(ValueError):
            span_rank([])
        with pytest.raises(ValueError):
            span_rank([I2, np.eye(3)])

    def test_rank_of_rows_zero(self):
        assert rank_of_rows(np.zeros((3, 4))) == 0


def svd_rank(a, tol=RANK_TOL) -> int:
    """Reference count: singular values above tol * sigma_max."""
    svals = np.linalg.svd(np.atleast_2d(a), compute_uv=False)
    smax = svals.max(initial=0.0)
    return 0 if smax == 0.0 else int(np.sum(svals > tol * smax))


def planted(rng, m, n, ratio) -> np.ndarray:
    """An m x n matrix with singular values logarithmically spaced from 1 to ``ratio``."""
    k = min(m, n)
    u, _ = np.linalg.qr(rng.standard_normal((m, k)))
    v, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return (u * np.geomspace(1.0, ratio, k)) @ v.T


# Either side of RANK_TOL (1e-7) and of FULL_RANK_MARGIN * RANK_TOL (1e-6).
PLANTED_RATIOS = [1e-8, 5e-8, 3e-7, 2e-6, 1e-3]


@pytest.fixture
def svd_calls(monkeypatch):
    """Count calls of np.linalg.svd, which rank_of_rows reaches only when it declines."""
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


class TestFullRankCertificate:
    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(1, 40),
        extra=st.integers(0, 30),
        orientation=st.sampled_from(["tall", "square", "wide"]),
        ratio=st.sampled_from(PLANTED_RATIOS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rank_matches_svd_count(self, k, extra, orientation, ratio, seed):
        rng = np.random.default_rng(seed)
        m, n = {"tall": (k + extra, k), "square": (k, k), "wide": (k, k + extra)}[orientation]
        a = planted(rng, m, n, ratio)
        assert rank_of_rows(a) == svd_rank(a)

    @pytest.mark.parametrize("shape", [(30, 30), (45, 30), (30, 45)])
    def test_near_deficient_rows_go_to_the_svd(self, shape, svd_calls):
        # sigma_min / sigma_max = 3e-7 clears RANK_TOL but not the certificate's margin.
        a = planted(trial_rng(60), *shape, 3e-7)
        assert full_rank_bound(a) <= FULL_RANK_MARGIN * RANK_TOL
        assert rank_of_rows(a) == 30
        assert svd_calls == [shape]

    @pytest.mark.parametrize("shape", [(30, 30), (45, 30), (30, 45), (1, 5)])
    def test_well_conditioned_rows_skip_the_svd(self, shape, svd_calls):
        a = planted(trial_rng(61), *shape, 1e-3)
        assert full_rank_bound(a) > FULL_RANK_MARGIN * RANK_TOL
        assert rank_of_rows(a) == min(shape)
        assert svd_calls == []

    @pytest.mark.parametrize("n", [1, 64, 65, 200])
    def test_bound_formula(self, n):
        # 65 and 200 rows run the blocked inverse past its first leaf.
        a = planted(trial_rng(62), n + 7, n, 1e-3)
        r = np.linalg.qr(a, mode="r")
        expected = 1.0 / (np.linalg.norm(a) * np.linalg.norm(np.linalg.inv(r)))
        assert full_rank_bound(a) == pytest.approx(expected, rel=1e-9)
        assert full_rank_bound(a.T) == pytest.approx(expected, rel=1e-9)
        s = np.linalg.svd(a, compute_uv=False)
        assert full_rank_bound(a) <= s.min() / s.max()

    def test_rows_are_not_mutated(self):
        a = planted(trial_rng(63), 150, 100, 1e-2)
        kept = a.copy()
        full_rank_bound(a)
        full_rank_bound(a.T)
        assert np.array_equal(a, kept)

    def test_exact_deficit_declines_without_inverting(self, monkeypatch):
        a = planted(trial_rng(64), 20, 12, 1e-2)
        a[:, 5] = a[:, 3]

        def no_inverse(*args, **kwargs):
            raise AssertionError("a deficient R must not be inverted")

        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        assert full_rank_bound(a) == 0.0
        assert rank_of_rows(a) == 11

    @pytest.mark.parametrize("rows", [np.zeros((3, 4)), np.zeros((0, 4)), np.zeros((4, 0))])
    def test_empty_and_zero_rows_decline(self, rows):
        assert full_rank_bound(rows) == 0.0
        assert rank_of_rows(rows) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(7, 4), (4, 4), (4, 7)])
    def test_nonfinite_rows_raise(self, bad, shape):
        a = planted(trial_rng(65), *shape, 1e-2)
        a[1, 2] = bad
        assert full_rank_bound(a) == 0.0
        with pytest.raises(np.linalg.LinAlgError):
            rank_of_rows(a)


class TestSerialization:
    def test_roundtrip_and_schema(self):
        rng = trial_rng(19)
        m = complex_gaussian(rng, 2, 3)
        obj = matrix_to_json(m)
        assert set(obj) == {"rows", "cols", "re", "im"}
        assert obj["rows"] == 2 and obj["cols"] == 3
        assert len(obj["re"]) == 6
        assert np.allclose(matrix_from_json(obj), m, atol=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            matrix_to_json(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_trace_norm_matches_eigen_sum():
    rng = trial_rng(20)
    m = require_hermitian(ginibre_positive(rng, 3) - ginibre_positive(rng, 3))
    assert trace_norm(m) == pytest.approx(np.abs(np.linalg.eigvalsh(m)).sum(), abs=1e-12)
