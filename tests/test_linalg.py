"""Kernel linear algebra: composition, partial traces, eigenanalysis, spans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optheory.linalg import (
    PSD_SLACK,
    RANK_TOL,
    direct_sum,
    eigvals_herm,
    hermitian_coords,
    hermitian_from_coords,
    hermitian_product_table,
    kron_product_table,
    matrix_from_json,
    matrix_to_json,
    max_eig_herm,
    min_eig_herm,
    partial_trace,
    psd_sqrt,
    rank_of_rows,
    require_hermitian,
    require_hermitian_stack,
    require_psd,
    require_psd_stack,
    span_rank,
    tensor,
    trace_norm,
    trusted_hermitian_coords,
)
from optheory.directsum import DSumState
from optheory.framework import Effect
from optheory.quantum import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    QuantumModel,
    quantum_no_signaling_check,
    reduced_positivity_min_eig,
    z_instrument,
)
from optheory.sampling import complex_gaussian, ginibre_positive, trial_rng

I2 = np.eye(2)
EPS = np.finfo(float).eps


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


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal real basis of d x d Hermitian matrices, shape (d^2, d, d),
    built one matrix at a time: the d diagonal units E_ii, then
    (E_ij + E_ji)/sqrt(2) for i < j row-major, then i(E_ij - E_ji)/sqrt(2) in
    the same order.  The oracle of ``hermitian_coords`` and its inverse."""
    mats = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        mats.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            e[j, i] = 1.0
            mats.append(e / np.sqrt(2))
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0j
            e[j, i] = -1.0j
            mats.append(e / np.sqrt(2))
    return np.stack(mats, axis=0)


def random_hermitian(rng, d: int) -> np.ndarray:
    g = complex_gaussian(rng, d, d)
    return g + g.conj().T


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthonormal(self, d):
        basis = hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        gram = np.einsum("aij,bji->ab", basis, basis).real
        assert np.allclose(gram, np.eye(d * d), atol=1e-13)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_coords_pair_with_the_basis(self, d):
        m = random_hermitian(trial_rng(d), d)
        paired = np.einsum("kij,ji->k", hermitian_basis(d), m).real
        assert np.allclose(hermitian_coords(m), paired, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_coords_roundtrip(self, d):
        rng = trial_rng(17)
        m = require_hermitian(random_hermitian(rng, d))
        v = hermitian_coords(m)
        assert np.allclose(hermitian_from_coords(v, d), m, atol=1e-12)
        assert np.allclose(np.einsum("k,kij->ij", v, hermitian_basis(d)), m, atol=1e-12)


def table_rows(table, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The rows ``sum_t W[t] x[A[t]] y[B[t]]`` of every pair of a row of ``x``
    and a row of ``y``, the pair (i, j) in row ``i * len(y) + j``, with the
    products rounded in the certificate's order, (W x) y."""
    a, b, w = table
    out = sum((wt * x[:, None, at]) * y[None, :, bt] for at, bt, wt in zip(a, b, w))
    return out.reshape(len(x) * len(y), -1)


def dense_product_map(table, n2: int) -> np.ndarray:
    """The matrix Q of an index table, its entry (c, a * n2 + b) the weight of
    the term x_a y_b in coordinate c."""
    a, b, w = table
    q = np.zeros((a.shape[1], a.shape[1]))
    np.add.at(q, (np.broadcast_to(np.arange(a.shape[1]), a.shape), a * n2 + b), w)
    return q


def basis_product_map(d1: int, d2: int) -> np.ndarray:
    """The oracle of Q: entry (c, a * d2^2 + b) is Tr[B_c (b_a (x) b_b)] for the
    bases of :func:`hermitian_basis`."""
    joint = hermitian_basis(d1 * d2)
    products = np.kron(hermitian_basis(d1)[:, None], hermitian_basis(d2)[None])
    products = products.reshape(-1, d1 * d2, d1 * d2)
    return np.einsum("cij,pji->cp", joint, products).real


def table_mismatch(table, d1: int, d2: int, seed: int) -> float:
    """The largest gap of the formula rows of random Hermitian E and F from
    the coordinates of E (x) F, relative to the product of their norms."""
    rng = np.random.default_rng(seed)
    e, f = random_hermitian(rng, d1), random_hermitian(rng, d2)
    x, y = hermitian_coords(e)[None], hermitian_coords(f)[None]
    gap = np.abs(table_rows(table, x, y) - trusted_hermitian_coords(np.kron(e, f))).max()
    return gap / (np.linalg.norm(x) * np.linalg.norm(y))


def flip_one_sign(a, b, w, c):
    w[1, c] = -w[1, c]


def swap_one_index(a, b, w, c):
    a[0, [c, c + 1]] = a[0, [c + 1, c]]


class TestProductTable:
    @settings(max_examples=40, deadline=None)
    @given(d1=st.integers(2, 6), d2=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_formula_rows_are_the_product_coordinates(self, d1, d2, seed):
        assert table_mismatch(hermitian_product_table(d1, d2), d1, d2, seed) <= 4 * EPS

    @pytest.mark.parametrize("d1,d2", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 4), (6, 2)])
    def test_dense_map_is_the_basis_pairing_and_orthogonal(self, d1, d2):
        table = hermitian_product_table(d1, d2)
        q = dense_product_map(table, d2 * d2)
        assert np.abs(q - basis_product_map(d1, d2)).max() <= 1e-15
        assert np.abs(q @ q.T - np.eye(len(q))).max() <= 1e-15
        assert (np.count_nonzero(q, axis=1) <= 2).all()
        assert set(np.abs(table[2]).ravel()) <= {0.0, 1.0, np.sqrt(0.5)}

    @pytest.mark.parametrize("mutate", [flip_one_sign, swap_one_index], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("dims", [(2, 2), (3, 2)], ids=str)
    def test_a_mutated_table_is_caught(self, mutate, dims):
        d1, d2 = dims
        a, b, w = (x.copy() for x in hermitian_product_table(*dims))
        # The first off-diagonal coordinate with two terms whose first left
        # index differs from the next coordinate's.
        c = next(c for c in range(d1 * d2, len(a[0]) - 1) if w[1, c] and a[0, c] != a[0, c + 1])
        mutate(a, b, w, c)
        assert table_mismatch((a, b, w), d1, d2, seed=0) > 1e-3
        assert np.abs(dense_product_map((a, b, w), d2 * d2) - basis_product_map(d1, d2)).max() > 0.5

    @pytest.mark.parametrize("dims", [(1, 3), (2, 2), (3, 4), (6, 5)], ids=str)
    def test_classical_table_gives_the_kronecker_rows(self, dims):
        n1, n2 = dims
        rng = np.random.default_rng(sum(dims))
        x, y = rng.standard_normal((n1 + 1, n1)), rng.standard_normal((n2 + 2, n2))
        assert np.array_equal(table_rows(kron_product_table(n1, n2), x, y), np.kron(x, y))


def hermitian_stack(seed: int, n: int, d: int) -> np.ndarray:
    """n random Hermitian d x d matrices, each off by noise below ``TOL_HERM``."""
    rng = np.random.default_rng(seed)
    g = complex_gaussian(rng, n * d, d).reshape(n, d, d)
    noise = 1e-11 * complex_gaussian(rng, n * d, d).reshape(n, d, d)
    return g + g.conj().swapaxes(-1, -2) + noise


class TestStackedHermitianCoords:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_the_single_calls(self, d, n, seed):
        stack = hermitian_stack(seed, n, d)
        rows = hermitian_coords(stack)
        assert rows.shape == (n, d * d)
        for k in range(n):
            assert rows[k].tobytes() == hermitian_coords(stack[k]).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_trusted_kernel_equals_the_coords_of_the_symmetrized_copy(self, d, n, seed):
        # The formula hermitian_coords used before its kernel was split out:
        # the validated, symmetrized copy's diagonal and upper triangle.
        stack = hermitian_stack(seed, n, d)
        m = require_hermitian_stack(stack)
        rows, cols = np.triu_indices(d, k=1)
        upper = m[..., rows, cols]
        reference = np.concatenate(
            [m.diagonal(0, -2, -1).real, np.sqrt(2) * upper.real, np.sqrt(2) * upper.imag], axis=-1
        )
        assert trusted_hermitian_coords(stack).tobytes() == reference.tobytes()
        assert hermitian_coords(stack).tobytes() == reference.tobytes()
        assert trusted_hermitian_coords(stack[0]).tobytes() == reference[0].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 6),
        n=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        bad=st.sampled_from(["nan", "inf", "not-hermitian"]),
        data=st.data(),
    )
    def test_one_bad_matrix_raises_its_own_message(self, d, n, seed, bad, data):
        stack = hermitian_stack(seed, n, d)
        k = data.draw(st.integers(0, n - 1))
        i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        if bad == "not-hermitian":
            stack[k, i, j] += 3e-6j
        else:
            stack[k, i, j] = np.nan if bad == "nan" else np.inf
        with pytest.raises(ValueError) as single:
            hermitian_coords(stack[k])
        with pytest.raises(ValueError) as stacked:
            hermitian_coords(stack)
        assert str(stacked.value) == str(single.value)


class TestStackedPSDAndPartialTrace:
    """The stack twins of ``require_psd`` and ``partial_trace`` repeat the
    2-D call matrix by matrix."""

    @settings(max_examples=40, deadline=None)
    @given(
        d1=st.integers(1, 3),
        d2=st.integers(1, 3),
        n=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_partial_traces_equal_the_single_calls(self, d1, d2, n, seed):
        rng = np.random.default_rng(seed)
        stack = complex_gaussian(rng, n * d1 * d2, d1 * d2).reshape(n, d1 * d2, d1 * d2)
        for side in (1, 2):
            reduced = partial_trace(stack, d1, d2, side)
            for k in range(n):
                assert reduced[k].tobytes() == partial_trace(stack[k], d1, d2, side).tobytes()

    def test_partial_trace_of_a_stack_scans_and_checks_its_shape(self):
        stack = np.zeros((3, 6, 6), dtype=complex)
        stack[1, 2, 4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            partial_trace(stack, 2, 3, side=1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            partial_trace(np.zeros((3, 5, 5)), 2, 3, side=1)

    @pytest.mark.parametrize("factor,accepted", [(0.5, True), (2.0, False)])
    def test_psd_stack_takes_the_verdict_of_each_matrix(self, factor, accepted):
        # As in TestRequirePSD: the middle matrix's smallest eigenvalue sits at
        # ``factor`` times the threshold of its trace norm.
        x = factor * PSD_SLACK * 5 / (1 - factor * PSD_SLACK)
        q, _ = np.linalg.qr(complex_gaussian(trial_rng(17), 3, 3))
        rng = trial_rng(18)
        stack = np.stack(
            [ginibre_positive(rng, 3), (q * [3.0, 2.0, -x]) @ q.conj().T, ginibre_positive(rng, 3)]
        )
        if accepted:
            got = require_psd_stack(stack, "unused")
            for k in range(3):
                assert got[k].tobytes() == require_psd(stack[k], "unused").tobytes()
        else:
            with pytest.raises(ValueError, match="^rejected$"):
                require_psd_stack(stack, "rejected")

    def test_psd_stack_rejects_a_nan(self):
        stack = np.broadcast_to(np.eye(3), (2, 3, 3)).copy()
        stack[1] = np.diag([np.nan, 0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            require_psd_stack(stack, "unused")


@pytest.mark.parametrize(
    "check",
    [
        require_hermitian,
        eigvals_herm,
        min_eig_herm,
        max_eig_herm,
        lambda a: require_psd(a, "unused"),
        psd_sqrt,
        QuantumModel(2).state,
        lambda a: quantum_no_signaling_check(a, z_instrument(), 2, 2),
    ],
    ids=[
        "require_hermitian",
        "eigvals_herm",
        "min_eig_herm",
        "max_eig_herm",
        "require_psd",
        "psd_sqrt",
        "quantum-state",
        "quantum_no_signaling_check",
    ],
)
def test_single_matrix_checks_reject_a_stack(check):
    # Only hermitian_coords and require_hermitian_stack take a stack.
    with pytest.raises(ValueError, match="^expected a 2-D matrix, got ndim=3$"):
        check(np.broadcast_to(np.eye(4) / 4, (4, 4, 4)))


@pytest.mark.parametrize("shape", [(4, 4), (2, 3, 3, 3), (3, 2, 3)], ids=str)
def test_require_hermitian_stack_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match="^expected a stack of square matrices"):
        require_hermitian_stack(np.zeros(shape))


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


# Either side of RANK_TOL (1e-7).
PLANTED_RATIOS = [1e-8, 5e-8, 3e-7, 2e-6, 1e-3]


@pytest.fixture
def svd_calls(monkeypatch):
    """Record the shape of every np.linalg.svd call."""
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


class TestFullRankCertificate:
    """``rank_of_rows`` at and near full rank, and on rows it cannot rank."""

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
        # sigma_min / sigma_max = 3e-7 clears RANK_TOL by a factor of 3 only.
        a = planted(trial_rng(60), *shape, 3e-7)
        assert rank_of_rows(a) == 30
        assert svd_calls == [shape]

    def test_rows_are_not_mutated(self):
        a = planted(trial_rng(63), 150, 100, 1e-2)
        kept = a.copy()
        rank_of_rows(a)
        rank_of_rows(a.T)
        assert np.array_equal(a, kept)

    def test_exact_deficit_declines_without_inverting(self, monkeypatch):
        a = planted(trial_rng(64), 20, 12, 1e-2)
        a[:, 5] = a[:, 3]

        def no_inverse(*args, **kwargs):
            raise AssertionError("a rank count needs no inverse")

        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        assert rank_of_rows(a) == 11

    @pytest.mark.parametrize("rows", [np.zeros((3, 4)), np.zeros((0, 4)), np.zeros((4, 0))])
    def test_empty_and_zero_rows_decline(self, rows):
        assert rank_of_rows(rows) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(7, 4), (4, 4), (4, 7)])
    def test_nonfinite_rows_raise(self, bad, shape):
        a = planted(trial_rng(65), *shape, 1e-2)
        a[1, 2] = bad
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
