"""Exact algebra on Gaussian-integer Kraus sets.

Every Kraus entry lies in [-8, 8] + i[-8, 8].  The products and sums that
``local_embed``, ``compose_kraus`` and ``choi_distance`` form from such
entries stay integers far below 2**53, so float64 computes them exactly,
whatever BLAS's summation order.  A true polynomial identity therefore leaves
a defect of exactly 0.0, and a false one a nonzero defect.  A nonzero
polynomial of degree k vanishes at a uniform point of a grid of side 17 with
probability at most k/17 (DeMillo and Lipton, IPL 7(4), 1978; Schwartz, JACM
27(4), 1980), and independent seeds multiply those odds.

The kernels are the unvalidated ones (``KrausOp._trusted``): integer Kraus
sets do not preserve or decrease the trace, and these identities need no
physics.

Composition is associative and distributes over coarse-graining,
``(a + b) then c = (a then c) + (b then c)``: both are polynomial
identities of the same kind, exact on these entries.

Two more identities are exact for the same reason.  A stack of operations
of mixed Kraus ranks is padded with zero operators, which leaves every
trial's map unchanged; so each kernel on the padded stack gives each
trial's unpadded result with a gap of exactly 0.0, in any summation order.
And the remote reduction after a side-1 operation depends on that
operation only through its trace operator T_A = sum_k A_k^dag A_k:
``Tr_1[sum_k (A_k (x) I) R (A_k (x) I)^dag] = Tr_1[(T_A (x) I) R]``.  No
signaling is this identity at T_A = I.

The lemma's kernel reads ``Tr_1[(A (x) I) G G^dag]`` from the factor G as
``sum_a Y_a G_a^dag``, ``Y = (A (x) I) G``, block row by block row: the same
product reassociated, so on integer A and G it equals the partial trace of
``(A (x) I) R`` at ``R = G G^dag`` exactly.
"""

import numpy as np
import pytest

from optheory import quantum
from optheory.framework import Transformation
from optheory.linalg import partial_trace
from optheory.quantum import (
    KrausOp,
    QuantumModel,
    apply_quantum_op,
    choi_distance,
    coarse_grain_kraus,
    compose_kraus,
    local_embed,
    scale_kraus,
    side1_kraus_outputs,
    side1_kraus_reductions,
)
from optheory.sampling import trial_rng

# (6, 6) runs choi_distance's one-trial real route, at D = 36.
DIMS = [(2, 2), (3, 3), (6, 6)]
SEEDS = range(4)


def integer_kraus(rng: np.random.Generator, d: int, rank: int | None = None) -> KrausOp:
    """``rank`` (default: one to three) d x d Kraus operators with entries in [-8, 8] + i[-8, 8]."""
    rank = int(rng.integers(1, 4)) if rank is None else rank
    re, im = rng.integers(-8, 9, size=(2, rank, d, d))
    return KrausOp._trusted(re + 1j * im)


def integer_positive(rng: np.random.Generator, d: int) -> np.ndarray:
    """``G G^dag + I`` for a Gaussian-integer G: an integer matrix with a positive diagonal."""
    re, im = rng.integers(-8, 9, size=(2, d, d))
    g = re + 1j * im
    return g @ g.conj().T + np.eye(d)


def embedded_pair(seed: int, d1: int, d2: int) -> tuple[KrausOp, KrausOp]:
    """An integer operation on side 1 and one on side 2, embedded in the joint space."""
    rng = trial_rng(seed)
    a, b = integer_kraus(rng, d1), integer_kraus(rng, d2)
    return local_embed(a, d2, 1), local_embed(b, d1, 2)


def commutation_defect(a: KrausOp, b: KrausOp) -> float:
    return choi_distance(compose_kraus(a, b), compose_kraus(b, a))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_embedded_sides_commute_exactly(dims, seed):
    a, b = embedded_pair(seed, *dims)
    composed = compose_kraus(a, b).kraus
    # The premise of exactness: integer entries, small enough that every
    # entry of the Choi difference is an integer below 2**53.
    assert np.array_equal(composed, np.round(composed))
    assert np.abs(composed.view(float)).max() < 2**20
    assert commutation_defect(a, b) == 0.0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_composing_with_the_identity_is_exact(dims, seed):
    model = QuantumModel(dims[0] * dims[1])
    t = Transformation(model, integer_kraus(trial_rng(seed), model.d))
    ident = model.identity()
    assert model.transformation_distance(model.compose(ident, t), t) == 0.0
    assert model.transformation_distance(model.compose(t, ident), t) == 0.0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_a_one_entry_leak_in_the_side2_embedding_is_caught(dims, seed):
    d1, d2 = dims
    a, b = embedded_pair(seed, d1, d2)
    leaky = b.kraus.copy()
    leaky[0, 0, d2] += 1  # <0,0| K |1,0>: a move of side 1
    assert commutation_defect(a, KrausOp._trusted(leaky)) > 0.0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_a_compose_scaled_by_one_plus_1e_9_is_caught(dims, seed, monkeypatch):
    # Every composed map scaled by 1 + 1e-9: this mutant passes opcore at (2,2),
    # whose float gates sit at 1e-10 and above.
    compose = QuantumModel.compose

    def scaled(self, first, then):
        t = compose(self, first, then)
        return Transformation(self, scale_kraus(1 + 1e-9, t.payload), t.label)

    monkeypatch.setattr(QuantumModel, "compose", scaled)
    model = QuantumModel(dims[0] * dims[1])
    t = Transformation(model, integer_kraus(trial_rng(seed), model.d))
    assert model.transformation_distance(model.compose(model.identity(), t), t) > 0.0


# Kraus ranks of a, b and c in the associativity and distributivity tests, one
# triple per seed.  c has rank 2 or more, so a coarse-graining that drops b's
# last operator drops one product of the distributed side and several of the other.
RANK_TRIPLES = [(1, 2, 3), (2, 3, 2), (3, 1, 2), (3, 3, 3)]


def algebra_gaps(seed: int, d: int) -> dict[str, float]:
    """The Choi distances of the two sides of associativity and distributivity
    on integer Kraus sets a, b and c, through the module's own kernels."""
    rng = trial_rng(seed)
    a, b, c = (integer_kraus(rng, d, rank) for rank in RANK_TRIPLES[seed])
    compose, coarse = quantum.compose_kraus, quantum.coarse_grain_kraus
    return {
        "associativity": choi_distance(compose(compose(a, b), c), compose(a, compose(b, c))),
        "distributivity": choi_distance(
            compose(coarse(a, b), c), coarse(compose(a, c), compose(b, c))
        ),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", [2, 3])
def test_composition_is_associative_and_distributes_over_coarse_graining(d, seed):
    assert algebra_gaps(seed, d) == {"associativity": 0.0, "distributivity": 0.0}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", [2, 3])
def test_a_compose_that_drops_its_last_product_is_caught(d, seed, monkeypatch):
    real = quantum.compose_kraus
    monkeypatch.setattr(
        quantum, "compose_kraus", lambda f, t: KrausOp._trusted(real(f, t).kraus[:-1])
    )
    gaps = algebra_gaps(seed, d)
    assert gaps["associativity"] > 0.0 and gaps["distributivity"] > 0.0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", [2, 3])
def test_a_coarse_graining_that_drops_the_last_operator_of_b_is_caught(d, seed, monkeypatch):
    real = quantum.coarse_grain_kraus
    monkeypatch.setattr(
        quantum, "coarse_grain_kraus", lambda a, b: real(a, KrausOp._trusted(b.kraus[:-1]))
    )
    assert algebra_gaps(seed, d)["distributivity"] > 0.0


# Kraus ranks of the trials of the two padded stacks: each has trials below its
# largest rank, and the ranks of a trial's two operations differ or agree.
RANKS_A, RANKS_B = (1, 2, 3, 2, 1), (2, 3, 1, 1, 3)
# A zero operator pads a stack; the mutant pads with this one-entry integer matrix.
FILLS = {"zero": 0, "one-entry": 1}


def padded(ops: list[KrausOp], fill: int) -> KrausOp:
    """``ops`` as one stack at their largest Kraus rank, each padded with the
    matrix that is ``fill`` at entry (0, 0) and zero elsewhere."""
    rank = max(len(op.kraus) for op in ops)
    kraus = np.zeros((len(ops), rank, *ops[0].kraus.shape[1:]), dtype=complex)
    kraus[:, :, 0, 0] = fill
    for k, op in enumerate(ops):
        kraus[k, : len(op.kraus)] = op.kraus
    return KrausOp._trusted(kraus)


def padding_gaps(seed: int, d1: int, d2: int, fill: int) -> dict[str, np.ndarray]:
    """Each kernel's gap, trial by trial, between its result on padded stacks
    and its result on each trial's unpadded operations."""
    rng = trial_rng(seed)
    a = [integer_kraus(rng, d1, r) for r in RANKS_A]
    b = [integer_kraus(rng, d1, r) for r in RANKS_B]
    rhos = np.stack([integer_positive(rng, d1) for _ in a])
    sa, sb = padded(a, fill), padded(b, fill)
    embedded = local_embed(sa, d2, 1)
    return {
        "compose_kraus": choi_distance(
            compose_kraus(sa, sb), padded([compose_kraus(x, y) for x, y in zip(a, b)], 0)
        ),
        "coarse_grain_kraus": choi_distance(
            coarse_grain_kraus(sa, sb), padded([coarse_grain_kraus(x, y) for x, y in zip(a, b)], 0)
        ),
        "trace_operator": np.abs(
            sa.trace_operator() - np.stack([x.trace_operator() for x in a])
        ).max(axis=(-2, -1)),
        "apply_quantum_op": np.abs(
            apply_quantum_op(sa, rhos) - np.stack([apply_quantum_op(x, r) for x, r in zip(a, rhos)])
        ).max(axis=(-2, -1)),
        "local_embed": np.array(
            [choi_distance(embedded[k], local_embed(x, d2, 1)) for k, x in enumerate(a)]
        ),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_zero_padding_changes_no_kernel_result(dims, seed):
    gaps = padding_gaps(seed, *dims, FILLS["zero"])
    assert {name: gap.tolist() for name, gap in gaps.items()} == {
        name: [0.0] * len(RANKS_A) for name in gaps
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_padding_with_a_one_entry_matrix_is_caught_at_every_padded_trial(dims, seed):
    gaps = padding_gaps(seed, *dims, FILLS["one-entry"])
    top_a, top_b = max(RANKS_A), max(RANKS_B)
    padded_a = np.array([r < top_a for r in RANKS_A])
    either = padded_a | np.array([r < top_b for r in RANKS_B])
    for name, gap in gaps.items():
        where = either if name in ("compose_kraus", "coarse_grain_kraus") else padded_a
        assert (gap[where] > 0.0).all() and (gap[~where] == 0.0).all(), name


PARTIAL_TRACE_DIMS = [(2, 2), (2, 3), (3, 3)]


def outputs_reduced(kraus: np.ndarray, r: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """The remote reduction of each whole output of ``side1_kraus_outputs``."""
    return partial_trace(side1_kraus_outputs(kraus, r), d1, d2, side=1)


def reduction_gap(seed: int, d1: int, d2: int, reductions=outputs_reduced) -> float:
    """``max |Tr_1[sum_k (A_k (x) I) R (A_k (x) I)^dag] - Tr_1[(T_A (x) I) R]|`` for
    an integer Kraus set A and an integer R, the left side summed over the
    per-operator ``reductions`` (default: the partial traces of
    ``side1_kraus_outputs``) and the right through an explicit ``np.kron``."""
    rng = trial_rng(seed)
    a, r = integer_kraus(rng, d1), integer_positive(rng, d1 * d2)
    left = reductions(a.kraus, r, d1, d2).sum(axis=0)
    right = partial_trace(np.kron(a.trace_operator(), np.eye(d2)) @ r, d1, d2, side=1)
    return float(np.abs(left - right).max())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", PARTIAL_TRACE_DIMS, ids=str)
def test_the_remote_reduction_depends_only_on_the_trace_operator(dims, seed):
    assert reduction_gap(seed, *dims) == 0.0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", PARTIAL_TRACE_DIMS, ids=str)
def test_a_one_entry_leak_in_the_side1_product_is_caught(dims, seed, monkeypatch):
    # Both factors of each output gain 1/4 at entry (0, 0), which moves the
    # reduction's (0, 0) entry by r/4 plus conj(A_k[0, 0]) summed over the
    # r <= 3 Kraus operators: an integer plus a non-integer, never zero.
    real = quantum._on_side1

    def leaky(a, r):
        out = real(a, r)
        out[..., 0, 0] += 0.25
        return out

    monkeypatch.setattr(quantum, "_on_side1", leaky)
    assert reduction_gap(seed, *dims) > 0.0


def contracted_reductions(right, blocks):
    """``side1_kraus_reductions`` written out, with ``right(K)`` in place of
    ``conj(K)`` as its right factor and only the side-1 diagonal blocks
    ``blocks`` summed."""

    def reductions(kraus, r, d1, d2):
        y = quantum._on_side1(kraus, r[..., None, :, :])
        y = y.reshape(*y.shape[:-2], d1, d2, d1, d2)
        per_block = (right(kraus)[..., :, None, None, :] @ y)[..., 0, :]
        return per_block[..., blocks, :, :].sum(axis=-3)

    return reductions


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", PARTIAL_TRACE_DIMS, ids=str)
def test_the_reduction_kernel_gives_the_trace_operator_side_exactly(dims, seed):
    assert reduction_gap(seed, *dims, reductions=side1_kraus_reductions) == 0.0
    # The mutants below start from this copy of the kernel.
    assert reduction_gap(seed, *dims, reductions=contracted_reductions(np.conj, slice(None))) == 0.0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", PARTIAL_TRACE_DIMS, ids=str)
def test_a_reduction_kernel_contracting_with_k_instead_of_its_conjugate_is_caught(dims, seed):
    mutant = contracted_reductions(lambda k: k, slice(None))
    assert reduction_gap(seed, *dims, reductions=mutant) > 0.0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", PARTIAL_TRACE_DIMS, ids=str)
def test_a_reduction_kernel_dropping_the_last_side1_index_is_caught(dims, seed):
    mutant = contracted_reductions(np.conj, slice(-1))
    assert reduction_gap(seed, *dims, reductions=mutant) > 0.0


def lemma_gap(seed: int, d1: int, d2: int, reductions) -> float:
    """``max |reductions(A, G) - Tr_1[(A (x) I) G G^dag]|`` for an integer
    Hermitian A with a positive diagonal and a Gaussian-integer G, the
    right side the partial trace of ``(A (x) I) R`` formed at ``R = G G^dag``.
    Its reduction is Hermitian, so the kernel's Hermitian part leaves it
    unchanged."""
    rng = trial_rng(seed)
    a = integer_positive(rng, d1)
    re, im = rng.integers(-8, 9, size=(2, d1 * d2, d1 * d2))
    g = re + 1j * im
    right = partial_trace(quantum._on_side1(a, g @ g.conj().T), d1, d2, side=1)
    return float(np.abs(reductions(a[None], g[None], d1, d2)[0] - right).max())


def kernel_reductions(monkeypatch):
    """The matrices that ``trusted_reduced_min_eigs`` hands to its eigensolve."""
    real = np.linalg.eigvalsh

    def reductions(a, g, d1, d2):
        seen = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m.copy()) or real(m))
        quantum.trusted_reduced_min_eigs(a, g, d1, d2)
        monkeypatch.setattr(np.linalg, "eigvalsh", real)
        return seen[0]

    return reductions


def factor_reductions(left, right, blocks):
    """The lemma kernel's reduction written out, with ``left(A)`` in place of
    A, ``right(G)`` in place of ``conj(G)`` as its right factor, and only the
    side-1 block rows ``blocks`` summed."""

    def reductions(a, g, d1, d2):
        rows = g.reshape(-1, d1, d2, d1 * d2)
        y = quantum._on_side1(left(a), g).reshape(rows.shape)
        return (y @ right(rows).swapaxes(-1, -2))[:, blocks].sum(axis=1)

    return reductions


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_the_lemma_kernel_reads_the_reduction_of_r_from_its_factor_exactly(
    dims, seed, monkeypatch
):
    assert lemma_gap(seed, *dims, kernel_reductions(monkeypatch)) == 0.0
    # The mutants below start from this copy of the kernel.
    same = factor_reductions(lambda a: a, np.conj, slice(None))
    assert lemma_gap(seed, *dims, same) == 0.0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_a_lemma_kernel_contracting_with_g_instead_of_its_conjugate_is_caught(dims, seed):
    mutant = factor_reductions(lambda a: a, lambda g: g, slice(None))
    assert lemma_gap(seed, *dims, mutant) > 0.0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_a_lemma_kernel_dropping_the_last_side1_block_is_caught(dims, seed):
    mutant = factor_reductions(lambda a: a, np.conj, slice(-1))
    assert lemma_gap(seed, *dims, mutant) > 0.0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_a_lemma_kernel_applying_the_transpose_of_a_is_caught(dims, seed):
    mutant = factor_reductions(lambda a: a.swapaxes(-1, -2), np.conj, slice(None))
    assert lemma_gap(seed, *dims, mutant) > 0.0
