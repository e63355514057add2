"""Quantum instantiation: density operators, Kraus operations, instruments.

Bipartite structure is the tensor product; a local operation on side 1 acts
as ``M (x) I`` and the local state is the partial trace.  The verifiers at
the bottom certify, numerically, that complete local instruments never move
the remote reduced state, that trace preservation on a given joint operator
is equivalent to invariance of its reduction, and that selective outcomes may
steer the remote conditional state without signaling on average.

A :class:`KrausOp` stores its r Kraus operators as one ``(r, d_out, d_in)``
array, so applying, composing and coarse-graining operations are single
batched ``matmul`` or ``concatenate`` calls.  The operations of a stack of n
trials are one :class:`KrausOp` as well, of shape ``(n, r, d_out, d_in)``
with r the stack's largest Kraus rank: a trial of lower rank is padded
with zero operators, which change neither ``sum_k K_k rho K_k^dag`` nor the
Choi matrix (Choi, Linear Algebra Appl. 10, 285 (1975); Watrous, section
2.2).  The kernels broadcast over the leading axes, and since adding an
exact zero leaves a floating-point sum unchanged, each trial's result
equals the kernel on that trial's unpadded operation alone, bit for bit;
``tests/test_stacks.py`` checks that the BLAS in use keeps this.
The verifiers never build ``M (x) I``.  They read a joint operator on
``d1*d2`` as a ``d1 x (d2*D)`` matrix, so that ``(K (x) I) R`` is the
product ``K @ R.reshape(d1, -1)`` (:func:`_on_side1`), for a whole stack of
Kraus operators at once.  :func:`side1_kraus_reductions` gives what the
verifiers read, the remote reduction ``Tr_1[(K (x) I) R (K (x) I)^dag]`` of
each operator: it applies ``K`` on the right only inside the d1 diagonal
``d2 x d2`` blocks that the partial trace sums, and never forms ``K^dag K``,
whose use in place of the output is the identity the checks verify.
:func:`side1_kraus_outputs` builds each whole ``D x D`` output, which only
the biconditional's filtered states need.  The lemma's kernel,
:func:`trusted_reduced_min_eigs`, takes the Gaussian factor ``G`` of
``R = G G^dag`` and reads ``Tr_1[(A (x) I) R]`` as ``sum_a Y_a G_a^dag``
over the block rows of ``Y = (A (x) I) G`` and ``G``, so it never forms
``R``; :func:`reduced_positivity_min_eig`, whose input is ``R`` itself,
partial-traces ``(A (x) I) R``.  :func:`local_embed` still builds
the ``kron`` for :class:`QuantumBipartite`, whose joint operations need
their Kraus operators.  An operation is validated once,
where it is built; kernel results derived from validated operations are
stored without a second check.

Two operations are compared by the largest entry of the difference of their
Choi matrices, ``J(A) - J(B)`` with ``J(A) = sum_k vec(A_k) vec(A_k)^dag``
over row-major ``vec``.  The superoperator ``sum_k A_k (x) conj(A_k)`` holds
the same entries in another order (realignment: Watrous, *Theory of Quantum
Information*, section 2.2), so this is also the max-abs distance of the
superoperators, and neither depends on the Kraus decomposition.  With
``W = [vec(A_k); vec(B_k)]`` and ``S = [conj(vec(A_k)); -conj(vec(B_k))]``
stacked as rows, ``J(A) - J(B) = W^T S``.  That difference is Hermitian, so
:func:`choi_distance` evaluates only its upper block triangle and never holds
the whole ``D^2 x D^2`` matrix (40 MB at D = 36).  Up to D = 32 it takes a
stack as many trials at a time as keep one complex block product of
``CHOI_BLOCK`` rows within ``CHOI_STACK_ENTRIES`` entries, 2 MB.  From D = 33
it takes one trial at a time, without its zero Kraus operators, in real
arithmetic on square tiles of ``CHOI_TILE``, 0.75 MB: there a complex product
of inner dimension r, a few Kraus operators, is slow.  Dropping the zero
operators makes a padded trial's distance equal its unpadded one bit for bit
on any BLAS.  The batched route cannot drop them, as its trials share one
padded rank, and stays complex: ``tests/test_stacks.py`` checks that the BLAS
in use leaves complex products unchanged by zero padding, and OpenBLAS
0.3.31's real products on small tiles do not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .framework import (
    Action,
    BipartiteModel,
    Effect,
    IncompleteAction,
    State,
    TheoryModel,
    TOL_EFFECT,
    Transformation,
    value,
)
from .linalg import (
    RANK_TOL,
    as_matrix,
    as_matrix_stack,
    hermitian_coords,
    hermitian_part,
    hermitian_product_table,
    max_eig_herm,
    partial_trace,
    psd_sqrt,
    require_hermitian,
    require_hermitian_stack,
    require_hermitians,
    require_psd,
    require_psd_stack,
    trace_norm,
    trial_factor,
    trusted_hermitian_coords,
)
from .report import Check, TrialReport, VerificationReport, worst_defects
from .sampling import (
    complex_gaussian,
    finite_gram,
    gram,
    isometry_blocks,
    trial_rng,
    unit_trace,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class IncompleteInstrument(IncompleteAction):
    """Trace operators of the instrument outcomes do not sum to the identity."""


class NotSelective(ValueError):
    """Steering witness requires an outcome that is trace-decreasing on the state."""


@dataclass(frozen=True, eq=False)
class KrausOp:
    """A generally trace-decreasing quantum operation in Kraus form.

    ``kraus`` is one complex array of shape ``(r, d_out, d_in)``;
    ``kraus[k]`` is the k-th Kraus operator.  The constructor takes that
    array or any sequence of equally shaped matrices and checks, once on the
    stacked array, that the entries are finite and that the operation does
    not increase the trace.  Kernels that derive an operation from validated
    ones store it with ``_trusted``, which checks nothing.  A trusted
    ``kraus`` may carry a leading trial axis, ``(n, r, d_out, d_in)``: the
    stack of n operations, each of Kraus rank at most r and padded to r
    with zero operators.  Zero operators add only exact zeros to every sum
    the kernels form, so padding changes no result.  Indexing a stack gives
    one trial's operation or a sub-stack.
    """

    kraus: np.ndarray

    def __init__(self, kraus):
        if not isinstance(kraus, np.ndarray):
            kraus = list(kraus)
            if len({np.shape(m) for m in kraus}) > 1:
                raise ValueError("all Kraus operators must share one shape")
        stacked = np.asarray(kraus, dtype=complex)
        if stacked.size == 0:
            raise ValueError("a quantum operation needs at least one Kraus operator")
        if stacked.ndim != 3:
            raise ValueError(
                f"expected a stack of 2-D Kraus matrices, got shape {stacked.shape}"
            )
        if not np.isfinite(stacked).all():
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        object.__setattr__(self, "kraus", stacked)
        with np.errstate(over="ignore", invalid="ignore"):
            k = self.trace_operator()
        if not np.isfinite(k).all():
            raise ValueError("trace operator sum of M^dag M overflows: its entries are not finite")
        top = max_eig_herm(k)
        if top > 1.0 + TOL_EFFECT:
            raise ValueError(
                f"sum of M^dag M has eigenvalue {top:.6f} > 1; not trace-nonincreasing"
            )

    @classmethod
    def _trusted(cls, kraus) -> "KrausOp":
        """Store ``kraus`` unchecked: a stack derived from validated operations."""
        op = object.__new__(cls)
        object.__setattr__(op, "kraus", np.asarray(kraus, dtype=complex))
        return op

    def __getitem__(self, trials) -> "KrausOp":
        """Trial ``trials`` of a stack, or the sub-stack of the trials ``trials``."""
        return KrausOp._trusted(self.kraus[trials])

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[-1]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[-2]

    def trace_operator(self) -> np.ndarray:
        """K = sum_k M_k^dag M_k, the operator carrying all occurrence statistics.

        Hermitian by construction: symmetrized against roundoff, not re-checked.
        """
        kraus = self.kraus
        rows = kraus.reshape(kraus.shape[:-3] + (-1, kraus.shape[-1]))
        k = rows.conj().swapaxes(-1, -2) @ rows
        return (k + k.conj().swapaxes(-1, -2)) / 2


@dataclass(frozen=True, eq=False)
class Instrument:
    """A complete quantum action: outcomes whose trace operators sum to I."""

    outcomes: tuple[KrausOp, ...]

    def __init__(self, outcomes):
        ops = tuple(outcomes)
        if not ops:
            raise ValueError("an instrument needs at least one outcome")
        object.__setattr__(self, "outcomes", ops)
        defect = self.completeness_defect()
        if defect > TOL_EFFECT:
            raise IncompleteInstrument(
                f"instrument trace operators sum away from I: defect {defect:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.outcomes[0].dim_in

    def completeness_defect(self) -> float:
        total = sum(op.trace_operator() for op in self.outcomes)
        return float(np.abs(total - np.eye(self.dim)).max())


def apply_quantum_op(m, rho) -> np.ndarray:
    """sum_k M_k rho M_k^dag; PSD in, PSD out, trace possibly decreased.

    A stack of n operations applies to a stack ``(n, d, d)`` of operators,
    trial by trial."""
    r = as_matrix_stack(rho) if m.kraus.ndim == 4 else as_matrix(rho, square=True)
    if r.shape[-1] != m.dim_in:
        raise ValueError(f"operator dim {r.shape[-1]} does not match Kraus dim {m.dim_in}")
    return _apply(m.kraus, r)


def _apply(k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``sum_k K_k R K_k^dag`` for Kraus arrays ``(..., r, d, d)`` and operators
    ``(..., d, d)`` with the same leading axes; ``R`` gets a unit Kraus axis."""
    return (k @ r[..., None, :, :] @ k.conj().swapaxes(-1, -2)).sum(axis=-3)


def compose_kraus(first, then):
    """``first`` followed by ``then``: the products N_j M_k, j major."""
    products = then.kraus[..., None, :, :] @ first.kraus[..., None, :, :, :]
    return KrausOp._trusted(products.reshape(products.shape[:-4] + (-1,) + products.shape[-2:]))


def coarse_grain_kraus(a, b):
    """The coarse-graining a + b: one operation holding both Kraus lists."""
    return KrausOp._trusted(np.concatenate([a.kraus, b.kraus], axis=-3))


def scale_kraus(lam, m):
    """lam * m: every Kraus operator scaled by sqrt(lam).  For a stack ``m``
    of n operations, ``lam`` may hold one factor per trial."""
    return KrausOp._trusted(trial_factor(np.sqrt(lam), m.kraus) * m.kraus)


def draw_kraus(rng: np.random.Generator, d: int, lam_low: float) -> tuple:
    """Raw draw of :func:`random_kraus`: the Gaussian of a three-block Haar
    isometry, how many blocks to keep (1 or 2) and lam in [lam_low, 1)."""
    return complex_gaussian(rng, 3 * d, d), int(rng.integers(1, 3)), rng.uniform(lam_low, 1.0)


def finish_kraus(a, keep, lam):
    """Finish of :func:`random_kraus`: the first ``keep`` blocks of the
    isometry of ``a``, scaled by sqrt(lam).  Stacked raw draws give their
    stack at Kraus rank ``max(keep)``, each trial's blocks past its own
    ``keep`` set to exact (positive) zeros."""
    blocks = isometry_blocks(a, 3)
    if not isinstance(keep, np.ndarray):
        return scale_kraus(lam, KrausOp._trusted(blocks[:keep]))
    rank = keep.max()
    kept = np.arange(rank)[:, None, None] < keep[:, None, None, None]
    return scale_kraus(lam, KrausOp._trusted(np.where(kept, blocks[:, :rank], 0)))


def random_kraus(rng: np.random.Generator, d: int, lam_low: float) -> KrausOp:
    """One or two blocks of a Haar instrument, scaled by sqrt(lam) for lam
    uniform in [lam_low, 1): a random trace-decreasing operation."""
    return finish_kraus(*draw_kraus(rng, d, lam_low))


def finish_outcomes(a: np.ndarray, d: int) -> list:
    """Finish of :func:`haar_outcomes` for its Gaussian ``a`` ``(n*d, d)``: the
    n one-Kraus outcomes; for stacked Gaussians ``(m, n*d, d)``, each
    outcome's stack of m trials."""
    blocks = isometry_blocks(a, a.shape[-2] // d)
    return [KrausOp._trusted(blocks[..., j : j + 1, :, :]) for j in range(blocks.shape[-3])]


def haar_outcomes(rng: np.random.Generator, d: int, n: int) -> list[KrausOp]:
    """The ``n`` one-Kraus outcomes of a Haar instrument, complete by construction,
    so the ``Instrument`` or ``Action`` built from them is their one check."""
    return finish_outcomes(complex_gaussian(rng, n * d, d), d)


def complement_kraus(m: KrausOp) -> KrausOp:
    """The one-Kraus operation sqrt(I - K), whose trace operator completes m's K to I."""
    return KrausOp._trusted([psd_sqrt(np.eye(m.dim_in) - m.trace_operator())])


# Rows of W^T per product in choi_distance's batched route.  64 keeps every
# operation up to D = 8 in one block, where two blocks of 32 cost a 6-dim
# local operation half as much again.
CHOI_BLOCK = 64
# Entries of one block product in the batched route, all trials of a stacked
# call together: 2^17 complex entries are 2 MB.  A stack takes as many trials
# per product as fit; where not even two fit (D >= 33), it takes the
# one-trial route instead.
CHOI_STACK_ENTRIES = 2**17
# Side of the square tiles of Re J and Im J in the one-trial route.  Its two
# float buffers take 0.75 MB and stay in a core's L2 cache, and 216 divides
# D^2 = 1296 at D = 36; there 144 ran about as fast, 324 40% slower and 432
# twice as slow.
CHOI_TILE = 216


def choi_distance(a, b):
    """max |J(a) - J(b)|, the largest entry of the difference of Choi matrices.

    By realignment this equals the max-abs distance of the superoperators
    ``sum_k K_k (x) conj(K_k)``; it is zero iff ``a`` and ``b`` are the same
    map, whatever their Kraus decompositions.  The difference is ``W^T S``
    for the stacked, row-major vectorized Kraus operators
    ``W = [vec(a_k); vec(b_k)]`` and ``S = [conj(vec(a_k)); -conj(vec(b_k))]``.

    ``W^T S`` is Hermitian (entry (j, i) is the conjugate of entry (i, j)),
    so its largest entry lies in the upper triangle, and so does entry
    (i, i), which turns NaN for a NaN in column i of ``W``.  Both routes
    evaluate only an upper block triangle and fold the block maxima with
    ``np.maximum``, which keeps a NaN.  Stacks of operations give one
    distance per trial.  The route depends on the Kraus dimension alone.

    Batched (D <= 32): rows ``i:i+CHOI_BLOCK`` of ``W^T`` are multiplied
    with the columns ``i:`` of ``S``, for as many trials at a time as keep
    a block product within ``CHOI_STACK_ENTRIES`` complex entries, and
    ``abs`` is taken.  Zero padding changes no result as long as the BLAS
    leaves complex products unchanged by it.

    One trial at a time (D >= 33, where not two trials fit): there a
    complex product of inner dimension r is slow.  Each trial's exactly-zero
    Kraus operators are dropped first (a NaN is kept, since ``nan != 0``; a
    side left with none keeps one zero operator), so a padded trial and the
    same trial unpadded give the same ``W`` and the same distance, bit for
    bit, on any BLAS; real products on small tiles need not be invariant to
    zero padding, which is why the batched route stays complex.  ``W^T`` is
    laid out as reals in ``(Re, Im)`` column pairs, and each square tile of
    ``CHOI_TILE`` in the upper block triangle takes two real products into
    reused buffers, ``Re J`` and ``Im J``, reduced in place to
    ``max(Re^2 + Im^2)``; the square root is returned.  The squares limit
    the range: a finite entry above about 1e154 reads inf, so the check
    fails rather than passes, and a distance below about 1e-154, far under
    every tolerance, loses digits or reads 0.
    """
    ka, kb = a.kraus, b.kraus
    if ka.shape[-2:] != kb.shape[-2:]:
        raise ValueError(f"operations map {ka.shape[-2:]} and {kb.shape[-2:]}")
    lead = np.broadcast(ka[..., 0, 0, 0], kb[..., 0, 0, 0]).shape
    entries = ka.shape[-2] * ka.shape[-1]
    per = CHOI_STACK_ENTRIES // (min(CHOI_BLOCK, entries) * entries)
    if per <= 1:
        ka, kb = (np.broadcast_to(k, lead + k.shape[-3:]) for k in (ka, kb))
        top = np.empty(lead)
        re, im = np.empty((2, CHOI_TILE, CHOI_TILE))
        for t in np.ndindex(lead):
            w = [k[t][(k[t] != 0).any(axis=(-2, -1))].reshape(-1, entries) for k in (ka, kb)]
            w = [x if len(x) else np.zeros((1, entries), dtype=complex) for x in w]
            p = np.concatenate(w).T.copy().view(float)
            # Rows 2k and 2k+1 of q are Re and Im of W's row k, negated for
            # b's operators, so Re J = p @ q; the pairs (-Im, Re) of qi give Im J.
            q = p.T.copy()
            q[2 * len(w[0]) :] *= -1
            qi = (q.reshape(-1, 2, entries)[:, ::-1] * [[-1], [1]]).reshape(-1, entries)
            best = 0.0
            for i in range(0, entries, CHOI_TILE):
                for j in range(i, entries, CHOI_TILE):
                    r = re[: min(CHOI_TILE, entries - i), : min(CHOI_TILE, entries - j)]
                    s = im[: r.shape[0], : r.shape[1]]
                    np.matmul(p[i : i + CHOI_TILE], q[:, j : j + CHOI_TILE], out=r)
                    np.matmul(p[i : i + CHOI_TILE], qi[:, j : j + CHOI_TILE], out=s)
                    r *= r
                    s *= s
                    r += s
                    best = np.maximum(best, r.max())
            top[t] = best
        return value(np.sqrt(top))
    if lead and lead[0] > per:
        ka, kb = (np.broadcast_to(k, lead + k.shape[-3:]) for k in (ka, kb))
        return np.concatenate([
            choi_distance(KrausOp._trusted(ka[i : i + per]), KrausOp._trusted(kb[i : i + per]))
            for i in range(0, lead[0], per)
        ])
    ra = ka.shape[-3]
    # Not coarse_grain_kraus: a KrausOp rejects a NaN entry that this distance must
    # report.  W is filled by assignment, which broadcasts the leading axes.
    w = np.empty(lead + (ra + kb.shape[-3], entries), dtype=complex)
    w[..., :ra, :] = ka.reshape(ka.shape[:-2] + (-1,))
    w[..., ra:, :] = kb.reshape(kb.shape[:-2] + (-1,))
    s = w.conj()
    s[..., ra:, :] *= -1
    wt = w.swapaxes(-1, -2)
    top = np.abs(wt[..., :CHOI_BLOCK, :] @ s).max(axis=(-2, -1))
    for i in range(CHOI_BLOCK, wt.shape[-2], CHOI_BLOCK):
        block = wt[..., i : i + CHOI_BLOCK, :] @ s[..., :, i:]
        top = np.maximum(top, np.abs(block).max(axis=(-2, -1)))
    return value(top)


def local_embed(m, d_other: int, side: int = 1):
    """Extend a local operation to the joint space by tensoring with identity;
    a stack gives the stack of its trials' extensions."""
    # A leading axis of length 1 makes np.kron act blockwise on every Kraus operator.
    eye = np.eye(d_other)[None]
    if side == 1:
        return KrausOp._trusted(np.kron(m.kraus, eye))
    if side == 2:
        return KrausOp._trusted(np.kron(eye, m.kraus))
    raise ValueError(f"side must be 1 or 2, got {side!r}")


def _on_side1(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``(A (x) I) R`` for ``A`` of shape ``(..., d1, d1)`` and ``R`` of shape
    ``(..., D, D)``, broadcast over the leading axes, without the ``kron``.

    Read as a ``d1 x (d2*D)`` matrix, ``R`` has the rows ``(i, 0..d2-1)`` of
    the ``D x D`` matrix laid end to end in its row ``i``.  ``A (x) I`` mixes
    only the index ``i``, so the product is one ``matmul`` with ``A``.
    """
    prod = a @ r.reshape(*r.shape[:-2], a.shape[-1], -1)
    return prod.reshape(*prod.shape[:-2], *r.shape[-2:])


def side1_kraus_outputs(kraus: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``(K_k (x) I) R (K_k (x) I)^dag`` for every ``K_k`` of an ``(n, d1, d1)``
    stack and a joint operator ``R`` on ``d1*d2``: an ``(n, D, D)`` array.
    Stacks of trials, Kraus arrays ``(..., n, d1, d1)`` and operators
    ``(..., D, D)``, give ``(..., n, D, D)``.

    The left factor is :func:`_on_side1`; the right one contracts the column
    index the same way, as ``X (K (x) I)^dag = ((K (x) I) X^dag)^dag``.
    """
    left = _on_side1(kraus, r[..., None, :, :])
    return _on_side1(kraus, left.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)


def side1_kraus_reductions(kraus: np.ndarray, r: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """``Tr_1[(K_k (x) I) R (K_k (x) I)^dag]`` for every ``K_k`` of an
    ``(..., n, d1, d1)`` stack and joint operators ``R`` ``(..., D, D)``: the
    remote reductions of :func:`side1_kraus_outputs`, ``(..., n, d2, d2)``.

    The left factor ``Y = (K (x) I) R`` is :func:`_on_side1`.  The partial
    trace reads only the diagonal blocks ``i = i'`` of ``Y (K (x) I)^dag``,
    entry ``(a, b)`` of block i being ``sum_j Y[(i, a), (j, b)] conj(K[i, j])``,
    so the right factor is contracted there alone, row i of ``conj(K)``
    against block row i of ``Y``, and the blocks are summed over i.  ``K``
    acts on both sides of ``R``, as in the output: the reduction is never
    taken from ``K^dag K``, which would assume the identity under test.
    """
    y = _on_side1(kraus, r[..., None, :, :])
    blocks = y.reshape(*y.shape[:-2], d1, d2, d1, d2)
    return (kraus.conj()[..., :, None, None, :] @ blocks)[..., 0, :].sum(axis=-3)


def trusted_reduced_min_eigs(am: np.ndarray, g: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Smallest eigenvalue of Tr_1[(A_t (x) I) G_t G_t^dag] for every pair of
    a stack of PSD ``A`` ``(n, d1, d1)``, symmetrized and trusted, and a stack
    of factors ``G`` ``(n, D, D)`` of ``R = G G^dag``.  The suite's own
    ``G G^dag`` draws are PSD by construction, so no eigensolve checks
    either; :func:`reduced_positivity_min_eig` validates anything else first.

    The reduction is read from the factor and ``R`` is never formed.  With
    ``Y = (A (x) I) G`` (:func:`_on_side1`), ``Tr_1[Y G^dag] = sum_a Y_a G_a^dag``
    over the ``d2 x D`` block rows ``a`` of ``Y`` and ``G``: that is
    ``(d1 + d2) D^2`` multiply-adds per trial, against ``D^3 + d1 D^2`` for
    forming ``R`` and then ``(A (x) I) R``.  Only the product is
    reassociated.  ``A`` stays a matrix: a factor ``A = B B^dag`` would turn
    the sum into ``sum_c H_c H_c^dag``, PSD by construction, and the check
    into a tautology.

    A trial whose reduction is not finite gets a NaN low, so a NaN in one
    draw fails that trial alone: a NaN or infinity in ``A``, ``G`` or ``Y``
    meets every product of its block row, so it reaches the reduction.
    Such a reduction is zeroed before ``eigvalsh``, which may return finite
    values for a NaN matrix.
    """
    rows = g.reshape(-1, d1, d2, d1 * d2)
    y = _on_side1(am, g).reshape(rows.shape)
    reduced = hermitian_part((y @ rows.conj().swapaxes(-1, -2)).sum(axis=1))
    broken = ~np.isfinite(reduced).all(axis=(-2, -1))
    reduced[broken] = 0.0
    lows = np.linalg.eigvalsh(reduced)[:, 0]
    lows[broken] = np.nan
    return lows


def reduced_positivity_min_eig(a, r, d1: int, d2: int):
    """Smallest eigenvalue of Tr_1[(A (x) I) R] for PSD A and R (must be >= 0).

    This is the kernel fact behind the trace-preservation equivalence: a
    positive local filter cannot push the remote reduction out of the
    positive cone.  Stacks of PSD ``A`` ``(n, d1, d1)`` and PSD ``R``
    ``(n, D, D)`` give the ``(n,)`` lows of their pairs, each equal to the
    call on that pair alone.

    The validating form of the lemma, for input from outside the package:
    it checks that both are finite, Hermitian and PSD (one eigensolve each)
    and that stacks match in length, and refuses a product or reduction
    that is not finite.  Its input is ``R`` itself, not a factor, so it
    forms ``(A (x) I) R`` and takes its partial trace; the suite's
    :func:`trusted_reduced_min_eigs` reads the same reduction from the
    factor of ``R``, equal up to roundoff.
    """
    one = np.ndim(a) != 3
    if one:
        a, r = as_matrix(a, square=True)[None], as_matrix(r, square=True)[None]
    am = require_psd_stack(a, "local operator A must be PSD")
    rm = require_psd_stack(r, "joint operator R must be PSD")
    if am.shape[-1] != d1:
        raise ValueError(f"local operator A acts on dimension {am.shape[-1]}, expected d1={d1}")
    if len(am) != len(rm):
        raise ValueError(f"{len(am)} local operators for {len(rm)} joint operators")
    # partial_trace refuses a product that overflowed; its sum may overflow too.
    reduced = hermitian_part(partial_trace(_on_side1(am, rm), d1, d2, side=1))
    if not np.isfinite(reduced).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    lows = np.linalg.eigvalsh(reduced)[:, 0]
    return float(lows[0]) if one else lows


# Thresholds of the two quantum verifiers.  A trace defect <= TRACE_TOL counts
# as trace preserved, and the remote reduction may then move by at most
# REDUCED_TOL (trace norm); this is also the tolerance both verifiers report
# for that check.  The converse branch of the biconditional: a reduction moved
# by more than REDUCED_FAIL_TOL requires a trace drop above TRACE_FAIL_TOL.
TRACE_TOL = 1e-10
REDUCED_TOL = 1e-8
TRACE_FAIL_TOL = 1e-8
REDUCED_FAIL_TOL = 1e-6


def quantum_no_signaling_defects(rho, outcomes, d1: int, d2: int) -> tuple:
    """The defects of :func:`quantum_no_signaling_check` on a stack of n
    trials: ``rho`` an ``(n, D, D)`` stack of Hermitian joint operators
    (validated and symmetrized here) and ``outcomes`` an instrument's
    outcomes, each a stack of n trials.  Returns the ``(n,)`` trace-norm
    defects of the averaged instrument and the ``(n, m)`` trace and
    reduced-state defects of its m outcomes, each trial's equal to the
    check on that trial alone, bit for bit.
    """
    r = require_hermitian_stack(rho)
    if r.shape[-1] != d1 * d2:
        raise ValueError("joint state dimension does not match d1*d2")
    if outcomes[0].dim_in != d1:
        raise ValueError(f"instrument acts on dimension {outcomes[0].dim_in}, expected d1={d1}")
    # All Kraus operators of a trial in one stack.  reduceat sums the remote
    # reductions of each outcome's run of it.
    kraus = np.concatenate([op.kraus for op in outcomes], axis=-3)
    starts = np.cumsum([0, *(op.kraus.shape[-3] for op in outcomes[:-1])])
    reduced = np.add.reduceat(side1_kraus_reductions(kraus, r, d1, d2), starts, axis=-3)
    weights = np.trace(r, axis1=-2, axis2=-1).real
    traces = np.trace(reduced, axis1=-2, axis2=-1).real
    # Trace norms of every outcome's shift and of the average's, in one SVD call.
    shifts = np.concatenate([reduced, reduced.sum(axis=-3)[:, None]], axis=-3)
    shifts -= partial_trace(r, d1, d2, side=1)[:, None]
    norms = _trace_norms(shifts)
    return norms[:, -1], np.abs(traces - weights[:, None]), norms[:, :-1]


def _trace_norms(shifts: np.ndarray) -> np.ndarray:
    """The trace norms of a stack of shifts, NaN for each matrix that is not
    finite.  Such a matrix is zeroed first, in place: the SVD of a matrix
    holding a NaN does not converge, and raises for the whole stack."""
    broken = ~np.isfinite(shifts).all(axis=(-2, -1))
    shifts[broken] = 0.0
    norms = np.linalg.svd(shifts, compute_uv=False).sum(axis=-1)
    norms[broken] = np.nan
    return norms


def no_signaling_trial_defects(no_signaling, trace_defects, reduced_defects, tol: float):
    """Yield the ``(check_name, rows, defects)`` columns of the n trials of
    :func:`quantum_no_signaling_defects`: ``no_signaling`` at every trial, and
    ``trace_preserving_outcomes`` at the trials where some outcome's trace
    defect is within ``tol``, the worst reduced defect of those outcomes."""
    preserved = trace_defects <= tol
    rows = np.flatnonzero(preserved.any(axis=-1))
    worst = np.where(preserved, worst_defects(reduced_defects), -np.inf).max(axis=-1)
    yield "no_signaling", slice(None), no_signaling
    yield "trace_preserving_outcomes", rows, worst[rows]


def quantum_no_signaling_check(
    rho,
    inst: Instrument,
    d1: int,
    d2: int,
    tol: float = 1e-10,
    seed: int = 0,
) -> VerificationReport:
    """Certify that an instrument on side 1 leaves side 2's reduction fixed.

    Reports (i) the trace-norm defect between the remote reduction before
    and after the averaged (completed) instrument, and (ii) for every
    outcome that happens to preserve the trace on this state, its individual
    reduced-state defect.  Each is a named check; (ii) is present only when
    some outcome preserves the trace.  One state and instrument:
    :func:`quantum_no_signaling_defects` of a stack of one.
    """
    outcomes = [KrausOp._trusted(op.kraus[None]) for op in inst.outcomes]
    r = as_matrix(rho, square=True)[None]
    no_signaling, traces, reduced = quantum_no_signaling_defects(r, outcomes, d1, d2)
    tols = {"no_signaling": tol, "trace_preserving_outcomes": REDUCED_TOL}
    columns = no_signaling_trial_defects(no_signaling, traces, reduced, tol)
    checks = [Check(name, float(d[0]), tols[name]) for name, _, d in columns if len(d)]
    outcome_defects = [
        {"trace_defect": t, "reduced_defect": x}
        for t, x in zip(traces[0].tolist(), reduced[0].tolist())
    ]
    return VerificationReport.from_checks(
        "quantum-no-signaling",
        seed,
        len(inst.outcomes),
        checks,
        tol,
        max_defect=checks[0].defect,
        details={
            "outcomes": outcome_defects,
            "trace_preserved_outcomes": int(np.count_nonzero(traces[0] <= tol)),
        },
    )


def _biconditional_defect(trace_defects: np.ndarray, reduced_defects: np.ndarray) -> np.ndarray:
    """The reduced defect of each pair that breaks the trace biconditional, else 0.

    Broken: the trace is preserved yet the reduction moved, or the reduction
    moved appreciably while the trace barely dropped.
    """
    moved = (trace_defects <= TRACE_TOL) & (reduced_defects > REDUCED_TOL)
    moved_far = (trace_defects <= TRACE_FAIL_TOL) & (reduced_defects > REDUCED_FAIL_TOL)
    defects = np.where(moved | moved_far, reduced_defects, 0.0)
    defects[np.isnan(trace_defects) | np.isnan(reduced_defects)] = np.nan  # a NaN never passes
    return defects


def trace_biconditional_check(
    trials: int = 200,
    d1: int = 2,
    d2: int = 2,
    seed: int = 0,
) -> VerificationReport:
    """Randomized audit of the trace-preservation equivalence: :func:`biconditional_report`, run."""
    return biconditional_report(trials, d1, d2).run(seed)


def biconditional_report(trials: int, d1: int, d2: int) -> TrialReport:
    """The trial sub-report auditing the trace-preservation equivalence.

    For sampled pairs (R, M) with M acting on side 1 only: whenever the total
    trace is preserved the remote reduction must be unchanged, and whenever
    the remote reduction moved appreciably the trace must have dropped.  The
    sampler mixes generic selective operations, trace-preserving channels,
    and selective operations whose filter is aligned with the state support
    (so the trace-preserved branch is exercised nontrivially).  Each trial
    makes a raw draw; a chunk of them is finished and evaluated as stacks,
    one stacked call per draw kind and Kraus count or filter rank, each
    trial's defects equal to those of its draw evaluated alone.  Each
    trace-preserved trial is a row of ``no_trace_preserved_case``, whose
    folded row count the finish gates on.
    """

    def draw(rng: np.random.Generator, k: int) -> tuple:
        """Trial ``k``'s raw draw ``(kind, count, a, g)``: its kind, the Kraus
        count of M (kinds 0 and 1) or the rank of its filter (kind 2), and
        the Gaussians of M's isometry or filter basis and of R."""
        kind = k % 3
        if kind == 2:
            rank = int(rng.integers(1, d1))
            basis = complex_gaussian(rng, d1, d1)
            return kind, rank, basis, complex_gaussian(rng, d1 * d2, d1 * d2)
        g = complex_gaussian(rng, d1 * d2, d1 * d2)
        a = complex_gaussian(rng, (3 - kind) * d1, d1)
        return kind, int(rng.integers(1, 3)) if kind == 0 else 2, a, g

    def finish(kind: int, count: int, a: np.ndarray, g: np.ndarray) -> tuple:
        """The stacked R and Kraus arrays of M of stacked raw draws of one kind
        and count, and the mask of the trials whose ``G G^dag`` is not finite."""
        r, broken = finite_gram(g)
        if kind < 2:
            return unit_trace(r), isometry_blocks(a, 3 - kind)[:, :count], broken
        basis = np.linalg.qr(a)[0][..., :count]
        p = (basis @ basis.conj().swapaxes(-1, -2))[:, None]
        return unit_trace(side1_kraus_outputs(p, r)[:, 0]), p, broken

    def defects(drawn: list):
        """A chunk's ``(rows, trace_defects, reduced_defects)``, one call per kind and count."""
        keys = [raw[:2] for raw in drawn]
        for key in dict.fromkeys(keys):
            rows = np.array([k for k, other in enumerate(keys) if other == key])
            a, g = (np.array([drawn[k][j] for k in rows]) for j in (2, 3))
            r, kraus, broken = finish(*key, a, g)
            reduced = side1_kraus_reductions(kraus, r, d1, d2).sum(axis=-3)
            trace_defects = np.abs(
                np.trace(reduced, axis1=-2, axis2=-1).real - np.trace(r, axis1=-2, axis2=-1).real
            )
            trace_defects[broken] = np.nan  # _biconditional_defect then gives NaN
            shifts = reduced - partial_trace(r, d1, d2, side=1)
            yield rows, trace_defects, _trace_norms(shifts)

    def evaluate(drawn: list):
        """A chunk's biconditional column and, at its trace-preserved trials, a
        ``no_trace_preserved_case`` column of zeros, group by group."""
        for rows, trace_defects, reduced_defects in defects(drawn):
            yield "biconditional", rows, _biconditional_defect(trace_defects, reduced_defects)
            yield "no_trace_preserved_case", rows[trace_defects <= TRACE_TOL], 0.0

    def conclude(report: VerificationReport) -> VerificationReport:
        """Add the worst trial's witness, and gate on the trace-preserved count."""
        violation, preserved = report.checks
        worst, witness = violation.worst_trial, None
        if violation.defect > 0.0:
            ((_, (t,), (x,)),) = defects([draw(trial_rng(report.seed, worst), worst)])
            witness = {"trial": worst, "trace_defect": float(t), "reduced_defect": float(x)}
        # The trace-preserved branch must be exercised, or the audit is vacuous.
        # Trial 1 draws the first channel (kind 1), so one trial cannot exercise it.
        count, checks = preserved.evaluations, (violation,)
        if trials > 1:
            checks += (Check(preserved.name, float(count == 0), preserved.tol),)
        details = {"trace_preserved_cases": count}
        return replace(report, checks=checks, witness=witness, details=details)

    tols = {"biconditional": REDUCED_TOL, "no_trace_preserved_case": 0.0}
    return TrialReport("trace-biconditional", draw, evaluate, trials, tols, conclude)


def steering_witness(
    rho, m: KrausOp, d1: int, d2: int, tol: float = 1e-10, seed: int = 0
) -> VerificationReport:
    """Contrast a selective outcome's remote steering with the averaged instrument.

    The conditional remote state may differ from the unconditional one (that
    is permitted, and reported), while completing ``m`` to a full instrument
    and averaging leaves the remote reduction fixed.  Informational: the
    report's defect is the averaged-instrument defect only.
    """
    r = require_hermitian(rho)
    if m.dim_in != d1:
        raise ValueError(f"operation acts on dimension {m.dim_in}, expected d1={d1}")
    reduced = side1_kraus_reductions(m.kraus, r, d1, d2).sum(axis=0)
    weight = float(np.trace(reduced).real)
    total = float(np.trace(r).real)
    if weight >= total - tol:
        raise NotSelective(
            f"outcome preserves the trace on this state ({weight:.6f} of {total:.6f})"
        )
    unconditional = partial_trace(r, d1, d2, side=1) / total
    conditional = reduced / weight
    conditional_distance = trace_norm(conditional - unconditional)

    inst = Instrument([m, complement_kraus(m)])
    avg = quantum_no_signaling_check(r, inst, d1, d2, tol=tol, seed=seed)
    witness = {
        "conditional_distance": conditional_distance,
        "outcome_probability": weight / total,
        "average_defect": avg.max_defect,
    }
    return VerificationReport.from_checks(
        "steering-witness", seed, 1, avg.checks, tol, max_defect=avg.max_defect, witness=witness
    )


# ---------------------------------------------------------------------------
# TheoryModel adapter
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=True)
class QuantumModel(TheoryModel):
    """Finite-dimensional quantum theory on a d-dimensional Hilbert space."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("Hilbert space dimension must be positive")

    @property
    def name(self) -> str:
        return f"quantum({self.d})"

    @property
    def effect_dim(self) -> int:
        return self.d * self.d

    # -- factories ----------------------------------------------------------
    def state(self, matrix) -> State:
        m = require_psd(matrix, "density operator must be PSD")
        if m.shape[0] != self.d:
            raise ValueError(f"state must be {self.d}x{self.d}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TOL_EFFECT:
            raise ValueError(f"density operator has trace {tr}, expected 1")
        return State(self, m)

    def operation(self, kraus, label: str = "") -> Transformation:
        op = kraus if isinstance(kraus, KrausOp) else KrausOp(kraus)
        if op.dim_in != self.d or op.dim_out != self.d:
            raise ValueError(f"operation must act on dimension {self.d}")
        return Transformation(self, op, label)

    def action_from_instrument(self, inst: Instrument) -> Action:
        return self.outcome_action(inst.outcomes)

    # -- interface ----------------------------------------------------------
    # Payloads may be stacks of trials: states and effects ``(n, d, d)``,
    # transformations a KrausOp of ``(n, r, d, d)``; every method works on either.
    def identity(self) -> Transformation:
        return Transformation(self, KrausOp._trusted([np.eye(self.d)]), "identity")

    def unit_effect(self) -> Effect:
        return Effect(self, np.eye(self.d))

    def effect_of(self, t: Transformation) -> Effect:
        return Effect(self, t.payload.trace_operator())

    def apply(self, t: Transformation, s: State) -> State:
        return State(self, apply_quantum_op(t.payload, s.payload))

    def evaluate(self, e: Effect, s: State):
        return value(np.trace(e.payload @ s.payload, axis1=-2, axis2=-1).real)

    def compose(self, first: Transformation, then: Transformation) -> Transformation:
        return Transformation(self, compose_kraus(first.payload, then.payload))

    def add_transformations(self, t1: Transformation, t2: Transformation) -> Transformation:
        return Transformation(self, coarse_grain_kraus(t1.payload, t2.payload))

    def scale_transformation(self, lam, t: Transformation) -> Transformation:
        return Transformation(self, scale_kraus(lam, t.payload))

    def complement(self, t: Transformation) -> Transformation:
        return Transformation(self, complement_kraus(t.payload))

    def effect_leq_unit(self, e: Effect):
        eigs = np.linalg.eigvalsh(require_hermitians(e.payload))
        return value((eigs[..., 0] >= -TOL_EFFECT) & (eigs[..., -1] <= 1.0 + TOL_EFFECT))

    def effect_coords(self, e: Effect) -> np.ndarray:
        return hermitian_coords(e.payload)

    def state_distance(self, s1: State, s2: State):
        return trace_norm(s1.payload - s2.payload)

    def transformation_distance(self, t1: Transformation, t2: Transformation):
        """Largest entry of the Choi-matrix difference (:func:`choi_distance`),
        equal by realignment to the max-abs superoperator distance."""
        return choi_distance(t1.payload, t2.payload)

    def draw_state(self, rng: np.random.Generator) -> tuple:
        return (complex_gaussian(rng, self.d, self.d),)

    def finish_state(self, g) -> State:
        return State(self, unit_trace(gram(g)))

    def draw_transformation(self, rng: np.random.Generator) -> tuple:
        return draw_kraus(rng, self.d, 0.3)

    def finish_transformation(self, a, keep, lam) -> Transformation:
        return Transformation(self, finish_kraus(a, keep, lam), "random")

    def draw_action(self, rng: np.random.Generator, outcomes: int) -> tuple:
        return (complex_gaussian(rng, outcomes * self.d, self.d),)

    def finish_action(self, a) -> Action:
        return self.outcome_action(finish_outcomes(a, self.d))

    def random_instrument(self, rng: np.random.Generator, outcomes: int) -> Instrument:
        return Instrument(haar_outcomes(rng, self.d, outcomes))

    def minimal_ic_effects(self) -> list[Effect]:
        return [Effect(self, k) for k in minimal_ic_povm(self.d)]


@dataclass(frozen=True, eq=True)
class QuantumBipartite(BipartiteModel):
    """Tensor-product composition of two quantum systems."""

    d1: int
    d2: int

    def __post_init__(self):
        object.__setattr__(self, "left", QuantumModel(self.d1))
        object.__setattr__(self, "right", QuantumModel(self.d2))
        object.__setattr__(self, "joint", QuantumModel(self.d1 * self.d2))

    def _embed(self, t: Transformation, side: int) -> KrausOp:
        return local_embed(t.payload, self.d2 if side == 1 else self.d1, side)

    def ambient_rows(self, stack) -> np.ndarray:
        """``trusted_hermitian_coords`` of product payloads the package built
        from validated local effects."""
        return trusted_hermitian_coords(stack)

    def product_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return hermitian_product_table(self.d1, self.d2)


# ---------------------------------------------------------------------------
# Built-in fixtures: singlet, Pauli instruments, IC POVMs
# ---------------------------------------------------------------------------

def singlet_state() -> np.ndarray:
    """Density matrix of (|01> - |10>)/sqrt(2)."""
    v = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2)
    return np.outer(v, v.conj())

def bloch_projectors(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the +/- eigenstates of cos(theta) Z + sin(theta) X."""
    n = np.cos(theta) * PAULI_Z + np.sin(theta) * PAULI_X
    eye = np.eye(2)
    return (eye + n) / 2, (eye - n) / 2


def projective_instrument(theta: float) -> Instrument:
    return Instrument([KrausOp([p]) for p in bloch_projectors(theta)])


def z_instrument() -> Instrument:
    return projective_instrument(0.0)


def x_instrument() -> Instrument:
    return projective_instrument(np.pi / 2)


# Weyl-Heisenberg SIC fiducials, psi_0 real: |<psi|X^a Z^b psi>| = 1/sqrt(d+1) for
# (a, b) != (0, 0).  d = 2 gives the tetrahedron, d = 3 the orbit of (0, 1, -1)/sqrt(2);
# d = 4..6 were found offline by minimising the frame potential sum |<psi|D_ab psi>|^4.
_SIC_FIDUCIALS = {
    2: (0.8880738339771153, 0.3250575836718681 + 0.32505758367186804j),
    3: (0.0, 0.7071067811865475, -0.7071067811865475),
    4: (0.40084839132434086, -0.15440391488017485 - 0.12898169793524525j,
        -0.5578338408973449 + 0.5017457233224643j, -0.3113893644531789 + 0.372764025387219j),
    5: (0.19993636214633706, 0.048846699566617045 + 0.23669126770086601j,
        0.6483220181641407 + 0.2690414456618805j, -0.09348065941601331 - 0.4054648607900135j,
        -0.39520446790534675 - 0.28210813110289745j),
    6: (0.3506319357181344, 0.38782124303529136 + 0.20798601163925803j,
        -0.10478674292741638 - 0.35384003430189886j, -0.4789721315690839 - 0.47897213156908397j,
        -0.2180805909699498 + 0.06582426318640103j, 0.09115983153918845 - 0.16786905132171584j),
}


@lru_cache(maxsize=8)
def minimal_ic_povm(d: int) -> tuple[np.ndarray, ...]:
    """The d^2 effects ``D_ab |psi><psi| D_ab^dag / d`` for d in 2..6, with
    ``D_ab = X^a Z^b`` (X|j> = |j+1 mod d>, Z|j> = exp(2 pi i j/d) |j>) and psi the
    fiducial ``_SIC_FIDUCIALS[d]``.  They sum to I for any unit psi and are linearly
    independent iff no ``<psi|D_ab psi>`` vanishes; each has modulus 1/sqrt(d+1), which
    also sets the rows' conditioning (Renes et al., J. Math. Phys. 45, 2171 (2004)).
    Completeness and rank d^2 are certified (``RuntimeError``); another d is a ``ValueError``.
    """
    if d not in _SIC_FIDUCIALS:
        raise ValueError(f"minimal_ic_povm covers d in 2..6, got {d!r}")
    fiducial = np.array(_SIC_FIDUCIALS[d], dtype=complex)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    shifts = [np.linalg.matrix_power(shift, a) for a in range(d)]
    clocks = [np.linalg.matrix_power(clock, b) for b in range(d)]
    orbit = [x @ z @ fiducial for x in shifts for z in clocks]
    effects = [np.outer(v, v.conj()) / d for v in orbit]
    if np.abs(sum(effects) - np.eye(d)).max() > 1e-9:
        raise RuntimeError(f"IC POVM construction failed completeness at d={d}")
    # The eigenvalues of the rows' Gram matrix are their squared singular values:
    # span_rank's full-rank count, without an SVD.
    rows = hermitian_coords(np.stack(effects))
    gram = np.linalg.eigvalsh(rows @ rows.T)
    if not gram[0] > RANK_TOL**2 * gram[-1]:
        raise RuntimeError(f"IC POVM construction is rank-deficient at d={d}")
    for e in effects:
        e.flags.writeable = False
    return tuple(effects)
