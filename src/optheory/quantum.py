"""Quantum instantiation: density operators, Kraus operations, instruments.

Bipartite structure is the tensor product; a local operation on side 1 acts
as ``M (x) I`` and the local state is the partial trace.  The verifiers at
the bottom certify, numerically, that complete local instruments never move
the remote reduced state, that trace preservation on a given joint operator
is equivalent to invariance of its reduction, and that selective outcomes may
steer the remote conditional state without signaling on average.

A :class:`KrausOp` stores its r Kraus operators as one ``(r, d_out, d_in)``
array, so applying, composing and coarse-graining operations are single
batched ``matmul`` or ``concatenate`` calls.  The verifiers never build
``M (x) I``: :func:`side1_kraus_outputs` reads a joint operator on
``d1*d2`` as a ``d1 x (d2*D)`` matrix, so that ``(K (x) I) R`` is the
product ``K @ R.reshape(d1, -1)``, and applies that product on both sides of
``R`` for a whole stack of Kraus operators at once.  :func:`local_embed`
still builds the ``kron`` for :class:`QuantumBipartite`, whose joint
operations need their Kraus operators.  An operation is validated once,
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
:func:`choi_distance` evaluates only its upper block triangle, one block of
``CHOI_BLOCK`` rows at a time, and never holds the whole ``D^2 x D^2`` matrix:
at D = 36 its temporaries take about 2 MB instead of 40 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
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
)
from .linalg import (
    as_matrix,
    eigvals_herm,
    hermitian_coords,
    max_eig_herm,
    partial_trace,
    psd_sqrt,
    require_hermitian,
    require_hermitian_stack,
    require_psd,
    require_psd_stack,
    span_rank,
    trace_norm,
)
from .report import Check, VerificationReport, fold_checks, per_trial, trial_outcomes, worst_defect
from .sampling import (
    complex_gaussian,
    ginibre_positive,
    ginibre_state,
    haar_isometry_blocks,
    trial_rng,
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
    ones store it with ``_trusted``, which checks nothing.
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

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]

    def trace_operator(self) -> np.ndarray:
        """K = sum_k M_k^dag M_k, the operator carrying all occurrence statistics.

        Hermitian by construction: symmetrized against roundoff, not re-checked.
        """
        rows = self.kraus.reshape(-1, self.dim_in)
        k = rows.conj().T @ rows
        return (k + k.conj().T) / 2


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


def apply_quantum_op(m: KrausOp, rho) -> np.ndarray:
    """sum_k M_k rho M_k^dag; PSD in, PSD out, trace possibly decreased."""
    r = as_matrix(rho, square=True)
    if r.shape[0] != m.dim_in:
        raise ValueError(f"operator dim {r.shape[0]} does not match Kraus dim {m.dim_in}")
    k = m.kraus
    return (k @ r @ k.conj().transpose(0, 2, 1)).sum(axis=0)


def compose_kraus(first: KrausOp, then: KrausOp) -> KrausOp:
    """``first`` followed by ``then``: the products N_j M_k, j major."""
    products = then.kraus[:, None] @ first.kraus[None, :]
    return KrausOp._trusted(products.reshape(-1, then.dim_out, first.dim_in))


def coarse_grain_kraus(a: KrausOp, b: KrausOp) -> KrausOp:
    """The coarse-graining a + b: one operation holding both Kraus lists."""
    return KrausOp._trusted(np.concatenate([a.kraus, b.kraus]))


def scale_kraus(lam: float, m: KrausOp) -> KrausOp:
    """lam * m: every Kraus operator scaled by sqrt(lam)."""
    return KrausOp._trusted(np.sqrt(lam) * m.kraus)


def random_kraus(rng: np.random.Generator, d: int, lam_low: float) -> KrausOp:
    """One or two blocks of a Haar instrument, scaled by sqrt(lam) for lam
    uniform in [lam_low, 1): a random trace-decreasing operation."""
    blocks = haar_isometry_blocks(rng, d, 3)
    keep = int(rng.integers(1, 3))
    return scale_kraus(rng.uniform(lam_low, 1.0), KrausOp._trusted(blocks[:keep]))


def haar_outcomes(rng: np.random.Generator, d: int, n: int) -> list[KrausOp]:
    """The ``n`` one-Kraus outcomes of a Haar instrument, complete by construction,
    so the ``Instrument`` or ``Action`` built from them is their one check."""
    return [KrausOp._trusted([b]) for b in haar_isometry_blocks(rng, d, n)]


def complement_kraus(m: KrausOp) -> KrausOp:
    """The one-Kraus operation sqrt(I - K), whose trace operator completes m's K to I."""
    return KrausOp._trusted([psd_sqrt(np.eye(m.dim_in) - m.trace_operator())])


# Rows of W^T per product in choi_distance.  At D = 36, 32 and 64 rows run
# equally fast; 64 keeps every operation up to D = 8 in one block, where two
# blocks of 32 cost a 6-dim local operation half as much again.
CHOI_BLOCK = 64


def choi_distance(a: KrausOp, b: KrausOp) -> float:
    """max |J(a) - J(b)|, the largest entry of the difference of Choi matrices.

    By realignment this equals the max-abs distance of the superoperators
    ``sum_k K_k (x) conj(K_k)``; it is zero iff ``a`` and ``b`` are the same
    map, whatever their Kraus decompositions.  The difference is ``W^T S``
    for the stacked, row-major vectorized Kraus operators
    ``W = [vec(a_k); vec(b_k)]`` and ``S = [conj(vec(a_k)); -conj(vec(b_k))]``.

    ``W^T S`` is Hermitian (entry (j, i) is the conjugate of entry (i, j)),
    so its largest entry lies in the upper triangle, and so does entry
    (i, i), which turns NaN for a NaN in column i of ``W``.  Rows
    ``i:i+CHOI_BLOCK`` of ``W^T`` are therefore multiplied only with the
    columns ``i:`` of ``S``; the block maxima are folded with ``np.maximum``,
    which keeps a NaN.  The peak temporary is one block of
    ``CHOI_BLOCK * D^2`` complex entries, not the ``D^2 x D^2`` matrix.
    """
    if a.kraus.shape[1:] != b.kraus.shape[1:]:
        raise ValueError(f"operations map {a.kraus.shape[1:]} and {b.kraus.shape[1:]}")
    # Not coarse_grain_kraus: a KrausOp rejects a NaN entry that this distance must report.
    w = np.concatenate([a.kraus, b.kraus]).reshape(len(a.kraus) + len(b.kraus), -1)
    s = w.conj()
    s[len(a.kraus) :] *= -1
    wt = w.T
    top = np.abs(wt[:CHOI_BLOCK] @ s).max()
    for i in range(CHOI_BLOCK, len(wt), CHOI_BLOCK):
        top = np.maximum(top, np.abs(wt[i : i + CHOI_BLOCK] @ s[:, i:]).max())
    return float(top)


def local_embed(m: KrausOp, d_other: int, side: int = 1) -> KrausOp:
    """Extend a local operation to the joint space by tensoring with identity."""
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

    The left factor is :func:`_on_side1`; the right one contracts the column
    index the same way, as ``X (K (x) I)^dag = ((K (x) I) X^dag)^dag``.
    """
    left = _on_side1(kraus, r)
    return _on_side1(kraus, left.conj().transpose(0, 2, 1)).conj().transpose(0, 2, 1)


def reduced_positivity_min_eigs(a, r, d1: int, d2: int) -> np.ndarray:
    """Smallest eigenvalue of Tr_1[(A_t (x) I) R_t] for every pair of a stack
    of PSD ``A`` ``(n, d1, d1)`` and a stack of PSD ``R`` ``(n, D, D)``.

    Each entry equals :func:`reduced_positivity_min_eig` of its pair alone:
    the stacked product, partial trace and eigensolve repeat that call's
    arithmetic matrix by matrix.
    """
    am = require_psd_stack(a, "local operator A must be PSD")
    rm = require_psd_stack(r, "joint operator R must be PSD")
    if am.shape[-1] != d1:
        raise ValueError(f"local operator A acts on dimension {am.shape[-1]}, expected d1={d1}")
    if len(am) != len(rm):
        raise ValueError(f"{len(am)} local operators for {len(rm)} joint operators")
    reduced = partial_trace(_on_side1(am, rm), d1, d2, side=1)
    return np.linalg.eigvalsh(require_hermitian_stack(reduced))[:, 0]


def reduced_positivity_min_eig(a, r, d1: int, d2: int) -> float:
    """Smallest eigenvalue of Tr_1[(A (x) I) R] for PSD A and R (must be >= 0).

    This is the kernel fact behind the trace-preservation equivalence: a
    positive local filter cannot push the remote reduction out of the
    positive cone.  One matrix each: :func:`reduced_positivity_min_eigs` of
    a stack of one.
    """
    pair = (as_matrix(a, square=True)[None], as_matrix(r, square=True)[None])
    return float(reduced_positivity_min_eigs(*pair, d1, d2)[0])


# Thresholds of the two quantum verifiers.  A trace defect <= TRACE_TOL counts
# as trace preserved, and the remote reduction may then move by at most
# REDUCED_TOL (trace norm); this is also the tolerance both verifiers report
# for that check.  The converse branch of the biconditional: a reduction moved
# by more than REDUCED_FAIL_TOL requires a trace drop above TRACE_FAIL_TOL.
TRACE_TOL = 1e-10
REDUCED_TOL = 1e-8
TRACE_FAIL_TOL = 1e-8
REDUCED_FAIL_TOL = 1e-6


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
    some outcome preserves the trace.
    """
    r = require_hermitian(rho)
    if r.shape[0] != d1 * d2:
        raise ValueError("joint state dimension does not match d1*d2")
    if inst.dim != d1:
        raise ValueError(f"instrument acts on dimension {inst.dim}, expected d1={d1}")
    before = partial_trace(r, d1, d2, side=1)
    total_weight = float(np.trace(r).real)
    # All Kraus operators in one stack.  reduceat sums the traces and remote
    # reductions of each outcome's run of it: on the D x D outputs it is slower.
    sizes = [len(op.kraus) for op in inst.outcomes]
    starts = np.cumsum([0, *sizes[:-1]])
    outs = side1_kraus_outputs(np.concatenate([op.kraus for op in inst.outcomes]), r)
    traces = np.add.reduceat(np.trace(outs, axis1=1, axis2=2).real, starts)
    per_kraus = np.einsum("nikil->nkl", outs.reshape(-1, d1, d2, d1, d2))
    reduced = np.add.reduceat(per_kraus, starts, axis=0)
    after = reduced.sum(axis=0)
    # Trace norms of every outcome's shift and of the average's, in one SVD call.
    shifts = np.concatenate([reduced, after[None]]) - before
    norms = np.linalg.svd(shifts, compute_uv=False).sum(axis=-1)
    outcome_defects = []
    preserved_defects = []
    for trace, reduced_defect in zip(traces, norms[:-1]):
        trace_defect = abs(float(trace) - total_weight)
        reduced_defect = float(reduced_defect)
        outcome_defects.append({"trace_defect": trace_defect, "reduced_defect": reduced_defect})
        if trace_defect <= tol:
            preserved_defects.append(reduced_defect)
    checks = [Check("no_signaling", float(norms[-1]), tol)]
    if preserved_defects:
        checks.append(
            Check("trace_preserving_outcomes", worst_defect(*preserved_defects), REDUCED_TOL)
        )
    return VerificationReport.from_checks(
        "quantum-no-signaling",
        seed,
        len(inst.outcomes),
        checks,
        tol,
        max_defect=checks[0].defect,
        details={
            "outcomes": outcome_defects,
            "trace_preserved_outcomes": len(preserved_defects),
        },
    )


def _biconditional_defect(trace_defect: float, reduced_defect: float) -> float:
    """The reduced defect of a pair that breaks the trace biconditional, else 0.

    Broken: the trace is preserved yet the reduction moved, or the reduction
    moved appreciably while the trace barely dropped.
    """
    if np.isnan(trace_defect) or np.isnan(reduced_defect):
        return np.nan  # counts as +inf: a NaN never passes
    broken = (trace_defect <= TRACE_TOL and reduced_defect > REDUCED_TOL) or (
        trace_defect <= TRACE_FAIL_TOL and reduced_defect > REDUCED_FAIL_TOL
    )
    return reduced_defect if broken else 0.0


def trace_biconditional_check(
    trials: int = 200,
    d1: int = 2,
    d2: int = 2,
    seed: int = 0,
) -> VerificationReport:
    """Randomized audit of the trace-preservation equivalence for local operations.

    For sampled pairs (R, M) with M acting on side 1 only: whenever the total
    trace is preserved the remote reduction must be unchanged, and whenever
    the remote reduction moved appreciably the trace must have dropped.  The
    sampler mixes generic selective operations, trace-preserving channels,
    and selective operations whose filter is aligned with the state support
    (so the trace-preserved branch is exercised nontrivially).
    """
    def draw(rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The joint operator R and the Kraus stack of M for trial ``k``."""
        kind = k % 3
        if kind == 0:
            r = ginibre_positive(rng, d1 * d2)
            r /= np.trace(r).real
            blocks = haar_isometry_blocks(rng, d1, 3)
            return r, np.array(blocks[: int(rng.integers(1, 3))])
        if kind == 1:
            return ginibre_state(rng, d1 * d2), np.array(haar_isometry_blocks(rng, d1, 2))
        rank = int(rng.integers(1, d1))
        basis = np.linalg.qr(complex_gaussian(rng, d1, d1))[0]
        p = basis[:, :rank] @ basis[:, :rank].conj().T
        r = side1_kraus_outputs(p[None], ginibre_positive(rng, d1 * d2))[0]
        r /= np.trace(r).real
        return r, p[None]

    def sample(r: np.ndarray, kraus: np.ndarray) -> dict[str, float]:
        joint = side1_kraus_outputs(kraus, r).sum(axis=0)
        trace_defect = abs(float(np.trace(joint).real) - float(np.trace(r).real))
        reduced_defect = trace_norm(
            partial_trace(joint, d1, d2, side=1) - partial_trace(r, d1, d2, side=1)
        )
        return {"trace_defect": trace_defect, "reduced_defect": reduced_defect}

    evaluate = per_trial(sample)
    samples = list(trial_outcomes(seed, range(trials), draw, evaluate))
    (violation,) = fold_checks(
        ((k, {"biconditional": _biconditional_defect(**s)}) for k, s in samples),
        {"biconditional": REDUCED_TOL},
    )
    worst = violation.worst_trial
    witness = None
    if violation.defect > 0.0:
        (replayed,) = evaluate([draw(trial_rng(seed, worst), worst)])
        witness = {"trial": worst, **replayed}
    preserved_cases = sum(s["trace_defect"] <= TRACE_TOL for _, s in samples)
    checks = [violation]
    # The trace-preserved branch must be exercised, or the audit is vacuous.
    # Trial 1 draws the first channel (kind 1), so one trial cannot exercise it.
    if trials > 1:
        checks.append(Check("no_trace_preserved_case", float(preserved_cases == 0), 0.0))
    return VerificationReport.from_checks(
        "trace-biconditional",
        seed,
        trials,
        checks,
        REDUCED_TOL,
        max_defect=violation.defect,
        witness=witness,
        details={"trace_preserved_cases": preserved_cases},
    )


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
    joint = side1_kraus_outputs(m.kraus, r).sum(axis=0)
    weight = float(np.trace(joint).real)
    total = float(np.trace(r).real)
    if weight >= total - tol:
        raise NotSelective(
            f"outcome preserves the trace on this state ({weight:.6f} of {total:.6f})"
        )
    unconditional = partial_trace(r, d1, d2, side=1) / total
    conditional = partial_trace(joint, d1, d2, side=1) / weight
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
    def state(self, matrix, normalize: bool = False) -> State:
        m = require_psd(matrix, "density operator must be PSD")
        if m.shape[0] != self.d:
            raise ValueError(f"state must be {self.d}x{self.d}")
        tr = float(np.trace(m).real)
        if normalize:
            m = m / tr
        elif abs(tr - 1.0) > TOL_EFFECT:
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
    def identity(self) -> Transformation:
        return Transformation(self, KrausOp._trusted([np.eye(self.d)]), "identity")

    def unit_effect(self) -> Effect:
        return Effect(self, np.eye(self.d))

    def effect_of(self, t: Transformation) -> Effect:
        return Effect(self, t.payload.trace_operator())

    def apply(self, t: Transformation, s: State) -> State:
        return State(self, apply_quantum_op(t.payload, s.payload))

    def evaluate(self, e: Effect, s: State) -> float:
        return float(np.trace(e.payload @ s.payload).real)

    def compose(self, first: Transformation, then: Transformation) -> Transformation:
        return Transformation(self, compose_kraus(first.payload, then.payload), "")

    def add_transformations(self, t1: Transformation, t2: Transformation) -> Transformation:
        return Transformation(self, coarse_grain_kraus(t1.payload, t2.payload), "")

    def scale_transformation(self, lam: float, t: Transformation) -> Transformation:
        return Transformation(self, scale_kraus(lam, t.payload), "")

    def complement(self, t: Transformation) -> Transformation:
        return Transformation(self, complement_kraus(t.payload), f"~{t.label}")

    def effect_leq_unit(self, e: Effect) -> bool:
        eigs = eigvals_herm(e.payload)
        return bool(eigs[0] >= -TOL_EFFECT and eigs[-1] <= 1.0 + TOL_EFFECT)

    def effect_coords(self, e: Effect) -> np.ndarray:
        return hermitian_coords(e.payload)

    def effect_rows(self, payloads) -> np.ndarray:
        return hermitian_coords(payloads)

    def state_coords(self, s: State) -> np.ndarray:
        return hermitian_coords(s.payload)

    def state_distance(self, s1: State, s2: State) -> float:
        return trace_norm(s1.payload - s2.payload)

    def transformation_distance(self, t1: Transformation, t2: Transformation) -> float:
        """Largest entry of the Choi-matrix difference (:func:`choi_distance`),
        equal by realignment to the max-abs superoperator distance."""
        return choi_distance(t1.payload, t2.payload)

    def random_state(self, rng: np.random.Generator) -> State:
        return State(self, ginibre_state(rng, self.d))

    def random_transformation(self, rng: np.random.Generator) -> Transformation:
        return Transformation(self, random_kraus(rng, self.d, 0.3), "random")

    def random_instrument(self, rng: np.random.Generator, outcomes: int) -> Instrument:
        return Instrument(haar_outcomes(rng, self.d, outcomes))

    def random_action(self, rng: np.random.Generator, outcomes: int) -> Action:
        return self.outcome_action(haar_outcomes(rng, self.d, outcomes))

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


@lru_cache(maxsize=8)
def minimal_ic_povm(d: int) -> tuple[np.ndarray, ...]:
    """d^2 linearly independent effects summing to I, validated by rank.

    d=2 uses the tetrahedral construction (I + s_i . sigma)/4; d=3 the
    fiducial orbit of (0, 1, -1)/sqrt(2) under the discrete displacement
    group; other dimensions use a deterministic whitened random POVM.
    Construction is always certified: rank must equal d^2.
    """
    if d == 2:
        s = 1.0 / np.sqrt(3)
        dirs = [(s, s, s), (s, -s, -s), (-s, s, -s), (-s, -s, s)]
        effects = [
            (np.eye(2) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z) / 4 for x, y, z in dirs
        ]
    elif d == 3:
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
    else:
        rng = trial_rng(0xD1CE, d)
        raw = [ginibre_positive(rng, d) for _ in range(d * d)]
        total = sum(raw)
        w, v = np.linalg.eigh(total)
        whiten = (v / np.sqrt(w)) @ v.conj().T
        effects = [whiten @ r @ whiten for r in raw]
    total = sum(effects)
    if np.abs(total - np.eye(d)).max() > 1e-9:
        raise RuntimeError(f"IC POVM construction failed completeness at d={d}")
    if span_rank(effects) != d * d:
        raise RuntimeError(f"IC POVM construction is rank-deficient at d={d}")
    out = tuple(e.copy() for e in effects)
    for e in out:
        e.flags.writeable = False
    return out
