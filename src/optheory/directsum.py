"""Direct-sum composition of two quantum systems.

States are block pairs (rho_plus, rho_minus) with total trace one, and a
local operation on system 1 acts as "block map on its own sector, scalar
p on the other": (rho_plus, rho_minus) -> (A(rho_plus), p * rho_minus).
Local operations on the two sides commute exactly, so the composite is
dynamically independent and no-signaling, yet the joint effects reachable
by local operations are all block-diagonal.  Their span has dimension
d1^2 + d2^2, strictly below the (d1+d2)^2 of the ambient composite, which
is why this composition rule fails local tomography.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .framework import (
    Action,
    BipartiteModel,
    Effect,
    IncompleteAction,
    ModelMismatch,
    State,
    TheoryModel,
    TOL_EFFECT,
    Transformation,
)
from .linalg import (
    PSD_SLACK,
    direct_sum,
    hermitian_coords,
    matrix_from_json,
    matrix_to_json,
    max_eig_herm,
    min_eig_herm,
    psd_sqrt,
    require_hermitian,
    span_rank,
    trace_norm,
)
from .quantum import KrausOp, QuantumModel, apply_quantum_op, choi_distance, compose_kraus
from .report import VerificationReport, worst_defect
from .sampling import ginibre_state, haar_isometry_blocks, trial_rng


@dataclass(frozen=True, eq=False)
class DSumState:
    """Block state rho_plus (+) rho_minus with Tr[rho_plus] + Tr[rho_minus] = 1."""

    rho_plus: np.ndarray
    rho_minus: np.ndarray

    def __init__(self, rho_plus, rho_minus, check: bool = True):
        rp = require_hermitian(rho_plus)
        rm = require_hermitian(rho_minus)
        if check:
            for name, block in (("rho_plus", rp), ("rho_minus", rm)):
                if min_eig_herm(block) < -PSD_SLACK * max(1.0, trace_norm(block)):
                    raise ValueError(f"{name} must be PSD")
            total = float(np.trace(rp).real + np.trace(rm).real)
            if abs(total - 1.0) > TOL_EFFECT:
                raise ValueError(f"block traces sum to {total}, expected 1")
        object.__setattr__(self, "rho_plus", rp)
        object.__setattr__(self, "rho_minus", rm)

    @property
    def dims(self) -> tuple[int, int]:
        return self.rho_plus.shape[0], self.rho_minus.shape[0]

    @property
    def weight(self) -> float:
        return float(np.trace(self.rho_plus).real + np.trace(self.rho_minus).real)

    def to_json(self) -> dict:
        return {
            "rho_plus": matrix_to_json(self.rho_plus),
            "rho_minus": matrix_to_json(self.rho_minus),
        }

    @staticmethod
    def from_json(obj: dict) -> "DSumState":
        return DSumState(
            matrix_from_json(obj["rho_plus"]), matrix_from_json(obj["rho_minus"])
        )


@dataclass(frozen=True, eq=False)
class DSumLocalOp:
    """A local transformation: a block operation on the op's own sector plus an
    occurrence probability p on the opposite sector."""

    side: int
    op_block: KrausOp
    p: float
    label: str = ""

    def __post_init__(self):
        if self.side not in (1, 2):
            raise ValueError(f"side must be 1 or 2, got {self.side!r}")
        if not 0.0 <= self.p <= 1.0 + TOL_EFFECT:
            raise ValueError(f"sector probability must lie in [0, 1], got {self.p}")


def ds_identity(side: int, d: int) -> DSumLocalOp:
    return DSumLocalOp(side, KrausOp([np.eye(d)], check=False), 1.0, "identity")


def _blocks_of(op: DSumLocalOp, d_other: int) -> tuple[KrausOp, KrausOp]:
    """Joint block maps (plus, minus) of a local operation."""
    passive = KrausOp([np.sqrt(op.p) * np.eye(d_other)], check=False)
    if op.side == 1:
        return op.op_block, passive
    return passive, op.op_block


def ds_local_prob(omega: DSumState, a: DSumLocalOp) -> float:
    """Probability of a single local operation, the other side untouched."""
    d1, d2 = omega.dims
    if a.side == 1:
        if a.op_block.dim_in != d1:
            raise ValueError("side-1 block dimension does not match the state")
        moved = apply_quantum_op(a.op_block, omega.rho_plus)
        return float(np.trace(moved).real + a.p * np.trace(omega.rho_minus).real)
    if a.op_block.dim_in != d2:
        raise ValueError("side-2 block dimension does not match the state")
    moved = apply_quantum_op(a.op_block, omega.rho_minus)
    return float(a.p * np.trace(omega.rho_plus).real + np.trace(moved).real)


def ds_joint_prob(omega: DSumState, a: DSumLocalOp, b: DSumLocalOp) -> float:
    """Probability of jointly performing local operations on both sides."""
    if a.side == b.side:
        raise ValueError("joint probability needs one operation per side")
    if a.side == 2:
        a, b = b, a
    d1, d2 = omega.dims
    moved_plus = apply_quantum_op(a.op_block, omega.rho_plus)
    moved_minus = apply_quantum_op(b.op_block, omega.rho_minus)
    return float(b.p * np.trace(moved_plus).real + a.p * np.trace(moved_minus).real)


def ds_condition(omega: DSumState, a: DSumLocalOp, eps: float = 1e-12) -> DSumState:
    """Bayes update of a block state on the occurrence of a local operation."""
    norm = ds_local_prob(omega, a)
    if norm <= eps:
        raise ValueError(f"cannot condition on probability {norm:.3e}")
    if a.side == 1:
        plus = apply_quantum_op(a.op_block, omega.rho_plus) / norm
        minus = a.p * omega.rho_minus / norm
    else:
        plus = a.p * omega.rho_plus / norm
        minus = apply_quantum_op(a.op_block, omega.rho_minus) / norm
    return DSumState(plus, minus, check=False)


def ds_compose_joint(a: DSumLocalOp, b: DSumLocalOp, d1: int, d2: int) -> tuple[KrausOp, KrausOp]:
    """Blockwise composition of two local operations (a first, then b)."""
    a_plus, a_minus = _blocks_of(a, d2 if a.side == 1 else d1)
    b_plus, b_minus = _blocks_of(b, d2 if b.side == 1 else d1)
    return compose_kraus(a_plus, b_plus), compose_kraus(a_minus, b_minus)


def ds_commutation_defect(a: DSumLocalOp, b: DSumLocalOp, d1: int, d2: int) -> float:
    """Distance between the two orders of composing opposite-side local ops."""
    ab = ds_compose_joint(a, b, d1, d2)
    ba = ds_compose_joint(b, a, d1, d2)
    return worst_defect(choi_distance(ab[0], ba[0]), choi_distance(ab[1], ba[1]))


def ds_completeness_defect(action: list[DSumLocalOp], d: int) -> float:
    """Deviation of a same-side action from completeness (sum K = I, sum p = 1)."""
    if not action:
        raise ValueError("empty action")
    sides = {op.side for op in action}
    if len(sides) != 1:
        raise ValueError("an action must act on a single side")
    k_total = sum(op.op_block.trace_operator() for op in action)
    p_total = sum(op.p for op in action)
    return max(float(np.abs(k_total - np.eye(d)).max()), abs(p_total - 1.0))


def ds_nosig_check(
    omega: DSumState,
    action: list[DSumLocalOp],
    probe: list[DSumLocalOp],
    tol: float = 1e-10,
    seed: int = 0,
) -> VerificationReport:
    """No-signaling in the block model: a complete side-1 action is invisible
    to every side-2 probe."""
    d1, d2 = omega.dims
    defect = ds_completeness_defect(action, d1)
    if defect > TOL_EFFECT:
        raise IncompleteAction(f"direct-sum action incomplete: defect {defect:.3e}")
    ident = ds_identity(1, d1)
    worst = 0.0
    for b in probe:
        if b.side != 2:
            raise ValueError("probes must act on side 2")
        with_action = sum(ds_joint_prob(omega, a, b) for a in action)
        untouched = ds_joint_prob(omega, ident, b)
        worst = worst_defect(worst, abs(with_action - untouched))
    return VerificationReport(
        suite="dsum-no-signaling",
        seed=seed,
        trials=len(probe),
        max_defect=worst,
        tol=tol,
        passed=worst <= tol,
    )


def ds_random_local_op(rng: np.random.Generator, side: int, d: int) -> DSumLocalOp:
    blocks = haar_isometry_blocks(rng, d, 3)
    keep = int(rng.integers(1, 3))
    lam = rng.uniform(0.2, 1.0)
    op = KrausOp([np.sqrt(lam) * b for b in blocks[:keep]], check=False)
    return DSumLocalOp(side, op, float(rng.uniform()), "random")


def ds_random_action(rng: np.random.Generator, side: int, d: int, outcomes: int) -> list[DSumLocalOp]:
    """A complete local action: Haar instrument blocks paired with a random
    probability vector summing to one."""
    blocks = haar_isometry_blocks(rng, d, outcomes)
    probs = rng.exponential(size=outcomes)
    probs = probs / probs.sum()
    return [
        DSumLocalOp(side, KrausOp([b], check=False), float(p), f"outcome{j}")
        for j, (b, p) in enumerate(zip(blocks, probs))
    ]


def ds_product_effect_matrix(a: DSumLocalOp, b: DSumLocalOp) -> np.ndarray:
    """Joint effect of a side-1/side-2 pair as a block-diagonal Hermitian."""
    if a.side == b.side:
        raise ValueError("product effect needs one operation per side")
    if a.side == 2:
        a, b = b, a
    return direct_sum(b.p * a.op_block.trace_operator(), a.p * b.op_block.trace_operator())


def ds_local_effect_span(d1: int, d2: int, samples: int, seed: int = 0) -> int:
    """Rank of the joint effects generated by local operation pairs.

    The effects are block-diagonal Hermitians on the (d1+d2)-dimensional
    composite space; their span always comes out d1^2 + d2^2, strictly less
    than the ambient (d1+d2)^2.
    """
    if samples < (d1 + d2) ** 2:
        raise ValueError(f"need at least {(d1 + d2) ** 2} samples for a decisive rank")
    effects = []
    for k in range(samples):
        rng = trial_rng(seed, k)
        a = ds_random_local_op(rng, 1, d1)
        b = ds_random_local_op(rng, 2, d2)
        effects.append(ds_product_effect_matrix(a, b))
    return span_rank(effects)


# ---------------------------------------------------------------------------
# TheoryModel adapter: the composite as a single system of block pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=True)
class DSumModel(TheoryModel):
    """The direct-sum composite as a standalone theory of block pairs.

    State payloads are :class:`DSumState`; transformation payloads are
    (plus, minus) pairs of :class:`KrausOp` acting sector-wise; effect
    payloads are (K_plus, K_minus) Hermitian pairs.
    """

    d1: int
    d2: int
    name: str = field(default="dsum", compare=False)

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError("sector dimensions must be positive")
        object.__setattr__(self, "name", f"dsum({self.d1}+{self.d2})")

    @property
    def state_dim(self) -> int:
        return self.d1 ** 2 + self.d2 ** 2 - 1

    @property
    def effect_dim(self) -> int:
        return self.d1 ** 2 + self.d2 ** 2

    # -- factories ----------------------------------------------------------
    def state(self, block_state: DSumState) -> State:
        if block_state.dims != (self.d1, self.d2):
            raise ValueError("block dimensions do not match the model")
        return State(self, block_state)

    def transformation(self, plus: KrausOp, minus: KrausOp, label: str = "") -> Transformation:
        if plus.dim_in != self.d1 or minus.dim_in != self.d2:
            raise ValueError("block operation dimensions do not match the model")
        return Transformation(self, (plus, minus), label)

    def from_local(self, op: DSumLocalOp) -> Transformation:
        d_other = self.d2 if op.side == 1 else self.d1
        plus, minus = _blocks_of(op, d_other)
        return Transformation(self, (plus, minus), op.label)

    # -- interface ----------------------------------------------------------
    def identity(self) -> Transformation:
        return self.transformation(
            KrausOp([np.eye(self.d1)], check=False),
            KrausOp([np.eye(self.d2)], check=False),
            "identity",
        )

    def unit_effect(self) -> Effect:
        return Effect(self, (np.eye(self.d1), np.eye(self.d2)))

    def effect_of(self, t: Transformation) -> Effect:
        plus, minus = t.payload
        return Effect(self, (plus.trace_operator(), minus.trace_operator()))

    def apply(self, t: Transformation, s: State) -> State:
        plus, minus = t.payload
        block = s.payload
        return State(
            self,
            DSumState(
                apply_quantum_op(plus, block.rho_plus),
                apply_quantum_op(minus, block.rho_minus),
                check=False,
            ),
        )

    def evaluate(self, e: Effect, s: State) -> float:
        kp, km = e.payload
        block = s.payload
        return float(
            np.trace(kp @ block.rho_plus).real + np.trace(km @ block.rho_minus).real
        )

    def compose(self, first: Transformation, then: Transformation) -> Transformation:
        fp, fm = first.payload
        tp, tm = then.payload
        return Transformation(self, (compose_kraus(fp, tp), compose_kraus(fm, tm)), "")

    def add_transformations(self, t1: Transformation, t2: Transformation) -> Transformation:
        plus, minus = (
            KrausOp(np.concatenate([a.kraus, b.kraus]), check=False)
            for a, b in zip(t1.payload, t2.payload)
        )
        return Transformation(self, (plus, minus), "")

    def scale_transformation(self, lam: float, t: Transformation) -> Transformation:
        root = np.sqrt(lam)
        plus, minus = (KrausOp(root * op.kraus, check=False) for op in t.payload)
        return Transformation(self, (plus, minus), "")

    def complement(self, t: Transformation) -> Transformation:
        kp, km = self.effect_of(t).payload
        return Transformation(
            self,
            (
                KrausOp([psd_sqrt(np.eye(self.d1) - kp)], check=False),
                KrausOp([psd_sqrt(np.eye(self.d2) - km)], check=False),
            ),
            f"~{t.label}",
        )

    def add_effects(self, e1: Effect, e2: Effect) -> Effect:
        return Effect(self, (e1.payload[0] + e2.payload[0], e1.payload[1] + e2.payload[1]))

    def effect_leq_unit(self, e: Effect, tol: float = TOL_EFFECT) -> bool:
        for k in e.payload:
            km = require_hermitian(k)
            if min_eig_herm(km) < -tol or max_eig_herm(km) > 1.0 + tol:
                return False
        return True

    def effect_coords(self, e: Effect) -> np.ndarray:
        return np.concatenate([hermitian_coords(e.payload[0]), hermitian_coords(e.payload[1])])

    def state_coords(self, s: State) -> np.ndarray:
        block = s.payload
        return np.concatenate(
            [hermitian_coords(block.rho_plus), hermitian_coords(block.rho_minus)]
        )

    def scale_state_payload(self, payload: DSumState, factor: float) -> DSumState:
        return DSumState(factor * payload.rho_plus, factor * payload.rho_minus, check=False)

    def mix_states(self, s1: State, s2: State, w1: float, w2: float) -> State:
        b1, b2 = s1.payload, s2.payload
        return State(
            self,
            DSumState(
                w1 * b1.rho_plus + w2 * b2.rho_plus,
                w1 * b1.rho_minus + w2 * b2.rho_minus,
                check=False,
            ),
        )

    def state_distance(self, s1: State, s2: State) -> float:
        b1, b2 = s1.payload, s2.payload
        return trace_norm(b1.rho_plus - b2.rho_plus) + trace_norm(b1.rho_minus - b2.rho_minus)

    def transformation_distance(self, t1: Transformation, t2: Transformation) -> float:
        """Worst sector of :func:`~optheory.quantum.choi_distance`: the largest
        entry of either block's Choi-matrix difference, equal by realignment
        to the max-abs superoperator distance."""
        return worst_defect(
            choi_distance(t1.payload[0], t2.payload[0]),
            choi_distance(t1.payload[1], t2.payload[1]),
        )

    def random_state(self, rng: np.random.Generator) -> State:
        w = rng.uniform(0.1, 0.9)
        return State(
            self,
            DSumState(
                w * ginibre_state(rng, self.d1),
                (1.0 - w) * ginibre_state(rng, self.d2),
                check=False,
            ),
        )

    def random_transformation(self, rng: np.random.Generator) -> Transformation:
        qp = QuantumModel(self.d1).random_transformation(rng)
        qm = QuantumModel(self.d2).random_transformation(rng)
        return Transformation(self, (qp.payload, qm.payload), "random")

    def random_action(self, rng: np.random.Generator, outcomes: int) -> Action:
        plus_blocks = haar_isometry_blocks(rng, self.d1, outcomes)
        minus_blocks = haar_isometry_blocks(rng, self.d2, outcomes)
        return Action(
            [
                Transformation(
                    self,
                    (KrausOp([p], check=False), KrausOp([m], check=False)),
                    f"outcome{j}",
                )
                for j, (p, m) in enumerate(zip(plus_blocks, minus_blocks))
            ]
        )

    def minimal_ic_effects(self) -> list[Effect]:
        from .quantum import minimal_ic_povm

        zero_plus = np.zeros((self.d1, self.d1))
        zero_minus = np.zeros((self.d2, self.d2))
        effects = [Effect(self, (k, zero_minus)) for k in minimal_ic_povm(self.d1)]
        effects += [Effect(self, (zero_plus, k)) for k in minimal_ic_povm(self.d2)]
        return effects


@dataclass(frozen=True, eq=True)
class DSumBipartite(BipartiteModel):
    """Bipartite structure of the direct-sum composite.

    Embedding a component operation needs an occurrence probability for the
    opposite sector; the canonical choice p = Tr[K]/d maps complete local
    actions to complete joint actions and the identity to the identity.
    """

    d1: int
    d2: int

    def __post_init__(self):
        object.__setattr__(self, "left", QuantumModel(self.d1))
        object.__setattr__(self, "right", QuantumModel(self.d2))
        object.__setattr__(self, "joint", DSumModel(self.d1, self.d2))

    def _local(self, t: Transformation, side: int) -> DSumLocalOp:
        op: KrausOp = t.payload
        d = self.d1 if side == 1 else self.d2
        p = float(np.trace(op.trace_operator()).real) / d
        return DSumLocalOp(side, op, min(p, 1.0), t.label)

    def embed_left(self, t: Transformation) -> Transformation:
        if t.model != self.left:
            raise ModelMismatch("transformation is not bound to the left component")
        return self.joint.from_local(self._local(t, 1))

    def embed_right(self, t: Transformation) -> Transformation:
        if t.model != self.right:
            raise ModelMismatch("transformation is not bound to the right component")
        return self.joint.from_local(self._local(t, 2))

    def product_effect(self, e_left: Effect, e_right: Effect) -> Effect:
        kl = require_hermitian(e_left.payload)
        kr = require_hermitian(e_right.payload)
        p = float(np.trace(kl).real) / self.d1
        q = float(np.trace(kr).real) / self.d2
        return Effect(self.joint, (q * kl, p * kr))

    @property
    def ambient_effect_dim(self) -> int:
        return (self.d1 + self.d2) ** 2

    def ambient_effect_coords(self, e: Effect) -> np.ndarray:
        return hermitian_coords(direct_sum(e.payload[0], e.payload[1]))

    def random_product_effect(self, rng: np.random.Generator) -> Effect:
        a = ds_random_local_op(rng, 1, self.d1)
        b = ds_random_local_op(rng, 2, self.d2)
        return Effect(
            self.joint,
            (b.p * a.op_block.trace_operator(), a.p * b.op_block.trace_operator()),
        )
