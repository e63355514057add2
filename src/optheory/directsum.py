"""Direct-sum composition of two quantum systems.

States are block pairs (rho_plus, rho_minus) with total trace one, and a
local operation on system 1 acts as "block map on its own sector, scalar
p on the other": (rho_plus, rho_minus) -> (A(rho_plus), p * rho_minus).
Local operations on the two sides commute exactly, so the composite is
dynamically independent and no-signaling, yet the joint effects reachable
by local operations are all block-diagonal.  Their span has dimension
d1^2 + d2^2, strictly below the (d1+d2)^2 of the ambient composite, which
is why this composition rule fails local tomography.

:class:`DSumModel` is the one implementation of the composite: local
operations enter it through :meth:`DSumModel.from_local`, and the ``ds_*``
helpers are thin wrappers over its methods and the framework verifiers.
``DSumState(..., check=False)`` stores model-computed blocks as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .framework import (
    Action,
    BipartiteModel,
    Effect,
    ModelMismatch,
    State,
    TheoryModel,
    TOL_EFFECT,
    Transformation,
    condition,
    effect_of,
    probe_shifts,
    total_of_action,
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
    rank_of_rows,
    require_hermitian,
    trace_norm,
)
from .quantum import KrausOp, QuantumModel, apply_quantum_op, choi_distance, compose_kraus
from .report import VerificationReport, worst_defect
from .sampling import ginibre_state, haar_isometry_blocks, trial_rng


@dataclass(frozen=True, eq=False)
class DSumState:
    """Block state rho_plus (+) rho_minus with Tr[rho_plus] + Tr[rho_minus] = 1,
    validated only with ``check``."""

    rho_plus: np.ndarray
    rho_minus: np.ndarray

    def __init__(self, rho_plus, rho_minus, check: bool = True):
        if check:
            rho_plus = require_hermitian(rho_plus)
            rho_minus = require_hermitian(rho_minus)
            for name, block in (("rho_plus", rho_plus), ("rho_minus", rho_minus)):
                if min_eig_herm(block) < -PSD_SLACK * max(1.0, trace_norm(block)):
                    raise ValueError(f"{name} must be PSD")
            total = float(np.trace(rho_plus).real + np.trace(rho_minus).real)
            if abs(total - 1.0) > TOL_EFFECT:
                raise ValueError(f"block traces sum to {total}, expected 1")
        object.__setattr__(self, "rho_plus", rho_plus)
        object.__setattr__(self, "rho_minus", rho_minus)

    @property
    def dims(self) -> tuple[int, int]:
        return self.rho_plus.shape[0], self.rho_minus.shape[0]

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


def _bind(omega: DSumState) -> tuple["DSumModel", State]:
    model = DSumModel(*omega.dims)
    return model, State(model, omega)


def ds_local_prob(omega: DSumState, a: DSumLocalOp) -> float:
    """Probability of a single local operation, the other side untouched."""
    model, state = _bind(omega)
    return model.evaluate(model.effect_of(model.from_local(a)), state)


def ds_joint_prob(omega: DSumState, a: DSumLocalOp, b: DSumLocalOp) -> float:
    """Probability of jointly performing local operations on both sides."""
    if a.side == b.side:
        raise ValueError("joint probability needs one operation per side")
    model, state = _bind(omega)
    both = model.compose(model.from_local(a), model.from_local(b))
    return model.evaluate(model.effect_of(both), state)


def ds_condition(omega: DSumState, a: DSumLocalOp) -> DSumState:
    """Bayes update of a block state on the occurrence of a local operation."""
    model, state = _bind(omega)
    return condition(state, model.from_local(a)).payload


def ds_commutation_defect(a: DSumLocalOp, b: DSumLocalOp, d1: int, d2: int) -> float:
    """Distance between the two orders of composing two local operations."""
    model = DSumModel(d1, d2)
    ta, tb = model.from_local(a), model.from_local(b)
    return model.transformation_distance(model.compose(ta, tb), model.compose(tb, ta))


def ds_nosig_check(
    omega: DSumState,
    action: list[DSumLocalOp],
    probe: list[DSumLocalOp],
    tol: float = 1e-10,
    seed: int = 0,
) -> VerificationReport:
    """No-signaling in the block model: a complete side-1 action is invisible
    to every side-2 probe (:func:`~optheory.framework.probe_shifts`)."""
    if any(a.side != 1 for a in action) or any(b.side != 2 for b in probe):
        raise ValueError("the action must act on side 1 and the probes on side 2")
    model, state = _bind(omega)
    total = total_of_action(Action([model.from_local(a) for a in action], check=False))
    worst = worst_defect(*probe_shifts(state, total, [model.from_local(b) for b in probe]))
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


def ds_local_effect_span(d1: int, d2: int, samples: int, seed: int = 0) -> int:
    """Rank of the joint effects generated by local operation pairs.

    The effects are block-diagonal Hermitians on the (d1+d2)-dimensional
    composite space; their span always comes out d1^2 + d2^2, strictly less
    than the ambient (d1+d2)^2.
    """
    if samples < (d1 + d2) ** 2:
        raise ValueError(f"need at least {(d1 + d2) ** 2} samples for a decisive rank")
    bip = DSumBipartite(d1, d2)
    effects = (bip.random_product_effect(trial_rng(seed, k)) for k in range(samples))
    return rank_of_rows([bip.ambient_effect_coords(e) for e in effects])


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
        """A local operation: its block map on its own sector, sqrt(p) I on the other."""
        d_other = self.d2 if op.side == 1 else self.d1
        passive = KrausOp(np.sqrt(op.p) * np.eye(d_other)[None], check=False)
        if op.side == 1:
            return self.transformation(op.op_block, passive, op.label)
        return self.transformation(passive, op.op_block, op.label)

    # -- interface ----------------------------------------------------------
    def identity(self) -> Transformation:
        return self.from_local(ds_identity(1, self.d1))

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
        """Tr[K_plus rho_plus] + Tr[K_minus rho_minus]; for Hermitian blocks the
        real part of each trace is the Hilbert-Schmidt product ``vdot(K, rho)``."""
        kp, km = e.payload
        block = s.payload
        return float(np.vdot(kp, block.rho_plus).real + np.vdot(km, block.rho_minus).real)

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
    opposite sector; the canonical choice p = Tr[K]/d, the operation's
    probability on the maximally mixed state, maps complete local actions to
    complete joint actions and the identity to the identity.
    """

    d1: int
    d2: int

    def __post_init__(self):
        object.__setattr__(self, "left", QuantumModel(self.d1))
        object.__setattr__(self, "right", QuantumModel(self.d2))
        object.__setattr__(self, "joint", DSumModel(self.d1, self.d2))

    def _local(self, t: Transformation, side: int) -> DSumLocalOp:
        p = _mixed_state_prob(effect_of(t))
        return DSumLocalOp(side, t.payload, min(p, 1.0), t.label)

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
        p = _mixed_state_prob(e_left)
        q = _mixed_state_prob(e_right)
        return Effect(self.joint, (q * kl, p * kr))

    @property
    def ambient_effect_dim(self) -> int:
        return (self.d1 + self.d2) ** 2

    def ambient_effect_coords(self, e: Effect) -> np.ndarray:
        return hermitian_coords(direct_sum(e.payload[0], e.payload[1]))

    def random_product_effect(self, rng: np.random.Generator) -> Effect:
        a = self.joint.from_local(ds_random_local_op(rng, 1, self.d1))
        b = self.joint.from_local(ds_random_local_op(rng, 2, self.d2))
        return self.joint.effect_of(self.joint.compose(a, b))


def _mixed_state_prob(e: Effect) -> float:
    """Value Tr[K]/d of a component effect on the maximally mixed state."""
    model = e.model
    return model.evaluate(e, State(model, np.eye(model.d) / model.d))
