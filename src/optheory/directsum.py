"""Direct-sum composition of two quantum systems.

States are block pairs (rho_plus, rho_minus) with total trace one, and a
local operation on system 1 acts as "block map on its own sector, scalar
p on the other": (rho_plus, rho_minus) -> (A(rho_plus), p * rho_minus).
Local operations on the two sides commute exactly, so the composite is
dynamically independent and no-signaling, yet the joint effects reachable
by local operations are all block-diagonal.  Their span has dimension
d1^2 + d2^2, strictly below the (d1+d2)^2 of the ambient composite, which
is why this composition rule fails local tomography.

:class:`DSumModel` is the one implementation of the composite: two quantum
sectors, each method mapping a kernel of :mod:`optheory.quantum` (or a
``QuantumModel`` sector) over the (plus, minus) pair.  Local operations
enter it through :meth:`DSumModel.from_local`; the ``ds_*`` helpers are
thin wrappers over its methods and the framework verifiers.
A :class:`DSumState` is validated where it is built; the model stores the
blocks it computes from validated states with ``DSumState._trusted``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .framework import (
    Action,
    BipartiteModel,
    Effect,
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
    direct_sum,
    hermitian_coords,
    matrix_from_json,
    matrix_to_json,
    rank_of_rows,
    require_hermitian,
    require_psd,
    trace_norm,
)
from .quantum import (
    KrausOp,
    QuantumModel,
    apply_quantum_op,
    choi_distance,
    coarse_grain_kraus,
    complement_kraus,
    compose_kraus,
    haar_outcomes,
    random_kraus,
    scale_kraus,
)
from .report import Check, VerificationReport, worst_defect
from .sampling import random_simplex_point, trial_rng


def _each(f, *pairs) -> tuple:
    """``f`` applied sector by sector: (f(plus...), f(minus...))."""
    return tuple(map(f, *pairs))


@dataclass(frozen=True, eq=False)
class DSumState:
    """Block state rho_plus (+) rho_minus with PSD blocks and
    Tr[rho_plus] + Tr[rho_minus] = 1, checked by the constructor."""

    rho_plus: np.ndarray
    rho_minus: np.ndarray

    def __init__(self, rho_plus, rho_minus):
        rho_plus = require_psd(rho_plus, "rho_plus must be PSD")
        rho_minus = require_psd(rho_minus, "rho_minus must be PSD")
        total = float(np.trace(rho_plus).real + np.trace(rho_minus).real)
        if abs(total - 1.0) > TOL_EFFECT:
            raise ValueError(f"block traces sum to {total}, expected 1")
        object.__setattr__(self, "rho_plus", rho_plus)
        object.__setattr__(self, "rho_minus", rho_minus)

    @classmethod
    def _trusted(cls, rho_plus, rho_minus) -> "DSumState":
        """Store model-computed, possibly subnormalized blocks unchecked."""
        state = object.__new__(cls)
        object.__setattr__(state, "rho_plus", rho_plus)
        object.__setattr__(state, "rho_minus", rho_minus)
        return state

    @property
    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        return self.rho_plus, self.rho_minus

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
    total = total_of_action(Action([model.from_local(a) for a in action]))
    worst = worst_defect(*probe_shifts(state, total, [model.from_local(b) for b in probe]))
    checks = [Check("no_signaling", worst, tol)]
    return VerificationReport.from_checks("dsum-no-signaling", seed, len(probe), checks, tol)


def ds_random_local_op(rng: np.random.Generator, side: int, d: int) -> DSumLocalOp:
    return DSumLocalOp(side, random_kraus(rng, d, 0.2), float(rng.uniform()), "random")


def ds_random_action(
    rng: np.random.Generator, side: int, d: int, outcomes: int
) -> list[DSumLocalOp]:
    """A complete local action: Haar instrument blocks paired with a random
    probability vector summing to one."""
    blocks = haar_outcomes(rng, d, outcomes)
    probs = random_simplex_point(rng, outcomes)
    return [
        DSumLocalOp(side, op, float(p), f"outcome{j}")
        for j, (op, p) in enumerate(zip(blocks, probs))
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
    payloads are (K_plus, K_minus) Hermitian pairs.  ``sectors`` holds the
    two :class:`~optheory.quantum.QuantumModel` sectors.
    """

    d1: int
    d2: int
    sectors: tuple[QuantumModel, QuantumModel] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError("sector dimensions must be positive")
        object.__setattr__(self, "sectors", (QuantumModel(self.d1), QuantumModel(self.d2)))

    @property
    def name(self) -> str:
        return f"dsum({self.d1}+{self.d2})"

    @property
    def effect_dim(self) -> int:
        return self.d1 ** 2 + self.d2 ** 2

    @cached_property
    def _identities(self) -> tuple[KrausOp, KrausOp]:
        """The sectors' identity operations, built once per model."""
        return tuple(q.identity().payload for q in self.sectors)

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
        passive = scale_kraus(op.p, self._identities[2 - op.side])
        if op.side == 1:
            return self.transformation(op.op_block, passive, op.label)
        return self.transformation(passive, op.op_block, op.label)

    # -- interface ----------------------------------------------------------
    def identity(self) -> Transformation:
        return Transformation(self, self._identities, "identity")

    def unit_effect(self) -> Effect:
        return Effect(self, (np.eye(self.d1), np.eye(self.d2)))

    def effect_of(self, t: Transformation) -> Effect:
        return Effect(self, _each(KrausOp.trace_operator, t.payload))

    def apply(self, t: Transformation, s: State) -> State:
        blocks = _each(apply_quantum_op, t.payload, s.payload.blocks)
        return State(self, DSumState._trusted(*blocks))

    def evaluate(self, e: Effect, s: State) -> float:
        """Tr[K_plus rho_plus] + Tr[K_minus rho_minus]; for Hermitian blocks the
        real part of each trace is the Hilbert-Schmidt product ``vdot(K, rho)``."""
        kp, km = e.payload
        rp, rm = s.payload.blocks
        return float(np.vdot(kp, rp).real + np.vdot(km, rm).real)

    def compose(self, first: Transformation, then: Transformation) -> Transformation:
        return Transformation(self, _each(compose_kraus, first.payload, then.payload), "")

    def add_transformations(self, t1: Transformation, t2: Transformation) -> Transformation:
        return Transformation(self, _each(coarse_grain_kraus, t1.payload, t2.payload), "")

    def scale_transformation(self, lam: float, t: Transformation) -> Transformation:
        return Transformation(self, _each(partial(scale_kraus, lam), t.payload), "")

    def complement(self, t: Transformation) -> Transformation:
        return Transformation(self, _each(complement_kraus, t.payload), f"~{t.label}")

    def add_effects(self, e1: Effect, e2: Effect) -> Effect:
        return Effect(self, _each(np.add, e1.payload, e2.payload))

    def effect_leq_unit(self, e: Effect) -> bool:
        return all(q.effect_leq_unit(Effect(q, k)) for q, k in zip(self.sectors, e.payload))

    def effect_coords(self, e: Effect) -> np.ndarray:
        return np.concatenate(_each(hermitian_coords, e.payload))

    def state_coords(self, s: State) -> np.ndarray:
        return np.concatenate(_each(hermitian_coords, s.payload.blocks))

    def scale_state_payload(self, payload: DSumState, factor: float) -> DSumState:
        return DSumState._trusted(factor * payload.rho_plus, factor * payload.rho_minus)

    def mix_states(self, s1: State, s2: State, w1: float, w2: float) -> State:
        blocks = _each(lambda a, b: w1 * a + w2 * b, s1.payload.blocks, s2.payload.blocks)
        return State(self, DSumState._trusted(*blocks))

    def state_distance(self, s1: State, s2: State) -> float:
        return sum(_each(trace_norm, _each(np.subtract, s1.payload.blocks, s2.payload.blocks)))

    def transformation_distance(self, t1: Transformation, t2: Transformation) -> float:
        """Worst sector of :func:`~optheory.quantum.choi_distance`: the largest
        entry of either block's Choi-matrix difference, equal by realignment
        to the max-abs superoperator distance."""
        return worst_defect(*_each(choi_distance, t1.payload, t2.payload))

    def random_state(self, rng: np.random.Generator) -> State:
        w = rng.uniform(0.1, 0.9)
        q1, q2 = self.sectors
        plus = w * q1.random_state(rng).payload
        minus = (1.0 - w) * q2.random_state(rng).payload
        return State(self, DSumState._trusted(plus, minus))

    def random_transformation(self, rng: np.random.Generator) -> Transformation:
        payload = tuple(q.random_transformation(rng).payload for q in self.sectors)
        return Transformation(self, payload, "random")

    def random_action(self, rng: np.random.Generator, outcomes: int) -> Action:
        plus, minus = (haar_outcomes(rng, q.d, outcomes) for q in self.sectors)
        return self.outcome_action(zip(plus, minus))

    def minimal_ic_effects(self) -> list[Effect]:
        """The sectors' minimal IC effects, each padded with zero on the other sector."""
        q1, q2 = self.sectors
        zero1, zero2 = np.zeros((self.d1, self.d1)), np.zeros((self.d2, self.d2))
        effects = [Effect(self, (e.payload, zero2)) for e in q1.minimal_ic_effects()]
        effects += [Effect(self, (zero1, e.payload)) for e in q2.minimal_ic_effects()]
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

    def _embed(self, t: Transformation, side: int) -> tuple[KrausOp, KrausOp]:
        p = _mixed_state_prob(effect_of(t))
        return self.joint.from_local(DSumLocalOp(side, t.payload, min(p, 1.0), t.label)).payload

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
        return hermitian_coords(direct_sum(*e.payload))

    def random_product_effect(self, rng: np.random.Generator) -> Effect:
        a = self.joint.from_local(ds_random_local_op(rng, 1, self.d1))
        b = self.joint.from_local(ds_random_local_op(rng, 2, self.d2))
        return self.joint.effect_of(self.joint.compose(a, b))


def _mixed_state_prob(e: Effect) -> float:
    """Value Tr[K]/d of a component effect on the maximally mixed state."""
    model = e.model
    return model.evaluate(e, State(model, np.eye(model.d) / model.d))
