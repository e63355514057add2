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
enter it through :meth:`DSumModel.from_local`, one at a time or as a stack
of trials.  A random local operation or action is a raw draw, which makes
every call on the generator, and a finish, which builds the operation from
the draw or the stack of operations from stacked draws
(:func:`ds_draw_local_op` and :func:`ds_finish_local_op`,
:func:`ds_draw_action` and :func:`ds_finish_action`); the other ``ds_*``
helpers are thin wrappers over the model's methods and the framework
verifiers.
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
    draw_trials,
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
    require_hermitian_stack,
    require_psd,
    trace_norm,
    trial_factor,
    trusted_hermitian_coords,
    value,
    vdots,
)
from .quantum import (
    KrausOp,
    QuantumModel,
    apply_quantum_op,
    choi_distance,
    coarse_grain_kraus,
    complement_kraus,
    compose_kraus,
    draw_kraus,
    finish_kraus,
    finish_outcomes,
    scale_kraus,
)
from .report import Check, VerificationReport, worst_defect, worst_defects
from .sampling import complex_gaussian, gram, simplex, unit_trace


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
    occurrence probability p on the opposite sector.

    A stack of trials' local operations on one side has a stacked
    :class:`~optheory.quantum.KrausOp` block and one p per trial; every
    trial's p is checked."""

    side: int
    op_block: KrausOp
    p: float | np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.side not in (1, 2):
            raise ValueError(f"side must be 1 or 2, got {self.side!r}")
        inside = (0.0 <= self.p) & (self.p <= 1.0 + TOL_EFFECT)  # False for NaN
        if not (inside.all() if isinstance(inside, np.ndarray) else inside):
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


def ds_draw_local_op(rng: np.random.Generator, d: int) -> tuple:
    """Raw draw of :func:`ds_random_local_op`: the raw draw of its block
    (:func:`~optheory.quantum.draw_kraus`), then its sector probability p."""
    return (*draw_kraus(rng, d, 0.2), rng.uniform())


def ds_finish_local_op(side: int, a, keep, lam, p) -> DSumLocalOp:
    """Finish of :func:`ds_draw_local_op` on ``side``; stacked raw draws give
    the stack of local operations, its block one stacked
    :class:`~optheory.quantum.KrausOp`, zero-padded to the stack's largest Kraus rank."""
    return DSumLocalOp(side, finish_kraus(a, keep, lam), p, "random")


def ds_random_local_op(rng: np.random.Generator, side: int, d: int) -> DSumLocalOp:
    return ds_finish_local_op(side, *ds_draw_local_op(rng, d))


def ds_draw_action(rng: np.random.Generator, d: int, outcomes: int) -> tuple:
    """Raw draw of :func:`ds_random_action`: the Gaussian of its Haar
    instrument, then the exponentials of its probability vector."""
    return complex_gaussian(rng, outcomes * d, d), rng.exponential(size=outcomes)


def ds_finish_action(side: int, a: np.ndarray, x: np.ndarray) -> list[DSumLocalOp]:
    """Finish of :func:`ds_draw_action` on ``side``: one local operation per
    outcome, each a stack of trials for stacked raw draws."""
    probs = simplex(x)
    return [
        DSumLocalOp(side, op, value(probs[..., j]), f"outcome{j}")
        for j, op in enumerate(finish_outcomes(a, a.shape[-1]))
    ]


def ds_random_action(
    rng: np.random.Generator, side: int, d: int, outcomes: int
) -> list[DSumLocalOp]:
    """A complete local action: Haar instrument blocks paired with a random
    probability vector summing to one."""
    return ds_finish_action(side, *ds_draw_action(rng, d, outcomes))


def ds_local_effect_span(d1: int, d2: int, samples: int, seed: int = 0) -> int:
    """Rank of the joint effects generated by local operation pairs.

    The effects are block-diagonal Hermitians on the (d1+d2)-dimensional
    composite space; their span always comes out d1^2 + d2^2, strictly less
    than the ambient (d1+d2)^2.
    """
    if samples < (d1 + d2) ** 2:
        raise ValueError(f"need at least {(d1 + d2) ** 2} samples for a decisive rank")
    return rank_of_rows(DSumBipartite(d1, d2).random_product_rows(seed, samples))


# ---------------------------------------------------------------------------
# TheoryModel adapter: the composite as a single system of block pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=True)
class DSumModel(TheoryModel):
    """The direct-sum composite as a standalone theory of block pairs.

    State payloads are :class:`DSumState`; transformation payloads are
    (plus, minus) pairs of :class:`KrausOp` acting sector-wise; effect
    payloads are (K_plus, K_minus) Hermitian pairs.  ``sectors`` holds the
    two :class:`~optheory.quantum.QuantumModel` sectors.  A stack of trials
    has stacked blocks: a :class:`DSumState` of ``(n, d, d)`` blocks, a pair
    of stacked :class:`~optheory.quantum.KrausOp`, each ``(n, r, d, d)`` and
    zero-padded to its sector's largest Kraus rank, and pairs of
    ``(n, d, d)`` effect blocks.  The operations the invariant suite and
    the dsum suite run, :meth:`from_local` among them, take stacks as well
    as single objects.
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

    @cached_property
    def _units(self) -> tuple[np.ndarray, np.ndarray]:
        """The unit effect's blocks, built once per model (read-only): every
        state weight reads them."""
        units = (np.eye(self.d1), np.eye(self.d2))
        for u in units:
            u.flags.writeable = False
        return units

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
        """A local operation: its block map on its own sector, sqrt(p) I on the
        other.  For a stack of local operations the passive block is one
        stacked operation of rank 1, sqrt(p_t) I at trial t."""
        return self._local(op.side, op.op_block, op.p, op.label)

    def _local(self, side: int, block, p, label: str = "") -> Transformation:
        """:meth:`from_local` of a local operation's parts, its ``p`` unchecked."""
        identity = self._identities[2 - side]
        if block.kraus.ndim == 4:
            kraus = identity.kraus
            identity = KrausOp._trusted(np.broadcast_to(kraus, block.kraus.shape[:1] + kraus.shape))
        passive = scale_kraus(p, identity)
        if side == 1:
            return self.transformation(block, passive, label)
        return self.transformation(passive, block, label)

    # -- interface ----------------------------------------------------------
    def identity(self) -> Transformation:
        return Transformation(self, self._identities, "identity")

    def unit_effect(self) -> Effect:
        return Effect(self, self._units)

    def effect_of(self, t: Transformation) -> Effect:
        plus, minus = t.payload  # single or stacked blocks alike
        return Effect(self, (plus.trace_operator(), minus.trace_operator()))

    def apply(self, t: Transformation, s: State) -> State:
        blocks = _each(apply_quantum_op, t.payload, s.payload.blocks)
        return State(self, DSumState._trusted(*blocks))

    def evaluate(self, e: Effect, s: State):
        """Tr[K_plus rho_plus] + Tr[K_minus rho_minus]; for Hermitian blocks the
        real part of each trace is the Hilbert-Schmidt product ``vdot(K, rho)``."""
        (kp, km), (rp, rm) = e.payload, s.payload.blocks
        return value(_hilbert_schmidt(kp, rp) + _hilbert_schmidt(km, rm))

    def compose(self, first: Transformation, then: Transformation) -> Transformation:
        return Transformation(self, _each(compose_kraus, first.payload, then.payload))

    def add_transformations(self, t1: Transformation, t2: Transformation) -> Transformation:
        return Transformation(self, _each(coarse_grain_kraus, t1.payload, t2.payload))

    def scale_transformation(self, lam: float, t: Transformation) -> Transformation:
        return Transformation(self, _each(partial(scale_kraus, lam), t.payload))

    def complement(self, t: Transformation) -> Transformation:
        return Transformation(self, _each(complement_kraus, t.payload))

    def add_effects(self, e1: Effect, e2: Effect) -> Effect:
        return Effect(self, _each(np.add, e1.payload, e2.payload))

    def effect_leq_unit(self, e: Effect):
        plus, minus = (q.effect_leq_unit(Effect(q, k)) for q, k in zip(self.sectors, e.payload))
        return plus & minus

    def effect_coords(self, e: Effect) -> np.ndarray:
        return np.concatenate(_each(hermitian_coords, e.payload), axis=-1)

    def state_coords(self, s: State) -> np.ndarray:
        return self.effect_coords(Effect(self, s.payload.blocks))

    def scale_state_payload(self, payload: DSumState, factor) -> DSumState:
        plus, minus = payload.blocks
        scale_plus, scale_minus = trial_factor(factor, plus), trial_factor(factor, minus)
        return DSumState._trusted(scale_plus * plus, scale_minus * minus)

    def mix_states(self, s1: State, s2: State, w1, w2) -> State:
        def mix(a, b):
            return trial_factor(w1, a) * a + trial_factor(w2, b) * b

        return State(self, DSumState._trusted(*_each(mix, s1.payload.blocks, s2.payload.blocks)))

    def state_distance(self, s1: State, s2: State):
        return sum(_each(trace_norm, _each(np.subtract, s1.payload.blocks, s2.payload.blocks)))

    def transformation_distance(self, t1: Transformation, t2: Transformation):
        """Worst sector of :func:`~optheory.quantum.choi_distance`: the largest
        entry of either block's Choi-matrix difference, equal by realignment
        to the max-abs superoperator distance."""
        return worst_defects(*_each(choi_distance, t1.payload, t2.payload))

    def take(self, payload, trials):
        if isinstance(payload, DSumState):
            return DSumState._trusted(*(b[trials] for b in payload.blocks))
        return tuple(p[trials] for p in payload)

    def stack_effects(self, payloads) -> tuple[np.ndarray, np.ndarray]:
        """Block pairs (K_plus, K_minus) as one stack of each block."""
        plus, minus = zip(*payloads)
        return np.stack(plus), np.stack(minus)

    def draw_state(self, rng: np.random.Generator) -> tuple:
        w = rng.uniform(0.1, 0.9)
        q1, q2 = self.sectors
        return (w, *q1.draw_state(rng), *q2.draw_state(rng))

    def finish_state(self, w, g_plus, g_minus) -> State:
        rho_plus, rho_minus = unit_trace(gram(g_plus)), unit_trace(gram(g_minus))
        plus = trial_factor(w, rho_plus) * rho_plus
        minus = trial_factor(1.0 - w, rho_minus) * rho_minus
        return State(self, DSumState._trusted(plus, minus))

    def draw_transformation(self, rng: np.random.Generator) -> tuple:
        q1, q2 = self.sectors
        return (*q1.draw_transformation(rng), *q2.draw_transformation(rng))

    def finish_transformation(self, *raw) -> Transformation:
        half = len(raw) // 2
        payload = (finish_kraus(*raw[:half]), finish_kraus(*raw[half:]))
        return Transformation(self, payload, "random")

    def draw_action(self, rng: np.random.Generator, outcomes: int) -> tuple:
        q1, q2 = self.sectors
        return (*q1.draw_action(rng, outcomes), *q2.draw_action(rng, outcomes))

    def finish_action(self, a_plus, a_minus) -> Action:
        plus, minus = (finish_outcomes(a, q.d) for q, a in zip(self.sectors, (a_plus, a_minus)))
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

    def _embed(self, t: Transformation, side: int) -> tuple:
        p = np.minimum(_mixed_state_prob(effect_of(t)), 1.0)  # one p per trial of a stack
        # Unchecked: p comes from a validated operation, and a NaN in it must fail a check.
        return self.joint._local(side, t.payload, p, t.label).payload

    def product_payloads(self, lefts, rights) -> tuple[np.ndarray, np.ndarray]:
        """Block stacks (q_j K_l,i, p_i K_r,j) of the products of ``lefts[i]``
        and ``rights[j]``, at index ``i * len(rights) + j``; p_i and q_j are
        the local effects' values Tr[K]/d on the maximally mixed state.
        Each local effect is validated and valued once."""
        kl, p = _local_stack(lefts)
        kr, q = _local_stack(rights)
        plus = (q[None, :, None, None] * kl[:, None]).reshape(-1, self.d1, self.d1)
        minus = (p[:, None, None, None] * kr[None, :]).reshape(-1, self.d2, self.d2)
        return plus, minus

    @property
    def ambient_effect_dim(self) -> int:
        return (self.d1 + self.d2) ** 2

    def ambient_rows(self, stack) -> np.ndarray:
        """``trusted_hermitian_coords`` of each block pair as the block-diagonal
        K_plus (+) K_minus on C^(d1+d2), built as one stack; the blocks are
        ones the package built from validated local effects."""
        return trusted_hermitian_coords(direct_sum(*stack))

    def random_product_effect(self, rng: np.random.Generator) -> Effect:
        a = self.joint.from_local(ds_random_local_op(rng, 1, self.d1))
        b = self.joint.from_local(ds_random_local_op(rng, 2, self.d2))
        return self.joint.effect_of(self.joint.compose(a, b))

    def random_product_rows(self, seed: int, n: int) -> np.ndarray:
        """The rows of ``random_product_effect(trial_rng(seed, k))`` for k < n,
        bit for bit: every trial's two ``ds_draw_local_op`` draws, then one
        stacked ``ds_finish_local_op``, ``from_local``, ``compose`` and
        ``effect_of``."""
        draw = ds_draw_local_op
        left, right = draw_trials(seed, n, partial(draw, d=self.d1), partial(draw, d=self.d2))
        a = self.joint.from_local(ds_finish_local_op(1, *left))
        b = self.joint.from_local(ds_finish_local_op(2, *right))
        return self.ambient_rows(self.joint.effect_of(self.joint.compose(a, b)).payload)


def _hilbert_schmidt(k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Re ``vdot(K, rho)`` of each pair of two stacks of blocks."""
    return vdots(k.reshape(k.shape[:-2] + (-1,)), r.reshape(r.shape[:-2] + (-1,))).real


def _mixed_state_prob(e: Effect):
    """Value Tr[K]/d of a component effect on the maximally mixed state (of
    each effect of a stack)."""
    model = e.model
    return model.evaluate(e, State(model, np.eye(model.d) / model.d))


def _local_stack(effects) -> tuple[np.ndarray, np.ndarray]:
    """The component effects' payloads, validated and symmetrized as one
    stack, and their values on the maximally mixed state."""
    k = require_hermitian_stack([e.payload for e in effects])
    return k, np.array([_mixed_state_prob(e) for e in effects])
