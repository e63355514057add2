"""Operational framework: states, transformations, effects, actions.

A :class:`TheoryModel` binds together one physical theory's concrete
representation of states (probability rules), transformations (linear maps
with an occurrence probability), and effects (the dual functionals that
carry that probability).  Generic operations such as Bayes conditioning,
coarse-graining, complements and the no-signaling verifiers are written
once, against the model interface, and a classical reference model
(probability vectors acted on by substochastic matrices) provides the
simplest instantiation.

Conventions:

* ``compose(first, then)`` is the transformation "``first`` happens, then
  ``then``"; probabilities chain by Bayes' rule.
* ``apply`` returns an unnormalized (weighted) state so additivity can be
  checked before renormalization; ``condition`` renormalizes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import reduce
from typing import Any, Sequence

import numpy as np

from .linalg import rank_of_rows
from .report import Check, VerificationReport, run_trials, worst_defect
from .sampling import (
    random_simplex_point,
    random_stochastic_split,
    random_substochastic,
)

# Conditioning on events rarer than this raises ZeroProbability.
EPS_COND = 1e-12
# Dual (effect-coordinate) comparisons and action completeness.
TOL_EFFECT = 1e-9


class ModelMismatch(ValueError):
    """Objects bound to different theory models were combined."""


class ZeroProbability(ValueError):
    """Conditioning on a transformation whose probability is (numerically) zero."""


class NotCoexistent(ValueError):
    """Transformations whose effects sum above the unit cannot be added."""


class IncompleteAction(ValueError):
    """An action whose effects do not sum to the unit effect."""


class IndeterminateSpan(ValueError):
    """A state probe set too small to certify a universally quantified claim."""


@dataclass(frozen=True, eq=False)
class Transformation:
    """A possible change of the system, with model-specific linear payload."""

    model: "TheoryModel"
    payload: Any
    label: str = ""

    def __repr__(self) -> str:  # labels keep randomized-suite failures readable
        return f"Transformation({self.model.name}, {self.label or 'unlabeled'})"


@dataclass(frozen=True, eq=False)
class Effect:
    """Informational equivalence class of transformations (a dual vector)."""

    model: "TheoryModel"
    payload: Any


@dataclass(frozen=True, eq=False)
class State:
    """A probability rule for transformations; may be subnormalized."""

    model: "TheoryModel"
    payload: Any

    @property
    def weight(self) -> float:
        """Total probability mass, i.e. the value of the unit effect."""
        return self.model.evaluate(self.model.unit_effect(), self)

    def normalized(self) -> "State":
        w = self.weight
        if w <= EPS_COND:
            raise ZeroProbability(f"cannot normalize a weight-{w:.3e} state")
        return State(self.model, self.model.scale_state_payload(self.payload, 1.0 / w))


def unit_sum_defect(model: "TheoryModel", effects) -> float:
    """Max-abs effect-coordinate gap between the sum of ``effects`` and the unit."""
    total = reduce(model.add_effects, effects)
    unit = model.unit_effect()
    return float(np.abs(model.effect_coords(total) - model.effect_coords(unit)).max())


@dataclass(frozen=True, eq=False)
class Action:
    """A finite complete set of mutually exclusive transformations."""

    transformations: tuple[Transformation, ...]

    def __init__(self, transformations: Sequence[Transformation]):
        ts = tuple(transformations)
        if not ts:
            raise ValueError("an action needs at least one transformation")
        for t in ts[1:]:
            _require_same_model(ts[0], t)
        object.__setattr__(self, "transformations", ts)
        defect = self.completeness_defect()
        if defect > TOL_EFFECT:
            raise IncompleteAction(
                f"action effects do not sum to the unit: defect {defect:.3e}"
            )

    @property
    def model(self) -> "TheoryModel":
        return self.transformations[0].model

    def completeness_defect(self) -> float:
        return unit_sum_defect(self.model, (effect_of(t) for t in self.transformations))


class TheoryModel(ABC):
    """Interface one physical theory implements to plug into the framework."""

    name: str = "abstract"

    @property
    @abstractmethod
    def effect_dim(self) -> int:
        """Linear dimension of the effect space; by duality the normalized
        states span an affine space of one dimension less."""

    @abstractmethod
    def identity(self) -> Transformation: ...

    @abstractmethod
    def unit_effect(self) -> Effect: ...

    @abstractmethod
    def effect_of(self, t: Transformation) -> Effect: ...

    @abstractmethod
    def apply(self, t: Transformation, s: State) -> State:
        """Unnormalized action of ``t`` on ``s`` (linear in the state)."""

    @abstractmethod
    def evaluate(self, e: Effect, s: State) -> float:
        """Pairing of an effect with a (possibly subnormalized) state."""

    @abstractmethod
    def compose(self, first: Transformation, then: Transformation) -> Transformation: ...

    @abstractmethod
    def add_transformations(self, t1: Transformation, t2: Transformation) -> Transformation: ...

    @abstractmethod
    def scale_transformation(self, lam: float, t: Transformation) -> Transformation: ...

    @abstractmethod
    def complement(self, t: Transformation) -> Transformation:
        """A transformation whose effect is unit - effect_of(t)."""

    @abstractmethod
    def effect_leq_unit(self, e: Effect) -> bool:
        """Whether 0 <= e <= unit holds in the model's positivity order."""

    @abstractmethod
    def effect_coords(self, e: Effect) -> np.ndarray:
        """Real coordinates of an effect; equal coordinates = equal effects."""

    @abstractmethod
    def state_coords(self, s: State) -> np.ndarray:
        """Real linear embedding of a state, dual to ``effect_coords``."""

    @abstractmethod
    def state_distance(self, s1: State, s2: State) -> float: ...

    @abstractmethod
    def transformation_distance(self, t1: Transformation, t2: Transformation) -> float:
        """Distance between the linear maps (zero iff same dynamics)."""

    @abstractmethod
    def random_state(self, rng: np.random.Generator) -> State: ...

    @abstractmethod
    def random_transformation(self, rng: np.random.Generator) -> Transformation: ...

    @abstractmethod
    def random_action(self, rng: np.random.Generator, outcomes: int) -> Action: ...

    def minimal_ic_effects(self) -> list[Effect]:
        """A built-in minimal informationally complete observable, if any."""
        raise NotImplementedError(f"{self.name} has no built-in IC observable")

    # -- defaults for array payloads; a model with other payloads overrides them
    def add_effects(self, e1: Effect, e2: Effect) -> Effect:
        return Effect(self, e1.payload + e2.payload)

    def scale_state_payload(self, payload: Any, factor: float) -> Any:
        return factor * payload

    def mix_states(self, s1: State, s2: State, w1: float, w2: float) -> State:
        """The payload-linear combination w1*s1 + w2*s2 (no renormalization)."""
        return State(self, w1 * s1.payload + w2 * s2.payload)

    def outcome_action(self, payloads) -> Action:
        """The action whose outcome j has payload ``payloads[j]`` and label ``outcome<j>``."""
        return Action([Transformation(self, p, f"outcome{j}") for j, p in enumerate(payloads)])


class BipartiteModel(ABC):
    """Two component models embedded side by side in a joint model.

    The defining property is dynamical independence: embedded left and right
    transformations commute (checked, not assumed, by the test suites).
    A composite writes only ``_embed``, and ``product_effect`` when its
    joint effects are not the Kronecker products of array payloads.
    """

    left: TheoryModel
    right: TheoryModel
    joint: TheoryModel

    @abstractmethod
    def _embed(self, t: Transformation, side: int) -> Any:
        """Joint payload of a component transformation acting on ``side`` (1 or 2)."""

    def embed_left(self, t: Transformation) -> Transformation:
        if t.model != self.left:
            raise ModelMismatch("transformation is not bound to the left component")
        return Transformation(self.joint, self._embed(t, 1), t.label)

    def embed_right(self, t: Transformation) -> Transformation:
        if t.model != self.right:
            raise ModelMismatch("transformation is not bound to the right component")
        return Transformation(self.joint, self._embed(t, 2), t.label)

    def product_effect(self, e_left: Effect, e_right: Effect) -> Effect:
        """Joint effect of jointly performing a left and a right outcome."""
        return Effect(self.joint, np.kron(e_left.payload, e_right.payload))

    @property
    def ambient_effect_dim(self) -> int:
        """Effect dimension of the composite system local outcomes probe."""
        return self.joint.effect_dim

    def ambient_effect_coords(self, e: Effect) -> np.ndarray:
        """Coordinates of a joint effect in the ambient composite system."""
        return self.joint.effect_coords(e)

    def random_product_effect(self, rng: np.random.Generator) -> Effect:
        tl = self.left.random_transformation(rng)
        tr = self.right.random_transformation(rng)
        return self.product_effect(effect_of(tl), effect_of(tr))


# ---------------------------------------------------------------------------
# Generic operations
# ---------------------------------------------------------------------------

def _require_same_model(a, b) -> TheoryModel:
    if a.model != b.model:
        raise ModelMismatch(f"objects belong to different models: {a.model} vs {b.model}")
    return a.model


def prob(state: State, t: Transformation) -> float:
    """Occurrence probability of ``t`` in ``state`` (Born-type pairing)."""
    model = _require_same_model(state, t)
    w = state.weight
    if w <= EPS_COND:
        raise ZeroProbability("probability rule of a zero-weight state is undefined")
    return model.evaluate(model.effect_of(t), state) / w


def condition(state: State, t: Transformation) -> State:
    """Bayes update: the state given that ``t`` occurred."""
    model = _require_same_model(state, t)
    p = prob(state, t)
    if p <= EPS_COND:
        raise ZeroProbability(
            f"cannot condition on {t.label or 'transformation'} with probability {p:.3e}"
        )
    return State(model, model.scale_state_payload(model.apply(t, state.normalized()).payload, 1.0 / p))


def compose(first: Transformation, then: Transformation) -> Transformation:
    """Sequential composition: ``first`` acts before ``then``."""
    return _require_same_model(first, then).compose(first, then)


def effect_of(t: Transformation) -> Effect:
    return t.model.effect_of(t)


def add_coexistent(t1: Transformation, t2: Transformation) -> Transformation:
    """Coarse-grain two coexistent transformations into "either occurred"."""
    model = _require_same_model(t1, t2)
    total = model.add_effects(effect_of(t1), effect_of(t2))
    if not model.effect_leq_unit(total):
        raise NotCoexistent(
            f"effects of {t1.label or 't1'} and {t2.label or 't2'} sum above the unit"
        )
    return model.add_transformations(t1, t2)


def scale(lam: float, t: Transformation) -> Transformation:
    """Rescale the occurrence probability, keeping the dynamics."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"scale factor must lie in [0, 1], got {lam}")
    return t.model.scale_transformation(lam, t)


def total_of_action(action: Action) -> Transformation:
    """Sum of all transformations in a complete action (deterministic)."""
    return reduce(action.model.add_transformations, action.transformations)


def complement(t: Transformation) -> Transformation:
    """A transformation completing ``t`` to a two-outcome action."""
    model = t.model
    if not model.effect_leq_unit(model.effect_of(t)):
        raise ValueError("effect exceeds the unit; no complement exists")
    return model.complement(t)


def _probe_coords(model: TheoryModel, probes: Sequence[State]) -> np.ndarray:
    if not probes:
        raise IndeterminateSpan("empty state probe set")
    return np.array([model.state_coords(s.normalized()) for s in probes])


def _require_spanning(model: TheoryModel, probes: Sequence[State]) -> None:
    rank = rank_of_rows(_probe_coords(model, probes))
    if rank < model.effect_dim:
        raise IndeterminateSpan(
            f"probe states span {rank} < {model.effect_dim} effect dimensions"
        )


def informationally_equivalent(
    t1: Transformation,
    t2: Transformation,
    state_probe: Sequence[State] | None = None,
) -> bool:
    """Whether the two transformations occur with equal probability on every state.

    With no probe set the comparison is exact, on dual coordinates.  With a
    probe set the claim is certified on the probes, which must affinely span
    the state space (otherwise :class:`IndeterminateSpan`).
    """
    model = _require_same_model(t1, t2)
    if state_probe is None:
        c1 = model.effect_coords(effect_of(t1))
        c2 = model.effect_coords(effect_of(t2))
        return float(np.abs(c1 - c2).max()) <= TOL_EFFECT
    _require_spanning(model, state_probe)
    return all(abs(prob(s, t1) - prob(s, t2)) <= TOL_EFFECT for s in state_probe)


def dynamically_equivalent(
    t1: Transformation,
    t2: Transformation,
    state_probe: Sequence[State],
) -> bool:
    """Whether the two transformations leave identical conditional states."""
    model = _require_same_model(t1, t2)
    _require_spanning(model, state_probe)
    for s in state_probe:
        p1 = prob(s, t1)
        p2 = prob(s, t2)
        if p1 <= EPS_COND or p2 <= EPS_COND:
            continue
        if model.state_distance(condition(s, t1), condition(s, t2)) > TOL_EFFECT:
            return False
    return True


def commutation_defect(bip: BipartiteModel, t_left: Transformation, t_right: Transformation) -> float:
    """How far embedded left/right transformations are from commuting."""
    a = bip.embed_left(t_left)
    b = bip.embed_right(t_right)
    ab = compose(a, b)
    ba = compose(b, a)
    return bip.joint.transformation_distance(ab, ba)


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------

def probe_shifts(
    joint: State, total: Transformation, probes: Sequence[Transformation]
) -> list[float]:
    """|P(total, then B) - P(B)| on ``joint`` for every joint probe B: the
    no-signaling comparison once the local operations are embedded.  The
    joint state's weight is read once."""
    model = _require_same_model(joint, total)
    w = joint.weight
    if w <= EPS_COND:
        raise ZeroProbability("probability rule of a zero-weight state is undefined")

    def p(t: Transformation) -> float:
        return model.evaluate(model.effect_of(t), joint) / w

    return [abs(p(compose(total, b)) - p(b)) for b in probes]


def no_signaling_check(
    joint: State,
    action: Action,
    bip: BipartiteModel,
    probe: Sequence[Transformation],
    tol: float = 1e-10,
    seed: int = 0,
) -> VerificationReport:
    """Check that a complete local action is invisible to the other side.

    For every probe transformation B on side 2, compares the joint
    probability of (total of the embedded action, B) with that of
    (identity, B) (:func:`probe_shifts`).  The worst absolute difference is
    the reported defect.
    """
    total = reduce(bip.joint.add_transformations, map(bip.embed_left, action.transformations))
    shifts = probe_shifts(joint, total, [bip.embed_right(b) for b in probe])
    worst = 0.0
    witness = None
    for b, shift in zip(probe, shifts):
        defect = worst_defect(shift)
        if defect >= worst:
            worst = defect
            witness = {"probe": b.label or "probe"}
    checks = [Check("no_signaling", worst, tol)]
    return VerificationReport.from_checks(
        "no-signaling", seed, len(probe), checks, tol, witness=witness
    )


def determinism_equivalence_check(
    joint: State,
    t: Transformation,
    bip: BipartiteModel,
    probe: Sequence[Transformation],
    tol: float = 1e-10,
    seed: int = 0,
) -> VerificationReport:
    """Check the equivalence "locally deterministic iff remotely invisible".

    A violation is a transformation that is deterministic on the joint state
    (probability 1 with the other side untouched) yet shifts some remote
    probe probability.  Probes failing to witness non-determinism are not
    violations; finite probe sets cannot certify the converse direction.
    No CLI suite runs it: on the total of a complete action it measures the
    probe shifts of :func:`no_signaling_check` again, and on a selective
    draw (probability below 1) it is vacuous.
    """
    a = bip.embed_left(t)
    p_det = prob(joint, a)
    worst = worst_defect(*probe_shifts(joint, a, [bip.embed_right(b) for b in probe]))
    # A NaN p_det is not "clearly non-deterministic", so the probe shifts still count.
    violation = 0.0 if abs(p_det - 1.0) > tol else worst
    checks = [Check("determinism_equivalence", violation, tol)]
    details = {"prob_untouched": p_det, "max_probe_shift": worst}
    return VerificationReport.from_checks(
        "determinism-equivalence", seed, len(probe), checks, tol, details=details
    )


_INVARIANTS = (
    "completeness",
    "bayes_chain",
    "mixture_linearity",
    "associativity",
    "identity_neutral",
    "distributivity",
    "additivity",
    "scale_conditioning",
)


def model_invariant_suite(
    model: TheoryModel,
    seed: int = 0,
    trials: int = 50,
    outcomes: int = 3,
    tol: float = 1e-9,
) -> VerificationReport:
    """Randomized audit of the framework axioms on one concrete model.

    Per trial: action completeness, the Bayes chain for composition,
    linearity of transformations on mixtures, monoid laws for composition,
    distributivity of composition over coarse-graining, and additivity of
    coarse-grained probabilities.
    """

    def trial(rng: np.random.Generator, k: int) -> dict[str, float]:
        omega = model.random_state(rng)
        omega2 = model.random_state(rng)
        ta = model.random_transformation(rng)
        tb = model.random_transformation(rng)
        tc = model.random_transformation(rng)
        ident = model.identity()

        action = model.random_action(rng, outcomes)
        total = sum(prob(omega, t) for t in action.transformations)
        defects = {"completeness": abs(total - 1.0)}

        pa = prob(omega, ta)
        if pa > 1e-6:
            chain = prob(condition(omega, ta), tb) * pa
            direct = prob(omega, compose(ta, tb))
            defects["bayes_chain"] = abs(chain - direct)

        lam = rng.uniform(0.2, 0.8)
        mixed = model.mix_states(omega, omega2, lam, 1.0 - lam)
        applied_mix = model.apply(ta, mixed)
        mix_applied = model.mix_states(
            model.apply(ta, omega), model.apply(ta, omega2), lam, 1.0 - lam
        )
        defects["mixture_linearity"] = model.state_distance(applied_mix, mix_applied)

        defects["associativity"] = model.transformation_distance(
            compose(compose(ta, tb), tc), compose(ta, compose(tb, tc))
        )
        defects["identity_neutral"] = worst_defect(
            model.transformation_distance(compose(ta, ident), ta),
            model.transformation_distance(compose(ident, ta), ta),
        )

        sa = scale(lam, ta)
        sb = scale(1.0 - lam, tb)
        coarse = add_coexistent(sa, sb)
        defects["distributivity"] = model.transformation_distance(
            compose(coarse, tc), model.add_transformations(compose(sa, tc), compose(sb, tc))
        )
        defects["additivity"] = abs(prob(omega, coarse) - prob(omega, sa) - prob(omega, sb))

        if prob(omega, ta) > 1e-6:
            defects["scale_conditioning"] = model.state_distance(
                condition(omega, scale(0.3, ta)), condition(omega, ta)
            )
        return defects

    checks = run_trials(seed, range(trials), trial, dict.fromkeys(_INVARIANTS, tol))
    return VerificationReport.from_checks(
        f"framework-invariants[{model.name}]",
        seed,
        trials,
        checks,
        tol,
        details={"per_invariant": {c.name: c.defect for c in checks}},
    )


# ---------------------------------------------------------------------------
# Classical reference model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=True)
class ClassicalModel(TheoryModel):
    """Finite classical probability: states are probability n-vectors,
    transformations substochastic matrices, effects column-sum functionals."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("outcome count must be positive")

    @property
    def name(self) -> str:
        return f"classical({self.n})"

    @property
    def effect_dim(self) -> int:
        return self.n

    # -- factories ----------------------------------------------------------
    def state(self, vec, normalize: bool = False) -> State:
        v = np.asarray(vec, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"state vector must have shape ({self.n},)")
        if v.min() < -TOL_EFFECT:
            raise ValueError("state vector has negative entries")
        v = np.clip(v, 0.0, None)
        if normalize:
            v = v / v.sum()
        elif abs(v.sum() - 1.0) > TOL_EFFECT:
            raise ValueError(f"state vector sums to {v.sum()}, expected 1")
        return State(self, v)

    def transformation(self, matrix, label: str = "") -> Transformation:
        m = np.asarray(matrix, dtype=float)
        if m.shape != (self.n, self.n):
            raise ValueError(f"transformation matrix must be {self.n}x{self.n}")
        if m.min() < -TOL_EFFECT:
            raise ValueError("substochastic matrix needs nonnegative entries")
        if m.sum(axis=0).max() > 1.0 + TOL_EFFECT:
            raise ValueError("column sums of a substochastic matrix cannot exceed 1")
        return Transformation(self, m, label)

    # -- interface ----------------------------------------------------------
    def identity(self) -> Transformation:
        return Transformation(self, np.eye(self.n), "identity")

    def unit_effect(self) -> Effect:
        return Effect(self, np.ones(self.n))

    def effect_of(self, t: Transformation) -> Effect:
        return Effect(self, t.payload.sum(axis=0))

    def apply(self, t: Transformation, s: State) -> State:
        return State(self, t.payload @ s.payload)

    def evaluate(self, e: Effect, s: State) -> float:
        return float(e.payload @ s.payload)

    def compose(self, first: Transformation, then: Transformation) -> Transformation:
        return Transformation(
            self, then.payload @ first.payload, _chain_label(first, then)
        )

    def add_transformations(self, t1: Transformation, t2: Transformation) -> Transformation:
        return Transformation(self, t1.payload + t2.payload, _sum_label(t1, t2))

    def scale_transformation(self, lam: float, t: Transformation) -> Transformation:
        return Transformation(self, lam * t.payload, f"{lam:g}*{t.label}" if t.label else "")

    def complement(self, t: Transformation) -> Transformation:
        residual = 1.0 - t.payload.sum(axis=0)
        return Transformation(self, np.diag(np.clip(residual, 0.0, None)), f"~{t.label}")

    def effect_leq_unit(self, e: Effect) -> bool:
        return bool(e.payload.min() >= -TOL_EFFECT and e.payload.max() <= 1.0 + TOL_EFFECT)

    def effect_coords(self, e: Effect) -> np.ndarray:
        return np.asarray(e.payload, dtype=float)

    def state_coords(self, s: State) -> np.ndarray:
        return np.asarray(s.payload, dtype=float)

    def state_distance(self, s1: State, s2: State) -> float:
        return float(np.abs(s1.payload - s2.payload).sum())

    def transformation_distance(self, t1: Transformation, t2: Transformation) -> float:
        return float(np.abs(t1.payload - t2.payload).max())

    def random_state(self, rng: np.random.Generator) -> State:
        return State(self, random_simplex_point(rng, self.n))

    def random_transformation(self, rng: np.random.Generator) -> Transformation:
        return Transformation(self, random_substochastic(rng, self.n), "random")

    def random_action(self, rng: np.random.Generator, outcomes: int) -> Action:
        return self.outcome_action(random_stochastic_split(rng, self.n, outcomes))

    def minimal_ic_effects(self) -> list[Effect]:
        return [Effect(self, np.eye(self.n)[i]) for i in range(self.n)]


@dataclass(frozen=True, eq=True)
class ClassicalBipartite(BipartiteModel):
    """Kronecker composition of two classical systems."""

    n1: int
    n2: int

    def __post_init__(self):
        object.__setattr__(self, "left", ClassicalModel(self.n1))
        object.__setattr__(self, "right", ClassicalModel(self.n2))
        object.__setattr__(self, "joint", ClassicalModel(self.n1 * self.n2))

    def _embed(self, t: Transformation, side: int) -> np.ndarray:
        if side == 1:
            return np.kron(t.payload, np.eye(self.n2))
        return np.kron(np.eye(self.n1), t.payload)

    def joint_state(self, vec) -> State:
        return self.joint.state(vec)


def _chain_label(first: Transformation, then: Transformation) -> str:
    if first.label and then.label:
        return f"{then.label}.{first.label}"
    return ""


def _sum_label(t1: Transformation, t2: Transformation) -> str:
    if t1.label and t2.label:
        return f"{t1.label}+{t2.label}"
    return ""
