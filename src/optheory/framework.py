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

Payloads may carry a leading trial axis: a stack of n states, effects or
transformations is one object whose payload holds them all.  The operations
that :func:`invariant_defects` runs (``prob``, ``condition``, ``compose``,
``add_coexistent``, ``scale``, and the model's ``effect_of``, ``apply``,
``evaluate``, ``mix_states``, ``effect_leq_unit`` and the two distances)
then return one result per trial, each equal to the operation on that
trial's objects alone, with the same checks made trial by trial, and so
does :func:`probe_shifts`; ``complement`` takes single objects only.
:func:`model_invariant_suite` draws raw randomness trial by trial
(``draw_state``, ``draw_transformation``, ``draw_action``), finishes a
chunk of draws as stacks (``finish_state``, ...), and evaluates the whole
chunk at once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from functools import reduce
from typing import Any, Sequence

import numpy as np

from .linalg import kron_product_table, rank_of_rows, trial_factor, value, vdots
from .report import Check, TrialReport, VerificationReport, worst_defect, worst_defects
from .sampling import (
    draw_stochastic_split,
    draw_substochastic,
    simplex,
    stochastic_split,
    substochastic,
    trial_rngs,
)

# Conditioning on events rarer than this raises ZeroProbability.
EPS_COND = 1e-12
# Dual (effect-coordinate) comparisons and action completeness.
TOL_EFFECT = 1e-9


def _any_trial(mask) -> bool:
    """Whether a condition holds for one object, or for any trial of a stack."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


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
        if _any_trial(w <= EPS_COND):
            raise ZeroProbability(f"cannot normalize a weight-{np.min(w):.3e} state")
        return State(self.model, self.model.scale_state_payload(self.payload, 1.0 / w))


def unit_sum_defect(model: "TheoryModel", effects):
    """Max-abs effect-coordinate gap between the sum of ``effects`` and the unit
    (one gap per trial for stacked effects)."""
    total = reduce(model.add_effects, effects)
    unit = model.unit_effect()
    return value(np.abs(model.effect_coords(total) - model.effect_coords(unit)).max(axis=-1))


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
        if _any_trial(defect > TOL_EFFECT):
            raise IncompleteAction(
                f"action effects do not sum to the unit: defect {np.max(defect):.3e}"
            )

    @property
    def model(self) -> "TheoryModel":
        return self.transformations[0].model

    def completeness_defect(self):
        return unit_sum_defect(self.model, (effect_of(t) for t in self.transformations))


class TheoryModel(ABC):
    """Interface one physical theory implements to plug into the framework:
    it writes the abstract members, not ``state_coords``, and its derived
    transformations (``compose``, ``complement``, ...) carry no label.

    The operations that :func:`invariant_defects` runs take single objects
    or stacks of trials alike (see the module docstring).  Random
    objects come from a raw draw, which makes every call on the generator,
    and a finish, which takes the raw draw's values, or a stack of them along
    a leading trial axis, and builds the object or the stack of objects."""

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

    def state_coords(self, s: State) -> np.ndarray:
        """Dual to ``effect_coords``: the coordinates of the same payload as an effect."""
        return self.effect_coords(Effect(self, s.payload))

    @abstractmethod
    def state_distance(self, s1: State, s2: State) -> float: ...

    @abstractmethod
    def transformation_distance(self, t1: Transformation, t2: Transformation) -> float:
        """Distance between the linear maps (zero iff same dynamics)."""

    @abstractmethod
    def draw_state(self, rng: np.random.Generator) -> tuple:
        """Raw draw of a random state: arrays and numbers."""

    @abstractmethod
    def finish_state(self, *raw) -> State:
        """The state of a raw draw, or the stack of states of stacked raw draws."""

    @abstractmethod
    def draw_transformation(self, rng: np.random.Generator) -> tuple: ...

    @abstractmethod
    def finish_transformation(self, *raw) -> Transformation: ...

    @abstractmethod
    def draw_action(self, rng: np.random.Generator, outcomes: int) -> tuple: ...

    @abstractmethod
    def finish_action(self, *raw) -> Action: ...

    def random_state(self, rng: np.random.Generator) -> State:
        return self.finish_state(*self.draw_state(rng))

    def random_transformation(self, rng: np.random.Generator) -> Transformation:
        return self.finish_transformation(*self.draw_transformation(rng))

    def random_action(self, rng: np.random.Generator, outcomes: int) -> Action:
        return self.finish_action(*self.draw_action(rng, outcomes))

    def take(self, payload: Any, trials) -> Any:
        """The payload at one trial index of a stacked payload, or of its
        sub-stack at the ascending ``trials``; payloads that index by trial
        need no override."""
        return payload[trials]

    def stack_effects(self, payloads: Sequence[Any]) -> Any:
        """Effect payloads as one stacked payload along a new leading trial
        axis, which ``take`` indexes and ``effect_coords`` maps to one row each."""
        return np.stack(payloads)

    def minimal_ic_effects(self) -> list[Effect]:
        """A built-in minimal informationally complete observable, if any."""
        raise NotImplementedError(f"{self.name} has no built-in IC observable")

    # -- defaults for array payloads; a model with other payloads overrides them
    def add_effects(self, e1: Effect, e2: Effect) -> Effect:
        return Effect(self, e1.payload + e2.payload)

    def scale_state_payload(self, payload: Any, factor) -> Any:
        return trial_factor(factor, payload) * payload

    def mix_states(self, s1: State, s2: State, w1, w2) -> State:
        """The payload-linear combination w1*s1 + w2*s2 (no renormalization)."""
        p1, p2 = s1.payload, s2.payload
        return State(self, trial_factor(w1, p1) * p1 + trial_factor(w2, p2) * p2)

    def outcome_action(self, payloads) -> Action:
        """The action whose outcome j has payload ``payloads[j]`` and label ``outcome<j>``."""
        return Action([Transformation(self, p, f"outcome{j}") for j, p in enumerate(payloads)])


class BipartiteModel(ABC):
    """Two component models embedded side by side in a joint model.

    The defining property is dynamical independence: embedded left and right
    transformations commute (checked, not assumed, by the test suites).
    A composite writes only ``_embed``, ``product_payloads`` and
    ``ambient_rows`` when its joint effects are not array payloads, and
    ``product_table`` when its products have one.  Stacks
    of joint effect payloads are the joint model's (``stack_effects``, ``take``).
    ``ambient_rows`` is only given products the package built, from the
    effects of an ``Observable`` (which checked each one) or from its own
    random draws, so a composite may write it without re-validating them.
    """

    left: TheoryModel
    right: TheoryModel
    joint: TheoryModel

    @abstractmethod
    def _embed(self, t: Transformation, side: int) -> Any:
        """Joint payload of a component transformation acting on ``side`` (1 or
        2); of a stack of them, the stack of their joint payloads."""

    def embed_left(self, t: Transformation) -> Transformation:
        if t.model != self.left:
            raise ModelMismatch("transformation is not bound to the left component")
        return Transformation(self.joint, self._embed(t, 1), t.label)

    def embed_right(self, t: Transformation) -> Transformation:
        if t.model != self.right:
            raise ModelMismatch("transformation is not bound to the right component")
        return Transformation(self.joint, self._embed(t, 2), t.label)

    def product_payloads(self, lefts: Sequence[Effect], rights: Sequence[Effect]):
        """Joint payloads of the products of every left and right effect as one
        stack (see ``TheoryModel.stack_effects``), the product of ``lefts[i]``
        and ``rights[j]`` at index ``i * len(rights) + j``.

        Array payloads: one ``np.kron`` of the stacked local payloads, whose
        leading axis indexes the products."""
        left = np.stack([e.payload for e in lefts])
        right = np.stack([e.payload for e in rights])
        out = np.kron(left[:, None], right[None])
        return out.reshape(-1, *out.shape[2:])

    def product_effect(self, e_left: Effect, e_right: Effect) -> Effect:
        """Joint effect of jointly performing a left and a right outcome."""
        return Effect(self.joint, self.joint.take(self.product_payloads([e_left], [e_right]), 0))

    @property
    def ambient_effect_dim(self) -> int:
        """Effect dimension of the composite system local outcomes probe."""
        return self.joint.effect_dim

    def ambient_rows(self, stack) -> np.ndarray:
        """Coordinates of a stack of joint effect payloads in the ambient
        composite system, one row each, of products the package built."""
        return self.joint.effect_coords(Effect(self.joint, stack))

    def product_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Index table ``(A, B, W)`` of the orthogonal map Q that takes the
        Kronecker product of a left and a right effect's coordinates to the
        ambient row of their product: column c of that row is
        ``sum_t W[t, c] x[A[t, c]] y[B[t, c]]`` (see
        ``linalg.hermitian_product_table``).  None when the products have no
        such map, as on a composite whose products span less than its ambient
        space."""
        return None

    def random_product_effect(self, rng: np.random.Generator) -> Effect:
        tl = self.left.random_transformation(rng)
        tr = self.right.random_transformation(rng)
        return self.product_effect(effect_of(tl), effect_of(tr))

    def random_product_rows(self, seed: int, n: int) -> np.ndarray:
        """Ambient rows of ``n`` random product effects, row k that of
        ``random_product_effect(trial_rng(seed, k))`` bit for bit: every
        trial's raw draws, then one stacked finish of all n.  Each product is
        built by ``product_effect``, so the composite's ``product_payloads``
        builds it."""
        left, right = self.left, self.right
        raw_left, raw_right = draw_trials(
            seed, n, left.draw_transformation, right.draw_transformation
        )
        kl = left.effect_of(left.finish_transformation(*raw_left)).payload
        kr = right.effect_of(right.finish_transformation(*raw_right)).payload
        payloads = []
        for k in range(n):
            pair = Effect(left, left.take(kl, k)), Effect(right, right.take(kr, k))
            payloads.append(self.product_effect(*pair).payload)
        return self.ambient_rows(self.joint.stack_effects(payloads))


# ---------------------------------------------------------------------------
# Generic operations
# ---------------------------------------------------------------------------

def _require_same_model(a, b) -> TheoryModel:
    if a.model != b.model:
        raise ModelMismatch(f"objects belong to different models: {a.model} vs {b.model}")
    return a.model


def prob(state: State, t: Transformation):
    """Occurrence probability of ``t`` in ``state`` (Born-type pairing)."""
    model = _require_same_model(state, t)
    w = state.weight
    if _any_trial(w <= EPS_COND):
        raise ZeroProbability("probability rule of a zero-weight state is undefined")
    return model.evaluate(model.effect_of(t), state) / w


def condition(state: State, t: Transformation) -> State:
    """Bayes update: the state given that ``t`` occurred."""
    model = _require_same_model(state, t)
    p = prob(state, t)
    if _any_trial(p <= EPS_COND):
        raise ZeroProbability(
            f"cannot condition on {t.label or 'transformation'} with probability {np.min(p):.3e}"
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
    if not np.all(model.effect_leq_unit(total)):
        raise NotCoexistent(
            f"effects of {t1.label or 't1'} and {t2.label or 't2'} sum above the unit"
        )
    return model.add_transformations(t1, t2)


def scale(lam, t: Transformation) -> Transformation:
    """Rescale the occurrence probability, keeping the dynamics (``lam`` may
    hold one factor per trial of a stack)."""
    factors = np.asarray(lam)
    if not np.all((0.0 <= factors) & (factors <= 1.0)):
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
    """How far embedded left/right transformations are from commuting; on
    stacks of trials, one defect per trial."""
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
    joint state's weight is read once.  On stacks of trials each shift holds
    one value per trial (fold them with ``worst_defects``)."""
    model = _require_same_model(joint, total)
    w = joint.weight
    if _any_trial(w <= EPS_COND):
        raise ZeroProbability("probability rule of a zero-weight state is undefined")

    def p(t: Transformation) -> float:
        return model.evaluate(model.effect_of(t), joint) / w

    return [abs(p(compose(total, b)) - p(b)) for b in probes]


def embedded_probe_shifts(
    joint: State, action: Action, bip: BipartiteModel, probes: Sequence[Transformation]
) -> list[float]:
    """:func:`probe_shifts` of the embedded total of a left action against
    the embedded right probes; on stacks of trials, one shift per trial and probe."""
    total = reduce(bip.joint.add_transformations, map(bip.embed_left, action.transformations))
    return probe_shifts(joint, total, [bip.embed_right(b) for b in probes])


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
    shifts = embedded_probe_shifts(joint, action, bip, probe)
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
    """Randomized audit of the framework axioms on ``model``: :func:`invariant_report`, run."""
    return invariant_report(model, trials, outcomes, tol).run(seed)


def invariant_report(model: TheoryModel, trials: int, outcomes: int, tol: float) -> TrialReport:
    """The trial sub-report auditing the framework axioms on ``model``.

    Per trial: action completeness, the Bayes chain for composition,
    linearity of transformations on mixtures, monoid laws for composition,
    distributivity of composition over coarse-graining, and additivity of
    coarse-grained probabilities.

    Each trial makes its raw draws alone, from its own generator; the draws
    of a chunk of trials are then finished as stacks and evaluated at once
    (:func:`invariant_defects`), each trial's defects equal to those of its
    objects evaluated alone.
    """

    def draw(rng: np.random.Generator, k: int) -> tuple:
        return (
            model.draw_state(rng),
            model.draw_state(rng),
            model.draw_transformation(rng),
            model.draw_transformation(rng),
            model.draw_transformation(rng),
            model.draw_action(rng, outcomes),
            rng.uniform(0.2, 0.8),
        )

    def evaluate(drawn: list):
        s1, s2, a, b, c, act, lam = zip(*drawn)
        omega, omega2 = (model.finish_state(*raw_columns(s)) for s in (s1, s2))
        ta, tb, tc = (model.finish_transformation(*raw_columns(t)) for t in (a, b, c))
        action = model.finish_action(*raw_columns(act))
        defects = invariant_defects(model, omega, omega2, ta, tb, tc, action, np.array(lam))
        return [(name, rows, values) for name, (rows, values) in defects.items()]

    def finish(report: VerificationReport) -> VerificationReport:
        return replace(report, details={"per_invariant": {c.name: c.defect for c in report.checks}})

    name = f"framework-invariants[{model.name}]"
    return TrialReport(name, draw, evaluate, trials, dict.fromkeys(_INVARIANTS, tol), finish)


def raw_columns(raws) -> list[np.ndarray]:
    """Raw draws' values stacked along a new leading trial axis, one array per value."""
    return [np.array(column) for column in zip(*raws)]


def draw_trials(seed: int, n: int, *draws) -> list[list[np.ndarray]]:
    """The raw draws of trials 0..n-1, trial k's from ``trial_rng(seed, k)``
    (one ``trial_rngs`` batch) by each of ``draws`` in turn, as the
    ``raw_columns`` of each draw."""
    raws = [[draw(rng) for draw in draws] for rng in trial_rngs(seed, range(n))]
    return [raw_columns(column) for column in zip(*raws)]


def take_trials(objects, trials: np.ndarray, n: int) -> list:
    """The stacked states or transformations ``objects`` of ``n`` trials,
    each cut to its sub-stack at the ascending ``trials`` (``TheoryModel.take``);
    as they are when ``trials`` is every trial."""
    if len(trials) == n:
        return list(objects)
    return [replace(x, payload=x.model.take(x.payload, trials)) for x in objects]


def invariant_defects(
    model: TheoryModel,
    omega: State,
    omega2: State,
    ta: Transformation,
    tb: Transformation,
    tc: Transformation,
    action: Action,
    lam: np.ndarray,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """``{invariant: (trials, defects)}`` on stacks of n trials: the trials
    that evaluated each invariant and their defects.

    The Bayes chain and scale conditioning need ``prob(omega, ta) > 1e-6``;
    they run on the sub-stack of trials that satisfy it.
    """
    n = len(lam)
    everyone = np.arange(n)
    ident = model.identity()
    total = sum(prob(omega, t) for t in action.transformations)
    defects = {"completeness": (everyone, np.abs(total - 1.0))}

    pa = prob(omega, ta)
    sub = np.flatnonzero(pa > 1e-6)
    if len(sub):
        o, a, b = take_trials((omega, ta, tb), sub, n)
        chain = prob(condition(o, a), b) * pa[sub]
        direct = prob(o, compose(a, b))
        defects["bayes_chain"] = (sub, np.abs(chain - direct))

    mixed = model.mix_states(omega, omega2, lam, 1.0 - lam)
    applied_mix = model.apply(ta, mixed)
    mix_applied = model.mix_states(
        model.apply(ta, omega), model.apply(ta, omega2), lam, 1.0 - lam
    )
    defects["mixture_linearity"] = (everyone, model.state_distance(applied_mix, mix_applied))

    distance = model.transformation_distance
    defects["associativity"] = (
        everyone, distance(compose(compose(ta, tb), tc), compose(ta, compose(tb, tc)))
    )
    defects["identity_neutral"] = (
        everyone,
        worst_defects(distance(compose(ta, ident), ta), distance(compose(ident, ta), ta)),
    )

    sa = scale(lam, ta)
    sb = scale(1.0 - lam, tb)
    coarse = add_coexistent(sa, sb)
    defects["distributivity"] = (
        everyone,
        distance(
            compose(coarse, tc), model.add_transformations(compose(sa, tc), compose(sb, tc))
        ),
    )
    defects["additivity"] = (
        everyone, np.abs(prob(omega, coarse) - prob(omega, sa) - prob(omega, sb))
    )

    if len(sub):
        defects["scale_conditioning"] = (
            sub, model.state_distance(condition(o, scale(0.3, a)), condition(o, a))
        )
    return defects


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
    def state(self, vec) -> State:
        v = np.asarray(vec, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"state vector must have shape ({self.n},)")
        if not np.isfinite(v).all():
            raise ValueError("state vector entries must be finite (no NaN/Inf)")
        if v.min() < -TOL_EFFECT:
            raise ValueError("state vector has negative entries")
        v = np.clip(v, 0.0, None)
        if abs(v.sum() - 1.0) > TOL_EFFECT:
            raise ValueError(f"state vector sums to {v.sum()}, expected 1")
        return State(self, v)

    def transformation(self, matrix, label: str = "") -> Transformation:
        m = np.asarray(matrix, dtype=float)
        if m.shape != (self.n, self.n):
            raise ValueError(f"transformation matrix must be {self.n}x{self.n}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
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
        return Effect(self, t.payload.sum(axis=-2))

    def apply(self, t: Transformation, s: State) -> State:
        return State(self, np.matmul(t.payload, s.payload[..., None])[..., 0])

    def evaluate(self, e: Effect, s: State):
        return value(vdots(e.payload, s.payload))

    def compose(self, first: Transformation, then: Transformation) -> Transformation:
        return Transformation(self, then.payload @ first.payload)

    def add_transformations(self, t1: Transformation, t2: Transformation) -> Transformation:
        return Transformation(self, t1.payload + t2.payload)

    def scale_transformation(self, lam, t: Transformation) -> Transformation:
        return Transformation(self, trial_factor(lam, t.payload) * t.payload)

    def complement(self, t: Transformation) -> Transformation:
        residual = 1.0 - t.payload.sum(axis=0)
        return Transformation(self, np.diag(np.clip(residual, 0.0, None)))

    def effect_leq_unit(self, e: Effect):
        low, high = e.payload.min(axis=-1), e.payload.max(axis=-1)
        return value((low >= -TOL_EFFECT) & (high <= 1.0 + TOL_EFFECT))

    def effect_coords(self, e: Effect) -> np.ndarray:
        return np.asarray(e.payload, dtype=float)

    def state_distance(self, s1: State, s2: State):
        return value(np.abs(s1.payload - s2.payload).sum(axis=-1))

    def transformation_distance(self, t1: Transformation, t2: Transformation):
        return value(np.abs(t1.payload - t2.payload).max(axis=(-2, -1)))

    def draw_state(self, rng: np.random.Generator) -> tuple:
        return (rng.exponential(size=self.n),)

    def finish_state(self, x) -> State:
        return State(self, simplex(x))

    def draw_transformation(self, rng: np.random.Generator) -> tuple:
        return draw_substochastic(rng, self.n)

    def finish_transformation(self, m, targets) -> Transformation:
        return Transformation(self, substochastic(m, targets), "random")

    def draw_action(self, rng: np.random.Generator, outcomes: int) -> tuple:
        return (draw_stochastic_split(rng, self.n, outcomes),)

    def finish_action(self, parts) -> Action:
        return self.outcome_action(np.moveaxis(stochastic_split(parts), -3, 0))

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
        # np.kron reads a 2-D factor as (1, n, n) next to a stack: trial by trial.
        if side == 1:
            return np.kron(t.payload, np.eye(self.n2))
        return np.kron(np.eye(self.n1), t.payload)

    def product_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return kron_product_table(self.n1, self.n2)
