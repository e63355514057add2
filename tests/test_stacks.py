"""Stacks of trials: every stacked kernel and finish equals the one-object call.

A stack holds the objects of several trials along a leading axis; quantum
operations of mixed Kraus ranks are held by a ``KrausStack``, grouped by
rank.  Each member of a stacked result must equal, with ``np.array_equal``
(so bit for bit), the one-object call on that member's operands alone, at
that member's index.  The last property runs the invariant suite's stacked
evaluation against the one-object evaluation it replaced, on stacks whose
trials all take, all skip, or partly take the ``pa > 1e-6`` branches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optheory import framework
from optheory.directsum import DSumModel
from optheory.framework import (
    ClassicalModel,
    State,
    add_coexistent,
    compose,
    condition,
    invariant_defects,
    prob,
    scale,
)
from optheory.linalg import trace_norm
from optheory.quantum import (
    KrausOp,
    KrausStack,
    QuantumModel,
    apply_quantum_op,
    choi_distance,
    coarse_grain_kraus,
    compose_kraus,
    draw_kraus,
    finish_kraus,
    finish_outcomes,
    scale_kraus,
)
from optheory.report import worst_defect
from optheory.sampling import (
    complex_gaussian,
    draw_stochastic_split,
    draw_substochastic,
    gram,
    isometry_blocks,
    simplex,
    stochastic_split,
    substochastic,
    trial_rng,
    unit_trace,
)

DIMS = st.sampled_from([2, 3, 6])
RANKS = st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=7)


def _ops(rng, d: int, ranks) -> list[KrausOp]:
    # Scaled so that sums of two stay trace-nonincreasing in most draws; the
    # kernels do not care, they only multiply and add.
    return [
        KrausOp._trusted(0.4 * complex_gaussian(rng, r * d, d).reshape(r, d, d) / np.sqrt(r * d))
        for r in ranks
    ]


def _stack(ops) -> KrausStack:
    pieces = [(np.array([k]), KrausOp._trusted(op.kraus[None])) for k, op in enumerate(ops)]
    return KrausStack.gather(pieces)


def _member(stack: KrausStack, k: int) -> np.ndarray:
    """The Kraus array of trial ``k`` of a stack, through its one-trial sub-stack."""
    (kraus,) = stack[np.array([k])].kraus
    return kraus[0]


def _equal_ops(stack: KrausStack, ops) -> bool:
    return len(stack) == len(ops) and all(
        np.array_equal(_member(stack, k), op.kraus) for k, op in enumerate(ops)
    )


@settings(max_examples=30, deadline=None)
@given(d=DIMS, ranks=RANKS, other=RANKS, seed=st.integers(0, 2**16))
def test_stacked_kraus_kernels_equal_the_one_object_calls(d, ranks, other, seed):
    rng = trial_rng(seed)
    n = len(ranks)
    a = _ops(rng, d, ranks)
    b = _ops(rng, d, (other * n)[:n])
    rhos = np.stack([unit_trace(gram(complex_gaussian(rng, d, d))) for _ in range(n)])
    lam = rng.uniform(0.1, 1.0, size=n)
    ident = KrausOp._trusted([np.eye(d)])
    sa, sb = _stack(a), _stack(b)
    assert _equal_ops(sa, a) and _equal_ops(sb, b)

    trace_ops = sa.trace_operator()
    applied = apply_quantum_op(sa, rhos)
    distances = choi_distance(sa, sb)
    norms = trace_norm(rhos - applied)
    for k in range(n):
        assert np.array_equal(trace_ops[k], a[k].trace_operator())
        assert np.array_equal(applied[k], apply_quantum_op(a[k], rhos[k]))
        assert distances[k] == choi_distance(a[k], b[k])
        assert norms[k] == trace_norm(rhos[k] - applied[k])
    assert _equal_ops(compose_kraus(sa, sb), [compose_kraus(x, y) for x, y in zip(a, b)])
    assert _equal_ops(compose_kraus(sa, ident), [compose_kraus(x, ident) for x in a])
    assert _equal_ops(compose_kraus(ident, sb), [compose_kraus(ident, y) for y in b])
    assert _equal_ops(coarse_grain_kraus(sa, sb), [coarse_grain_kraus(x, y) for x, y in zip(a, b)])
    assert _equal_ops(scale_kraus(lam, sa), [scale_kraus(float(x), y) for x, y in zip(lam, a)])
    # A sub-stack keeps each chosen trial's operation, renumbered in order.
    chosen = np.flatnonzero(lam > 0.5)
    assert _equal_ops(sa[chosen], [a[k] for k in chosen])


@settings(max_examples=30, deadline=None)
@given(d=DIMS, n=st.integers(1, 6), outcomes=st.integers(2, 4), seed=st.integers(0, 2**16))
def test_stacked_finishes_equal_the_one_object_finishes(d, n, outcomes, seed):
    rng = trial_rng(seed)
    raws = [
        (
            complex_gaussian(rng, d, d),
            complex_gaussian(rng, outcomes * d, d),
            draw_kraus(rng, d, 0.3),
            rng.exponential(size=d),
            draw_substochastic(rng, d),
            draw_stochastic_split(rng, d, outcomes),
        )
        for _ in range(n)
    ]
    g, a, kraus, x, sub, parts = zip(*raws)
    g, a, x, parts = map(np.array, (g, a, x, parts))
    states = unit_trace(gram(g))
    blocks = isometry_blocks(a, outcomes)
    ops = finish_kraus(*map(np.array, zip(*kraus)))
    outs = finish_outcomes(a, d)
    points = simplex(x)
    matrices = substochastic(*map(np.array, zip(*sub)))
    splits = stochastic_split(parts)
    assert _equal_ops(ops, [finish_kraus(*raw) for raw in kraus])
    for k in range(n):
        assert np.array_equal(states[k], unit_trace(gram(g[k])))
        assert np.array_equal(blocks[k], isometry_blocks(a[k], outcomes))
        for stacked, alone in zip(outs, finish_outcomes(a[k], d)):
            assert np.array_equal(_member(stacked, k), alone.kraus)
        assert np.array_equal(points[k], simplex(x[k]))
        assert np.array_equal(matrices[k], substochastic(*sub[k]))
        assert np.array_equal(splits[k], stochastic_split(parts[k]))


def _model(kind: str, d: int):
    models = {"classical": ClassicalModel(d), "quantum": QuantumModel(d), "dsum": DSumModel(d, 2)}
    return models[kind]


def _one_trial(model, omega, omega2, ta, tb, tc, action, lam) -> dict[str, float]:
    """The invariants of one trial through the one-object operations: the
    per-trial evaluation that the stacked one replaced."""
    ident = model.identity()
    total = sum(prob(omega, t) for t in action.transformations)
    defects = {"completeness": abs(total - 1.0)}
    pa = prob(omega, ta)
    if pa > 1e-6:
        chain = prob(condition(omega, ta), tb) * pa
        defects["bayes_chain"] = abs(chain - prob(omega, compose(ta, tb)))
    mixed = model.mix_states(omega, omega2, lam, 1.0 - lam)
    mix_applied = model.mix_states(model.apply(ta, omega), model.apply(ta, omega2), lam, 1.0 - lam)
    defects["mixture_linearity"] = model.state_distance(model.apply(ta, mixed), mix_applied)
    distance = model.transformation_distance
    defects["associativity"] = distance(compose(compose(ta, tb), tc), compose(ta, compose(tb, tc)))
    defects["identity_neutral"] = worst_defect(
        distance(compose(ta, ident), ta), distance(compose(ident, ta), ta)
    )
    sa, sb = scale(lam, ta), scale(1.0 - lam, tb)
    coarse = add_coexistent(sa, sb)
    defects["distributivity"] = distance(
        compose(coarse, tc), model.add_transformations(compose(sa, tc), compose(sb, tc))
    )
    defects["additivity"] = abs(prob(omega, coarse) - prob(omega, sa) - prob(omega, sb))
    if prob(omega, ta) > 1e-6:
        defects["scale_conditioning"] = model.state_distance(
            condition(omega, scale(0.3, ta)), condition(omega, ta)
        )
    return defects


# Factors applied to ta per trial: 1e-8 pushes prob(omega, ta) below 1e-6.
BRANCHES = {
    "all-take": lambda n: np.ones(n),
    "all-skip": lambda n: np.full(n, 1e-8),
    "mixed": lambda n: np.where(np.arange(n) % 2 == 0, 1.0, 1e-8),
}


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["classical", "quantum", "dsum"]),
    d=DIMS,
    n=st.integers(1, 6),
    branch=st.sampled_from(sorted(BRANCHES)),
    seed=st.integers(0, 2**16),
)
def test_stacked_invariants_equal_the_one_object_evaluation(kind, d, n, branch, seed):
    model = _model(kind, d)
    draws = []
    for k in range(n):
        rng = trial_rng(seed, k)
        draws.append(
            (
                model.draw_state(rng),
                model.draw_state(rng),
                *(model.draw_transformation(rng) for _ in range(3)),
                model.draw_action(rng, 3),
                rng.uniform(0.2, 0.8),
            )
        )
    factors = BRANCHES[branch](n)
    s1, s2, a, b, c, act, lam = zip(*draws)

    def columns(raws):
        return [np.array(col) for col in zip(*raws)]

    stacked = invariant_defects(
        model,
        model.finish_state(*columns(s1)),
        model.finish_state(*columns(s2)),
        scale(factors, model.finish_transformation(*columns(a))),
        model.finish_transformation(*columns(b)),
        model.finish_transformation(*columns(c)),
        model.finish_action(*columns(act)),
        np.array(lam),
    )
    for k, (r1, r2, ra, rb, rc, ract, lam_k) in enumerate(draws):
        alone = _one_trial(
            model,
            model.finish_state(*r1),
            model.finish_state(*r2),
            scale(float(factors[k]), model.finish_transformation(*ra)),
            model.finish_transformation(*rb),
            model.finish_transformation(*rc),
            model.finish_action(*ract),
            lam_k,
        )
        at_k = {
            name: float(np.broadcast_to(values, trials.shape)[list(trials).index(k)])
            for name, (trials, values) in stacked.items()
            if k in trials
        }
        assert at_k == alone
        assert ("bayes_chain" in alone) == (factors[k] == 1.0)


def test_a_zero_weight_trial_raises_for_the_whole_stack():
    model = ClassicalModel(2)
    omega = State(model, np.array([[0.5, 0.5], [0.0, 0.0]]))
    with pytest.raises(framework.ZeroProbability):
        prob(omega, model.identity())
