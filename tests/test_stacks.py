"""Stacks of trials: every stacked kernel and finish equals the one-object call.

A stack holds the objects of several trials along a leading axis; quantum
operations of mixed Kraus ranks are one ``KrausOp`` of shape
``(n, r, d, d)``, each trial padded with zero operators to the largest rank
r.  Each member of a stacked result, its zero operators dropped, must equal,
with ``np.array_equal`` (so bit for bit), the one-object call on that
member's operands alone, at that member's index.  Padding changes no
result only because every sum the kernels form is exact on zero terms: a
BLAS whose sums were not would fail these properties.  The last property
runs the invariant suite's stacked evaluation against the one-object
evaluation it replaced, on stacks whose trials all take, all skip, or
partly take the ``pa > 1e-6`` branches.
The composites' embeddings, the quantum no-signaling kernel and the Choi
distance of large joint operations are compared with their one-trial forms
the same way.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optheory import framework
from optheory.directsum import DSumBipartite, DSumModel
from optheory.framework import (
    ClassicalBipartite,
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
    CHOI_BLOCK,
    CHOI_STACK_ENTRIES,
    CHOI_TILE,
    KrausOp,
    QuantumBipartite,
    Instrument,
    QuantumModel,
    apply_quantum_op,
    choi_distance,
    coarse_grain_kraus,
    compose_kraus,
    draw_kraus,
    finish_kraus,
    finish_outcomes,
    quantum_no_signaling_check,
    quantum_no_signaling_defects,
    require_hermitian,
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


def _stack(ops) -> KrausOp:
    """The operations ``ops`` as one stack, each padded with zero operators to the largest rank."""
    kraus = np.zeros((len(ops), max(len(op.kraus) for op in ops), *ops[0].kraus.shape[1:]), complex)
    for k, op in enumerate(ops):
        kraus[k, : len(op.kraus)] = op.kraus
    return KrausOp._trusted(kraus)


def _member(stack: KrausOp, k: int) -> np.ndarray:
    """The Kraus array of trial ``k`` of a stack, through its one-trial sub-stack,
    without its zero operators."""
    (kraus,) = stack[np.array([k])].kraus
    return kraus[kraus.any(axis=(-2, -1))]


def _equal_ops(stack: KrausOp, ops) -> bool:
    return len(stack.kraus) == len(ops) and all(
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
    # Each trial's padding is exact positive zeros: no -0.0 reaches a sum.
    for k, (_, keep, _) in enumerate(kraus):
        padding = ops.kraus[k, keep:].view(float)
        assert not padding.any() and not np.signbit(padding).any()
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


# ---------------------------------------------------------------------------
# The kernels of the composite and quantum no-signaling loops
# ---------------------------------------------------------------------------

COMPOSITES = {"classical": ClassicalBipartite, "quantum": QuantumBipartite, "dsum": DSumBipartite}


def _equal_payloads(stacked, alone, k: int) -> bool:
    """Whether trial ``k`` of a stacked payload (an array, a stacked KrausOp
    or a pair of them) equals a one-trial payload bit for bit."""
    if isinstance(alone, tuple):
        return all(_equal_payloads(s, a, k) for s, a in zip(stacked, alone))
    if isinstance(alone, KrausOp):
        return np.array_equal(_member(stacked, k), alone.kraus)
    return np.array_equal(stacked[k], alone)


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(sorted(COMPOSITES)),
    d1=DIMS,
    d2=DIMS,
    n=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_stacked_embeddings_equal_the_one_trial_embeddings(kind, d1, d2, n, seed):
    bip = COMPOSITES[kind](d1, d2)
    for side, model in ((1, bip.left), (2, bip.right)):
        raws = [model.draw_transformation(trial_rng(seed, k)) for k in range(n)]
        stacked = bip._embed(model.finish_transformation(*map(np.array, zip(*raws))), side)
        for k, raw in enumerate(raws):
            alone = bip._embed(model.finish_transformation(*raw), side)
            assert _equal_payloads(stacked, alone, k), (side, k)


def _one_trial_no_signaling(rho, outcomes, d1, d2):
    """The averaged-instrument defect and each outcome's trace and reduced
    defects of one state, by the one-trial formula the stacked kernel replaced:
    each Kraus operator's remote reduction one diagonal block at a time,
    ``sum_i conj(K[i, :]) Y[(i, :), (:, :)]`` with ``Y = (K (x) I) R``, and
    its own einsum for the partial trace of R."""
    r = require_hermitian(rho)
    starts = np.cumsum([0, *(len(op.kraus) for op in outcomes[:-1])])
    per_kraus = []
    for k in np.concatenate([op.kraus for op in outcomes]):
        y = (k @ r.reshape(d1, -1)).reshape(d1, d2, d1, d2)
        block = k[0].conj() @ y[0]
        for i in range(1, d1):
            block = block + k[i].conj() @ y[i]
        per_kraus.append(block)
    reduced = np.add.reduceat(np.array(per_kraus), starts)
    traces = np.trace(reduced, axis1=1, axis2=2).real
    before = np.einsum("ikil->kl", r.reshape(d1, d2, d1, d2))
    shifts = np.concatenate([reduced, reduced.sum(axis=0)[None]]) - before
    norms = np.linalg.svd(shifts, compute_uv=False).sum(axis=-1)
    weight = float(np.trace(r).real)
    return float(norms[-1]), [abs(float(t) - weight) for t in traces], norms[:-1].tolist()


@settings(max_examples=20, deadline=None)
@given(
    d1=DIMS,
    d2=DIMS,
    n=st.integers(1, 6),
    outcomes=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_stacked_no_signaling_kernel_equals_the_one_trial_check(d1, d2, n, outcomes, seed):
    # Instruments of 1 to 4 outcomes from the blocks of a Haar isometry: trial
    # k merges blocks j and j+1, j = k mod outcomes, into one outcome of Kraus
    # rank 2, so the outcomes' ranks vary by trial and their stacks are padded.
    rng = trial_rng(seed)
    rhos = unit_trace(gram(complex_gaussian(rng, n * d1 * d2, d1 * d2).reshape(n, d1 * d2, -1)))
    instruments = []
    for k in range(n):
        blocks = isometry_blocks(complex_gaussian(rng, (outcomes + 1) * d1, d1), outcomes + 1)
        j = k % outcomes
        edges = [*range(j + 1), *range(j + 2, outcomes + 2)]
        instruments.append([KrausOp._trusted(blocks[a:b]) for a, b in zip(edges, edges[1:])])
    stacks = [_stack(ops) for ops in zip(*instruments)]
    no_signaling, traces, reduced = quantum_no_signaling_defects(rhos, stacks, d1, d2)
    for k, ops in enumerate(instruments):
        average, trace_defects, reduced_defects = _one_trial_no_signaling(rhos[k], ops, d1, d2)
        assert no_signaling[k] == average
        assert traces[k].tolist() == trace_defects and reduced[k].tolist() == reduced_defects
        report = quantum_no_signaling_check(rhos[k], Instrument(ops), d1, d2)
        assert report.checks[0].defect == average
        assert report.details["outcomes"] == [
            {"trace_defect": t, "reduced_defect": x}
            for t, x in zip(trace_defects, reduced_defects)
        ]


def test_stacked_choi_distance_at_d36_equals_the_one_trial_distances():
    # One trial's block product is CHOI_BLOCK x 1296 entries, more than
    # CHOI_STACK_ENTRIES allow two of: each trial is taken alone, in real
    # arithmetic, after its zero Kraus operators are dropped.
    assert CHOI_STACK_ENTRIES < 2 * CHOI_BLOCK * 36**2
    rng = trial_rng(64)
    a = _ops(rng, 36, [1, 2, 2, 1, 2, 3])
    a[5].kraus[1] = 0  # an exactly-zero Kraus operator between two live ones
    a.append(KrausOp._trusted(np.zeros((2, 36, 36))))  # the zero operation
    b = _ops(rng, 36, [1] * 7)
    distances = choi_distance(_stack(a), _stack(b))
    same_rank = choi_distance(KrausOp._trusted(np.stack([a[1].kraus, a[2].kraus])), b[2])
    broadcast = choi_distance(_stack(a), b[0])
    for k in range(7):
        assert distances[k] == choi_distance(a[k], b[k])
    assert distances[5] == choi_distance(KrausOp._trusted(a[5].kraus[[0, 2]]), b[5])
    assert distances[6] == choi_distance(KrausOp._trusted(np.zeros((1, 36, 36))), b[6]) > 0.0
    assert same_rank.tolist() == [choi_distance(a[k], b[2]) for k in (1, 2)]
    assert broadcast.tolist() == [choi_distance(x, b[0]) for x in a]


def test_the_one_trial_choi_route_multiplies_only_live_kraus_operators(monkeypatch):
    # Dropping the exactly-zero operators, not the BLAS, makes a padded trial
    # give its unpadded distance: each real product's inner dimension is
    # twice the trial's live operators, and one zero operator stands in for
    # a side with none.
    inner, matmul = [], np.matmul

    def spy(x, y, **kwargs):
        inner.append(x.shape[-1])
        return matmul(x, y, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    rng = trial_rng(66)
    a = _ops(rng, 36, [1, 3, 2])
    a[1].kraus[1] = 0
    a[2].kraus[:] = 0
    b = _ops(rng, 36, [2, 2, 1])
    choi_distance(_stack(a), _stack(b))
    products = 2 * (6 * 7 // 2)  # Re and Im on the upper triangle of 6 x 6 tiles
    assert 36**2 == 6 * CHOI_TILE
    assert inner == [2 * (1 + 2)] * products + [2 * (2 + 2)] * products + [2 * (1 + 1)] * products


def test_a_stacked_choi_distance_at_d36_keeps_its_temporaries_small():
    # Taken all at once, six trials' block products alone would take 8 MB.
    rng = trial_rng(65)
    a = KrausOp._trusted(np.stack([op.kraus for op in _ops(rng, 36, [2] * 6)]))
    b = KrausOp._trusted(np.stack([op.kraus for op in _ops(rng, 36, [1] * 6)]))
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        choi_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 4e6
