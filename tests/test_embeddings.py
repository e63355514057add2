"""An embedding oracle: the classical and direct-sum models as restrictions
of quantum theory.

Both models are sub-theories of finite-dimensional quantum theory
(Chiribella, D'Ariano, Perinotti, Phys. Rev. A 81, 062348 (2010)):

* ``ClassicalModel(d)`` into ``QuantumModel(d)``: a probability vector p is
  the diagonal state diag(p), and a substochastic S is the operation with
  Kraus set {sqrt(S_ij) |i><j|}.
* ``DSumModel(d1, d2)`` into ``QuantumModel(d1 + d2)``: a block pair is the
  block-diagonal state rho_plus (+) rho_minus, and (K+, K-) is the operation
  with Kraus set {K+_k (+) 0} u {0 (+) K-_k}.

Every model operation therefore has an exact quantum image, a second
implementation to compare against.  The classical L1 and max-abs distances
are the diagonal cases of the trace norm and the Choi max-abs distance, and
the direct sum's distances are the sums and maxima over its sectors.  The
embeddings are written here, not in the library, so that they stay
independent of the code they check.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optheory.directsum import DSumModel
from optheory.framework import ClassicalModel, State, Transformation, compose, condition, prob
from optheory.linalg import direct_sum, trace_norm
from optheory.quantum import KrausOp, QuantumModel
from optheory.sampling import trial_rng

# Largest gap between a model's result and its quantum image.
TOL = 1e-12
# Conditioning is compared only where the outcome is at least this likely.
MIN_PROB = 1e-6
seeds = st.integers(0, 2**32 - 1)


def classical_state(q: QuantumModel, s: State) -> State:
    return State(q, np.diag(s.payload).astype(complex))


def classical_operation(q: QuantumModel, t: Transformation) -> Transformation:
    d = q.d
    kraus = np.zeros((d, d, d, d), dtype=complex)
    i, j = np.indices((d, d))
    kraus[i, j, i, j] = np.sqrt(t.payload)
    return q.operation(KrausOp(kraus.reshape(d * d, d, d)))


def dsum_state(q: QuantumModel, s: State) -> State:
    return State(q, direct_sum(*s.payload.blocks))


def dsum_operation(q: QuantumModel, t: Transformation) -> Transformation:
    plus, minus = (op.kraus for op in t.payload)
    d1, d2 = plus.shape[-1], minus.shape[-1]
    upper = direct_sum(plus, np.zeros((len(plus), d2, d2)))
    lower = direct_sum(np.zeros((len(minus), d1, d1)), minus)
    return q.operation(KrausOp(np.concatenate([upper, lower])))


def oracle_gaps(model, q: QuantumModel, embed_state, embed_op, seed: int) -> dict[str, float]:
    """The gap of each operation between ``model`` and its quantum image, on
    two states and two transformations drawn from ``model``'s own samplers."""
    rng = trial_rng(seed)
    s1, s2 = model.random_state(rng), model.random_state(rng)
    t1, t2 = model.random_transformation(rng), model.random_transformation(rng)
    qs1, qs2 = embed_state(q, s1), embed_state(q, s2)
    qt1, qt2 = embed_op(q, t1), embed_op(q, t2)

    def state_gap(s: State, qs: State) -> float:
        return float(np.abs(embed_state(q, s).payload - qs.payload).max())

    p = prob(s1, t1)
    gaps = {
        "prob": abs(p - prob(qs1, qt1)),
        "apply": state_gap(model.apply(t1, s1), q.apply(qt1, qs1)),
        "compose": q.transformation_distance(embed_op(q, compose(t1, t2)), compose(qt1, qt2)),
        "state_distance": abs(model.state_distance(s1, s2) - q.state_distance(qs1, qs2)),
        "transformation_distance": abs(
            model.transformation_distance(t1, t2) - q.transformation_distance(qt1, qt2)
        ),
    }
    if p > MIN_PROB:
        gaps["condition"] = state_gap(condition(s1, t1), condition(qs1, qt1))
    return gaps


def classical_gaps(d: int, seed: int) -> dict[str, float]:
    model, q = ClassicalModel(d), QuantumModel(d)
    return oracle_gaps(model, q, classical_state, classical_operation, seed)


def dsum_gaps(d1: int, d2: int, seed: int) -> dict[str, float]:
    return oracle_gaps(DSumModel(d1, d2), QuantumModel(d1 + d2), dsum_state, dsum_operation, seed)


@pytest.mark.parametrize("d", [2, 3, 5])
@settings(max_examples=50, deadline=None)
@given(seed=seeds)
def test_classical_model_is_diagonal_quantum_theory(d, seed):
    gaps = classical_gaps(d, seed)
    assert max(gaps.values()) <= TOL, gaps


@pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3), (6, 5)])
@settings(max_examples=50, deadline=None)
@given(seed=seeds)
def test_direct_sum_model_is_block_diagonal_quantum_theory(d1, d2, seed):
    gaps = dsum_gaps(d1, d2, seed)
    assert max(gaps.values()) <= TOL, gaps


def test_oracle_compares_every_operation():
    assert set(dsum_gaps(2, 3, 0)) == {
        "prob", "apply", "condition", "compose", "state_distance", "transformation_distance"
    }


def test_oracle_rejects_a_sector_maximum_as_state_distance(monkeypatch):
    # The sum of the sectors' trace norms is the trace norm of the block-diagonal
    # difference.  Their maximum breaks no named check of any suite.
    def sector_max(self, s1, s2):
        return max(trace_norm(a - b) for a, b in zip(s1.payload.blocks, s2.payload.blocks))

    monkeypatch.setattr(DSumModel, "state_distance", sector_max)
    assert max(dsum_gaps(2, 3, seed)["state_distance"] for seed in range(5)) > 0.1
