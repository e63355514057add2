"""Exact algebra on Gaussian-integer Kraus sets.

Every Kraus entry lies in [-8, 8] + i[-8, 8].  The products and sums that
``local_embed``, ``compose_kraus`` and ``choi_distance`` form from such
entries stay integers far below 2**53, so float64 computes them exactly,
whatever BLAS's summation order.  A true polynomial identity therefore leaves
a defect of exactly 0.0, and a false one a nonzero defect.  A nonzero
polynomial of degree k vanishes at a uniform point of a grid of side 17 with
probability at most k/17 (DeMillo and Lipton, IPL 7(4), 1978; Schwartz, JACM
27(4), 1980), and independent seeds multiply those odds.

The kernels are the unvalidated ones (``KrausOp._trusted``): integer Kraus
sets do not preserve or decrease the trace, and these identities need no
physics.
"""

import numpy as np
import pytest

from optheory.framework import Transformation
from optheory.quantum import (
    KrausOp,
    QuantumModel,
    choi_distance,
    compose_kraus,
    local_embed,
    scale_kraus,
)
from optheory.sampling import trial_rng

DIMS = [(2, 2), (3, 3)]
SEEDS = range(4)


def integer_kraus(rng: np.random.Generator, d: int) -> KrausOp:
    """One to three d x d Kraus operators with entries in [-8, 8] + i[-8, 8]."""
    re, im = rng.integers(-8, 9, size=(2, int(rng.integers(1, 4)), d, d))
    return KrausOp._trusted(re + 1j * im)


def embedded_pair(seed: int, d1: int, d2: int) -> tuple[KrausOp, KrausOp]:
    """An integer operation on side 1 and one on side 2, embedded in the joint space."""
    rng = trial_rng(seed)
    a, b = integer_kraus(rng, d1), integer_kraus(rng, d2)
    return local_embed(a, d2, 1), local_embed(b, d1, 2)


def commutation_defect(a: KrausOp, b: KrausOp) -> float:
    return choi_distance(compose_kraus(a, b), compose_kraus(b, a))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_embedded_sides_commute_exactly(dims, seed):
    a, b = embedded_pair(seed, *dims)
    composed = compose_kraus(a, b).kraus
    # The premise of exactness: integer entries, small enough that every
    # entry of the Choi difference is an integer below 2**53.
    assert np.array_equal(composed, np.round(composed))
    assert np.abs(composed.view(float)).max() < 2**20
    assert commutation_defect(a, b) == 0.0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_composing_with_the_identity_is_exact(dims, seed):
    model = QuantumModel(dims[0] * dims[1])
    t = Transformation(model, integer_kraus(trial_rng(seed), model.d))
    ident = model.identity()
    assert model.transformation_distance(model.compose(ident, t), t) == 0.0
    assert model.transformation_distance(model.compose(t, ident), t) == 0.0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_a_one_entry_leak_in_the_side2_embedding_is_caught(dims, seed):
    d1, d2 = dims
    a, b = embedded_pair(seed, d1, d2)
    leaky = b.kraus.copy()
    leaky[0, 0, d2] += 1  # <0,0| K |1,0>: a move of side 1
    assert commutation_defect(a, KrausOp._trusted(leaky)) > 0.0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_a_compose_scaled_by_one_plus_1e_9_is_caught(dims, seed, monkeypatch):
    # Every composed map scaled by 1 + 1e-9: this mutant passes opcore at (2,2),
    # whose float gates sit at 1e-10 and above.
    compose = QuantumModel.compose

    def scaled(self, first, then):
        t = compose(self, first, then)
        return Transformation(self, scale_kraus(1 + 1e-9, t.payload), t.label)

    monkeypatch.setattr(QuantumModel, "compose", scaled)
    model = QuantumModel(dims[0] * dims[1])
    t = Transformation(model, integer_kraus(trial_rng(seed), model.d))
    assert model.transformation_distance(model.compose(model.identity(), t), t) > 0.0
