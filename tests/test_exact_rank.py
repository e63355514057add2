"""An exact rank oracle for the rows of the local-observability audit, d1, d2 <= 4.

Every float is a dyadic rational ``num / den`` (``float.as_integer_ratio``, den
a power of two), so a matrix of floats has an exact rank over Q, decided here
without a tolerance.  Each entry maps to ``num * den^-1 mod p`` with p = 2^31 - 1.
That map is a ring homomorphism from the dyadic rationals onto F_p, so a minor
that is nonzero mod p is nonzero over Q: the rank mod p is a lower bound on the
exact rank.  Elimination runs in numpy int64, where a product of two residues
stays below 2^62.

What the oracle proves:

* Direct sum: the audited rows, random union rows included, are exactly 0.0 in
  the 2 d1 d2 off-block coordinates of C^(d1+d2), so their exact rank is at most
  d1^2 + d2^2; a rank of d1^2 + d2^2 mod p proves that it is exactly that.
* Classical composites, and a dyadic-rational IC family fed through
  ``bip.product_payloads``: their entries are exact, so a full rank mod p proves
  that the products span the composite.  The dyadic family tests the composite
  code apart from the package's POVM constructions.

Caveat: the exact rank of rounded irrational rows is generically full, since
rounding perturbs every entry.  That includes the rows of the built-in
Weyl-Heisenberg orbits (sqrt(2), and the fiducials' entries, are irrational).
For them the oracle only cross-checks the float answer; it proves nothing more.
"""

from functools import lru_cache

import numpy as np
import pytest

from optheory import linalg
from optheory.directsum import DSumBipartite
from optheory.framework import ClassicalBipartite, Effect
from optheory.linalg import rank_of_rows
from optheory.quantum import QuantumBipartite
from optheory.tomography import (
    Observable,
    local_observability_audit,
    minimal_ic_observable,
    product_rows,
)

P = 2**31 - 1
PAIRS = [(d1, d2) for d1 in range(2, 5) for d2 in range(2, 5)]


@lru_cache(maxsize=None)
def _inverse(den: int) -> int:
    return pow(den, -1, P)


def residues(rows) -> np.ndarray:
    """Each float entry ``num / den`` of ``rows`` as ``num * den^-1 mod P``, in int64."""
    m = np.asarray(rows, dtype=float)
    ratios = map(float.as_integer_ratio, m.ravel().tolist())
    flat = [num * _inverse(den) % P for num, den in ratios]
    return np.array(flat, dtype=np.int64).reshape(m.shape)


def rank_mod_p(rows) -> int:
    """Rank over F_P of the residues of ``rows``, by Gaussian elimination."""
    m = residues(rows)
    rank = 0
    for col in range(m.shape[1]):
        if rank == m.shape[0]:
            break
        nonzero = np.flatnonzero(m[rank:, col])
        if not len(nonzero):
            continue
        pivot = rank + nonzero[0]
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = m[rank] * _inverse(int(m[rank, col])) % P
        below = m[rank + 1 :]
        below -= below[:, col : col + 1] * m[rank] % P
        below %= P
        rank += 1
    return rank


def exact_coords(stack) -> np.ndarray:
    """``hermitian_coords`` of a stack of Hermitian matrices without its sqrt(2)
    factors: Re M_ii, then Re M_ij and Im M_ij for i < j.  For dyadic entries
    they are exact, and scaling columns does not change a rank."""
    m = np.asarray(stack)
    i, j = np.triu_indices(m.shape[-1], 1)
    upper = m[..., i, j]
    return np.concatenate([m.diagonal(0, -2, -1).real, upper.real, upper.imag], axis=-1)


def off_block_columns(d1: int, d2: int) -> np.ndarray:
    """Mask of the ambient coordinates of C^(d1+d2) that pair the two sectors,
    in the order of :func:`exact_coords`."""
    i, j = np.triu_indices(d1 + d2, 1)
    cross = (i < d1) & (j >= d1)
    return np.concatenate([np.zeros(d1 + d2, dtype=bool), cross, cross])


def dyadic_ic_effects(d: int, scale: int = 64) -> list[np.ndarray]:
    """d^2 linearly independent effects with dyadic-rational entries summing to I.

    The projectors onto e_j + e_k and e_j + i e_k (j < k), halved, and onto e_j
    (j >= 1) are divided by ``scale``, a power of two; the last effect is I minus
    their sum.  They span Herm(d) since I = sum_j |e_j><e_j| has a nonzero
    coefficient on the missing |e_0><e_0|.  ``scale`` = 64 puts the product
    rows' sigma_min / sigma_max between 5e-6 and 7e-5 for d1, d2 <= 4, well
    inside (RANK_TOL, 1e-3)."""
    parts = []
    for j in range(d):
        for k in range(j + 1, d):
            for phase in (1, 1j):
                v = np.zeros(d, dtype=complex)
                v[j], v[k] = 1, phase
                parts.append(np.outer(v, v.conj()) / 2)
    parts += [np.diag(np.eye(d)[j]).astype(complex) for j in range(1, d)]
    effects = [p / scale for p in parts]
    return effects + [np.eye(d) - sum(effects)]


def dyadic_rows(d1: int, d2: int) -> tuple[np.ndarray, np.ndarray]:
    """The package's product rows of the dyadic family at (d1, d2), and the exact
    coordinates of the same products from ``bip.product_payloads``."""
    bip = QuantumBipartite(d1, d2)
    o1 = Observable(Effect(bip.left, e) for e in dyadic_ic_effects(d1))
    o2 = Observable(Effect(bip.right, e) for e in dyadic_ic_effects(d2))
    payloads = bip.product_payloads(o1.effects, o2.effects)
    return product_rows(o1, o2, bip), exact_coords(payloads)


class TestOracle:
    def test_residues_invert_the_denominator(self):
        r = residues([[0.5, -0.75, 3.0, 0.0]])[0]
        assert [int(x) * 4 % P for x in r] == [2, P - 3, 12, 0]

    def test_rank_of_exactly_dependent_rows(self):
        # 0.1 is not 1/10, but 2 * 0.1 == 0.2 exactly, so these rows are dependent.
        assert rank_mod_p([[0.1, 0.2], [0.2, 0.4]]) == 1
        assert rank_mod_p(np.eye(5)) == 5
        assert rank_mod_p(np.zeros((3, 4))) == 0
        assert rank_mod_p([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]) == 2

    def test_rounded_irrational_rows_are_exactly_full(self):
        # The caveat: fl(1/3) * 3 != 1, so rows that rank_of_rows calls rank 1
        # have exact rank 2.
        rows = [[1.0 / 3.0, 1.0], [1.0, 3.0]]
        assert rank_of_rows(rows) == 1
        assert rank_mod_p(rows) == 2


@pytest.mark.parametrize("d1,d2", PAIRS)
def test_direct_sum_deficit_is_exact(d1, d2):
    bip = DSumBipartite(d1, d2)
    rows = product_rows(minimal_ic_observable(bip.left), minimal_ic_observable(bip.right), bip)
    rows = np.concatenate([rows, bip.random_product_rows(0, bip.ambient_effect_dim + 32)])
    off = off_block_columns(d1, d2)
    assert off.sum() == 2 * d1 * d2
    assert np.all(rows[:, off] == 0.0)
    expected = d1 * d1 + d2 * d2
    assert rank_mod_p(rows[:, ~off]) == expected
    assert rank_of_rows(rows) == expected
    assert local_observability_audit(bip, seed=0).details["rank"] == expected


@pytest.mark.parametrize("d1,d2", PAIRS)
@pytest.mark.parametrize("composite", [ClassicalBipartite, QuantumBipartite])
def test_tensor_product_rows_are_full(composite, d1, d2):
    # Exact for the classical composite; a cross-check only for the quantum one.
    bip = composite(d1, d2)
    rows = product_rows(minimal_ic_observable(bip.left), minimal_ic_observable(bip.right), bip)
    full = bip.ambient_effect_dim
    assert rows.shape == (full, full)
    assert rank_mod_p(rows) == rank_of_rows(rows) == full
    assert local_observability_audit(bip, seed=0).details["product_observable_rank"] == full


@pytest.mark.parametrize("d1,d2", PAIRS)
def test_dyadic_family_products_span_the_composite(d1, d2):
    rows, exact = dyadic_rows(d1, d2)
    k = d1 * d2
    scale = np.concatenate([np.ones(k), np.full(k * k - k, np.sqrt(2))])
    np.testing.assert_allclose(rows, exact * scale, rtol=1e-15, atol=0)
    assert rank_mod_p(exact) == rank_of_rows(rows) == k * k


@pytest.mark.parametrize("d1,d2", [(2, 2), (3, 4), (4, 4)])
def test_loosened_rank_tol_disagrees_with_the_oracle(monkeypatch, d1, d2):
    rows, exact = dyadic_rows(d1, d2)
    full = (d1 * d2) ** 2
    assert rank_mod_p(exact) == rank_of_rows(rows) == full
    monkeypatch.setattr(linalg, "RANK_TOL", 1e-3)
    assert rank_of_rows(rows) < rank_mod_p(exact) == full
