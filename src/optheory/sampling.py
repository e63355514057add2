"""Seeded random generators used by the verification suites.

Every trial draws from ``trial_rng(seed, index)`` so that results are
independent of trial scheduling: sharding trials across workers cannot
change any sampled object.
"""

from __future__ import annotations

import numpy as np


def trial_rng(seed: int, trial_index: int = 0) -> np.random.Generator:
    """Deterministic per-trial generator keyed on (seed, trial_index)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(trial_index)]))


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def ginibre_positive(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random positive operator G G^dag from a complex Gaussian G (full rank a.s.)."""
    g = complex_gaussian(rng, d, d)
    return g @ g.conj().T


def ginibre_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random density matrix: Ginibre positive operator normalized to unit trace."""
    p = ginibre_positive(rng, d)
    return p / np.trace(p).real


def haar_isometry_blocks(rng: np.random.Generator, d: int, n: int) -> list[np.ndarray]:
    """Slice a Haar-random (n*d) x d isometry into n square blocks.

    The blocks M_1..M_n satisfy sum_k M_k^dag M_k = I up to QR roundoff, so
    they form a complete quantum instrument.
    """
    a = complex_gaussian(rng, n * d, d)
    q, r = np.linalg.qr(a)
    # Fix the gauge so the isometry is a deterministic function of a.
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    q = q * phases.conj()
    return [q[k * d : (k + 1) * d, :] for k in range(n)]


def random_simplex_point(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform probability vector via normalized exponentials."""
    x = rng.exponential(size=n)
    return x / x.sum()


def random_substochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    """Nonnegative n x n matrix with all column sums <= 1."""
    m = rng.uniform(size=(n, n))
    scale = rng.uniform(0.1, 1.0, size=n) / m.sum(axis=0)
    return m * np.minimum(scale, 1.0)


def random_stochastic_split(rng: np.random.Generator, n: int, k: int) -> list[np.ndarray]:
    """k nonnegative matrices whose sum has every column sum exactly 1."""
    parts = [rng.uniform(size=(n, n)) for _ in range(k)]
    total = np.sum(parts, axis=0).sum(axis=0)
    return [p / total for p in parts]
