"""Seeded random generators used by the verification suites.

Every trial draws from ``trial_rng(seed, index)`` so that results are
independent of trial scheduling: sharding trials across workers cannot
change any sampled object.

Each sampler is a raw draw, which makes every call on the generator, and a
deterministic finish, which consumes no randomness: the QR and gauge fix of
a Haar isometry, ``G G^dag`` and its trace normalisation, the simplex and
substochastic normalisations.  A finish works on the matrices or vectors on
its input's last axes, so it finishes one raw draw or, in one call, a stack
of raw draws with a leading trial axis; each member of the stack equals the
finish of that member alone, bit for bit.  A one-object sampler is the
finish of its own raw draw.
"""

from __future__ import annotations

import numpy as np

from .linalg import trial_factor


def trial_rng(seed: int, trial_index: int = 0) -> np.random.Generator:
    """Deterministic per-trial generator keyed on (seed, trial_index)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(trial_index)]))


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A ``(rows, cols)`` complex Gaussian: one ``standard_normal`` call for
    the real parts, then one for the imaginary parts, filled in place."""
    out = np.empty((rows, cols), dtype=complex)
    out.real = rng.standard_normal((rows, cols))
    out.imag = rng.standard_normal((rows, cols))
    return out


def gram(g: np.ndarray) -> np.ndarray:
    """``G G^dag`` of every matrix on the last two axes: the finish of
    :func:`ginibre_positive`."""
    return g @ g.conj().swapaxes(-1, -2)


def unit_trace(p: np.ndarray) -> np.ndarray:
    """Every matrix on the last two axes divided by its real trace."""
    return p / trial_factor(np.trace(p, axis1=-2, axis2=-1).real, p)


def ginibre_positive(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random positive operator G G^dag from a complex Gaussian G (full rank a.s.)."""
    return gram(complex_gaussian(rng, d, d))


def ginibre_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random density matrix: Ginibre positive operator normalized to unit trace.
    Its raw draw is ``complex_gaussian(rng, d, d)``, its finish ``unit_trace(gram(g))``."""
    return unit_trace(ginibre_positive(rng, d))


def isometry_blocks(a: np.ndarray, n: int) -> np.ndarray:
    """The finish of :func:`haar_isometry_blocks`: the gauge-fixed Q factor of
    every ``(n*d, d)`` Gaussian on the last two axes, as ``(..., n, d, d)`` blocks."""
    q, r = np.linalg.qr(a)
    # Fix the gauge so the isometry is a deterministic function of a.
    diagonal = r.diagonal(0, -2, -1)
    q = q * (diagonal / np.abs(diagonal)).conj()[..., None, :]
    d = q.shape[-1]
    return q.reshape(*q.shape[:-2], n, d, d)


def haar_isometry_blocks(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """Slice a Haar-random (n*d) x d isometry into n square blocks, ``(n, d, d)``.

    The blocks M_1..M_n satisfy sum_k M_k^dag M_k = I up to QR roundoff, so
    they form a complete quantum instrument.  The raw draw is
    ``complex_gaussian(rng, n * d, d)``.
    """
    return isometry_blocks(complex_gaussian(rng, n * d, d), n)


def simplex(x: np.ndarray) -> np.ndarray:
    """Every vector on the last axis divided by its sum: a uniform probability
    vector for a raw draw of n exponentials, ``rng.exponential(size=n)``."""
    return x / x.sum(axis=-1, keepdims=True)


def draw_substochastic(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw draw of a random nonnegative n x n matrix with all column sums <= 1:
    the entries, then the column targets."""
    return rng.uniform(size=(n, n)), rng.uniform(0.1, 1.0, size=n)


def substochastic(m: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Finish of :func:`draw_substochastic`: each column of ``m`` scaled to sum
    to its target, or left alone when it sums to less."""
    scale = targets / m.sum(axis=-2)
    return m * np.minimum(scale, 1.0)[..., None, :]


def draw_stochastic_split(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Raw draw of k nonnegative matrices whose sum has every column sum 1:
    k uniform n x n parts, one generator call each."""
    return np.array([rng.uniform(size=(n, n)) for _ in range(k)])


def stochastic_split(parts: np.ndarray) -> np.ndarray:
    """Finish of :func:`draw_stochastic_split`: the ``(..., k, n, n)`` parts
    divided by the column sums of their total."""
    total = parts.sum(axis=-3).sum(axis=-2)
    return parts / total[..., None, None, :]
