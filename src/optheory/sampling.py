"""Seeded random generators used by the verification suites.

Every trial draws from its own generator, ``default_rng(SeedSequence([seed,
index]))``, so that results are independent of trial scheduling: sharding
trials across workers cannot change any sampled object.  A loop over trials
takes its generators from :func:`trial_rngs`, which computes the PCG64 seed
words of all of them in one vectorised pass of SeedSequence's hash (a fixed,
data-independent hash: the pool mix, then the output hash) and hands each
generator exactly the words ``SeedSequence([seed, index])`` would; one trial
alone takes :func:`trial_rng`, a batch of one.

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

from collections.abc import Iterable, Iterator
from functools import cache, lru_cache

import numpy as np

from .linalg import trial_factor

# SeedSequence's hash (numpy's ``bit_generator.pyx``, after O'Neill's
# ``seed_seq_fe``): a pool of four 32-bit words, the multipliers of the pool
# mix (A) and of the output hash (B), and the two multipliers of ``mix``.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SHIFT = 16
_MASK = 2**32 - 1
# The PCG64 seed: four 64-bit words, eight 32-bit ones.
_STATE_WORDS = 4


@lru_cache(maxsize=32)
def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The first ``n + 1`` values ``init * mult**i mod 2**32`` of a hash's
    running constant, as a ``(n + 1, 1)`` uint32 column: call ``i`` of the
    hash XORs its value with entry ``i`` and multiplies it by entry ``i + 1``."""
    values = [init]
    for _ in range(n):
        values.append(values[-1] * mult & _MASK)
    return np.array(values, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray, first: int, calls: int) -> np.ndarray:
    """Hash calls ``first..first + calls - 1`` as ``calls`` rows, call ``i``
    on row ``i`` of ``values`` or, for one row, on that row."""
    out = (values ^ consts[first : first + calls]) * consts[first + 1 : first + 1 + calls]
    return out ^ (out >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return out ^ (out >> _SHIFT)


def _int_words(n: int) -> list[int]:
    """``n``'s 32-bit words, least significant first (``[0]`` for 0), as
    SeedSequence splits an entropy integer."""
    words = [n & _MASK]
    while n := n >> 32:
        words.append(n & _MASK)
    return words


def _seed_states(seed: int, indices: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, k]).generate_state(4, np.uint64)`` for every
    ``k`` of ``indices`` (each below 2**32), one row each, in one pass."""
    seed_words = _int_words(seed)
    n = len(indices)
    # The entropy of trial k is seed's words, then k, then zeros up to the pool.
    entropy = np.zeros((max(len(seed_words) + 1, _POOL), n), dtype=np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words)] = indices
    extra = len(entropy) - _POOL
    mix_consts = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra)
    pool = _hashmix(entropy[:_POOL], mix_consts, 0, _POOL)
    call = _POOL
    # Every pool word mixes into each other word, in numpy's order: for a
    # fixed source the three hash calls are independent, so they run as one.
    for src in range(_POOL):
        others = [dst for dst in range(_POOL) if dst != src]
        hashed = _hashmix(pool[src], mix_consts, call, len(others))
        pool[others] = _mix(pool[others], hashed)
        call += len(others)
    for src in range(_POOL, len(entropy)):
        pool = _mix(pool, _hashmix(entropy[src], mix_consts, call, _POOL))
        call += _POOL
    out_consts = _hash_constants(_INIT_B, _MULT_B, 2 * _STATE_WORDS)
    words = _hashmix(np.concatenate([pool, pool]), out_consts, 0, 2 * _STATE_WORDS)
    # As SeedSequence does: little-endian pairs of 32-bit words make the 64-bit ones.
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)


class _TrialSeed:
    """The seed of one trial's generator, a numpy ``ISeedSequence``
    (:func:`_register_trial_seed`): ``entropy`` is ``(seed, k)``, and
    ``generate_state(4, np.uint64)`` returns the words of
    ``SeedSequence([seed, k])``, the only request PCG64 makes.  Any other
    request raises, so that a numpy that asks for more fails loudly rather
    than moving a stream."""

    def __init__(self, seed: int, index: int, state: np.ndarray):
        self.entropy = (seed, index)
        self._state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != _STATE_WORDS or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"a trial seed holds {_STATE_WORDS} uint64 words, "
                f"not {n_words} of {np.dtype(dtype)}"
            )
        return self._state


@cache
def _register_trial_seed() -> None:
    """Make :class:`_TrialSeed` a virtual ``ISeedSequence``, on first use:
    importing ``numpy.random`` with the package would slow every start-up."""
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_TrialSeed)


def trial_rngs(seed: int, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """The generators of the trials ``indices``, in their order: trial ``k``'s
    is ``default_rng(SeedSequence([seed, k]))``, state for state, its seed
    words computed with every other trial's in one vectorised pass.

    ``seed`` is a nonnegative integer and each index lies in ``[0, 2**32)``;
    anything else is a ``ValueError``, raised by the call.  The generators
    are built one at a time, as they are taken."""
    seed = int(seed)
    indices = [int(k) for k in indices]
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if indices and not 0 <= min(indices) <= max(indices) <= _MASK:
        raise ValueError(
            f"trial indices must lie in [0, 2**32), got {min(indices)}..{max(indices)}"
        )
    _register_trial_seed()
    states = _seed_states(seed, np.array(indices, dtype=np.uint32))
    return (
        np.random.default_rng(_TrialSeed(seed, k, state)) for k, state in zip(indices, states)
    )


def trial_rng(seed: int, trial_index: int = 0) -> np.random.Generator:
    """Deterministic per-trial generator keyed on (seed, trial_index): the
    batch of one trial of :func:`trial_rngs`."""
    return next(trial_rngs(seed, [trial_index]))


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


def finite_gram(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``gram`` of a stack of Gaussians ``(n, d, d)``, and the ``(n,)`` mask of
    its trials whose ``G G^dag`` is not finite.  Each of those is replaced by
    the identity, a finite stand-in of nonzero trace, so that ``unit_trace``
    and the validators accept the stack; the caller gives those trials NaN
    defects, so that a NaN in one draw fails that trial alone.

    Only the traces are scanned.  A NaN or infinity in row i of G makes the
    diagonal entry ``|g_i|^2`` not finite, and an off-diagonal entry is at
    most the larger of its two diagonal ones (Cauchy-Schwarz)."""
    p = gram(g)
    broken = ~np.isfinite(np.trace(p, axis1=-2, axis2=-1))
    p[broken] = np.eye(p.shape[-1])
    return p, broken


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
