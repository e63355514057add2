"""Two-input/two-output correlation tables: CHSH landmarks and no-signaling.

The three reference points: deterministic local strategies reach CHSH 2
(exhaustive over all 16 strategies), projective measurements on the singlet
reach 2*sqrt(2), and the extremal no-signaling table reaches 4.  The gap
between the last two is what makes no-signaling alone strictly weaker than
quantum theory at the level of statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .linalg import json_numbers
from .quantum import bloch_projectors, singlet_state

# Angles (alice0, alice1, bob0, bob1) at which the singlet attains 2*sqrt(2)
# under the convention below (angle = Bloch angle of cos(t) Z + sin(t) X and
# outcome a contributes (-1)^a).
OPTIMAL_CHSH_ANGLES = (0.0, np.pi / 2, 5 * np.pi / 4, 3 * np.pi / 4)


@dataclass(frozen=True, eq=False)
class Box:
    """Conditional distribution p(a, b | x, y), stored as table[x, y, a, b]."""

    table: np.ndarray

    def __init__(self, table):
        t = np.asarray(table, dtype=float)
        if t.shape != (2, 2, 2, 2):
            raise ValueError(f"box table must have shape (2, 2, 2, 2), got {t.shape}")
        if not np.isfinite(t).all():
            raise ValueError("box probabilities must be finite (no NaN/Inf)")
        if t.min() < 0.0:
            raise ValueError("box probabilities must be nonnegative")
        with np.errstate(over="ignore"):  # finite entries summing to inf fail below
            sums = t.sum(axis=(2, 3))
        if np.abs(sums - 1.0).max() > 1e-12:
            raise ValueError("each setting pair must have normalized outcomes")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    def p(self, a: int, b: int, x: int, y: int) -> float:
        return float(self.table[x, y, a, b])

    def to_json(self) -> list[float]:
        """16 entries ordered (x, y, a, b) row-major."""
        return [float(v) for v in self.table.ravel()]

    @staticmethod
    def from_json(entries) -> "Box":
        """The box of 16 JSON numbers, bare or under the key ``"p"``."""
        if isinstance(entries, dict):
            entries = entries["p"]
        values = json_numbers(entries, "p")
        if values.shape != (16,):
            raise ValueError("box JSON must hold exactly 16 entries")
        return Box(values.reshape(2, 2, 2, 2))


def is_nosignaling_box(box: Box, tol: float = 1e-10) -> bool:
    """Marginals of each party must not depend on the other party's setting."""
    alice = box.table.sum(axis=3)  # p(a | x, y)
    bob = box.table.sum(axis=2)  # p(b | x, y)
    alice_shift = np.abs(alice[:, 0, :] - alice[:, 1, :]).max()
    bob_shift = np.abs(bob[0, :, :] - bob[1, :, :]).max()
    return bool(max(alice_shift, bob_shift) <= tol)


def correlator(box: Box, x: int, y: int) -> float:
    """E_xy = sum_ab (-1)^(a xor b) p(a, b | x, y)."""
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return float((box.table[x, y] * signs).sum())


def chsh_value(box: Box) -> float:
    """S = E00 + E01 + E10 - E11."""
    return (
        correlator(box, 0, 0)
        + correlator(box, 0, 1)
        + correlator(box, 1, 0)
        - correlator(box, 1, 1)
    )


def pr_box() -> Box:
    """The extremal no-signaling table: a xor b = x and y, uniformly."""
    t = np.zeros((2, 2, 2, 2))
    for x, y, a, b in product(range(2), repeat=4):
        if a ^ b == x * y:
            t[x, y, a, b] = 0.5
    return Box(t)


def deterministic_box(alice_outputs: tuple[int, int], bob_outputs: tuple[int, int]) -> Box:
    """Local deterministic strategy a = f(x), b = g(y)."""
    t = np.zeros((2, 2, 2, 2))
    for x, y in product(range(2), repeat=2):
        t[x, y, alice_outputs[x], bob_outputs[y]] = 1.0
    return Box(t)


def signaling_box() -> Box:
    """A normalized table whose Alice marginal tracks Bob's setting (signaling)."""
    t = np.zeros((2, 2, 2, 2))
    for x, y in product(range(2), repeat=2):
        t[x, y, y, 0] = 1.0
    return Box(t)


def classical_chsh_max() -> float:
    """Exhaustive maximum of CHSH over the 16 local deterministic strategies."""
    best = -np.inf
    for a0, a1, b0, b1 in product(range(2), repeat=4):
        best = max(best, chsh_value(deterministic_box((a0, a1), (b0, b1))))
    return float(best)


def singlet_box(angles: tuple[float, float, float, float]) -> Box:
    """Statistics of projective measurements on the singlet.

    ``angles`` is (alice0, alice1, bob0, bob1); angle t selects the
    projectors of cos(t) Z + sin(t) X, outcome 0 being the + eigenstate.
    No-signaling holds for every angle choice because the measurements act
    on separate tensor factors.
    """
    a0, a1, b0, b1 = angles
    rho = singlet_state()
    alice = [bloch_projectors(a0), bloch_projectors(a1)]
    bob = [bloch_projectors(b0), bloch_projectors(b1)]
    t = np.zeros((2, 2, 2, 2))
    for x, y, a, b in product(range(2), repeat=4):
        op = np.kron(alice[x][a], bob[y][b])
        t[x, y, a, b] = float(np.trace(op @ rho).real)
    return Box(np.clip(t, 0.0, None))
