"""Correlation tables: normalization, marginals, CHSH landmarks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optheory.boxes import (
    Box,
    OPTIMAL_CHSH_ANGLES,
    chsh_value,
    classical_chsh_max,
    correlator,
    deterministic_box,
    is_nosignaling_box,
    pr_box,
    signaling_box,
    singlet_box,
)
from optheory.sampling import trial_rng


class TestBoxType:
    def test_rejects_negative(self):
        t = np.full((2, 2, 2, 2), 0.25)
        t[0, 0, 0, 0] = -0.1
        t[0, 0, 1, 1] = 0.6
        with pytest.raises(ValueError):
            Box(t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        t = pr_box().table.copy()
        t[1, 1, 0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Box(t)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Box(np.full((2, 2, 2, 2), 0.3))

    def test_json_roundtrip_ordering(self):
        box = pr_box()
        entries = box.to_json()
        assert len(entries) == 16
        # (x, y, a, b) row-major: entry 0 is p(0,0|0,0) = 1/2 for the PR box.
        assert entries[0] == pytest.approx(0.5)
        again = Box.from_json(entries)
        assert np.array_equal(again.table, box.table)


class TestNoSignaling:
    def test_uniform(self):
        assert is_nosignaling_box(Box(np.full((2, 2, 2, 2), 0.25)))

    def test_pr_box_marginals(self):
        box = pr_box()
        # Oracle by table inspection: every single-party marginal is 1/2.
        for x in range(2):
            for y in range(2):
                for a in range(2):
                    assert box.table[x, y, a, :].sum() == pytest.approx(0.5)
        assert is_nosignaling_box(box, tol=0.0)

    def test_signaling_box_detected(self):
        box = signaling_box()
        assert not is_nosignaling_box(box)


class TestChsh:
    def test_uniform_vanishes(self):
        assert chsh_value(Box(np.full((2, 2, 2, 2), 0.25))) == pytest.approx(0.0, abs=1e-15)

    def test_pr_box_reaches_four(self):
        assert chsh_value(pr_box()) == 4.0

    def test_constant_strategy_reaches_two(self):
        assert chsh_value(deterministic_box((0, 0), (0, 0))) == 2.0

    def test_classical_max_is_two(self):
        assert classical_chsh_max() == 2.0

    def test_all_sixteen_strategies_bounded(self):
        from itertools import product

        values = [
            chsh_value(deterministic_box((a0, a1), (b0, b1)))
            for a0, a1, b0, b1 in product(range(2), repeat=4)
        ]
        assert len(values) == 16
        assert max(abs(v) for v in values) == 2.0

    def test_random_mixtures_stay_classical(self):
        from itertools import product

        strategies = [
            deterministic_box((a0, a1), (b0, b1))
            for a0, a1, b0, b1 in product(range(2), repeat=4)
        ]
        for k in range(100):
            rng = trial_rng(90, k)
            weights = rng.exponential(size=16)
            weights /= weights.sum()
            table = sum(w * s.table for w, s in zip(weights, strategies))
            assert chsh_value(Box(table)) <= 2.0 + 1e-12


class TestSingletBox:
    def test_optimal_angles_reach_tsirelson(self):
        value = chsh_value(singlet_box(OPTIMAL_CHSH_ANGLES))
        assert value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)

    def test_equal_angle_anticorrelation(self):
        for theta in (0.0, 0.7, np.pi / 3):
            box = singlet_box((theta, theta, theta, theta))
            for setting in range(2):
                assert correlator(box, setting, setting) == pytest.approx(-1.0, abs=1e-12)

    def test_always_nosignaling(self):
        for k in range(20):
            rng = trial_rng(91, k)
            angles = tuple(rng.uniform(0, 2 * np.pi, size=4))
            assert is_nosignaling_box(singlet_box(angles), tol=1e-10)

    def test_landmark_ordering(self):
        quantum = chsh_value(singlet_box(OPTIMAL_CHSH_ANGLES))
        assert classical_chsh_max() < quantum < chsh_value(pr_box())


@settings(max_examples=50, deadline=None)
@given(lam=st.floats(0.0, 1.0, allow_nan=False))
def test_chsh_is_affine_in_the_box(lam):
    b1 = pr_box()
    b2 = deterministic_box((0, 1), (1, 0))
    mixed = Box(lam * b1.table + (1.0 - lam) * b2.table)
    expected = lam * chsh_value(b1) + (1.0 - lam) * chsh_value(b2)
    assert chsh_value(mixed) == pytest.approx(expected, abs=1e-12)
