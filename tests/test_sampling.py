"""Batched trial generators: ``trial_rngs`` hands trial k exactly the
generator ``default_rng(SeedSequence([seed, k]))`` would be."""

import numpy as np
import pytest

from optheory.report import trial_outcomes
from optheory.sampling import trial_rng, trial_rngs

# One-word, two-word and many-word seeds, each side of a word boundary.
SEEDS = [0, 1, 7, 123456, 2**32 - 1, 2**32, 2**40 + 5, 2**70 + 3, 2**200 + 9]
INDICES = [*range(2001), 2**32 - 1]


def _reference(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, k]))


def _state_words(rng: np.random.Generator) -> np.ndarray:
    return rng.bit_generator.seed_seq.generate_state(4, np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_seed_words_equal_seed_sequence(seed):
    got = np.array([_state_words(rng) for rng in trial_rngs(seed, INDICES)])
    want = np.array(
        [np.random.SeedSequence([seed, k]).generate_state(4, np.uint64) for k in INDICES]
    )
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_generators_draw_as_seed_sequence_generators(seed):
    indices = [0, 1, 2, 999, 2**32 - 1]
    for k, rng in zip(indices, trial_rngs(seed, indices)):
        ref = _reference(seed, k)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.standard_normal() == ref.standard_normal()
        assert rng.integers(0, 2**40) == ref.integers(0, 2**40)
        assert rng.uniform(0.1, 1.0) == ref.uniform(0.1, 1.0)


def test_trial_rng_is_a_batch_of_one():
    for seed, k in ((0, 0), (7, 5), (2**70 + 3, 1234)):
        one, (batched,) = trial_rng(seed, k), list(trial_rngs(seed, [k]))
        assert one.bit_generator.state == batched.bit_generator.state
        assert one.bit_generator.seed_seq.entropy == (seed, k)


def test_an_unordered_batch_seeds_each_trial_by_its_index():
    indices = [900, 3, 5]
    for k, rng in zip(indices, trial_rngs(11, indices)):
        assert rng.bit_generator.state == _reference(11, k).bit_generator.state


def test_the_runner_draws_each_trial_from_its_own_generator():
    indices = [7, 2, 40]

    def draw(rng, k):
        return (np.array(rng.standard_normal()), k)

    def evaluate(drawn):
        yield "x", slice(None), np.array([x for x, _ in drawn])

    ((_, trials, values),) = trial_outcomes(3, indices, draw, evaluate)
    np.testing.assert_array_equal(trials, indices)
    np.testing.assert_array_equal(values, [_reference(3, k).standard_normal() for k in indices])


@pytest.mark.parametrize("n_words,dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64)])
def test_a_trial_seed_refuses_any_other_request(n_words, dtype):
    seed_seq = trial_rng(0, 0).bit_generator.seed_seq
    with pytest.raises(ValueError, match="4 uint64 words"):
        seed_seq.generate_state(n_words, dtype)


@pytest.mark.parametrize("index", [-1, 2**32, 2**40])
def test_an_index_outside_one_word_is_refused(index):
    with pytest.raises(ValueError, match="trial indices"):
        trial_rngs(0, [3, index, 1])
    with pytest.raises(ValueError, match="trial indices"):
        trial_rng(0, index)


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed"):
        trial_rngs(-1, [0])


def test_an_empty_batch_has_no_generators():
    assert list(trial_rngs(5, [])) == []
