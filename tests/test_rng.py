"""split_streams must key every stream exactly as SeedSequence.spawn would."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chankey.rng import derive_seed, split_streams

COUNTS = st.sampled_from([0, 1, 2, 121])
INTS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
                 st.integers(0, 2**64 - 1), st.integers(0, 2**130))
TUPLES = st.recursive(st.tuples() | st.tuples(INTS),
                      lambda inner: st.lists(INTS | inner, max_size=4).map(tuple),
                      max_leaves=8)
DERIVED = st.builds(lambda seed, tags: derive_seed(seed, *tags),
                    INTS | TUPLES, st.lists(st.integers(-2**70, 2**70), max_size=3))


def _reference(parent, n):
    return [np.random.Generator(np.random.Philox(child))
            for child in parent.spawn(n)]


def _assert_same_streams(streams, reference):
    assert len(streams) == len(reference)
    for stream, ref in zip(streams, reference):
        key = ref.bit_generator.seed_seq.generate_state(2, np.uint64)
        state = stream.bit_generator.state["state"]
        assert np.array_equal(state["key"], key)
        assert np.array_equal(state["counter"], np.zeros(4, dtype=np.uint64))
        assert np.array_equal(stream.random(3), ref.random(3))
        assert np.array_equal(stream.standard_normal(3), ref.standard_normal(3))


@settings(max_examples=60, deadline=None)
@given(seed=INTS | TUPLES | DERIVED, n=COUNTS)
@example(seed=0, n=121)
@example(seed=2**32, n=2)
@example(seed=2**64 - 1, n=1)
@example(seed=2**32 - 1, n=0)
@example(seed=(), n=121)
@example(seed=((1, (2, ())), 3), n=2)
@example(seed=derive_seed(5, 0xC0DE), n=121)
def test_streams_match_seed_sequence_spawn(seed, n):
    _assert_same_streams(split_streams(seed, n),
                         _reference(np.random.SeedSequence(seed), n))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=COUNTS)
def test_generator_seed_draws_four_words_first(seed, n):
    ours, theirs = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
    parent = np.random.SeedSequence(
        theirs.integers(0, 2**63 - 1, size=4).tolist())
    _assert_same_streams(split_streams(ours, n), _reference(parent, n))
    assert np.array_equal(ours.random(3), theirs.random(3))


@settings(max_examples=40, deadline=None)
@given(entropy=INTS | TUPLES, spawn_key=TUPLES, pool_size=st.integers(4, 9),
       spawned=st.integers(0, 300), n=COUNTS)
@example(entropy=7, spawn_key=(3, 2**40), pool_size=6, spawned=5, n=121)
def test_seed_sequence_seed_continues_and_advances_its_children(
        entropy, spawn_key, pool_size, spawned, n):
    ours, theirs = (np.random.SeedSequence(entropy, spawn_key=spawn_key,
                                           pool_size=pool_size)
                    for _ in range(2))
    ours.spawn(spawned)
    theirs.spawn(spawned)
    _assert_same_streams(split_streams(ours, n), _reference(theirs, n))
    assert ours.n_children_spawned == spawned + n


def test_child_index_past_one_word_is_rejected():
    parent = np.random.SeedSequence(1, n_children_spawned=2**32 - 1)
    with pytest.raises(ValueError, match="uint32"):
        split_streams(parent, 2)
    assert parent.n_children_spawned == 2**32 - 1


def test_rejects_seeds_seed_sequence_rejects():
    for bad in (-1, 1.5, (2, -3)):
        with pytest.raises((TypeError, ValueError)):
            split_streams(bad, 2)
