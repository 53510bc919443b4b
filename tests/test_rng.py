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


def test_child_index_past_one_word_is_rejected():
    with pytest.raises(ValueError, match="uint32"):
        split_streams(1, 2**32 + 1)


def test_rejects_seeds_seed_sequence_rejects():
    # a Generator or SeedSequence is no seed form of split_streams, None
    # would give unreproducible streams, and derive_seed has no stand-in
    # for None (it used to read as seed 0)
    for bad in (-1, 1.5, (2, -3), np.random.Generator(np.random.Philox(1)),
                np.random.SeedSequence(1), None):
        with pytest.raises((TypeError, ValueError)):
            split_streams(bad, 2)
    for bad in (None, (3, None)):
        with pytest.raises(TypeError):
            derive_seed(bad)
