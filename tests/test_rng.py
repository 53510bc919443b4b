"""split_streams must key every stream exactly as SeedSequence.spawn would,
and no seeded routine may fall back to an unseeded stream."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chankey import capacity
from chankey.channel import flat_profile
from chankey.codec import construct_irregular, construct_regular
from chankey.rng import (
    CHUNK_BYTES,
    derive_seed,
    make_rng,
    row_chunks,
    split_streams,
)
from chankey.sounding import two_way_sound

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


def _flat_state(stream):
    """The whole bit-generator state: key and counter, the output buffer,
    its position and the cached 32-bit half."""
    state = dict(stream.bit_generator.state)
    state.update(state.pop("state"))
    return state


def _assert_same_state(stream, ref):
    got, want = _flat_state(stream), _flat_state(ref)
    assert got.keys() == want.keys()
    for name in got:
        assert np.asarray(got[name]).dtype == np.asarray(want[name]).dtype
        assert np.array_equal(got[name], want[name]), name


def _assert_same_streams(streams, reference):
    assert len(streams) == len(reference)
    for stream, ref in zip(streams, reference):
        key = ref.bit_generator.seed_seq.generate_state(2, np.uint64)
        state = stream.bit_generator.state["state"]
        assert np.array_equal(state["key"], key)
        assert np.array_equal(state["counter"], np.zeros(4, dtype=np.uint64))
        _assert_same_state(stream, ref)
        assert np.array_equal(stream.random(3), ref.random(3))
        assert np.array_equal(stream.standard_normal(3), ref.standard_normal(3))
        assert stream.integers(2**32) == ref.integers(2**32)  # uses a half
        _assert_same_state(stream, ref)


@pytest.mark.golden
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


@pytest.mark.golden
@settings(max_examples=30, deadline=None)
@given(seed=INTS | TUPLES | DERIVED)
@example(seed=0)
@example(seed=2**64 - 1)
@example(seed=())
def test_make_rng_matches_philox_of_seed_sequence(seed):
    ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    _assert_same_streams([make_rng(seed)], [ref])


@pytest.mark.golden
def test_child_index_past_one_word_is_rejected():
    with pytest.raises(ValueError, match="uint32"):
        split_streams(1, 2**32 + 1)


@pytest.mark.golden
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


PROFILE = flat_profile(1.0, 2, 10)
# routine and its arguments but the seed, all valid
SEEDED = {
    "make_rng": (make_rng, ()),
    "construct_regular": (construct_regular, (8, 4, 2)),
    "construct_irregular": (construct_irregular, (60, 30, {3: 1.0})),
    "simulate_rssi_pairs": (capacity.simulate_rssi_pairs, (PROFILE, 100)),
    "rssi_capacity_numeric": (capacity.rssi_capacity_numeric,
                              (PROFILE, 10, 10_000)),
    "magphase_decomposition": (capacity.magphase_decomposition,
                               (1.0, 100_000)),
    "phase_offset_loss": (capacity.phase_offset_loss, (2, 1.0, 4, 100)),
    "two_way_sound": (two_way_sound, (np.zeros(2, dtype=complex), PROFILE)),
}


@pytest.mark.parametrize("name", SEEDED)
def test_seeded_routines_need_a_seed(name):
    # None would seed from fresh OS entropy, so it is no seed
    func, args = SEEDED[name]
    with pytest.raises(TypeError, match="seed"):
        func(*args)
    with pytest.raises(TypeError, match="seed"):
        func(*args, seed=None)


@pytest.mark.parametrize("rows", [0, 1, 7, 100])
@pytest.mark.parametrize("row_bytes", [1, 16 * 13, 16 * 300, CHUNK_BYTES + 1])
def test_row_chunks_cover_rows_within_budget(rows, row_bytes):
    chunks = row_chunks(rows, row_bytes)
    assert [i for c in chunks for i in range(rows)[c]] == list(range(rows))
    sizes = [c.stop - c.start for c in chunks]
    # every chunk fits the budget, save a single row larger than it
    assert all(s * row_bytes <= CHUNK_BYTES or s == 1 for s in sizes)
    # only the last chunk is partial
    assert all(s == sizes[0] for s in sizes[:-1])
    assert all((s + 1) * row_bytes > CHUNK_BYTES for s in sizes[:-1])
