"""Deterministic random-stream management.

Every stochastic routine in this package takes a ``seed``: an integer, a
tuple of them (``derive_seed``), or, where ``make_rng`` reads it, an
already-built ``numpy.random.Generator``.  Seeds are expanded through a
counter-based Philox generator so that independent streams can be split
off a single experiment seed and results stay bit-reproducible.

``split_streams`` keys each stream exactly as ``SeedSequence(seed).spawn``
would, but derives the keys itself: ``_child_keys`` starts from the parent's
``SeedSequence.pool`` and runs numpy's SeedSequence hash
(numpy/random/bit_generator.pyx) over an array of child indices.  It follows
the hash as numpy has had it since 1.19, which began zero-padding the
entropy of spawned sequences; the package requires numpy >= 1.24, and
tests/test_rng.py checks the keys against ``SeedSequence.spawn``.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants; all its arithmetic is on uint32 words.
MASK32 = 0xFFFFFFFF
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def make_rng(seed=None) -> np.random.Generator:
    """Philox Generator for an int or tuple seed; a Generator passes through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def derive_seed(seed, *tags) -> tuple:
    """Flatten a seed and extra tags into entropy for a child stream.

    Lets experiment code compose per-trial seeds like
    ``derive_seed(base, trial)`` without worrying about nesting.
    """
    parts: list[int] = []

    def flatten(x):
        if isinstance(x, (tuple, list)):
            for item in x:
                flatten(item)
        else:
            parts.append(int(x) & 0xFFFFFFFFFFFFFFFF)

    flatten(seed)
    for tag in tags:
        flatten(tag)
    return tuple(parts)


def split_streams(seed, n: int) -> list[np.random.Generator]:
    """Split ``seed`` into ``n`` independent generators.

    Used to give each coherence block / trial its own stream, so blocks can
    be generated in any order (or in parallel) without changing the result.

    ``seed`` is an integer or a tuple of them (``derive_seed``).  Stream i
    is ``Generator(Philox(children[i]))`` for ``children =
    SeedSequence(seed).spawn(n)``, draw for draw.  The n Philox keys come
    from one vectorised pass (``_child_keys``), not from n SeedSequence
    objects, so a stream's ``bit_generator.seed_seq`` holds only its key and
    cannot spawn.

    A key session splits ``blocks + 1`` streams: stream i < blocks belongs to
    coherence block i, the last one draws the rotation offsets.  Block
    stream i draws, in this order, the P uniform path delays and the 2P gain
    normals of ``channel.sample_paths`` (P = n_paths), then the 4L unit noise
    normals of ``sounding.draw_noise`` (Alice's L real parts, Bob's L real
    parts, then the imaginary parts in the same order).  This order is
    the reproducibility contract: since streams are independent, a
    simulation may batch them in any grouping (``pipeline.draw_session``
    draws consecutive chunks of block streams, each chunk's path values
    before its noise), but must keep the order within each stream.  No draw
    depends on the SNR, so the same contract serves a session's draw
    (``pipeline.draw_session``) and every measurement of it: sounding one
    draw at several SNRs gives each the result of a fresh draw.
    """
    if seed is None:  # SeedSequence(None) would draw fresh OS entropy
        raise TypeError("split_streams needs an integer or tuple seed")
    keys = _child_keys(np.random.SeedSequence(seed), n)
    return [np.random.Generator(np.random.Philox(_Keyed(key)))
            for key in keys.tolist()]


class _Keyed(ISeedSequence):
    """Seed sequence whose state is one precomputed Philox key."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _words(x) -> list[int]:
    """An integer, or a nested sequence of them, as SeedSequence splits it
    into uint32 words (least significant first, at least one per integer)."""
    if isinstance(x, (int, np.integer)):
        x = int(x)
        words = [x & MASK32]
        while x > MASK32:
            x >>= 32
            words.append(x & MASK32)
        return words
    return [w for item in x for w in _words(item)]


def _hash(value, const, mult):
    """One SeedSequence hash step: ``(value ^ const) * const'`` folded, with
    ``const' = const * mult``.  Returns the hashed value and ``const'``.
    ``value`` holds uint32 words in uint64, so products stay exact whatever
    numpy's scalar promotion rules."""
    u = np.uint64
    const_next = const * mult & MASK32
    value = (value ^ u(const)) * u(const_next) & u(MASK32)
    return value ^ value >> u(16), const_next


def _mix(x, y):
    u = np.uint64
    value = (u(MIX_MULT_L) * x - u(MIX_MULT_R) * y) & u(MASK32)
    return value ^ value >> u(16)


def _child_keys(parent: np.random.SeedSequence, n) -> np.ndarray:
    """Philox keys, ``(n, 2)`` uint64, of the first n children of ``parent``.

    A child's entropy words are the root ``parent``'s entropy zero-padded to
    the pool size, then the child index.  Only that last word differs between
    children, and it is mixed in last, so every child starts from
    ``parent.pool``, numpy's mix of the words before it, with the hash
    constant advanced once per step of that mix, and the index is mixed in
    for all children at once.
    """
    if n > MASK32 + 1:
        raise ValueError("child indices must fit in one uint32 word")
    size = parent.pool_size
    words = max(len(_words(parent.entropy)), size)
    # the mix hashes each pool word (zero past a short unpadded entropy,
    # as the padding would), then every ordered pair of distinct pool
    # words, then each word past the pool into every pool word
    steps = size * size + size * (words - size)
    const = INIT_A * pow(MULT_A, steps, MASK32 + 1) & MASK32
    # the child index joins every pool word, but generate_state(2, uint64)
    # reads only the first four (the pool has at least four)
    u = np.uint64
    pool = parent.pool.astype(u)
    index = np.arange(n, dtype=u)
    keys = np.empty((2, n), dtype=u)
    const_b = INIT_B
    for dst in range(4):
        value, const = _hash(index, const, MULT_A)
        word, const_b = _hash(_mix(pool[dst], value), const_b, MULT_B)
        if dst % 2:
            keys[dst // 2] |= word << u(32)
        else:
            keys[dst // 2] = word
    return keys.T
