"""Deterministic random-stream management.

Every stochastic routine in this package takes a ``seed`` that may be an
integer, a ``numpy.random.SeedSequence``, or an already-built
``numpy.random.Generator``.  Integers are expanded through a counter-based
Philox generator so that independent streams can be split off a single
experiment seed and results stay bit-reproducible.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed=None) -> np.random.Generator:
    """Return a Philox-backed Generator for any accepted seed form."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
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
        elif x is None:
            parts.append(0)
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

    A key session splits ``blocks + 1`` streams: stream i < blocks belongs to
    coherence block i, the last one draws the rotation offsets.  Block
    stream i draws, in this order, the P uniform path delays and the 2P gain
    normals of ``channel.sample_paths`` (P = n_paths), then the 4L unit noise
    normals of ``sounding.draw_noise`` (Alice's L real parts, Bob's L real
    parts, then the imaginary parts in the same order).  This order is
    the reproducibility contract: a batched simulation may draw every
    stream's path values before any stream's noise, since streams are
    independent, but must keep the order within each stream.  No draw
    depends on the SNR, so the same contract serves a session's draw
    (``pipeline.draw_session``) and every measurement of it: sounding one
    draw at several SNRs gives each the result of a fresh draw.
    """
    if isinstance(seed, np.random.Generator):
        # Derive a child SeedSequence from the generator's own stream.
        seed = np.random.SeedSequence(seed.integers(0, 2**63 - 1, size=4).tolist())
    elif not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.Philox(s)) for s in seed.spawn(n)]
