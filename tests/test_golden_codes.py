"""Fixed-seed plane codes must reproduce their committed digest bit for bit.

The digest covers the sorted row lists, the pivot and free columns and the
rank of ``make_plane_code`` outputs: regular codes of rate 0.5 and 0.625 and
an irregular rate-0.5 code at N = 3120, plus an irregular rate-0.25 code at
N = 520, two seeds each.  A second digest covers the rows, pivot columns
and rank of ``construct_regular`` at column weights 2 and 4.  A change to
construction or elimination that claims to keep codes unchanged must keep
both digests.
"""

import hashlib

import numpy as np
import pytest

from chankey.codec import construct_regular
from chankey.pipeline import make_plane_code

pytestmark = pytest.mark.golden

# block length, design rate, code family
CASES = (
    (3120, 0.5, "regular"),
    (3120, 0.625, "regular"),
    (3120, 0.5, "irregular"),
    (520, 0.25, "irregular"),
)
SEEDS = (1, 17)

EXPECTED_SHA256 = (
    "edaee8f62d701367fd2142ffa30b83252b9a4e39232aa3ab58cabdfa5e5c70a2")


def golden_digest() -> str:
    h = hashlib.sha256()
    for n, rate, family in CASES:
        for seed in SEEDS:
            pcm = make_plane_code(n, rate, family, seed)
            h.update(f"{n},{rate},{family},{seed},{pcm.m}\n".encode())
            for r in pcm.rows:
                h.update(np.asarray(r, dtype="<i4").tobytes())
            pivots, free, rank = pcm.systemization()
            h.update(np.asarray(pivots, dtype="<i8").tobytes())
            h.update(np.asarray(free, dtype="<i8").tobytes())
            h.update(str(rank).encode())
    return h.hexdigest()


def test_golden_code_digest():
    assert golden_digest() == EXPECTED_SHA256


# construct_regular at column weights 2 and 4: (n, m, col_weight)
REGULAR_CASES = (
    (96, 48, 2),
    (520, 260, 4),
    (3120, 1560, 4),
    (3120, 780, 2),
)

EXPECTED_REGULAR_SHA256 = (
    "3740bd00982e1389b08fafc06557682a0232f8779743a6d34b927fafa88ade5d")


def regular_digest() -> str:
    h = hashlib.sha256()
    for n, m, w in REGULAR_CASES:
        for seed in SEEDS:
            pcm = construct_regular(n, m, w, seed=seed)
            h.update(f"{n},{m},{w},{seed}\n".encode())
            for r in pcm.rows:
                h.update(np.asarray(r, dtype="<i4").tobytes())
            pivots, _, rank = pcm.systemization()
            h.update(np.asarray(pivots, dtype="<i8").tobytes())
            h.update(str(rank).encode())
    return h.hexdigest()


def test_golden_regular_weight_digest():
    assert regular_digest() == EXPECTED_REGULAR_SHA256
