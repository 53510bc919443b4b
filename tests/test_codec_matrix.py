import math

import numpy as np
import pytest

from chankey.codec import (
    SparseParityCheck,
    construct_irregular,
    construct_regular,
    coset_index,
)
from chankey.rng import make_rng


def _random_full_rank(n, m, rng):
    """Random dense binary matrix resampled until full row rank."""
    for _ in range(200):
        dense = (rng.random((m, n)) < 0.5).astype(np.uint8)
        for j in range(n):
            if not dense[:, j].any():
                dense[rng.integers(0, m), j] = 1
        if not all(dense[i].any() for i in range(m)):
            continue
        pcm = SparseParityCheck([np.nonzero(r)[0] for r in dense], n)
        if pcm.rank == m:
            return pcm
    raise RuntimeError("no full-rank sample found")


def _enumerate_bits(n):
    """All 2^n binary vectors as a (2^n, n) matrix."""
    grid = np.arange(2**n, dtype=np.uint32)
    return ((grid[:, None] >> np.arange(n)) & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# construction


def test_regular_degrees_exact():
    pcm = construct_regular(8, 4, 2, seed=0)
    assert pcm.n == 8 and pcm.m == 4
    np.testing.assert_array_equal(pcm.col_degrees(), 2)
    np.testing.assert_array_equal(pcm.row_degrees(), 4)


def test_regular_paper_scale_rate_half():
    pcm = construct_regular(3120, 1560, 3, seed=1)
    np.testing.assert_array_equal(pcm.col_degrees(), 3)
    np.testing.assert_array_equal(pcm.row_degrees(), 6)
    assert pcm.design_rate() == pytest.approx(0.5)


def test_regular_deterministic():
    a = construct_regular(64, 32, 3, seed=9)
    b = construct_regular(64, 32, 3, seed=9)
    for ra, rb in zip(a.rows, b.rows):
        np.testing.assert_array_equal(ra, rb)


def test_regular_no_four_cycles_small():
    pcm = construct_regular(96, 48, 3, seed=3)
    dense = pcm.dense().astype(np.int32)
    overlap = dense @ dense.T
    np.fill_diagonal(overlap, 0)
    assert overlap.max() <= 1


def test_regular_rejects_infeasible():
    with pytest.raises(ValueError):
        construct_regular(8, 5, 2, seed=0)  # 16 sockets over 5 rows
    with pytest.raises(ValueError):
        construct_regular(8, 4, 1, seed=0)


def test_irregular_degenerate_is_regular():
    pcm = construct_irregular(60, 30, {3: 1.0}, {6: 1.0}, seed=4)
    np.testing.assert_array_equal(pcm.col_degrees(), 3)
    np.testing.assert_array_equal(pcm.row_degrees(), 6)


def test_irregular_edge_count_consistency():
    n, m = 120, 60
    var_dist = {2: 0.5, 3: 0.5}
    edges_var = sum(d * f for d, f in var_dist.items()) * n
    check_dist = {5: 1.0}
    edges_chk = 5 * m
    assert abs(edges_var - edges_chk) <= 1
    pcm = construct_irregular(n, m, var_dist, check_dist, seed=5)
    assert pcm.col_degrees().sum() == pcm.row_degrees().sum() == 300


def test_irregular_histogram_matches_profile():
    n = 1024
    pcm = construct_irregular(n, 512, {2: 0.5, 3: 0.5}, None, seed=6)
    deg = pcm.col_degrees()
    counts = np.bincount(deg, minlength=4)
    assert counts[2] == 512 and counts[3] == 512
    # check side spread evenly: 2560 edges over 512 checks -> all degree 5
    assert set(pcm.row_degrees()) == {5}


def test_irregular_rejects_inconsistent_distributions():
    with pytest.raises(ValueError):
        construct_irregular(100, 50, {2: 1.0}, {10: 1.0}, seed=0)
    with pytest.raises(ValueError):
        construct_irregular(100, 50, {2: 0.7, 3: 0.7}, None, seed=0)


def test_irregular_mixed_profile_girth_attempt():
    pcm = construct_irregular(256, 128, {2: 0.5, 3: 0.3, 6: 0.2}, None, seed=7)
    dense = pcm.dense().astype(np.int32)
    overlap = dense @ dense.T
    np.fill_diagonal(overlap, 0)
    # best effort: the overwhelming majority of row pairs share < 2 columns
    assert (overlap >= 2).mean() < 0.01


# ---------------------------------------------------------------------------
# syndrome


def test_syndrome_zero_vector():
    pcm = construct_regular(16, 8, 2, seed=8)
    np.testing.assert_array_equal(pcm.syndrome(np.zeros(16, dtype=np.uint8)),
                                  np.zeros(8, dtype=np.uint8))


def test_syndrome_hand_example():
    pcm = SparseParityCheck([np.array([0, 1]), np.array([1, 2, 3])], 4)
    s = pcm.syndrome(np.array([1, 0, 1, 1], dtype=np.uint8))
    np.testing.assert_array_equal(s, [1, 0])


def test_syndrome_linearity():
    rng = make_rng(10)
    pcm = construct_regular(48, 24, 3, rng)
    for _ in range(20):
        x = rng.integers(0, 2, size=48).astype(np.uint8)
        y = rng.integers(0, 2, size=48).astype(np.uint8)
        lhs = pcm.syndrome(x ^ y)
        rhs = pcm.syndrome(x) ^ pcm.syndrome(y)
        np.testing.assert_array_equal(lhs, rhs)


def test_syndrome_rejects_length_mismatch():
    pcm = construct_regular(16, 8, 2, seed=11)
    with pytest.raises(ValueError):
        pcm.syndrome(np.zeros(15, dtype=np.uint8))


# ---------------------------------------------------------------------------
# coset keys


def test_coset_index_systematic_matrix():
    m, n = 3, 7
    rng = make_rng(12)
    a = rng.integers(0, 2, size=(m, n - m)).astype(np.uint8)
    dense = np.concatenate([np.eye(m, dtype=np.uint8), a], axis=1)
    pcm = SparseParityCheck([np.nonzero(r)[0] for r in dense], n)
    x = rng.integers(0, 2, size=n).astype(np.uint8)
    np.testing.assert_array_equal(coset_index(pcm, x), x[m:])


def test_coset_bijection_exhaustive():
    rng = make_rng(13)
    pcm = _random_full_rank(6, 3, rng)
    seen = set()
    for x in _enumerate_bits(6):
        pair = (tuple(pcm.syndrome(x)), tuple(coset_index(pcm, x)))
        assert pair not in seen
        seen.add(pair)
    assert len(seen) == 64


def test_coset_key_uniform_and_entropy():
    # uniform input -> uniform key; every coset has size 2^(n-m); the
    # uncertainty about x given the syndrome is exactly n-m bits
    rng = make_rng(14)
    n, m = 10, 4
    pcm = _random_full_rank(n, m, rng)
    xs = _enumerate_bits(n)
    syndromes = (xs @ pcm.dense().T) & 1
    keys = xs[:, pcm.systemization()[1]]
    syn_ids = syndromes @ (1 << np.arange(m))
    key_ids = keys @ (1 << np.arange(n - m))
    coset_sizes = np.bincount(syn_ids, minlength=2**m)
    assert np.all(coset_sizes == 2 ** (n - m))
    cond_entropy = sum(
        (size / 2**n) * math.log2(size) for size in coset_sizes if size
    )
    assert cond_entropy == pytest.approx(n - m, abs=1e-12)
    key_counts = np.bincount(key_ids, minlength=2 ** (n - m))
    assert np.all(key_counts == 2**m)


def test_coset_index_warns_on_rank_deficiency():
    # duplicate row forces rank m-1
    rows = [np.array([0, 1]), np.array([0, 1]), np.array([2, 3])]
    pcm = SparseParityCheck(rows, 4)
    assert pcm.rank == 2
    with pytest.warns(UserWarning, match="rank"):
        key = coset_index(pcm, np.array([1, 0, 1, 0], dtype=np.uint8))
    assert key.size == 4 - 2


# ---------------------------------------------------------------------------
# serialization and validation


def test_alist_roundtrip(tmp_path):
    pcm = construct_regular(24, 12, 3, seed=15)
    path = tmp_path / "code.alist"
    pcm.to_alist(path)
    back = SparseParityCheck.from_alist(path)
    assert back.n == pcm.n and back.m == pcm.m
    for ra, rb in zip(pcm.rows, back.rows):
        np.testing.assert_array_equal(ra, rb)


def test_matrix_validation():
    with pytest.raises(ValueError):
        SparseParityCheck([np.array([0, 0])], 4)  # duplicate in row
    with pytest.raises(ValueError):
        SparseParityCheck([np.array([0, 5])], 4)  # out of range
    with pytest.raises(ValueError):
        SparseParityCheck([np.array([0, 1])], 4)  # column 2,3 unused


def test_design_rate_alphabets():
    pcm = construct_regular(16, 8, 2, seed=16)
    assert pcm.design_rate(2) == pytest.approx(0.5)
    assert pcm.design_rate(4) == pytest.approx(1.0)
