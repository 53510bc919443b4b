import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chankey.codec import (
    SparseParityCheck,
    construct_irregular,
    construct_regular,
    coset_index,
)
from chankey.codec.matrix import _overlapping_pairs, _realized_counts
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


def _mixed_rows(rng, n, m):
    """Rows of degree 1 up to 8 built by hand, plus a degree-1 row for each
    column the random rows missed and one more at random."""
    rows = [rng.choice(n, size=int(rng.integers(1, min(8, n) + 1)),
                       replace=False) for _ in range(m)]
    covered = np.zeros(n, dtype=bool)
    for r in rows:
        covered[r] = True
    rows += [[c] for c in np.flatnonzero(~covered)]
    rows.insert(int(rng.integers(0, len(rows) + 1)), [int(rng.integers(0, n))])
    return SparseParityCheck(rows, n)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(16, 80),
       irregular=st.booleans(), dtype=st.sampled_from([np.uint8, np.int64]))
def test_syndrome_matches_dense_product(seed, n, irregular, dtype):
    # symbols 0..3: a parity of x itself rather than of x & 1 fails here
    rng = make_rng(seed)
    m = int(rng.integers(8, n // 2 + 1))
    pcm = (construct_irregular(n, m, {2: 0.5, 3: 0.3, 8: 0.2}, seed=rng)
           if irregular else _mixed_rows(rng, n, m))
    x = rng.integers(0, 4, size=n).astype(dtype)
    got = pcm.syndrome(x)
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(
        got, (pcm.dense().astype(np.int64) @ x.astype(np.int64)) & 1)


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
# validation


def test_matrix_validation():
    with pytest.raises(ValueError):
        SparseParityCheck([np.array([0, 0])], 4)  # duplicate in row
    with pytest.raises(ValueError):
        SparseParityCheck([np.array([0, 5])], 4)  # out of range
    with pytest.raises(ValueError):
        SparseParityCheck([np.array([0, 1])], 4)  # column 2,3 unused


def test_rows_sorted_and_degrees_counted():
    pcm = SparseParityCheck([[3, 1], [2, 0, 1]], 4)
    np.testing.assert_array_equal(pcm.rows[0], [1, 3])
    np.testing.assert_array_equal(pcm.rows[1], [0, 1, 2])
    np.testing.assert_array_equal(pcm.row_degrees(), [2, 3])
    np.testing.assert_array_equal(pcm.col_degrees(), [1, 2, 1, 1])


def test_matrix_validation_empty():
    with pytest.raises(ValueError, match="empty"):
        SparseParityCheck([np.array([0, 1]), np.array([], dtype=int)], 2)
    with pytest.raises(ValueError, match="at least one row"):
        SparseParityCheck([], 2)


# ---------------------------------------------------------------------------
# sparse algebra against dense references


def _dense_overlap_pairs(entries):
    """Reference: pairs i < j sharing >= 2 columns, from a dense product."""
    m = entries.shape[0]
    n = int(entries.max()) + 1
    dense = np.zeros((m, n), dtype=np.float32)
    np.put_along_axis(dense, entries.astype(np.int64), 1.0, axis=1)
    overlap = dense @ dense.T
    np.fill_diagonal(overlap, 0.0)
    bad = np.argwhere(overlap >= 2.0)
    return bad[bad[:, 0] < bad[:, 1]]


def _dense_gf2_pivots(dense):
    """Reference: pivot columns and rank by elimination on a dense matrix."""
    m, n = dense.shape
    words = (n + 63) // 64
    packed = np.zeros((m, words), dtype=np.uint64)
    for w in range(words):
        block = dense[:, w * 64:(w + 1) * 64].astype(np.uint64)
        shifts = np.arange(block.shape[1], dtype=np.uint64)
        packed[:, w] = (block << shifts).sum(axis=1, dtype=np.uint64)
    pivots = []
    r = 0
    for col in range(n):
        w = col >> 6
        mask = np.uint64(1) << np.uint64(col & 63)
        hits = np.nonzero(packed[r:, w] & mask)[0]
        if hits.size == 0:
            continue
        piv = r + hits[0]
        if piv != r:
            packed[[r, piv]] = packed[[piv, r]]
        others = r + 1 + np.nonzero(packed[r + 1:, w] & mask)[0]
        if others.size:
            packed[others] ^= packed[r]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return np.array(pivots, dtype=np.int64), r


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 40), k=st.integers(2, 6), extra=st.integers(0, 30),
       seed=st.integers(0, 2**32 - 1))
def test_overlap_pairs_match_dense(m, k, extra, seed):
    n = k + extra
    rng = make_rng(seed)
    entries = np.array([rng.permutation(n)[:k] for _ in range(m)],
                       dtype=np.int32)
    np.testing.assert_array_equal(_overlapping_pairs(entries),
                                  _dense_overlap_pairs(entries))


def _valid_dense(m, n, rng, density):
    dense = (rng.random((m, n)) < density).astype(np.uint8)
    dense[np.arange(m), rng.integers(0, n, size=m)] = 1  # no empty row
    dense[rng.integers(0, m, size=n), np.arange(n)] = 1  # no empty column
    return dense


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 24), n=st.integers(1, 150),
       density=st.floats(0.02, 0.6), dependent=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_pivots_match_dense(m, n, density, dependent, seed):
    rng = make_rng(seed)
    dense = _valid_dense(m, n, rng, density)
    # append sums of existing rows to force rank deficiency
    for _ in range(dependent):
        pick = rng.random(dense.shape[0]) < 0.5
        combo = np.bitwise_xor.reduce(dense[pick], axis=0)
        if combo.any():
            dense = np.vstack([dense, combo])
    pcm = SparseParityCheck([np.nonzero(r)[0] for r in dense], n)
    pivots, free, rank = pcm.systemization()
    ref_pivots, ref_rank = _dense_gf2_pivots(dense)
    np.testing.assert_array_equal(pivots, ref_pivots)
    assert rank == ref_rank
    np.testing.assert_array_equal(np.sort(np.concatenate([pivots, free])),
                                  np.arange(n))


def test_pivots_with_repeated_row():
    rng = make_rng(21)
    dense = _valid_dense(12, 90, rng, 0.2)
    dense = np.vstack([dense, dense[4]])
    pcm = SparseParityCheck([np.nonzero(r)[0] for r in dense], 90)
    ref_pivots, ref_rank = _dense_gf2_pivots(dense)
    np.testing.assert_array_equal(pcm.systemization()[0], ref_pivots)
    assert pcm.rank == ref_rank <= 12


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 60), row_weight=st.integers(2, 8),
       col_weight=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_regular_degrees_property(m, row_weight, col_weight, seed):
    assume(col_weight <= m and (m * row_weight) % col_weight == 0)
    n = m * row_weight // col_weight
    assume(row_weight <= n)
    pcm = construct_regular(n, m, col_weight, seed=seed)
    np.testing.assert_array_equal(pcm.col_degrees(), col_weight)
    np.testing.assert_array_equal(pcm.row_degrees(), row_weight)
    for r in pcm.rows:
        assert np.all(np.diff(r) > 0)


def test_regular_long_code_bounded_memory():
    # N = 31,200: a dense m x n overlap would need ~1.9 GB
    tracemalloc.start()
    try:
        pcm = construct_regular(31200, 15600, 3, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    np.testing.assert_array_equal(pcm.col_degrees(), 3)
    np.testing.assert_array_equal(pcm.row_degrees(), 6)
    assert all(np.all(np.diff(r) > 0) for r in pcm.rows)


def _mask_peg(n, m, var_dist, check_dist, seed, fallbacks):
    """Reference: progressive edge growth with a fresh O(m) mask per edge.

    The placement rule of ``construct_irregular`` written out directly.
    ``fallbacks`` collects the index (1-3) of every preference mask after
    the first that placed an edge.
    """
    if m < 1:
        raise ValueError(f"need at least one parity check, got m={m}")
    rng = make_rng(seed)
    var_deg = _realized_counts(var_dist, n)
    edges_total = int(var_deg.sum())
    if check_dist is None:
        base = edges_total // m
        targets = np.full(m, base, dtype=int)
        targets[: edges_total - base * m] += 1
    else:
        targets = _realized_counts(check_dist, m)
        if abs(int(targets.sum()) - edges_total) > 1:
            raise ValueError("edge-count mismatch")
    if np.any(var_deg > m):
        raise ValueError("a variable degree exceeds the check count")
    order = np.argsort(var_deg, kind="stable")
    check_rows = [[] for _ in range(m)]
    var_adj = [[] for _ in range(n)]
    degree = np.zeros(m, dtype=int)

    def pick(allowed_mask):
        cand = np.nonzero(allowed_mask)[0]
        if cand.size == 0:
            return None
        load = (degree - targets)[cand]
        best = cand[load == load.min()]
        return int(best[rng.integers(0, best.size)])

    for v in order:
        for _ in range(int(var_deg[v])):
            adjacent = np.zeros(m, dtype=bool)
            adjacent[var_adj[v]] = True
            near = adjacent.copy()
            co_vars = {u for c in var_adj[v] for u in check_rows[c]}
            for u in co_vars:
                near[var_adj[u]] = True
            under = degree < targets
            masks = (under & ~near, under & ~adjacent, ~near, ~adjacent)
            for i, mask in enumerate(masks):
                c = pick(mask)
                if c is not None:
                    if i:
                        fallbacks.add(i)
                    break
            if c is None:
                raise ValueError("cannot place edge without duplicating one")
            check_rows[c].append(int(v))
            var_adj[v].append(c)
            degree[c] += 1
    if any(not r for r in check_rows):
        raise ValueError("a check node received no edges")
    return [np.array(r, dtype=np.int32) for r in check_rows]


def _outcome(build):
    """Rows of ``build()``, or the ValueError it raised."""
    try:
        return build()
    except ValueError:
        return ValueError


def test_irregular_matches_mask_reference():
    """Row for row the same code as the mask reference, from the same draws.

    The explicit examples are small codes, most with degree-8 variables,
    on which each fallback mask places an edge.
    """
    fallbacks = set()

    @settings(max_examples=150, deadline=None, database=None)
    @given(n=st.integers(1, 60), m=st.integers(1, 24),
           weights=st.dictionaries(st.integers(1, 8), st.integers(1, 5),
                                   min_size=1, max_size=4),
           check_side=st.sampled_from(["even", "split", "skewed"]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=12, m=8, weights={8: 1}, check_side="even", seed=3)
    @example(n=40, m=10, weights={2: 1, 8: 1}, check_side="split", seed=5)
    @example(n=6, m=9, weights={1: 1, 8: 1}, check_side="skewed", seed=1)
    @example(n=5, m=6, weights={2: 2, 3: 4}, check_side="skewed", seed=65)
    def check(n, m, weights, check_side, seed):
        total = sum(weights.values())
        var_dist = {d: w / total for d, w in weights.items()}
        edges = int(_realized_counts(var_dist, n).sum()) if n else 0
        d, r = divmod(edges, m)
        check_dist = {"even": None,
                      "split": {d: (m - r) / m, d + 1: r / m},
                      "skewed": {max(d - 1, 1): 0.5, d + 1: 0.5}}[check_side]
        ref = _outcome(lambda: _mask_peg(n, m, var_dist, check_dist, seed,
                                         fallbacks))
        got = _outcome(lambda: list(construct_irregular(
            n, m, var_dist, check_dist, seed=seed).rows))
        if ref is ValueError:
            assert got is ValueError
        else:
            assert got is not ValueError and len(got) == len(ref)
            for a, b in zip(got, ref):
                np.testing.assert_array_equal(a, b)

    check()
    assert fallbacks == {1, 2, 3}


def test_irregular_degree_above_check_count_rejected():
    # a variable of degree 8 over 7 checks could not avoid a repeat; the
    # degree guard rejects it before any edge is placed
    with pytest.raises(ValueError, match="exceeds the check count"):
        construct_irregular(10, 7, {8: 1.0}, None, seed=0)
