"""Sparse parity-check matrices: construction, syndromes, and coset keys.

Matrices are binary and stored row-wise as sorted column-index arrays.  Two
constructions are provided: a Gallager-style random regular ensemble (exact
column weight, exact row weight, duplicate entries and 4-cycles repaired by
bounded edge swaps) and a progressive-edge-growth placement for arbitrary
degree distributions (girth >= 6 attempted, best effort).

The key of an observation is its index within the coset selected by the
syndrome: after a one-time column classification into pivot and free columns
(GF(2) row reduction), the free-column values index the coset bijectively.

``syndrome`` and the decoders' stop test share one parity over H: ``parity``
of the degree-class edge layout (``_Graph``) that ``graph_for`` caches.

Construction and row reduction never form a dense m x n matrix (only
``dense()`` does).  Row overlaps for the 4-cycle repair are the upper
triangle of the sparse product H Hᵀ, and the row reduction runs on rows
bit-packed into uint64 words straight from the row lists, so memory grows
with the edge count and with m * n / 64 words.

``scipy.sparse`` serves only that 4-cycle repair: it loads on use.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, insort

import numpy as np

from ..rng import make_rng
# scipy.sparse is imported by its user: with scipy.special it costs a fresh
# process ~0.3 s and ~20 MB that the numpy-only capacity commands skip

# Budget multipliers for the random-swap repairs in construct_regular.
_REPAIR_TRIES = 200
_CYCLE_PASSES = 8


class SparseParityCheck:
    """Immutable m x n binary parity-check matrix."""

    def __init__(self, row_cols, n_cols: int):
        rows = [np.asarray(r, dtype=np.int32) for r in row_cols]
        if not rows:
            raise ValueError("matrix needs at least one row")
        sizes = np.fromiter((r.size for r in rows), dtype=np.int64,
                            count=len(rows))
        if np.any(sizes == 0):
            raise ValueError("empty parity-check row")
        flat = np.concatenate(rows).astype(np.int64)
        if flat.min() < 0 or flat.max() >= n_cols:
            raise ValueError("column index out of range")
        # one sort of (row, column) keys sorts every row at once
        row_id = np.repeat(np.arange(len(rows), dtype=np.int64), sizes)
        flat = np.sort(row_id * n_cols + flat) - row_id * n_cols
        if np.any((np.diff(flat) == 0) & (np.diff(row_id) == 0)):
            raise ValueError("duplicate column index within a row")
        if np.any(np.bincount(flat, minlength=n_cols) == 0):
            raise ValueError("every column must have degree >= 1")
        self._indices = flat.astype(np.int32)
        self._indptr = np.concatenate([[0], np.cumsum(sizes)])
        self._rows = tuple(np.split(self._indices, self._indptr[1:-1]))
        self._n = int(n_cols)
        self._cache: dict = {}

    # -- basic shape -------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._rows)

    @property
    def n(self) -> int:
        return self._n

    @property
    def rows(self) -> tuple:
        return self._rows

    def row_degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def col_degrees(self) -> np.ndarray:
        return np.bincount(self._indices, minlength=self.n)

    def dense(self) -> np.ndarray:
        out = np.zeros((self.m, self.n), dtype=np.uint8)
        for i, r in enumerate(self._rows):
            out[i, r] = 1
        return out

    # -- derived structures (cached) ----------------------------------------

    def _packed_rows(self) -> np.ndarray:
        """Rows as bit-packed uint64 words; column c is bit c % 64 of word c // 64."""
        words = (self.n + 63) // 64
        packed = np.zeros(self.m * words, dtype=np.uint64)
        row_id = np.repeat(np.arange(self.m), self.row_degrees())
        bits = np.left_shift(np.uint64(1), (self._indices & 63).astype(np.uint64))
        np.bitwise_or.at(packed, row_id * words + (self._indices >> 6), bits)
        return packed.reshape(self.m, words)

    def syndrome(self, x: np.ndarray) -> np.ndarray:
        """Row parities of integer x, ``(H @ x) & 1``, as uint8 in row order."""
        x = np.asarray(x)
        if x.size != self.n:
            raise ValueError(f"vector length {x.size} != {self.n} columns")
        g = graph_for(self)
        out = np.empty(self.m, dtype=np.uint8)
        out[g.check_order] = g.parity(x)
        return out

    def systemization(self):
        """(pivot_cols, free_cols, rank) from GF(2) row reduction.

        The rows are packed into uint64 words and reduced left to right; the
        pivot columns of an echelon form depend only on the matrix.  Computed
        once and cached; the fixed column classification makes the coset
        index reproducible across calls.
        """
        if "system" not in self._cache:
            pivots, rank = _gf2_pivots(self._packed_rows(), self.n)
            mask = np.zeros(self.n, dtype=bool)
            mask[pivots] = True
            free = np.nonzero(~mask)[0]
            self._cache["system"] = (pivots, free, rank)
        return self._cache["system"]

    @property
    def rank(self) -> int:
        return self.systemization()[2]


# ---------------------------------------------------------------------------
# degree-class edge layout


class _Graph:
    """Degree-class edge layout of a parity-check matrix (cached per matrix).

    Checks are grouped by degree, ascending, in their original order within
    a degree (``check_order``).  ``check_blocks`` holds one ``(edges,
    checks, d)`` entry per check degree: the class's edges are the slice
    ``edges`` of the layout, read as a C-ordered ``(d, count)`` block whose
    column j holds the edges of check ``check_order[checks][j]`` in their
    original row order, so a per-check reduction runs over the block's
    rows.  ``edge_var`` is the variable of each edge in the layout.

    Variables are grouped by degree the same way: ``var_blocks`` holds one
    ``(variables, edges, d)`` entry per variable degree, and
    ``var_edges[edges]``, read as a ``(d, count)`` block, gives in column j
    the layout positions of the edges of ``variables[j]`` in their original
    order (ascending check index).  ``variables`` is a full slice when one
    degree covers every variable.
    """

    def __init__(self, pcm: SparseParityCheck):
        deg = pcm.row_degrees()
        row_start = pcm._indptr[:-1]
        self.check_order = np.argsort(deg, kind="stable")
        self.check_blocks = []
        source = []  # row-order edge index of each layout position
        first_edge = first_check = 0
        for d, count in zip(*np.unique(deg, return_counts=True)):
            checks = slice(first_check, first_check + count)
            rows = self.check_order[checks]
            source.append((row_start[rows] + np.arange(d)[:, None]).ravel())
            self.check_blocks.append(
                (slice(first_edge, first_edge + count * d), checks, int(d)))
            first_check += count
            first_edge += count * d
        source = np.concatenate(source)
        edge_var = pcm._indices.astype(np.int64)
        self.edge_var = edge_var[source]

        position = np.empty_like(source)
        position[source] = np.arange(source.size)
        by_var = position[np.argsort(edge_var, kind="stable")]
        var_deg = np.bincount(edge_var, minlength=pcm.n)
        var_start = np.concatenate([[0], np.cumsum(var_deg)])[:-1]
        degrees = np.unique(var_deg)
        self.var_blocks = []
        var_edges = []
        first_edge = 0
        for d in degrees:
            variables = np.flatnonzero(var_deg == d)
            var_edges.append(
                by_var[var_start[variables] + np.arange(d)[:, None]].ravel())
            size = variables.size * int(d)
            self.var_blocks.append(
                (variables if degrees.size > 1 else slice(None),
                 slice(first_edge, first_edge + size), int(d)))
            first_edge += size
        self.var_edges = np.concatenate(var_edges)

    def parity(self, bits: np.ndarray) -> np.ndarray:
        """Parity of ``bits & 1`` over each check, in ``check_order``."""
        on = np.take(np.bitwise_and(bits, 1), self.edge_var)
        return np.concatenate([
            np.bitwise_xor.reduce(on[edges].reshape(d, -1), axis=0)
            for edges, _, d in self.check_blocks])


def graph_for(pcm: SparseParityCheck) -> _Graph:
    if "graph" not in pcm._cache:
        pcm._cache["graph"] = _Graph(pcm)
    return pcm._cache["graph"]


# ---------------------------------------------------------------------------
# GF(2) elimination on bit-packed rows


def _gf2_pivots(packed: np.ndarray, n: int):
    """Pivot columns and rank of bit-packed binary rows (row echelon).

    Consumes ``packed``.  Rows ``r:`` are the ones not yet used as pivots;
    they are zero in every column left of the current one, so eliminating
    a column XORs only the words from its own word on.  A used pivot row is
    never read again, so the top unused row simply takes its slot.
    """
    m = packed.shape[0]
    pivots = []
    r = 0
    for col in range(n):
        w = col >> 6
        active = packed[r:]
        hits = np.nonzero(active[:, w] & (np.uint64(1) << np.uint64(col & 63)))[0]
        if hits.size == 0:
            continue
        first = hits[0]
        if hits.size > 1:
            active[hits[1:], w:] ^= active[first, w:]
        if first:
            active[first] = active[0]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return np.array(pivots, dtype=np.int64), r


def coset_index(pcm: SparseParityCheck, x: np.ndarray) -> np.ndarray:
    """Key bits identifying x within its coset: the free-column values.

    For a full-row-rank matrix the key has length n - m and, jointly with
    the syndrome, identifies x uniquely; a rank-deficient matrix yields a
    rank-derived key length and a warning.
    """
    x = np.asarray(x)
    if x.size != pcm.n:
        raise ValueError("vector length mismatch")
    pivots, free, rank = pcm.systemization()
    if rank < pcm.m:
        warnings.warn(
            f"parity-check matrix rank {rank} < {pcm.m} rows; "
            f"key length adjusted to {pcm.n - rank}",
            stacklevel=2,
        )
    return x[free].astype(np.uint8)


# ---------------------------------------------------------------------------
# constructions


def construct_regular(n: int, m: int, col_weight: int, seed=None) -> SparseParityCheck:
    """Random regular ensemble: every column weight ``col_weight``, every row
    weight ``col_weight * n / m`` (which must divide evenly).

    Sockets are dealt by one random permutation, then duplicate entries and
    row pairs sharing two or more columns are repaired by random swaps.  The
    work is vectorized over rows except for the swaps themselves, and memory
    stays proportional to the ``n * col_weight`` edges.
    """
    if m < 1:
        raise ValueError(f"need at least one parity check, got m={m}")
    if col_weight < 2:
        raise ValueError("col_weight must be >= 2")
    if (col_weight * n) % m:
        raise ValueError("col_weight * n must be divisible by m")
    row_weight = col_weight * n // m
    if row_weight > n or col_weight > m:
        raise ValueError("infeasible degree constraints")
    rng = make_rng(seed)
    sockets = np.repeat(np.arange(n, dtype=np.int32), col_weight)
    entries = None
    for _ in range(_REPAIR_TRIES):
        perm = rng.permutation(sockets).reshape(m, row_weight)
        if _repair_duplicates(perm, rng):
            entries = perm
            break
    if entries is None:
        raise ValueError("could not realize duplicate-free rows; "
                         "degree constraints too tight")
    _break_four_cycles(entries, rng)
    return SparseParityCheck(entries, n)


def _rows_with_duplicates(entries: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``entries`` that repeat a column."""
    ordered = np.sort(entries, axis=1)
    return np.nonzero((np.diff(ordered, axis=1) == 0).any(axis=1))[0]


def _repair_duplicates(entries: np.ndarray, rng) -> bool:
    """Swap duplicate in-row entries with entries of other rows, in place."""
    m, k = entries.shape
    budget = _REPAIR_TRIES * m
    while budget > 0:
        dup_rows = _rows_with_duplicates(entries)
        if dup_rows.size == 0:
            return True
        for i in dup_rows:
            row = np.sort(entries[i])
            dups = row[1:][row[1:] == row[:-1]]
            if dups.size == 0:  # an earlier swap may have fixed this row
                continue
            pos = int(np.nonzero(entries[i] == dups[0])[0][-1])
            j = int(rng.integers(0, m))
            q = int(rng.integers(0, k))
            vi, vj = entries[i, pos], entries[j, q]
            if vj not in entries[i] and (j == i or vi not in entries[j]):
                entries[i, pos], entries[j, q] = vj, vi
            budget -= 1
            if budget <= 0:
                break
    return _rows_with_duplicates(entries).size == 0


def _overlapping_pairs(entries: np.ndarray) -> np.ndarray:
    """Row pairs (i, j), i < j, sharing two or more columns, row-major order.

    The overlap counts are the upper triangle of H Hᵀ, formed as a sparse
    product of the duplicate-free rows, so memory grows with the number of
    edges rather than with m x n.
    """
    from scipy import sparse
    m, k = entries.shape
    n = int(entries.max()) + 1
    h = sparse.csr_matrix(
        (np.ones(m * k, dtype=np.int32), entries.ravel(),
         np.arange(0, m * k + 1, k)), shape=(m, n))
    overlap = sparse.triu(h @ h.T, k=1, format="coo")
    keep = overlap.data >= 2
    i, j = overlap.row[keep], overlap.col[keep]
    order = np.lexsort((j, i))
    return np.stack([i[order], j[order]], axis=1)


def _break_four_cycles(entries: np.ndarray, rng) -> None:
    """Best-effort removal of row pairs sharing two or more columns."""
    m, k = entries.shape
    for _ in range(_CYCLE_PASSES):
        bad = _overlapping_pairs(entries)
        if bad.size == 0:
            return
        for i, j in bad:
            shared = np.intersect1d(entries[i], entries[j])
            if shared.size < 2:
                continue
            # move one shared column of row j elsewhere by swapping
            pos = int(np.nonzero(entries[j] == shared[-1])[0][0])
            for _ in range(_REPAIR_TRIES):
                t = int(rng.integers(0, m))
                q = int(rng.integers(0, k))
                vj, vt = entries[j, pos], entries[t, q]
                if (vt not in entries[j] and vj not in entries[t]
                        and t not in (int(i), int(j))):
                    entries[j, pos], entries[t, q] = vt, vj
                    break


def _realized_counts(dist: dict, total: int) -> np.ndarray:
    """Largest-remainder rounding of fraction*total per degree."""
    degrees = sorted(dist)
    fracs = np.array([dist[d] for d in degrees], dtype=float)
    if abs(fracs.sum() - 1.0) > 1e-9 or np.any(fracs < 0):
        raise ValueError("degree fractions must be nonnegative and sum to 1")
    raw = fracs * total
    counts = np.floor(raw).astype(int)
    short = total - counts.sum()
    order = np.argsort(-(raw - counts))
    counts[order[:short]] += 1
    out = np.repeat(degrees, counts)
    return out


def construct_irregular(n: int, m: int, var_degree_distribution: dict,
                        check_degree_distribution: dict | None = None,
                        seed=None) -> SparseParityCheck:
    """Progressive-edge-growth placement honoring node-degree distributions.

    Distributions map degree -> fraction of nodes.  ``None`` for the check
    side spreads edges as evenly as possible.  Edge counts on both sides
    must agree within rounding.  Adding each edge avoids checks within
    distance 3 of the variable when possible, so 4-cycles appear only when
    forced (girth >= 6 best effort).

    Each edge goes to a check of least load (degree minus target), chosen
    uniformly among the first non-empty of: under-target checks outside
    distance 3, under-target checks not yet adjacent, any check outside
    distance 3, any check not yet adjacent.  The bookkeeping is incremental.
    Variables are finished one at a time, so the distance-3 set of the
    current variable is a running union: taking check c adds the checks of
    every variable on c.  Checks sit in buckets by load, each sorted by
    index; a pick walks the buckets from the lowest load and maps its draw
    to the k-th entry of the first bucket not wholly blocked, stepping over
    the blocked entries before it; the taken check then moves up one
    bucket.  Per edge that is one pass over the blocked checks per bucket
    visited, the union it adds and two sorted-list updates (C memmoves),
    where a fresh mask per edge cost O(m) Python-level work.
    """
    if m < 1:
        raise ValueError(f"need at least one parity check, got m={m}")
    rng = make_rng(seed)
    var_deg = _realized_counts(var_degree_distribution, n)
    edges_total = int(var_deg.sum())
    if check_degree_distribution is None:
        base = edges_total // m
        targets = np.full(m, base, dtype=int)
        targets[: edges_total - base * m] += 1
    else:
        targets = _realized_counts(check_degree_distribution, m)
        if abs(int(targets.sum()) - edges_total) > 1:
            raise ValueError(
                f"edge-count mismatch: variables want {edges_total}, "
                f"checks provide {int(targets.sum())}"
            )
    if np.any(var_deg > m):
        raise ValueError("a variable degree exceeds the check count")

    # place low-degree variables first; they are the most constrained ones
    order = np.argsort(var_deg, kind="stable")
    check_rows: list[list[int]] = [[] for _ in range(m)]
    var_adj: list[list[int]] = [[] for _ in range(n)]
    load = (-targets).tolist()
    low = min(load)
    # buckets[i] holds the checks at load low + i; loads below 0 are under
    # target, the first -low buckets
    buckets: list[list[int]] = [[] for _ in range(max(*load, 0) - low + 1)]
    for c, l in enumerate(load):
        buckets[l - low].append(c)

    def pick(blocked, under):
        """Least-load check outside ``blocked``, drawn uniformly; under
        target only if ``under``.  None (and no draw) if there is none."""
        for i in range(-low if under else len(buckets)):
            bucket = buckets[i]
            if not bucket:
                continue
            level = i + low
            skip = sorted([c for c in blocked if load[c] == level])
            if len(bucket) > len(skip):
                k = int(rng.integers(0, len(bucket) - len(skip)))
                for c in skip:
                    if c > bucket[k]:
                        break
                    k += 1
                return bucket[k]
        return None

    for v in order:
        v = int(v)
        adjacent = var_adj[v]
        near: set[int] = set()  # checks within distance 3 of v
        preferences = ((near, True), (adjacent, True), (near, False),
                       (adjacent, False))
        for _ in range(int(var_deg[v])):
            # prefer honoring the check-degree targets, then girth; a
            # variable never exceeds m edges, so the last pick always finds one
            for blocked, under in preferences:
                c = pick(blocked, under)
                if c is not None:
                    break
            check_rows[c].append(v)
            adjacent.append(c)
            near.update(*[var_adj[u] for u in check_rows[c]])
            i = load[c] - low
            del buckets[i][bisect_left(buckets[i], c)]
            load[c] += 1
            if i + 1 == len(buckets):
                buckets.append([])
            insort(buckets[i + 1], c)
    if any(not r for r in check_rows):
        raise ValueError("a check node received no edges; distributions "
                         "leave some rows empty")
    return SparseParityCheck([np.array(r, dtype=np.int32) for r in check_rows], n)
