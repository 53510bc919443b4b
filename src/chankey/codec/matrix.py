"""Sparse parity-check matrices: construction, syndromes, and coset keys.

Matrices are binary and stored once, in CSR form: the rows' sorted column
indices, concatenated, and the row offsets.  Two constructions are
provided: a Gallager-style random regular ensemble (exact column weight,
exact row weight, duplicate entries and 4-cycles repaired by bounded edge
swaps) and a progressive-edge-growth placement for an arbitrary
variable-degree distribution (girth >= 6 attempted, best effort).  The
placement keeps its sets of checks as Python-int bitsets and serves its
uniform picks from pooled raw words by numpy's own bounded-integer rule,
so its codes, and a passed ``Generator``'s final state, are those of one
``Generator.integers`` call per pick.

The key of an observation is its index within the coset selected by the
syndrome: after a one-time column classification into pivot and free columns
(a GF(2) echelon basis of the row space), the free-column values index the
coset bijectively.

``syndrome`` and the decoders' stop test share one parity over H: ``parity``
of the degree-class edge layout (``_Graph``) that ``graph_for`` caches.

Construction and row reduction never form a dense m x n matrix.  Row
pairs for the 4-cycle repair are read off the column incidence of the
edges, the row reduction inserts the rows one at a time into an echelon
basis of Python ints, converted from the CSR arrays a chunk of rows at a
time, and the placement's bitsets hold one m-bit set per check, so memory
grows with the edge count and with m * n bits.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, insort

import numpy as np

from ..rng import make_rng, row_chunks

# Budget multipliers for the random-swap repairs in construct_regular.
_REPAIR_TRIES = 200
_CYCLE_PASSES = 8

# One more than the largest raw 32-bit word a bit generator hands out.
_WORD = 1 << 32


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
        self._n = int(n_cols)
        self._cache: dict = {}

    # -- basic shape -------------------------------------------------------

    @property
    def m(self) -> int:
        return self._indptr.size - 1

    @property
    def n(self) -> int:
        return self._n

    @property
    def rows(self) -> tuple:
        """Each row's sorted column indices, split from CSR on first read."""
        if "rows" not in self._cache:
            self._cache["rows"] = tuple(
                np.split(self._indices, self._indptr[1:-1]))
        return self._cache["rows"]

    def row_degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    # -- derived structures (cached) ----------------------------------------

    def syndrome(self, x: np.ndarray) -> np.ndarray:
        """Row parities of integer x, ``(H @ x) & 1``, as uint8 in row order."""
        x = self._vector(x)
        g = graph_for(self)
        out = np.empty(self.m, dtype=np.uint8)
        out[g.check_order] = g.parity(x)
        return out

    def _vector(self, x) -> np.ndarray:
        """``x`` as an array, which must be 1-D of length n."""
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"expected a vector of shape ({self.n},), "
                             f"got shape {x.shape}")
        return x

    def systemization(self):
        """(pivot_cols, free_cols, rank) of the GF(2) row space.

        The pivot columns of an echelon form depend only on the row space;
        ``_echelon_pivots`` finds them by inserting the rows into an
        echelon basis.  Computed once and cached; the fixed column
        classification makes the coset index reproducible across calls.
        """
        if "system" not in self._cache:
            pivots = _echelon_pivots(self._indices, self._indptr, self.n)
            free = np.setdiff1d(np.arange(self.n), pivots, assume_unique=True)
            self._cache["system"] = (pivots, free, pivots.size)
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
        if bits.dtype != bool:
            bits = np.bitwise_and(bits, 1)
        on = np.take(bits, self.edge_var)
        parts = [np.bitwise_xor.reduce(on[edges].reshape(d, -1), axis=0)
                 for edges, _, d in self.check_blocks]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def graph_for(pcm: SparseParityCheck) -> _Graph:
    if "graph" not in pcm._cache:
        pcm._cache["graph"] = _Graph(pcm)
    return pcm._cache["graph"]


# ---------------------------------------------------------------------------
# GF(2) elimination on Python-int rows


def _echelon_pivots(indices: np.ndarray, indptr: np.ndarray,
                    n: int) -> np.ndarray:
    """Pivot columns of the CSR rows' GF(2) row space, ascending.

    Each row becomes a Python int with column c at bit n - 1 - c, so its
    ``bit_length()`` is n minus its leftmost column.  A row is XORed with
    the basis row of its top bit until that bit is new, where the row is
    stored, or the row vanishes; the stored tops are the leading columns of
    an echelon basis.  The rows are packed into little-endian 64-bit words
    one ``row_chunks`` piece at a time, so only one piece's words are held
    next to the basis.
    """
    words = (n + 63) // 64
    row_bytes = 8 * words
    basis: dict[int, int] = {}
    for rows in row_chunks(indptr.size - 1, row_bytes):
        ptr = indptr[rows.start:rows.stop + 1]
        bit = (n - 1) - indices[ptr[0]:ptr[-1]].astype(np.int64)
        cell = np.repeat(np.arange(ptr.size - 1), np.diff(ptr)) * words
        packed = np.zeros((ptr.size - 1) * words, dtype="<u8")
        np.bitwise_or.at(packed, cell + (bit >> 6),
                         np.left_shift(1, (bit & 63).astype("<u8")))
        buf = packed.tobytes()
        for start in range(0, len(buf), row_bytes):
            row = int.from_bytes(buf[start:start + row_bytes], "little")
            top = row.bit_length()
            while top in basis:
                row ^= basis[top]
                top = row.bit_length()
            if top:
                basis[top] = row
    return np.array(sorted(n - top for top in basis), dtype=np.int64)


def coset_index(pcm: SparseParityCheck, x: np.ndarray) -> np.ndarray:
    """Key bits identifying x within its coset: the free-column values.

    For a full-row-rank matrix the key has length n - m and, jointly with
    the syndrome, identifies x uniquely; a rank-deficient matrix yields a
    rank-derived key length and a warning.
    """
    x = pcm._vector(x)
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


def construct_regular(n: int, m: int, col_weight: int, seed) -> SparseParityCheck:
    """Random regular ensemble: every column weight ``col_weight``, every row
    weight ``col_weight * n / m`` (which must divide evenly).

    Sockets are dealt by one random permutation, then duplicate entries and
    row pairs sharing two or more columns are repaired by random swaps; a
    duplicate repair that runs out of swaps raises ``ValueError``.  The
    work is vectorized over rows except for the swaps themselves, and memory
    stays proportional to the ``n * col_weight`` edges.
    """
    if m < 1:
        raise ValueError(f"need at least one parity check, got m={m}")
    if col_weight < 2:
        raise ValueError("col_weight must be >= 2")
    if col_weight >= m:
        raise ValueError(f"need m > col_weight = {col_weight} parity checks "
                         f"(else every row holds every column), got m={m}")
    if (col_weight * n) % m:
        raise ValueError("col_weight * n must be divisible by m")
    row_weight = col_weight * n // m
    rng = make_rng(seed)
    sockets = np.repeat(np.arange(n, dtype=np.int32), col_weight)
    entries = rng.permutation(sockets).reshape(m, row_weight)
    if not _repair_duplicates(entries, rng):
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

    A stable sort of the duplicate-free rows by column lists each column's
    rows in ascending order, and same-column entries d apart name a row
    pair; a pair named twice or more shares two columns.  Memory grows with
    the number of edges rather than with m x n.
    """
    m, k = entries.shape
    order = np.argsort(entries, axis=None, kind="stable")
    cols, rows = entries.ravel()[order], order // k
    keys = [np.empty(0, dtype=np.int64)]
    for d in range(1, cols.size):
        same = cols[d:] == cols[:-d]
        if not same.any():
            break
        keys.append(rows[:-d][same] * m + rows[d:][same])
    pairs, counts = np.unique(np.concatenate(keys), return_counts=True)
    pairs = pairs[counts >= 2]
    return np.stack([pairs // m, pairs % m], axis=1)


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


class _BoundedDraws:
    """``Generator.integers(0, k)`` draws, 1 <= k < 2**32, from pooled words.

    numpy bounds such a draw by Lemire's multiply-shift with rejection on
    one raw 32-bit word per attempt, and draws nothing for k = 1 (Lemire,
    ACM TOMACS 2019).  ``below`` applies the same rule to the words of
    ``integers(0, 2**32, size=block, dtype=np.uint32)`` blocks, which are
    the same words in the same order, so it returns the same values as one
    ``integers(0, k)`` call per draw.  ``sync`` then restores the state the
    generator had on entry and draws exactly the words used, leaving it
    where those calls would have left it.
    """

    def __init__(self, rng: np.random.Generator, block: int):
        self._rng = rng
        self._entry = rng.bit_generator.state
        self._block = max(block, 1)
        self._words: list[int] = []
        self._next = 0
        self._spent = 0  # words of the blocks before the current one

    def below(self, k: int) -> int:
        if k == 1:
            return 0
        while True:
            if self._next == len(self._words):
                self._spent += len(self._words)
                self._words = self._rng.integers(
                    0, _WORD, size=self._block, dtype=np.uint32).tolist()
                self._next = 0
            x = self._words[self._next] * k
            self._next += 1
            leftover = x & (_WORD - 1)
            if leftover >= k or leftover >= _WORD % k:
                return x >> 32

    def sync(self) -> None:
        used = self._spent + self._next
        self._rng.bit_generator.state = self._entry
        if used:
            self._rng.integers(0, _WORD, size=used, dtype=np.uint32)


def construct_irregular(n: int, m: int, var_degree_distribution: dict, *,
                        seed) -> SparseParityCheck:
    """Progressive-edge-growth placement honoring a variable-degree
    distribution.

    The distribution maps degree -> fraction of variables; the checks'
    target degrees spread the edges as evenly as possible.  Adding each
    edge avoids checks within distance 3 of the variable when possible, so
    4-cycles appear only when forced (girth >= 6 best effort).

    Each edge goes to a check of least load (degree minus target), chosen
    uniformly among the first non-empty of: under-target checks outside
    distance 3, under-target checks not yet adjacent, any check outside
    distance 3, any check not yet adjacent.  The bookkeeping is incremental
    and uses Python-int bitsets over the checks.  Variables are finished
    one at a time, so the distance-3 set of the current variable is a
    running union: taking check c ORs in the variable's own checks and the
    reach of c, the checks of the finished variables on c, to which a
    finished variable adds its checks on each of them.  Checks sit in
    buckets by load, each kept both as a list sorted by index and as a
    bitset; loads only grow, so the buckets below the first non-empty one
    are never visited again.  A pick walks the
    buckets from there, counts the blocked checks of each as one popcount
    of the blocked set and the bucket's bitset, and maps its draw k to the
    k-th unblocked entry of the first bucket not wholly blocked by a few
    popcount jumps over the sorted list.  The taken check then moves up one
    bucket.  Draws come from ``_BoundedDraws``, so the codes, and the state
    a ``Generator`` passed as ``seed`` is left in, are those of one
    ``integers(0, k)`` call per pick.
    """
    if m < 1:
        raise ValueError(f"need at least one parity check, got m={m}")
    rng = make_rng(seed)
    var_deg = _realized_counts(var_degree_distribution, n)
    edges_total = int(var_deg.sum())
    base = edges_total // m
    targets = np.full(m, base, dtype=int)
    targets[: edges_total - base * m] += 1
    if np.any(var_deg > m):
        raise ValueError("a variable degree exceeds the check count")

    # place low-degree variables first; they are the most constrained ones
    order = np.argsort(var_deg, kind="stable").tolist()
    var_deg = var_deg.tolist()
    check_rows: list[list[int]] = [[] for _ in range(m)]
    # bitset of the checks of the finished variables on each check
    reach = [0] * m
    load = (-targets).tolist()
    low = min(load)
    # buckets[i] and members[i] hold the checks at load low + i; loads
    # below 0 are under target, the first -low buckets
    buckets: list[list[int]] = [[] for _ in range(max(*load, 0) - low + 1)]
    members = [0] * len(buckets)
    for c, l in enumerate(load):
        buckets[l - low].append(c)
    for i, bucket in enumerate(buckets):
        if bucket:  # the targets make each bucket a run of indices
            members[i] = ((1 << (bucket[-1] + 1)) - 1) ^ ((1 << bucket[0]) - 1)
    first = 0  # every bucket below it is empty for good
    draws = _BoundedDraws(rng, edges_total)
    below = draws.below

    def pick(blocked, under):
        """Least-load check outside bitset ``blocked``, drawn uniformly;
        under target only if ``under``.  None (and no draw) if there is
        none."""
        for i in range(first, -low if under else len(buckets)):
            bucket = buckets[i]
            skip = blocked & members[i]
            if not skip:
                if bucket:
                    return bucket[below(len(bucket))]
                continue
            free = len(bucket) - skip.bit_count()
            if free:
                # the k-th unskipped entry is bucket[p] for the least p
                # with p = k + (skipped entries up to bucket[p])
                k = below(free)
                p = k
                while True:
                    q = k + (skip & ((2 << bucket[p]) - 1)).bit_count()
                    if q == p:
                        return bucket[p]
                    p = q
        return None

    for v in order:
        near = adjacent = 0  # checks within distance 3 of v, and on v
        checks = []
        for _ in range(var_deg[v]):
            # prefer honoring the check-degree targets, then girth; a
            # variable never exceeds m edges, so the last pick always finds one
            c = pick(near, True)
            if c is None:
                c = pick(adjacent, True)
                if c is None:
                    c = pick(near, False)
                    if c is None:
                        c = pick(adjacent, False)
            bit = 1 << c
            check_rows[c].append(v)
            checks.append(c)
            adjacent |= bit
            near |= reach[c] | adjacent
            i = load[c] - low
            del buckets[i][bisect_left(buckets[i], c)]
            members[i] ^= bit
            load[c] += 1
            if i + 1 == len(buckets):
                buckets.append([])
                members.append(0)
            insort(buckets[i + 1], c)
            members[i + 1] |= bit
            while not buckets[first]:
                first += 1
        for c in checks:
            reach[c] |= adjacent
    draws.sync()
    if any(not r for r in check_rows):
        raise ValueError("a check node received no edges; the variable "
                         "degrees leave some rows empty")
    return SparseParityCheck([np.array(r, dtype=np.int32) for r in check_rows], n)
