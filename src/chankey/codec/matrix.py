"""Sparse parity-check matrices: construction, syndromes, and coset keys.

Matrices are binary and stored row-wise as sorted column-index arrays.  Two
constructions are provided: a Gallager-style random regular ensemble (exact
column weight, exact row weight, duplicate entries and 4-cycles repaired by
bounded edge swaps) and a progressive-edge-growth placement for arbitrary
degree distributions (girth >= 6 attempted, best effort).

The key of an observation is its index within the coset selected by the
syndrome: after a one-time column classification into pivot and free columns
(GF(2) row reduction), the free-column values index the coset bijectively.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import sparse

from ..rng import make_rng

# Budget multipliers for the random-swap repairs in construct_regular.
_REPAIR_TRIES = 200
_CYCLE_PASSES = 8


class SparseParityCheck:
    """Immutable m x n binary parity-check matrix."""

    def __init__(self, row_cols, n_cols: int):
        rows = []
        col_seen = np.zeros(n_cols, dtype=bool)
        for r in row_cols:
            r = np.asarray(r, dtype=np.int32)
            if r.size == 0:
                raise ValueError("empty parity-check row")
            if r.min() < 0 or r.max() >= n_cols:
                raise ValueError("column index out of range")
            r = np.sort(r)
            if np.any(np.diff(r) == 0):
                raise ValueError("duplicate column index within a row")
            col_seen[r] = True
            rows.append(r)
        if not rows:
            raise ValueError("matrix needs at least one row")
        if not col_seen.all():
            raise ValueError("every column must have degree >= 1")
        self._rows = tuple(rows)
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

    def design_rate(self, alphabet: int = 2) -> float:
        """(1 - m/n) * log2(q) bits per symbol for a q-ary source."""
        return (1.0 - self.m / self.n) * np.log2(alphabet)

    def row_degrees(self) -> np.ndarray:
        return np.array([r.size for r in self._rows])

    def col_degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for r in self._rows:
            deg[r] += 1
        return deg

    def dense(self) -> np.ndarray:
        out = np.zeros((self.m, self.n), dtype=np.uint8)
        for i, r in enumerate(self._rows):
            out[i, r] = 1
        return out

    # -- derived structures (cached) ----------------------------------------

    def _csr(self):
        if "csr" not in self._cache:
            indptr = np.concatenate([[0], np.cumsum([r.size for r in self._rows])])
            indices = np.concatenate(self._rows)
            data = np.ones(indices.size, dtype=np.uint8)
            self._cache["csr"] = sparse.csr_matrix(
                (data, indices, indptr), shape=(self.m, self.n)
            )
        return self._cache["csr"]

    def syndrome(self, x: np.ndarray) -> np.ndarray:
        """Row parities of x (GF(2) product)."""
        x = np.asarray(x)
        if x.size != self.n:
            raise ValueError(f"vector length {x.size} != {self.n} columns")
        return np.asarray(
            (self._csr() @ x.astype(np.int64)) & 1, dtype=np.uint8
        )

    def systemization(self):
        """(pivot_cols, free_cols, rank) from GF(2) row reduction.

        Computed once and cached; the fixed column classification makes the
        coset index reproducible across calls.
        """
        if "system" not in self._cache:
            pivots, rank = _gf2_pivots(self.dense())
            mask = np.zeros(self.n, dtype=bool)
            mask[pivots] = True
            free = np.nonzero(~mask)[0]
            self._cache["system"] = (pivots, free, rank)
        return self._cache["system"]

    @property
    def rank(self) -> int:
        return self.systemization()[2]

    # -- serialization -------------------------------------------------------

    def to_alist(self, path) -> None:
        """Write the standard alist sparse text format (1-indexed, 0-padded)."""
        col_lists = [[] for _ in range(self.n)]
        for i, r in enumerate(self._rows):
            for c in r:
                col_lists[c].append(i + 1)
        max_col = max(len(c) for c in col_lists)
        max_row = max(r.size for r in self._rows)
        with open(path, "w") as fh:
            fh.write(f"{self.n} {self.m}\n")
            fh.write(f"{max_col} {max_row}\n")
            fh.write(" ".join(str(len(c)) for c in col_lists) + "\n")
            fh.write(" ".join(str(r.size) for r in self._rows) + "\n")
            for c in col_lists:
                padded = c + [0] * (max_col - len(c))
                fh.write(" ".join(map(str, padded)) + "\n")
            for r in self._rows:
                padded = [int(c) + 1 for c in r] + [0] * (max_row - r.size)
                fh.write(" ".join(map(str, padded)) + "\n")

    @classmethod
    def from_alist(cls, path) -> "SparseParityCheck":
        with open(path) as fh:
            tokens = fh.read().split()
        it = iter(tokens)
        n, m = int(next(it)), int(next(it))
        max_col, max_row = int(next(it)), int(next(it))
        _col_degs = [int(next(it)) for _ in range(n)]
        row_degs = [int(next(it)) for _ in range(m)]
        for _ in range(n * max_col):  # column lists, redundant with rows
            next(it)
        rows = []
        for i in range(m):
            entries = [int(next(it)) for _ in range(max_row)]
            rows.append(np.array([e - 1 for e in entries if e > 0],
                                 dtype=np.int32))
            if rows[-1].size != row_degs[i]:
                raise ValueError(f"row {i} degree mismatch in alist file")
        return cls(rows, n)


# ---------------------------------------------------------------------------
# GF(2) elimination on bit-packed rows


def _pack_rows(dense: np.ndarray) -> np.ndarray:
    m, n = dense.shape
    words = (n + 63) // 64
    packed = np.zeros((m, words), dtype=np.uint64)
    for w in range(words):
        block = dense[:, w * 64:(w + 1) * 64].astype(np.uint64)
        shifts = np.arange(block.shape[1], dtype=np.uint64)
        packed[:, w] = (block << shifts).sum(axis=1, dtype=np.uint64)
    return packed


def _gf2_pivots(dense: np.ndarray):
    """Pivot columns and rank of a binary matrix (row echelon, packed)."""
    m, n = dense.shape
    packed = _pack_rows(dense)
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


def _rows_from_matrix(entries: np.ndarray, n: int) -> SparseParityCheck:
    return SparseParityCheck([row for row in entries], n)


def construct_regular(n: int, m: int, col_weight: int, seed=None) -> SparseParityCheck:
    """Random regular ensemble: every column weight ``col_weight``, every row
    weight ``col_weight * n / m`` (which must divide evenly)."""
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
    return _rows_from_matrix(entries, n)


def _repair_duplicates(entries: np.ndarray, rng) -> bool:
    """Swap duplicate in-row entries with entries of other rows, in place."""
    m, k = entries.shape
    budget = _REPAIR_TRIES * m
    while budget > 0:
        dup_rows = [i for i in range(m)
                    if np.unique(entries[i]).size != k]
        if not dup_rows:
            return True
        for i in dup_rows:
            vals, counts = np.unique(entries[i], return_counts=True)
            dups = vals[counts > 1]
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
    return all(np.unique(entries[i]).size == k for i in range(m))


def _break_four_cycles(entries: np.ndarray, rng) -> None:
    """Best-effort removal of row pairs sharing two or more columns."""
    m, k = entries.shape
    n = int(entries.max()) + 1
    for _ in range(_CYCLE_PASSES):
        dense = np.zeros((m, n), dtype=np.float32)
        np.put_along_axis(dense, entries.astype(np.int64), 1.0, axis=1)
        overlap = dense @ dense.T
        np.fill_diagonal(overlap, 0.0)
        bad = np.argwhere(overlap >= 2.0)
        bad = bad[bad[:, 0] < bad[:, 1]]
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
    """
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
            # checks within distance 3: neighbors of co-variables
            co_vars = {u for c in var_adj[v] for u in check_rows[c]}
            for u in co_vars:
                near[var_adj[u]] = True
            under = degree < targets
            # prefer honoring the check-degree targets, then girth
            for mask in (under & ~near, under & ~adjacent, ~near, ~adjacent):
                c = pick(mask)
                if c is not None:
                    break
            if c is None:
                raise ValueError("cannot place edge without duplicating one")
            check_rows[c].append(int(v))
            var_adj[v].append(c)
            degree[c] += 1
    if any(not r for r in check_rows):
        raise ValueError("a check node received no edges; distributions "
                         "leave some rows empty")
    return SparseParityCheck([np.array(r, dtype=np.int32) for r in check_rows], n)
