"""Syndrome sum-product decoders over sparse parity-check codes.

All three decoders recover Alice's quantized vector from Bob's evidence and
the public syndrome by coset decoding: check-node updates are sign-adjusted
by the target syndrome bits, so belief propagation runs with respect to the
coset rather than the zero codeword.

* ``decode_binary`` -- standard sum-product on one code.
* ``decode_quaternary`` -- two binary plane codes coupled through per-symbol
  factor nodes enforcing x = x_L + 2 x_M, with channel evidence entering as
  a probability vector over the four levels.
* ``decode_with_phase_offset`` -- binary decoding with one extra variable
  node for the session's unknown oscillator rotation, connected to every
  evidence node; Bob's evidence comes once per hypothesis of a rotation
  grid.

All three run their flooding iterations through ``_flood``, the one stop
rule: the estimate meets the target syndrome, no message moves by
``MESSAGE_TOL``, or ``max_iter`` (at least 1) iterations have run.

Messages on the plane codes live in the log-likelihood-ratio domain
(positive favors bit 0, clamped to +/-LLR_CLAMP); factor-node and rotation
messages live in the normalized probability domain.

The sum-product kernel (``_BinarySP``) runs on the degree-class edge
layout of ``codec.matrix.graph_for``.  The checks of one degree form one
contiguous block, stored edge slot by edge slot, so a per-check product or
sign parity is a reduction over the block's d rows, done as whole-vector
operations; the variables of one degree gather their messages into a block
the same way.  The stop test is the layout's ``parity`` of the hard
decision (as in ``syndrome``) against the syndrome in block order.

The check update is the tanh rule in product form (Kschischang, Frey
and Loeliger, IEEE T-IT 2001): the product of a check's |tanh(v2c / 2)|
factors, divided by each edge's own factor, is the product of the others,
with no log or exp per edge.  The factors are floored at 1e-12, so no
divisor is zero.  At a high check degree the product may underflow to 0;
the message is then a zero carrying the others' sign parity, as exp of a
very negative log-sum gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import SparseParityCheck, graph_for

LLR_CLAMP = 30.0
MESSAGE_TOL = 1e-6
DEFAULT_MAX_ITER = 50
_TINY = 1e-300


@dataclass
class DecodeResult:
    """Decoder output: estimate plus convergence diagnostics."""

    estimate: np.ndarray
    converged: bool
    iterations_used: int
    syndrome_satisfied: bool
    theta_hat: float | None = None


def _flood(steps, satisfies, max_iter: int) -> DecodeResult:
    """Run ``steps`` under the one stop rule shared by every decoder.

    ``steps`` yields ``(estimate, largest message change)`` once per
    iteration.  Stop when ``satisfies(estimate)`` (converged, satisfied),
    when no message moved by ``MESSAGE_TOL`` (converged, unsatisfied), or
    after ``max_iter`` iterations (neither flag set).
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    for it, (estimate, delta) in zip(range(1, max_iter + 1), steps):
        if satisfies(estimate):
            return DecodeResult(estimate, True, it, True)
        if delta < MESSAGE_TOL:
            return DecodeResult(estimate, True, it, False)
    return DecodeResult(estimate, False, max_iter, False)


class _BinarySP:
    """One plane of syndrome sum-product with persistent messages.

    Evidence may change between iterations (the factor-coupled and
    rotation-aware decoders update it), so each step takes the current
    per-variable LLRs and returns the new per-variable extrinsic totals.
    Messages live in the graph's degree-class edge layout; the syndrome is
    held in its check order.
    """

    def __init__(self, pcm: SparseParityCheck, syndrome_bits: np.ndarray):
        s = np.asarray(syndrome_bits)
        if s.size != pcm.m:
            raise ValueError(f"syndrome length {s.size} != {pcm.m} rows")
        self.g = graph_for(pcm)
        self.syndrome = s[self.g.check_order].astype(bool)
        edges = self.g.edge_var.size
        self.c2v = np.zeros(edges)
        self.totals = np.zeros(pcm.n)  # per-variable sums of self.c2v
        self.last_delta = np.inf
        self._next = np.empty(edges)
        self._work = np.empty(edges)
        self._excl = np.empty(edges)
        self._neg = np.empty(edges, dtype=bool)

    def step(self, evidence_llr: np.ndarray) -> np.ndarray:
        g = self.g
        work, excl, neg, new = self._work, self._excl, self._neg, self._next
        # variable-to-check messages, then |tanh(v2c / 2)| and its sign;
        # take's "clip" mode (indices are in range) writes to out unbuffered
        np.take(evidence_llr + self.totals, g.edge_var, out=work, mode="clip")
        work -= self.c2v
        np.clip(work, -LLR_CLAMP, LLR_CLAMP, out=work)
        work *= 0.5
        np.tanh(work, out=work)
        np.less(work, 0.0, out=neg)
        np.abs(work, out=work)
        np.maximum(work, 1e-12, out=work)  # |tanh| <= 1 already

        # per check: the product of the other edges' factors, and whether
        # the outgoing message is negated (odd parity of the others' signs
        # and of the target syndrome bit)
        for edges, checks, d in g.check_blocks:
            t = work[edges].reshape(d, -1)
            flip = neg[edges].reshape(d, -1)
            np.divide(np.multiply.reduce(t, axis=0), t,
                      out=excl[edges].reshape(d, -1))
            odd = np.bitwise_xor.reduce(flip, axis=0)
            flip ^= odd ^ self.syndrome[checks]

        np.minimum(excl, 1.0 - 1e-15, out=excl)  # quotients are >= +0.0
        np.arctanh(excl, out=excl)
        np.multiply(neg, -4.0, out=new)
        new += 2.0  # +/-2.0 by sign
        new *= excl
        np.clip(new, -LLR_CLAMP, LLR_CLAMP, out=new)

        np.subtract(new, self.c2v, out=excl)
        self.last_delta = float(np.abs(excl, out=excl).max())
        self._next, self.c2v = self.c2v, new

        np.take(new, g.var_edges, out=excl, mode="clip")
        totals = np.empty(self.totals.size)
        for variables, edges, d in g.var_blocks:
            totals[variables] = np.add.reduce(excl[edges].reshape(d, -1),
                                              axis=0)
        self.totals = totals
        return totals

    def satisfied(self, hard: np.ndarray) -> bool:
        """Whether the 0/1 decisions ``hard`` meet the target syndrome."""
        return np.array_equal(self.g.parity(hard), self.syndrome)


def decode_binary(pcm: SparseParityCheck, syndrome_bits: np.ndarray,
                  evidence_llr: np.ndarray,
                  max_iter: int = DEFAULT_MAX_ITER) -> DecodeResult:
    """Coset sum-product decoding of one binary plane.

    ``evidence_llr`` is log(P[bit=0]/P[bit=1]) per position.  Decoding stops
    by ``_flood``'s rule; failure is reported through the flags, not raised.
    """
    evidence_llr = np.asarray(evidence_llr, dtype=float)
    if evidence_llr.size != pcm.n:
        raise ValueError("evidence length mismatch")
    evidence_llr = np.clip(evidence_llr, -LLR_CLAMP, LLR_CLAMP)
    s = np.asarray(syndrome_bits, dtype=np.uint8)
    sp = _BinarySP(pcm, s)

    def steps():
        while True:
            totals = sp.step(evidence_llr)
            yield np.less(evidence_llr + totals, 0.0), sp.last_delta

    result = _flood(steps(), sp.satisfied, max_iter)
    result.estimate = result.estimate.view(np.uint8)
    return result


# ---------------------------------------------------------------------------
# quaternary bit-plane decoding


def _llr_to_prob(llr: np.ndarray):
    """(p0, p1) from log(p0/p1), numerically stable."""
    p1 = 1.0 / (1.0 + np.exp(np.clip(llr, -LLR_CLAMP, LLR_CLAMP)))
    return 1.0 - p1, p1


def _safe_llr(p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    return np.clip(np.log((p0 + _TINY) / (p1 + _TINY)), -LLR_CLAMP, LLR_CLAMP)


def evidence_to_llr(evidence) -> np.ndarray:
    """log(G(0)/G(1)) per symbol for binary evidence, clamped."""
    g = np.asarray(evidence, dtype=float)
    if g.ndim != 2 or g.shape[1] != 2:
        raise ValueError("binary evidence required")
    return _safe_llr(g[:, 0], g[:, 1])


def _plane_evidence(g: np.ndarray, prob_m, prob_l):
    """Factor-node messages into both planes.

    ``g`` holds the per-symbol channel evidence over levels {0,1,2,3} and
    ``prob_*`` the plane codes' extrinsic messages as ``_llr_to_prob``
    pairs.  Per the coupling constraint x = x_L + 2 x_M:

      to M: mu(0) ~ G(0) muL(0) + G(1) muL(1),  mu(1) ~ G(2) muL(0) + G(3) muL(1)
      to L: mu(0) ~ G(0) muM(0) + G(2) muM(1),  mu(1) ~ G(1) muM(0) + G(3) muM(1)
    """
    pm0, pm1 = prob_m
    pl0, pl1 = prob_l
    to_m = _safe_llr(g[:, 0] * pl0 + g[:, 1] * pl1,
                     g[:, 2] * pl0 + g[:, 3] * pl1)
    to_l = _safe_llr(g[:, 0] * pm0 + g[:, 2] * pm1,
                     g[:, 1] * pm0 + g[:, 3] * pm1)
    return to_m, to_l


def _symbol_marginal(prob_m, prob_l):
    """Factor-to-symbol message mu(a) ~ muM(a_M) muL(a_L), normalized.

    ``prob_*`` are the planes' ``_llr_to_prob`` pairs.  Returns the four
    levels' ``(N,)`` columns.  Their total is summed left to right, the
    rounding numpy's ``sum(axis=1)`` gives a row of four.
    """
    pm0, pm1 = prob_m
    pl0, pl1 = prob_l
    mu = [pm0 * pl0, pm0 * pl1, pm1 * pl0, pm1 * pl1]
    norm = np.maximum(sum(mu[1:], start=mu[0]), _TINY)
    for col in mu:
        col /= norm
    return mu


def _symbol_decision(g_cols, mu) -> np.ndarray:
    """Per symbol the level a maximizing G(a) mu(a), ties to the lowest.

    ``g_cols`` and ``mu`` hold one finite ``(N,)`` column per level; the
    columns of ``mu`` are overwritten.  Levels 0/1 and 2/3 are compared in
    pairs and the pair winners against each other, strictly greater winning
    each comparison, which gives ``np.argmax``'s first maximum.
    """
    v0, v1, v2, v3 = (np.multiply(m, g, out=m) for m, g in zip(mu, g_cols))
    high = np.maximum(v2, v3) > np.maximum(v0, v1)
    estimate = np.add(high, high, dtype=np.uint8)
    estimate += np.where(high, v3 > v2, v1 > v0)
    return estimate


def decode_quaternary(pcm_m: SparseParityCheck, pcm_l: SparseParityCheck,
                      syndrome_m: np.ndarray, syndrome_l: np.ndarray,
                      evidence, max_iter: int = DEFAULT_MAX_ITER) -> DecodeResult:
    """Joint decoding of both bit planes of 4-level quantized data.

    ``evidence`` is the (N, 4) array of per-symbol posteriors.  Each
    iteration floods both plane codes once and exchanges messages through
    the per-symbol coupling factors; decoding stops early when both plane
    syndromes are satisfied.  Symbols are decided by the per-symbol
    posterior argmax (ties to the lowest level).  Non-finite evidence
    raises ValueError.
    """
    g = np.asarray(evidence, dtype=float)
    if pcm_m.n != pcm_l.n:
        raise ValueError("plane codes must share the block length")
    if g.shape != (pcm_m.n, 4):
        raise ValueError(f"evidence must be ({pcm_m.n}, 4)")
    if not np.all(np.isfinite(g)):
        raise ValueError("evidence must be finite")
    g_cols = np.ascontiguousarray(g.T)
    s_m = np.asarray(syndrome_m, dtype=np.uint8)
    s_l = np.asarray(syndrome_l, dtype=np.uint8)

    sp_m = _BinarySP(pcm_m, s_m)
    sp_l = _BinarySP(pcm_l, s_l)

    def steps():
        # one conversion serves this symbol decision and the next evidence
        prob_m = prob_l = _llr_to_prob(np.zeros(pcm_m.n))
        while True:
            ev_m, ev_l = _plane_evidence(g, prob_m, prob_l)
            prob_m = _llr_to_prob(sp_m.step(ev_m))
            prob_l = _llr_to_prob(sp_l.step(ev_l))
            estimate = _symbol_decision(g_cols,
                                        _symbol_marginal(prob_m, prob_l))
            yield estimate, max(sp_m.last_delta, sp_l.last_delta)

    def satisfies(estimate):
        return sp_m.satisfied(estimate >> 1) and sp_l.satisfied(estimate & 1)

    return _flood(steps(), satisfies, max_iter)


# ---------------------------------------------------------------------------
# joint rotation estimation and decoding


def decode_with_phase_offset(pcm: SparseParityCheck, syndrome_bits: np.ndarray,
                             evidence, theta_grid: np.ndarray,
                             max_iter: int = DEFAULT_MAX_ITER) -> DecodeResult:
    """Binary coset decoding with one unknown rotation on Bob's observations.

    A single rotation variable node connects to every evidence node.
    ``evidence`` is the ``(len(theta_grid), N, 2)`` array of Bob's binary
    posteriors under each grid hypothesis, that is from his observations
    de-rotated by it.  The rotation belief starts uniform and is refined
    from the code's extrinsic output each iteration.  A single-point grid
    reproduces the plain binary decoder exactly.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.size == 0:
        raise ValueError("rotation grid must be nonempty")
    num_grid, n = theta_grid.size, pcm.n
    prob = np.asarray(evidence, dtype=float)
    if prob.shape != (num_grid, n, 2):
        raise ValueError(f"evidence must be ({num_grid}, {n}, 2)")
    s = np.asarray(syndrome_bits, dtype=np.uint8)

    if num_grid == 1:
        # degenerate grid: the rotation node is deterministic and the
        # decoder reduces exactly to the plain binary path
        ev_llr = _safe_llr(prob[0, :, 0], prob[0, :, 1])
        result = decode_binary(pcm, s, ev_llr, max_iter)
        result.theta_hat = float(theta_grid[0])
        return result

    sp = _BinarySP(pcm, s)
    # First variable-to-evidence messages come from one preliminary code
    # pass per hypothesis.  Mixing the hypotheses before the code has
    # spoken would start belief propagation at an exactly symmetric fixed
    # point whenever the grid contains antipodal pairs (a rotation by pi
    # mirrors the evidence of a symmetric quantizer, so the uniform
    # mixture carries zero information and no message ever moves).
    # log_to_theta stays C-ordered: numpy then sums its columns row after
    # row, not pairwise, which fixes the rounding of the rotation totals.
    log_to_theta = np.empty((n, num_grid))
    for b in range(num_grid):
        probe = _BinarySP(pcm, s)
        ev_b = _safe_llr(prob[b, :, 0], prob[b, :, 1])
        p0, p1 = _llr_to_prob(probe.step(ev_b))
        log_to_theta[:, b] = np.log(
            np.maximum(prob[b, :, 0] * p0 + prob[b, :, 1] * p1, _TINY))
    log_to_theta -= log_to_theta.max(axis=1, keepdims=True)

    def steps():
        nonlocal log_to_theta
        prev_llr = None
        while True:
            # rotation -> evidence messages (leave-one-out)
            to_g = log_to_theta.sum(axis=0) - log_to_theta
            to_g -= to_g.max(axis=1, keepdims=True)
            w = np.exp(to_g)
            w /= w.sum(axis=1, keepdims=True)

            # evidence -> code: mixture over hypotheses
            mixed = np.einsum("ib,bil->il", w, prob)
            ev_llr = _safe_llr(mixed[:, 0], mixed[:, 1])
            ev_delta = np.inf if prev_llr is None else float(
                np.max(np.abs(ev_llr - prev_llr)))
            prev_llr = ev_llr

            totals = sp.step(ev_llr)
            estimate = np.less(ev_llr + totals, 0.0)

            # code -> evidence extrinsic, then evidence -> rotation
            p0, p1 = _llr_to_prob(totals)
            back = prob[:, :, 0] * p0[None, :] + prob[:, :, 1] * p1[None, :]
            log_to_theta = np.log(np.maximum(back.T, _TINY), order="C")
            log_to_theta -= log_to_theta.max(axis=1, keepdims=True)
            yield estimate, max(sp.last_delta, ev_delta)

    result = _flood(steps(), sp.satisfied, max_iter)
    result.estimate = result.estimate.view(np.uint8)
    result.theta_hat = float(theta_grid[np.argmax(log_to_theta.sum(axis=0))])
    return result
