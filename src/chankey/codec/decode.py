"""Syndrome sum-product decoders over sparse parity-check codes.

All three decoders recover Alice's quantized vector from Bob's evidence and
the public syndrome by coset decoding: check-node updates are sign-adjusted
by the target syndrome bits, so belief propagation runs with respect to the
coset rather than the zero codeword.

* ``decode_binary`` -- standard log-domain sum-product on one code.
* ``decode_quaternary`` -- two binary plane codes coupled through per-symbol
  factor nodes enforcing x = x_L + 2 x_M, with channel evidence entering as
  a probability vector over the four levels.
* ``decode_with_phase_offset`` -- binary decoding with one extra variable
  node for the unknown rotation between the parties' oscillators, connected
  to every evidence node; the rotation hypothesis set is a uniform grid.

Messages on the plane codes live in the log-likelihood-ratio domain
(positive favors bit 0, clamped to +/-LLR_CLAMP); factor-node and rotation
messages live in the normalized probability domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..quantize import Quantizer, bit_planes, soft_evidence
from ..sounding import interleave
from .matrix import SparseParityCheck

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
    theta_hat: float | np.ndarray | None = None


class _Graph:
    """Flattened edge layout of a parity-check matrix (cached per matrix)."""

    def __init__(self, pcm: SparseParityCheck):
        self.pcm = pcm
        self.edge_var = np.concatenate(pcm.rows).astype(np.int64)
        deg = pcm.row_degrees()
        self.check_start = np.concatenate([[0], np.cumsum(deg)])[:-1]
        self.edge_check = np.repeat(np.arange(pcm.m), deg)
        order = np.argsort(self.edge_var, kind="stable")
        self.by_var = order
        var_deg = np.bincount(self.edge_var, minlength=pcm.n)
        if np.any(var_deg == 0):
            raise ValueError("graph has an unconnected variable")
        self.var_start = np.concatenate([[0], np.cumsum(var_deg)])[:-1]

    def var_totals(self, c2v: np.ndarray) -> np.ndarray:
        """Sum of check-to-variable messages per variable."""
        sums = np.add.reduceat(c2v[self.by_var], self.var_start)
        return sums


def graph_for(pcm: SparseParityCheck) -> _Graph:
    cache = pcm._cache
    if "graph" not in cache:
        cache["graph"] = _Graph(pcm)
    return cache["graph"]


class _BinarySP:
    """One plane of syndrome sum-product with persistent messages.

    Evidence may change between iterations (the factor-coupled and
    rotation-aware decoders update it), so each step takes the current
    per-variable LLRs and returns the new per-variable extrinsic totals.
    """

    def __init__(self, pcm: SparseParityCheck, syndrome_bits: np.ndarray):
        s = np.asarray(syndrome_bits)
        if s.size != pcm.m:
            raise ValueError(f"syndrome length {s.size} != {pcm.m} rows")
        self.g = graph_for(pcm)
        self.sign = (1.0 - 2.0 * s.astype(np.float64))[self.g.edge_check]
        self.c2v = np.zeros(self.g.edge_var.size)
        self.last_delta = np.inf

    def step(self, evidence_llr: np.ndarray) -> np.ndarray:
        g = self.g
        totals = g.var_totals(self.c2v)
        v2c = (evidence_llr + totals)[g.edge_var] - self.c2v
        np.clip(v2c, -LLR_CLAMP, LLR_CLAMP, out=v2c)

        t = np.tanh(0.5 * v2c)
        mag = np.abs(t)
        np.clip(mag, 1e-12, 1.0, out=mag)
        logt = np.log(mag)
        neg = (t < 0.0).astype(np.int64)
        logsum = np.add.reduceat(logt, g.check_start)
        negsum = np.add.reduceat(neg, g.check_start)
        excl_log = logsum[g.edge_check] - logt
        excl_neg = negsum[g.edge_check] - neg
        excl_sign = 1.0 - 2.0 * (excl_neg & 1)
        prod = np.exp(np.minimum(excl_log, 0.0))
        np.clip(prod, 0.0, 1.0 - 1e-15, out=prod)
        new_c2v = self.sign * excl_sign * 2.0 * np.arctanh(prod)
        np.clip(new_c2v, -LLR_CLAMP, LLR_CLAMP, out=new_c2v)

        self.last_delta = float(np.max(np.abs(new_c2v - self.c2v))) \
            if new_c2v.size else 0.0
        self.c2v = new_c2v
        return g.var_totals(new_c2v)


def decode_binary(pcm: SparseParityCheck, syndrome_bits: np.ndarray,
                  evidence_llr: np.ndarray,
                  max_iter: int = DEFAULT_MAX_ITER) -> DecodeResult:
    """Coset sum-product decoding of one binary plane.

    ``evidence_llr`` is log(P[bit=0]/P[bit=1]) per position.  Decoding stops
    as soon as the tentative estimate reproduces the target syndrome, or
    when messages stop changing, or after ``max_iter`` iterations; failure
    is reported through the flags, never raised.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    evidence_llr = np.asarray(evidence_llr, dtype=float)
    if evidence_llr.size != pcm.n:
        raise ValueError("evidence length mismatch")
    evidence_llr = np.clip(evidence_llr, -LLR_CLAMP, LLR_CLAMP)
    s = np.asarray(syndrome_bits, dtype=np.uint8)
    sp = _BinarySP(pcm, s)
    estimate = (evidence_llr < 0).astype(np.uint8)
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        totals = sp.step(evidence_llr)
        estimate = ((evidence_llr + totals) < 0).astype(np.uint8)
        if np.array_equal(pcm.syndrome(estimate), s):
            return DecodeResult(estimate, True, it, True)
        if sp.last_delta < MESSAGE_TOL:
            return DecodeResult(estimate, True, it, False)
    return DecodeResult(estimate, False, iterations, False)


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
    g = np.asarray(getattr(evidence, "posteriors", evidence), dtype=float)
    if g.ndim != 2 or g.shape[1] != 2:
        raise ValueError("binary evidence required")
    return _safe_llr(g[:, 0], g[:, 1])


def _plane_evidence(g: np.ndarray, ext_m, ext_l):
    """Factor-node messages into both planes and the symbol marginal.

    ``g`` holds the per-symbol channel evidence over levels {0,1,2,3} and
    ``ext_*`` the plane codes' extrinsic LLRs.  Per the coupling constraint
    x = x_L + 2 x_M:

      to M: mu(0) ~ G(0) muL(0) + G(1) muL(1),  mu(1) ~ G(2) muL(0) + G(3) muL(1)
      to L: mu(0) ~ G(0) muM(0) + G(2) muM(1),  mu(1) ~ G(1) muM(0) + G(3) muM(1)
      to x: mu(a) ~ muM(a_M) muL(a_L)
    """
    pm0, pm1 = _llr_to_prob(ext_m)
    pl0, pl1 = _llr_to_prob(ext_l)
    to_m = _safe_llr(g[:, 0] * pl0 + g[:, 1] * pl1,
                     g[:, 2] * pl0 + g[:, 3] * pl1)
    to_l = _safe_llr(g[:, 0] * pm0 + g[:, 2] * pm1,
                     g[:, 1] * pm0 + g[:, 3] * pm1)
    to_sym = np.stack([pm0 * pl0, pm0 * pl1, pm1 * pl0, pm1 * pl1], axis=1)
    norm = to_sym.sum(axis=1, keepdims=True)
    to_sym /= np.maximum(norm, _TINY)
    return to_m, to_l, to_sym


def decode_quaternary(pcm_m: SparseParityCheck, pcm_l: SparseParityCheck,
                      syndrome_m: np.ndarray, syndrome_l: np.ndarray,
                      evidence, max_iter: int = DEFAULT_MAX_ITER) -> DecodeResult:
    """Joint decoding of both bit planes of 4-level quantized data.

    ``evidence`` is an Evidence object or an (N, 4) array of per-symbol
    posteriors.  Each iteration floods both plane codes once and exchanges
    messages through the per-symbol coupling factors; decoding stops early
    when both plane syndromes are satisfied.  Symbols are decided by the
    per-symbol posterior argmax (ties to the lowest level).
    """
    g = np.asarray(getattr(evidence, "posteriors", evidence), dtype=float)
    if pcm_m.n != pcm_l.n:
        raise ValueError("plane codes must share the block length")
    if g.shape != (pcm_m.n, 4):
        raise ValueError(f"evidence must be ({pcm_m.n}, 4)")
    s_m = np.asarray(syndrome_m, dtype=np.uint8)
    s_l = np.asarray(syndrome_l, dtype=np.uint8)

    sp_m = _BinarySP(pcm_m, s_m)
    sp_l = _BinarySP(pcm_l, s_l)
    ext_m = np.zeros(pcm_m.n)
    ext_l = np.zeros(pcm_l.n)
    estimate = np.argmax(g, axis=1).astype(np.uint8)
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        ev_m, ev_l, _ = _plane_evidence(g, ext_m, ext_l)
        ext_m = sp_m.step(ev_m)
        ext_l = sp_l.step(ev_l)
        _, _, to_sym = _plane_evidence(g, ext_m, ext_l)
        belief = g * to_sym
        estimate = np.argmax(belief, axis=1).astype(np.uint8)
        est_m, est_l = bit_planes(estimate)
        if (np.array_equal(pcm_m.syndrome(est_m), s_m)
                and np.array_equal(pcm_l.syndrome(est_l), s_l)):
            return DecodeResult(estimate, True, it, True)
        if max(sp_m.last_delta, sp_l.last_delta) < MESSAGE_TOL:
            return DecodeResult(estimate, True, it, False)
    return DecodeResult(estimate, False, iterations, False)


# ---------------------------------------------------------------------------
# joint rotation estimation and decoding


def decode_with_phase_offset(pcm: SparseParityCheck, syndrome_bits: np.ndarray,
                             raw_obs: np.ndarray, theta_grid: np.ndarray,
                             rho, sigma, quantizer: Quantizer,
                             max_iter: int = DEFAULT_MAX_ITER,
                             groups: np.ndarray | None = None) -> DecodeResult:
    """Binary coset decoding with an unknown rotation on Bob's observations.

    One rotation variable node (per group, if ``groups`` assigns symbols to
    independent rotation nodes) connects to every evidence node.  Per grid
    hypothesis the complex observations are de-rotated and turned into soft
    evidence; the rotation belief starts uniform and is refined from the
    code's extrinsic output each iteration.  A single-point grid reproduces
    the plain binary decoder exactly.

    ``raw_obs`` holds Bob's complex observations; interleaved real parts
    must match the code length (N = 2 * len(raw_obs)).  ``rho`` and
    ``sigma`` are scalars or per-real-symbol vectors, as in soft_evidence.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.size == 0:
        raise ValueError("rotation grid must be nonempty")
    if quantizer.levels != 2:
        raise ValueError("rotation-aware decoding supports binary data only")
    raw_obs = np.asarray(raw_obs, dtype=complex)
    n = 2 * raw_obs.size
    if n != pcm.n:
        raise ValueError("code length must equal 2 * observation count")
    s = np.asarray(syndrome_bits, dtype=np.uint8)
    num_grid = theta_grid.size

    if groups is None:
        group_of = np.zeros(n, dtype=np.int64)
        num_groups = 1
    else:
        group_of = np.asarray(groups, dtype=np.int64)
        if group_of.size != n:
            raise ValueError("groups must assign every code position")
        num_groups = int(group_of.max()) + 1

    # per-hypothesis channel evidence: prob[b, i, level]
    prob = np.empty((num_grid, n, 2))
    for b, theta in enumerate(theta_grid):
        y = interleave(raw_obs * np.exp(-1j * theta))
        prob[b] = soft_evidence(y, rho, sigma, quantizer).posteriors

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
    log_to_theta = np.empty((n, num_grid))
    for b in range(num_grid):
        probe = _BinarySP(pcm, s)
        ev_b = _safe_llr(prob[b, :, 0], prob[b, :, 1])
        p0, p1 = _llr_to_prob(probe.step(ev_b))
        log_to_theta[:, b] = np.log(
            np.maximum(prob[b, :, 0] * p0 + prob[b, :, 1] * p1, _TINY))
    log_to_theta -= log_to_theta.max(axis=1, keepdims=True)
    estimate = np.zeros(n, dtype=np.uint8)
    theta_belief = np.zeros((num_groups, num_grid))
    prev_llr = None
    iterations = 0
    satisfied = False
    converged = False
    for it in range(1, max_iter + 1):
        iterations = it
        # rotation -> evidence messages (leave-one-out within the group)
        group_tot = np.zeros((num_groups, num_grid))
        np.add.at(group_tot, group_of, log_to_theta)
        to_g = group_tot[group_of] - log_to_theta
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
        estimate = ((ev_llr + totals) < 0).astype(np.uint8)

        # code -> evidence extrinsic, then evidence -> rotation
        p0, p1 = _llr_to_prob(totals)
        back = prob[:, :, 0] * p0[None, :] + prob[:, :, 1] * p1[None, :]
        log_to_theta = np.log(np.maximum(back.T, _TINY))
        log_to_theta -= log_to_theta.max(axis=1, keepdims=True)

        theta_belief = np.zeros((num_groups, num_grid))
        np.add.at(theta_belief, group_of, log_to_theta)
        if np.array_equal(pcm.syndrome(estimate), s):
            satisfied = True
            converged = True
            break
        if sp.last_delta < MESSAGE_TOL and ev_delta < MESSAGE_TOL:
            converged = True
            break
    theta_hat = _argmax_theta(theta_belief, theta_grid, num_groups)
    return DecodeResult(estimate, converged, iterations, satisfied, theta_hat)


def _argmax_theta(theta_belief, theta_grid, num_groups):
    picks = theta_grid[np.argmax(theta_belief, axis=1)]
    return float(picks[0]) if num_groups == 1 else picks
