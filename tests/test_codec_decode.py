import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chankey.codec import (
    SparseParityCheck,
    construct_irregular,
    construct_regular,
    decode_binary,
    decode_quaternary,
    decode_with_phase_offset,
    evidence_to_llr,
)
from chankey.codec import decode as decode_module
from chankey.codec.decode import (
    LLR_CLAMP,
    MESSAGE_TOL,
    _TINY,
    DecodeResult,
    _BinarySP,
    _llr_to_prob,
    _plane_evidence,
    _symbol_decision,
    _symbol_marginal,
)
from chankey.codec.matrix import graph_for
from chankey.quantize import Quantizer, bit_planes, quantize, soft_evidence
from chankey.rng import make_rng
from chankey.sounding import interleave

Q2 = Quantizer.equiprobable(2)
Q4 = Quantizer.equiprobable(4)


def _enumerate_bits(n):
    grid = np.arange(2**n, dtype=np.uint32)
    return ((grid[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def _dense(pcm):
    """Reference: the m x n 0/1 matrix, from the stored rows."""
    out = np.zeros((pcm.m, pcm.n), dtype=np.uint8)
    for i, row in enumerate(pcm.rows):
        out[i, row] = 1
    return out


def _map_decode(pcm, s, llr):
    """Exhaustive sequence-MAP over the coset (independent oracle)."""
    xs = _enumerate_bits(pcm.n)
    syn = (xs @ _dense(pcm).T) & 1
    coset = xs[np.all(syn == s, axis=1)]
    return coset[np.argmin(coset @ llr)]


# ---------------------------------------------------------------------------
# binary decoder


def test_binary_consistent_evidence_one_iteration():
    pcm = construct_regular(24, 12, 3, seed=0)
    rng = make_rng(1)
    x = rng.integers(0, 2, 24).astype(np.uint8)
    llr = np.where(x == 0, np.inf, -np.inf)
    res = decode_binary(pcm, pcm.syndrome(x), llr)
    np.testing.assert_array_equal(res.estimate, x)
    assert res.converged and res.syndrome_satisfied
    assert res.iterations_used == 1


def test_binary_three_bit_coset_example():
    # rows {110, 011}; the coset of x=[1,1,1] is {000, 111}; evidence favors
    # bits 0,1 = 1 strongly and bit 2 = 0 weakly, so coset-ML picks 111
    pcm = SparseParityCheck([np.array([0, 1]), np.array([1, 2])], 3)
    x = np.array([1, 1, 1], dtype=np.uint8)
    s = pcm.syndrome(x)
    llr = np.array([-5.0, -5.0, 1.0])
    res = decode_binary(pcm, s, llr)
    np.testing.assert_array_equal(res.estimate, [1, 1, 1])
    assert res.syndrome_satisfied


def test_binary_bsc_rate_half_high_success():
    pcm = construct_regular(1024, 512, 3, make_rng(2))
    eps = 0.02
    rng = make_rng(600)
    ok = 0
    for _ in range(100):
        x = rng.integers(0, 2, 1024).astype(np.uint8)
        y = x ^ (rng.random(1024) < eps)
        llr = (1 - 2 * y.astype(float)) * math.log((1 - eps) / eps)
        res = decode_binary(pcm, pcm.syndrome(x), llr)
        ok += int(res.syndrome_satisfied and np.array_equal(res.estimate, x))
    assert ok >= 99


def test_binary_matches_exhaustive_map():
    rng = make_rng(777)
    match = 0
    trials = 300
    sigma = 0.7
    for t in range(trials):
        pcm = construct_regular(16, 8, 2, make_rng(9000 + t))
        x = rng.integers(0, 2, 16).astype(np.uint8)
        s = pcm.syndrome(x)
        y = (1 - 2 * x.astype(float)) + sigma * rng.standard_normal(16)
        llr = 2 * y / sigma**2
        bp = decode_binary(pcm, s, llr)
        match += int(np.array_equal(bp.estimate, _map_decode(pcm, s, llr)))
    assert match / trials >= 0.95


def test_binary_soundness_flag():
    # syndrome_satisfied must mean exactly that, also on failures
    rng = make_rng(3)
    pcm = construct_regular(128, 64, 3, make_rng(4))
    for trial in range(20):
        x = rng.integers(0, 2, 128).astype(np.uint8)
        llr = rng.standard_normal(128) * 2.0  # junk evidence
        res = decode_binary(pcm, pcm.syndrome(x), llr, max_iter=10)
        assert res.syndrome_satisfied == bool(
            np.array_equal(pcm.syndrome(res.estimate), pcm.syndrome(x)))


def test_binary_lower_rate_never_hurts():
    eps = 0.11
    llr_mag = math.log((1 - eps) / eps)
    fails = {}
    for m in (256, 384):
        pcm = construct_regular(512, m, 3, make_rng(3))
        f = 0
        for t in range(120):
            rng_t = make_rng((7, t))  # matched noise across the two rates
            x = rng_t.integers(0, 2, 512).astype(np.uint8)
            y = x ^ (rng_t.random(512) < eps)
            llr = (1 - 2 * y.astype(float)) * llr_mag
            res = decode_binary(pcm, pcm.syndrome(x), llr)
            f += int(not (res.syndrome_satisfied
                          and np.array_equal(res.estimate, x)))
        fails[m] = f
    assert fails[384] <= fails[256]


def test_binary_rejects_bad_arguments():
    pcm = construct_regular(16, 8, 2, seed=5)
    with pytest.raises(ValueError):
        decode_binary(pcm, np.zeros(8, np.uint8), np.zeros(15))
    with pytest.raises(ValueError):
        decode_binary(pcm, np.zeros(7, np.uint8), np.zeros(16))
    with pytest.raises(ValueError):
        decode_binary(pcm, np.zeros(8, np.uint8), np.zeros(16), max_iter=0)


def test_binary_rejects_nan_evidence():
    # all-NaN LLRs on a zero syndrome used to decode "successfully" to the
    # zero vector in one iteration; infinite LLRs stay certain bits
    pcm = construct_regular(16, 8, 2, seed=5)
    for bad in (np.full(16, np.nan), np.where(np.arange(16) == 3, np.nan, 1)):
        with pytest.raises(ValueError, match="NaN"):
            decode_binary(pcm, np.zeros(8, np.uint8), bad)


# ---------------------------------------------------------------------------
# quaternary decoder


def test_plane_coupling_worked_message():
    # with incoming symbol message G and LSB-plane message muL, the MSB
    # message is mu(1) ~ G(2) muL(0) + G(3) muL(1), mu(0) ~ G(0) muL(0) +
    # G(1) muL(1); check against a direct evaluation
    g = np.array([[0.1, 0.2, 0.3, 0.4]])
    mu_l0, mu_l1 = 0.7, 0.3
    ext_l = np.array([math.log(mu_l0 / mu_l1)])
    to_m, _ = _plane_evidence(g.T, _llr_to_prob(np.zeros(1)),
                              _llr_to_prob(ext_l))
    num0 = g[0, 0] * mu_l0 + g[0, 1] * mu_l1
    num1 = g[0, 2] * mu_l0 + g[0, 3] * mu_l1
    assert to_m[0] == pytest.approx(math.log(num0 / num1), abs=1e-9)


def test_plane_coupling_symbol_marginal():
    # mu_{F->x}(a) ~ muM(a_M) muL(a_L), e.g. level 2 pairs muM(1) muL(0)
    ext_m = np.array([math.log(0.2 / 0.8)])
    ext_l = np.array([math.log(0.6 / 0.4)])
    to_sym = np.stack(_symbol_marginal(_llr_to_prob(ext_m),
                                       _llr_to_prob(ext_l)), axis=1)
    expected = np.array([0.2 * 0.6, 0.2 * 0.4, 0.8 * 0.6, 0.8 * 0.4])
    np.testing.assert_allclose(to_sym[0], expected / expected.sum(), atol=1e-9)


def test_quaternary_deterministic_evidence():
    pcm = construct_irregular(64, 16, {3: 1.0}, seed=6)
    rng = make_rng(7)
    symbols = rng.integers(0, 4, 64).astype(np.uint8)
    g = np.full((64, 4), 1e-12)
    g[np.arange(64), symbols] = 1.0
    g /= g.sum(axis=1, keepdims=True)
    s_m, s_l = (pcm.syndrome(p) for p in bit_planes(symbols))
    res = decode_quaternary(pcm, pcm, s_m, s_l, g)
    np.testing.assert_array_equal(res.estimate, symbols)
    assert res.syndrome_satisfied and res.iterations_used == 1


def test_quaternary_toy_operating_point():
    # rate-3/4 planes above the measured threshold for this construction
    pcm = construct_irregular(512, 128, {3: 1.0}, seed=3)
    rho = 0.996
    rng = make_rng(300)
    sym_err = 0
    total = 0
    for _ in range(50):
        x_raw = rng.standard_normal(512)
        y_raw = rho * x_raw + math.sqrt(1 - rho**2) * rng.standard_normal(512)
        symbols = quantize(x_raw, Q4)
        ev = soft_evidence(y_raw, rho, math.sqrt(2), Q4)
        s_m, s_l = (pcm.syndrome(p) for p in bit_planes(symbols))
        res = decode_quaternary(pcm, pcm, s_m, s_l, ev)
        sym_err += int(np.sum(res.estimate != symbols))
        total += 512
    assert sym_err / total <= 1e-3


def test_quaternary_rejects_mismatched_planes():
    a = construct_irregular(64, 16, {3: 1.0}, seed=8)
    b = construct_irregular(32, 8, {3: 1.0}, seed=8)
    with pytest.raises(ValueError):
        decode_quaternary(a, b, np.zeros(16, np.uint8), np.zeros(8, np.uint8),
                          np.full((64, 4), 0.25))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_quaternary_rejects_non_finite_evidence(bad):
    pcm = construct_irregular(64, 16, {3: 1.0}, seed=8)
    g = np.full((64, 4), 0.25)
    g[5, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        decode_quaternary(pcm, pcm, np.zeros(16, np.uint8),
                          np.zeros(16, np.uint8), g)


def _stacked_symbol_decision(g, ext_m, ext_l):
    """The ``(N, 4)`` formulation of the 4-level decision: the stacked
    factor-to-symbol marginal, its row sums, and ``argmax`` of ``g`` times
    it.  Returns the marginal and the decisions."""
    pm0, pm1 = _llr_to_prob(ext_m)
    pl0, pl1 = _llr_to_prob(ext_l)
    to_sym = np.stack([pm0 * pl0, pm0 * pl1, pm1 * pl0, pm1 * pl1], axis=1)
    norm = to_sym.sum(axis=1, keepdims=True)
    to_sym /= np.maximum(norm, _TINY)
    return to_sym, np.argmax(g * to_sym, axis=1).astype(np.uint8)


@pytest.mark.golden
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       scale=st.sampled_from([0.1, 5.0, 60.0]), ties=st.booleans())
def test_symbol_decision_matches_stacked_argmax(seed, n, scale, ties):
    rng = make_rng(seed)
    if ties:
        # few distinct values, so equal products (ties) are common
        ext_m, ext_l = rng.choice([0.0, -1.0, 2.0, 40.0], (2, n))
        g = rng.choice([0.0, 0.25, 0.5], (n, 4))
    else:
        ext_m, ext_l = rng.normal(0.0, scale, (2, n))
        g = rng.dirichlet(np.ones(4), n)
    want_mu, want = _stacked_symbol_decision(g, ext_m, ext_l)
    mu = _symbol_marginal(_llr_to_prob(ext_m), _llr_to_prob(ext_l))
    assert np.stack(mu, axis=1).tobytes() == want_mu.tobytes()
    high, low = _symbol_decision(np.ascontiguousarray(g.T), mu)
    assert high.dtype == low.dtype == bool
    assert np.array_equal(2 * high + low, want)


# ---------------------------------------------------------------------------
# rotation-aware decoder


def _phase_code():
    # mixed row degrees make the all-ones vector a non-codeword, so a
    # rotation by pi cannot masquerade as a valid coset member
    pcm = construct_irregular(256, 192, {2: 0.4, 3: 0.6}, seed=4)
    assert pcm.syndrome(np.ones(256, dtype=np.uint8)).any()
    return pcm


def _rotated_evidence(obs, grid, rho, sigma):
    """Binary posteriors of ``obs`` de-rotated by each grid hypothesis,
    formed as a key session forms them: ``(len(grid), 2 len(obs), 2)``."""
    grid = np.asarray(grid, dtype=float)
    y = interleave(obs * np.exp(-1j * grid)[:, None])
    n = 2 * obs.size
    rho, sigma = (np.tile(np.broadcast_to(v, n), grid.size)
                  for v in (rho, sigma))
    return soft_evidence(y, rho, sigma, Q2).reshape(grid.size, n, 2)


def test_phase_single_point_grid_equals_plain_decoder():
    pcm = _phase_code()
    rho = 0.99
    rng = make_rng(9)
    x_raw = rng.standard_normal(256)
    y_raw = rho * x_raw + math.sqrt(1 - rho**2) * rng.standard_normal(256)
    xa = quantize(x_raw, Q2)
    s = pcm.syndrome(xa)
    ev = soft_evidence(y_raw, rho, math.sqrt(2), Q2)
    res_phase = decode_with_phase_offset(pcm, s, ev[None], np.array([0.0]))
    res_plain = decode_binary(pcm, s, evidence_to_llr(ev))
    np.testing.assert_array_equal(res_phase.estimate, res_plain.estimate)
    assert res_phase.iterations_used == res_plain.iterations_used
    assert res_phase.syndrome_satisfied == res_plain.syndrome_satisfied
    assert res_phase.theta_hat == 0.0


@pytest.mark.golden
@pytest.mark.parametrize("grid", [[0.0], [0.0, 0.0]])
def test_phase_repeated_hypothesis_with_per_symbol_channel(grid):
    # every copy of the zero rotation must see each symbol's own rho and
    # sigma, so the decoder reduces to the plain one on the same evidence
    pcm = _phase_code()
    rho = np.where(np.arange(256) % 4 < 2, 0.995, 0.7)
    sigma = np.linspace(1.0, 2.0, 256)
    rng = make_rng(9)
    x_raw = rng.standard_normal(256)
    y_raw = rho * x_raw + np.sqrt(1 - rho**2) * rng.standard_normal(256)
    s = pcm.syndrome(quantize(x_raw, Q2))
    obs = y_raw[0::2] + 1j * y_raw[1::2]
    res_phase = decode_with_phase_offset(
        pcm, s, _rotated_evidence(obs, grid, rho, sigma), np.array(grid))
    ev = soft_evidence(y_raw, rho, sigma, Q2)
    res_plain = decode_binary(pcm, s, evidence_to_llr(ev))
    np.testing.assert_array_equal(res_phase.estimate, res_plain.estimate)
    assert res_phase.iterations_used == res_plain.iterations_used
    assert res_phase.syndrome_satisfied


def test_phase_noiseless_on_grid_exact():
    pcm = _phase_code()
    B = 8
    grid = 2 * np.pi * np.arange(B) / B
    rng = make_rng(400)
    rho = 1 - 1e-9
    for _ in range(20):
        x_raw = rng.standard_normal(256)
        xa = quantize(x_raw, Q2)
        theta = grid[rng.integers(0, B)]
        obs = (x_raw[0::2] + 1j * x_raw[1::2]) * np.exp(1j * theta)
        res = decode_with_phase_offset(
            pcm, pcm.syndrome(xa),
            _rotated_evidence(obs, grid, rho, math.sqrt(2)), grid)
        assert res.theta_hat == pytest.approx(theta, abs=1e-12)
        np.testing.assert_array_equal(res.estimate, xa)


def test_phase_off_grid_midpoint_adjacent():
    pcm = _phase_code()
    B = 8
    grid = 2 * np.pi * np.arange(B) / B
    rho = 0.995
    rng = make_rng(500)
    for _ in range(15):
        x_raw = rng.standard_normal(256)
        y_raw = rho * x_raw + math.sqrt(1 - rho**2) * rng.standard_normal(256)
        xa = quantize(x_raw, Q2)
        k = int(rng.integers(0, B))
        theta = (k + 0.5) * 2 * np.pi / B
        obs = (y_raw[0::2] + 1j * y_raw[1::2]) * np.exp(1j * theta)
        res = decode_with_phase_offset(
            pcm, pcm.syndrome(xa),
            _rotated_evidence(obs, grid, rho, math.sqrt(2)), grid)
        assert res.theta_hat in (grid[k], grid[(k + 1) % B])


def test_phase_joint_exhaustive_oracle_small():
    # noiseless observations: the exhaustive argmax over (coset x grid) of
    # the joint evidence likelihood is unique and the decoder must agree
    rng = make_rng(42)
    for _ in range(50):
        dense = (rng.random((4, 8)) < 0.5).astype(np.uint8)
        for j in range(8):
            if not dense[:, j].any():
                dense[rng.integers(0, 4), j] = 1
        if not all(r.any() for r in dense):
            continue
        if not dense.sum(axis=1).__mod__(2).any():
            continue  # need an odd-degree row to split antipodal pairs
        pcm = SparseParityCheck([np.nonzero(r)[0] for r in dense], 8)
        break
    B = 4
    grid = 2 * np.pi * np.arange(B) / B
    rho = 1 - 1e-9
    hits = 0
    unique = 0
    trials = 30
    for _ in range(trials):
        x_raw = rng.standard_normal(8)
        xa = quantize(x_raw, Q2)
        s = pcm.syndrome(xa)
        theta = grid[rng.integers(0, B)]
        obs = (x_raw[0::2] + 1j * x_raw[1::2]) * np.exp(1j * theta)
        # oracle: all (x, theta) pairs scored by total log evidence
        scored = []
        for b, th in enumerate(grid):
            y_b = np.empty(8)
            rot = obs * np.exp(-1j * th)
            y_b[0::2], y_b[1::2] = rot.real, rot.imag
            post = soft_evidence(y_b, rho, math.sqrt(2), Q2)
            logp = np.log(np.maximum(post, 1e-300))
            for x in _enumerate_bits(8):
                if np.array_equal(pcm.syndrome(x), s):
                    scored.append((logp[np.arange(8), x].sum(), x, th))
        scored.sort(key=lambda t: -t[0])
        if scored[0][0] - scored[1][0] < 1.0:
            continue  # tied joint optimum (a wrong rotation mimics a coset
            # member by chance at this tiny size): no unique answer to match
        unique += 1
        res = decode_with_phase_offset(
            pcm, s, _rotated_evidence(obs, grid, rho, math.sqrt(2)), grid)
        hits += int(np.array_equal(res.estimate, scored[0][1])
                    and res.theta_hat == pytest.approx(scored[0][2]))
    assert unique >= 15
    assert hits == unique


def test_phase_rejects_bad_arguments():
    pcm = _phase_code()
    s = np.zeros(192, np.uint8)
    with pytest.raises(ValueError, match="nonempty"):
        decode_with_phase_offset(pcm, s, np.full((0, 256, 2), 0.5),
                                 np.array([]))
    # one (N, 2) block per hypothesis, of binary posteriors
    for shape in [(1, 256, 2), (2, 200, 2), (2, 256, 4), (256, 2)]:
        with pytest.raises(ValueError, match="evidence must be"):
            decode_with_phase_offset(pcm, s, np.full(shape, 0.5),
                                     np.array([0.0, np.pi]))


@pytest.mark.parametrize("grid", [1, 4])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_phase_rejects_non_finite_evidence(grid, bad):
    # a NaN posterior used to decode to a satisfied all-zero estimate
    pcm = _phase_code()
    prob = np.full((grid, 256, 2), 0.5)
    prob[-1, 7, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        decode_with_phase_offset(pcm, np.zeros(192, np.uint8), prob,
                                 np.arange(grid) * np.pi / 2)


def test_codec_loads_no_session_module():
    # the decoders take Bob's evidence as formed by the key session, so the
    # codec loads no channel, sounding or quantizer module.  A fresh
    # interpreter, because this one has loaded them all.
    src = str(Path(decode_binary.__code__.co_filename).resolve().parents[2])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, chankey.codec; print(*sorted(m for m in "
             "sys.modules if m.startswith('chankey.')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["chankey.codec", "chankey.codec.decode",
                                  "chankey.codec.matrix", "chankey.rng"]


# ---------------------------------------------------------------------------
# stop rule shared by all decoders


@pytest.mark.parametrize("decoder", ["binary", "quaternary", "phase_offset"])
def test_decoders_reject_zero_iterations(decoder):
    pcm = construct_regular(16, 8, 2, seed=5)
    s = np.zeros(8, np.uint8)
    calls = {
        "binary": lambda: decode_binary(pcm, s, np.ones(16), max_iter=0),
        "quaternary": lambda: decode_quaternary(
            pcm, pcm, s, s, np.full((16, 4), 0.25), max_iter=0),
        "phase_offset": lambda: decode_with_phase_offset(
            pcm, s, np.full((4, 16, 2), 0.5), np.arange(4) * np.pi / 2,
            max_iter=0),
    }
    with pytest.raises(ValueError, match="max_iter"):
        calls[decoder]()


# ---------------------------------------------------------------------------
# sum-product kernel: one product-form step against the log-domain form


class _ReduceatStep:
    """The binary sum-product step in its log/exp form: edges in row order,
    per-check log-sums and per-variable sums by np.add.reduceat.  Kept as
    the float reference for the kernel's product form."""

    def __init__(self, pcm, syndrome_bits):
        self.edge_var = np.concatenate(pcm.rows).astype(np.int64)
        deg = pcm.row_degrees()
        self.check_start = np.concatenate([[0], np.cumsum(deg)])[:-1]
        self.edge_check = np.repeat(np.arange(pcm.m), deg)
        self.by_var = np.argsort(self.edge_var, kind="stable")
        var_deg = np.bincount(self.edge_var, minlength=pcm.n)
        self.var_start = np.concatenate([[0], np.cumsum(var_deg)])[:-1]
        s = np.asarray(syndrome_bits)
        self.sign = (1.0 - 2.0 * s.astype(np.float64))[self.edge_check]
        self.c2v = np.zeros(self.edge_var.size)
        self.totals = np.zeros(pcm.n)
        self.last_delta = np.inf

    def step(self, evidence_llr):
        v2c = (evidence_llr + self.totals)[self.edge_var] - self.c2v
        np.clip(v2c, -LLR_CLAMP, LLR_CLAMP, out=v2c)

        t = np.tanh(0.5 * v2c)
        mag = np.abs(t)
        np.clip(mag, 1e-12, 1.0, out=mag)
        logt = np.log(mag)
        neg = t < 0.0
        logsum = np.add.reduceat(logt, self.check_start)
        odd = np.logical_xor.reduceat(neg, self.check_start)
        excl_log = logsum[self.edge_check] - logt
        excl_sign = 1.0 - 2.0 * (odd[self.edge_check] ^ neg)
        prod = np.exp(np.minimum(excl_log, 0.0))
        np.clip(prod, 0.0, 1.0 - 1e-15, out=prod)
        new_c2v = self.sign * excl_sign * 2.0 * np.arctanh(prod)
        np.clip(new_c2v, -LLR_CLAMP, LLR_CLAMP, out=new_c2v)

        self.last_delta = float(np.max(np.abs(new_c2v - self.c2v)))
        self.c2v = new_c2v
        self.totals = np.add.reduceat(new_c2v[self.by_var], self.var_start)
        return self.totals


def _mixed_degree_code(rng, n, m, max_degree=20):
    """Random rows of degree 1..max_degree; uncovered columns get rows of
    their own (degree-1 columns), so row and column degrees both vary
    widely."""
    rows = [rng.choice(n, size=int(rng.integers(1, min(max_degree, n) + 1)),
                       replace=False) for _ in range(m)]
    covered = np.zeros(n, dtype=bool)
    for r in rows:
        covered[r] = True
    missing = np.flatnonzero(~covered)
    if missing.size:
        rows += np.array_split(missing, -(-missing.size // max_degree))
    return SparseParityCheck(rows, n)


U = 2.0 ** -53  # unit roundoff of float64


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
       m=st.integers(1, 40))
def test_kernel_step_matches_log_domain_reference(seed, n, m):
    rng = np.random.default_rng(seed)
    # rows past degree 27 let the exclusive product underflow to zero, so
    # the sign of zero messages is exercised too
    pcm = _mixed_degree_code(rng, n, m, max_degree=32)
    s = rng.integers(0, 2, pcm.m).astype(np.uint8)
    kernel, reference = _BinarySP(pcm, s), _ReduceatStep(pcm, s)
    # layout position -> row-order edge index: each check class is a
    # (d, count) block whose column j is check check_order[checks][j]
    g = kernel.g
    source = np.concatenate([
        (reference.check_start[g.check_order[checks]]
         + np.arange(d)[:, None]).ravel() for _, checks, d in g.check_blocks])
    degree = pcm.row_degrees()[reference.edge_check[source]]
    by_var = np.argsort(g.edge_var, kind="stable")
    starts = np.cumsum(np.bincount(g.edge_var, minlength=pcm.n))[:-1]
    # The bound, from float64 rounding with 4 ulp taken as the accuracy of
    # numpy's log, exp, tanh and arctanh.  Both sides form the leave-one-out
    # product of the same |tanh| factors, each in [1e-12, 1], so |log| < 28.
    # The kernel's d - 1 products and one quotient are off by at most d u
    # (underflow adds at most d 2**-1074 / 1e-12, far below it).  The
    # reference's log-sum is off by at most (d + 4) u (X + 28) in the
    # exponent of exp(-X), so its product by at most 28 (d + 4) u + 4 u.
    # Each side's arctanh and the test's tanh add at most 6 u, and clipping
    # is non-expansive: (29 d + 128) u to first order, rounded up for the
    # second.  Messages saturate where arctanh is ill-conditioned, so they
    # are compared in the tanh domain, not as LLRs.
    bound = (30 * degree + 130) * U
    special = np.array([LLR_CLAMP, -LLR_CLAMP, 0.0, -0.0, 1e3, -1e3])
    for _ in range(30):
        evidence = rng.standard_normal(pcm.n) * rng.choice([0.1, 2.0, 40.0])
        pick = rng.random(pcm.n) < rng.choice([0.3, 1.0])
        evidence[pick] = rng.choice(special, size=int(pick.sum()),
                                    p=[0.1, 0.1, 0.35, 0.35, 0.05, 0.05])
        # both step from the same incoming messages
        kernel.c2v = reference.c2v[source]
        kernel.totals = reference.totals.copy()
        incoming = kernel.c2v.copy()
        totals = kernel.step(evidence)
        reference.step(evidence)
        expected = reference.c2v[source]
        # the sign comes from the same tanh signs and syndrome bits on both
        # sides, so it agrees on every message, zeros included
        np.testing.assert_array_equal(np.signbit(kernel.c2v),
                                      np.signbit(expected))
        gap = np.abs(np.tanh(kernel.c2v / 2) - np.tanh(expected / 2))
        assert np.all(gap <= bound), float(np.max(gap / bound))
        assert kernel.last_delta == np.max(np.abs(kernel.c2v - incoming))
        # each total is its variable's messages summed, off by at most
        # (d - 1) u times their absolute sum (d u allows for fsum's rounding)
        for total, msgs in zip(totals, np.split(kernel.c2v[by_var], starts)):
            assert abs(total - math.fsum(msgs)) <= (
                msgs.size * U * np.abs(msgs).sum())


# ---------------------------------------------------------------------------
# syndrome_satisfied means exactly that, for every decoder


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       decoder=st.sampled_from(["binary", "quaternary", "phase_offset"]),
       grid=st.sampled_from([1, 4]), max_iter=st.sampled_from([1, 3, 50]),
       rho=st.sampled_from([0.3, 0.95, 0.999]))
def test_decoders_report_satisfied_exactly(seed, decoder, grid, max_iter, rho):
    rng = np.random.default_rng(seed)
    pcm = _mixed_degree_code(rng, 64, int(rng.integers(8, 48)), max_degree=12)
    x_raw = rng.standard_normal(64)
    y_raw = rho * x_raw + math.sqrt(1 - rho**2) * rng.standard_normal(64)
    if decoder == "quaternary":
        planes = bit_planes(quantize(x_raw, Q4))
        targets = [pcm.syndrome(p) for p in planes]
        res = decode_quaternary(pcm, pcm, *targets,
                                soft_evidence(y_raw, rho, math.sqrt(2), Q4),
                                max_iter=max_iter)
        estimates = bit_planes(res.estimate)
    else:
        targets = [pcm.syndrome(quantize(x_raw, Q2))]
        if decoder == "binary":
            llr = evidence_to_llr(soft_evidence(y_raw, rho, math.sqrt(2), Q2))
            res = decode_binary(pcm, targets[0], llr, max_iter=max_iter)
        else:
            obs = y_raw[0::2] + 1j * y_raw[1::2]
            thetas = 2 * np.pi * np.arange(grid) / grid
            res = decode_with_phase_offset(
                pcm, targets[0], _rotated_evidence(obs, thetas, rho,
                                                   math.sqrt(2)),
                thetas, max_iter=max_iter)
        estimates = [res.estimate]
    truth = all(np.array_equal(pcm.syndrome(e), t)
                for e, t in zip(estimates, targets))
    assert res.syndrome_satisfied == truth
    assert res.iterations_used <= max_iter


# ---------------------------------------------------------------------------
# the decoders' iterations, bit for bit, against a frozen copy of the form
# before the gathered-posterior stop test, the one clamp per message and
# the column-wise 4-level glue


class _FrozenSP:
    """The sum-product plane in its earlier form: each step gathers evidence
    plus totals itself and clips the signed messages at +/-LLR_CLAMP; the
    stop test is the layout parity of a hard decision."""

    def __init__(self, pcm, syndrome_bits):
        self.g = graph_for(pcm)
        self.syndrome = np.asarray(syndrome_bits)[self.g.check_order] \
            .astype(bool)
        self.c2v = np.zeros(self.g.edge_var.size)
        self.totals = np.zeros(pcm.n)
        self.last_delta = np.inf

    def step(self, evidence_llr):
        g = self.g
        work = np.take(evidence_llr + self.totals, g.edge_var)
        work -= self.c2v
        np.clip(work, -LLR_CLAMP, LLR_CLAMP, out=work)
        work *= 0.5
        np.tanh(work, out=work)
        neg = work < 0.0
        np.abs(work, out=work)
        np.maximum(work, 1e-12, out=work)
        excl = np.empty_like(work)
        for edges, checks, d in g.check_blocks:
            t = work[edges].reshape(d, -1)
            flip = neg[edges].reshape(d, -1)
            np.divide(np.multiply.reduce(t, axis=0), t,
                      out=excl[edges].reshape(d, -1))
            flip ^= np.bitwise_xor.reduce(flip, axis=0) ^ self.syndrome[checks]
        np.minimum(excl, 1.0 - 1e-15, out=excl)
        np.arctanh(excl, out=excl)
        new = np.multiply(neg, -4.0)
        new += 2.0
        new *= excl
        np.clip(new, -LLR_CLAMP, LLR_CLAMP, out=new)
        self.last_delta = float(np.abs(new - self.c2v).max())
        self.c2v = new
        on_edges = new[g.var_edges]
        self.totals = np.empty(self.totals.size)
        for variables, edges, d in g.var_blocks:
            self.totals[variables] = np.add.reduce(
                on_edges[edges].reshape(d, -1), axis=0)
        return self.totals

    def satisfied(self, hard):
        return np.array_equal(self.g.parity(hard), self.syndrome)


def _frozen_flood(steps, satisfies, max_iter):
    for it, (estimate, delta) in zip(range(1, max_iter + 1), steps):
        if satisfies(estimate):
            return DecodeResult(estimate, True, it, True)
        if delta < MESSAGE_TOL:
            return DecodeResult(estimate, True, it, False)
    return DecodeResult(estimate, False, max_iter, False)


def _frozen_prob(llr):
    p1 = 1.0 / (1.0 + np.exp(np.clip(llr, -LLR_CLAMP, LLR_CLAMP)))
    return 1.0 - p1, p1


def _frozen_llr(p0, p1):
    return np.clip(np.log((p0 + _TINY) / (p1 + _TINY)), -LLR_CLAMP, LLR_CLAMP)


def _frozen_binary(planes, pcm, s, evidence_llr, max_iter):
    evidence_llr = np.clip(evidence_llr, -LLR_CLAMP, LLR_CLAMP)
    planes.append(sp := _FrozenSP(pcm, s))

    def steps():
        while True:
            totals = sp.step(evidence_llr)
            yield np.less(evidence_llr + totals, 0.0), sp.last_delta

    result = _frozen_flood(steps(), sp.satisfied, max_iter)
    result.estimate = result.estimate.view(np.uint8)
    return result


def _frozen_quaternary(planes, pcm_m, pcm_l, s_m, s_l, g, max_iter):
    planes += [sp_m := _FrozenSP(pcm_m, s_m), sp_l := _FrozenSP(pcm_l, s_l)]

    def steps():
        pm0, pm1 = pl0, pl1 = _frozen_prob(np.zeros(pcm_m.n))
        while True:
            ev_m = _frozen_llr(g[:, 0] * pl0 + g[:, 1] * pl1,
                               g[:, 2] * pl0 + g[:, 3] * pl1)
            ev_l = _frozen_llr(g[:, 0] * pm0 + g[:, 2] * pm1,
                               g[:, 1] * pm0 + g[:, 3] * pm1)
            pm0, pm1 = _frozen_prob(sp_m.step(ev_m))
            pl0, pl1 = _frozen_prob(sp_l.step(ev_l))
            mu = [pm0 * pl0, pm0 * pl1, pm1 * pl0, pm1 * pl1]
            norm = np.maximum(sum(mu[1:], start=mu[0]), _TINY)
            v0, v1, v2, v3 = (m / norm * g[:, a] for a, m in enumerate(mu))
            high = np.maximum(v2, v3) > np.maximum(v0, v1)
            estimate = np.add(high, high, dtype=np.uint8)
            estimate += np.where(high, v3 > v2, v1 > v0)
            yield estimate, max(sp_m.last_delta, sp_l.last_delta)

    def satisfies(estimate):
        return sp_m.satisfied(estimate >> 1) and sp_l.satisfied(estimate & 1)

    return _frozen_flood(steps(), satisfies, max_iter)


def _frozen_phase_offset(planes, pcm, s, prob, theta_grid, max_iter):
    num_grid, n = theta_grid.size, pcm.n
    if num_grid == 1:
        result = _frozen_binary(planes, pcm, s,
                                _frozen_llr(prob[0, :, 0], prob[0, :, 1]),
                                max_iter)
        result.theta_hat = float(theta_grid[0])
        return result
    planes.append(sp := _FrozenSP(pcm, s))
    log_to_theta = np.empty((n, num_grid))
    for b in range(num_grid):
        planes.append(probe := _FrozenSP(pcm, s))
        p0, p1 = _frozen_prob(probe.step(
            _frozen_llr(prob[b, :, 0], prob[b, :, 1])))
        log_to_theta[:, b] = np.log(
            np.maximum(prob[b, :, 0] * p0 + prob[b, :, 1] * p1, _TINY))
    log_to_theta -= log_to_theta.max(axis=1, keepdims=True)

    def steps():
        nonlocal log_to_theta
        prev_llr = None
        while True:
            to_g = log_to_theta.sum(axis=0) - log_to_theta
            to_g -= to_g.max(axis=1, keepdims=True)
            w = np.exp(to_g)
            w /= w.sum(axis=1, keepdims=True)
            mixed = np.einsum("ib,bil->il", w, prob)
            ev_llr = _frozen_llr(mixed[:, 0], mixed[:, 1])
            ev_delta = np.inf if prev_llr is None else float(
                np.max(np.abs(ev_llr - prev_llr)))
            prev_llr = ev_llr
            totals = sp.step(ev_llr)
            estimate = np.less(ev_llr + totals, 0.0)
            p0, p1 = _frozen_prob(totals)
            back = prob[:, :, 0] * p0[None, :] + prob[:, :, 1] * p1[None, :]
            log_to_theta = np.log(np.maximum(back.T, _TINY), order="C")
            log_to_theta -= log_to_theta.max(axis=1, keepdims=True)
            yield estimate, max(sp.last_delta, ev_delta)

    result = _frozen_flood(steps(), sp.satisfied, max_iter)
    result.estimate = result.estimate.view(np.uint8)
    result.theta_hat = float(theta_grid[np.argmax(log_to_theta.sum(axis=0))])
    return result


def _special_llrs(rng, x):
    """LLRs leaning towards the bits ``x``, with the clamp, signed zeros and
    far-out values mixed in."""
    llr = (1.0 - 2.0 * x) * rng.choice([0.3, 3.0, 40.0]) \
        * rng.standard_normal(x.size)
    pick = rng.random(x.size) < rng.choice([0.2, 0.6])
    llr[pick] = rng.choice([LLR_CLAMP, -LLR_CLAMP, 0.0, -0.0, 1e3, -1e3],
                           size=int(pick.sum()))
    return llr


def _binary_posteriors(llr):
    """(P[bit 0], P[bit 1]) from LLRs, exactly 0 and 1 far out."""
    p1 = 0.5 - 0.5 * np.tanh(0.5 * llr)
    return np.stack([1.0 - p1, p1], axis=-1)


@pytest.mark.golden
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       decoder=st.sampled_from(["binary", "quaternary", "phase_offset"]),
       grid=st.sampled_from([1, 2, 4]), max_iter=st.sampled_from([1, 3, 50]))
def test_decoders_match_frozen_iterations(seed, decoder, grid, max_iter):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 64))
    # rows past degree 27 let exclusive products underflow, so the signs of
    # zero messages are compared too
    pcm = _mixed_degree_code(rng, n, int(rng.integers(1, 40)), max_degree=32)
    x = rng.integers(0, 2, (2, n)).astype(np.uint8)
    # a target drawn apart from x half the time, so some cosets are far off
    s = pcm.syndrome(x[0] if rng.random() < 0.5 else x[1])
    if decoder == "binary":
        args = (pcm, s, _special_llrs(rng, x[0]))
        ours, frozen = decode_binary, _frozen_binary
    elif decoder == "quaternary":
        pcm_l = _mixed_degree_code(rng, n, int(rng.integers(1, 40)), 32)
        # per-level log-evidence leaning towards the levels 2 x_M + x_L
        logs = np.stack([_special_llrs(rng, x[0] ^ (a >> 1) ^ 1)
                         + _special_llrs(rng, x[1] ^ (a & 1) ^ 1)
                         for a in range(4)], axis=1)
        g = np.exp(np.clip(logs - logs.max(axis=1, keepdims=True), -700, 0))
        args = (pcm, pcm_l, s, pcm_l.syndrome(x[1]),
                g / g.sum(axis=1, keepdims=True))
        ours, frozen = decode_quaternary, _frozen_quaternary
    else:
        thetas = 2 * np.pi * np.arange(grid) / grid
        prob = np.stack([_binary_posteriors(_special_llrs(rng, x[b % 2]))
                         for b in range(grid)])
        args = (pcm, s, prob, thetas)
        ours, frozen = decode_with_phase_offset, _frozen_phase_offset

    planes = []

    class Recording(_BinarySP):
        def __init__(self, *a):
            super().__init__(*a)
            planes.append(self)

    with mock.patch.object(decode_module, "_BinarySP", Recording):
        got = ours(*args, max_iter=max_iter)
    want_planes = []
    want = frozen(want_planes, *args, max_iter)
    assert got.estimate.dtype == want.estimate.dtype == np.uint8
    assert got.estimate.tobytes() == want.estimate.tobytes()
    assert (got.iterations_used, got.converged, got.syndrome_satisfied,
            got.theta_hat) == (want.iterations_used, want.converged,
                               want.syndrome_satisfied, want.theta_hat)
    assert len(planes) == len(want_planes)
    for ours_sp, frozen_sp in zip(planes, want_planes):
        for name in ("c2v", "totals"):
            assert np.array_equal(getattr(ours_sp, name).view(np.uint64),
                                  getattr(frozen_sp, name).view(np.uint64))
