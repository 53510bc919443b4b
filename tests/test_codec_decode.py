import math

import numpy as np
import pytest

from chankey.codec import (
    SparseParityCheck,
    construct_irregular,
    construct_regular,
    decode_binary,
    decode_quaternary,
    decode_with_phase_offset,
    evidence_to_llr,
)
from chankey.codec.decode import _plane_evidence
from chankey.quantize import Quantizer, bit_planes, quantize, soft_evidence
from chankey.rng import make_rng

Q2 = Quantizer.equiprobable(2)
Q4 = Quantizer.equiprobable(4)


def _enumerate_bits(n):
    grid = np.arange(2**n, dtype=np.uint32)
    return ((grid[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def _map_decode(pcm, s, llr):
    """Exhaustive sequence-MAP over the coset (independent oracle)."""
    xs = _enumerate_bits(pcm.n)
    syn = (xs @ pcm.dense().T) & 1
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


# ---------------------------------------------------------------------------
# quaternary decoder


def test_plane_coupling_worked_message():
    # with incoming symbol message G and LSB-plane message muL, the MSB
    # message is mu(1) ~ G(2) muL(0) + G(3) muL(1), mu(0) ~ G(0) muL(0) +
    # G(1) muL(1); check against a direct evaluation
    g = np.array([[0.1, 0.2, 0.3, 0.4]])
    mu_l0, mu_l1 = 0.7, 0.3
    ext_l = np.array([math.log(mu_l0 / mu_l1)])
    to_m, _, _ = _plane_evidence(g, np.zeros(1), ext_l)
    num0 = g[0, 0] * mu_l0 + g[0, 1] * mu_l1
    num1 = g[0, 2] * mu_l0 + g[0, 3] * mu_l1
    assert to_m[0] == pytest.approx(math.log(num0 / num1), abs=1e-9)


def test_plane_coupling_symbol_marginal():
    # mu_{F->x}(a) ~ muM(a_M) muL(a_L), e.g. level 2 pairs muM(1) muL(0)
    g = np.full((1, 4), 0.25)
    ext_m = np.array([math.log(0.2 / 0.8)])
    ext_l = np.array([math.log(0.6 / 0.4)])
    _, _, to_sym = _plane_evidence(g, ext_m, ext_l)
    expected = np.array([0.2 * 0.6, 0.2 * 0.4, 0.8 * 0.6, 0.8 * 0.4])
    np.testing.assert_allclose(to_sym[0], expected / expected.sum(), atol=1e-9)


def test_quaternary_deterministic_evidence():
    pcm = construct_irregular(64, 16, {3: 1.0}, None, seed=6)
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
    pcm = construct_irregular(512, 128, {3: 1.0}, None, seed=3)
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
    a = construct_irregular(64, 16, {3: 1.0}, None, seed=8)
    b = construct_irregular(32, 8, {3: 1.0}, None, seed=8)
    with pytest.raises(ValueError):
        decode_quaternary(a, b, np.zeros(16, np.uint8), np.zeros(8, np.uint8),
                          np.full((64, 4), 0.25))


# ---------------------------------------------------------------------------
# rotation-aware decoder


def _phase_code():
    # mixed row degrees make the all-ones vector a non-codeword, so a
    # rotation by pi cannot masquerade as a valid coset member
    pcm = construct_irregular(256, 192, {2: 0.4, 3: 0.6}, None, seed=4)
    assert pcm.syndrome(np.ones(256, dtype=np.uint8)).any()
    return pcm


def test_phase_single_point_grid_equals_plain_decoder():
    pcm = _phase_code()
    rho = 0.99
    rng = make_rng(9)
    x_raw = rng.standard_normal(256)
    y_raw = rho * x_raw + math.sqrt(1 - rho**2) * rng.standard_normal(256)
    xa = quantize(x_raw, Q2)
    s = pcm.syndrome(xa)
    obs = y_raw[0::2] + 1j * y_raw[1::2]
    res_phase = decode_with_phase_offset(pcm, s, obs, np.array([0.0]), rho,
                                         math.sqrt(2), Q2)
    ev = soft_evidence(y_raw, rho, math.sqrt(2), Q2)
    res_plain = decode_binary(pcm, s, evidence_to_llr(ev))
    np.testing.assert_array_equal(res_phase.estimate, res_plain.estimate)
    assert res_phase.iterations_used == res_plain.iterations_used
    assert res_phase.syndrome_satisfied == res_plain.syndrome_satisfied
    assert res_phase.theta_hat == 0.0


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
        res = decode_with_phase_offset(pcm, pcm.syndrome(xa), obs, grid, rho,
                                       math.sqrt(2), Q2)
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
        res = decode_with_phase_offset(pcm, pcm.syndrome(xa), obs, grid, rho,
                                       math.sqrt(2), Q2)
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
            post = soft_evidence(y_b, rho, math.sqrt(2), Q2).posteriors
            logp = np.log(np.maximum(post, 1e-300))
            for x in _enumerate_bits(8):
                if np.array_equal(pcm.syndrome(x), s):
                    scored.append((logp[np.arange(8), x].sum(), x, th))
        scored.sort(key=lambda t: -t[0])
        if scored[0][0] - scored[1][0] < 1.0:
            continue  # tied joint optimum (a wrong rotation mimics a coset
            # member by chance at this tiny size): no unique answer to match
        unique += 1
        res = decode_with_phase_offset(pcm, s, obs, grid, rho, math.sqrt(2),
                                       Q2)
        hits += int(np.array_equal(res.estimate, scored[0][1])
                    and res.theta_hat == pytest.approx(scored[0][2]))
    assert unique >= 15
    assert hits == unique


def test_phase_rejects_bad_arguments():
    pcm = _phase_code()
    obs = np.zeros(128, dtype=complex)
    with pytest.raises(ValueError):
        decode_with_phase_offset(pcm, np.zeros(192, np.uint8), obs,
                                 np.array([]), 0.9, 1.0, Q2)
    with pytest.raises(ValueError):
        decode_with_phase_offset(pcm, np.zeros(192, np.uint8), obs,
                                 np.array([0.0]), 0.9, 1.0, Q4)
    with pytest.raises(ValueError):
        decode_with_phase_offset(pcm, np.zeros(192, np.uint8), obs[:100],
                                 np.array([0.0]), 0.9, 1.0, Q2)
