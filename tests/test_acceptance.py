"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each criterion prints one ``[criterion N] PASS/FAIL`` line (run pytest with
``-s`` to see them live) and asserts.  The expensive reconciliation sweep
(criterion 7) runs once in a module fixture; everything else is direct.
Criteria 1, 2, 4, 7a-7d and 9 are decided by ``chankey.claims``, which the
CLI self-checks share; the gate-only 3, 5, 6 and 8 by functions here.
"""

import math

import numpy as np
import pytest

from chankey import capacity, claims
from chankey.channel import ChannelConfig, build_snr_profile, flat_profile
from chankey.codec import (
    SparseParityCheck,
    construct_irregular,
    decode_binary,
    decode_with_phase_offset,
    evidence_to_llr,
)
from chankey.codec.matrix import construct_regular
from chankey.pipeline import (
    SessionConfig,
    make_plane_code,
    monobit_z,
    run_session,
    sweep_rate_vs_snr,
)
from chankey.quantize import Quantizer, quantize, soft_evidence
from chankey.rng import make_rng

TABLE1 = ChannelConfig(m_tones=52, bandwidth_hz=16.25e6, duration_s=3.2e-6,
                       n_paths=300, tau_max_s=800e-9)
Q2 = Quantizer.equiprobable(2)
Q4 = Quantizer.equiprobable(4)


def _report(num, desc, result):
    ok, detail = result
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {desc} ({detail})"
    print(line, flush=True)
    assert ok, line


# 1. Table I reproduction (closed form, < 1 s)
def test_criterion_1_table1_capacity():
    prof = build_snr_profile(TABLE1, 20.0)
    rep = capacity.csi_capacity(prof, TABLE1.m_tones).with_coherence(0.1)
    _report(1, "Table-style capacity at 20 dB", claims.table1_capacity(rep))


# 2. Full-coefficient vs signal-strength structure (1e6 samples per point)
def test_criterion_2_rssi_vs_csi_structure():
    m_tones = 10
    points = []
    for snr_db in [5.0, 10.0, 15.0, 20.0]:
        snr_tau = 10.0 ** (snr_db / 10.0)
        rho = snr_tau / (1.0 + snr_tau)
        csi = [capacity.csi_capacity_ideal(snr_tau, L, m_tones).capacity_per_dim
               for L in (2, 5, 10)]
        gauss = capacity.rssi_capacity_gaussian(rho, m_tones).capacity_per_dim
        numeric = capacity.rssi_capacity_numeric(
            flat_profile(snr_tau, 10, m_tones), m_tones, 1_000_000,
            seed=(2, int(snr_db)))
        points.append((snr_db, csi, gauss, numeric))
    _report(2, "strength-only capacity structure",
            claims.strength_capacity(points))


# 3. strength-reading correlation equals rho_tau^2 (1e6 samples)
def strength_correlation(points):
    """Criterion 3 over (rho, correlation, its SE): within 3 SE of rho^2."""
    problems = []
    for rho, corr, se in points:
        diff = abs(corr - rho**2)
        if diff > 3 * se:
            problems.append(f"rho={rho}: |corr - rho^2| = {diff:.2e} > 3se")
    rhos = ", ".join(str(rho) for rho, _, _ in points)
    return claims.verdict(problems, f"rho in {{{rhos}}}")


def test_criterion_3_strength_correlation():
    points = []
    for rho in (0.5, 0.9, 0.99):
        prof = flat_profile(rho / (1 - rho), 10, 10)
        ra, rb = capacity.simulate_rssi_pairs(prof, 1_000_000, seed=(3, int(rho * 100)))
        blocks = np.array_split(np.arange(ra.size), 20)
        rs = [np.corrcoef(ra[i], rb[i])[0, 1] for i in blocks]
        se = np.std(rs, ddof=1) / math.sqrt(len(rs))
        points.append((rho, np.corrcoef(ra, rb)[0, 1], se))
    _report(3, "strength correlation = rho_tau^2", strength_correlation(points))


# 4. information split equalities and gaps (1e6 samples)
def test_criterion_4_information_split():
    grid = (0.0, 10.0, 20.0)
    reports = [(snr_db, capacity.magphase_decomposition(
        10.0 ** (snr_db / 10.0), 1_000_000, seed=(4, int(snr_db))))
        for snr_db in grid]
    _report(4, "real/imag split exact, mag/phase strictly lossy",
            claims.information_split(reports, grid, [10.0]))


# 5. coset secrecy oracle (exhaustive, exact)
def _dense(pcm):
    """Reference: the m x n 0/1 matrix, from the stored rows."""
    out = np.zeros((pcm.m, pcm.n), dtype=np.uint8)
    for i, row in enumerate(pcm.rows):
        out[i, row] = 1
    return out


def _random_full_rank(n, m, rng):
    for _ in range(300):
        dense = (rng.random((m, n)) < 0.5).astype(np.uint8)
        for j in range(n):
            if not dense[:, j].any():
                dense[rng.integers(0, m), j] = 1
        if not all(dense[i].any() for i in range(m)):
            continue
        pcm = SparseParityCheck([np.nonzero(r)[0] for r in dense], n)
        if pcm.rank == m:
            return pcm
    raise RuntimeError("no full-rank sample")


def coset_secrecy(codes):
    """Criterion 5 over (n, m, syndrome ids, key ids of all x) per code."""
    problems = []
    for n, m, syn_ids, key_ids in codes:
        sizes = np.bincount(syn_ids, minlength=2**m)
        if not np.all(sizes == 2 ** (n - m)):
            problems.append(f"coset sizes wrong for n={n} m={m}")
        h_cond = sum((s / 2**n) * math.log2(s) for s in sizes if s)
        if abs(h_cond - (n - m)) > 1e-12:
            problems.append(f"H(X|S) != n-m for n={n} m={m}")
        pairs = set(zip(syn_ids.tolist(), key_ids.tolist()))
        if len(pairs) != 2**n:
            problems.append(f"(syndrome, key) not bijective n={n} m={m}")
    shapes = len({(n, m) for n, m, _, _ in codes})
    return claims.verdict(
        problems, f"{shapes} shapes x {len(codes) // shapes} codes, exact")


def test_criterion_5_coset_secrecy_oracle():
    rng = make_rng(5)
    codes = []
    for n, m in ((6, 3), (8, 4), (10, 5), (12, 6), (12, 4)):
        for _ in range(3):
            pcm = _random_full_rank(n, m, rng)
            xs = ((np.arange(2**n, dtype=np.uint32)[:, None]
                   >> np.arange(n)) & 1).astype(np.uint8)
            syndromes = (xs @ _dense(pcm).T) & 1
            keys = xs[:, pcm.systemization()[1]]
            codes.append((n, m, syndromes @ (1 << np.arange(m)),
                          keys @ (1 << np.arange(n - m))))
    _report(5, "coset size, conditional entropy, bijectivity (exhaustive)",
            coset_secrecy(codes))


# 6. decoder matches exhaustive MAP (1000 trials, >= 95%)
def decoder_vs_map(match, total):
    """Criterion 6: the decoder finds the MAP estimate in >= 95%."""
    rate = match / total
    return rate >= 0.95, f"{match}/{total} = {rate:.3f}"


def test_criterion_6_decoder_vs_map():
    rng = make_rng(6)
    sigma = 0.7
    match = total = 0
    for n, m, trials in ((16, 8, 600), (12, 6, 400)):
        enum = ((np.arange(2**n, dtype=np.uint32)[:, None]
                 >> np.arange(n)) & 1).astype(np.uint8)
        for t in range(trials):
            pcm = construct_regular(n, m, 2, make_rng((6, n, t)))
            x = rng.integers(0, 2, n).astype(np.uint8)
            s = pcm.syndrome(x)
            y = (1 - 2 * x.astype(float)) + sigma * rng.standard_normal(n)
            llr = 2 * y / sigma**2
            bp = decode_binary(pcm, s, llr)
            coset = enum[np.all(((enum @ _dense(pcm).T) & 1) == s, axis=1)]
            map_est = coset[np.argmin(coset @ llr)]
            match += int(np.array_equal(bp.estimate, map_est))
            total += 1
    _report(6, "sum-product matches exhaustive MAP",
            decoder_vs_map(match, total))


# 7. reconciliation waterfall orderings (N=3120, 100 trials per point)
BLOCKS = 120
N_DATA = 3120
RATES = [0.25, 0.5, 0.75]
RATES_Q = [0.5, 0.625, 0.75]
TRIALS = 100
GRID_SOFT = [float(snr_db) for snr_db in range(3, 17)]
GRID_HARD = [float(snr_db) for snr_db in range(6, 17)]
GRID_QUAT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 18.0]


@pytest.fixture(scope="module")
def waterfall():
    results = {}
    variants = {
        "soft": (Q2, "soft", "regular", RATES, GRID_SOFT),
        "hard": (Q2, "hard", "regular", RATES, GRID_HARD),
        "irregular": (Q2, "soft", "irregular", RATES, GRID_SOFT),
        "quaternary": (Q4, "soft", "regular", RATES_Q, GRID_QUAT),
    }
    for name, (quantizer, mode, family, rates, grid) in variants.items():
        template = SessionConfig(
            channel=TABLE1, snr_f_db=0.0, blocks=BLOCKS, quantizer=quantizer,
            code=make_plane_code(N_DATA, rates[0], family, (7, 0xC0DE)),
            decoding_mode=mode, seed=7)
        results[name] = sweep_rate_vs_snr(template, rates, grid, TRIALS,
                                          family=family)
    return results


def test_criterion_7a_soft_threshold_beats_hard(waterfall):
    _report("7a", "soft threshold <= hard threshold",
            claims.soft_beats_hard(waterfall["soft"], waterfall["hard"]))


def test_criterion_7b_irregular_within_half_db(waterfall):
    _report("7b", "irregular threshold <= regular + 0.5 dB",
            claims.irregular_near_regular(waterfall["soft"],
                                          waterfall["irregular"]))


def test_criterion_7c_quaternary_throughput(waterfall):
    _report("7c", "4-level throughput >= binary at >= 15 dB",
            claims.quaternary_throughput(waterfall["soft"],
                                         waterfall["quaternary"]))


def test_criterion_7d_achieved_points_below_capacity(waterfall):
    _report("7d", "every achieved point lies below capacity",
            claims.below_capacity(waterfall, TABLE1, BLOCKS))


# 8. end-to-end agreement, error rate, and key uniformity
def end_to_end(agreed, errors, bits, pooled):
    """Criterion 8 over 100 sessions and their pooled agreed key bits."""
    z = monobit_z(pooled)
    ok = agreed >= 99 and errors / bits <= 1e-3 and pooled.size >= 100_000 \
        and abs(z) <= 4.0
    return ok, (f"agreed {agreed}/100, BER {errors / bits:.2e}, "
                f"monobit z {z:+.2f} over {pooled.size} bits")


def test_criterion_8_end_to_end():
    code = make_plane_code(N_DATA, 0.5, "regular", (8, 0xC0DE))
    agreed = errors = bits = 0
    key_pool = []
    for t in range(100):
        res = run_session(SessionConfig(channel=TABLE1, snr_f_db=10.0,
                                        blocks=BLOCKS, quantizer=Q2,
                                        code=code, seed=(8, t)))
        agreed += int(res.agreed)
        errors += int(round(res.bit_error_rate * res.key_length))
        bits += res.key_length
        if res.agreed:
            key_pool.append(res.key_a)
    _report(8, "end-to-end sessions agree with uniform keys",
            end_to_end(agreed, errors, bits, np.concatenate(key_pool)))


# 9. rotation-tracking decoder properties
PHASE_CHANNEL = ChannelConfig(m_tones=52, bandwidth_hz=16.25e6,
                              duration_s=3.2e-6, n_paths=100,
                              tau_max_s=800e-9, profile="flat")
PHASE_BLOCKS = 20
PHASE_N = 2 * PHASE_BLOCKS * PHASE_CHANNEL.num_delay_bins


def test_criterion_9_rotation_tracking():
    code = construct_irregular(PHASE_N, round(PHASE_N * 0.75),
                               {2: 0.4, 3: 0.6}, seed=9)
    assert code.syndrome(np.ones(PHASE_N, dtype=np.uint8)).any()
    grid = 2.0 * np.pi * np.arange(8) / 8
    problems = []

    # degenerate single-point grid reduces exactly to the plain decoder
    rng = make_rng(90)
    prof = build_snr_profile(PHASE_CHANNEL, 12.0)
    rho = float(prof.rho_time[0])
    sigma = float(np.sqrt(prof.per_bin_snr[0] * prof.noise_var
                          + prof.noise_var))
    sx = sigma / math.sqrt(2.0)
    for _ in range(20):
        x_raw = sx * rng.standard_normal(PHASE_N)
        y_raw = rho * x_raw + math.sqrt(1 - rho * rho) * sx \
            * rng.standard_normal(PHASE_N)
        s = code.syndrome(quantize(x_raw, Q2, scale=sx))
        ev = soft_evidence(y_raw, rho, sigma, Q2)
        res_b1 = decode_with_phase_offset(code, s, ev[None], np.array([0.0]))
        res_plain = decode_binary(code, s, evidence_to_llr(ev))
        if not (np.array_equal(res_b1.estimate, res_plain.estimate)
                and res_b1.iterations_used == res_plain.iterations_used
                and res_b1.syndrome_satisfied == res_plain.syndrome_satisfied):
            problems.append("single-point grid differs from plain decoder")
            break

    # on-grid rotations at high SNR: exact estimates, success within 2%
    def success_rate(theta, tracked):
        results = [run_session(SessionConfig(
            channel=PHASE_CHANNEL, snr_f_db=20.0, blocks=PHASE_BLOCKS,
            quantizer=Q2, code=code,
            phase_mode="constant_theta" if tracked else "none",
            theta_grid_size=8, theta=theta if tracked else None,
            seed=(9, t))) for t in range(100)]
        return (sum(int(res.agreed) for res in results) / 100,
                [res.theta_error for res in results
                 if tracked and res.theta_error is not None])

    baseline, _ = success_rate(None, tracked=False)
    ok, detail = claims.rotation_tracking(baseline, [
        (float(theta), *success_rate(float(theta), tracked=True))
        for theta in grid])
    if not ok:
        problems.append(detail)
    _report(9, "rotation tracking: exact on grid, baseline-equivalent",
            (not problems, "; ".join(problems) or detail))
