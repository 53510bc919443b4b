import math

import numpy as np
import pytest
from scipy import stats

from chankey.channel import ChannelConfig, build_snr_profile, realize
from chankey.rng import make_rng, split_streams
from chankey.sounding import (
    MeasurementPair,
    apply_phase_offset,
    interleave,
    two_way_sound,
)

FLAT = ChannelConfig(m_tones=8, bandwidth_hz=2.5e6, duration_s=3.2e-6,
                     n_paths=24, tau_max_s=1.6e-6, profile="flat")


def _pair(obs_a, obs_b, noise_var=1.0):
    return MeasurementPair(obs_a=np.asarray(obs_a, dtype=complex),
                           obs_b=np.asarray(obs_b, dtype=complex),
                           noise_var=noise_var)


def test_noiseless_reciprocity():
    prof = build_snr_profile(FLAT, 20.0)
    noiseless = type(prof)(noise_var=0.0, per_bin_snr=prof.per_bin_snr,
                           per_tone_snr=prof.per_tone_snr)
    r = realize(FLAT, seed=1)
    pair = two_way_sound(r, noiseless, seed=2)
    np.testing.assert_array_equal(pair.obs_a, r.time_coeffs)
    np.testing.assert_array_equal(pair.obs_b, r.time_coeffs)


@pytest.fixture(scope="module")
def sounded_blocks():
    """1e5 independently sounded coherence blocks at 10 dB."""
    prof = build_snr_profile(FLAT, 10.0)
    R = 100_000
    L = FLAT.num_delay_bins
    a = np.empty((R, L), dtype=complex)
    b = np.empty((R, L), dtype=complex)
    for i, rng in enumerate(split_streams(404, R)):
        pair = two_way_sound(realize(FLAT, rng), prof, rng)
        a[i] = pair.obs_a
        b[i] = pair.obs_b
    return prof, a, b


def test_cross_party_correlation_matches_rho(sounded_blocks):
    prof, a, b = sounded_blocks
    R = a.shape[0]
    # expected per-bin correlation: variance realized in bin l over its width
    # fraction, attenuated by the noise (the flat profile's equal-variance
    # idealization is exact only for interior bins)
    w = FLAT.bandwidth_hz
    L = FLAT.num_delay_bins
    widths = np.minimum(FLAT.tau_max_s, (np.arange(L) + 0.5) / w) - np.maximum(
        0.0, (np.arange(L) - 0.5) / w)
    widths[-1] = FLAT.tau_max_s - max(0.0, (L - 1.5) / w)
    sigma2 = FLAT.m_tones * FLAT.sigma_h2 * widths / FLAT.tau_max_s
    rho_expected = sigma2 / (sigma2 + prof.noise_var)
    for ell in range(L):
        r = np.corrcoef(a[:, ell].real, b[:, ell].real)[0, 1]
        se = (1 - rho_expected[ell] ** 2) / math.sqrt(R)
        assert abs(r - rho_expected[ell]) < 3.5 * se


def test_real_imag_cross_correlation_zero(sounded_blocks):
    _, a, b = sounded_blocks
    r = np.corrcoef(a[:, 1].real, b[:, 1].imag)[0, 1]
    assert abs(r) < 0.05


def test_apply_phase_offset_identity_and_negation():
    pair = _pair([1 + 1j, 2 - 1j], [1 + 1j, 2 - 1j])
    same = apply_phase_offset(pair, 0.0)
    np.testing.assert_array_equal(same.obs_b, pair.obs_b)
    flipped = apply_phase_offset(pair, math.pi)
    np.testing.assert_allclose(flipped.obs_b, -pair.obs_b, atol=1e-12)
    np.testing.assert_array_equal(flipped.obs_a, pair.obs_a)
    assert flipped.phase_offset == math.pi


def test_apply_phase_offset_preserves_magnitudes():
    rng = make_rng(9)
    obs = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    pair = _pair(obs, obs)
    for theta in (0.1, 1.0, 2.5, 6.0):
        rotated = apply_phase_offset(pair, theta)
        np.testing.assert_allclose(np.abs(rotated.obs_b), np.abs(obs),
                                   rtol=1e-12)


def test_rotation_invariance_of_distribution():
    # circularly symmetric vectors keep their law under rotation: compare an
    # independently drawn rotated batch against an unrotated one
    prof = build_snr_profile(FLAT, 10.0)
    n = 10_000

    def batch(seed, theta):
        out = np.empty(n, dtype=complex)
        for i, rng in enumerate(split_streams(seed, n)):
            pair = two_way_sound(realize(FLAT, rng), prof, rng)
            if theta:
                pair = apply_phase_offset(pair, theta)
            out[i] = pair.obs_b[0]
        return out

    plain = batch(11, 0.0)
    rotated = batch(12, 2.2)
    ks = stats.ks_2samp(plain.real, rotated.real)
    assert ks.pvalue > 0.01


def test_interleave_layout():
    np.testing.assert_array_equal(interleave(np.array([1 + 2j, 3 - 4j])),
                                  [1.0, 2.0, 3.0, -4.0])
    # a multi-block array interleaves block after block
    rng = make_rng(5)
    obs = rng.standard_normal((2, 13)) + 1j * rng.standard_normal((2, 13))
    np.testing.assert_array_equal(
        interleave(obs), np.concatenate([interleave(row) for row in obs]))


def test_interleave_roundtrip():
    rng = make_rng(10)
    obs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    values = interleave(obs)
    np.testing.assert_array_equal(values[0::2] + 1j * values[1::2], obs)
