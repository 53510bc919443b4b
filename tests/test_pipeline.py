import math
import warnings

import numpy as np
import pytest

from chankey.channel import (
    ChannelConfig,
    build_snr_profile,
    realize,
    sample_paths,
    time_coefficients,
)
from chankey.pipeline import (
    SessionConfig,
    _session_vectors,
    make_plane_code,
    monobit_z,
    run_session,
    sweep_rate_vs_snr,
    waterfall_thresholds,
)
from chankey.quantize import Quantizer
from chankey.rng import split_streams
from chankey.sounding import interleave, rotation_grid, two_way_sound

TABLE1 = ChannelConfig(m_tones=52, bandwidth_hz=16.25e6, duration_s=3.2e-6,
                       n_paths=300, tau_max_s=800e-9)
Q2 = Quantizer.equiprobable(2)
Q4 = Quantizer.equiprobable(4)

# small session geometry for fast tests: L=4, 16 blocks -> N=128
SMALL = ChannelConfig(m_tones=8, bandwidth_hz=2.5e6, duration_s=3.2e-6,
                      n_paths=40, tau_max_s=1.6e-6, profile="flat")
N_SMALL = 2 * 16 * SMALL.num_delay_bins
FLAT100 = ChannelConfig(m_tones=52, bandwidth_hz=16.25e6, duration_s=3.2e-6,
                        n_paths=100, tau_max_s=800e-9, profile="flat")


def _small_session(snr_db, seed=0, rate=0.5, quantizer=Q2, mode="soft",
                   family="regular", **kw):
    code = make_plane_code(N_SMALL, rate, family, 7)
    return SessionConfig(channel=SMALL, snr_f_db=snr_db, blocks=16,
                         quantizer=quantizer, code=code, decoding_mode=mode,
                         seed=seed, **kw)


def test_config_validation():
    code = make_plane_code(N_SMALL, 0.5, "regular", 7)
    with pytest.raises(ValueError):
        SessionConfig(channel=SMALL, snr_f_db=10, blocks=15, quantizer=Q2,
                      code=code)  # 2nL != N
    with pytest.raises(ValueError):
        SessionConfig(channel=SMALL, snr_f_db=10, blocks=16, quantizer=Q2,
                      code=code, decoding_mode="fuzzy")
    with pytest.raises(ValueError):
        SessionConfig(channel=SMALL, snr_f_db=10, blocks=16, quantizer=Q2,
                      code=code, phase_mode="constant_theta",
                      decoding_mode="hard")


def test_config_rejects_per_block_theta():
    # one rotation per session is the only rotation model
    code = make_plane_code(N_SMALL, 0.5, "regular", 7)
    with pytest.raises(ValueError, match="phase_mode"):
        SessionConfig(channel=SMALL, snr_f_db=10, blocks=16, quantizer=Q2,
                      code=code, phase_mode="per_block_theta")


@pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_snr(snr_db):
    code = make_plane_code(N_SMALL, 0.5, "regular", 7)
    with pytest.raises(ValueError, match="snr_f_db"):
        SessionConfig(channel=SMALL, snr_f_db=snr_db, blocks=16,
                      quantizer=Q2, code=code)


def test_noiseless_session_agrees():
    res = run_session(_small_session(200.0, seed=1))
    assert res.agreed
    assert res.bit_error_rate == 0.0
    assert res.syndrome_satisfied
    assert res.key_length == N_SMALL // 2
    np.testing.assert_array_equal(res.key_a, res.key_b)


def test_session_determinism():
    a = run_session(_small_session(12.0, seed=99))
    b = run_session(_small_session(12.0, seed=99))
    np.testing.assert_array_equal(a.key_a, b.key_a)
    np.testing.assert_array_equal(a.key_b, b.key_b)
    assert a.iterations_used == b.iterations_used
    assert a.key_a_hex == b.key_a_hex


def test_key_and_public_message_accounting():
    res = run_session(_small_session(200.0, seed=2))
    assert res.key_length + res.public_message_length == N_SMALL
    cfg4 = _small_session(200.0, seed=3, quantizer=Q4, rate=0.75)
    res4 = run_session(cfg4)
    # two planes: each contributes (N - m) key bits and m public bits
    assert res4.key_length + res4.public_message_length == 2 * N_SMALL
    assert res4.agreed


def test_table1_operating_point_high_agreement():
    # rate-1/2 soft binary at 10 dB, clearly above the measured 7 dB onset
    code = make_plane_code(3120, 0.5, "regular", 1)
    agreed = 0
    for t in range(30):
        cfg = SessionConfig(channel=TABLE1, snr_f_db=10.0, blocks=120,
                            quantizer=Q2, code=code, seed=(42, t))
        res = run_session(cfg)
        agreed += int(res.agreed)
        assert res.key_length == 1560
    assert agreed >= 29


def test_agreed_keys_pass_monobit():
    code = make_plane_code(N_SMALL, 0.5, "regular", 7)
    bits = []
    for t in range(60):
        cfg = SessionConfig(channel=SMALL, snr_f_db=25.0, blocks=16,
                            quantizer=Q2, code=code, seed=(5, t))
        res = run_session(cfg)
        if res.agreed:
            bits.append(res.key_a)
    pooled = np.concatenate(bits)
    assert pooled.size >= 3000
    assert abs(monobit_z(pooled)) <= 4.0


def test_hard_mode_works_at_high_snr():
    res = run_session(_small_session(25.0, seed=6, mode="hard"))
    assert res.agreed


def test_quaternary_beats_binary_throughput_at_high_snr():
    # matched seeds: same channels, two quantizers
    code2 = make_plane_code(3120, 0.5, "regular", 1)
    code4 = make_plane_code(3120, 0.625, "regular", 1)
    tp2 = tp4 = 0
    for t in range(10):
        r2 = run_session(SessionConfig(channel=TABLE1, snr_f_db=15.0,
                                       blocks=120, quantizer=Q2, code=code2,
                                       seed=(77, t)))
        r4 = run_session(SessionConfig(channel=TABLE1, snr_f_db=15.0,
                                       blocks=120, quantizer=Q4, code=code4,
                                       seed=(77, t)))
        tp2 += r2.key_length * r2.agreed
        tp4 += r4.key_length * r4.agreed
    assert tp4 >= tp2


def test_phase_session_constant_theta():
    cfg = _small_session(22.0, seed=8, rate=0.25, family="irregular",
                         phase_mode="constant_theta", theta_grid_size=8)
    res = run_session(cfg)
    assert res.agreed
    assert res.theta_error is not None
    assert abs(res.theta_error) < 1e-9


def _reference_session_vectors(config):
    """Block-at-a-time simulation: Alice's vector, Bob's vector, rotation."""
    L = config.channel.num_delay_bins
    streams = split_streams(config.seed, config.blocks + 1)
    grid = rotation_grid(config.theta_grid_size)
    if config.phase_mode == "none":
        theta = 0.0
    else:
        theta = grid[streams[-1].integers(0, grid.size)]
    profile = build_snr_profile(config.channel, config.snr_f_db)
    noise_scale = math.sqrt(profile.noise_var / 2.0)
    a_parts, b_parts = [], []
    for i in range(config.blocks):
        rng = streams[i]
        h = time_coefficients(sample_paths(config.channel, rng), config.channel)
        noise = rng.standard_normal((2, L)) + 1j * rng.standard_normal((2, L))
        a_parts.append(interleave(h + noise_scale * noise[0]))
        b_parts.append(interleave(
            (h + noise_scale * noise[1]) * np.exp(1j * theta)))
    return np.concatenate(a_parts), np.concatenate(b_parts), theta


FLAT_1BIN = ChannelConfig(m_tones=4, bandwidth_hz=1e6, duration_s=4e-6,
                          n_paths=6, tau_max_s=0.0, profile="flat")
EXP_1PATH = ChannelConfig(m_tones=8, bandwidth_hz=2.5e6, duration_s=3.2e-6,
                          n_paths=1, tau_max_s=1.6e-6)


@pytest.mark.parametrize("channel", [TABLE1, SMALL, FLAT_1BIN, EXP_1PATH],
                         ids=["exponential", "flat", "tau0", "one_path"])
@pytest.mark.parametrize("phase_mode", ["none", "constant_theta"])
@pytest.mark.parametrize("snr_db", [-30.0, 10.0, 60.0])
def test_batched_session_vectors_match_block_loop(channel, phase_mode, snr_db):
    blocks = 5
    n_data = 2 * blocks * channel.num_delay_bins
    code = make_plane_code(n_data, 0.5, "regular", 7)
    cfg = SessionConfig(channel=channel, snr_f_db=snr_db, blocks=blocks,
                        quantizer=Q2, code=code, phase_mode=phase_mode,
                        theta_grid_size=8, seed=(21, blocks))
    x_raw, b_obs, _, _, theta = _session_vectors(cfg)
    ref_a, ref_b, ref_theta = _reference_session_vectors(cfg)
    assert theta == ref_theta
    assert np.array_equal(x_raw, ref_a)
    assert np.array_equal(interleave(b_obs), ref_b)


@pytest.mark.parametrize("channel", [TABLE1, SMALL, FLAT_1BIN],
                         ids=["exponential", "flat", "tau0"])
def test_session_vectors_match_two_way_sound(channel):
    # the batched session path and the one-block entry point share one
    # per-stream noise layout
    blocks = 4
    n_data = 2 * blocks * channel.num_delay_bins
    cfg = SessionConfig(channel=channel, snr_f_db=12.0, blocks=blocks,
                        quantizer=Q2,
                        code=make_plane_code(n_data, 0.5, "regular", 7),
                        seed=(8, 2))
    x_raw, b_obs, _, _, _ = _session_vectors(cfg)
    profile = build_snr_profile(channel, cfg.snr_f_db)
    pairs = [two_way_sound(realize(channel, rng), profile, rng)
             for rng in split_streams(cfg.seed, blocks + 1)[:-1]]
    assert np.array_equal(x_raw, interleave(np.array([p.obs_a for p in pairs])))
    assert np.array_equal(b_obs, np.array([p.obs_b for p in pairs]))


@pytest.mark.parametrize("phase_mode", ["none", "constant_theta"])
def test_session_extreme_snr_emits_no_runtime_warning(phase_mode):
    for snr_db in (-30.0, 60.0):
        cfg = _small_session(snr_db, seed=4, rate=0.25, family="irregular",
                             phase_mode=phase_mode, theta_grid_size=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = run_session(cfg)
        assert res.key_length == (cfg.quantizer.levels // 2
                                  * (cfg.code.n - cfg.code.rank))


@pytest.mark.parametrize("quantizer", [Q2, Q4], ids=["2-level", "4-level"])
@pytest.mark.parametrize("snr_db", [40.0, 60.0])
def test_high_snr_hard_session_agrees(quantizer, snr_db):
    # hard evidence near rho = 1 must be exact and warning-free
    blocks = 8
    n_data = 2 * blocks * FLAT100.num_delay_bins
    cfg = SessionConfig(channel=FLAT100, snr_f_db=snr_db, blocks=blocks,
                        quantizer=quantizer,
                        code=make_plane_code(n_data, 0.5, "regular", 7),
                        decoding_mode="hard", seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_session(cfg)
    assert res.agreed


@pytest.mark.parametrize("family", ["regular", "irregular"])
def test_rate_one_code_rejected(family):
    # rate 1.0 leaves no parity checks (m = 0)
    with pytest.raises(ValueError, match="m=0"):
        make_plane_code(520, 1.0, family, 1)


def test_sweep_reports_threshold():
    template = _small_session(0.0, seed=11)
    rows = sweep_rate_vs_snr(template, rates=[0.5], snr_grid=[2.0, 25.0],
                             trials=6)
    assert len(rows) == 2
    th = waterfall_thresholds(rows)
    assert th[0.5] == 25.0  # high point decodes cleanly, low one does not
    for row in rows:
        assert row.sessions == 6
        assert 0.0 <= row.ber <= 1.0


def test_sweep_excludes_low_rates():
    template = _small_session(0.0, seed=12)
    rows = sweep_rate_vs_snr(template, rates=[0.1, 0.5], snr_grid=[25.0],
                             trials=2)
    assert {row.rate for row in rows} == {0.5}


def test_sweep_keeps_template_rotation():
    # an untracked quarter-turn (one-point grid) must reach every session
    # of the sweep, not be dropped when the sweep swaps code and SNR
    n_data = 2 * 10 * FLAT100.num_delay_bins
    template = SessionConfig(channel=FLAT100, snr_f_db=0.0, blocks=10,
                             quantizer=Q2,
                             code=make_plane_code(n_data, 0.5, "regular", 7),
                             phase_mode="constant_theta", theta_grid_size=1,
                             theta=np.pi / 2, seed=31)
    (row,) = sweep_rate_vs_snr(template, rates=[0.5], snr_grid=[25.0],
                               trials=4)
    assert row.agreed == 0
    assert row.ber > 0.3
