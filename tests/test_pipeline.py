import dataclasses
import math
import os
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chankey.channel import (
    ChannelConfig,
    build_snr_profile,
    sample_paths,
    time_coefficients,
)
from chankey import pipeline
from chankey.codec import SparseParityCheck
from chankey.codec.decode import DEFAULT_MAX_ITER
from chankey.pipeline import (
    MIN_SWEEP_RATE,
    PHASE_MODES,
    SessionConfig,
    SweepRow,
    _session_vectors,
    draw_session,
    make_plane_code,
    monobit_z,
    run_session,
    sweep_rate_vs_snr,
    waterfall_thresholds,
)
from chankey.quantize import Quantizer
from chankey.rng import CHUNK_BYTES, derive_seed, row_chunks, split_streams
from chankey.sounding import (
    draw_noise,
    interleave,
    rotation_grid,
    two_way_sound,
)

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
                      code=code, seed=0)  # 2nL != N
    with pytest.raises(ValueError):
        SessionConfig(channel=SMALL, snr_f_db=10, blocks=16, quantizer=Q2,
                      code=code, decoding_mode="fuzzy", seed=0)
    with pytest.raises(ValueError):
        SessionConfig(channel=SMALL, snr_f_db=10, blocks=16, quantizer=Q2,
                      code=code, phase_mode="constant_theta",
                      decoding_mode="hard", seed=0)
    with pytest.raises(ValueError, match="binary soft"):
        SessionConfig(channel=SMALL, snr_f_db=10, blocks=16, quantizer=Q4,
                      code=code, phase_mode="constant_theta", seed=0)


def test_config_rejects_per_block_theta():
    # one rotation per session is the only rotation model
    code = make_plane_code(N_SMALL, 0.5, "regular", 7)
    with pytest.raises(ValueError, match="phase_mode"):
        SessionConfig(channel=SMALL, snr_f_db=10, blocks=16, quantizer=Q2,
                      code=code, phase_mode="per_block_theta", seed=0)


@pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_snr(snr_db):
    code = make_plane_code(N_SMALL, 0.5, "regular", 7)
    with pytest.raises(ValueError, match="snr_f_db"):
        SessionConfig(channel=SMALL, snr_f_db=snr_db, blocks=16,
                      quantizer=Q2, code=code, seed=0)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_theta(theta):
    code = make_plane_code(N_SMALL, 0.5, "regular", 7)
    with pytest.raises(ValueError, match="theta must be finite"):
        SessionConfig(channel=SMALL, snr_f_db=10, blocks=16, quantizer=Q2,
                      code=code, phase_mode="constant_theta", theta=theta,
                      seed=0)


def test_config_rejects_theta_without_rotation():
    # phase_mode "none" applies no rotation, so a theta would be ignored
    code = make_plane_code(N_SMALL, 0.5, "regular", 7)
    with pytest.raises(ValueError, match="theta is set"):
        SessionConfig(channel=SMALL, snr_f_db=10, blocks=16, quantizer=Q2,
                      code=code, theta=1.0, seed=0)


def test_config_requires_seed():
    # a session without a seed would silently share seed 0's streams
    code = make_plane_code(N_SMALL, 0.5, "regular", 7)
    with pytest.raises(TypeError, match="seed"):
        SessionConfig(channel=SMALL, snr_f_db=10, blocks=16, quantizer=Q2,
                      code=code)


def test_settings_that_change_no_output_are_not_accepted():
    # a gain variance cancels from every key and capacity, the quantizer's
    # thresholds follow from its levels, and every session decodes with
    # the decoders' own iteration cap
    with pytest.raises(TypeError, match="sigma_h2"):
        ChannelConfig(**dataclasses.asdict(SMALL), sigma_h2=1.0)
    with pytest.raises(TypeError):
        Quantizer(2, (0.0,))
    code = make_plane_code(N_SMALL, 0.5, "regular", 7)
    with pytest.raises(TypeError, match="max_iter"):
        SessionConfig(channel=SMALL, snr_f_db=10, blocks=16, quantizer=Q2,
                      code=code, max_iter=10, seed=0)
    assert SessionConfig.max_iter == DEFAULT_MAX_ITER
    assert _small_session(10).max_iter == DEFAULT_MAX_ITER


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
        h = time_coefficients(sample_paths(config.channel, [rng]),
                              config.channel)[0]
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


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        else:
            assert x == y


@pytest.mark.golden
def test_entry_law_cache_keeps_sessions_identical():
    # two channels of equal L (Table I's exponential profile and the same
    # channel flat) at two SNRs each: a cache keyed on anything coarser than
    # (channel, SNR, blocks) would hand one configuration another's law
    blocks = 5
    flat = replace(TABLE1, profile="flat")
    assert flat.num_delay_bins == TABLE1.num_delay_bins
    code = make_plane_code(2 * blocks * TABLE1.num_delay_bins, 0.5,
                           "regular", 7)
    configs = [SessionConfig(channel=channel, snr_f_db=snr_db, blocks=blocks,
                             quantizer=Q2, code=code, seed=(43, k))
               for k, channel in enumerate([TABLE1, flat])
               for snr_db in (4.0, 12.0)]
    cold = []
    for cfg in configs:
        pipeline._entry_law.cache_clear()
        cold.append((_session_vectors(cfg), run_session(cfg)))
    for cfg in configs:  # every configuration's law is now cached
        pipeline._entry_law(cfg.channel, cfg.snr_f_db, cfg.blocks)
    assert pipeline._entry_law.cache_info().currsize == len(configs)
    laws = {}
    for cfg, (vectors, result) in zip(configs, cold):
        hits = pipeline._entry_law.cache_info().hits
        _assert_same_bytes(_session_vectors(cfg), vectors)
        _assert_same_result(run_session(cfg), result)
        assert pipeline._entry_law.cache_info().hits > hits
        key = (cfg.channel, cfg.snr_f_db, cfg.blocks)
        law = pipeline._entry_law(*key)
        _assert_same_bytes(law, pipeline._entry_law.__wrapped__(*key))
        laws[cfg.channel, cfg.snr_f_db] = law
        for values in law[1:]:
            assert not values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0
    # the flat channel's law differs from the exponential one's at each SNR
    for snr_db in (4.0, 12.0):
        assert not np.array_equal(laws[TABLE1, snr_db][2],
                                  laws[flat, snr_db][2])


def _draw_config(channel, blocks, seed):
    """A session config for drawing only; its one-check code is never used."""
    n_data = 2 * blocks * channel.num_delay_bins
    return SessionConfig(channel=channel, snr_f_db=10.0, blocks=blocks,
                         quantizer=Q2,
                         code=SparseParityCheck([np.arange(n_data)], n_data),
                         seed=seed)


def _unchunked_draw(cfg):
    """``draw_session``'s h and noise from one call on all block streams."""
    streams = split_streams(cfg.seed, cfg.blocks + 1)[:-1]
    h = time_coefficients(sample_paths(cfg.channel, streams), cfg.channel)
    return h, draw_noise(streams, h.shape[1])


@pytest.mark.golden
@pytest.mark.parametrize("channel", [TABLE1, SMALL, FLAT_1BIN, EXP_1PATH],
                         ids=["exponential", "flat", "tau0", "one_path"])
def test_chunked_draw_matches_unchunked_at_chunk_boundaries(channel):
    row_bytes = 16 * max(channel.n_paths, 2 * channel.num_delay_bins)
    chunk = row_chunks(CHUNK_BYTES, row_bytes)[0].stop  # a full chunk
    for blocks in sorted({1, max(1, chunk - 1), chunk, chunk + 1,
                          2 * chunk + 3}):
        cfg = _draw_config(channel, blocks, (31, blocks))
        draw = draw_session(cfg)
        h, noise = _unchunked_draw(cfg)
        assert np.array_equal(draw.h, h), blocks
        assert np.array_equal(draw.noise, noise), blocks


def test_draw_session_memory_stays_chunk_sized():
    # one unchunked pass built ~2.5 MB of (blocks, n_paths) temporaries here
    cfg = _draw_config(TABLE1, 120, 3)
    draw_session(cfg)
    tracemalloc.start()
    try:
        draw_session(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
    streams = split_streams(cfg.seed, blocks + 1)[:-1]
    h = time_coefficients(sample_paths(channel, streams), channel)
    pairs = [two_way_sound(row, profile, rng)
             for row, rng in zip(h, streams)]
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


# the edges of the rate rule: non-finite, out of (0, 1), and m near 0 or N
EDGE_RATES = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 1.0, -0.5,
                     1.5, 1e-300, 0.99, 0.999, 1.0 - 1e-12]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.9, 1.0))


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([26, 52, 260]),
       family=st.sampled_from(["regular", "irregular"]), rate=EDGE_RATES,
       seed=st.integers(0, 2**32 - 1))
def test_plane_code_has_its_checks_or_raises_value_error(n, family, rate,
                                                         seed):
    try:
        code = make_plane_code(n, rate, family, seed)
    except ValueError:
        return
    assert (code.m, code.n) == (round(n * (1.0 - rate)), n)


def test_plane_code_built_once_while_held(monkeypatch):
    builds = []
    build = pipeline.construct_regular

    def counting(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(pipeline, "construct_regular", counting)
    code = make_plane_code(52, 0.5, "regular", (3, 1))
    assert make_plane_code(52, 0.5, "regular", (3, 1)) is code
    assert len(builds) == 1
    del code  # nothing holds it now, so the next call builds it again
    make_plane_code(52, 0.5, "regular", (3, 1))
    assert len(builds) == 2


@pytest.mark.parametrize("seed", [None, 1.0, np.random.default_rng(0)])
def test_plane_code_needs_int_or_tuple_seed(seed):
    with pytest.raises(TypeError, match="seed"):
        make_plane_code(52, 0.5, "regular", seed)


@pytest.mark.parametrize("family", ["regular", "irregular"])
def test_rate_one_code_rejected(family):
    # rate 1.0 leaves no parity checks (m = 0); the rate is checked first
    with pytest.raises(ValueError, match=r"rate=1\.0"):
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


# ---------------------------------------------------------------------------
# one draw per trial, measured at every (rate, SNR)


def _reference_sweep(template, rates, snr_grid, trials, family):
    """The sweep as rate, then SNR, then trial, each session drawn afresh."""
    n_data = 2 * template.blocks * template.channel.num_delay_bins
    rows = []
    for rate in rates:
        if rate < MIN_SWEEP_RATE:
            continue
        code = make_plane_code(n_data, rate, family,
                               derive_seed(template.seed, 0xC0DE))
        for snr_db in snr_grid:
            errors = bits = agreed = key_bits = 0
            for t in range(trials):
                res = run_session(replace(template, code=code, snr_f_db=snr_db,
                                          seed=derive_seed(template.seed, t)))
                errors += int(round(res.bit_error_rate * res.key_length))
                bits += res.key_length
                agreed += int(res.agreed)
                key_bits = res.key_length
            rows.append(SweepRow(rate=rate, snr_db=snr_db, sessions=trials,
                                 agreed=agreed, ber=errors / bits,
                                 key_bits_per_session=key_bits))
    return rows


# quantizer, decoding, family, extra SessionConfig settings
SWEEP_VARIANTS = {
    "soft": (Q2, "soft", "regular", {}),
    "hard": (Q2, "hard", "regular", {}),
    "irregular": (Q2, "soft", "irregular", {}),
    "quaternary": (Q4, "soft", "regular", {}),
    "drawn_rotation": (Q2, "soft", "irregular",
                       dict(phase_mode="constant_theta", theta_grid_size=4)),
}


@pytest.mark.parametrize("variant", SWEEP_VARIANTS)
def test_sweep_matches_fresh_session_per_point(variant):
    quantizer, mode, family, extra = SWEEP_VARIANTS[variant]
    template = _small_session(0.0, seed=(19, 4), quantizer=quantizer,
                              mode=mode, family=family, **extra)
    args = (template, [0.1, 0.5, 0.75], [8.0, 14.0, 25.0], 3, family)
    rows = sweep_rate_vs_snr(*args)
    assert len(rows) == 6
    assert rows == _reference_sweep(*args)


def test_sweep_keeps_duplicate_grid_entries():
    # tallies are kept per grid position: a repeated rate or SNR is a row of
    # its own, equal to its twin
    template = _small_session(0.0, seed=3)
    args = (template, [0.5, 0.1, 0.5], [10.0, 10.0, 25.0], 2, "regular")
    rows = sweep_rate_vs_snr(*args)
    assert [(r.rate, r.snr_db) for r in rows] == [
        (0.5, 10.0), (0.5, 10.0), (0.5, 25.0)] * 2
    assert rows == _reference_sweep(*args)
    assert rows[0] == rows[1] == rows[3] == rows[4]


def _count_split_streams(monkeypatch, tmp_path):
    """The sorted seeds of every ``split_streams`` call the pipeline makes,
    in this process or in a sweep's children: each call appends a line to a
    file."""
    log = tmp_path / "split_streams.log"
    log.touch()

    def counting(seed, n):
        with open(log, "a") as fh:
            fh.write(f"{seed!r}\n")
        return split_streams(seed, n)

    monkeypatch.setattr("chankey.pipeline.split_streams", counting)
    return lambda: sorted(log.read_text().splitlines())


def test_sweep_draws_each_trial_once(monkeypatch, tmp_path):
    calls = _count_split_streams(monkeypatch, tmp_path)
    template = _small_session(0.0, seed=5)
    sweep_rate_vs_snr(template, [0.5, 0.75], [10.0, 25.0], trials=3)
    assert calls() == sorted(repr(derive_seed(5, t)) for t in range(3))


def test_sweep_below_min_rate_makes_no_draw(monkeypatch, tmp_path):
    calls = _count_split_streams(monkeypatch, tmp_path)
    template = _small_session(0.0, seed=5)
    assert sweep_rate_vs_snr(template, [0.1, 0.2], [10.0, 25.0], trials=3) == []
    assert calls() == []


# ---------------------------------------------------------------------------
# trials split over forked children


def _force_cpus(monkeypatch, cpus):
    """Make the sweep see ``cpus`` usable CPUs; returns the list of pids
    it forks."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    forked = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.golden
@pytest.mark.parametrize("variant", SWEEP_VARIANTS)
def test_sweep_rows_same_for_any_worker_count(variant, monkeypatch):
    # 3 trials on 2 CPUs split unevenly; 2 trials on 3 CPUs take 2 workers
    quantizer, mode, family, extra = SWEEP_VARIANTS[variant]
    template = _small_session(0.0, seed=(23, 1), quantizer=quantizer,
                              mode=mode, family=family, **extra)
    for trials in (2, 3):
        rows = {}
        for cpus in (1, 2, 3):
            forked = _force_cpus(monkeypatch, cpus)
            rows[cpus] = sweep_rate_vs_snr(template, [0.5, 0.75],
                                           [8.0, 14.0, 25.0], trials, family)
            assert len(forked) == min(trials, cpus) - 1
        assert rows[1] == rows[2] == rows[3]
        assert len(rows[1]) == 6
    _assert_no_child_left()


def _fail_draws(monkeypatch, in_child, error):
    """Make ``draw_session`` raise ``error(pid)`` in a sweep's children,
    or in this process."""
    parent = os.getpid()
    draw = pipeline.draw_session

    def draw_or_fail(config):
        if (os.getpid() != parent) == in_child:
            raise error(os.getpid())
        return draw(config)

    monkeypatch.setattr(pipeline, "draw_session", draw_or_fail)


@pytest.mark.parametrize("failing", ["child", "parent"])
def test_sweep_error_reraises_and_reaps_every_child(monkeypatch, failing):
    forked = _force_cpus(monkeypatch, 3)
    _fail_draws(monkeypatch, failing == "child",
                lambda pid: ValueError(f"no draw in pid {pid}"))
    with pytest.raises(ValueError, match="no draw in pid") as info:
        sweep_rate_vs_snr(_small_session(0.0, seed=5), [0.5], [10.0, 25.0],
                          trials=4)
    assert len(forked) == 2
    raised_in = int(str(info.value).rsplit(" ", 1)[1])
    assert (raised_in in forked) == (failing == "child")
    if failing == "child":  # the child's own traceback rides along
        assert "draw_or_fail" in str(info.value.__cause__)
    _assert_no_child_left()


class _TwoArgumentError(Exception):
    # pickles, but unpickling calls it with its one message argument
    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


def test_sweep_child_error_that_cannot_unpickle_keeps_its_name(monkeypatch):
    _force_cpus(monkeypatch, 2)
    _fail_draws(monkeypatch, True,
                lambda pid: _TwoArgumentError("no draw", "child"))
    with pytest.raises(RuntimeError,
                       match="_TwoArgumentError.*no draw in child"):
        sweep_rate_vs_snr(_small_session(0.0, seed=5), [0.5], [10.0],
                          trials=2)
    _assert_no_child_left()


@pytest.mark.parametrize("cause", ["thread", "no_fork"])
def test_sweep_runs_serially_without_safe_fork(monkeypatch, cause):
    forked = _force_cpus(monkeypatch, 2)
    template = _small_session(0.0, seed=5)
    args = (template, [0.5], [10.0, 25.0], 3, "regular")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if cause == "thread":
        thread.start()
    else:
        monkeypatch.delattr(os, "fork")
    try:
        rows = sweep_rate_vs_snr(*args)
    finally:
        stop.set()
        if cause == "thread":
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forked == []
    assert rows == _reference_sweep(*args)


SMALL_CODE = make_plane_code(N_SMALL, 0.5, "regular", 7)


def _assert_same_result(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), snr_db=st.floats(-10.0, 40.0),
       phase_mode=st.sampled_from(PHASE_MODES))
def test_session_with_its_own_draw_matches(seed, snr_db, phase_mode):
    cfg = SessionConfig(channel=SMALL, snr_f_db=snr_db, blocks=16,
                        quantizer=Q2, code=SMALL_CODE, phase_mode=phase_mode,
                        theta_grid_size=4, seed=seed)
    _assert_same_result(run_session(cfg), run_session(cfg, draw_session(cfg)))


@pytest.mark.parametrize("change", ["seed", "blocks", "channel"])
def test_session_rejects_draw_of_other_settings(change):
    cfg = _small_session(10.0, seed=1)
    other = {
        "seed": replace(cfg, seed=2),
        "blocks": replace(cfg, blocks=8,
                          code=make_plane_code(N_SMALL // 2, 0.5, "regular", 7)),
        "channel": replace(cfg, channel=replace(SMALL, n_paths=41)),
    }[change]
    with pytest.raises(ValueError, match=change):
        run_session(cfg, draw_session(other))
