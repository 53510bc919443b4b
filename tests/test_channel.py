import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chankey.channel import (
    ChannelConfig,
    PathSet,
    SnrProfile,
    bin_power_fractions,
    build_snr_profile,
    flat_profile,
    freq_coefficients,
    load_config,
    sample_paths,
    time_coefficients,
)
from chankey.rng import make_rng, split_streams

TABLE1 = dict(m_tones=52, bandwidth_hz=16.25e6, duration_s=3.2e-6,
              n_paths=300, tau_max_s=800e-9)

# Small config used for the Monte-Carlo statistics so 1e5 realizations stay
# cheap; the claims under test are parameter-free.
SMALL = ChannelConfig(m_tones=8, bandwidth_hz=2.5e6, duration_s=3.2e-6,
                      n_paths=12, tau_max_s=1.6e-6, profile="flat")


@pytest.fixture(scope="module")
def small_mc():
    """1e5 realizations of the small flat config: (time LxR, freq MxR)."""
    R = 100_000
    M = SMALL.m_tones
    paths = sample_paths(SMALL, split_streams(101, R))
    times = time_coefficients(paths, SMALL)
    freqs = np.empty((R, M), dtype=complex)
    for i, row in enumerate(zip(paths.delays, paths.gains)):
        freqs[i] = freq_coefficients(PathSet(*row), SMALL)
    return times, freqs


def test_config_invariants():
    cfg = ChannelConfig(**TABLE1)
    assert cfg.num_delay_bins == 13
    assert cfg.decay_s == pytest.approx(800e-9 / 3)
    with pytest.raises(ValueError):
        ChannelConfig(**{**TABLE1, "m_tones": 64})
    with pytest.raises(ValueError):
        ChannelConfig(**{**TABLE1, "n_paths": 0})
    with pytest.raises(ValueError):
        ChannelConfig(**{**TABLE1, "tau_max_s": 4e-6})  # > duration


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["bandwidth_hz", "duration_s", "tau_max_s",
                                   "pdp_decay_s"])
def test_config_rejects_non_finite_floats(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ChannelConfig(**{**TABLE1, field: value})


def test_sample_paths_degenerate_single_path():
    cfg = ChannelConfig(m_tones=4, bandwidth_hz=1e6, duration_s=4e-6,
                        n_paths=1, tau_max_s=0.0)
    paths = sample_paths(cfg, [make_rng(0)])
    assert paths.delays.shape == (1, 1)
    assert paths.delays[0, 0] == 0.0
    # the whole unit budget sits on the single path: E|beta|^2 = 1 exactly
    gains = sample_paths(cfg, [make_rng(s) for s in range(4000)]).gains
    many = np.abs(gains[:, 0]) ** 2
    assert np.mean(many) == pytest.approx(1.0, abs=3 * np.std(many) / math.sqrt(4000))


def test_sample_paths_occupies_13_bins_at_table1():
    cfg = ChannelConfig(**TABLE1)
    h = time_coefficients(sample_paths(cfg, [make_rng(7)]), cfg)[0]
    assert h.size == 13
    assert np.all(h != 0)  # 300 paths over 13 bins: all occupied


def test_sample_paths_flat_power_normalization():
    cfg = ChannelConfig(**{**TABLE1, "profile": "flat", "n_paths": 50})
    gains = sample_paths(cfg, [make_rng(s) for s in range(10_000)]).gains
    totals = np.sum(np.abs(gains) ** 2, axis=1)
    se = np.std(totals) / math.sqrt(len(totals))
    assert np.mean(totals) == pytest.approx(1.0, abs=3 * se)


def test_sample_paths_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ChannelConfig(**{**TABLE1, "n_paths": 0})
    with pytest.raises(ValueError):
        ChannelConfig(**{**TABLE1, "tau_max_s": -1e-9})


def _reference_paths(config, rng):
    """Single-realization draw as two separate gain-normal calls."""
    delays = rng.uniform(0.0, config.tau_max_s, size=config.n_paths)
    if config.profile == "exponential" and config.tau_max_s > 0:
        weights = np.exp(-delays / config.decay_s)
    else:
        weights = np.ones(config.n_paths)
    variances = weights / weights.sum()
    scale = np.sqrt(variances / 2.0)
    gains = scale * (rng.standard_normal(config.n_paths)
                     + 1j * rng.standard_normal(config.n_paths))
    return delays, gains


@st.composite
def channel_configs(draw):
    m = draw(st.integers(1, 16))
    w = 2.5e6
    duration = m / w
    tau_max = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])) * duration
    return ChannelConfig(m_tones=m, bandwidth_hz=w, duration_s=duration,
                         n_paths=draw(st.integers(1, 40)), tau_max_s=tau_max,
                         profile=draw(st.sampled_from(["exponential", "flat"])))


@settings(max_examples=60, deadline=None)
@given(cfg=channel_configs(), blocks=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_batched_paths_match_per_block_draws(cfg, blocks, seed):
    batch = sample_paths(cfg, split_streams(seed, blocks))
    assert batch.delays.shape == batch.gains.shape == (blocks, cfg.n_paths)
    h_batch = time_coefficients(batch, cfg)
    assert h_batch.shape == (blocks, cfg.num_delay_bins)
    for i, rng in enumerate(split_streams(seed, blocks)):
        delays, gains = _reference_paths(cfg, rng)
        assert np.array_equal(batch.delays[i], delays)
        assert np.array_equal(batch.gains[i], gains)
        h = time_coefficients(PathSet(delays=delays, gains=gains), cfg)
        assert np.array_equal(h_batch[i], h)


def test_freq_coefficients_zero_delay_path():
    cfg = ChannelConfig(m_tones=8, bandwidth_hz=2.5e6, duration_s=3.2e-6,
                        n_paths=1, tau_max_s=0.0)
    paths = PathSet(delays=np.array([0.0]), gains=np.array([1.0 + 0j]))
    np.testing.assert_allclose(freq_coefficients(paths, cfg), np.ones(8))


def test_freq_coefficients_single_bin_delay():
    cfg = ChannelConfig(m_tones=8, bandwidth_hz=2.5e6, duration_s=3.2e-6,
                        n_paths=1, tau_max_s=1.6e-6)
    tau = cfg.duration_s / cfg.m_tones
    paths = PathSet(delays=np.array([tau]), gains=np.array([1.0 + 0j]))
    expected = np.exp(-2j * np.pi * np.arange(8) / 8)
    np.testing.assert_allclose(freq_coefficients(paths, cfg), expected,
                               atol=1e-12)


def test_freq_variance_flat_across_tones(small_mc):
    _, freqs = small_mc
    var = np.mean(np.abs(freqs) ** 2, axis=0)
    # |H_n|^2 is exponential with mean 1: se of the mean = 1/sqrt(R)
    se = 1.0 / math.sqrt(freqs.shape[0])
    assert np.all(np.abs(var - 1.0) < 3.5 * se)


def test_time_coefficients_bin_placement():
    cfg = ChannelConfig(m_tones=8, bandwidth_hz=2.5e6, duration_s=3.2e-6,
                        n_paths=2, tau_max_s=1.6e-6)
    w = cfg.bandwidth_hz
    paths = PathSet(delays=np.array([2.0 / w]), gains=np.array([0.5 + 0.5j]))
    h = time_coefficients(paths, cfg)
    expected = np.zeros(cfg.num_delay_bins, dtype=complex)
    expected[2] = math.sqrt(8) * (0.5 + 0.5j)
    np.testing.assert_allclose(h, expected)


def test_time_coefficients_additive_within_bin():
    cfg = ChannelConfig(m_tones=8, bandwidth_hz=2.5e6, duration_s=3.2e-6,
                        n_paths=2, tau_max_s=1.6e-6)
    w = cfg.bandwidth_hz
    paths = PathSet(delays=np.array([1.0 / w, 1.2 / w]),
                    gains=np.array([1.0 + 0j, 0.0 + 2j]))
    h = time_coefficients(paths, cfg)
    assert h[1] == pytest.approx(math.sqrt(8) * (1.0 + 2j))
    assert np.count_nonzero(h) == 1


def test_time_coefficients_nearly_uncorrelated(small_mc):
    times, _ = small_mc
    L = times.shape[1]
    parts = np.concatenate([times.real, times.imag], axis=1)
    corr = np.corrcoef(parts, rowvar=False)
    off = corr - np.diag(np.diag(corr))
    # cross-bin correlations and per-bin Re/Im correlations all near zero
    assert np.max(np.abs(off)) < 0.05


def test_transform_consistency_at_bin_centers():
    cfg = ChannelConfig(m_tones=16, bandwidth_hz=5e6, duration_s=3.2e-6,
                        n_paths=6, tau_max_s=1.2e-6)
    rng = make_rng(3)
    L = cfg.num_delay_bins
    delays = rng.integers(0, L, size=cfg.n_paths) / cfg.bandwidth_hz
    gains = rng.standard_normal(cfg.n_paths) + 1j * rng.standard_normal(cfg.n_paths)
    paths = PathSet(delays=delays, gains=gains)
    direct = freq_coefficients(paths, cfg)
    via_time = np.fft.fft(time_coefficients(paths, cfg), n=cfg.m_tones) \
        / math.sqrt(cfg.m_tones)
    np.testing.assert_allclose(via_time, direct, rtol=1e-9, atol=1e-12)


def test_build_snr_profile_flat_table1():
    cfg = ChannelConfig(**{**TABLE1, "profile": "flat"})
    prof = build_snr_profile(cfg, 20.0)
    np.testing.assert_allclose(prof.per_bin_snr, 400.0, rtol=1e-12)
    np.testing.assert_allclose(prof.rho_time, 400.0 / 401.0, rtol=1e-12)
    assert prof.per_tone_snr == pytest.approx(100.0)


def test_build_snr_profile_zero_snr():
    cfg = ChannelConfig(**TABLE1)
    prof = build_snr_profile(cfg, -math.inf)
    assert np.all(prof.per_bin_snr == 0)
    assert np.all(prof.rho_time == 0)
    assert prof.per_tone_snr == 0


def test_build_snr_profile_unit_snr_rho_half():
    cfg = ChannelConfig(**TABLE1)
    prof = build_snr_profile(cfg, 0.0)
    # per-tone SNR 1, so the per-tone correlation s / (1 + s) is 1/2
    assert prof.per_tone_snr == pytest.approx(1.0)


@pytest.mark.parametrize("make, name", [
    (lambda: SnrProfile(1.0, np.array([1.0, math.nan]), 0.2), "per_bin_snr"),
    (lambda: SnrProfile(1.0, np.array([1.0, 2.0]), math.nan), "per_tone_snr"),
    # a NaN profile used to reach the Monte-Carlo draws, which then failed
    # with "samples must be finite"
    (lambda: flat_profile(math.nan, 2, 10), "per_bin_snr"),
], ids=["per_bin", "per_tone", "flat_profile"])
def test_snr_profile_rejects_nan_by_name(make, name):
    with pytest.raises(ValueError, match=f"{name} must not be NaN"):
        make()


@pytest.mark.parametrize("profile", ["flat", "exponential"])
@pytest.mark.parametrize("snr_db", [-5.0, 0.0, 12.5, 20.0])
def test_snr_sum_relation(profile, snr_db):
    cfg = ChannelConfig(**{**TABLE1, "profile": profile})
    prof = build_snr_profile(cfg, snr_db)
    total = prof.per_bin_snr.sum()
    assert total == pytest.approx(cfg.m_tones * prof.per_tone_snr, rel=1e-9)


def test_bin_power_fractions_sum_to_one():
    cfg = ChannelConfig(**TABLE1)
    frac = bin_power_fractions(cfg)
    assert frac.sum() == pytest.approx(1.0, rel=1e-12)
    # interior bins decay; first (half-width) and last (extended) are special
    assert np.all(np.diff(frac[1:-1]) < 0)


def test_exponential_bins_match_sampled_power():
    # the profile's per-bin variances should predict the realized ones
    cfg = ChannelConfig(**TABLE1)
    prof = build_snr_profile(cfg, 20.0)
    R = 20_000
    streams = split_streams(55, R)
    acc = np.zeros(cfg.num_delay_bins)
    for lo in range(0, R, 2000):  # the whole list at once would take ~300 MB
        h = time_coefficients(sample_paths(cfg, streams[lo:lo + 2000]), cfg)
        acc += (np.abs(h) ** 2).sum(axis=0)
    emp = acc / R
    predicted = prof.per_bin_snr * prof.noise_var
    np.testing.assert_allclose(emp, predicted, rtol=0.1)


def test_flat_profile_helper():
    prof = flat_profile(400.0, 13, 52)
    assert prof.per_tone_snr == pytest.approx(100.0)
    np.testing.assert_allclose(prof.rho_time, 400 / 401)


def test_determinism_same_seed():
    cfg = ChannelConfig(**TABLE1)
    a = sample_paths(cfg, [make_rng(17)])
    b = sample_paths(cfg, [make_rng(17)])
    np.testing.assert_array_equal(a.delays, b.delays)
    np.testing.assert_array_equal(a.gains, b.gains)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "link.cfg"
    path.write_text(
        "# example link\n"
        "m_tones = 52\nbandwidth_hz = 16.25e6\nduration_s = 3.2e-6\n"
        "n_paths = 300\ntau_max_s = 800e-9\nprofile = exponential\n"
        "sigma_h2 = 1.0\nextra_key = ignored\n"
    )
    cfg = load_config(path)
    assert cfg == ChannelConfig(**TABLE1)


def test_load_config_ignores_sigma_h2(tmp_path):
    # path power is normalized to 1, so a gain variance is an unknown key
    path = tmp_path / "link.cfg"
    values = {**TABLE1, "sigma_h2": "nan"}
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert load_config(path) == ChannelConfig(**TABLE1)


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "2.7", "1e400", "five"])
@pytest.mark.parametrize("key", ["m_tones", "n_paths"])
def test_load_config_rejects_non_integral_counts(tmp_path, key, text):
    path = tmp_path / "bad.cfg"
    values = {**TABLE1, key: text}
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    with pytest.raises(ValueError, match=f"^{key} must be an integer"):
        load_config(path)


def test_load_config_accepts_integral_float_notation(tmp_path):
    path = tmp_path / "link.cfg"
    values = {**TABLE1, "m_tones": "5.2e1", "n_paths": "300.0"}
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert load_config(path) == ChannelConfig(**TABLE1)


def test_load_config_missing_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("m_tones = 52\n")
    with pytest.raises(ValueError, match="missing keys"):
        load_config(path)
