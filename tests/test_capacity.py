import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chankey import capacity
from chankey.capacity import (
    PHASE_SECTORS,
    CapacityReport,
    MiEstimate,
    csi_capacity,
    csi_capacity_ideal,
    gaussian_mi_estimate,
    magphase_decomposition,
    mi_estimate,
    mi_gaussian,
    phase_offset_loss,
    rssi_capacity_gaussian,
    rssi_capacity_numeric,
    simulate_rssi_pairs,
)
from chankey.channel import flat_profile
from chankey.rng import make_rng
from chankey.sounding import rotation_grid


def _gaussian_pair(rho, n, seed):
    rng = make_rng(seed)
    x = rng.standard_normal(n)
    y = rho * x + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
    return x, y


# ---------------------------------------------------------------------------
# closed forms


def test_mi_gaussian_independence():
    assert mi_gaussian(0.0) == 0.0


def test_mi_gaussian_value():
    # -0.5 * log2(1 - 0.81) = -0.5 * log2(0.19)
    assert mi_gaussian(0.9) == pytest.approx(1.1979643381655698, abs=1e-12)


def test_mi_gaussian_symmetry_and_domain():
    assert mi_gaussian(-0.7) == mi_gaussian(0.7)
    with pytest.raises(ValueError):
        mi_gaussian(1.0)
    with pytest.raises(ValueError):
        mi_gaussian(-1.2)


def test_mi_gaussian_histogram_cross_check():
    x, y = _gaussian_pair(0.9, 1_000_000, seed=33)
    est = mi_estimate(x, y)
    assert est.value == pytest.approx(mi_gaussian(0.9), rel=0.05)


def test_csi_capacity_zero_snr():
    prof = flat_profile(0.0, 13, 52)
    assert csi_capacity(prof, 52).capacity_per_dim == 0.0


def test_csi_capacity_flat_table1_value():
    prof = flat_profile(400.0, 13, 52)
    rep = csi_capacity(prof, 52)
    assert rep.capacity_per_dim == pytest.approx(0.9561573025626441, rel=1e-12)
    assert rep.bits_per_coherence == pytest.approx(99.44035946651499, rel=1e-12)
    assert 88 <= rep.bits_per_coherence <= 115
    # Monte-Carlo cross-check of the per-bin mutual information
    x, y = _gaussian_pair(400 / 401, 400_000, seed=44)
    per_bin = gaussian_mi_estimate(x, y)
    mc = 13 * 2 * per_bin.value / (2 * 52)
    assert mc == pytest.approx(rep.capacity_per_dim,
                               abs=3 * 13 * per_bin.std_error / 52)


def test_csi_capacity_ideal_matches_flat_profile():
    for snr in (0.0, 1.0, 42.0, 400.0):
        prof = flat_profile(snr, 13, 52)
        assert csi_capacity_ideal(snr, 13, 52).capacity_per_dim == pytest.approx(
            csi_capacity(prof, 52).capacity_per_dim, rel=1e-12)


def test_csi_capacity_ideal_linear_in_bins():
    c4 = csi_capacity_ideal(10.0, 4, 52).capacity_per_dim
    c8 = csi_capacity_ideal(10.0, 8, 52).capacity_per_dim
    assert c8 == pytest.approx(2 * c4, rel=1e-12)
    assert csi_capacity_ideal(0.0, 4, 52).capacity_per_dim == 0.0


def test_csi_capacity_monotone_in_snr():
    values = [csi_capacity(flat_profile(s, 13, 52), 52).capacity_per_dim
              for s in (0.0, 0.5, 1.0, 5.0, 50.0, 400.0)]
    assert np.all(np.diff(values) > 0)
    # also monotone in a single bin's SNR
    base = np.full(4, 3.0)
    caps = []
    for bump in (0.0, 1.0, 5.0):
        snr = base.copy()
        snr[2] += bump
        prof = flat_profile(1.0, 4, 8)
        prof = type(prof)(noise_var=1.0, per_bin_snr=snr, per_tone_snr=snr.sum() / 8)
        caps.append(csi_capacity(prof, 8).capacity_per_dim)
    assert np.all(np.diff(caps) > 0)


def test_rssi_capacity_gaussian():
    assert rssi_capacity_gaussian(0.0, 10).capacity_per_dim == 0.0
    rep = rssi_capacity_gaussian(0.9, 10)
    assert rep.capacity_per_dim == pytest.approx(0.038498474475566466, rel=1e-12)
    # no dependence on the bin count: the signature takes none
    assert rep == rssi_capacity_gaussian(0.9, 10)
    with pytest.raises(ValueError):
        rssi_capacity_gaussian(1.0, 10)


# ---------------------------------------------------------------------------
# histogram estimator


def test_mi_estimate_saturates_on_identical_inputs():
    x = make_rng(1).standard_normal(50_000)
    est = mi_estimate(x, x, bins=64)
    assert est.value >= math.log2(64) - 1


def test_mi_estimate_independent_near_zero():
    rng = make_rng(2)
    est = mi_estimate(rng.standard_normal(1_000_000),
                      rng.standard_normal(1_000_000), bins=64)
    assert abs(est.value) < 0.01


def test_mi_estimate_gaussian_within_5pct():
    x, y = _gaussian_pair(0.9, 1_000_000, seed=3)
    est = mi_estimate(x, y)
    assert est.value == pytest.approx(mi_gaussian(0.9), rel=0.05)


def test_mi_estimate_symmetric_and_clamped():
    x, y = _gaussian_pair(0.3, 20_000, seed=4)
    assert mi_estimate(x, y).value == mi_estimate(y, x).value
    rng = make_rng(5)
    est = mi_estimate(rng.standard_normal(2000), rng.standard_normal(2000))
    assert est.value >= 0.0


def test_mi_estimate_rejects_bad_input():
    with pytest.raises(ValueError):
        mi_estimate(np.zeros(2000), np.zeros(1999))
    with pytest.raises(ValueError):
        mi_estimate(np.zeros(100), np.zeros(100))


@pytest.mark.parametrize("bins", [0, -3, 2.5, True])
def test_mi_estimate_rejects_bad_bins(bins):
    rng = make_rng(4)
    x, y = rng.standard_normal(2000), rng.standard_normal(2000)
    with pytest.raises(ValueError, match="bins"):
        mi_estimate(x, y, bins)


def test_mi_estimate_accepts_numpy_and_single_bins():
    rng = make_rng(4)
    x = rng.standard_normal(2000)
    y = x + rng.standard_normal(2000)
    assert mi_estimate(x, y, np.int64(8)) == mi_estimate(x, y, 8)
    assert mi_estimate(x, y, 1).value == 0.0


@pytest.mark.parametrize("estimator", [mi_estimate, gaussian_mi_estimate])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mi_estimators_reject_non_finite_samples(estimator, bad):
    x, y = _gaussian_pair(0.5, 2000, seed=17)
    x[123] = bad
    with pytest.raises(ValueError, match="finite"):
        estimator(x, y)
    with pytest.raises(ValueError, match="finite"):
        estimator(y, x)


def test_gaussian_mi_estimate_rejects_zero_variance():
    x = make_rng(18).standard_normal(2000)
    with pytest.raises(ValueError, match="variance"):
        gaussian_mi_estimate(x, np.full(2000, 3.0))


def _reference_quantile_bins(x, bins):
    edges = np.quantile(x, np.linspace(0.0, 1.0, bins + 1)[1:-1])
    return np.searchsorted(edges, x, side="right")


@pytest.mark.golden
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1000, 3000),
       bins=st.integers(2, 200), decimals=st.sampled_from([None, 0, 1, 2]),
       run=st.floats(0.0, 0.6), signed_zeros=st.booleans())
def test_quantile_bins_match_searchsorted_of_quantiles(seed, n, bins, decimals,
                                                       run, signed_zeros):
    rng = make_rng(seed)
    x = rng.standard_normal(n)
    if decimals is not None:  # heavy ties
        x = np.round(x, decimals)
    start = int(rng.integers(0, n))
    x[start:start + int(run * n)] = x[start]  # a constant run
    if signed_zeros:
        x[rng.integers(0, n, size=n // 10)] = rng.choice([0.0, -0.0],
                                                          size=n // 10)
    got = capacity._quantile_bins(x, bins)
    assert got.dtype == np.intp
    assert np.array_equal(got, _reference_quantile_bins(x, bins))


def _reference_entropy_bits(counts, n):
    p = counts[counts > 0] / n
    return -math.fsum(p * np.log2(p))


def _reference_binned_mi_bits(ix, iy, kx, ky):
    n = ix.size
    joint = np.bincount(ix * ky + iy, minlength=kx * ky)
    px = joint.reshape(kx, ky).sum(axis=1)
    py = joint.reshape(kx, ky).sum(axis=0)
    plug = (_reference_entropy_bits(px, n) + _reference_entropy_bits(py, n)
            - _reference_entropy_bits(joint, n))
    occupied = int((joint > 0).sum()), int((px > 0).sum()), int((py > 0).sum())
    return plug + (occupied[1] - 1 + occupied[2] - 1 - (occupied[0] - 1)) / (
        2.0 * n * math.log(2.0))


def _reference_bootstrap_se(ix, iy, kx, ky):
    """Each replicate bins the concatenation of its picked sample blocks."""
    n = ix.size
    nblocks = min(capacity.BOOTSTRAP_BLOCKS, n)
    bounds = np.linspace(0, n, nblocks + 1).astype(int)
    slices = [slice(bounds[i], bounds[i + 1]) for i in range(nblocks)]
    rng = make_rng(0xB007)
    reps = np.empty(capacity.BOOTSTRAP_REPS)
    for r in range(capacity.BOOTSTRAP_REPS):
        pick = rng.integers(0, nblocks, size=nblocks)
        rix = np.concatenate([ix[slices[b]] for b in pick])
        riy = np.concatenate([iy[slices[b]] for b in pick])
        reps[r] = _reference_binned_mi_bits(rix, riy, kx, ky)
    return float(np.std(reps, ddof=1))


@pytest.mark.golden
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1000, 2501),
       shape=st.sampled_from([(8, 64), (64, 8), (16, 16), (3, 5)]),
       coupling=st.floats(0.0, 1.0))
def test_block_count_bootstrap_matches_concatenated_resamples(seed, n, shape,
                                                              coupling):
    kx, ky = shape
    rng = make_rng(seed)
    ix = rng.integers(0, kx, size=n)
    noisy = rng.random(n) >= coupling
    iy = np.where(noisy, rng.integers(0, ky, size=n), ix * ky // kx)
    est = capacity._mi_from_bins(ix, iy, kx, ky)
    assert est == MiEstimate(
        max(0.0, _reference_binned_mi_bits(ix, iy, kx, ky)),
        _reference_bootstrap_se(ix, iy, kx, ky))


def test_gaussian_mi_estimate_unbiased_at_high_rho():
    x, y = _gaussian_pair(100 / 101, 200_000, seed=6)
    est = gaussian_mi_estimate(x, y)
    assert abs(est.value - mi_gaussian(100 / 101)) < 3 * est.std_error


# ---------------------------------------------------------------------------
# RSSI


def test_rssi_numeric_independent_bins():
    prof = flat_profile(0.0, 10, 10)
    rep, est = rssi_capacity_numeric(prof, 10, 50_000, seed=7)
    assert rep.capacity_per_dim <= 3 * est.std_error / 20 + 1e-6


def test_rssi_numeric_close_to_gaussian_approx():
    rho = 0.9
    prof = flat_profile(rho / (1 - rho), 10, 10)
    rep, est = rssi_capacity_numeric(prof, 10, 1_000_000, seed=8)
    ref = rssi_capacity_gaussian(rho, 10).capacity_per_dim
    tol = max(3 * est.std_error / 20, 0.10 * ref)
    assert abs(rep.capacity_per_dim - ref) <= tol


def test_rssi_correlation_is_rho_squared():
    rho = 0.9
    prof = flat_profile(rho / (1 - rho), 10, 10)
    ra, rb = simulate_rssi_pairs(prof, 200_000, seed=9)
    blocks = np.array_split(np.arange(ra.size), 20)
    rs = [np.corrcoef(ra[idx], rb[idx])[0, 1] for idx in blocks]
    se = np.std(rs, ddof=1) / math.sqrt(len(rs))
    assert abs(np.corrcoef(ra, rb)[0, 1] - rho**2) < 3 * se


def _reference_chunks(per_bin_sigma2, noise_var, samples, rng, chunk):
    """Reference draw order of the Monte-Carlo estimators: per chunk the
    shared coefficients, then Alice's and Bob's noise, each as real then
    imaginary parts."""
    L = per_bin_sigma2.size
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        h = np.sqrt(per_bin_sigma2 / 2.0) * (
            rng.standard_normal((m, L)) + 1j * rng.standard_normal((m, L)))
        noise = [math.sqrt(noise_var / 2.0) * (
            rng.standard_normal((m, L)) + 1j * rng.standard_normal((m, L)))
            for _ in range(2)]
        yield h + noise[0], h + noise[1]
        done += m


@pytest.mark.golden
def test_chunked_draws_match_reference(monkeypatch):
    # small chunks, the last one partial, so chunk boundaries are crossed;
    # row pieces of 333 // L rows split every chunk unevenly at L = 1, 3, 4
    # and 10
    monkeypatch.setattr(capacity, "_CHUNK", 1000)
    monkeypatch.setattr("chankey.rng.CHUNK_BYTES", 16 * 333)
    for num_bins in (4, 10):
        prof = flat_profile(3.0, num_bins, 10)
        ra, rb = simulate_rssi_pairs(prof, 2501, seed=5)
        pairs = list(_reference_chunks(prof.per_bin_snr * prof.noise_var,
                                       prof.noise_var, 2501, make_rng(5),
                                       1000))
        assert np.array_equal(ra, np.concatenate(
            [(np.abs(oa) ** 2).sum(axis=1) for oa, _ in pairs]))
        assert np.array_equal(rb, np.concatenate(
            [(np.abs(ob) ** 2).sum(axis=1) for _, ob in pairs]))

    # phase_offset_loss draws each chunk's rotations after its observations
    rng = make_rng(6)
    thetas = rotation_grid(8)
    t_idx, psi = [], []
    for oa, ob in _reference_chunks(np.full(3, 2.0), 1.0, 2501, rng, 1000):
        t = rng.integers(0, 8, size=oa.shape[0])
        rotated = ob * np.exp(1j * thetas[t])[:, None]
        t_idx.append(t)
        psi.append(np.angle((oa.conj() * rotated).sum(axis=1)))
    reference = capacity._mi_from_bins(
        np.concatenate(t_idx),
        capacity._sector_bins(np.concatenate(psi), PHASE_SECTORS), 8,
        PHASE_SECTORS)
    assert phase_offset_loss(3, 2.0, 8, 2501, seed=6) == reference

    # magphase_decomposition keeps every chunk's one column: a reduce that
    # returned views of reused buffers would repeat the last chunk's rows
    pairs = list(_reference_chunks(np.array([10.0]), 1.0, 100_500,
                                   make_rng(7), 1000))
    a = np.concatenate([oa[:, 0] for oa, _ in pairs])
    b = np.concatenate([ob[:, 0] for _, ob in pairs])
    rep = magphase_decomposition(10.0, 100_500, seed=7)
    assert rep.i_re == gaussian_mi_estimate(a.real, b.real)
    assert rep.i_im == gaussian_mi_estimate(a.imag, b.imag)
    assert rep.i_mag == mi_estimate(np.abs(a), np.abs(b),
                                    capacity.auto_bins(100_500))
    assert rep.i_phase == capacity._mi_from_bins(
        capacity._sector_bins(np.angle(a), PHASE_SECTORS),
        capacity._sector_bins(np.angle(b), PHASE_SECTORS), PHASE_SECTORS,
        PHASE_SECTORS)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _chunk_buffer_bound(num_bins):
    """Both sides' reused chunk buffers of ``num_bins`` complex values per
    row, plus a few MiB for the per-chunk outputs and row pieces."""
    return 2 * capacity._CHUNK * num_bins * 16 + 5 * 2**20


def test_phase_offset_loss_bounded_memory():
    # one 100k-row chunk of L = 13 observations is 41.6 MB for both sides
    peak = _traced_peak(lambda: phase_offset_loss(13, 1.0, 8, 200_000,
                                                  seed=19))
    assert peak < _chunk_buffer_bound(13)


def test_simulate_rssi_pairs_bounded_memory():
    peak = _traced_peak(lambda: simulate_rssi_pairs(
        flat_profile(10.0, 10, 10), 200_000, seed=19))
    assert peak < _chunk_buffer_bound(10)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: phase_offset_loss(0, 1.0, 8, 20_000, seed=1),
                 "num_bins", id="phase-bins-0"),
    pytest.param(lambda: phase_offset_loss(-1, 1.0, 8, 20_000, seed=1),
                 "num_bins", id="phase-bins-negative"),
    pytest.param(lambda: phase_offset_loss(4, math.nan, 8, 20_000, seed=1),
                 "snr", id="phase-snr-nan"),
    pytest.param(lambda: phase_offset_loss(4, math.inf, 8, 20_000, seed=1),
                 "snr", id="phase-snr-inf"),
    pytest.param(lambda: phase_offset_loss(4, -1.0, 8, 20_000, seed=1),
                 "snr", id="phase-snr-negative"),
    pytest.param(lambda: rssi_capacity_numeric(flat_profile(1.0, 0, 10), 10,
                                               20_000, seed=1),
                 "L = 0", id="rssi-bins-0"),
    pytest.param(lambda: magphase_decomposition(math.nan, 100_000, seed=1),
                 "snr", id="magphase-snr-nan"),
    pytest.param(lambda: magphase_decomposition(math.inf, 100_000, seed=1),
                 "snr", id="magphase-snr-inf"),
])
def test_monte_carlo_rejects_bad_input_by_name(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_rssi_numeric_rejects_small_samples():
    with pytest.raises(ValueError):
        rssi_capacity_numeric(flat_profile(1.0, 2, 10), 10, 5000, seed=0)


# ---------------------------------------------------------------------------
# magnitude/phase decomposition and phase offset loss


def test_magphase_independent_case():
    rep = magphase_decomposition(0.0, 150_000, seed=10)
    assert rep.i_full == 0.0
    assert abs(rep.i_re_plus_im) <= 3 * rep.i_re_plus_im_se + 1e-9
    assert rep.i_mag_plus_phase <= 3 * rep.i_mag_plus_phase_se + 1e-3


@pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0])
def test_magphase_equality_branch(snr_db):
    snr = 10 ** (snr_db / 10)
    rep = magphase_decomposition(snr, 200_000, seed=11)
    assert abs(rep.i_re_plus_im - rep.i_full) <= 3 * rep.i_re_plus_im_se


@pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0])
def test_magphase_inequality_branch(snr_db):
    snr = 10 ** (snr_db / 10)
    rep = magphase_decomposition(snr, 200_000, seed=12)
    assert rep.i_mag_plus_phase <= rep.i_full + 3 * rep.i_mag_plus_phase_se
    if snr_db == 10.0:
        gap = rep.i_full - rep.i_mag_plus_phase
        assert gap > 3 * rep.i_mag_plus_phase_se
    assert rep.i_phase.value > rep.i_mag.value


def test_phase_offset_loss_degenerate_grid():
    est = phase_offset_loss(4, 10.0, grid_size=1, samples=20_000, seed=13)
    assert est.value == 0.0


def test_phase_offset_loss_zero_snr():
    est = phase_offset_loss(4, 0.0, grid_size=8, samples=100_000, seed=14)
    assert est.value <= 3 * est.std_error + 1e-3


def test_phase_offset_loss_scales_slower_than_csi_gain():
    snr = 10.0
    loss4 = phase_offset_loss(4, snr, grid_size=16, samples=200_000, seed=15)
    loss8 = phase_offset_loss(8, snr, grid_size=16, samples=200_000, seed=16)
    rho = snr / (1 + snr)
    csi_gain = 8 * mi_gaussian(rho)  # unnormalized bits gained by doubling L
    assert loss8.value - loss4.value < csi_gain


def test_capacity_report_units():
    rep = CapacityReport(0.5, 52)
    assert rep.bits_per_coherence == 52.0
    assert rep.bits_per_second is None
    timed = rep.with_coherence(0.1)
    assert timed.bits_per_second == pytest.approx(520.0)


def test_mi_estimate_dataclass_validation():
    with pytest.raises(ValueError):
        MiEstimate(1.0, -0.1)
