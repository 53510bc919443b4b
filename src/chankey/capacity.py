"""Secret key capacity: closed forms and Monte-Carlo estimators.

Closed forms cover the jointly Gaussian cases (full coefficient knowledge,
and the large-L Gaussian approximation of signal-strength-only knowledge).
Everything without a closed form -- signal-strength MI at small L, the
magnitude/phase decomposition, the phase-offset information loss -- is
estimated from simulation with a histogram mutual-information estimator
(equiprobable bins, Miller-Madow bias correction, block-bootstrap standard
errors).

Capacities are reported in bits per real dimension of the stacked
observation vector (the 1/(2M) normalization), with bits-per-coherence and
bits-per-second as derived fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import SnrProfile
from .rng import make_rng
from .sounding import rotation_grid

_LN2 = math.log(2.0)

# Histogram MI defaults: 64 equiprobable bins per axis, 20 bootstrap blocks.
DEFAULT_BINS = 64
BOOTSTRAP_BLOCKS = 20
BOOTSTRAP_REPS = 32
PHASE_SECTORS = 64


def auto_bins(samples: int) -> int:
    """Bin count balancing quantization loss against finite-sample noise.

    Calibrated on bivariate Gaussians: residual bias stays below one
    bootstrap standard error from 1e5 to 1e6 samples.
    """
    return int(np.clip(math.isqrt(samples) // 5, DEFAULT_BINS, 192))


@dataclass(frozen=True)
class CapacityReport:
    """Capacity per real dimension plus per-coherence / per-second views."""

    capacity_per_dim: float
    m_tones: int
    model_tag: str
    coherence_time_s: float | None = None

    @property
    def bits_per_coherence(self) -> float:
        return 2.0 * self.m_tones * self.capacity_per_dim

    @property
    def bits_per_second(self) -> float | None:
        if self.coherence_time_s is None:
            return None
        return self.bits_per_coherence / self.coherence_time_s

    def with_coherence(self, coherence_time_s: float) -> "CapacityReport":
        return replace(self, coherence_time_s=coherence_time_s)


@dataclass(frozen=True)
class MiEstimate:
    """A mutual-information value with its provenance."""

    value: float
    std_error: float
    estimator: str
    sample_count: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def mi_gaussian(rho: float) -> float:
    """Mutual information (bits) of a unit bivariate Gaussian pair."""
    if abs(rho) >= 1.0:
        raise ValueError("|rho| must be < 1")
    return -0.5 * math.log2(1.0 - rho * rho)


def csi_capacity(profile: SnrProfile, m_tones: int) -> CapacityReport:
    """Capacity from full coefficient knowledge, per-bin SNRs from profile."""
    rho = profile.rho_time
    c = -np.log2(1.0 - rho * rho).sum() / (2.0 * m_tones)
    return CapacityReport(float(c), m_tones, "csi")


def csi_capacity_ideal(snr_tau: float, num_bins: int, m_tones: int) -> CapacityReport:
    """Equal-variance specialization: all L bins share one SNR."""
    if snr_tau < 0:
        raise ValueError("snr_tau must be nonnegative")
    if not 1 <= num_bins <= m_tones:
        raise ValueError("need 1 <= L <= M")
    rho = snr_tau / (1.0 + snr_tau)
    c = -num_bins * math.log2(1.0 - rho * rho) / (2.0 * m_tones)
    return CapacityReport(c, m_tones, "csi_ideal")


def rho_time_from_freq(rho_f: float, m_tones: int, num_bins: int) -> float:
    """Per-bin correlation implied by a per-tone correlation."""
    if not 1 <= num_bins <= m_tones:
        raise ValueError("need 1 <= L <= M")
    return m_tones * rho_f / (num_bins + (m_tones - num_bins) * rho_f)


def rssi_capacity_gaussian(rho_tau: float, m_tones: int) -> CapacityReport:
    """Signal-strength-only capacity under the large-L Gaussian approximation.

    The two strength readings correlate as rho_tau**2, giving
    C = (1/4M) log2(1 / (1 - rho_tau**4)); note no dependence on L.
    """
    if not 0.0 <= rho_tau < 1.0:
        raise ValueError("rho_tau must lie in [0, 1)")
    c = math.log2(1.0 / (1.0 - rho_tau**4)) / (4.0 * m_tones)
    return CapacityReport(c, m_tones, "rssi_gaussian")


# ---------------------------------------------------------------------------
# Histogram mutual information


def _entropy_bits(counts: np.ndarray, n: int) -> float:
    counts = counts[counts > 0]
    p = counts / n
    # fsum makes the result independent of summation order, so the estimator
    # is exactly symmetric in its arguments.
    return -math.fsum(p * np.log2(p))


def _binned_mi_bits(ix: np.ndarray, iy: np.ndarray, kx: int, ky: int) -> float:
    """Plug-in MI with Miller-Madow correction from bin assignments."""
    n = ix.size
    joint = np.bincount(ix * ky + iy, minlength=kx * ky)
    px = joint.reshape(kx, ky).sum(axis=1)
    py = joint.reshape(kx, ky).sum(axis=0)
    plug = _entropy_bits(px, n) + _entropy_bits(py, n) - _entropy_bits(joint, n)
    occupied = int((joint > 0).sum()), int((px > 0).sum()), int((py > 0).sum())
    correction = (occupied[1] - 1 + occupied[2] - 1 - (occupied[0] - 1)) / (
        2.0 * n * _LN2
    )
    return plug + correction


def _bootstrap_se(ix: np.ndarray, iy: np.ndarray, kx: int, ky: int) -> float:
    """Block-bootstrap standard error of the binned MI."""
    n = ix.size
    nblocks = min(BOOTSTRAP_BLOCKS, n)
    bounds = np.linspace(0, n, nblocks + 1).astype(int)
    slices = [slice(bounds[i], bounds[i + 1]) for i in range(nblocks)]
    rng = make_rng(0xB007)
    reps = np.empty(BOOTSTRAP_REPS)
    for r in range(BOOTSTRAP_REPS):
        pick = rng.integers(0, nblocks, size=nblocks)
        rix = np.concatenate([ix[slices[b]] for b in pick])
        riy = np.concatenate([iy[slices[b]] for b in pick])
        reps[r] = _binned_mi_bits(rix, riy, kx, ky)
    return float(np.std(reps, ddof=1))


def _quantile_bins(x: np.ndarray, bins: int) -> np.ndarray:
    """Assign each sample to one of ``bins`` equiprobable cells."""
    edges = np.quantile(x, np.linspace(0.0, 1.0, bins + 1)[1:-1])
    return np.searchsorted(edges, x, side="right")


def _sector_bins(angles: np.ndarray, sectors: int) -> np.ndarray:
    """Circular binning of angles into equal sectors of [-pi, pi)."""
    idx = np.floor((angles + np.pi) / (2.0 * np.pi) * sectors).astype(int)
    return np.clip(idx, 0, sectors - 1)


def mi_estimate(xs: np.ndarray, ys: np.ndarray, bins: int = DEFAULT_BINS) -> MiEstimate:
    """Histogram MI between two continuous sample vectors, in bits.

    Equiprobable (quantile) bins per axis, Miller-Madow correction, clamped
    at zero; standard error from a 20-block bootstrap.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("need two equal-length 1-D sample vectors")
    if xs.size < 1000:
        raise ValueError("need at least 1000 samples")
    ix = _quantile_bins(xs, bins)
    iy = _quantile_bins(ys, bins)
    value = max(0.0, _binned_mi_bits(ix, iy, bins, bins))
    se = _bootstrap_se(ix, iy, bins, bins)
    return MiEstimate(value, se, "histogram", xs.size)


def _mi_from_bins(ix, iy, kx, ky, estimator: str) -> MiEstimate:
    value = max(0.0, _binned_mi_bits(ix, iy, kx, ky))
    se = _bootstrap_se(ix, iy, kx, ky)
    return MiEstimate(value, se, estimator, ix.size)


def gaussian_mi_estimate(xs: np.ndarray, ys: np.ndarray) -> MiEstimate:
    """Parametric MI for a pair known to be bivariate Gaussian.

    Plugs the sample correlation into the closed form; the standard error
    follows from the delta method.  Unbiased at any correlation, unlike the
    histogram estimator whose quantization loss grows as |rho| -> 1.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("need two equal-length 1-D sample vectors")
    if xs.size < 1000:
        raise ValueError("need at least 1000 samples")
    r = float(np.corrcoef(xs, ys)[0, 1])
    r = max(-1.0 + 1e-12, min(1.0 - 1e-12, r))
    se_r = (1.0 - r * r) / math.sqrt(xs.size)
    dmi_dr = abs(r) / ((1.0 - r * r) * _LN2)
    return MiEstimate(mi_gaussian(r), dmi_dr * se_r, "gaussian_closed_form",
                      xs.size)


# ---------------------------------------------------------------------------
# Monte-Carlo models

_CHUNK = 100_000


def _simulate_pair_obs(per_bin_sigma2: np.ndarray, noise_var: float,
                       samples: int, rng):
    """Yield chunks of (obs_a, obs_b) matrices, one row per realization."""
    L = per_bin_sigma2.size
    scale_h = np.sqrt(per_bin_sigma2 / 2.0)
    scale_n = math.sqrt(noise_var / 2.0)
    done = 0
    while done < samples:
        m = min(_CHUNK, samples - done)
        h = scale_h * (rng.standard_normal((m, L)) + 1j * rng.standard_normal((m, L)))
        na = scale_n * (rng.standard_normal((m, L)) + 1j * rng.standard_normal((m, L)))
        nb = scale_n * (rng.standard_normal((m, L)) + 1j * rng.standard_normal((m, L)))
        yield h + na, h + nb
        done += m


def simulate_rssi_pairs(profile: SnrProfile, samples: int, seed=None):
    """Monte-Carlo draw of both parties' received-strength readings."""
    rng = make_rng(seed)
    sigma2 = profile.per_bin_snr * profile.noise_var
    ra = np.empty(samples)
    rb = np.empty(samples)
    done = 0
    for oa, ob in _simulate_pair_obs(sigma2, profile.noise_var, samples, rng):
        m = oa.shape[0]
        ra[done:done + m] = np.abs(oa).__pow__(2).sum(axis=1)
        rb[done:done + m] = np.abs(ob).__pow__(2).sum(axis=1)
        done += m
    return ra, rb


def rssi_capacity_numeric(profile: SnrProfile, m_tones: int, samples: int,
                          seed=None):
    """Simulated signal-strength capacity: (CapacityReport, MiEstimate)."""
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    ra, rb = simulate_rssi_pairs(profile, samples, seed)
    est = mi_estimate(ra, rb)
    report = CapacityReport(est.value / (2.0 * m_tones), m_tones, "rssi_numeric")
    return report, est


@dataclass(frozen=True)
class MagPhaseReport:
    """Information split of one coefficient pair across representations."""

    snr: float
    rho: float
    i_full: float
    i_re: MiEstimate
    i_im: MiEstimate
    i_mag: MiEstimate
    i_phase: MiEstimate

    @property
    def i_re_plus_im(self) -> float:
        return self.i_re.value + self.i_im.value

    @property
    def i_re_plus_im_se(self) -> float:
        return math.hypot(self.i_re.std_error, self.i_im.std_error)

    @property
    def i_mag_plus_phase(self) -> float:
        return self.i_mag.value + self.i_phase.value

    @property
    def i_mag_plus_phase_se(self) -> float:
        return math.hypot(self.i_mag.std_error, self.i_phase.std_error)


def magphase_decomposition(snr: float, samples: int, seed=None,
                           bins: int | None = None) -> MagPhaseReport:
    """Compare real/imaginary and magnitude/phase information splits.

    Simulates one coefficient observed by both parties at the given SNR
    (shared part variance ``snr``, unit noise variance per side, so the
    per-dimension correlation is snr/(1+snr)).  The real/imaginary MIs use
    the parametric Gaussian estimator (those pairs are exactly Gaussian, and
    histogram quantization loss would mask the equality at high SNR); the
    magnitude/phase MIs have no parametric form and use the histogram
    estimator, with ``bins=None`` picking a count matched to the sample
    size.
    """
    if samples < 100_000:
        raise ValueError("need at least 1e5 samples")
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    if bins is None:
        bins = auto_bins(samples)
    rng = make_rng(seed)
    rho = snr / (1.0 + snr)
    a = np.empty(samples, dtype=complex)
    b = np.empty(samples, dtype=complex)
    done = 0
    for oa, ob in _simulate_pair_obs(np.array([snr]), 1.0, samples, rng):
        m = oa.shape[0]
        a[done:done + m] = oa[:, 0]
        b[done:done + m] = ob[:, 0]
        done += m
    i_re = gaussian_mi_estimate(a.real, b.real)
    i_im = gaussian_mi_estimate(a.imag, b.imag)
    i_mag = mi_estimate(np.abs(a), np.abs(b), bins)
    i_phase = _mi_from_bins(
        _sector_bins(np.angle(a), PHASE_SECTORS),
        _sector_bins(np.angle(b), PHASE_SECTORS),
        PHASE_SECTORS, PHASE_SECTORS, "histogram",
    )
    return MagPhaseReport(
        snr=snr,
        rho=rho,
        i_full=2.0 * mi_gaussian(rho),
        i_re=i_re,
        i_im=i_im,
        i_mag=i_mag,
        i_phase=i_phase,
    )


def phase_offset_loss(num_bins: int, snr: float, grid_size: int, samples: int,
                      seed=None) -> MiEstimate:
    """Information the combined observations reveal about the rotation.

    The rotation hypothesis is uniform over ``grid_size`` equispaced angles.
    The estimator reduces each observation pair to the angle of the aligned
    inner product sum_l conj(a_l) * b_l and measures its MI with the drawn
    grid index (circular histogram on the angle side).
    """
    if grid_size < 1:
        raise ValueError("grid must be nonempty")
    rng = make_rng(seed)
    thetas = rotation_grid(grid_size)
    t_idx = np.empty(samples, dtype=int)
    psi = np.empty(samples)
    sigma2 = np.full(num_bins, snr)
    done = 0
    for oa, ob in _simulate_pair_obs(sigma2, 1.0, samples, rng):
        m = oa.shape[0]
        t = rng.integers(0, grid_size, size=m)
        rotated = ob * np.exp(1j * thetas[t])[:, None]
        t_idx[done:done + m] = t
        psi[done:done + m] = np.angle((oa.conj() * rotated).sum(axis=1))
        done += m
    return _mi_from_bins(
        t_idx, _sector_bins(psi, PHASE_SECTORS), grid_size, PHASE_SECTORS,
        "histogram",
    )
