"""Secret key capacity: closed forms and Monte-Carlo estimators.

Closed forms cover the jointly Gaussian cases (full coefficient knowledge,
and the large-L Gaussian approximation of signal-strength-only knowledge).
Everything without a closed form -- signal-strength MI at small L, the
magnitude/phase decomposition, the phase-offset information loss -- is
estimated from simulation with a histogram mutual-information estimator
(equiprobable bins, Miller-Madow bias correction, block-bootstrap standard
errors).  The bootstrap counts the joint bins of each contiguous sample
block once; a replicate resamples whole blocks and sums their per-block
joint counts, which equals binning the concatenated blocks.

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
    return CapacityReport(float(c), m_tones)


def csi_capacity_ideal(snr_tau: float, num_bins: int, m_tones: int) -> CapacityReport:
    """Equal-variance specialization: all L bins share one SNR."""
    if snr_tau < 0:
        raise ValueError("snr_tau must be nonnegative")
    if not 1 <= num_bins <= m_tones:
        raise ValueError("need 1 <= L <= M")
    rho = snr_tau / (1.0 + snr_tau)
    c = -num_bins * math.log2(1.0 - rho * rho) / (2.0 * m_tones)
    return CapacityReport(c, m_tones)


def rssi_capacity_gaussian(rho_tau: float, m_tones: int) -> CapacityReport:
    """Signal-strength-only capacity under the large-L Gaussian approximation.

    The two strength readings correlate as rho_tau**2, giving
    C = (1/4M) log2(1 / (1 - rho_tau**4)); note no dependence on L.
    """
    if not 0.0 <= rho_tau < 1.0:
        raise ValueError("rho_tau must lie in [0, 1)")
    c = math.log2(1.0 / (1.0 - rho_tau**4)) / (4.0 * m_tones)
    return CapacityReport(c, m_tones)


# ---------------------------------------------------------------------------
# Histogram mutual information


def _entropy_bits(counts: np.ndarray, n: int) -> float:
    counts = counts[counts > 0]
    p = counts / n
    # fsum makes the result independent of summation order, so the estimator
    # is exactly symmetric in its arguments.
    return -math.fsum((p * np.log2(p)).tolist())


def _counts_mi_bits(joint: np.ndarray, n: int, kx: int, ky: int) -> float:
    """Plug-in MI with Miller-Madow correction from ``n`` samples' joint
    bin counts (row-major over the ``kx`` x ``ky`` cells)."""
    px = joint.reshape(kx, ky).sum(axis=1)
    py = joint.reshape(kx, ky).sum(axis=0)
    plug = _entropy_bits(px, n) + _entropy_bits(py, n) - _entropy_bits(joint, n)
    occupied = int((joint > 0).sum()), int((px > 0).sum()), int((py > 0).sum())
    correction = (occupied[1] - 1 + occupied[2] - 1 - (occupied[0] - 1)) / (
        2.0 * n * _LN2
    )
    return plug + correction


def _block_counts(ix: np.ndarray, iy: np.ndarray, kx: int, ky: int):
    """Joint bin counts of each of the bootstrap's contiguous sample blocks,
    as a ``(blocks, kx * ky)`` array, and the block sizes."""
    n = ix.size
    bounds = np.linspace(0, n, min(BOOTSTRAP_BLOCKS, n) + 1).astype(int)
    keys = ix * ky + iy
    counts = np.stack([np.bincount(keys[lo:hi], minlength=kx * ky)
                       for lo, hi in zip(bounds[:-1], bounds[1:])])
    return counts, np.diff(bounds)


def _bootstrap_se(counts: np.ndarray, sizes: np.ndarray, kx: int,
                  ky: int) -> float:
    """Block-bootstrap standard error of the binned MI.

    Each replicate draws as many blocks as there are, with replacement, and
    sums their per-block joint counts (``_block_counts``): the same counts,
    and so the same MI, as binning the concatenation of the picked blocks.
    """
    nblocks = sizes.size
    rng = make_rng(0xB007)
    reps = np.empty(BOOTSTRAP_REPS)
    for r in range(BOOTSTRAP_REPS):
        pick = rng.integers(0, nblocks, size=nblocks)
        reps[r] = _counts_mi_bits(counts[pick].sum(axis=0),
                                  int(sizes[pick].sum()), kx, ky)
    return float(np.std(reps, ddof=1))


def _quantile_bins(x: np.ndarray, bins: int) -> np.ndarray:
    """Assign each sample to one of ``bins`` equiprobable cells.

    A sample's cell is the number of quantile edges at or below it.  One
    sort gives both the edges (``np.quantile`` of the sorted copy takes the
    same order statistics) and, for each edge, the sorted position where
    the samples at or above it start.  ``x`` must be finite.
    """
    order = np.argsort(x)
    xs = x[order]
    cuts = np.searchsorted(
        xs, np.quantile(xs, np.linspace(0.0, 1.0, bins + 1)[1:-1]), "left")
    out = np.empty(x.size, dtype=np.intp)
    out[order] = np.repeat(np.arange(bins),
                           np.diff(cuts, prepend=0, append=x.size))
    return out


def _sector_bins(angles: np.ndarray, sectors: int) -> np.ndarray:
    """Circular binning of angles into equal sectors of [-pi, pi)."""
    idx = np.floor((angles + np.pi) / (2.0 * np.pi) * sectors).astype(int)
    return np.clip(idx, 0, sectors - 1)


def _sample_pair(xs, ys):
    """Validate two sample vectors for an MI estimate, as float arrays."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("need two equal-length 1-D sample vectors")
    if xs.size < 1000:
        raise ValueError("need at least 1000 samples")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("samples must be finite")
    return xs, ys


def mi_estimate(xs: np.ndarray, ys: np.ndarray, bins: int = DEFAULT_BINS) -> MiEstimate:
    """Histogram MI between two continuous sample vectors, in bits.

    Equiprobable (quantile) bins per axis, Miller-Madow correction, clamped
    at zero; standard error from a 20-block bootstrap.  Raises ValueError
    for non-finite samples, or for ``bins`` other than an integer >= 1.
    """
    if (isinstance(bins, bool) or not isinstance(bins, (int, np.integer))
            or bins < 1):
        raise ValueError(f"bins must be an integer >= 1, got {bins!r}")
    xs, ys = _sample_pair(xs, ys)
    return _mi_from_bins(_quantile_bins(xs, bins), _quantile_bins(ys, bins),
                         bins, bins, "histogram")


def _mi_from_bins(ix, iy, kx, ky, estimator: str) -> MiEstimate:
    counts, sizes = _block_counts(ix, iy, kx, ky)
    value = max(0.0, _counts_mi_bits(counts.sum(axis=0), ix.size, kx, ky))
    se = _bootstrap_se(counts, sizes, kx, ky)
    return MiEstimate(value, se, estimator, ix.size)


def gaussian_mi_estimate(xs: np.ndarray, ys: np.ndarray) -> MiEstimate:
    """Parametric MI for a pair known to be bivariate Gaussian.

    Plugs the sample correlation into the closed form; the standard error
    follows from the delta method.  Unbiased at any correlation, unlike the
    histogram estimator whose quantization loss grows as |rho| -> 1.
    Raises ValueError for non-finite samples or a zero-variance side.
    """
    xs, ys = _sample_pair(xs, ys)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = float(np.corrcoef(xs, ys)[0, 1])
    if math.isnan(r):
        raise ValueError("samples must have finite nonzero variance")
    r = max(-1.0 + 1e-12, min(1.0 - 1e-12, r))
    se_r = (1.0 - r * r) / math.sqrt(xs.size)
    dmi_dr = abs(r) / ((1.0 - r * r) * _LN2)
    return MiEstimate(mi_gaussian(r), dmi_dr * se_r, "gaussian_closed_form",
                      xs.size)


# ---------------------------------------------------------------------------
# Monte-Carlo models

_CHUNK = 100_000


def _add_noise(out, shared, scale, buf, rng):
    """``out = shared + scale * z`` for a fresh standard normal draw z."""
    rng.standard_normal(out=buf)
    np.multiply(buf, scale, out=out)
    out += shared


def _simulate_pairs(per_bin_sigma2: np.ndarray, noise_var: float,
                    samples: int, rng, reduce) -> list:
    """``reduce(obs_a, obs_b)`` of each chunk of simulated observation rows
    (it may draw from ``rng`` after them), concatenated over the chunks."""
    if samples < 1:
        raise ValueError("need at least one sample")
    L = per_bin_sigma2.size
    scale_h = np.sqrt(per_bin_sigma2 / 2.0)
    scale_n = math.sqrt(noise_var / 2.0)
    parts = []
    for done in range(0, samples, _CHUNK):
        m = min(_CHUNK, samples - done)
        # Draw order per chunk: the shared coefficients' real and imaginary
        # parts, then each side's noise, real then imaginary.  Each part of
        # an observation is summed straight into ``obs``, as h + n would sum
        # it, and every buffer is released before the next chunk is drawn.
        hr = scale_h * rng.standard_normal((m, L))
        hi = scale_h * rng.standard_normal((m, L))
        obs = np.empty((2, m, L), dtype=complex)
        noise = np.empty((m, L))
        for side in range(2):
            _add_noise(obs[side].real, hr, scale_n, noise, rng)
            _add_noise(obs[side].imag, hi, scale_n, noise, rng)
        del hr, hi, noise
        parts.append(reduce(obs[0], obs[1]))
        del obs
    return [np.concatenate(column) for column in zip(*parts)]


def simulate_rssi_pairs(profile: SnrProfile, samples: int, seed=None):
    """Monte-Carlo draw of both parties' received-strength readings."""
    sigma2 = profile.per_bin_snr * profile.noise_var
    return tuple(_simulate_pairs(
        sigma2, profile.noise_var, samples, make_rng(seed),
        lambda oa, ob: ((np.abs(oa) ** 2).sum(axis=1),
                        (np.abs(ob) ** 2).sum(axis=1))))


def rssi_capacity_numeric(profile: SnrProfile, m_tones: int, samples: int,
                          seed=None):
    """Simulated signal-strength capacity: (CapacityReport, MiEstimate)."""
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    ra, rb = simulate_rssi_pairs(profile, samples, seed)
    est = mi_estimate(ra, rb)
    report = CapacityReport(est.value / (2.0 * m_tones), m_tones)
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


def magphase_decomposition(snr: float, samples: int,
                           seed=None) -> MagPhaseReport:
    """Compare real/imaginary and magnitude/phase information splits.

    Simulates one coefficient observed by both parties at the given SNR
    (shared part variance ``snr``, unit noise variance per side, so the
    per-dimension correlation is snr/(1+snr)).  The real/imaginary MIs use
    the parametric Gaussian estimator (those pairs are exactly Gaussian, and
    histogram quantization loss would mask the equality at high SNR); the
    magnitude/phase MIs have no parametric form and use the histogram
    estimator, the magnitude with ``auto_bins`` bins for the sample size.
    """
    if samples < 100_000:
        raise ValueError("need at least 1e5 samples")
    if snr < 0:
        raise ValueError("snr must be nonnegative")
    rho = snr / (1.0 + snr)
    a, b = _simulate_pairs(np.array([snr]), 1.0, samples, make_rng(seed),
                           lambda oa, ob: (oa[:, 0], ob[:, 0]))
    i_re = gaussian_mi_estimate(a.real, b.real)
    i_im = gaussian_mi_estimate(a.imag, b.imag)
    i_mag = mi_estimate(np.abs(a), np.abs(b), auto_bins(samples))
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

    def reduce(oa, ob):
        t = rng.integers(0, grid_size, size=oa.shape[0])
        rotated = ob * np.exp(1j * thetas[t])[:, None]
        return t, np.angle((oa.conj() * rotated).sum(axis=1))

    t_idx, psi = _simulate_pairs(np.full(num_bins, snr), 1.0, samples, rng,
                                 reduce)
    return _mi_from_bins(
        t_idx, _sector_bins(psi, PHASE_SECTORS), grid_size, PHASE_SECTORS,
        "histogram",
    )
