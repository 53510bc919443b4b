"""Multipath channel realizations and SNR bookkeeping.

A wideband link with tone count ``M = T * W`` is modelled as an echo channel:
a random set of propagation paths with delays in ``[0, tau_max]`` and
independent complex Gaussian gains.  The same realization is viewed two ways:

* ``freq_coefficients`` -- the M per-tone coefficients ``H_n``.
* ``time_coefficients`` -- the L sampled (delay-bin) coefficients ``h_l``,
  where ``L = ceil(tau_max * W)`` is the number of resolvable delay bins.

``build_snr_profile`` derives the per-bin SNRs and correlation coefficients
that the capacity and reconciliation layers consume.

Everything works at coefficient level: training waveforms, matched
filtering, and the per-tone unit sounding symbols they would carry have no
runtime representation here, since with unit sounding coefficients the
measurement model starts directly from noisy ``H_n`` (equivalently ``h_l``)
observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PROFILE_MODES = ("exponential", "flat")


@dataclass(frozen=True)
class ChannelConfig:
    """Static parameters of the simulated link.

    ``pdp_decay_s`` is the time constant of the exponential power-delay
    profile; when omitted it defaults to ``tau_max_s / 3``.  The ``flat``
    profile gives every path the same gain variance, which realizes the
    idealized equal-variance model used in the capacity analysis.  The
    total path power is 1: keys and capacities depend on the channel only
    through per-bin SNRs and correlations, where a gain scale cancels.
    """

    m_tones: int
    bandwidth_hz: float
    duration_s: float
    n_paths: int
    tau_max_s: float
    pdp_decay_s: float | None = None
    profile: str = "exponential"

    def __post_init__(self):
        for name in ("bandwidth_hz", "duration_s", "tau_max_s", "pdp_decay_s"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.m_tones < 1:
            raise ValueError("m_tones must be a positive integer")
        if self.bandwidth_hz <= 0 or self.duration_s <= 0:
            raise ValueError("bandwidth and duration must be positive")
        if round(self.duration_s * self.bandwidth_hz) != self.m_tones:
            raise ValueError(
                f"m_tones={self.m_tones} inconsistent with T*W="
                f"{self.duration_s * self.bandwidth_hz:.3f}"
            )
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.tau_max_s < 0 or self.tau_max_s > self.duration_s:
            raise ValueError("tau_max_s must lie in [0, duration_s]")
        if self.profile not in PROFILE_MODES:
            raise ValueError(f"profile must be one of {PROFILE_MODES}")
        if self.pdp_decay_s is not None and self.pdp_decay_s <= 0:
            raise ValueError("pdp_decay_s must be positive")
        if self.num_delay_bins > self.m_tones:
            raise ValueError("delay spread exceeds the tone count (L > M)")

    @property
    def num_delay_bins(self) -> int:
        """Resolvable delay bins L = ceil(tau_max * W), at least 1."""
        return max(1, math.ceil(self.tau_max_s * self.bandwidth_hz - 1e-12))

    @property
    def decay_s(self) -> float:
        """Effective PDP time constant (default tau_max/3)."""
        if self.pdp_decay_s is not None:
            return self.pdp_decay_s
        return self.tau_max_s / 3.0 if self.tau_max_s > 0 else 1.0


@dataclass(frozen=True)
class PathSet:
    """Delays (seconds) and complex gains of one realization's paths."""

    delays: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        if self.delays.shape != self.gains.shape:
            raise ValueError("delays and gains must have equal length")


@dataclass(frozen=True)
class SnrProfile:
    """Noise variance, per-bin / per-tone SNRs and correlation coefficients."""

    noise_var: float
    per_bin_snr: np.ndarray
    per_tone_snr: float
    rho_time: np.ndarray = field(init=False)

    def __post_init__(self):
        snr = np.asarray(self.per_bin_snr, dtype=float)
        for name, value in (("per_bin_snr", snr),
                            ("per_tone_snr", self.per_tone_snr)):
            if np.isnan(value).any():
                raise ValueError(f"{name} must not be NaN, got {value}")
        if np.any(snr < 0) or self.per_tone_snr < 0:
            raise ValueError("SNRs must be nonnegative")
        object.__setattr__(self, "per_bin_snr", snr)
        # s/(1+s) rounds to 1.0 for enormous SNRs; keep it strictly below 1
        # so downstream conditional laws stay well defined
        top = np.nextafter(1.0, 0.0)
        object.__setattr__(self, "rho_time",
                           np.minimum(snr / (1.0 + snr), top))

    @property
    def num_delay_bins(self) -> int:
        return self.per_bin_snr.size


def flat_profile(snr_tau: float, num_bins: int, m_tones: int) -> SnrProfile:
    """Equal-variance, unit-noise profile of per-bin SNR ``snr_tau`` (analysis)."""
    per_bin = np.full(num_bins, float(snr_tau))
    return SnrProfile(
        noise_var=1.0,
        per_bin_snr=per_bin,
        per_tone_snr=per_bin.sum() / m_tones,
    )


def _bin_edges(config: ChannelConfig) -> np.ndarray:
    """Delay-bin edges: bin l covers ((l-0.5)/W, (l+0.5)/W], bin 0 starts at 0
    and the last bin extends to tau_max (delays beyond (L-0.5)/W aggregate
    into bin L-1)."""
    w = config.bandwidth_hz
    lo = np.maximum(0.0, (np.arange(config.num_delay_bins) - 0.5) / w)
    hi = np.minimum(config.tau_max_s, (np.arange(config.num_delay_bins) + 0.5) / w)
    hi[-1] = max(config.tau_max_s, hi[-1])
    return np.stack([lo, hi], axis=1)


def bin_power_fractions(config: ChannelConfig) -> np.ndarray:
    """Expected fraction of total gain power landing in each delay bin.

    Flat mode returns the idealized equal split 1/L.  Exponential mode
    integrates the delay density times exp(-tau/decay) over each bin.
    """
    L = config.num_delay_bins
    if config.profile == "flat":
        return np.full(L, 1.0 / L)
    if config.tau_max_s == 0:
        out = np.zeros(L)
        out[0] = 1.0
        return out
    edges = _bin_edges(config)
    d = config.decay_s
    mass = np.exp(-edges[:, 0] / d) - np.exp(-edges[:, 1] / d)
    return mass / mass.sum()


def sample_paths(config: ChannelConfig, streams) -> PathSet:
    """Draw path delays and complex Gaussian gains, one realization per stream.

    Delays are i.i.d. uniform on [0, tau_max].  Gain variances follow the
    configured power-delay profile and are normalized per realization so the
    total path power is 1.

    ``streams`` is a list of Generators, e.g. one per coherence block from
    ``split_streams``, and row i of the ``(len(streams), n_paths)`` delays
    and gains is drawn from stream i, so any split of the list gives the
    same rows, and a stream listed k times gives its next k realizations.

    Reproducibility contract: each stream draws, in this order, the P
    uniform delays (one ``random(P)`` call scaled by tau_max, which gives
    the values of ``uniform(0, tau_max, P)``) and then the 2P gain normals
    (one ``standard_normal(2P)`` call: P real parts, then P imaginary
    parts), where P = n_paths.
    """
    P = config.n_paths
    delays = np.empty((len(streams), P))
    normals = np.empty((len(streams), 2 * P))
    for i, rng in enumerate(streams):
        rng.random(out=delays[i])
        rng.standard_normal(out=normals[i])
    delays *= config.tau_max_s
    # weight -> variance -> gain scale in one buffer, each step rounded as
    # sqrt(w / sum(w) / 2) with w = exp(-delay / decay)
    if config.profile == "exponential" and config.tau_max_s > 0:
        scale = np.negative(delays)
        scale /= config.decay_s
        np.exp(scale, out=scale)
    else:
        scale = np.ones_like(delays)
    scale /= scale.sum(axis=1, keepdims=True)
    scale /= 2.0
    np.sqrt(scale, out=scale)
    gains = np.empty((len(streams), P), dtype=complex)
    np.multiply(scale, normals[:, :P], out=gains.real)
    np.multiply(scale, normals[:, P:], out=gains.imag)
    return PathSet(delays=delays, gains=gains)


def freq_coefficients(paths: PathSet, config: ChannelConfig) -> np.ndarray:
    """Per-tone coefficients H_n = sum_k beta_k exp(-j 2 pi (n/T) tau_k).

    ``paths`` is one realization, ``(n_paths,)`` delays and gains; a batch
    from ``sample_paths`` is passed one row at a time.
    """
    if paths.delays.ndim != 1:
        raise ValueError(
            "freq_coefficients takes one realization of (n_paths,) delays "
            f"and gains, got shape {paths.delays.shape}; pass each row of a "
            "batch as its own PathSet")
    n = np.arange(config.m_tones)
    phase = np.exp(-2j * np.pi * np.outer(n, paths.delays) / config.duration_s)
    return phase @ paths.gains


def time_coefficients(paths: PathSet, config: ChannelConfig) -> np.ndarray:
    """Sampled coefficients h_l over the L resolvable delay bins.

    Each path's gain goes into the bin containing its delay (bin l covers
    ((l-0.5)/W, (l+0.5)/W]).  A batch of realizations (paths along the last
    axis) gives one row of L coefficients per realization.
    """
    L = config.num_delay_bins
    rows = paths.delays.size // paths.delays.shape[-1]
    # bin index ceil(tau W - 1/2) clipped to [0, L-1], computed in one float
    # buffer, plus row r's offset r*L so that one bincount serves all rows;
    # it adds each bin's gains in path order, so the sums match a per-row
    # accumulation
    idx = np.multiply(paths.delays, config.bandwidth_hz).reshape(rows, -1)
    idx -= 0.5
    np.ceil(idx, out=idx)
    np.maximum(idx, 0, out=idx)
    np.minimum(idx, L - 1, out=idx)
    idx += L * np.arange(rows)[:, None]
    flat = idx.astype(np.intp).ravel()
    out = np.empty(paths.delays.shape[:-1] + (L,), dtype=complex)
    out.real = np.bincount(flat, weights=paths.gains.real.ravel(),
                           minlength=rows * L).reshape(out.shape)
    out.imag = np.bincount(flat, weights=paths.gains.imag.ravel(),
                           minlength=rows * L).reshape(out.shape)
    out *= math.sqrt(config.m_tones)
    return out


def build_snr_profile(config: ChannelConfig, snr_f_db: float) -> SnrProfile:
    """Derive noise variance and per-bin SNRs for a per-tone SNR in dB.

    Path power is normalized to 1, so the noise variance is ``1 / SNR_f``
    and the per-bin variances are ``M * w_l`` with ``w_l`` from
    ``bin_power_fractions``: ``sum_l SNR_tau(l) == M * SNR_f`` exactly.
    ``snr_f_db = -inf`` (zero SNR) is accepted and zeroes the profile.
    """
    if math.isnan(snr_f_db) or snr_f_db == math.inf:
        raise ValueError("snr_f_db must be finite or -inf")
    snr_f = 10.0 ** (snr_f_db / 10.0) if snr_f_db != -math.inf else 0.0
    noise_var = 1.0 / snr_f if snr_f > 0 else math.inf
    return SnrProfile(
        noise_var=noise_var,
        per_bin_snr=config.m_tones * bin_power_fractions(config) / noise_var,
        per_tone_snr=snr_f,
    )


def load_config(path) -> ChannelConfig:
    """Read a ChannelConfig from a plain ``key = value`` text file.

    Recognized keys: m_tones, bandwidth_hz, duration_s, n_paths, tau_max_s,
    pdp_decay_s, profile.  Lines starting with '#' are comments; unknown
    keys are ignored so experiment files can carry extra settings.
    """
    values = read_keyvalue_file(path)
    kwargs = {}
    for key in ("m_tones", "n_paths"):
        if key in values:
            kwargs[key] = _integer_value(key, values[key])
    for key in ("bandwidth_hz", "duration_s", "tau_max_s", "pdp_decay_s"):
        if key in values:
            kwargs[key] = float(values[key])
    if "profile" in values:
        kwargs["profile"] = values["profile"]
    missing = {"m_tones", "bandwidth_hz", "duration_s", "n_paths",
               "tau_max_s"} - kwargs.keys()
    if missing:
        raise ValueError(f"missing keys: {sorted(missing)}")
    return ChannelConfig(**kwargs)


def _integer_value(key: str, text: str) -> int:
    """An integral config value such as ``52`` or ``5.2e1``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value.is_integer():  # also false for inf and nan
        raise ValueError(f"{key} must be an integer, got {text!r}")
    return int(value)


def read_keyvalue_file(path) -> dict:
    """Parse ``key = value`` lines, '#' comments, blank lines allowed."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values
