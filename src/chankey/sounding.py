"""Two-way channel sounding and the real data-vector layout.

Within one coherence block Alice and Bob exchange known training signals and
each observes the shared sampled coefficients ``h_l`` through independent
additive complex Gaussian noise.  Unsynchronized oscillators add an unknown
rotation ``e^{j theta}`` to Bob's side.  ``n`` blocks of observations form a
real vector of length ``N = 2 n L``: per block the L complex coefficients
interleave as [Re h_1, Im h_1, ..., Re h_L, Im h_L], blocks in order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelRealization, SnrProfile
from .rng import make_rng


@dataclass(frozen=True)
class MeasurementPair:
    """Alice's and Bob's noisy views of one realization's h_l."""

    obs_a: np.ndarray
    obs_b: np.ndarray
    noise_var: float
    phase_offset: float = 0.0

    def __post_init__(self):
        if self.obs_a.shape != self.obs_b.shape:
            raise ValueError("observation vectors must share a shape")


def two_way_sound(realization: ChannelRealization, profile: SnrProfile,
                  seed=None) -> MeasurementPair:
    """Observe one realization from both ends with independent noise.

    Each noise sample is complex Gaussian with total variance ``noise_var``
    (noise_var/2 per real dimension).  The returned pair has zero phase
    offset; apply_phase_offset models the oscillator mismatch.
    """
    h = realization.time_coeffs
    if h.size != profile.num_delay_bins:
        raise ValueError("realization and profile disagree on L")
    rng = make_rng(seed)
    scale = np.sqrt(profile.noise_var / 2.0)
    noise = rng.standard_normal((2, h.size)) + 1j * rng.standard_normal((2, h.size))
    return MeasurementPair(
        obs_a=h + scale * noise[0],
        obs_b=h + scale * noise[1],
        noise_var=profile.noise_var,
        phase_offset=0.0,
    )


def apply_phase_offset(pair: MeasurementPair, theta: float) -> MeasurementPair:
    """Rotate Bob's observation by e^{j theta} and record the offset."""
    theta = float(theta)
    if not 0.0 <= theta < 2.0 * np.pi:
        raise ValueError("theta must lie in [0, 2*pi)")
    return replace(pair, obs_b=pair.obs_b * np.exp(1j * theta), phase_offset=theta)


def rotation_grid(size: int) -> np.ndarray:
    """The ``size`` equispaced rotation hypotheses 2 pi k / size, k < size."""
    return 2.0 * np.pi * np.arange(size) / size


def interleave(obs: np.ndarray) -> np.ndarray:
    """Complex length-L vector -> real length-2L [Re, Im, Re, Im, ...].

    A multi-block array is interleaved in row-major order, which equals the
    concatenation of its interleaved rows.
    """
    out = np.empty(2 * obs.size)
    out[0::2] = obs.real.reshape(-1)
    out[1::2] = obs.imag.reshape(-1)
    return out
