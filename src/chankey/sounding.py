"""Two-way channel sounding and the real data-vector layout.

Within one coherence block Alice and Bob exchange known training signals and
each observes the shared sampled coefficients ``h_l`` through independent
additive complex Gaussian noise.  Unsynchronized oscillators add an unknown
rotation ``e^{j theta}`` to Bob's side.  ``n`` blocks of observations form a
real vector of length ``N = 2 n L``: per block the L complex coefficients
interleave as [Re h_1, Im h_1, ..., Re h_L, Im h_L], blocks in order.

``draw_noise`` is the one place sounding noise is drawn, as unit-variance
samples that do not depend on the SNR; ``sound_blocks`` scales them to a
noise variance and adds them to the coefficients.  Key sessions draw the
noise in chunks of blocks and sound all blocks at once (a rate/SNR sweep
draws once and sounds at every SNR), and ``two_way_sound`` is their one-block
form, on one block's ``(L,)`` ``h``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import SnrProfile
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


def draw_noise(streams, num_bins: int) -> np.ndarray:
    """Unit complex sounding noise of one block per stream, ``(blocks, 2, L)``.

    Block i's stream draws ``4L`` standard normals: Alice's L real parts,
    Bob's L real parts, then the imaginary parts in the same order.  Index 0
    of the middle axis is Alice's noise, index 1 Bob's; each complex sample
    has variance 2 (1 per dimension).
    """
    L = num_bins
    normals = np.empty((len(streams), 4 * L))
    for rng, row in zip(streams, normals, strict=True):
        rng.standard_normal(out=row)
    return (normals[:, :2 * L] + 1j * normals[:, 2 * L:]).reshape(-1, 2, L)


def sound_blocks(h: np.ndarray, noise: np.ndarray, noise_var: float):
    """Alice's and Bob's noisy views of ``(blocks, L)`` coefficients ``h``.

    ``noise`` is ``draw_noise``'s unit noise for the same blocks; it is
    scaled by ``sqrt(noise_var / 2)``, so each complex noise sample has
    variance ``noise_var`` (half per dimension).  The same draw sounded at
    several noise variances gives each one the views a fresh draw from the
    same streams would.
    """
    scale = np.sqrt(noise_var / 2.0)
    return h + scale * noise[:, 0], h + scale * noise[:, 1]


def two_way_sound(h: np.ndarray, profile: SnrProfile,
                  seed) -> MeasurementPair:
    """Two-way sounding of one block's ``(L,)`` coefficients ``h``:
    ``draw_noise`` then ``sound_blocks``.

    ``apply_phase_offset`` adds the rotation.
    """
    if h.size != profile.num_delay_bins:
        raise ValueError("coefficients and profile disagree on L")
    noise = draw_noise([make_rng(seed)], h.size)
    obs_a, obs_b = sound_blocks(h[None], noise, profile.noise_var)
    return MeasurementPair(obs_a=obs_a[0], obs_b=obs_b[0],
                           noise_var=profile.noise_var)


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
