"""Two-way channel sounding and observation stacking.

Within one coherence block Alice and Bob exchange known training signals and
each observes the shared sampled coefficients ``h_l`` through independent
additive complex Gaussian noise.  Unsynchronized oscillators add an unknown
rotation ``e^{j theta}`` to Bob's side.  Multi-block observations stack into
real vectors of length ``N = 2 n M``: per block the L complex coefficients
interleave as [Re h_1, Im h_1, ..., Re h_L, Im h_L] followed by ``2(M-L)``
zeros for the insignificant delay bins.
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


@dataclass(frozen=True)
class StackedObservation:
    """Length-2nM real vector with the per-block interleave-and-pad layout."""

    values: np.ndarray
    blocks: int
    per_block_dof: int
    m_tones: int

    def __post_init__(self):
        expected = 2 * self.blocks * self.m_tones
        if self.values.size != expected:
            raise ValueError(
                f"stacked vector has {self.values.size} entries, expected {expected}"
            )

    def to_csv(self, path) -> None:
        """One value per line, preceded by a '# n,M,L' comment header."""
        with open(path, "w") as fh:
            fh.write(f"# {self.blocks},{self.m_tones},{self.per_block_dof}\n")
            for v in self.values:
                fh.write(f"{float(v)!r}\n")

    @classmethod
    def from_csv(cls, path) -> "StackedObservation":
        with open(path) as fh:
            header = fh.readline()
            if not header.startswith("#"):
                raise ValueError("missing '# n,M,L' header line")
            n, m, dof = (int(tok) for tok in header[1:].strip().split(","))
            values = np.array([float(line) for line in fh if line.strip()])
        return cls(values=values, blocks=n, per_block_dof=dof, m_tones=m)


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


def deinterleave(values: np.ndarray) -> np.ndarray:
    """Inverse of interleave."""
    if values.size % 2:
        raise ValueError("need an even number of real entries")
    return values[0::2] + 1j * values[1::2]


def stack_observations(pairs, m_tones: int):
    """Stack both parties' measurements into (alice, bob) StackedObservations."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one measurement pair")
    dof = pairs[0].obs_a.size
    if any(p.obs_a.size != dof for p in pairs):
        raise ValueError("all blocks must share the same L")
    if dof > m_tones:
        raise ValueError("L exceeds M")

    def build(select):
        rows = []
        pad = np.zeros(2 * (m_tones - dof))
        for p in pairs:
            rows.append(interleave(select(p)))
            rows.append(pad)
        return StackedObservation(
            values=np.concatenate(rows),
            blocks=len(pairs),
            per_block_dof=dof,
            m_tones=m_tones,
        )

    return build(lambda p: p.obs_a), build(lambda p: p.obs_b)


def unstack(stacked: StackedObservation) -> list[np.ndarray]:
    """Recover the per-block complex observation vectors (padding dropped)."""
    L, M = stacked.per_block_dof, stacked.m_tones
    blocks = stacked.values.reshape(stacked.blocks, 2 * M)
    return [deinterleave(row[: 2 * L]) for row in blocks]


def data_entries(stacked: StackedObservation) -> np.ndarray:
    """The 2nL informative real entries, padding removed, block order kept."""
    L, M = stacked.per_block_dof, stacked.m_tones
    blocks = stacked.values.reshape(stacked.blocks, 2 * M)
    return blocks[:, : 2 * L].reshape(-1)
