"""End-to-end key sessions: sound, quantize, exchange syndromes, decode.

One session runs ``n`` independent coherence blocks of two-way sounding,
interleaves the real/imaginary parts of the sampled coefficients into a
data vector of length ``N = 2 n L``, and reconciles: Alice quantizes,
publishes the per-plane syndromes, and keeps her coset index as the key;
Bob decodes her quantized vector from his own observations plus the
syndromes and extracts the same index.  The public message costs ``m`` bits;
the key has ``N - rank(H)`` bits, ``N - m`` for a full-rank code (per plane
for 4-level data), and reveals nothing through the syndrome by the coset
argument.

``sweep_rate_vs_snr`` maps post-decoding key bit error rate over a
rate/SNR grid and reports the waterfall threshold per rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelConfig, build_snr_profile, sample_paths, time_coefficients
from .codec import (
    SparseParityCheck,
    construct_irregular,
    construct_regular,
    coset_index,
    decode_binary,
    decode_quaternary,
    decode_with_phase_offset,
    evidence_to_llr,
)
from .quantize import (
    Quantizer,
    bit_planes,
    hard_evidence,
    quantize,
    soft_evidence,
)
from .rng import derive_seed, split_streams
from .sounding import interleave, rotation_grid, sound_blocks

PHASE_MODES = ("none", "constant_theta")
DECODING_MODES = ("soft", "hard")

# Default irregular variable-degree profile for the waterfall experiments.
IRREGULAR_VAR_PROFILE = {2: 0.5, 3: 0.3, 8: 0.2}

MIN_SWEEP_RATE = 0.25
BER_TARGET = 1e-3


@dataclass(frozen=True)
class SessionConfig:
    """Everything one key-generation session needs."""

    channel: ChannelConfig
    snr_f_db: float
    blocks: int
    quantizer: Quantizer
    code: SparseParityCheck
    decoding_mode: str = "soft"
    phase_mode: str = "none"
    theta_grid_size: int = 16
    theta: float | None = None
    max_iter: int = 50
    seed: int | tuple = 0

    def __post_init__(self):
        if not math.isfinite(self.snr_f_db):
            raise ValueError(
                f"snr_f_db must be finite for a key session, got {self.snr_f_db}")
        if self.decoding_mode not in DECODING_MODES:
            raise ValueError(f"decoding_mode must be one of {DECODING_MODES}")
        if self.phase_mode not in PHASE_MODES:
            raise ValueError(f"phase_mode must be one of {PHASE_MODES}")
        n_data = 2 * self.blocks * self.channel.num_delay_bins
        if self.code.n != n_data:
            raise ValueError(
                f"code length {self.code.n} != data length 2nL = {n_data}")
        if self.phase_mode != "none":
            if self.quantizer.levels != 2 or self.decoding_mode != "soft":
                raise ValueError("rotation tracking needs binary soft decoding")
            if self.theta_grid_size < 1:
                raise ValueError("theta_grid_size must be >= 1")


@dataclass
class KeySessionResult:
    """Outcome and achievability diagnostics of one session."""

    key_a: np.ndarray
    key_b: np.ndarray
    agreed: bool
    bit_error_rate: float
    key_length: int
    public_message_length: int
    iterations_used: int
    syndrome_satisfied: bool
    theta_error: float | None = None
    public_message: np.ndarray | None = None

    @property
    def key_a_hex(self) -> str:
        return _bits_to_hex(self.key_a)

    @property
    def key_b_hex(self) -> str:
        return _bits_to_hex(self.key_b)

    @property
    def public_message_hex(self) -> str:
        if self.public_message is None:
            return ""
        return _bits_to_hex(self.public_message)


def _bits_to_hex(bits: np.ndarray) -> str:
    if bits.size == 0:
        return ""
    return np.packbits(bits).tobytes().hex()


def monobit_z(bits: np.ndarray) -> float:
    """Standardized excess of ones over zeros (0 for a perfectly balanced key)."""
    if bits.size == 0:
        return 0.0
    return float((2.0 * bits.sum() - bits.size) / math.sqrt(bits.size))


def _session_vectors(config: SessionConfig):
    """Simulate all blocks: Alice/Bob data vectors plus per-entry law.

    All blocks are simulated in one batched pass; each block keeps its own
    stream and per-stream draw order (see ``rng.split_streams``), so the
    vectors are bit-identical to simulating the blocks one at a time.
    """
    profile = build_snr_profile(config.channel, config.snr_f_db)
    streams = split_streams(config.seed, config.blocks + 1)
    block_streams, theta_rng = streams[:-1], streams[-1]
    grid = rotation_grid(config.theta_grid_size)

    if config.phase_mode == "none":
        theta = 0.0
    elif config.theta is not None:
        theta = float(config.theta)
    else:
        theta = grid[theta_rng.integers(0, grid.size)]

    h = time_coefficients(sample_paths(config.channel, block_streams),
                          config.channel)
    obs_a, obs_b = sound_blocks(h, profile.noise_var, block_streams)
    b_obs = obs_b * np.exp(1j * theta)

    sigma_h2 = profile.per_bin_snr * profile.noise_var
    sigma_complex = np.sqrt(sigma_h2 + profile.noise_var)
    rho = profile.rho_time
    per_block_rho = np.repeat(rho, 2)
    per_block_sigma = np.repeat(sigma_complex, 2)
    rho_vec = np.tile(per_block_rho, config.blocks)
    sigma_vec = np.tile(per_block_sigma, config.blocks)
    return interleave(obs_a), b_obs, rho_vec, sigma_vec, theta


def run_session(config: SessionConfig) -> KeySessionResult:
    """Execute one full key-generation session.

    Alice publishes the syndrome of each bit plane of her symbols (the
    symbols themselves for 2 levels, their two ``bit_planes`` for 4) and
    keeps the planes' coset indices as her key; Bob decodes her symbols and
    takes the same indices.
    """
    x_raw, b_obs, rho_vec, sigma_vec, theta = _session_vectors(config)
    q = config.quantizer
    pcm = config.code
    source_std = sigma_vec / math.sqrt(2.0)

    def planes(symbols):
        return (symbols,) if q.levels == 2 else bit_planes(symbols)

    alice = planes(quantize(x_raw, q, scale=source_std))
    syndromes = [pcm.syndrome(p) for p in alice]
    key_a = np.concatenate([coset_index(pcm, p) for p in alice])

    theta_error = None
    if config.phase_mode != "none":
        result = decode_with_phase_offset(
            pcm, syndromes[0], b_obs.reshape(-1),
            rotation_grid(config.theta_grid_size), rho_vec, sigma_vec, q,
            config.max_iter)
        err = np.angle(np.exp(1j * (result.theta_hat - theta)))
        theta_error = float(abs(err))
    else:
        y_raw = interleave(b_obs)
        if config.decoding_mode == "soft":
            ev = soft_evidence(y_raw, rho_vec, sigma_vec, q)
        else:
            bob = quantize(y_raw, q, scale=source_std)
            ev = hard_evidence(bob, rho_vec, q)
        if q.levels == 2:
            result = decode_binary(pcm, syndromes[0], evidence_to_llr(ev),
                                   config.max_iter)
        else:
            result = decode_quaternary(pcm, pcm, *syndromes, ev,
                                       config.max_iter)
    key_b = np.concatenate([coset_index(pcm, p)
                            for p in planes(result.estimate)])

    agreed = bool(np.array_equal(key_a, key_b))
    ber = float(np.mean(key_a != key_b)) if key_a.size else 0.0
    return KeySessionResult(
        key_a=key_a,
        key_b=key_b,
        agreed=agreed,
        bit_error_rate=ber,
        key_length=int(key_a.size),
        public_message_length=q.levels // 2 * pcm.m,
        iterations_used=result.iterations_used,
        syndrome_satisfied=result.syndrome_satisfied,
        theta_error=theta_error,
        public_message=np.concatenate(syndromes),
    )


# ---------------------------------------------------------------------------
# rate/SNR sweeps


def make_plane_code(n: int, rate: float, family: str, seed) -> SparseParityCheck:
    """Build one plane code of the requested design rate."""
    m = round(n * (1.0 - rate))
    if family == "regular":
        return construct_regular(n, m, 3, seed)
    if family == "irregular":
        return construct_irregular(n, m, IRREGULAR_VAR_PROFILE, None, seed)
    raise ValueError("family must be 'regular' or 'irregular'")


@dataclass
class SweepRow:
    rate: float
    snr_db: float
    sessions: int
    agreed: int
    ber: float
    key_bits_per_session: int

    def achieved(self) -> bool:
        return self.ber <= BER_TARGET


def sweep_rate_vs_snr(template: SessionConfig, rates, snr_grid, trials: int,
                      family: str = "regular") -> list[SweepRow]:
    """Aggregate key BER over a (rate, SNR) grid for one decoder variant.

    ``template`` fixes everything but the code and SNR.  Rates below 0.25
    are skipped (too little secrecy to be interesting).  Trial seeds derive
    deterministically from the template seed, and are matched across rates
    and SNRs so variant comparisons see identical channels.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n_data = 2 * template.blocks * template.channel.num_delay_bins
    rows = []
    for rate in rates:
        if rate < MIN_SWEEP_RATE:
            continue
        code = make_plane_code(n_data, rate, family,
                               derive_seed(template.seed, 0xC0DE))
        for snr_db in snr_grid:
            errors = 0
            bits = 0
            agreed = 0
            key_bits = 0
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


def waterfall_thresholds(rows) -> dict:
    """Per rate, the lowest swept SNR meeting the BER target (None if none)."""
    out: dict[float, float | None] = {}
    for row in rows:
        out.setdefault(row.rate, None)
        if row.achieved():
            if out[row.rate] is None or row.snr_db < out[row.rate]:
                out[row.rate] = row.snr_db
    return out
