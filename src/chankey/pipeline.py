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

A session's randomness (path delays and gains, unit sounding noise and the
rotation) depends on neither the SNR nor the code: ``draw_session`` makes
it, and ``run_session`` measures a draw at the session's SNR.
``sweep_rate_vs_snr`` maps post-decoding key bit error rate over a rate/SNR
grid, measuring each trial's one draw at every grid point, and reports the
waterfall threshold per rate.
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
from .sounding import draw_noise, interleave, rotation_grid, sound_blocks

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
    public_message: np.ndarray
    theta_error: float | None = None

    @property
    def key_a_hex(self) -> str:
        return _bits_to_hex(self.key_a)

    @property
    def key_b_hex(self) -> str:
        return _bits_to_hex(self.key_b)

    @property
    def public_message_hex(self) -> str:
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


# The SessionConfig fields a session's draw depends on.
DRAW_FIELDS = ("seed", "channel", "blocks", "phase_mode", "theta_grid_size",
               "theta")


def _draw_source(config: SessionConfig) -> tuple:
    return tuple(getattr(config, name) for name in DRAW_FIELDS)


@dataclass(frozen=True)
class SessionDraw:
    """The SNR- and code-free randomness of one session.

    ``h`` holds the ``(blocks, L)`` sampled coefficients, ``noise`` the
    ``(blocks, 2, L)`` unit complex sounding noise of ``draw_noise`` and
    ``theta`` Bob's rotation.  ``source`` holds the ``DRAW_FIELDS`` values
    of the config the draw was made from.  The arrays are read-only, since
    one draw serves many measurements.
    """

    h: np.ndarray
    noise: np.ndarray
    theta: float
    source: tuple


# Bytes of the largest per-chunk temporary of ``draw_session``: below
# glibc's default 128 KiB mmap threshold, so each chunk's buffers come from
# (and go back to) the heap instead of being mapped and faulted in afresh.
CHUNK_BYTES = 120 * 1024


def _chunk_blocks(channel: ChannelConfig) -> int:
    """Blocks per ``draw_session`` chunk.

    A block's largest temporaries hold ``2 n_paths`` floats (the gain
    normals and the complex gains of ``sample_paths``) or ``4 L`` floats
    (the noise normals and complex noise of ``draw_noise``).
    """
    floats = 2 * max(channel.n_paths, 2 * channel.num_delay_bins)
    return max(1, CHUNK_BYTES // (8 * floats))


def draw_session(config: SessionConfig) -> SessionDraw:
    """Draw the channel, sounding noise and rotation of one session.

    The blocks are drawn in consecutive chunks of ``_chunk_blocks`` blocks,
    each written into the preallocated ``h`` and ``noise``, so no
    temporary grows with the block count.  Each block keeps its own stream
    and per-stream draw order (see ``rng.split_streams``), so the draw is
    bit-identical to simulating the blocks one at a time or all at once.
    """
    streams = split_streams(config.seed, config.blocks + 1)
    block_streams, theta_rng = streams[:-1], streams[-1]
    if config.phase_mode == "none":
        theta = 0.0
    elif config.theta is not None:
        theta = float(config.theta)
    else:
        grid = rotation_grid(config.theta_grid_size)
        theta = grid[theta_rng.integers(0, grid.size)]

    channel = config.channel
    L = channel.num_delay_bins
    h = np.empty((config.blocks, L), dtype=complex)
    noise = np.empty((config.blocks, 2, L), dtype=complex)
    step = _chunk_blocks(channel)
    for lo in range(0, config.blocks, step):
        chunk = block_streams[lo:lo + step]
        h[lo:lo + step] = time_coefficients(sample_paths(channel, chunk),
                                            channel)
        noise[lo:lo + step] = draw_noise(chunk, L)
    h.flags.writeable = noise.flags.writeable = False
    return SessionDraw(h=h, noise=noise, theta=theta,
                       source=_draw_source(config))


def _session_vectors(config: SessionConfig, draw: SessionDraw | None = None):
    """Measure all blocks: Alice/Bob data vectors plus per-entry law.

    ``draw`` defaults to a fresh ``draw_session(config)``; the vectors are
    those of that draw sounded at ``config.snr_f_db``.
    """
    if draw is None:
        draw = draw_session(config)
    elif draw.source != _draw_source(config):
        differ = [name for name, made, want
                  in zip(DRAW_FIELDS, draw.source, _draw_source(config))
                  if made != want]
        raise ValueError(f"draw does not match the session's "
                         f"{', '.join(differ)}")
    profile = build_snr_profile(config.channel, config.snr_f_db)
    obs_a, obs_b = sound_blocks(draw.h, draw.noise, profile.noise_var)
    b_obs = obs_b * np.exp(1j * draw.theta)

    sigma_h2 = profile.per_bin_snr * profile.noise_var
    sigma_complex = np.sqrt(sigma_h2 + profile.noise_var)
    rho = profile.rho_time
    per_block_rho = np.repeat(rho, 2)
    per_block_sigma = np.repeat(sigma_complex, 2)
    rho_vec = np.tile(per_block_rho, config.blocks)
    sigma_vec = np.tile(per_block_sigma, config.blocks)
    return interleave(obs_a), b_obs, rho_vec, sigma_vec, draw.theta


def run_session(config: SessionConfig,
                draw: SessionDraw | None = None) -> KeySessionResult:
    """Execute one full key-generation session.

    The session measures ``draw`` at ``config.snr_f_db``, or a fresh
    ``draw_session(config)`` when none is given; the result is the same
    either way.  A draw made from other ``DRAW_FIELDS`` values than
    ``config``'s raises ``ValueError``.  Alice publishes the syndrome of
    each bit plane of her symbols (the symbols themselves for 2 levels,
    their two ``bit_planes`` for 4) and keeps the planes' coset indices as
    her key; Bob decodes her symbols and takes the same indices.
    """
    x_raw, b_obs, rho_vec, sigma_vec, theta = _session_vectors(config, draw)
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
        public_message=np.concatenate(syndromes),
        theta_error=theta_error,
    )


# ---------------------------------------------------------------------------
# rate/SNR sweeps


def make_plane_code(n: int, rate: float, family: str, seed) -> SparseParityCheck:
    """Build one plane code of the requested design rate.

    The arguments are recorded on the code, so a sweep can tell that its
    template already holds the code it would build.
    """
    m = round(n * (1.0 - rate))
    if not 0.0 < rate < 1.0:
        raise ValueError(f"code rate must be in (0, 1), got rate={rate} "
                         f"(m={m} parity checks)")
    if family == "regular":
        code = construct_regular(n, m, 3, seed)
    elif family == "irregular":
        code = construct_irregular(n, m, IRREGULAR_VAR_PROFILE, None, seed)
    else:
        raise ValueError("family must be 'regular' or 'irregular'")
    code._cache["plane_code"] = (n, rate, family, seed)
    return code


def _sweep_code(template: SessionConfig, n: int, rate: float,
                family: str) -> SparseParityCheck:
    """The sweep's code at ``rate``: the template's if it is that code."""
    seed = derive_seed(template.seed, 0xC0DE)
    if template.code._cache.get("plane_code") == (n, rate, family, seed):
        return template.code
    return make_plane_code(n, rate, family, seed)


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

    Each rate's code is built once (or taken from the template when it is
    that code).  Trials run outermost: a trial's channel is drawn once and
    measured at every (rate, SNR), so the sweep holds one draw plus one
    code per rate.  Each grid position sums its integer error, bit and
    agreement counts, so the rows are those of running every point's trials
    in turn, and a duplicated rate or SNR keeps its own row.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n_data = 2 * template.blocks * template.channel.num_delay_bins
    codes = [(rate, _sweep_code(template, n_data, rate, family))
             for rate in rates if rate >= MIN_SWEEP_RATE]
    snr_grid = list(snr_grid)
    if not (codes and snr_grid):
        return []
    # [errors, bits, agreed] per grid position
    tallies = [[[0, 0, 0] for _ in snr_grid] for _ in codes]
    for t in range(trials):
        trial = replace(template, seed=derive_seed(template.seed, t))
        draw = draw_session(trial)
        for (_, code), rate_tallies in zip(codes, tallies):
            for snr_db, tally in zip(snr_grid, rate_tallies):
                res = run_session(replace(trial, code=code, snr_f_db=snr_db),
                                  draw)
                tally[0] += int(round(res.bit_error_rate * res.key_length))
                tally[1] += res.key_length
                tally[2] += int(res.agreed)
    # every session of a code has the same key length
    return [SweepRow(rate=rate, snr_db=snr_db, sessions=trials, agreed=agreed,
                     ber=errors / bits, key_bits_per_session=bits // trials)
            for (rate, _), rate_tallies in zip(codes, tallies)
            for snr_db, (errors, bits, agreed) in zip(snr_grid, rate_tallies)]


def waterfall_thresholds(rows) -> dict:
    """Per rate, the lowest swept SNR meeting the BER target (None if none)."""
    out: dict[float, float | None] = {}
    for row in rows:
        out.setdefault(row.rate, None)
        if row.achieved():
            if out[row.rate] is None or row.snr_db < out[row.rate]:
                out[row.rate] = row.snr_db
    return out
