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
it, and ``run_session`` measures a draw at the session's SNR.  The
per-entry law of the measured vectors (noise variance, correlation and
standard deviation of every entry) depends only on the channel, SNR and
block count, so ``_entry_law`` computes it once per such configuration and
caches it as read-only arrays.
``sweep_rate_vs_snr`` maps post-decoding key bit error rate over a rate/SNR
grid, measuring each trial's one draw at every grid point, and reports the
waterfall threshold per rate.  Its trials run in contiguous ranges on every
CPU the process may use (``os.fork`` on POSIX); a trial's integer counts
depend on nothing but the trial, so the rows are the same for any split.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import signal
import sys
import threading
import traceback
import weakref
from dataclasses import dataclass, field, replace
from typing import ClassVar

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
from .codec.decode import DEFAULT_MAX_ITER
from .codec.matrix import graph_for
from .quantize import (
    Quantizer,
    bit_planes,
    hard_evidence,
    quantize,
    soft_evidence,
)
from .rng import derive_seed, row_chunks, split_streams
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
    max_iter: ClassVar[int] = DEFAULT_MAX_ITER  # every decoder's own cap
    seed: int | tuple = field(kw_only=True)

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
        if self.theta is not None:
            if self.phase_mode == "none":
                raise ValueError("theta is set, but phase_mode 'none' "
                                 "applies no rotation")
            if not math.isfinite(self.theta):
                raise ValueError(f"theta must be finite, got {self.theta}")


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


def block_row_bytes(channel: ChannelConfig) -> int:
    """``row_chunks``'s row size for blocks drawn as ``draw_session``'s."""
    return 16 * max(channel.n_paths, 2 * channel.num_delay_bins)


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


def draw_session(config: SessionConfig) -> SessionDraw:
    """Draw the channel, sounding noise and rotation of one session.

    The blocks are drawn in consecutive ``rng.row_chunks``, each written
    into the preallocated ``h`` and ``noise``, so no temporary grows with
    the block count.  A block's largest temporaries hold ``2 n_paths``
    floats (the gain normals and the complex gains of ``sample_paths``) or
    ``4 L`` floats (the noise normals and complex noise of ``draw_noise``).
    Each block keeps its own stream and per-stream draw order (see
    ``rng.split_streams``), so the draw is bit-identical to simulating the
    blocks one at a time or all at once.
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
    for rows in row_chunks(config.blocks, block_row_bytes(channel)):
        chunk = block_streams[rows]
        h[rows] = time_coefficients(sample_paths(channel, chunk), channel)
        noise[rows] = draw_noise(chunk, L)
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
    noise_var, rho_vec, sigma_vec = _entry_law(
        config.channel, config.snr_f_db, config.blocks)
    obs_a, obs_b = sound_blocks(draw.h, draw.noise, noise_var)
    b_obs = obs_b * np.exp(1j * draw.theta)
    return interleave(obs_a), b_obs, rho_vec, sigma_vec, draw.theta


# The cache pays off only when a configuration repeats: ``chankey keygen``'s
# trials, and a sweep's trials, each of which walks the same SNR grid in the
# same order.  32 entries hold one sweep's whole grid (``ldpc-waterfall``'s
# default grids have at most 15 SNRs per variant, 18 over all variants); a
# grid of more than 32 points evicts every entry before its reuse.
@functools.lru_cache(maxsize=32)
def _entry_law(channel: ChannelConfig, snr_f_db: float, blocks: int):
    """Noise variance and the per-entry law of a session's data vectors.

    Returns ``(noise_var, rho_vec, sigma_vec)``: entry k of the
    length-``2 blocks L`` vectors has Alice/Bob correlation ``rho_vec[k]``
    and complex standard deviation ``sigma_vec[k]``.  Neither depends on
    the draw, so each configuration's arrays are computed once, cached and
    read-only.
    """
    profile = build_snr_profile(channel, snr_f_db)
    bin_var = profile.per_bin_snr * profile.noise_var
    sigma_complex = np.sqrt(bin_var + profile.noise_var)
    rho_vec = np.tile(np.repeat(profile.rho_time, 2), blocks)
    sigma_vec = np.tile(np.repeat(sigma_complex, 2), blocks)
    for values in (rho_vec, sigma_vec):
        values.flags.writeable = False
    return profile.noise_var, rho_vec, sigma_vec


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
    source_std = sigma_vec / math.sqrt(2.0)
    q = config.quantizer
    pcm = config.code

    def planes(symbols):
        return (symbols,) if q.levels == 2 else bit_planes(symbols)

    alice = planes(quantize(x_raw, q, scale=source_std))
    syndromes = [pcm.syndrome(p) for p in alice]
    key_a = np.concatenate([coset_index(pcm, p) for p in alice])

    theta_error = None
    if config.phase_mode != "none":
        # Bob's binary posteriors under every rotation hypothesis at once
        grid = rotation_grid(config.theta_grid_size)
        y_rot = interleave(b_obs.reshape(-1) * np.exp(-1j * grid)[:, None])
        ev = soft_evidence(y_rot, np.tile(rho_vec, grid.size),
                           np.tile(sigma_vec, grid.size), q)
        result = decode_with_phase_offset(
            pcm, syndromes[0], ev.reshape(grid.size, pcm.n, 2), grid)
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
            result = decode_binary(pcm, syndromes[0], evidence_to_llr(ev))
        else:
            result = decode_quaternary(pcm, pcm, *syndromes, ev)
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


# one live plane code per (n, rate, family, seed), while a caller holds it
_PLANE_CODES = weakref.WeakValueDictionary()


def make_plane_code(n: int, rate: float, family: str, seed) -> SparseParityCheck:
    """The plane code of design rate ``rate``: m = round(n (1 - rate)) checks.

    ``rate`` must be finite and in (0, 1), and ``seed`` an int or a tuple
    of them.  Equal arguments give the same object while any caller holds
    it, so a code is built once however many sessions and sweeps share it.
    A code the constructions cannot build raises ``ValueError``.
    """
    if not isinstance(seed, (int, tuple)):
        raise TypeError("make_plane_code needs an integer or tuple seed")
    if not 0.0 < rate < 1.0:  # also false for nan
        raise ValueError(f"code rate must be in (0, 1), got rate={rate}")
    if family not in ("regular", "irregular"):
        raise ValueError("family must be 'regular' or 'irregular'")
    key = (n, rate, family, seed)
    code = _PLANE_CODES.get(key)
    if code is None:
        m = round(n * (1.0 - rate))
        code = (construct_regular(n, m, 3, seed) if family == "regular"
                else construct_irregular(n, m, IRREGULAR_VAR_PROFILE,
                                         seed=seed))
        _PLANE_CODES[key] = code
    return code


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

    Each rate's code is ``make_plane_code``'s at the seed
    ``derive_seed(template.seed, 0xC0DE)``: the template's own when it
    holds that code.  Trials run outermost: a trial's channel is drawn once
    and measured at every (rate, SNR), so the sweep holds one draw plus one
    code per rate.  Each grid position sums its integer error, bit and
    agreement counts, so the rows are those of running every point's trials
    in turn, and a duplicated rate or SNR keeps its own row.

    The trials are split into contiguous ranges, one per CPU in the
    process's affinity mask (at most one per trial), and run at once: this
    process runs the first range and forks (``os.fork``) a child for each
    other range.
    Integer sums do not depend on the split, so the rows are identical for
    any number of CPUs; ``taskset -c 0`` gives a serial run.  The sweep
    runs serially where ``os.fork`` is missing or another Python thread is
    alive.  A child's exception is raised here with the child's traceback
    as its cause, and every child is reaped before the sweep returns or
    raises.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n_data = 2 * template.blocks * template.channel.num_delay_bins
    code_seed = derive_seed(template.seed, 0xC0DE)
    codes = [(rate, make_plane_code(n_data, rate, family, code_seed))
             for rate in rates if rate >= MIN_SWEEP_RATE]
    snr_grid = list(snr_grid)
    if not (codes and snr_grid):
        return []
    plane_codes = [code for _, code in codes]
    for code in plane_codes:  # built once here, shared by forked children
        code.systemization()
        graph_for(code)

    def tally(trial_range):
        return _tally_trials(template, plane_codes, snr_grid, trial_range)

    tallies = _split_trials(tally, trials)
    # every session of a code has the same key length
    return [SweepRow(rate=rate, snr_db=snr_db, sessions=trials, agreed=agreed,
                     ber=errors / bits, key_bits_per_session=bits // trials)
            for (rate, _), rate_tallies in zip(codes, tallies)
            for snr_db, (errors, bits, agreed) in zip(snr_grid, rate_tallies)]


def _tally_trials(template: SessionConfig, codes, snr_grid,
                  trial_range: range) -> list:
    """``[errors, bits, agreed]`` per (code, SNR) position, summed over the
    trials of ``trial_range``, as Python ints."""
    tallies = [[[0, 0, 0] for _ in snr_grid] for _ in codes]
    for t in trial_range:
        trial = replace(template, seed=derive_seed(template.seed, t))
        draw = draw_session(trial)
        for code, rate_tallies in zip(codes, tallies):
            for snr_db, tally in zip(snr_grid, rate_tallies):
                res = run_session(replace(trial, code=code, snr_f_db=snr_db),
                                  draw)
                tally[0] += int(np.count_nonzero(res.key_a != res.key_b))
                tally[1] += res.key_length
                tally[2] += int(res.agreed)
    return tallies


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or every CPU
    where the platform has no mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _ChildTraceback(Exception):
    """The formatted traceback of an exception raised in a sweep child."""


def _split_trials(tally, trials: int) -> list:
    """Sum the nested integer lists ``tally(r)`` over a split of
    ``range(trials)`` into one contiguous range per worker.

    This process runs the first range and forks one child per other range;
    each child pickles its result, or the exception it raised with its
    traceback, into a pipe and leaves by ``os._exit``.  On any error every
    child not yet reaped is killed and reaped before the error propagates.
    Children are forked, not spawned, so that they share the codes built
    here: a spawned worker would import chankey and rebuild them.
    """
    workers = min(trials, _usable_cpus())
    if (workers == 1 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return tally(range(trials))
    bounds = [k * trials // workers for k in range(workers + 1)]
    parts = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    sys.stdout.flush()
    sys.stderr.flush()
    children = {}  # pid -> read end of its pipe, until the child is reaped
    try:
        for part in parts[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                try:
                    _send(tally, part, write_fd)
                finally:
                    os._exit(0)
            children[pid] = open(read_fd, "rb")
            os.close(write_fd)
        results = [tally(parts[0])]
        for pid, pipe in list(children.items()):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            results.append(_unpack(data, pid, status))
    except BaseException:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    return np.sum(results, axis=0).tolist()


def _send(tally, part: range, write_fd: int) -> None:
    """Child side: pickle ``(tally(part), None, None)``, or ``(None,
    exception, traceback)`` if it raised, into the pipe."""
    try:
        message = (tally(part), None, None)
    except BaseException as exc:
        message = (None, exc, traceback.format_exc())
    try:
        data = pickle.dumps(message)
        pickle.loads(data)
    except Exception:  # an exception that does not pickle and unpickle
        data = pickle.dumps((None, RuntimeError(repr(message[1])),
                             message[2]))
    with open(write_fd, "wb") as pipe:
        pipe.write(data)
    sys.stdout.flush()
    sys.stderr.flush()


def _unpack(data: bytes, pid: int, status: int):
    """Parent side: a reaped child's result, or raise what it sent."""
    if not data:
        raise RuntimeError(f"sweep child {pid} ended without a result "
                           f"(wait status {status})")
    result, exc, child_traceback = pickle.loads(data)
    if exc is not None:
        raise exc from _ChildTraceback(child_traceback)
    return result


def waterfall_thresholds(rows) -> dict:
    """Per rate, the lowest swept SNR meeting the BER target (None if none)."""
    out: dict[float, float | None] = {}
    for row in rows:
        out.setdefault(row.rate, None)
        if row.achieved():
            if out[row.rate] is None or row.snr_db < out[row.rate]:
                out[row.rate] = row.snr_db
    return out
