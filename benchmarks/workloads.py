"""The benchmark's workloads: inputs from a seed, operations, output checks.

Each workload is a closed loop of operations.  Operation ``i`` depends only
on the seed and ``i``; ``cycle`` operations make one round, and the loop
stops only at round boundaries so every run measures the same mix.  The
quality figures (``agreed_frac``, ``capacity_abs_err_bits``) are taken over
the first ``quality_ops`` operations, which every run completes, so they
depend on the seed alone and not on how fast the program is.

Why each workload exists, and which layer metrics should move which
end-to-end metric on it, is recorded in README.md next to this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from chankey import capacity, pipeline
from chankey.channel import ChannelConfig, flat_profile, load_config
from chankey.quantize import Quantizer
from chankey.rng import derive_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "golden.json"

# Seed of the golden fixture: fixed, unlike the measured inputs.
GOLDEN_SEED = 1107

# Statistical checks allow this many standard errors, so that an honest
# estimator fails one in millions of calls, not one in hundreds.
SIGMAS = 5.0

# The flat 100-path channel of the rotation-tracking demonstration.
PHASE_CHANNEL = dict(m_tones=52, bandwidth_hz=16.25e6, duration_s=3.2e-6,
                     n_paths=100, tau_max_s=800e-9, profile="flat")


@dataclasses.dataclass
class Op:
    """Outcome of one operation of the closed loop."""

    records: list           # output fields, hashed into the output digest
    work: int               # key sessions, or Monte-Carlo samples
    sessions: int = 0
    agreed: int = 0
    key_bits: int = 0       # agreed key bits
    abs_err: float | None = None
    problems: list = dataclasses.field(default_factory=list)
    seconds: float = 0.0


def digest(ops) -> str:
    """SHA-256 over the records of a sequence of operations."""
    return hashlib.sha256(repr([op.records for op in ops]).encode()).hexdigest()


def load_reference() -> dict:
    """Committed golden digests; an unreadable file yields no references."""
    try:
        data = json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def golden_problems(name: str, got: str, reference: dict) -> list:
    """A mismatch against the committed digest, as a failure message."""
    entry = reference.get(name)
    want = entry.get("sha256") if isinstance(entry, dict) else None
    if got == want:
        return []
    return [f"{name}: golden digest {got[:16]} != reference {str(want)[:16]}"]


def _session_problems(res, key_bits: int, public_bits: int, max_iter: int):
    """Invariants every key session result must satisfy."""
    out = []
    if not (res.key_length == key_bits == res.key_a.size == res.key_b.size):
        out.append(f"key length {res.key_length} != {key_bits}")
    if not (res.public_message_length == public_bits
            == res.public_message.size):
        out.append(f"public message {res.public_message_length} bits "
                   f"!= {public_bits}")
    if res.agreed != bool(np.array_equal(res.key_a, res.key_b)):
        out.append("agreed flag contradicts the keys")
    if res.bit_error_rate != float(np.mean(res.key_a != res.key_b)):
        out.append("bit error rate contradicts the keys")
    if not 1 <= res.iterations_used <= max_iter:
        out.append(f"iterations {res.iterations_used} outside [1, {max_iter}]")
    return out


class Keygen:
    """Default ``chankey keygen``: one ``run_session`` call per operation."""

    name = "keygen_10db"
    cycle = 1
    quality_ops = 100
    golden_ops = 3
    SNR_DB = 10.0
    RATE = 0.5

    def __init__(self, blocks=120):
        self.blocks = blocks

    def prepare(self, seed):
        self.seed = seed
        self.channel = load_config(ROOT / "configs" / "80211a.cfg")
        n = 2 * self.blocks * self.channel.num_delay_bins
        self.code = pipeline.make_plane_code(n, self.RATE, "regular",
                                             derive_seed(seed, 0xC0DE))
        self.key_bits = self.code.n - self.code.rank
        self.quantizer = Quantizer.equiprobable(2)

    def op(self, i) -> Op:
        config = pipeline.SessionConfig(
            channel=self.channel, snr_f_db=self.SNR_DB, blocks=self.blocks,
            quantizer=self.quantizer, code=self.code,
            seed=derive_seed(self.seed, i))
        res = pipeline.run_session(config)
        return Op(
            records=[(res.key_a_hex, res.key_b_hex, res.public_message_hex,
                      res.iterations_used, res.agreed,
                      res.syndrome_satisfied, repr(res.bit_error_rate))],
            work=1, sessions=1, agreed=int(res.agreed),
            key_bits=res.key_length if res.agreed else 0,
            problems=_session_problems(res, self.key_bits, self.code.m,
                                       config.max_iter))


# name, quantizer levels, decoding, code family, rate, SNR grid (dB), extras
WATERFALL_COMPONENTS = (
    ("soft_regular", 2, "soft", "regular", 0.5, (4.0, 5.0, 6.0), {}),
    ("soft_irregular", 2, "soft", "irregular", 0.5, (4.0, 5.0, 6.0), {}),
    ("hard_regular", 2, "hard", "regular", 0.5, (10.0,), {}),
    ("quaternary", 4, "soft", "regular", 0.625, (15.0,), {}),
    ("phase_track", 2, "soft", "irregular", 0.25, (18.0,),
     dict(channel=PHASE_CHANNEL, blocks=20, phase_mode="constant_theta",
          theta_grid_size=8)),
)


class Waterfall:
    """Scaled-down waterfall: one ``sweep_rate_vs_snr`` call per operation."""

    name = "waterfall_mix"
    cycle = len(WATERFALL_COMPONENTS)
    quality_ops = cycle
    golden_ops = cycle

    def __init__(self, trials=8, blocks=120):
        self.trials, self.blocks = trials, blocks

    def prepare(self, seed):
        """Template per component, built as ``chankey ldpc-waterfall`` does."""
        self.seed = seed
        table1 = load_config(ROOT / "configs" / "80211a.cfg")
        self.templates = []
        for _, levels, mode, family, rate, _, extra in WATERFALL_COMPONENTS:
            extra = dict(extra)
            channel = ChannelConfig(**extra.pop("channel")) \
                if "channel" in extra else table1
            blocks = extra.pop("blocks", self.blocks)
            n = 2 * blocks * channel.num_delay_bins
            code = pipeline.make_plane_code(n, rate, family,
                                            derive_seed(seed, 0xC0DE))
            code.systemization()
            self.templates.append(pipeline.SessionConfig(
                channel=channel, snr_f_db=0.0, blocks=blocks,
                quantizer=Quantizer.equiprobable(levels), code=code,
                decoding_mode=mode, seed=derive_seed(seed), **extra))

    def op(self, i) -> Op:
        name, levels, _, family, rate, grid, _ = \
            WATERFALL_COMPONENTS[i % self.cycle]
        # every call draws its own channels: calls that shared them would
        # make the work of a round depend on fewer independent draws
        template = dataclasses.replace(self.templates[i % self.cycle],
                                       seed=derive_seed(self.seed, i))
        rows = pipeline.sweep_rate_vs_snr(template, [rate], list(grid),
                                          self.trials, family=family)
        n, planes = template.code.n, 1 if levels == 2 else 2
        min_key = planes * (n - round(n * (1.0 - rate)))
        problems = []
        if [(r.rate, r.snr_db) for r in rows] != [(rate, s) for s in grid]:
            problems.append(f"{name}: rows do not match the requested grid")
        for r in rows:
            if not (r.sessions == self.trials and 0 <= r.agreed <= r.sessions
                    and 0.0 <= r.ber <= 1.0
                    and (r.agreed == r.sessions) == (r.ber == 0.0)
                    and min_key <= r.key_bits_per_session <= planes * n):
                problems.append(f"{name} at {r.snr_db} dB: "
                                f"inconsistent row {r}")
        sessions = sum(r.sessions for r in rows)
        return Op(
            records=[(name, r.rate, r.snr_db, r.sessions, r.agreed,
                      repr(r.ber), r.key_bits_per_session) for r in rows],
            work=sessions, sessions=sessions,
            agreed=sum(r.agreed for r in rows),
            key_bits=sum(r.agreed * r.key_bits_per_session for r in rows),
            problems=problems)


class CapacityMC:
    """Monte-Carlo capacity estimators, one estimator call per operation."""

    name = "capacity_mc"
    # strength-only capacity at L = 2, 5, 10; magnitude/phase split at 0,
    # 10, 20 dB; rotation information with an 8-point grid over L = 13
    CALLS = (("rssi", 2), ("rssi", 5), ("rssi", 10), ("magphase", 0.0),
             ("magphase", 10.0), ("magphase", 20.0), ("phase", 13))
    cycle = len(CALLS)
    quality_ops = cycle
    golden_ops = cycle
    M_TONES = 10
    RSSI_SNR_DB = 10.0
    PHASE_SNR = 1.0
    PHASE_GRID = 8

    def __init__(self, samples=200_000):
        self.samples = samples

    def prepare(self, seed):
        self.seed = seed

    def op(self, i) -> Op:
        kind, arg = self.CALLS[i % self.cycle]
        seed = derive_seed(self.seed, i // self.cycle, i % self.cycle)
        if kind == "rssi":
            return self._rssi(arg, seed)
        if kind == "magphase":
            return self._magphase(arg, seed)
        return self._phase(arg, seed)

    def _rssi(self, num_bins, seed) -> Op:
        snr = 10.0 ** (self.RSSI_SNR_DB / 10.0)
        rho = snr / (1.0 + snr)
        m = self.M_TONES
        report, est = capacity.rssi_capacity_numeric(
            flat_profile(snr, num_bins, m), m, self.samples, seed=seed)
        gauss = capacity.rssi_capacity_gaussian(rho, m)
        # per-observation mutual information, in bits
        err = abs(report.capacity_per_dim - gauss.capacity_per_dim) * 2 * m
        problems = _estimate_problems(est)
        if num_bins == 10 and err > max(SIGMAS * est.std_error,
                                        0.1 * gauss.capacity_per_dim * 2 * m):
            problems.append(f"numeric strength capacity off the Gaussian "
                            f"one by {err} bits at L=10")
        return Op(records=[("rssi", num_bins, repr(est.value),
                            repr(est.std_error))],
                  work=self.samples, abs_err=err if num_bins == 10 else None,
                  problems=problems)

    def _magphase(self, snr_db, seed) -> Op:
        rep = capacity.magphase_decomposition(10.0 ** (snr_db / 10.0),
                                              self.samples, seed=seed)
        parts = (rep.i_re, rep.i_im, rep.i_mag, rep.i_phase)
        err = abs(rep.i_re_plus_im - rep.i_full)
        problems = [p for est in parts for p in _estimate_problems(est)]
        if err > SIGMAS * rep.i_re_plus_im_se + 1e-9:
            problems.append(f"re+im misses i_full by {err} bits at "
                            f"{snr_db} dB")
        if rep.i_mag_plus_phase > rep.i_full + SIGMAS * rep.i_mag_plus_phase_se:
            problems.append(f"mag+phase exceeds i_full at {snr_db} dB")
        return Op(records=[("magphase", snr_db)
                           + tuple(repr(v) for est in parts
                                   for v in (est.value, est.std_error))],
                  work=self.samples, abs_err=err, problems=problems)

    def _phase(self, num_bins, seed) -> Op:
        est = capacity.phase_offset_loss(num_bins, self.PHASE_SNR,
                                         self.PHASE_GRID, self.samples,
                                         seed=seed)
        problems = _estimate_problems(est)
        if est.value > math.log2(self.PHASE_GRID) + SIGMAS * est.std_error:
            problems.append(f"rotation information {est.value} exceeds "
                            f"log2(grid)")
        return Op(records=[("phase", num_bins, repr(est.value),
                            repr(est.std_error))],
                  work=self.samples, problems=problems)


def _estimate_problems(est):
    if math.isfinite(est.value) and math.isfinite(est.std_error) \
            and est.value >= 0.0 and est.std_error >= 0.0:
        return []
    return [f"invalid estimate {est}"]


WORKLOADS = {w.name: w for w in (Keygen, Waterfall, CapacityMC)}

# The golden fixture runs the first ``golden_ops`` operations of each
# workload at GOLDEN_SEED with these (smaller) sizes.
GOLDEN_PARAMS = {"keygen_10db": {}, "waterfall_mix": {"trials": 2},
                 "capacity_mc": {"samples": 100_000}}
