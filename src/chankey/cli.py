"""Command-line harness for desk-scale experiments.

Each subcommand resolves its configuration, writes a manifest (seed,
package version, and as ``params`` the resolved ``--set`` settings plus the
values derived from flags) into the output directory, and emits CSV files
whose first line names the manifest hash, so any result file can be traced
to the exact run that produced it.  Runs are deterministic given
(config, seed).

Exit codes: 0 on success, 2 on configuration errors, 3 when a
self-checking experiment's built-in assertions fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, capacity
from .channel import (
    ChannelConfig,
    build_snr_profile,
    flat_profile,
    freq_coefficients,
    load_config,
    read_keyvalue_file,
    sample_paths,
    time_coefficients,
)
from .pipeline import (
    MIN_SWEEP_RATE,
    SessionConfig,
    make_plane_code,
    run_session,
    sweep_rate_vs_snr,
    waterfall_thresholds,
)
from .quantize import Quantizer
from .rng import derive_seed, split_streams
from .sounding import rotation_grid

TABLE1_DEFAULTS = dict(m_tones=52, bandwidth_hz=16.25e6, duration_s=3.2e-6,
                       n_paths=300, tau_max_s=800e-9)
DEFAULT_COHERENCE_S = 0.1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SELF_CHECK = 3


class ConfigError(Exception):
    pass


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got '{text}'")
    return int(text)


def _noise_variance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite non-negative float, got '{text}'")
    return value


# Flags beyond --seed, --out and --set; build_parser gives each subcommand
# only the ones its handler reads.
FLAGS = {
    "--config": dict(help="channel config file (key = value)"),
    "--trials": dict(type=_positive_int, help="sessions per grid point"),
    "--full": dict(action="store_true", help="full-scale sample counts"),
    "--noise": dict(type=_noise_variance, default=None,
                    help="noise variance (0 = noiseless)"),
}


# ---------------------------------------------------------------------------
# run bookkeeping


class Run:
    """Output directory, manifest, and self-check collection for one run."""

    def __init__(self, subcommand: str, args, settings: dict, **extras):
        self.out = Path(args.out) if args.out else Path(f"chankey_{subcommand}")
        self.manifest = {
            "subcommand": subcommand,
            "version": __version__,
            "seed": args.seed,
            "trials": getattr(args, "trials", None),
            "full": bool(getattr(args, "full", False)),
            "params": {**settings, **extras},
        }
        blob = json.dumps(self.manifest, sort_keys=True, default=str)
        self.hash = hashlib.sha256(blob.encode()).hexdigest()[:12]
        self.violations: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations.append(message)

    def path(self, name: str) -> Path:
        """``name`` in the output directory, which the first file creates,
        so a run rejected before it writes anything leaves no directory."""
        self.out.mkdir(parents=True, exist_ok=True)
        return self.out / name

    def write_csv(self, name: str, header, rows) -> Path:
        path = self.path(name)
        with open(path, "w") as fh:
            fh.write(f"# manifest: {self.hash}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        return path

    def finish(self) -> int:
        self.manifest["self_check"] = (
            "failed" if self.violations else "passed")
        self.manifest["violations"] = self.violations
        with open(self.path("manifest.json"), "w") as fh:
            json.dump(self.manifest, fh, sort_keys=True, indent=2, default=str)
            fh.write("\n")
        if self.violations:
            for v in self.violations:
                print(f"self-check failed: {v}", file=sys.stderr)
            return EXIT_SELF_CHECK
        return EXIT_OK


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _clip_hex(hexstr: str, limit: int = 32) -> str:
    return hexstr[:limit] + ("..." if len(hexstr) > limit else "")


def _channel_from_args(args) -> tuple[ChannelConfig, float]:
    """Channel config plus coherence time, from file or defaults."""
    coherence = DEFAULT_COHERENCE_S
    if args.config:
        cfg = load_config(args.config)
        extras = read_keyvalue_file(args.config)
        if "coherence_s" in extras:
            coherence = float(extras["coherence_s"])
    else:
        cfg = ChannelConfig(**TABLE1_DEFAULTS)
    return cfg, coherence


def _config_dict(cfg: ChannelConfig) -> dict:
    return {
        "m_tones": cfg.m_tones, "bandwidth_hz": cfg.bandwidth_hz,
        "duration_s": cfg.duration_s, "n_paths": cfg.n_paths,
        "tau_max_s": cfg.tau_max_s, "pdp_decay_s": cfg.decay_s,
        "profile": cfg.profile, "sigma_h2": cfg.sigma_h2,
    }


def _settings(args, defaults: dict) -> dict:
    """``defaults`` with each ``--set key=value`` in ``args`` applied.

    A value parses to the type of its default; a list default takes
    comma-separated values of its elements' type (float for an empty list).
    An unknown key, a missing or unreadable value, a NaN and an integer
    below 1 (every integer setting is a count) raise ConfigError naming the
    key.
    """
    settings = dict(defaults)
    for pair in args.set or ():
        key, _, text = (part.strip() for part in pair.partition("="))
        if key not in defaults:
            raise ConfigError(f"unknown override '{key}' (accepted: "
                              f"{', '.join(defaults)})")
        default = defaults[key]
        many = isinstance(default, list)
        kind = type(default[0] if default else 0.0) if many else type(default)
        try:
            values = [kind(tok.strip()) for tok in
                      (text.split(",") if many else [text]) if tok.strip()]
        except ValueError:
            raise ConfigError(f"--set {key}: cannot read '{text}' as "
                              f"{kind.__name__}") from None
        if not values:
            raise ConfigError(f"--set {key}: no value given")
        if kind is float and any(math.isnan(v) for v in values):
            raise ConfigError(f"--set {key}: not a number: '{text}'")
        if kind is int and min(values) < 1:
            raise ConfigError(f"--set {key}: a count must be at least 1, "
                              f"got {min(values)}")
        settings[key] = values if many else values[0]
    return settings


def _finite_snr(s: dict, allow_silence: bool = False):
    """The ``snr_db`` setting of ``s`` (a value or a list), checked finite.

    Key sessions need a finite SNR, and so do the points whose seeds use
    int(snr * 10).  ``allow_silence`` also lets -inf (no signal) through.
    """
    snr = s["snr_db"]
    bad = [v for v in (snr if isinstance(snr, list) else [snr])
           if not (math.isfinite(v) or (allow_silence and v == -math.inf))]
    if bad:
        also = " or -inf" if allow_silence else ""
        raise ConfigError(f"--set snr_db: must be finite{also} here, "
                          f"got {bad[0]}")
    return snr


def _quantizer(levels: int, thresholds: list) -> Quantizer:
    """Equiprobable cells, or the ``quantizer.thresholds`` given.

    Given thresholds must make a ``Quantizer`` and leave every cell a
    nonzero unit-Gaussian probability in double precision: an empty cell
    would make a key without entropy report success.
    """
    if not thresholds:
        return Quantizer.equiprobable(levels)
    from scipy.special import ndtr
    name = "--set quantizer.thresholds"
    try:
        quantizer = Quantizer(levels=levels, thresholds=tuple(thresholds))
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}, got {thresholds}") from None
    cells = np.diff(ndtr([-math.inf, *thresholds, math.inf]))
    if not np.all(cells > 0):
        raise ConfigError(f"{name}: cell {int(np.argmin(cells))} of "
                          f"{thresholds} has unit-Gaussian probability 0")
    return quantizer


# ---------------------------------------------------------------------------
# subcommands


def cmd_capacity_sweep(args) -> int:
    cfg, coherence = _channel_from_args(args)
    s = _settings(args, {"snr_db": [-5.0 + 2.5 * k for k in range(15)]})
    _finite_snr(s, allow_silence=True)
    run = Run("capacity_sweep", args, s, channel=_config_dict(cfg),
              coherence_s=coherence)
    rows = []
    for snr_db in s["snr_db"]:
        prof = build_snr_profile(cfg, snr_db)
        for profile_tag, report in (
            (cfg.profile, capacity.csi_capacity(prof, cfg.m_tones)),
            ("ideal_flat", capacity.csi_capacity_ideal(
                float(np.mean(prof.per_bin_snr)), cfg.num_delay_bins,
                cfg.m_tones)),
        ):
            timed = report.with_coherence(coherence)
            rows.append((snr_db, profile_tag, timed.capacity_per_dim,
                         timed.bits_per_coherence, timed.bits_per_second))
    run.write_csv("capacity_sweep.csv",
                  ["snr_db", "profile", "C_bits_per_dim",
                   "bits_per_coherence", "bits_per_second"], rows)
    by_snr = {r[0]: r for r in rows if r[1] == cfg.profile}
    if 20.0 in by_snr:
        run.check(88.0 <= by_snr[20.0][3] <= 115.0,
                  f"20 dB bits/coherence {by_snr[20.0][3]:.1f} outside [88, 115]")
    zero = [r for r in rows if r[0] <= -60]
    for r in zero:
        run.check(r[2] < 1e-6, "capacity not ~0 at tiny SNR")
    return run.finish()


def cmd_rssi_compare(args) -> int:
    s = _settings(args, {"m_tones": 10, "bins": [2, 5, 10],
                         "snr_db": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0],
                         "samples": 1_000_000 if args.full else 200_000})
    grid = _finite_snr(s)
    run = Run("rssi_compare", args, s)
    m_tones, bins_list = s["m_tones"], s["bins"]
    rows = []
    numeric = {}
    for snr_db in grid:
        snr_tau = 10.0 ** (snr_db / 10.0)
        rho = snr_tau / (1.0 + snr_tau)
        for num_bins in bins_list:
            prof = flat_profile(snr_tau, num_bins, m_tones)
            csi = capacity.csi_capacity_ideal(snr_tau, num_bins, m_tones)
            gauss = capacity.rssi_capacity_gaussian(rho, m_tones)
            rep, est = capacity.rssi_capacity_numeric(
                prof, m_tones, s["samples"],
                seed=derive_seed(args.seed, int(snr_db * 10), num_bins))
            numeric[(snr_db, num_bins)] = (rep, est, gauss, csi)
            rows.append((snr_db, num_bins, m_tones, "csi",
                         csi.capacity_per_dim, 0.0))
            rows.append((snr_db, num_bins, m_tones, "rssi_numeric",
                         rep.capacity_per_dim, est.std_error / (2 * m_tones)))
            rows.append((snr_db, num_bins, m_tones, "rssi_gaussian",
                         gauss.capacity_per_dim, 0.0))
    run.write_csv("rssi_compare.csv",
                  ["snr_db", "L", "M", "model", "capacity_bits_per_dim",
                   "std_err"], rows)
    for snr_db in grid:
        csi_by_l = [numeric[(snr_db, b)][3].capacity_per_dim for b in bins_list]
        run.check(all(b > a for a, b in zip(csi_by_l, csi_by_l[1:])),
                  f"CSI capacity not increasing in L at {snr_db} dB")
        gauss_by_l = {numeric[(snr_db, b)][2].capacity_per_dim
                      for b in bins_list}
        run.check(len(gauss_by_l) == 1,
                  f"Gaussian strength capacity depends on L at {snr_db} dB")
        if 10 in bins_list and snr_db >= 5:
            rep, est, gauss, _ = numeric[(snr_db, 10)]
            tol = max(3 * est.std_error / (2 * m_tones),
                      0.10 * gauss.capacity_per_dim)
            run.check(abs(rep.capacity_per_dim - gauss.capacity_per_dim) <= tol,
                      f"numeric vs Gaussian strength capacity at {snr_db} dB")
    return run.finish()


def cmd_magphase(args) -> int:
    s = _settings(args, {"snr_db": [0.0, 5.0, 10.0, 15.0, 20.0],
                         "samples": 1_000_000 if args.full else 200_000})
    grid = _finite_snr(s)
    run = Run("magphase", args, s)
    rows = []
    for snr_db in grid:
        snr = 10.0 ** (snr_db / 10.0)
        rep = capacity.magphase_decomposition(
            snr, s["samples"], seed=derive_seed(args.seed, int(snr_db * 10)))
        rows.append((snr_db, rep.i_full, rep.i_re_plus_im,
                     rep.i_re_plus_im_se, rep.i_mag_plus_phase,
                     rep.i_mag_plus_phase_se, rep.i_mag.value,
                     rep.i_phase.value))
        run.check(abs(rep.i_re_plus_im - rep.i_full)
                  <= 3 * rep.i_re_plus_im_se + 1e-9,
                  f"real/imag split misses total at {snr_db} dB")
        run.check(rep.i_mag_plus_phase
                  <= rep.i_full + 3 * rep.i_mag_plus_phase_se,
                  f"mag/phase sum exceeds total at {snr_db} dB")
        if snr_db >= 5:
            run.check(rep.i_full - rep.i_mag_plus_phase
                      > 3 * rep.i_mag_plus_phase_se,
                      f"no mag/phase gap at {snr_db} dB")
            run.check(rep.i_phase.value > rep.i_mag.value,
                      f"phase does not dominate magnitude at {snr_db} dB")
    run.write_csv("magphase.csv",
                  ["snr_db", "i_full", "i_re_plus_im", "i_re_plus_im_se",
                   "i_mag_plus_phase", "i_mag_plus_phase_se", "i_mag",
                   "i_phase"], rows)
    return run.finish()


def cmd_corr_matrix(args) -> int:
    cfg, _ = _channel_from_args(args)
    s = _settings(args, {
        "realizations": 1_000_000 if args.full else 100_000})
    run = Run("corr_matrix", args, s, channel=_config_dict(cfg))
    realizations = s["realizations"]
    m, L = cfg.m_tones, cfg.num_delay_bins
    sum_f = np.zeros((m, m), dtype=complex)
    sum_t = np.zeros((L, L), dtype=complex)
    chunk = 2000
    done = 0
    streams = split_streams(args.seed, math.ceil(realizations / chunk))
    for rng in streams:
        count = min(chunk, realizations - done)
        freqs = np.empty((count, m), dtype=complex)
        times = np.empty((count, L), dtype=complex)
        for i in range(count):
            paths = sample_paths(cfg, rng)
            freqs[i] = freq_coefficients(paths, cfg)
            times[i] = time_coefficients(paths, cfg)
        sum_f += freqs.conj().T @ freqs
        sum_t += times.conj().T @ times
        done += count
        if done >= realizations:
            break
    var_f = np.real(np.diag(sum_f))
    var_t = np.real(np.diag(sum_t))
    corr_f = np.abs(sum_f) / np.sqrt(np.outer(var_f, var_f))
    corr_t = np.abs(sum_t) / np.sqrt(np.outer(var_t, var_t))
    run.write_csv("freq_corr.csv", [f"c{j}" for j in range(m)], corr_f)
    run.write_csv("time_corr.csv", [f"c{j}" for j in range(L)], corr_t)
    off_t = corr_t - np.diag(np.diag(corr_t))
    off_f = corr_f - np.diag(np.diag(corr_f))
    run.check(bool(np.all(np.diag(corr_f) == 1.0)), "freq diagonal not unit")
    run.check(float(off_t.max()) < 0.05,
              f"sampled coefficients correlated: {off_t.max():.3f}")
    run.check(float(off_f.max()) > 0.3,
              f"tone correlations implausibly weak: {off_f.max():.3f}")
    return run.finish()


# The soft grids extend to the hard grid's top so threshold comparisons
# never hinge on SNRs only one variant probed.
WATERFALL_VARIANTS = {
    "binary_regular_soft": dict(levels=2, family="regular", mode="soft",
                                snr_lo=4.0, snr_hi=17.0),
    "binary_regular_hard": dict(levels=2, family="regular", mode="hard",
                                snr_lo=7.0, snr_hi=17.0),
    "binary_irregular_soft": dict(levels=2, family="irregular", mode="soft",
                                  snr_lo=3.0, snr_hi=17.0),
    "quaternary_regular_soft": dict(levels=4, family="regular", mode="soft",
                                    snr_lo=9.0, snr_hi=20.0),
}


def cmd_ldpc_waterfall(args) -> int:
    cfg, _ = _channel_from_args(args)
    s = _settings(args, {"rates": [0.25, 0.5, 0.625, 0.75],
                         "variants": list(WATERFALL_VARIANTS), "blocks": 120,
                         "snr_step": 1.0, "snr_db": []})
    _finite_snr(s)
    rates, variants, blocks = s["rates"], s["variants"], s["blocks"]
    for variant in variants:
        if variant not in WATERFALL_VARIANTS:
            raise ConfigError(f"unknown variant '{variant}' (accepted: "
                              f"{', '.join(WATERFALL_VARIANTS)})")
    if not s["snr_step"] > 0:
        raise ConfigError(f"--set snr_step: must be positive, "
                          f"got {s['snr_step']}")
    kept = [rate for rate in rates if rate >= MIN_SWEEP_RATE]
    if not kept:
        raise ConfigError(f"--set rates: the sweep skips rates below "
                          f"{MIN_SWEEP_RATE}, got {rates}")
    trials = args.trials or (400 if args.full else 100)
    run = Run("ldpc_waterfall", args, s, channel=_config_dict(cfg),
              trials=trials)
    n_data = 2 * blocks * cfg.num_delay_bins
    point_rows = []
    thresholds = {}
    throughput = {}
    for variant in variants:
        vconf = WATERFALL_VARIANTS[variant]
        quantizer = Quantizer.equiprobable(vconf["levels"])
        template = SessionConfig(
            channel=cfg, snr_f_db=0.0, blocks=blocks, quantizer=quantizer,
            code=make_plane_code(n_data, kept[0], vconf["family"],
                                 derive_seed(args.seed, 0xC0DE)),
            decoding_mode=vconf["mode"], seed=derive_seed(args.seed))
        snr_grid = s["snr_db"] or list(np.arange(
            vconf["snr_lo"], vconf["snr_hi"] + 1e-9, s["snr_step"]))
        rows = sweep_rate_vs_snr(template, rates, snr_grid, trials,
                                 family=vconf["family"])
        thresholds[variant] = waterfall_thresholds(rows)
        for row in rows:
            prof = build_snr_profile(cfg, row.snr_db)
            cap = capacity.csi_capacity(prof, cfg.m_tones).capacity_per_dim
            key_rate = row.key_bits_per_session / (2 * blocks * cfg.m_tones)
            point_rows.append((variant, row.rate, row.snr_db, row.sessions,
                               row.agreed, row.ber, row.key_bits_per_session,
                               key_rate, cap))
            if row.achieved():
                run.check(key_rate <= cap,
                          f"{variant} rate {row.rate} at {row.snr_db} dB "
                          f"beats capacity")
            if row.snr_db >= 15.0 and row.achieved():
                kind = "quaternary" if vconf["levels"] == 4 else "binary"
                if vconf["mode"] == "soft":
                    throughput[kind] = max(throughput.get(kind, 0),
                                           row.key_bits_per_session)
    run.write_csv("waterfall_points.csv",
                  ["variant", "rate", "snr_db", "sessions", "agreed", "ber",
                   "key_bits", "key_rate_per_dim", "capacity_per_dim"],
                  point_rows)
    thr_rows = [(variant, rate, "" if snr is None else snr)
                for variant, per_rate in thresholds.items()
                for rate, snr in sorted(per_rate.items())]
    run.write_csv("waterfall_thresholds.csv",
                  ["variant", "rate", "threshold_snr_db"], thr_rows)

    def compare(a, b, slack, label):
        if a not in thresholds or b not in thresholds:
            return
        for rate in thresholds[a]:
            ta, tb = thresholds[a].get(rate), thresholds[b].get(rate)
            if ta is None or tb is None:
                # only "b achieved where a never did" breaks the ordering
                run.check(not (ta is None and tb is not None),
                          f"{label}: rate {rate} achieved only by {b}")
                continue
            run.check(ta <= tb + slack,
                      f"{label} violated at rate {rate}: {ta} vs {tb}")

    compare("binary_regular_soft", "binary_regular_hard", 0.0,
            "soft <= hard threshold")
    compare("binary_irregular_soft", "binary_regular_soft", 0.5,
            "irregular <= regular + 0.5 dB")
    if {"binary", "quaternary"} <= throughput.keys():
        run.check(throughput["quaternary"] >= throughput["binary"],
                  "4-ary throughput below binary at >= 15 dB")
    return run.finish()


def cmd_keygen(args) -> int:
    cfg, _ = _channel_from_args(args)
    snr_db = 10.0
    if args.noise is not None:
        if any(pair.partition("=")[0].strip() == "snr_db"
               for pair in args.set or ()):
            raise ConfigError("give --noise or --set snr_db, not both")
        snr_db = 200.0 if args.noise == 0 else 10 * math.log10(
            cfg.sigma_h2 / args.noise)
    s = _settings(args, {"rate": 0.5, "levels": 2, "quantizer.thresholds": [],
                         "mode": "soft", "blocks": 120, "snr_db": snr_db})
    rate, mode, blocks = s["rate"], s["mode"], s["blocks"]
    snr_db = _finite_snr(s)
    quantizer = _quantizer(s["levels"], s["quantizer.thresholds"])
    sessions = args.trials or 10
    run = Run("keygen", args, s, channel=_config_dict(cfg), sessions=sessions)
    n_data = 2 * blocks * cfg.num_delay_bins
    code = make_plane_code(n_data, rate, "regular",
                           derive_seed(args.seed, 0xC0DE))
    agreed = 0
    lines = []
    for t in range(sessions):
        session = SessionConfig(channel=cfg, snr_f_db=snr_db, blocks=blocks,
                                quantizer=quantizer, code=code,
                                decoding_mode=mode,
                                seed=derive_seed(args.seed, t))
        res = run_session(session)
        agreed += int(res.agreed)
        lines.append(f"{t}, {snr_db}, {rate}, {mode}, "
                     f"{str(res.agreed).lower()}, {res.bit_error_rate!r}, "
                     f"{res.key_length}, {res.iterations_used}")
        print(f"session {t}: agreed={res.agreed} "
              f"syndrome={_clip_hex(res.public_message_hex)} "
              f"key_a={_clip_hex(res.key_a_hex)} "
              f"key_b={_clip_hex(res.key_b_hex)}")
    with open(run.path("sessions.log"), "w") as fh:
        fh.write(f"# manifest: {run.hash}\n")
        fh.write("# seed, snr_db, rate, mode, agreed, ber, key_len_bits, iterations\n")
        fh.write("\n".join(lines) + "\n")
    print(f"agreement: {agreed}/{sessions}")
    return run.finish()


def cmd_phase_demo(args) -> int:
    s = _settings(args, {"grid": 8, "snr_db": 18.0, "blocks": 20})
    grid_size, blocks = s["grid"], s["blocks"]
    snr_db = _finite_snr(s)
    trials = args.trials or (100 if args.full else 20)
    cfg = ChannelConfig(**TABLE1_DEFAULTS | dict(n_paths=100, profile="flat"))
    run = Run("phase_demo", args, s, trials=trials)
    n_data = 2 * blocks * cfg.num_delay_bins
    code = make_plane_code(n_data, 0.25, "irregular",
                           derive_seed(args.seed, 0xC0DE))
    template = SessionConfig(channel=cfg, snr_f_db=snr_db, blocks=blocks,
                             quantizer=Quantizer.equiprobable(2), code=code)
    grid = rotation_grid(grid_size)
    half = math.pi / grid_size
    thetas = sorted(set(list(grid) + [g + half for g in grid]))

    def batch(theta, tracked):
        ok = 0
        errs = []
        if tracked:
            base = replace(template, phase_mode="constant_theta",
                           theta_grid_size=grid_size, theta=theta)
        elif theta:
            # rotation applied but not tracked: decode assuming zero
            base = replace(template, phase_mode="constant_theta",
                           theta_grid_size=1, theta=theta)
        else:
            base = template
        for t in range(trials):
            res = run_session(replace(base, seed=derive_seed(args.seed, t)))
            ok += int(res.agreed)
            if tracked and res.theta_error is not None:
                errs.append(res.theta_error)
        return ok / trials, errs

    rows = []
    all_errs = []
    for theta in thetas:
        on_grid = any(abs(theta - g) < 1e-12 for g in grid)
        with_rate, errs = batch(theta, tracked=True)
        without_rate, _ = batch(theta, tracked=False)
        rows.append((theta, on_grid, with_rate, without_rate,
                     float(np.mean(errs)) if errs else 0.0))
        if on_grid:
            all_errs.extend(errs)
    run.write_csv("phase_demo.csv",
                  ["theta_true", "on_grid", "success_with_tracking",
                   "success_without_tracking", "mean_abs_theta_err"], rows)
    edges = np.linspace(0, math.pi, 17)
    hist, _ = np.histogram(all_errs, bins=edges)
    run.write_csv("theta_err_hist.csv", ["bin_lo", "bin_hi", "count"],
                  [(edges[i], edges[i + 1], int(hist[i]))
                   for i in range(len(hist))])

    base_plain = [r for r in rows if r[0] == 0.0][0][3]
    rotated = [r for r in rows if abs(r[0] - math.pi / 2) < 1e-9]
    if rotated:
        run.check(rotated[0][3] <= base_plain - 0.5,
                  "untracked quarter-turn did not collapse decoding")
    on_grid_rows = [r for r in rows if r[1]]
    run.check(all(r[2] >= base_plain - 0.1 for r in on_grid_rows),
              "tracking failed to restore an on-grid rotation")
    run.check(all(r[4] < 1e-6 for r in on_grid_rows),
              "on-grid rotation estimates not exact")
    return run.finish()


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chankey",
        description="Secret key generation from multipath channel randomness",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    commands = {
        "capacity-sweep": (cmd_capacity_sweep, ("--config",),
                           "Key capacity vs SNR for the configured channel"),
        "rssi-compare": (cmd_rssi_compare, ("--full",),
                         "Full-coefficient vs signal-strength capacity"),
        "magphase": (cmd_magphase, ("--full",),
                     "Real/imaginary vs magnitude/phase information split"),
        "corr-matrix": (cmd_corr_matrix, ("--config", "--full"),
                        "Empirical coefficient correlation matrices"),
        "ldpc-waterfall": (cmd_ldpc_waterfall,
                           ("--config", "--trials", "--full"),
                           "Reconciliation error rate vs rate and SNR"),
        "keygen": (cmd_keygen, ("--config", "--trials", "--noise"),
                   "Run end-to-end key sessions"),
        "phase-demo": (cmd_phase_demo, ("--trials", "--full"),
                       "Rotation tracking on and off the hypothesis grid"),
    }
    for name, (func, flags, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=1, help="experiment seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="experiment-specific overrides")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
