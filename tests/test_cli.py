import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import chankey
from chankey import pipeline
from chankey.channel import (
    PathSet,
    freq_coefficients,
    load_config,
    sample_paths,
    time_coefficients,
)
from chankey.cli import RHO_ONE_DB, _independence_bound, build_parser, main
from chankey.rng import row_chunks, split_streams

TABLE1_CFG = Path(__file__).resolve().parents[1] / "configs" / "80211a.cfg"


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_capacity_sweep_table1(tmp_path):
    out = tmp_path / "cs"
    code = run_cli("capacity-sweep", "--config", TABLE1_CFG, "--seed", 3,
                   "--out", out)
    assert code == 0
    lines = (out / "capacity_sweep.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1].split(",")[0] == "snr_db"
    rows = [line.split(",") for line in lines[2:]]
    row20 = [r for r in rows if r[0] == "20.0" and r[1] == "exponential"][0]
    assert 88.0 <= float(row20[3]) <= 115.0
    assert 880.0 <= float(row20[4]) <= 1150.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["self_check"] == "passed"


def test_capacity_sweep_checks_table1_band_on_its_channel_only(
        tmp_path, monkeypatch):
    # 8 tones carry far fewer than Table I's 88-115 bits per coherence time
    path = tmp_path / "tones8.cfg"
    path.write_text("m_tones = 8\nbandwidth_hz = 2.5e6\nduration_s = 3.2e-6\n"
                    "n_paths = 300\ntau_max_s = 800e-9\n")
    assert run_cli("capacity-sweep", "--config", path,
                   "--out", tmp_path / "t8") == 0
    monkeypatch.setattr("chankey.claims.table1_capacity",
                        lambda report: (False, "forced"))
    for config in ((), ("--config", TABLE1_CFG)):
        assert run_cli("capacity-sweep", *config,
                       "--out", tmp_path / f"t{len(config)}") == 3


def test_capacity_sweep_zero_snr_row(tmp_path):
    out = tmp_path / "cs0"
    code = run_cli("capacity-sweep", "--config", TABLE1_CFG, "--seed", 3,
                   "--out", out, "--set", "snr_db=-inf,20")
    assert code == 0
    lines = (out / "capacity_sweep.csv").read_text().splitlines()
    zero_rows = [line for line in lines[2:] if line.startswith("-inf,")]
    assert zero_rows
    for row in zero_rows:
        assert float(row.split(",")[2]) == 0.0


def test_outputs_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli("capacity-sweep", "--config", TABLE1_CFG, "--seed", 9,
                       "--out", out) == 0
    assert (out_a / "capacity_sweep.csv").read_bytes() == \
        (out_b / "capacity_sweep.csv").read_bytes()
    assert (out_a / "manifest.json").read_bytes() == \
        (out_b / "manifest.json").read_bytes()


def test_keygen_noiseless_identical_keys(tmp_path, capsys):
    out = tmp_path / "kg"
    code = run_cli("keygen", "--seed", 4, "--out", out, "--trials", 2,
                   "--set", "snr_db=200", "--set", "blocks=12")
    assert code == 0
    stdout = capsys.readouterr().out
    assert "agreement: 2/2" in stdout
    log = (out / "sessions.log").read_text().splitlines()
    assert log[0].startswith("# manifest: ")
    assert log[1].startswith("# seed, snr_db, rate, mode")
    for line in log[2:]:
        fields = [f.strip() for f in line.split(",")]
        assert fields[4] == "true"
        assert float(fields[5]) == 0.0


def test_keygen_log_deterministic(tmp_path):
    outs = [tmp_path / "k1", tmp_path / "k2"]
    for out in outs:
        assert run_cli("keygen", "--seed", 11, "--out", out, "--trials", 2,
                       "--set", "blocks=12", "--set", "snr_db=15") == 0
    assert (outs[0] / "sessions.log").read_bytes() == \
        (outs[1] / "sessions.log").read_bytes()


def test_missing_config_exits_2(tmp_path):
    assert run_cli("capacity-sweep", "--config", tmp_path / "nope.cfg") == 2


def test_non_finite_config_value_exits_2_naming_field(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    text = TABLE1_CFG.read_text()
    assert "tau_max_s    = 800e-9" in text
    cfg.write_text(text.replace("tau_max_s    = 800e-9", "tau_max_s = nan"))
    out = tmp_path / "x"
    assert run_cli("capacity-sweep", "--config", cfg, "--out", out) == 2
    assert "tau_max_s" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["n_paths = inf", "m_tones = nan",
                                  "m_tones = 2.7"])
def test_non_integral_config_count_exits_2_naming_key(tmp_path, capsys, line):
    key = line.partition(" ")[0]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TABLE1_CFG.read_text() + line + "\n")
    out = tmp_path / "x"
    assert run_cli("capacity-sweep", "--config", cfg, "--out", out) == 2
    assert f"{key} must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_override_exits_2(tmp_path):
    assert run_cli("keygen", "--out", tmp_path / "x", "--set", "blocks") == 2


@pytest.mark.parametrize("subcommand, typo", [
    ("keygen", "rat=0.9"), ("ldpc-waterfall", "block=12"),
    ("keygen", "quantizer.levels=4"), ("ldpc-waterfall", "snr_step=1"),
])
def test_unknown_override_exits_2(tmp_path, capsys, subcommand, typo):
    key = typo.partition("=")[0]
    assert run_cli(subcommand, "--out", tmp_path / "x", "--trials", 1,
                   "--set", typo, "--set", "snr_db=20") == 2
    assert f"unknown override '{key}'" in capsys.readouterr().err


def test_self_check_failure_exits_3(tmp_path):
    # with tau_max = T every tone is independent: the tone-correlation
    # self-check of corr-matrix must fail
    cfg = tmp_path / "flatwide.cfg"
    cfg.write_text("m_tones = 8\nbandwidth_hz = 2.5e6\nduration_s = 3.2e-6\n"
                   "n_paths = 40\ntau_max_s = 3.2e-6\nprofile = flat\n")
    out = tmp_path / "cm"
    code = run_cli("corr-matrix", "--config", cfg, "--seed", 5, "--out", out,
                   "--set", "realizations=4000")
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["self_check"] == "failed"
    assert manifest["violations"]


def test_corr_matrix_one_tone_passes(tmp_path):
    # M = T W = 1: no off-diagonal tone, so no tone-correlation claim
    cfg = tmp_path / "one_tone.cfg"
    cfg.write_text(TABLE1_CFG.read_text().replace(
        "m_tones      = 52", "m_tones = 1").replace(
        "bandwidth_hz = 16.25e6", "bandwidth_hz = 0.3125e6"))
    out = tmp_path / "cm"
    code = run_cli("corr-matrix", "--config", cfg, "--seed", 6,
                   "--out", out, "--set", "realizations=2000")
    assert code == 0
    freq = np.loadtxt(out / "freq_corr.csv", delimiter=",", skiprows=2)
    assert freq.shape == ()


def test_corr_matrix_names_delay_bins_no_path_reached(tmp_path):
    # one path per realization reaches one delay bin: in 10 realizations
    # some of the 13 bins get none and have no correlation to report
    cfg = tmp_path / "one_path.cfg"
    cfg.write_text(TABLE1_CFG.read_text().replace(
        "n_paths      = 300", "n_paths = 1"))
    out = tmp_path / "cm"
    assert run_cli("corr-matrix", "--config", cfg, "--out", out,
                   "--set", "realizations=10") == 3
    time = np.loadtxt(out / "time_corr.csv", delimiter=",", skiprows=2)
    empty = np.flatnonzero(np.isnan(time.diagonal()))
    live = np.flatnonzero(~np.isnan(time.diagonal()))
    assert empty.size and live.size >= 2
    assert np.isnan(time[empty]).all() and np.isnan(time[:, empty]).all()
    assert np.isfinite(time[np.ix_(live, live)]).all()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["violations"] == [
        f"delay bins {', '.join(map(str, empty))} received no path in 10 "
        f"realizations"]
    assert run_cli("corr-matrix", "--config", cfg, "--out", tmp_path / "ok",
                   "--set", "realizations=100") == 0


def test_corr_matrix_table1_small(tmp_path):
    out = tmp_path / "cm"
    code = run_cli("corr-matrix", "--config", TABLE1_CFG, "--seed", 6,
                   "--out", out, "--set", "realizations=8000")
    assert code == 0
    freq = np.loadtxt(out / "freq_corr.csv", delimiter=",", skiprows=2)
    time = np.loadtxt(out / "time_corr.csv", delimiter=",", skiprows=2)
    assert freq.shape == (52, 52)
    assert time.shape == (13, 13)
    assert np.all(freq.diagonal() == 1.0)
    assert (time - np.eye(13)).max() < 0.05
    assert (freq - np.eye(52)).max() > 0.3


def _max_off_diagonal_corr(h):
    """Largest off-diagonal |corr| of the columns of h, as corr-matrix forms
    it from zero-mean sums."""
    sums = h.conj().T @ h
    var = np.real(np.diag(sums))
    corr = np.abs(sums) / np.sqrt(np.outer(var, var))
    return (corr - np.diag(np.diag(corr))).max()


def test_independence_bound_holds_for_independent_bins_only():
    # 500 draws of 13 independent bins over R = 1,000 realizations stay
    # below the bound (expected false alarms 500 x 1e-6); two bins
    # correlated at 0.3 exceed it
    R, L = 1000, 13
    bound = _independence_bound(R, L)
    rng = np.random.default_rng(0)
    for _ in range(500):
        h = rng.standard_normal((R, L)) + 1j * rng.standard_normal((R, L))
        assert _max_off_diagonal_corr(h) <= bound
    h[:, 1] = 0.3 * h[:, 0] + math.sqrt(1 - 0.3**2) * h[:, 1]
    assert _max_off_diagonal_corr(h) > bound
    # the bound shrinks as 1/sqrt(R) and grows with the number of pairs
    assert _independence_bound(4 * R, L) == pytest.approx(bound / 2)
    assert _independence_bound(R, 2 * L) > bound


def _corr_reference(cfg, seed, realizations, chunk=2000):
    """corr-matrix's (tone, delay-bin) correlations, one draw per call."""
    m, L = cfg.m_tones, cfg.num_delay_bins
    sum_f = np.zeros((m, m), dtype=complex)
    sum_t = np.zeros((L, L), dtype=complex)
    streams = split_streams(seed, math.ceil(realizations / chunk))
    for c, rng in enumerate(streams):
        count = min(chunk, realizations - c * chunk)
        freqs = np.empty((count, m), dtype=complex)
        times = np.empty((count, L), dtype=complex)
        for i in range(count):
            paths = sample_paths(cfg, [rng])
            one = PathSet(delays=paths.delays[0], gains=paths.gains[0])
            freqs[i] = freq_coefficients(one, cfg)
            times[i] = time_coefficients(one, cfg)
        sum_f += freqs.conj().T @ freqs
        sum_t += times.conj().T @ times
    out = []
    for total in (sum_f, sum_t):
        var = np.real(np.diag(total))
        out.append(np.abs(total) / np.sqrt(np.outer(var, var)))
    return out


@pytest.mark.golden
def test_corr_matrix_matches_per_realization_draws(tmp_path):
    # 2,037 realizations take a second stream after 2,000, and the first
    # stream's rows come in sub-chunks whose last one is partial
    path = tmp_path / "small.cfg"
    path.write_text("m_tones = 8\nbandwidth_hz = 2.5e6\nduration_s = 3.2e-6\n"
                    "n_paths = 12\ntau_max_s = 1.6e-6\n")
    cfg = load_config(path)
    pieces = row_chunks(2000, 16 * max(cfg.n_paths, 2 * cfg.num_delay_bins))
    assert pieces[-1].stop - pieces[-1].start < pieces[0].stop
    out = tmp_path / "cm"
    code = run_cli("corr-matrix", "--config", path, "--seed", 12,
                   "--out", out, "--set", "realizations=2037")
    assert code == 0
    ref_f, ref_t = _corr_reference(cfg, 12, 2037)
    for name, ref in (("freq_corr.csv", ref_f), ("time_corr.csv", ref_t)):
        # repr() round-trips, so the parsed values are the written bits
        got = np.loadtxt(out / name, delimiter=",", skiprows=2)
        assert np.array_equal(got, ref), name


@pytest.mark.parametrize("value", ["0", "-0.1", "nan", "inf", "abc"])
def test_bad_coherence_time_exit_2(tmp_path, capsys, value):
    path = tmp_path / "link.cfg"
    path.write_text(re.sub(r"(?m)^coherence_s .*$", f"coherence_s = {value}",
                           TABLE1_CFG.read_text()))
    assert f"coherence_s = {value}\n" in path.read_text()
    out = tmp_path / "x"
    assert run_cli("capacity-sweep", "--config", path, "--out", out) == 2
    err = capsys.readouterr().err
    assert "coherence_s" in err and str(path) in err
    assert not out.exists()


def test_rssi_compare_small(tmp_path):
    out = tmp_path / "rc"
    code = run_cli("rssi-compare", "--seed", 7, "--out", out,
                   "--set", "samples=50000", "--set", "snr_db=10,20")
    assert code == 0
    lines = (out / "rssi_compare.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header == ["snr_db", "L", "M", "model", "capacity_bits_per_dim",
                      "std_err"]
    gaussian = {}
    for line in lines[2:]:
        snr, L, M, model, cap, se = line.split(",")
        if model == "rssi_gaussian":
            gaussian.setdefault(snr, set()).add(cap)
    for snr, values in gaussian.items():
        assert len(values) == 1  # identical across L to machine precision


def test_waterfall_small(tmp_path):
    out = tmp_path / "wf"
    code = run_cli("ldpc-waterfall", "--seed", 8, "--out", out, "--trials", 3,
                   "--set", "blocks=24", "--set", "rates=0.5",
                   "--set", "snr_db=8,12,16",
                   "--set", "variants=binary_regular_soft,binary_regular_hard")
    assert code == 0
    thr = (out / "waterfall_thresholds.csv").read_text().splitlines()
    values = {line.split(",")[0]: line.split(",")[2] for line in thr[2:]}
    assert float(values["binary_regular_soft"]) <= \
        float(values["binary_regular_hard"])


@pytest.fixture
def built_codes(monkeypatch):
    """(family, rate) of each code the CLI and the sweep build, in order.

    The constructions are wrapped as ``pipeline`` binds them, so a code that
    ``make_plane_code`` hands out again is not counted again."""
    built = []

    def counting(family, build):
        def wrapper(n, m, *args, **kwargs):
            built.append((family, 1.0 - m / n))
            return build(n, m, *args, **kwargs)
        return wrapper

    for family in ("regular", "irregular"):
        name = f"construct_{family}"
        monkeypatch.setattr(pipeline, name,
                            counting(family, getattr(pipeline, name)))
    return built


def test_waterfall_builds_each_code_once(tmp_path, built_codes):
    # the template's code is the sweep's code at the first rate
    code = run_cli("ldpc-waterfall", "--seed", 4, "--out", tmp_path / "wf",
                   "--trials", 1, "--set", "blocks=10",
                   "--set", "rates=0.5,0.75", "--set", "snr_db=25",
                   "--set", "variants=binary_regular_soft,"
                            "binary_irregular_soft")
    assert code == 0
    assert sorted(built_codes) == [("irregular", 0.5), ("irregular", 0.75),
                                   ("regular", 0.5), ("regular", 0.75)]


def test_waterfall_variants_of_a_family_share_its_codes(tmp_path,
                                                        built_codes):
    assert run_cli("ldpc-waterfall", "--seed", 4, "--out", tmp_path / "wf",
                   "--trials", 1, "--set", "blocks=10",
                   "--set", "rates=0.5,0.75", "--set", "snr_db=25",
                   "--set", "variants=binary_regular_soft,"
                            "binary_regular_hard,quaternary_regular_soft") == 0
    assert built_codes == [("regular", 0.5), ("regular", 0.75)]


def test_waterfall_template_at_first_kept_rate(tmp_path, built_codes):
    # the sweep skips rate 0.1, so the template must not be built there
    assert run_cli("ldpc-waterfall", "--out", tmp_path / "wf", "--trials", 1,
                   "--set", "rates=0.1,0.5", "--set", "blocks=10",
                   "--set", "variants=binary_regular_soft",
                   "--set", "snr_db=10") == 0
    assert built_codes == [("regular", 0.5)]


def test_waterfall_one_sided_threshold_ok(tmp_path):
    # soft achieving a rate that hard never reaches respects the ordering
    # and must not trip the self-check
    out = tmp_path / "wf1s"
    code = run_cli("ldpc-waterfall", "--seed", 13, "--out", out, "--trials", 3,
                   "--set", "blocks=24", "--set", "rates=0.5",
                   "--set", "snr_db=9,10",
                   "--set", "variants=binary_regular_soft,binary_regular_hard")
    assert code == 0
    thr = (out / "waterfall_thresholds.csv").read_text().splitlines()
    values = {line.split(",")[0]: line.split(",")[2] for line in thr[2:]}
    assert values["binary_regular_soft"] != ""
    assert values["binary_regular_hard"] == ""


def test_phase_demo_small(tmp_path):
    out = tmp_path / "pd"
    code = run_cli("phase-demo", "--seed", 9, "--out", out, "--trials", 3,
                   "--set", "blocks=10", "--set", "grid=4")
    assert code == 0
    lines = (out / "phase_demo.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    on_grid = [r for r in rows if r[1] == "true"]
    assert all(float(r[4]) < 1e-6 for r in on_grid)
    assert (out / "theta_err_hist.csv").exists()


def test_phase_demo_judges_its_claims_at_its_operating_point_only(
        tmp_path, monkeypatch):
    # criterion 9 and the quarter-turn collapse are claims about 18 dB: a
    # forced failure shows there, and a -20 dB run is not judged on them
    monkeypatch.setattr("chankey.claims.rotation_tracking",
                        lambda baseline, points: (False, "forced"))
    small = ("--seed", 9, "--trials", 2, "--set", "blocks=4",
             "--set", "grid=4")
    assert run_cli("phase-demo", *small, "--set", "snr_db=18",
                   "--out", tmp_path / "at18") == 3
    out = tmp_path / "low"
    assert run_cli("phase-demo", *small, "--set", "snr_db=-20",
                   "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["violations"] == []


def test_magphase_small(tmp_path):
    out = tmp_path / "mp"
    code = run_cli("magphase", "--seed", 10, "--out", out,
                   "--set", "samples=150000", "--set", "snr_db=10")
    assert code == 0
    lines = (out / "magphase.csv").read_text().splitlines()
    row = lines[2].split(",")
    i_full, i_re_im = float(row[1]), float(row[2])
    assert i_re_im == pytest.approx(i_full, rel=0.05)


@pytest.mark.parametrize("subcommand, flag", [
    ("capacity-sweep", "--trials=2"), ("rssi-compare", "--trials=2"),
    ("magphase", "--trials=2"), ("corr-matrix", "--trials=2"),
    ("rssi-compare", "--config=nope.cfg"), ("magphase", "--config=nope.cfg"),
    ("phase-demo", "--config=nope.cfg"),
    ("capacity-sweep", "--full"), ("keygen", "--full"),
    ("ldpc-waterfall", "--full"), ("phase-demo", "--full"),
    ("keygen", "--noise=0"),
])
def test_flag_the_handler_ignores_exits_2(tmp_path, subcommand, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(subcommand, "--out", tmp_path / "x", flag)
    assert exc.value.code == 2


@pytest.mark.parametrize("noise", ["-1", "inf", "nan"])
def test_noise_must_be_finite_nonnegative(tmp_path, capsys, noise):
    # keygen takes its SNR only as --set snr_db: any --noise, the values
    # that once failed its range check included, exits 2 naming the flag
    with pytest.raises(SystemExit) as exc:
        run_cli("keygen", "--out", tmp_path / "x", "--trials", 1,
                "--noise", noise, "--set", "blocks=10")
    assert exc.value.code == 2
    assert "--noise" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# small runs, so that a count the parser lets through finishes quickly
SMALL_RUNS = {
    "ldpc-waterfall": ("--set", "variants=binary_regular_soft",
                       "--set", "rates=0.5", "--set", "snr_db=20",
                       "--set", "blocks=10"),
    "keygen": ("--set", "blocks=10"),
    "phase-demo": ("--set", "blocks=5", "--set", "grid=2"),
}


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("subcommand", sorted(SMALL_RUNS))
def test_nonpositive_trials_exits_2(tmp_path, capsys, subcommand, trials):
    with pytest.raises(SystemExit) as exc:
        run_cli(subcommand, "--out", tmp_path / "x", "--trials", trials,
                *SMALL_RUNS[subcommand])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# extra flags that keep a run small should the setting get through
BOUNDARY_RUNS = {
    "capacity-sweep": (),
    "phase-demo": ("--trials", 1, "--set", "blocks=5"),
    "ldpc-waterfall": ("--trials", 1, "--set", "blocks=10",
                       "--set", "variants=binary_regular_soft"),
    "corr-matrix": (),
    "keygen": ("--trials", 1),
    "rssi-compare": ("--set", "samples=20000", "--set", "snr_db=10"),
    "magphase": ("--set", "samples=20000", "--set", "snr_db=10"),
}


@pytest.mark.parametrize("subcommand, setting", [
    ("phase-demo", "grid=0"), ("phase-demo", "grid=-3"),
    ("ldpc-waterfall", "rates="), ("ldpc-waterfall", "rates=0.1,0.2"),
    ("corr-matrix", "realizations=0"), ("corr-matrix", "realizations=-5"),
    ("keygen", "blocks=0"), ("keygen", "blocks=ten"),
    ("rssi-compare", "bins=2,0"), ("rssi-compare", "bins=2,20"),
    ("keygen", "levels=3"), ("keygen", "mode=fuzzy"),
    # the estimators need 1e4 (rssi) and 1e5 (magphase) samples; magphase
    # checks snr_db first, so the snr_db cases below keep BOUNDARY_RUNS'
    # small sample count
    ("rssi-compare", "samples=9999"), ("magphase", "samples=99999"),
    # each point's seed derives from int(snr_db * 10): the SNR must be
    # finite there, and NaN is no value for any float setting
    ("magphase", "snr_db=inf"), ("magphase", "snr_db=-inf"),
    ("magphase", "snr_db=nan"), ("magphase", "snr_db=5,nan"),
    ("rssi-compare", "snr_db=inf"), ("rssi-compare", "snr_db=nan"),
    ("keygen", "snr_db=nan"), ("keygen", "rate=nan"),
    # every kept rate must build its code (N = 3,120 and 260 here): a
    # regular one needs m = round(N (1 - rate)) > 3 checks dividing 3N,
    # and m = 4 (0.99872) passes that rule but realizes no code
    ("keygen", "rate=0.3"), ("keygen", "rate=1.5"), ("keygen", "rate=inf"),
    ("keygen", "rate=0.999"), ("keygen", "rate=0.99872"),
    ("ldpc-waterfall", "rates=0.3"), ("ldpc-waterfall", "rates=0.5,0.625"),
    # a key session needs a finite SNR; capacity-sweep takes -inf (silence)
    ("keygen", "snr_db=inf"), ("keygen", "snr_db=-inf"),
    ("ldpc-waterfall", "snr_db=10,inf"), ("phase-demo", "snr_db=inf"),
    ("capacity-sweep", "snr_db=inf"), ("capacity-sweep", "snr_db=-inf,inf"),
    # the estimators need the correlation s/(1+s) below 1
    ("magphase", "snr_db=200"), ("magphase", "snr_db=5,1e4"),
    ("rssi-compare", "snr_db=200"), ("rssi-compare", "snr_db=10,400"),
    ("capacity-sweep", "snr_db=310"), ("capacity-sweep", "snr_db=-inf,150"),
    # so do the capacities that ldpc-waterfall sets its key rates against
    ("ldpc-waterfall", "snr_db=200"), ("ldpc-waterfall", "snr_db=10,149.53"),
    # the grid is an explicit snr_db list: there is no step setting left
    ("ldpc-waterfall", "snr_step=0"), ("ldpc-waterfall", "snr_step=-1"),
])
def test_bad_setting_exits_2_naming_key(tmp_path, capsys, subcommand,
                                        setting):
    key = setting.partition("=")[0]
    start = time.perf_counter()
    assert run_cli(subcommand, "--out", tmp_path / "x",
                   *BOUNDARY_RUNS[subcommand], "--set", setting) == 2
    # rejected before any session or estimate runs, so well within 5 s
    assert time.perf_counter() - start < 5.0
    assert f"--set {key}:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_snr_where_correlation_rounds_to_one_names_the_limit(tmp_path,
                                                            capsys):
    assert run_cli("rssi-compare", "--out", tmp_path / "x",
                   *BOUNDARY_RUNS["rssi-compare"], "--set", "snr_db=200",
                   "--set", "bins=2") == 2
    assert f"--set snr_db: must be below {RHO_ONE_DB:.2f} dB" in (
        capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


def test_capacity_sweep_limit_is_the_largest_bin_snr(tmp_path, capsys):
    # Table I's strongest delay bin has about 10 times the per-tone SNR, so
    # its SNR reaches 2**53 at 149.52 dB, some 10 dB before a flat bin's
    assert run_cli("capacity-sweep", "--config", TABLE1_CFG, "--out",
                   tmp_path / "x", "--set", "snr_db=20,149.53") == 2
    assert "--set snr_db: must be below 149.52 dB on this channel" in (
        capsys.readouterr().err)
    assert not (tmp_path / "x").exists()
    out = tmp_path / "ok"
    assert run_cli("capacity-sweep", "--config", TABLE1_CFG, "--out", out,
                   "--set", "snr_db=149.52") == 0
    rows = (out / "capacity_sweep.csv").read_text().splitlines()[2:]
    assert all(math.isfinite(float(row.split(",")[2])) for row in rows)


def test_snr_limit_covers_every_correlation_of_one():
    # below the limit s/(1+s) < 1; just above it the correlation rounds to
    # 1 at some SNRs (and at every SNR from 10 log10(2**54) on)
    def corr(snr_db):
        snr = 10.0 ** (snr_db / 10.0)
        return snr / (1.0 + snr)

    below = np.nextafter(RHO_ONE_DB, 0.0)
    assert all(corr(v) < 1.0 for v in np.linspace(100.0, below, 20_001))
    assert any(corr(v) == 1.0
               for v in np.linspace(RHO_ONE_DB, RHO_ONE_DB + 0.01, 101))
    assert corr(10.0 * math.log10(2.0**54)) == 1.0


def test_waterfall_irregular_rate_must_build(tmp_path, capsys):
    assert run_cli("ldpc-waterfall", "--out", tmp_path / "x", "--trials", 1,
                   "--set", "blocks=10", "--set", "rates=0.5,inf",
                   "--set", "variants=binary_irregular_soft",
                   "--set", "snr_db=20") == 2
    assert ("--set rates: rate=inf builds no irregular code"
            in capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


def test_waterfall_irregular_only_takes_any_rate(tmp_path):
    # the rule binds regular codes only; 0.3 builds no regular code at N = 260
    assert run_cli("ldpc-waterfall", "--out", tmp_path / "wf", "--trials", 1,
                   "--set", "blocks=10", "--set", "rates=0.3",
                   "--set", "variants=binary_irregular_soft",
                   "--set", "snr_db=20") == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["soft", "hard"])
@pytest.mark.parametrize("settings", [
    # keygen quantizes into equiprobable cells only, so quantizer.thresholds
    # is an unknown override whatever its value, well formed or not
    ("quantizer.thresholds=40",),
    ("quantizer.thresholds=-40",),
    ("levels=4", "quantizer.thresholds=-1,0,39"),
    ("quantizer.thresholds=0,1",),
    ("levels=4", "quantizer.thresholds=1,0,-1"),
    ("levels=4", "quantizer.thresholds=0,0,1"),
    ("quantizer.thresholds=8",),
    ("quantizer.thresholds=4",),
])
def test_keygen_bad_thresholds_exit_2(tmp_path, capsys, mode, settings):
    sets = [arg for pair in settings for arg in ("--set", pair)]
    assert run_cli("keygen", "--out", tmp_path / "x", "--trials", 1,
                   "--set", "blocks=10", "--set", f"mode={mode}", *sets) == 2
    err = capsys.readouterr().err
    assert "--set quantizer.thresholds:" in err
    assert "unknown override" in err
    assert not (tmp_path / "x").exists()


KEYGEN_SMALL = ("keygen", "--trials", 1, "--set", "blocks=10")
# runs at the edges of SNR, channel and rate, each with the one exit code it
# must give: 0 where it runs and its self-checks hold, 2 for a setting it
# rejects; never 1 (a fault) and never a 3 that a claim did not earn
EDGE_RUNS = [
    *[pytest.param((*KEYGEN_SMALL, "--set", f"snr_db={snr}", "--set", extra),
                   0, id=f"keygen-{snr}dB-{extra}")
      for snr in (200, 400) for extra in ("levels=2", "levels=4", "mode=hard")],
    pytest.param((*KEYGEN_SMALL, "--set", "snr_db=-30"), 0,
                 id="keygen--30dB"),
    pytest.param((*KEYGEN_SMALL, "--config", "tones1.cfg"), 0,
                 id="keygen-one-tone"),
    pytest.param((*KEYGEN_SMALL, "--config", "bins1.cfg"), 0,
                 id="keygen-one-bin"),
    pytest.param(("corr-matrix", "--config", "tones1.cfg",
                  "--set", "realizations=2000"), 0, id="corr-matrix-one-tone"),
    pytest.param(("corr-matrix", "--config", "bins1.cfg",
                  "--set", "realizations=2000"), 0, id="corr-matrix-one-bin"),
    pytest.param(("ldpc-waterfall", "--trials", 1, "--set", "blocks=10",
                  "--set", "rates=0.5", "--set", "snr_db=-30",
                  "--set", "variants=quaternary_regular_soft"), 0,
                 id="ldpc-waterfall-quaternary--30dB"),
    pytest.param(("magphase", "--set", "samples=100000",
                  "--set", "snr_db=-30"), 0, id="magphase--30dB"),
    pytest.param(("rssi-compare", "--set", "samples=10000",
                  "--set", "snr_db=-30"), 0, id="rssi-compare--30dB"),
    pytest.param(("phase-demo", "--seed", 9, "--trials", 2,
                  "--set", "blocks=4", "--set", "grid=4",
                  "--set", "snr_db=-20"), 0, id="phase-demo--20dB"),
    pytest.param((*KEYGEN_SMALL, "--set", "snr_db=-inf"), 2,
                 id="keygen--inf-dB"),
    pytest.param(("capacity-sweep", "--set", "snr_db=-30,200"), 2,
                 id="capacity-sweep-200dB"),
    pytest.param(("magphase", "--set", "snr_db=200"), 2, id="magphase-200dB"),
    pytest.param((*KEYGEN_SMALL, "--set", "rate=0.01"), 2,
                 id="keygen-rate-0.01"),
    pytest.param(("ldpc-waterfall", "--trials", 1, "--set", "blocks=10",
                  "--set", "rates=0.99", "--set", "snr_db=10",
                  "--set", "variants=binary_irregular_soft"), 2,
                 id="ldpc-waterfall-irregular-rate-0.99"),
]


@pytest.mark.parametrize("argv, expected", EDGE_RUNS)
def test_edge_settings_exit_with_their_code(tmp_path, monkeypatch, argv,
                                            expected):
    # one-bin channels (L = 1): a single tone, and Table I without spread
    table1 = TABLE1_CFG.read_text()
    (tmp_path / "tones1.cfg").write_text(
        table1.replace("m_tones      = 52", "m_tones = 1").replace(
            "bandwidth_hz = 16.25e6", "bandwidth_hz = 0.3125e6"))
    (tmp_path / "bins1.cfg").write_text(
        table1.replace("tau_max_s    = 800e-9", "tau_max_s = 0"))
    for name in ("tones1.cfg", "bins1.cfg"):
        assert load_config(tmp_path / name).num_delay_bins == 1
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--out", tmp_path / "x") == expected


def test_keygen_rate_out_of_range_names_rate(tmp_path, capsys):
    assert run_cli("keygen", "--out", tmp_path / "x", "--trials", 1,
                   "--set", "blocks=10", "--set", "rate=1.5") == 2
    assert "rate=1.5" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, setting", [
    (("ldpc-waterfall", "--trials", 1, "--set", "blocks=10",
      "--set", "rates=0.5", "--set", "variants=binary_regular_soft",
      "--set", "snr_db=10"), "snr_db=16"),
    (("keygen", "--trials", 1, "--set", "blocks=10"), "levels=4"),
])
def test_manifest_hash_tracks_each_setting(tmp_path, argv, setting):
    def manifest_line(out):
        (line,) = {path.read_text().splitlines()[0] for path in out.iterdir()
                   if path.name != "manifest.json"}
        assert line.startswith("# manifest: ")
        return line

    run_cli(*argv, "--out", tmp_path / "a")
    run_cli(*argv, "--set", setting, "--out", tmp_path / "b")
    assert manifest_line(tmp_path / "a") != manifest_line(tmp_path / "b")


@pytest.mark.parametrize("subcommand, trials", [
    ("ldpc-waterfall", 100), ("keygen", 10), ("phase-demo", 20)])
def test_trials_default_per_subcommand(subcommand, trials):
    assert build_parser().parse_args([subcommand]).trials == trials


@pytest.mark.parametrize("flags, trials", [((), 10), (("--trials", 2), 2)])
def test_manifest_records_the_trial_count_once(tmp_path, flags, trials):
    out = tmp_path / "kg"
    assert run_cli("keygen", *flags, "--set", "blocks=10", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["trials"] == trials
    assert not {"trials", "sessions"} & manifest["params"].keys()
    assert len((out / "sessions.log").read_text().splitlines()) == 2 + trials


def test_unknown_waterfall_variant_exits_2(tmp_path, capsys):
    assert run_cli("ldpc-waterfall", "--out", tmp_path / "x",
                   "--set", "variants=nope") == 2
    assert "unknown variant 'nope'" in capsys.readouterr().err


def test_internal_key_error_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr("chankey.cli.run_session", broken)
    with pytest.raises(KeyError, match="internal"):
        run_cli("keygen", "--out", tmp_path / "x", "--trials", 1,
                "--set", "blocks=10")


def test_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    # only ConfigError exits 2: a library ValueError is a fault, not a setting
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr("chankey.cli.run_session", broken)
    with pytest.raises(ValueError, match="internal"):
        run_cli("keygen", "--out", tmp_path / "x", "--trials", 1,
                "--set", "blocks=10")
    assert not (tmp_path / "x").exists()


def test_missing_config_exits_2_naming_file(tmp_path, capsys):
    cfg = tmp_path / "absent.cfg"
    assert run_cli("capacity-sweep", "--config", cfg,
                   "--out", tmp_path / "x") == 2
    assert f"config {cfg}:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


SCIPY_PROBE = """
import sys
import numpy as np

SCIPY = ("scipy.special", "scipy.sparse", "scipy.stats")

def loaded():
    return [m for m in SCIPY if m in sys.modules]

import chankey.cli
from chankey import capacity
from chankey.channel import flat_profile
capacity.magphase_decomposition(10.0, 100_000, seed=1)
capacity.rssi_capacity_numeric(flat_profile(1.0, 2, 10), 10, 10_000, seed=2)
print(loaded())

from chankey.codec.matrix import construct_regular
from chankey.quantize import Quantizer, soft_evidence
q = Quantizer.equiprobable(4)
post = soft_evidence(np.zeros(3), 0.5, 1.0, q)
pcm = construct_regular(24, 12, 3, seed=0)
assert np.allclose(post.sum(axis=1), 1.0) and pcm.m == 12
assert not pcm.syndrome(np.zeros(24, np.uint8)).any()
print(loaded())
"""


def test_capacity_paths_import_no_scipy_submodule():
    # scipy.special costs ~0.3 s and ~26 MB to import, and scipy.stats more;
    # the capacity commands need none of them, and code construction needs
    # no scipy at all.  A fresh interpreter, because other tests of this
    # process import scipy.special.
    src = str(Path(chankey.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    lines = out.stdout.splitlines()
    assert lines[:1] == ["[]"], out.stdout + out.stderr
    assert out.returncode == 0, out.stderr
    assert lines[1] == "['scipy.special']"
