import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chankey
from chankey.cli import main
from chankey.pipeline import make_plane_code

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
                   "--noise", 0, "--set", "blocks=12")
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
    cfg.write_text(TABLE1_CFG.read_text().replace("sigma_h2     = 1.0",
                                                  "sigma_h2 = nan"))
    out = tmp_path / "x"
    assert run_cli("capacity-sweep", "--config", cfg, "--out", out) == 2
    assert "sigma_h2" in capsys.readouterr().err
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
    ("keygen", "quantizer.levels=4"),
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
    """(family, rate) of each code the CLI and the sweep build, in order."""
    built = []

    def counting(n, rate, family, seed):
        built.append((family, rate))
        return make_plane_code(n, rate, family, seed)

    monkeypatch.setattr("chankey.cli.make_plane_code", counting)
    monkeypatch.setattr("chankey.pipeline.make_plane_code", counting)
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
])
def test_flag_the_handler_ignores_exits_2(tmp_path, subcommand, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(subcommand, "--out", tmp_path / "x", flag)
    assert exc.value.code == 2


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
    ("ldpc-waterfall", "snr_step=0"), ("ldpc-waterfall", "snr_step=-1"),
    ("ldpc-waterfall", "rates="), ("ldpc-waterfall", "rates=0.1,0.2"),
    ("corr-matrix", "realizations=0"), ("corr-matrix", "realizations=-5"),
    ("keygen", "blocks=0"), ("keygen", "blocks=ten"),
    ("rssi-compare", "bins=2,0"),
    # each point's seed derives from int(snr_db * 10): the SNR must be
    # finite there, and NaN is no value for any float setting
    ("magphase", "snr_db=inf"), ("magphase", "snr_db=-inf"),
    ("magphase", "snr_db=nan"), ("magphase", "snr_db=5,nan"),
    ("rssi-compare", "snr_db=inf"), ("rssi-compare", "snr_db=nan"),
    ("keygen", "snr_db=nan"), ("keygen", "rate=nan"),
    # a key session needs a finite SNR; capacity-sweep takes -inf (silence)
    ("keygen", "snr_db=inf"), ("keygen", "snr_db=-inf"),
    ("ldpc-waterfall", "snr_db=10,inf"), ("phase-demo", "snr_db=inf"),
    ("capacity-sweep", "snr_db=inf"), ("capacity-sweep", "snr_db=-inf,inf"),
])
def test_bad_setting_exits_2_naming_key(tmp_path, capsys, subcommand,
                                        setting):
    key = setting.partition("=")[0]
    assert run_cli(subcommand, "--out", tmp_path / "x",
                   *BOUNDARY_RUNS[subcommand], "--set", setting) == 2
    assert f"--set {key}:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["soft", "hard"])
@pytest.mark.parametrize("settings", [
    ("quantizer.thresholds=40",),  # Phi(40) is 1.0: the top cell is empty
    ("quantizer.thresholds=-40",),
    ("levels=4", "quantizer.thresholds=-1,0,39"),
    ("quantizer.thresholds=0,1",),  # wrong count
    ("levels=4", "quantizer.thresholds=1,0,-1"),  # not ascending
    ("levels=4", "quantizer.thresholds=0,0,1"),
])
def test_keygen_bad_thresholds_exit_2(tmp_path, capsys, mode, settings):
    sets = [arg for pair in settings for arg in ("--set", pair)]
    assert run_cli("keygen", "--out", tmp_path / "x", "--trials", 1,
                   "--set", "blocks=10", "--set", f"mode={mode}", *sets) == 2
    assert "--set quantizer.thresholds:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_keygen_rate_out_of_range_names_rate(tmp_path, capsys):
    assert run_cli("keygen", "--out", tmp_path / "x", "--trials", 1,
                   "--set", "blocks=10", "--set", "rate=1.5") == 2
    assert "rate=1.5" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, setting", [
    (("ldpc-waterfall", "--trials", 1, "--set", "blocks=10",
      "--set", "rates=0.5", "--set", "variants=binary_regular_soft",
      "--set", "snr_db=10"), "snr_db=16"),
    (("keygen", "--trials", 1, "--set", "blocks=10"),
     "quantizer.thresholds=0.5"),
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


@pytest.mark.parametrize("noise", ["-1", "inf", "nan"])
def test_noise_must_be_finite_nonnegative(tmp_path, capsys, noise):
    with pytest.raises(SystemExit) as exc:
        run_cli("keygen", "--out", tmp_path / "x", "--trials", 1,
                "--noise", noise, "--set", "blocks=10")
    assert exc.value.code == 2
    assert "--noise" in capsys.readouterr().err


def test_keygen_noise_and_snr_override_exit_2(tmp_path, capsys):
    # --noise fixes the SNR, so a --set snr_db beside it cannot take effect
    assert run_cli("keygen", "--out", tmp_path / "x", "--trials", 1,
                   "--noise", 0.1, "--set", "snr_db=-5",
                   "--set", "blocks=10") == 2
    err = capsys.readouterr().err
    assert "--noise" in err and "snr_db" in err


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
    # scipy.special and scipy.sparse cost ~0.3 s and ~20 MB to import, and
    # scipy.stats more; the capacity commands need none of them.  A fresh
    # interpreter, because pytest's IntegrationWarning filter imports
    # scipy.integrate, and with it scipy.special, into this process.
    src = str(Path(chankey.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    lines = out.stdout.splitlines()
    assert lines[:1] == ["[]"], out.stdout + out.stderr
    assert out.returncode == 0, out.stderr
    assert lines[1] == "['scipy.special', 'scipy.sparse']"
