import json
from pathlib import Path

import numpy as np
import pytest

from chankey.cli import main

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


def test_malformed_override_exits_2(tmp_path):
    assert run_cli("keygen", "--out", tmp_path / "x", "--set", "blocks") == 2


@pytest.mark.parametrize("subcommand, typo", [("keygen", "rat=0.9"),
                                              ("ldpc-waterfall", "block=12")])
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
