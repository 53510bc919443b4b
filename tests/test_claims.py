"""Every acceptance criterion fails on a synthetic input made to break it.

Each criterion's decision (the shared predicates of ``chankey.claims`` for
1, 2, 4, 7a-7d and 9; the gate's own functions for 3, 5, 6 and 8) gets one
input that passes and at least one that must fail, so a criterion that
could never fail would show here.  The last tests feed failing library
results to the CLI and check that its self-check reports the shared
predicate's detail and exits 3.
"""

import json
import math

import numpy as np
import pytest

from chankey import claims
from chankey.capacity import CapacityReport, MagPhaseReport, MiEstimate
from chankey.channel import ChannelConfig
from chankey.cli import main
from chankey.pipeline import SweepRow
from test_acceptance import (
    coset_secrecy,
    decoder_vs_map,
    end_to_end,
    strength_correlation,
)

TABLE1 = ChannelConfig(m_tones=52, bandwidth_hz=16.25e6, duration_s=3.2e-6,
                       n_paths=300, tau_max_s=800e-9)


def _rows(achieved_from_db, snrs=(8.0, 10.0, 12.0), rate=0.5, agreed=10,
          key_bits=130):
    """Sweep rows that meet the BER target from ``achieved_from_db`` up."""
    return [SweepRow(rate, snr, 10, agreed,
                     0.0 if snr >= achieved_from_db else 0.1, key_bits)
            for snr in snrs]


def _split(re=1.0, mag=0.3, phase=1.2):
    """A 10 dB split of 2 bits in total, every part with SE 0.01 bits."""
    re_, mag_, phase_ = (MiEstimate(v, 0.01) for v in (re, mag, phase))
    return MagPhaseReport(2.0, re_, re_, mag_, phase_)


def test_criterion_1_bits_per_coherence():
    assert claims.table1_capacity(CapacityReport(1.0, 50, 0.1)) == (
        True, "100.0 bits/coherence, 1000 bits/s")
    assert not claims.table1_capacity(CapacityReport(0.5, 50, 0.1))[0]
    assert not claims.table1_capacity(CapacityReport(1.2, 50, 0.1))[0]


def test_criterion_2_strength_structure():
    near = (CapacityReport(0.052, 10), MiEstimate(1.0, 0.001))
    far = (CapacityReport(0.2, 10), MiEstimate(4.0, 0.001))
    assert claims.strength_capacity(
        [(10.0, [0.1, 0.2, 0.3], 0.05, near)]) == (True, "1 SNR points")
    for csi, numeric, problem in (
            ([0.1, 0.3, 0.2], None, "CSI not increasing"),
            ([0.1, 0.2, 0.3], far, "numeric 0.2000 vs gaussian")):
        ok, detail = claims.strength_capacity([(10.0, csi, 0.05, numeric)])
        assert not ok and problem in detail


def test_criterion_3_strength_correlation():
    assert strength_correlation([(0.9, 0.81, 0.001)]) == (True,
                                                          "rho in {0.9}")
    assert not strength_correlation([(0.9, 0.80, 0.001)])[0]


def test_criterion_4_information_split():
    assert claims.information_split([(10.0, _split())], [10.0], [10.0]) == (
        True, "SNR in {10} dB")
    for report, problem in ((_split(re=0.9), "re+im misses total"),
                            (_split(phase=0.3), "phase <= magnitude"),
                            (_split(mag=0.8), "no mag/phase gap margin")):
        ok, detail = claims.information_split([(10.0, report)], [10.0],
                                              [10.0])
        assert not ok and problem in detail
    # outside phase_at and gap_at only the real/imaginary split is checked
    assert claims.information_split([(0.0, _split(phase=0.3, mag=0.8))],
                                    [], [])[0]


def test_criterion_5_coset_secrecy():
    x = (np.arange(4)[:, None] >> np.arange(2)) & 1  # every word of GF(2)^2
    parity = x[:, 0] ^ x[:, 1]  # the syndrome of the code [1 1]
    assert coset_secrecy([(2, 1, parity, x[:, 0])]) == (
        True, "1 shapes x 1 codes, exact")
    for syn_ids, key_ids, problem in (
            (parity, np.zeros(4, int), "not bijective"),
            (np.array([0, 0, 0, 1]), x[:, 0], "coset sizes wrong")):
        ok, detail = coset_secrecy([(2, 1, syn_ids, key_ids)])
        assert not ok and problem in detail


def test_criterion_6_decoder_vs_map():
    assert decoder_vs_map(95, 100) == (True, "95/100 = 0.950")
    assert not decoder_vs_map(94, 100)[0]


def test_criterion_7a_soft_not_above_hard():
    assert claims.soft_beats_hard(_rows(8.0), _rows(10.0)) == (
        True, "r=0.5: soft 8.0 / hard 10.0")
    for soft in (_rows(12.0), _rows(99.0)):
        assert not claims.soft_beats_hard(soft, _rows(10.0))[0]
    # soft achieving a rate hard never reaches keeps the order
    assert claims.soft_beats_hard(_rows(12.0), _rows(99.0))[0]


def test_criterion_7b_irregular_within_half_db():
    grid = (9.0, 9.5, 10.0, 11.0)
    assert claims.irregular_near_regular(_rows(9.0, grid),
                                         _rows(9.5, grid))[0]
    for irregular in (_rows(10.0, grid), _rows(99.0, grid)):
        ok, detail = claims.irregular_near_regular(_rows(9.0, grid),
                                                   irregular)
        assert not ok and detail.startswith("rate 0.5: irr ")


def test_criterion_7c_quaternary_throughput():
    snrs = (14.0, 15.0, 16.0)
    binary = _rows(14.0, snrs, key_bits=130)
    assert claims.quaternary_throughput(
        binary, _rows(14.0, snrs, key_bits=260)) == (
        True, "binary 130 vs 4-level 260 bits/session")
    # 4-level below binary once weighted by agreement
    assert not claims.quaternary_throughput(
        binary, _rows(14.0, snrs, agreed=4, key_bits=260))[0]
    # binary must reach the BER target from 15 dB up
    assert not claims.quaternary_throughput(
        _rows(99.0, snrs), _rows(14.0, snrs, key_bits=260))[0]


def test_criterion_7d_achieved_points_below_capacity():
    blocks = 10
    # 10 key bits per real dimension is far above any capacity here
    huge = 10 * 2 * blocks * TABLE1.m_tones
    assert claims.below_capacity({"soft": _rows(10.0)}, TABLE1, blocks) == (
        True, "all points checked")
    assert claims.below_capacity({"soft": _rows(99.0, key_bits=huge)},
                                 TABLE1, blocks)[0]
    ok, detail = claims.below_capacity({"soft": _rows(12.0, key_bits=huge)},
                                       TABLE1, blocks)
    assert not ok and detail.startswith("soft r=0.5 at 12.0 dB: 10.000 > C=")


@pytest.mark.parametrize("agreed, errors, pooled, ok", [
    (100, 0, np.tile(np.uint8([0, 1]), 60_000), True),
    (98, 0, np.tile(np.uint8([0, 1]), 60_000), False),
    (100, 200, np.tile(np.uint8([0, 1]), 60_000), False),
    (100, 0, np.tile(np.uint8([0, 1]), 40_000), False),
    (100, 0, np.zeros(120_000, np.uint8), False),
])
def test_criterion_8_end_to_end(agreed, errors, pooled, ok):
    assert end_to_end(agreed, errors, 120_000, pooled)[0] is ok


def test_criterion_9_rotation_tracking():
    exact = [(0.0, 1.0, [0.0, 0.0]), (math.pi, 0.99, [0.0])]
    assert claims.rotation_tracking(1.0, exact) == (
        True, "baseline 1.00, 2 grid points")
    assert not claims.rotation_tracking(1.0, [(math.pi, 1.0, [1e-3])])[0]
    assert not claims.rotation_tracking(1.0, [(math.pi, 0.9, [0.0])])[0]
    assert not claims.rotation_tracking(0.5, [(math.pi, 1.0, [])])[0]


def _violations(out):
    return json.loads((out / "manifest.json").read_text())["violations"]


def test_cli_waterfall_reports_the_shared_ordering(tmp_path, monkeypatch):
    soft, hard = _rows(12.0), _rows(10.0)

    def sweep(template, rates, snr_grid, trials, family):
        return soft if template.decoding_mode == "soft" else hard

    monkeypatch.setattr("chankey.cli.sweep_rate_vs_snr", sweep)
    out = tmp_path / "wf"
    assert main(["ldpc-waterfall", "--out", str(out), "--trials", "1",
                 "--set", "blocks=10", "--set", "rates=0.5",
                 "--set", "variants=binary_regular_soft,binary_regular_hard",
                 ]) == 3
    ok, detail = claims.soft_beats_hard(soft, hard)
    assert not ok
    assert _violations(out) == [f"criterion 7a: {detail}"]


def test_cli_magphase_reports_the_shared_split(tmp_path, monkeypatch):
    report = _split(mag=0.8, phase=0.7)
    monkeypatch.setattr("chankey.capacity.magphase_decomposition",
                        lambda snr, samples, seed: report)
    out = tmp_path / "mp"
    assert main(["magphase", "--out", str(out), "--set", "snr_db=10",
                 "--set", "samples=100000"]) == 3
    ok, detail = claims.information_split([(10.0, report)], [10.0], [10.0])
    assert (ok, detail) == (False, "phase <= magnitude info at 10.0 dB")
    assert _violations(out) == [f"criterion 4: {detail}"]
