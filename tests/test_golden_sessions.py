"""Fixed-seed sessions must reproduce their committed digest bit for bit.

The digest covers the keys, public syndromes, decoder iterations and flags,
bit error rates and rotation errors of a small grid of sessions (binary and
4-level, soft and hard, constant and per-block rotation) plus one 4-level
rate/SNR sweep, all on a flat 100-path channel with 10 blocks (N = 260).
A refactor that claims to keep outputs unchanged must keep this digest; a
change that means to alter fixed-seed outputs has to say so and update it.
"""

import hashlib

from chankey.channel import ChannelConfig
from chankey.pipeline import (
    SessionConfig,
    make_plane_code,
    run_session,
    sweep_rate_vs_snr,
)
from chankey.quantize import Quantizer

FLAT100 = ChannelConfig(m_tones=52, bandwidth_hz=16.25e6, duration_s=3.2e-6,
                        n_paths=100, tau_max_s=800e-9, profile="flat")
BLOCKS = 10
N_DATA = 2 * BLOCKS * FLAT100.num_delay_bins

# levels, decoding, phase mode, code family, rate
VARIANTS = (
    (2, "soft", "none", "regular", 0.5),
    (2, "hard", "none", "regular", 0.5),
    (4, "soft", "none", "regular", 0.75),
    (4, "hard", "none", "regular", 0.75),
    (2, "soft", "constant_theta", "irregular", 0.25),
    (2, "soft", "per_block_theta", "irregular", 0.25),
)
SNRS_DB = (8.0, 14.0, 25.0)
SEEDS = (0, 1, (3, 5))

EXPECTED_RECORDS = len(VARIANTS) * len(SNRS_DB) * len(SEEDS) + 4
EXPECTED_SHA256 = (
    "843e7178f5910e88a54313debe307c592eefd062dd8fe69564410df233959357")


def _session_record(tag, res) -> str:
    return "|".join([
        tag, res.key_a_hex, res.key_b_hex, res.public_message_hex,
        str(res.iterations_used), str(res.agreed), str(res.syndrome_satisfied),
        repr(res.bit_error_rate), repr(res.theta_error),
    ])


def golden_records() -> list[str]:
    records = []
    for levels, mode, phase_mode, family, rate in VARIANTS:
        code = make_plane_code(N_DATA, rate, family, 17)
        for snr_db in SNRS_DB:
            for seed in SEEDS:
                cfg = SessionConfig(
                    channel=FLAT100, snr_f_db=snr_db, blocks=BLOCKS,
                    quantizer=Quantizer.equiprobable(levels), code=code,
                    decoding_mode=mode, phase_mode=phase_mode,
                    theta_grid_size=8, seed=seed)
                tag = f"{levels},{mode},{phase_mode},{family},{rate},{snr_db},{seed}"
                records.append(_session_record(tag, run_session(cfg)))
    template = SessionConfig(
        channel=FLAT100, snr_f_db=0.0, blocks=BLOCKS,
        quantizer=Quantizer.equiprobable(4),
        code=make_plane_code(N_DATA, 0.75, "regular", 17), seed=23)
    for row in sweep_rate_vs_snr(template, rates=[0.5, 0.75],
                                 snr_grid=[12.0, 20.0], trials=3):
        records.append("|".join(repr(v) for v in (
            row.rate, row.snr_db, row.sessions, row.agreed, row.ber,
            row.key_bits_per_session)))
    return records


def test_golden_session_digest():
    records = golden_records()
    assert len(records) == EXPECTED_RECORDS
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == EXPECTED_SHA256
