"""The paper's acceptance claims, one predicate each.

The acceptance gate (``tests/test_acceptance.py``) and the CLI self-checks
decide each shared claim by its predicate here, so every tolerance is
written once.  A predicate takes rows or reports and returns ``(ok,
detail)``: ``detail`` says what was checked, or lists every problem found.
"""

from __future__ import annotations

from .capacity import csi_capacity
from .channel import build_snr_profile
from .pipeline import waterfall_thresholds

Claim = tuple[bool, str]


def verdict(problems: list[str], passed: str) -> Claim:
    """Failed with ``problems`` joined, if any; else passed with ``passed``."""
    return not problems, "; ".join(problems) or passed


def table1_capacity(report) -> Claim:
    """Criterion 1: 88-115 bits per coherence time at 20 dB (Table I)."""
    per_coh = report.bits_per_coherence
    return (88.0 <= per_coh <= 115.0, f"{per_coh:.1f} bits/coherence, "
            f"{report.bits_per_second:.0f} bits/s")


def strength_capacity(points) -> Claim:
    """Criterion 2 over ``(snr_db, csi, gauss, numeric)``: per SNR, CSI
    capacity grows with L, and the simulated (report, estimate) at L = 10,
    if not None, lies within max(3 SE, 10%) of the Gaussian strength
    capacity ``gauss``, which takes no L."""
    problems = []
    for snr_db, csi, gauss, numeric in points:
        if not all(a < b for a, b in zip(csi, csi[1:])):
            problems.append(f"CSI not increasing in L at {snr_db} dB")
        if numeric is not None:
            rep, est = numeric
            tol = max(3 * est.std_error / (2 * rep.m_tones), 0.10 * gauss)
            if abs(rep.capacity_per_dim - gauss) > tol:
                problems.append(f"numeric {rep.capacity_per_dim:.4f} vs "
                                f"gaussian {gauss:.4f} at {snr_db} dB")
    return verdict(problems, f"{len(points)} SNR points")


def information_split(reports, phase_at, gap_at) -> Claim:
    """Criterion 4 over ``(snr_db, MagPhaseReport)``: re+im recovers the total;
    phase beats magnitude at ``phase_at``; mag/phase loses at ``gap_at``."""
    problems = []
    for snr_db, rep in reports:
        gap = rep.i_full - rep.i_mag_plus_phase
        if abs(rep.i_re_plus_im - rep.i_full) > 3 * rep.i_re_plus_im_se:
            problems.append(f"re+im misses total at {snr_db} dB")
        if snr_db in phase_at and rep.i_phase.value <= rep.i_mag.value:
            problems.append(f"phase <= magnitude info at {snr_db} dB")
        if snr_db in gap_at and gap <= 3 * rep.i_mag_plus_phase_se:
            problems.append(
                f"no mag/phase gap margin at {snr_db:g} dB ({gap:.4f})")
    snrs = ", ".join(f"{snr_db:g}" for snr_db, _ in reports)
    return verdict(problems, f"SNR in {{{snrs}}} dB")


def _threshold_order(rows, reference_rows, slack_db, name, ref_name) -> Claim:
    """``rows`` meet the BER target within ``slack_db`` of the reference."""
    mine = waterfall_thresholds(rows)
    ref = waterfall_thresholds(reference_rows)
    problems = [f"rate {rate}: {name} {mine.get(rate)} vs {ref_name} {tr}"
                for rate, tr in ref.items() if tr is not None
                and (mine.get(rate) is None or mine[rate] > tr + slack_db)]
    return verdict(problems, ", ".join(
        f"r={r}: {name} {mine.get(r)} / {ref_name} {ref.get(r)}"
        for r in sorted(mine)))


def soft_beats_hard(soft_rows, hard_rows) -> Claim:
    """Criterion 7a: soft thresholds are at or below the hard ones."""
    return _threshold_order(soft_rows, hard_rows, 0.0, "soft", "hard")


def irregular_near_regular(regular_rows, irregular_rows) -> Claim:
    """Criterion 7b: irregular thresholds are within 0.5 dB of regular."""
    return _threshold_order(irregular_rows, regular_rows, 0.5, "irr", "reg")


def quaternary_throughput(binary_rows, quaternary_rows) -> Claim:
    """Criterion 7c: 4-level agreed key bits beat binary (> 0) from 15 dB."""
    tp_bin, tp_quat = (
        max((row.key_bits_per_session * row.agreed / row.sessions
             for row in rows if row.snr_db >= 15.0 and row.achieved()),
            default=0.0)
        for rows in (binary_rows, quaternary_rows))
    return (tp_quat >= tp_bin > 0,
            f"binary {tp_bin:.0f} vs 4-level {tp_quat:.0f} bits/session")


def key_rate_and_capacity(row, channel, blocks: int) -> tuple[float, float]:
    """A sweep row's key bits per real dimension, and the capacity."""
    prof = build_snr_profile(channel, row.snr_db)
    cap = csi_capacity(prof, channel.m_tones).capacity_per_dim
    return row.key_bits_per_session / (2 * blocks * channel.m_tones), cap


def below_capacity(rows_by_variant, channel, blocks: int) -> Claim:
    """Criterion 7d: no achieved row's key rate exceeds the capacity."""
    problems = []
    for name, rows in rows_by_variant.items():
        for row in rows:
            key_rate, cap = key_rate_and_capacity(row, channel, blocks)
            if row.achieved() and key_rate > cap:
                problems.append(f"{name} r={row.rate} at {row.snr_db} dB: "
                                f"{key_rate:.3f} > C={cap:.3f}")
    return verdict(problems, "all points checked")


def rotation_tracking(baseline: float, points) -> Claim:
    """Criterion 9 over ``(theta, success rate, theta errors)`` per on-grid
    rotation: exact estimates, success as in the untracked ``baseline``."""
    problems = []
    for theta, rate, errors in points:
        if any(err > 1e-9 for err in errors):
            problems.append(f"inexact rotation estimate at theta={theta}")
        if abs(rate - baseline) > 0.02:
            problems.append(f"success {rate:.2f} vs baseline {baseline:.2f} "
                            f"at theta={theta:.3f}")
    return verdict(problems,
                    f"baseline {baseline:.2f}, {len(points)} grid points")
