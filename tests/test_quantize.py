import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from chankey.quantize import (
    Evidence,
    Quantizer,
    bit_planes,
    confusion_matrix,
    hard_evidence,
    quantize,
    soft_evidence,
)
from chankey.rng import make_rng

Q2 = Quantizer.equiprobable(2)
Q4 = Quantizer.equiprobable(4)

GAUSS_QUARTILE = 0.6744897501960817  # Phi^{-1}(0.75)


def test_equiprobable_thresholds():
    assert Q2.thresholds == (0.0,)
    np.testing.assert_allclose(Q4.thresholds,
                               [-GAUSS_QUARTILE, 0.0, GAUSS_QUARTILE],
                               atol=1e-12)


def test_quantizer_validation():
    with pytest.raises(ValueError):
        Quantizer(levels=3, thresholds=(0.0, 1.0))
    with pytest.raises(ValueError):
        Quantizer(levels=4, thresholds=(0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        Quantizer(levels=2, thresholds=())


def test_quantize_sign():
    symbols = quantize(np.array([-1.3, 0.2]), Q2)
    assert symbols.dtype == np.uint8
    np.testing.assert_array_equal(symbols, [0, 1])


def test_quantize_four_level_quartiles():
    x = np.array([-2.0, -0.1, 0.1, 2.0])
    symbols = quantize(x, Q4)
    np.testing.assert_array_equal(symbols, [0, 1, 2, 3])
    m, l = bit_planes(symbols)
    np.testing.assert_array_equal(m, [0, 0, 1, 1])
    np.testing.assert_array_equal(l, [0, 1, 0, 1])


def test_quantize_boundary_goes_up():
    assert quantize(np.array([0.0]), Q2)[0] == 1
    assert quantize(np.array([0.0]), Q4)[0] == 2
    assert quantize(np.array([-GAUSS_QUARTILE]), Q4)[0] == 1


def test_quantize_respects_scale():
    # thresholds are in source-sigma units; scale stretches them, so the
    # same raw value can land in different cells for different sigmas
    x = np.array([1.0, 1.0])
    np.testing.assert_array_equal(
        quantize(x, Q4, scale=np.array([1.0, 10.0])), [3, 2])


def test_quantize_rejects_nonfinite():
    with pytest.raises(ValueError):
        quantize(np.array([np.nan]), Q2)


def test_bit_planes_examples():
    m, l = bit_planes(np.array([3]))
    assert (m[0], l[0]) == (1, 1)
    m, l = bit_planes(np.array([2]))
    assert (m[0], l[0]) == (1, 0)


def test_bit_planes_roundtrip_exhaustive():
    symbols = np.array([0, 1, 2, 3])
    m, l = bit_planes(symbols)
    np.testing.assert_array_equal(2 * m + l, symbols)


def test_bit_planes_rejects_out_of_range():
    with pytest.raises(ValueError):
        bit_planes(np.array([4]))


def test_quantize_equiprobable_cells():
    rng = make_rng(1)
    x = rng.standard_normal(100_000)
    for q in (Q2, Q4):
        counts = np.bincount(quantize(x, q), minlength=q.levels)
        se = math.sqrt(0.25 / x.size)  # binomial se per cell
        np.testing.assert_allclose(counts / x.size, 1.0 / q.levels,
                                   atol=3.5 * se)


# ---------------------------------------------------------------------------
# soft evidence


def test_soft_evidence_independent_is_uniform():
    ev = soft_evidence(np.array([-3.0, 0.2, 5.0]), rho=0.0, sigma=2.0,
                       quantizer=Q4)
    np.testing.assert_allclose(ev.posteriors, 0.25, atol=1e-12)


def test_soft_evidence_confident_tail():
    sigma = 2.0
    ev = soft_evidence(np.array([3.0 * sigma]), rho=0.99, sigma=sigma,
                       quantizer=Q2)
    assert ev.posteriors[0, 1] > 0.999


def test_soft_evidence_symmetric_at_zero():
    ev = soft_evidence(np.array([0.0]), rho=0.9, sigma=1.0, quantizer=Q4)
    g = ev.posteriors[0]
    assert g[1] == pytest.approx(g[2], abs=1e-9)
    assert g[0] == pytest.approx(g[3], abs=1e-9)


def test_soft_evidence_rows_normalized():
    rng = make_rng(2)
    y = rng.standard_normal(500)
    ev = soft_evidence(y, rho=0.7, sigma=1.3, quantizer=Q4)
    np.testing.assert_allclose(ev.posteriors.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(ev.posteriors >= 0)


def test_soft_evidence_vector_rho_sigma():
    y = np.array([0.5, 0.5])
    ev = soft_evidence(y, rho=np.array([0.1, 0.95]), sigma=np.array([1.0, 1.0]),
                       quantizer=Q2)
    # stronger correlation concentrates the posterior
    assert ev.posteriors[1, 1] > ev.posteriors[0, 1]


def test_soft_evidence_rejects_bad_params():
    with pytest.raises(ValueError):
        soft_evidence(np.zeros(3), rho=1.0, sigma=1.0, quantizer=Q2)
    with pytest.raises(ValueError):
        soft_evidence(np.zeros(3), rho=0.5, sigma=0.0, quantizer=Q2)


# ---------------------------------------------------------------------------
# hard evidence


def test_hard_evidence_independent_uniform():
    ev = hard_evidence(np.array([0, 1, 2, 3]), rho=0.0, quantizer=Q4)
    np.testing.assert_allclose(ev.posteriors, 0.25, atol=1e-7)


def test_binary_crossover_identity():
    # P[levels differ] = arccos(rho) / pi for the sign quantizer
    rho = 0.99
    joint = confusion_matrix(rho, Q2)
    eps = joint[0, 1] + joint[1, 0]
    assert eps == pytest.approx(math.acos(rho) / math.pi, abs=1e-6)
    assert eps == pytest.approx(0.04505341364441213, abs=1e-6)
    # Monte-Carlo cross-check of the closed form
    rng = make_rng(3)
    n = 1_000_000
    x = rng.standard_normal(n)
    y = rho * x + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
    emp = np.mean((x >= 0) != (y >= 0))
    assert emp == pytest.approx(eps, abs=3 * math.sqrt(eps * (1 - eps) / n))


def test_confusion_matrix_double_symmetry():
    for q in (Q2, Q4):
        joint = confusion_matrix(0.8, q)
        np.testing.assert_allclose(joint, joint[::-1, ::-1], atol=1e-7)
        np.testing.assert_allclose(joint, joint.T, atol=1e-7)
        assert joint.sum() == pytest.approx(1.0, abs=1e-9)


RHOS = st.floats(0.0, 1.0 - 1e-12)


def _off_diagonal(joint):
    return joint.sum() - np.trace(joint)


@settings(max_examples=60, deadline=None)
@given(rho=RHOS)
def test_confusion_arcsin_identities(rho):
    # P[X < 0, Y < 0] = 1/4 + arcsin(rho) / 2pi (Sheppard's formula)
    joint2 = confusion_matrix(rho, Q2)
    assert np.trace(joint2) == pytest.approx(
        0.5 + math.asin(rho) / math.pi, abs=1e-12)
    joint4 = confusion_matrix(rho, Q4)
    assert joint4[:2, :2].sum() == pytest.approx(
        0.25 + math.asin(rho) / (2 * math.pi), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(rho=RHOS, levels=st.sampled_from([2, 4]))
def test_confusion_symmetries_and_marginals(rho, levels):
    q = Quantizer.equiprobable(levels)
    joint = confusion_matrix(rho, q)
    np.testing.assert_allclose(joint, joint.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(joint, joint[::-1, ::-1], rtol=0, atol=1e-12)
    cells = np.diff(ndtr(q.cell_edges()))
    np.testing.assert_allclose(joint.sum(axis=1), cells, rtol=0, atol=1e-12)
    np.testing.assert_allclose(joint.sum(axis=0), cells, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(rhos=st.lists(RHOS, min_size=2, max_size=2),
       levels=st.sampled_from([2, 4]))
def test_confusion_off_diagonal_falls_with_rho(rhos, levels):
    q = Quantizer.equiprobable(levels)
    low, high = sorted(rhos)
    assert (_off_diagonal(confusion_matrix(high, q))
            <= _off_diagonal(confusion_matrix(low, q)) + 1e-14)


def test_confusion_four_level_monte_carlo_near_one():
    # rho = 0.99999 is the Table I channel at 40 dB
    rho = 0.99999
    joint = confusion_matrix(rho, Q4)
    rng = make_rng(6)
    n = 1_000_000
    x = rng.standard_normal(n)
    y = rho * x + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
    cells = quantize(x, Q4).astype(int) * 4 + quantize(y, Q4)
    emp = np.bincount(cells, minlength=16).reshape(4, 4) / n
    sigma = np.sqrt(joint * (1 - joint) / n)
    assert np.all(np.abs(emp - joint) <= 4 * sigma)


def test_confusion_at_largest_rho_below_one():
    rho = np.nextafter(1.0, 0.0)
    for q in (Q2, Q4):
        joint = confusion_matrix(rho, q)
        assert np.all(np.isfinite(joint)) and np.all(joint >= 0)
        assert _off_diagonal(joint) < 1e-7


def test_confusion_cells_clipped_at_zero():
    # unclipped, a 4-level double difference rounds to -5.6e-17 here
    assert np.all(confusion_matrix(-0.9871, Q4) >= 0)


def test_confusion_negative_zero_threshold():
    # a -0.0 edge must not flip the sign of its infinite T argument (the
    # cache keys -0.0 and 0.0 alike, so one wrong entry would serve both)
    q = Quantizer(levels=4, thresholds=(-1.0, -0.0, 1.0))
    joint = confusion_matrix(0.6, q)
    cells = np.diff(ndtr(q.cell_edges()))
    np.testing.assert_allclose(joint.sum(axis=1), cells, rtol=0, atol=1e-12)
    np.testing.assert_allclose(joint, joint.T, rtol=0, atol=1e-12)


def test_confusion_rejects_unit_rho():
    for rho in (1.0, -1.0):
        with pytest.raises(ValueError, match="rho"):
            confusion_matrix(rho, Q2)


def test_hard_evidence_rows_normalized_and_cached():
    rng = make_rng(4)
    symbols = rng.integers(0, 4, size=300)
    ev = hard_evidence(symbols, rho=0.9, quantizer=Q4)
    np.testing.assert_allclose(ev.posteriors.sum(axis=1), 1.0, atol=1e-9)
    # repeated call hits the cache and agrees exactly
    ev2 = hard_evidence(symbols, rho=0.9, quantizer=Q4)
    np.testing.assert_array_equal(ev.posteriors, ev2.posteriors)


def test_hard_evidence_rejects_out_of_range():
    with pytest.raises(ValueError):
        hard_evidence(np.array([2]), rho=0.5, quantizer=Q2)


# ---------------------------------------------------------------------------
# information ordering (data-processing check)


def _discrete_mi_bits(ix, iy, kx, ky):
    n = ix.size
    joint = np.bincount(ix * ky + iy, minlength=kx * ky).astype(float)
    joint /= n
    px = joint.reshape(kx, ky).sum(axis=1)
    py = joint.reshape(kx, ky).sum(axis=0)

    def h(p):
        p = p[p > 0]
        return -(p * np.log2(p)).sum()

    return h(px) + h(py) - h(joint)


def test_soft_input_carries_more_information_than_quantized():
    rho = 0.8
    rng = make_rng(5)
    n = 100_000
    x = rng.standard_normal(n)
    y = rho * x + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
    xa = quantize(x, Q4).astype(int)
    yq = quantize(y, Q4).astype(int)
    # bin Bob's raw value finely to approximate the continuous observation
    edges = np.quantile(y, np.linspace(0, 1, 65)[1:-1])
    ybins = np.searchsorted(edges, y, side="right")
    i_soft = _discrete_mi_bits(xa, ybins, 4, 64)
    i_hard = _discrete_mi_bits(xa, yq, 4, 4)
    assert i_soft >= i_hard


def test_evidence_validation():
    with pytest.raises(ValueError):
        Evidence(posteriors=np.array([[0.5, 0.6]]))
    with pytest.raises(ValueError):
        Evidence(posteriors=np.array([[-0.5, 1.5]]))
