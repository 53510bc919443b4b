import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from chankey.quantize import (
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
        Quantizer(levels=3)


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
    np.testing.assert_allclose(ev, 0.25, atol=1e-12)


def test_soft_evidence_confident_tail():
    sigma = 2.0
    ev = soft_evidence(np.array([3.0 * sigma]), rho=0.99, sigma=sigma,
                       quantizer=Q2)
    assert ev[0, 1] > 0.999


def test_soft_evidence_symmetric_at_zero():
    ev = soft_evidence(np.array([0.0]), rho=0.9, sigma=1.0, quantizer=Q4)
    g = ev[0]
    assert g[1] == pytest.approx(g[2], abs=1e-9)
    assert g[0] == pytest.approx(g[3], abs=1e-9)


def test_soft_evidence_rows_normalized():
    rng = make_rng(2)
    y = rng.standard_normal(500)
    ev = soft_evidence(y, rho=0.7, sigma=1.3, quantizer=Q4)
    np.testing.assert_allclose(ev.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(ev >= 0)


def test_soft_evidence_vector_rho_sigma():
    y = np.array([0.5, 0.5])
    ev = soft_evidence(y, rho=np.array([0.1, 0.95]), sigma=np.array([1.0, 1.0]),
                       quantizer=Q2)
    # stronger correlation concentrates the posterior
    assert ev[1, 1] > ev[0, 1]


def test_soft_evidence_rejects_bad_params():
    with pytest.raises(ValueError):
        soft_evidence(np.zeros(3), rho=1.0, sigma=1.0, quantizer=Q2)
    with pytest.raises(ValueError):
        soft_evidence(np.zeros(3), rho=0.5, sigma=0.0, quantizer=Q2)


def _cell_edges(quantizer):
    """Cell boundaries including the infinite outer edges."""
    return np.concatenate([[-np.inf], quantizer.thresholds, [np.inf]])


def _soft_evidence_edge_matrix(y, rho, sigma, quantizer):
    """Soft posteriors from the ``(N, q+1)`` matrix of standardized cell
    edges, infinite outer edges included: ndtr, ``np.diff`` and row sums."""
    y = np.asarray(y, dtype=float)
    rho = np.broadcast_to(np.asarray(rho, dtype=float), y.shape)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), y.shape)
    source_std = sigma / math.sqrt(2.0)
    cond_mean = rho * y
    cond_std = source_std * np.sqrt(1.0 - rho * rho)
    edges = _cell_edges(quantizer) * source_std[:, None]
    z = (edges - cond_mean[:, None]) / cond_std[:, None]
    post = np.diff(ndtr(z), axis=1)
    post /= post.sum(axis=1, keepdims=True)
    return post


NEAR_ONE = np.nextafter(1.0, 0.0)
SIGNED_RHOS = st.one_of(st.floats(-0.999999, 0.999999),
                        st.sampled_from([NEAR_ONE, -NEAR_ONE, 1.0 - 1e-12,
                                         -(1.0 - 1e-9), 0.0]))


@pytest.mark.golden
@settings(max_examples=150, deadline=None)
@given(data=st.data(), quantizer=st.sampled_from([Q2, Q4]),
       size=st.integers(0, 120), scalar_rho=st.booleans(),
       scalar_sigma=st.booleans(), y_scale=st.sampled_from([1.0, 1e3, 1e8]))
def test_soft_evidence_matches_cell_edge_matrix(data, quantizer, size,
                                                scalar_rho, scalar_sigma,
                                                y_scale):
    def values(strategy, scalar):
        if scalar:
            return data.draw(strategy)
        return np.array(data.draw(st.lists(strategy, min_size=size,
                                           max_size=size)), dtype=float)

    y = y_scale * values(st.floats(-10.0, 10.0), False)
    rho = values(SIGNED_RHOS, scalar_rho)
    sigma = values(st.floats(1e-3, 1e3), scalar_sigma)
    got = soft_evidence(y, rho, sigma, quantizer)
    want = _soft_evidence_edge_matrix(y, rho, sigma, quantizer)
    assert got.shape == want.shape == (size, quantizer.levels)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sigma", [np.inf, np.nan, -1.0])
def test_soft_evidence_rejects_unusable_sigma(sigma):
    with pytest.raises(ValueError, match="sigma"):
        soft_evidence(np.zeros(3), rho=0.5, sigma=sigma, quantizer=Q4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_soft_evidence_rejects_non_finite_observation(bad):
    y = np.array([0.3, bad, -0.2])
    with pytest.raises(ValueError, match="finite"):
        soft_evidence(y, rho=0.5, sigma=1.0, quantizer=Q4)


# ---------------------------------------------------------------------------
# hard evidence


def test_hard_evidence_independent_uniform():
    ev = hard_evidence(np.array([0, 1, 2, 3]), rho=0.0, quantizer=Q4)
    np.testing.assert_allclose(ev, 0.25, atol=1e-7)


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
    cells = np.diff(ndtr(_cell_edges(q)))
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


def test_confusion_rejects_unit_rho():
    for rho in (1.0, -1.0):
        with pytest.raises(ValueError, match="rho"):
            confusion_matrix(rho, Q2)


def test_hard_evidence_rows_normalized_and_cached():
    rng = make_rng(4)
    symbols = rng.integers(0, 4, size=300)
    ev = hard_evidence(symbols, rho=0.9, quantizer=Q4)
    np.testing.assert_allclose(ev.sum(axis=1), 1.0, atol=1e-9)
    # repeated call hits the cache and agrees exactly
    ev2 = hard_evidence(symbols, rho=0.9, quantizer=Q4)
    np.testing.assert_array_equal(ev, ev2)


def _hard_evidence_per_rho(y_symbols, rho, quantizer):
    """Reference: the per-rho mask loop hard_evidence used to run."""
    rho_vec = np.broadcast_to(np.asarray(rho, dtype=float), y_symbols.shape)
    post = np.empty((y_symbols.size, quantizer.levels))
    for r in np.unique(rho_vec):
        joint = confusion_matrix(r, quantizer)
        cond = joint / joint.sum(axis=0, keepdims=True)
        mask = rho_vec == r
        post[mask] = cond[:, y_symbols[mask]].T
    post /= post.sum(axis=1, keepdims=True)
    return post


@pytest.mark.golden
@settings(max_examples=60, deadline=None)
@given(data=st.data(), quantizer=st.sampled_from([Q2, Q4]),
       size=st.integers(1, 200), distinct=st.integers(1, 6),
       scalar=st.booleans())
def test_hard_evidence_matches_per_rho_loop(data, quantizer, size, distinct,
                                            scalar):
    levels = quantizer.levels
    symbols = np.array(data.draw(st.lists(st.integers(0, levels - 1),
                                          min_size=size, max_size=size)))
    pool = data.draw(st.lists(st.floats(-0.999, 0.999), min_size=distinct,
                              max_size=distinct))
    rho = pool[0] if scalar else np.array(data.draw(
        st.lists(st.sampled_from(pool), min_size=size, max_size=size)))
    got = hard_evidence(symbols, rho, quantizer)
    assert np.array_equal(got, _hard_evidence_per_rho(symbols, rho,
                                                      quantizer))


@pytest.mark.golden
@pytest.mark.parametrize("rho", [0.5, np.array([])])
def test_hard_evidence_empty_input(rho):
    for quantizer in (Q2, Q4):
        ev = hard_evidence(np.array([], dtype=np.uint8), rho, quantizer)
        assert ev.shape == (0, quantizer.levels)


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
