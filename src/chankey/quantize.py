"""Scalar quantization and Bob-side channel evidence.

Alice quantizes each real observation independently into 2 or 4 levels with
thresholds fixed in units of the source standard deviation (default:
equiprobable Gaussian quantiles, which maximizes key entropy per symbol).
Four-level symbols split into most/least significant bit planes
``x = x_L + 2 x_M``.

Bob's decoder consumes per-symbol posteriors over Alice's levels: from his
raw real observation in soft mode, or from his own quantized symbol (via the
level confusion matrix) in hard mode.  The confusion matrix is computed in
closed form from Owen's T function, exact at every correlation |rho| < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import stats
from scipy.special import ndtr, owens_t


@dataclass(frozen=True)
class Quantizer:
    """Ascending thresholds (in source-sigma units) defining q cells.

    Values on a threshold go to the upper cell.  With natural ascending
    labels the most significant bit of a 4-level symbol is the sign bit.
    """

    levels: int
    thresholds: tuple

    def __post_init__(self):
        if self.levels not in (2, 4):
            raise ValueError("levels must be 2 or 4")
        if len(self.thresholds) != self.levels - 1:
            raise ValueError("need exactly levels-1 thresholds")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly ascending")

    @classmethod
    def equiprobable(cls, levels: int) -> "Quantizer":
        """Gaussian-quantile thresholds giving each cell probability 1/q."""
        probs = np.arange(1, levels) / levels
        return cls(levels=levels, thresholds=tuple(stats.norm.ppf(probs)))

    def cell_edges(self) -> np.ndarray:
        """Cell boundaries including the infinite outer edges."""
        return np.concatenate([[-np.inf], self.thresholds, [np.inf]])


@dataclass(frozen=True)
class Evidence:
    """Per-symbol posteriors over Alice's levels (rows sum to one)."""

    posteriors: np.ndarray

    def __post_init__(self):
        if np.any(self.posteriors < 0):
            raise ValueError("posteriors must be nonnegative")
        sums = self.posteriors.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValueError("posterior rows must sum to 1")


def quantize(x: np.ndarray, quantizer: Quantizer, scale=1.0) -> np.ndarray:
    """Map each value to its cell index; boundary values go to the upper cell.

    Returns the ``uint8`` symbols in the shape of ``x``.  ``scale`` is the
    source standard deviation (scalar or per-element) by which the
    quantizer's normalized thresholds are multiplied.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("inputs must be finite")
    thresholds = np.asarray(quantizer.thresholds)
    scaled = thresholds[None, :] * np.broadcast_to(
        np.asarray(scale, dtype=float), x.shape
    ).reshape(-1, 1)
    symbols = (x.reshape(-1, 1) >= scaled).sum(axis=1).astype(np.uint8)
    return symbols.reshape(x.shape)


def bit_planes(symbols: np.ndarray):
    """Split 4-level symbols into (most, least) significant bit planes."""
    symbols = np.asarray(symbols)
    if symbols.size and (symbols.min() < 0 or symbols.max() > 3):
        raise ValueError("symbols out of range for 4-level data")
    return (symbols // 2).astype(np.uint8), (symbols % 2).astype(np.uint8)


def soft_evidence(y: np.ndarray, rho: np.ndarray | float, sigma: np.ndarray | float,
                  quantizer: Quantizer) -> Evidence:
    """Posterior over Alice's cells given Bob's raw real observation.

    The pair of raw values is bivariate Gaussian with correlation ``rho``
    and common variance ``sigma**2 / 2`` per real dimension (``sigma`` is
    the complex observation scale); ``rho`` and ``sigma`` may be scalars or
    per-element vectors.
    """
    y = np.asarray(y, dtype=float)
    rho = np.broadcast_to(np.asarray(rho, dtype=float), y.shape)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), y.shape)
    if np.any(np.abs(rho) >= 1.0):
        raise ValueError("need |rho| < 1")
    if np.any(sigma <= 0):
        raise ValueError("sigma must be positive")
    source_std = sigma / math.sqrt(2.0)
    cond_mean = rho * y
    cond_std = source_std * np.sqrt(1.0 - rho * rho)
    edges = quantizer.cell_edges() * source_std[:, None]
    z = (edges - cond_mean[:, None]) / cond_std[:, None]
    cdf = stats.norm.cdf(z)
    post = np.diff(cdf, axis=1)
    post /= post.sum(axis=1, keepdims=True)
    return Evidence(posteriors=post)


@lru_cache(maxsize=32)
def _confusion_cached(rho: float, levels: int, thresholds: tuple) -> tuple:
    """Joint cell probabilities of a standardized bivariate Gaussian pair.

    Each cell is the double difference of the joint CDF over its corners.
    Corners on an infinite edge are the marginals Phi(t); finite corners
    (h, k) use Owen's closed form in his T function (Ann. Math. Statist.
    1956), where a zero edge sends a T argument to +-inf, which the formula
    absorbs everywhere but at h = k = 0.
    """
    if abs(rho) >= 1.0:
        raise ValueError("need |rho| < 1")
    t = np.asarray(thresholds, dtype=float) + 0.0  # no -0.0: it flips a_h
    h, k, r = t[:, None], t[None, :], math.sqrt(1.0 - rho * rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_h, a_k = (k - rho * h) / (h * r), (h - rho * k) / (k * r)
    beta = 0.5 * ((h * k < 0) | ((h * k == 0) & (h + k < 0)))
    owen = (0.5 * (ndtr(h) + ndtr(k)) - owens_t(h, a_h) - owens_t(k, a_k)
            - beta)
    marginal = ndtr(np.concatenate([[-np.inf], t, [np.inf]]))
    cdf = np.minimum.outer(marginal, marginal)
    cdf[1:-1, 1:-1] = np.where((h == 0) & (k == 0),
                               0.25 + math.asin(rho) / (2.0 * math.pi), owen)
    joint = np.maximum(np.diff(np.diff(cdf, axis=0), axis=1), 0.0)
    return tuple(map(tuple, joint))


def confusion_matrix(rho: float, quantizer: Quantizer) -> np.ndarray:
    """q x q matrix P[alice level = a, bob level = b] under correlation rho."""
    return np.array(_confusion_cached(float(rho), quantizer.levels,
                                      quantizer.thresholds))


def hard_evidence(y_symbols: np.ndarray, rho: np.ndarray | float,
                  quantizer: Quantizer) -> Evidence:
    """Posterior over Alice's cells given Bob's quantized symbol."""
    y_symbols = np.asarray(y_symbols)
    if y_symbols.size and (y_symbols.min() < 0
                           or y_symbols.max() >= quantizer.levels):
        raise ValueError("symbols out of range")
    rho_vec = np.broadcast_to(np.asarray(rho, dtype=float), y_symbols.shape)
    post = np.empty((y_symbols.size, quantizer.levels))
    for r in np.unique(rho_vec):
        joint = confusion_matrix(r, quantizer)
        cond = joint / joint.sum(axis=0, keepdims=True)
        mask = rho_vec == r
        post[mask] = cond[:, y_symbols[mask]].T
    post /= post.sum(axis=1, keepdims=True)
    return Evidence(posteriors=post)
