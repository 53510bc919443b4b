"""Scalar quantization and Bob-side channel evidence.

Alice quantizes each real observation independently into 2 or 4 equiprobable
cells, split at the Gaussian quantiles in units of the source standard
deviation (which maximizes key entropy per symbol).
Four-level symbols split into most/least significant bit planes
``x = x_L + 2 x_M``.

Bob's decoder consumes per-symbol posteriors over Alice's levels: from his
raw real observation in soft mode, or from his own quantized symbol (via the
level confusion matrix) in hard mode.  The confusion matrix is computed in
closed form from Owen's T function, exact at every correlation |rho| < 1.

``scipy.special`` serves key sessions only, so it loads on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
# scipy.special is imported by its users: it costs a fresh process ~0.3 s and
# ~26 MB that the numpy-only capacity commands and code construction skip


@dataclass(frozen=True)
class Quantizer:
    """q = ``levels`` cells of probability 1/q each for a Gaussian source.

    ``thresholds`` holds the q - 1 ascending Gaussian quantiles k/q (in
    source-sigma units) that split the cells.  Values on a threshold go to
    the upper cell.  With natural ascending labels the most significant bit
    of a 4-level symbol is the sign bit.
    """

    levels: int
    thresholds: tuple = field(init=False)

    def __post_init__(self):
        if self.levels not in (2, 4):
            raise ValueError("levels must be 2 or 4")
        from scipy.special import ndtri
        probs = np.arange(1, self.levels) / self.levels
        object.__setattr__(self, "thresholds", tuple(ndtri(probs)))

    @classmethod
    def equiprobable(cls, levels: int) -> "Quantizer":
        """The quantizer of ``levels`` equiprobable cells."""
        return cls(levels)


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
                  quantizer: Quantizer) -> np.ndarray:
    """Posterior over Alice's cells given Bob's raw real observation.

    Returns the ``(N, q)`` posteriors, each row summing to one.  The pair
    of raw values is bivariate Gaussian with correlation ``rho`` and common
    variance ``sigma**2 / 2`` per real dimension (``sigma`` is the complex
    observation scale); ``rho`` and ``sigma`` may be scalars or per-element
    vectors.
    """
    from scipy.special import ndtr
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("observations must be finite")
    rho = np.broadcast_to(np.asarray(rho, dtype=float), y.shape)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), y.shape)
    if not np.all(np.abs(rho) < 1.0):
        raise ValueError("need |rho| < 1")
    if not np.all((sigma > 0) & np.isfinite(sigma)):
        raise ValueError("sigma must be positive and finite")
    source_std = sigma / math.sqrt(2.0)
    cond_mean = rho * y
    cond_std = source_std * np.sqrt(1.0 - rho * rho)
    # cell k holds cdf[k+1] - cdf[k], where cdf is exactly 0.0 and 1.0 at
    # the infinite outer edges and ndtr of the standardized threshold at
    # each finite one; the row totals add the cells left to right
    cdf = []
    for t in quantizer.thresholds:
        z = np.multiply(t, source_std)
        z -= cond_mean
        z /= cond_std
        cdf.append(ndtr(z, out=z))
    cells = [cdf[0]] + [hi - lo for lo, hi in zip(cdf, cdf[1:] + [1.0])]
    total = sum(cells[1:], start=cells[0])
    post = np.empty(y.shape + (len(cells),))
    for k, cell in enumerate(cells):
        np.divide(cell, total, out=post[:, k])
    return post


@lru_cache(maxsize=32)
def _confusion_cached(rho: float, quantizer: Quantizer) -> tuple:
    """Joint cell probabilities of a standardized bivariate Gaussian pair.

    Each cell is the double difference of the joint CDF over its corners.
    Corners on an infinite edge are the marginals Phi(t); finite corners
    (h, k) use Owen's closed form in his T function (Ann. Math. Statist.
    1956), where a zero edge sends a T argument to +-inf, which the formula
    absorbs everywhere but at h = k = 0.
    """
    from scipy.special import ndtr, owens_t
    if abs(rho) >= 1.0:
        raise ValueError("need |rho| < 1")
    t = np.asarray(quantizer.thresholds, dtype=float)
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
    return np.array(_confusion_cached(float(rho), quantizer))


def hard_evidence(y_symbols: np.ndarray, rho: np.ndarray | float,
                  quantizer: Quantizer) -> np.ndarray:
    """Posterior over Alice's cells given Bob's quantized symbol, ``(N, q)``."""
    y_symbols = np.asarray(y_symbols)
    if y_symbols.size and (y_symbols.min() < 0
                           or y_symbols.max() >= quantizer.levels):
        raise ValueError("symbols out of range")
    q = quantizer.levels
    rho_vec = np.broadcast_to(np.asarray(rho, dtype=float), y_symbols.shape)
    rhos, which = np.unique(rho_vec, return_inverse=True)
    # reshape, not stack: an empty input has no matrices to stack
    joint = np.array([confusion_matrix(r, quantizer) for r in rhos])
    joint = joint.reshape(-1, q, q)
    cond = joint / joint.sum(axis=1, keepdims=True)
    post = cond[which.ravel(), :, y_symbols.ravel()]
    post /= post.sum(axis=1, keepdims=True)
    return post
