"""Deterministic random streams and elementary densities.

Everything downstream draws randomness through :class:`RngStream`, a
counter-based Philox stream.  A stream is single-owner: drawing advances it.
``split`` carves children out of disjoint counter windows of the parent, so a
Monte-Carlo batch spread over children is bit-reproducible no matter how the
work is scheduled; consuming the children in index order walks the same
windows of the one underlying Philox sequence (the documented interleaving).
"""

from __future__ import annotations

import math

import numpy as np

LOG_TWO_PI = math.log(2.0 * math.pi)

# Counter blocks reserved per child stream; far beyond any realistic draw count.
_SPLIT_STRIDE = 2 ** 64


def _philox(seed: int, offset: int = 0) -> np.random.Philox:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0x9E3779B97F4A7C15], dtype=np.uint64)
    bg = np.random.Philox(key=key)
    if offset:
        bg.advance(offset)
    return bg


class RngStream:
    """Philox-backed random stream with explicit seed and splittable counter."""

    def __init__(self, seed: int, _offset: int = 0):
        self.seed = int(seed)
        self._offset = int(_offset)
        self._gen = np.random.Generator(_philox(self.seed, self._offset))

    def split(self, k: int) -> list["RngStream"]:
        """Derive ``k`` child streams on disjoint counter windows.

        The parent is moved past the children's windows, so parent and children
        never overlap.
        """
        if k < 1:
            raise ValueError("need at least one child stream")
        children = [RngStream(self.seed, self._offset + (i + 1) * _SPLIT_STRIDE) for i in range(k)]
        self._offset += (k + 1) * _SPLIT_STRIDE
        self._gen = np.random.Generator(_philox(self.seed, self._offset))
        return children

    def standard_normal(self, shape=None, out=None) -> np.ndarray:
        """Draws of ``shape``, or filling ``out``, the same draws either way."""
        return self._gen.standard_normal(shape, out=out)

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def binomial(self, n, p, size=None) -> np.ndarray:
        return self._gen.binomial(n, p, size)

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size)


def log_gaussian_density(y, mean, variance):
    """log N(y; mean, variance) = -0.5 ln(2π v) - (y-mean)^2 / (2v).

    Accepts scalars or broadcastable arrays; variance must be strictly positive.
    """
    v = np.asarray(variance, dtype=float)
    if np.any(v <= 0.0):
        raise ValueError("variance must be positive")
    y = np.asarray(y, dtype=float)
    m = np.asarray(mean, dtype=float)
    out = -0.5 * (LOG_TWO_PI + np.log(v)) - (y - m) ** 2 / (2.0 * v)
    return float(out) if out.ndim == 0 else out


def softplus(x):
    """Numerically stable log(1 + exp(x))."""
    return np.logaddexp(0.0, x)


def logistic(x):
    """1 / (1 + exp(-x)), the derivative of softplus; below x = -709 exp(-x)
    overflows to inf and the quotient is the exact limit 0, so the warning is silenced."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def softplus_inv(y):
    """Inverse of softplus: log(exp(y) - 1), stable for large and tiny y."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("softplus output must be positive")
    with np.errstate(over="ignore"):
        out = np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))
    return float(out) if out.ndim == 0 else out
