"""Reference schemes: transmit-MRC MISO and two-symbol successive decoding.

The MRC baseline sends one symbol per channel use with the whole per-use
budget behind it (constellation scaled to 2P). The successive baseline
superposes two symbols at power P each and decodes the stronger gain first,
treating the other symbol as noise.
"""

from __future__ import annotations

import numpy as np

from .model import PamConstellation


def mrc_effective_gain(g: np.ndarray):
    """Beamforming gain of transmit MRC: ||g|| over the last axis.

    The squares are added column by column, left to right: for up to 7
    antennas that is the order ``np.sum`` takes, so the result is its bit
    for bit, without the cost of its reduction one row at a time.
    """
    g = np.asarray(g, dtype=float)
    sq = g[..., 0] * g[..., 0]
    for j in range(1, g.shape[-1]):
        sq += g[..., j] * g[..., j]
    return np.sqrt(sq)


def mrc_decode_batch(y: np.ndarray, gain: np.ndarray, const: PamConstellation) -> np.ndarray:
    """Nearest-neighbor MRC decisions for observations ``y = gain * sym + n``."""
    return const.nearest(y / gain)


def _select(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.where(mask, a, b)`` for float64 ``a`` and ``b``, bit for bit,
    where ``mask`` is int64 -1 (every bit set) or 0: b ^ ((a ^ b) & mask)
    holds a's bits or b's. It takes no branch per element, where np.where
    mispredicts about half of them on a random mask (about 40 against 10 us
    per 8192 values)."""
    bits = np.bitwise_xor(a.view(np.int64), b.view(np.int64))
    bits &= mask
    bits ^= b.view(np.int64)
    return bits.view(np.float64)


def _successive_decode_batch(
    y: np.ndarray, h1: np.ndarray, h2: np.ndarray, const: PamConstellation
) -> np.ndarray:
    """Successive decisions (N, 2) on observations y = h1 s1 + h2 s2 + n.

    The symbol on the stronger |h| is decided first (s1 on a tie), then the
    other from the residual after subtracting it.
    """
    first_is_1 = np.negative(np.abs(h1) >= np.abs(h2), dtype=np.int64)
    h_first = _select(first_is_1, h1, h2)
    h_second = _select(first_is_1, h2, h1)
    s_first = const.nearest(y / h_first)
    residual = h_first * s_first
    np.subtract(y, residual, out=residual)
    residual /= h_second
    s_second = const.nearest(residual)
    hat = np.empty((len(y), 2))
    hat[:, 0] = _select(first_is_1, s_first, s_second)
    hat[:, 1] = _select(first_is_1, s_second, s_first)
    return hat
