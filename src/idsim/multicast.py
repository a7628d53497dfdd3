"""Three-user multicast: three symbols in two channel uses.

The first use sends s1 + s2 + alpha*s3; the second dissolves alpha*s3 into
s2 (beta = 1 + alpha*s3/s2) and sends s2 - beta*s1. Every user sees

    (y1, y2) = h_i * [ (s1, s2) + beta (s2, -s1) ] + noise,

decodes the pair with the weight rule, and user 3 recovers s3 from the
first-use residual alpha*h3*s3. The irrational alpha = ALPHA = sqrt(3)/2
keeps beta generic so the pair stays separable.
"""

from __future__ import annotations

import numpy as np

from . import core
from .analysis import DofPoint, constellation_size_for_power, fano_rate_lower_bound
from .model import PamConstellation, constellation_for_power

ALPHA = float(np.sqrt(3.0) / 2.0)

SYMBOLS_PER_USE = 1.5

# Frames per batch of the s3 rate-slope estimate.
S3_CHUNK = 4096


def multicast_precode(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Precode frames s = (..., 3) into beta (...,) and the two sent signals (..., 2).

    All three symbols leave one antenna, so this is ``core.dissolve`` at unit
    gains with alpha*s3 as the interference: x = (s1 + s2 + alpha*s3, s2 - beta*s1).
    """
    return core.dissolve(np.ones(2), s[..., :2], ALPHA * s[..., 2])


def multicast_observe(x: np.ndarray, h: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Observations h * x + noise of users with gains h (...,) of frames x (..., 2).

    The unit-variance noise is drawn from ``rng`` in one call of the
    observations' shape; without ``rng`` the observations are noiseless.
    """
    y = np.asarray(h)[..., None] * x
    if rng is not None:
        y += rng.standard_normal(y.shape)
    return y


def multicast_decode(
    y: np.ndarray, h: np.ndarray, pair_const: PamConstellation, s3_const: PamConstellation
) -> np.ndarray:
    """Estimates (n, 3) of (s1, s2, s3) from observations y (n, 2) on gains h (n,).

    The pair is decoded by ``multicast_decode_pair`` over the alphabet
    ``pair_const``; s3 is read from the first-use residual over ``s3_const``.
    """
    pair = multicast_decode_pair(y, h, pair_const)
    s3 = multicast_decode_s3(y[:, 0], h, pair[:, 0], pair[:, 1], s3_const)
    return np.column_stack([pair, s3])


def multicast_decode_pair(y: np.ndarray, h: np.ndarray, const: PamConstellation) -> np.ndarray:
    """Decisions (n, 2) on (s1, s2) from observations y (n, 2) on gains h (n,):
    the weight rule over the alphabet ``const``, in its one-gain form."""
    return core.pair_decode(y, np.stack([h, h], axis=-1), 1, const)


def multicast_decode_s3(y1_user3, h3, s1_hat, s2_hat, const: PamConstellation):
    """Strip the decoded pair from user 3's first observation and decode s3.

    Takes scalars or equal-shape arrays, one entry per frame.
    """
    residual = y1_user3 - h3 * (s1_hat + s2_hat)
    return const.nearest(residual / (ALPHA * h3))


def s3_rate_slope(p_grid, epsilon: float, trials: int, rng: np.random.Generator) -> list[DofPoint]:
    """Fano rate of s3 at user 3 against (1/2) log2 P, as ``DofPoint``s
    whose ``ratio`` is the slope.

    The pair keeps the half-size 2 while s3's half-size grows as
    P^((1-eps)/2), ``constellation_size_for_power`` at one degree of
    freedom. User 3's gain is held at one (the degrees-of-freedom claim is
    per realization), and the noise variance is one. Decoding is end to
    end, pair first and then the residual, so error propagation is
    included. Frames are drawn S3_CHUNK at a time. Every power must exceed
    1 (0 dB); the grid and ``epsilon`` are checked before the first draw.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    sizes = [constellation_size_for_power(p, epsilon, dof=1) for p in p_grid]
    out = []
    for p, q3 in zip(p_grid, sizes):
        pair_const = constellation_for_power(p, 2)
        s3_const = constellation_for_power(p, q3)
        errors = 0
        for n in core.chunk_sizes(trials, S3_CHUNK):
            s = np.column_stack([pair_const.draw(rng, size=(n, 2)), s3_const.draw(rng, size=n)])
            h = np.ones(n)
            y = multicast_observe(multicast_precode(s)[1], h, rng)
            s3_hat = multicast_decode(y, h, pair_const, s3_const)[:, 2]
            errors += int(np.count_nonzero(s3_hat != s[:, 2]))
        pe = errors / trials
        out.append(DofPoint(p=float(p), q_s=q3, pe=pe, fano_bound=fano_rate_lower_bound(pe, q3)))
    return out
