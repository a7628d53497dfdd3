"""Constellations with exact power accounting, and channel draws.

Everything random takes an explicit ``numpy.random.Generator`` so results
are reproducible and trial-parallel safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Gains with magnitude below this are treated as deep fades and resampled,
# keeping the dissolution factor numerically safe.
EPS_GAIN = 1e-3

# Rayleigh scale for unit mean-square gain: E[R^2] = 2*scale^2 = 1.
_RAYLEIGH_SCALE = 1.0 / np.sqrt(2.0)


@dataclass
class PamConstellation:
    """Symmetric PAM alphabet ``a_s * {+-1, ..., +-q_s}`` (zero excluded).

    The zero symbol is excluded so that dissolution never divides by a
    vanishing symbol; the alphabet has exactly ``2 * q_s`` points.
    """

    a_s: float
    q_s: int

    def __post_init__(self) -> None:
        if self.a_s <= 0:
            raise ValueError(f"amplitude step must be positive, got {self.a_s}")
        if self.q_s < 1 or int(self.q_s) != self.q_s:
            raise ValueError(f"half-size must be a positive integer, got {self.q_s}")
        self.q_s = int(self.q_s)

    @property
    def points(self) -> np.ndarray:
        """Alphabet points in ascending order, ``[-q_s..-1, 1..q_s] * a_s``."""
        levels = np.concatenate([np.arange(-self.q_s, 0), np.arange(1, self.q_s + 1)])
        return self.a_s * levels.astype(float)

    @property
    def power(self) -> float:
        """Average symbol power ``a_s^2 (q_s+1)(2 q_s+1) / 6`` (exact)."""
        return self.a_s**2 * (self.q_s + 1) * (2 * self.q_s + 1) / 6.0

    def draw(self, rng: np.random.Generator, size=None) -> np.ndarray:
        """Uniform draw from the alphabet."""
        return rng.choice(self.points, size=size)

    def nearest(self, x) -> np.ndarray:
        """Nearest alphabet point(s) to ``x`` (ties resolve to the lower point).

        The nearest integer level with ties down is ceil(x / a_s - 0.5). It
        is clipped to [1, q_s] for x > 0 and to [-q_s, -1] otherwise, which
        maps level 0 to the nearer of +-1 (-1 at x = 0).
        """
        t = np.asarray(x, dtype=float) / self.a_s
        level = np.ceil(t - 0.5)
        level = np.where(t > 0, np.clip(level, 1, self.q_s), np.clip(level, -self.q_s, -1))
        return self.a_s * level


def amplitude_for_power(p: float, q_s: int) -> float:
    """Amplitude step so that the alphabet's average power is exactly ``p``.

    Inverts the exact power formula: ``a_s = sqrt(6 p / ((q_s+1)(2 q_s+1)))``.
    """
    if p <= 0:
        raise ValueError(f"power must be positive, got {p}")
    if q_s < 1:
        raise ValueError(f"half-size must be a positive integer, got {q_s}")
    return float(np.sqrt(6.0 * p / ((q_s + 1) * (2 * q_s + 1))))


def constellation_for_power(p: float, q_s: int) -> PamConstellation:
    """Alphabet with half-size ``q_s`` scaled to average power ``p``."""
    return PamConstellation(a_s=amplitude_for_power(p, q_s), q_s=q_s)


def _signed_rayleigh(rng: np.random.Generator, size) -> np.ndarray:
    """Real gains: Rayleigh magnitude with E[h^2] = 1 and random sign.

    Magnitudes below ``EPS_GAIN`` are resampled.
    """
    mag = rng.rayleigh(scale=_RAYLEIGH_SCALE, size=size)
    bad = mag < EPS_GAIN
    while np.any(bad):
        mag[bad] = rng.rayleigh(scale=_RAYLEIGH_SCALE, size=int(bad.sum()))
        bad = mag < EPS_GAIN
    sign = rng.integers(0, 2, size=size) * 2 - 1
    return mag * sign


def symbol_antenna_map(k: int, n: int) -> np.ndarray:
    """Antenna index carrying each of the ``k`` symbols.

    For ``k <= n`` symbol i uses antenna i. For ``k > n`` the symbols are
    split into ``n`` contiguous blocks (smaller blocks first, matching the
    two-antenna split of floor(k/2) then the rest).
    """
    if k <= n:
        return np.arange(k)
    base, rem = divmod(k, n)
    counts = [base] * (n - rem) + [base + 1] * rem
    return np.repeat(np.arange(n), counts)


def draw_channels(k: int, n: int, count: int, rng: np.random.Generator):
    """Draw ``count`` channels: ``(h, g)`` of shapes (count, k) and (count, n).

    ``g`` holds the antenna gains and ``h`` the symbol gains, mapped by
    ``symbol_antenna_map``: with ``k <= n`` the first ``k`` antenna gains,
    with ``k > n`` blocks of symbols sharing an antenna, so ``sum h^2``
    exceeds ``sum g^2``. One channel is ``count = 1``.
    """
    if k < 2:
        raise ValueError(f"need at least two symbols, got k={k}")
    if n < 2:
        raise ValueError(f"need at least two antennas, got n={n}")
    g = _signed_rayleigh(rng, (count, n))
    h = g[:, symbol_antenna_map(k, n)]
    return h, g
