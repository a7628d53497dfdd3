"""Reference schemes: transmit-MRC MISO and two-symbol successive decoding.

The MRC baseline sends one symbol per channel use with the whole per-use
budget behind it (constellation scaled to 2P). The successive baseline
superposes two symbols at power P each and decodes the stronger gain first,
treating the other symbol as noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NoiseModel, PamConstellation

MRC_MISO = "mrc_miso"
SUCCESSIVE = "successive"


@dataclass
class BaselineConfig:
    scheme: str
    total_power_per_use: float

    def __post_init__(self) -> None:
        if self.scheme not in (MRC_MISO, SUCCESSIVE):
            raise ValueError(f"unknown baseline scheme {self.scheme!r}")
        if self.total_power_per_use <= 0:
            raise ValueError("power must be positive")


def mrc_effective_gain(g: np.ndarray):
    """Beamforming gain of transmit MRC: ||g|| over the last axis."""
    return np.sqrt(np.sum(np.asarray(g, dtype=float) ** 2, axis=-1))


def mrc_decode_batch(y: np.ndarray, gain: np.ndarray, const: PamConstellation) -> np.ndarray:
    """Nearest-neighbor MRC decisions for observations ``y = gain * sym + n``."""
    return const.nearest(y / gain)


def mrc_transmit_decode(
    sym: float,
    g: np.ndarray,
    const: PamConstellation,
    sigma2: float | None,
    rng: np.random.Generator | None = None,
) -> float:
    """One MRC use: y = ||g|| * sym + n, then nearest-neighbor decoding.

    ``sym`` must come from ``const``, which carries the full per-use power.
    """
    gain = mrc_effective_gain(g)
    y = gain * sym
    if sigma2 is not None:
        if rng is None:
            raise ValueError("rng is required when noise is present")
        y += NoiseModel(sigma2).sample(rng)
    return float(mrc_decode_batch(np.asarray([y]), np.asarray([gain]), const)[0])


def successive_transmit_decode(
    s1: float,
    s2: float,
    h1: float,
    h2: float,
    const: PamConstellation,
    sigma2: float | None,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Superpose two symbols, decode stronger-|h| first, subtract, decode the other."""
    y = h1 * s1 + h2 * s2
    if sigma2 is not None:
        if rng is None:
            raise ValueError("rng is required when noise is present")
        y += NoiseModel(sigma2).sample(rng)
    s_hat = _successive_decode_batch(np.asarray([y]), np.asarray([h1]), np.asarray([h2]), const)
    return float(s_hat[0, 0]), float(s_hat[0, 1])


def _successive_decode_batch(
    y: np.ndarray, h1: np.ndarray, h2: np.ndarray, const: PamConstellation
) -> np.ndarray:
    """Vectorized successive decoding; returns decoded pairs of shape (N, 2)."""
    first_is_1 = np.abs(h1) >= np.abs(h2)
    h_first = np.where(first_is_1, h1, h2)
    h_second = np.where(first_is_1, h2, h1)
    s_first = const.nearest(y / h_first)
    s_second = const.nearest((y - h_first * s_first) / h_second)
    s1_hat = np.where(first_is_1, s_first, s_second)
    s2_hat = np.where(first_is_1, s_second, s_first)
    return np.column_stack([s1_hat, s2_hat])
