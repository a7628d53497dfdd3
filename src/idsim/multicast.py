"""Three-user multicast: three symbols in two channel uses.

The first use sends s1 + s2 + alpha*s3; the second dissolves alpha*s3 into
s2 (beta = 1 + alpha*s3/s2) and sends s2 - beta*s1. Every user sees

    (y1, y2) = h_i * [ (s1, s2) + beta (s2, -s1) ] + noise,

decodes the pair with the weight rule, and user 3 recovers s3 from the
first-use residual alpha*h3*s3. The irrational alpha keeps beta generic so
the pair stays separable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .analysis import fano_rate_lower_bound
from .model import NoiseModel, PamConstellation, _signed_rayleigh, constellation_for_power

ALPHA_DEFAULT = float(np.sqrt(3.0) / 2.0)

SYMBOLS_PER_USE = 1.5


@dataclass
class MulticastFrame:
    """The two transmitted signals and the dissolution bookkeeping."""

    alpha: float
    beta: float
    x1: float
    x2: float


def multicast_transmit(s1: float, s2: float, s3: float, alpha: float = ALPHA_DEFAULT) -> MulticastFrame:
    """Precode (s1, s2, s3) into the two channel uses."""
    if s2 == 0.0:
        raise ValueError("s2 must be nonzero (zero is excluded from the alphabet)")
    beta = 1.0 + alpha * s3 / s2
    return MulticastFrame(alpha=alpha, beta=beta, x1=s1 + s2 + alpha * s3, x2=s2 - beta * s1)


def multicast_receive(
    frame: MulticastFrame,
    h_i: float,
    sigma2: float | None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """User i's two observations (y1, y2)."""
    y = np.array([h_i * frame.x1, h_i * frame.x2])
    if sigma2 is not None:
        if rng is None:
            raise ValueError("rng is required when noise is present")
        y += NoiseModel(sigma2).sample(rng, size=2)
    return y


def multicast_receive_decode(
    frame: MulticastFrame,
    h_i: float,
    sigma2: float | None,
    rng: np.random.Generator | None,
    const: PamConstellation,
) -> tuple[float, float]:
    """Decode (s1, s2) at one user with the weight rule, common gain h_i."""
    y = multicast_receive(frame, h_i, sigma2, rng)
    cands = core.candidate_pairs(const)
    w = core.weight_matrix(y, np.array([h_i, h_i]), cands)
    best = cands[int(np.argmin(w))]
    return float(best[0]), float(best[1])


def multicast_decode_s3(
    y1_user3: float,
    h3: float,
    s1_hat: float,
    s2_hat: float,
    alpha: float,
    const: PamConstellation,
) -> float:
    """Strip the decoded pair from user 3's first observation and decode s3."""
    residual = y1_user3 - h3 * (s1_hat + s2_hat)
    return float(const.nearest(residual / (alpha * h3)))


def s3_rate_slope(
    p_grid,
    epsilon: float,
    trials: int,
    rng: np.random.Generator,
    pair_q_s: int = 2,
    alpha: float = ALPHA_DEFAULT,
    sigma2: float = 1.0,
    h3: float = 1.0,
) -> list[tuple[float, float]]:
    """Fano-rate slope of s3 against (1/2) log2 P at user 3.

    The pair keeps a fixed small alphabet while s3's half-size grows as
    P^((1-eps)/2), the one-degree-of-freedom scaling. The gain is held
    fixed (the degrees-of-freedom claim is per realization; unit gain by
    default). Decoding is end to end, pair first and then the residual,
    so error propagation is included.
    """
    out = []
    for p in np.asarray(p_grid, dtype=float):
        q3 = max(1, int(round(p ** ((1.0 - epsilon) / 2.0))))
        pair_const = constellation_for_power(p, pair_q_s)
        s3_const = constellation_for_power(p, q3)
        cands = core.candidate_pairs(pair_const)
        errors = 0
        done = 0
        while done < trials:
            n = min(4096, trials - done)
            s12 = pair_const.draw(rng, size=(n, 2))
            s3 = s3_const.draw(rng, size=n)
            beta = 1.0 + alpha * s3 / s12[:, 1]
            y = np.empty((n, 2))
            y[:, 0] = h3 * (s12[:, 0] + s12[:, 1] + alpha * s3)
            y[:, 1] = h3 * (s12[:, 1] - beta * s12[:, 0])
            y += rng.normal(0.0, np.sqrt(sigma2), size=(n, 2))
            hp = np.full((n, 2), h3)
            hat = cands[core.argmin_metric(core.weight_matrix, y, hp, cands)]
            resid = y[:, 0] - h3 * (hat[:, 0] + hat[:, 1])
            s3_hat = s3_const.nearest(resid / (alpha * h3))
            errors += int(np.sum(s3_hat != s3))
            done += n
        pe = errors / trials
        bound = fano_rate_lower_bound(pe, q3)
        out.append((float(p), bound / (0.5 * np.log2(p))))
    return out
