"""Closed-form rates and capacity, error bounds, and empirical probers.

The Gaussian-input rate of pair m over its two observations is

    R_m = 1/2 log2(1 + P S / s2) + 1/2 log2((s2 + P S) / (2 P S_m + s2)),

with S the full gain-power sum, S_m the out-of-pair sum and s2 the noise
variance; the overall per-use rate averages the pairs over ceil(K/2) + 1
uses. The minimum-distance prober and the DoF slope estimator verify the
scaling claims empirically rather than re-proving them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core
from .model import ChannelRealization, PamConstellation, constellation_for_power, _signed_rayleigh


def capacity_miso(g: np.ndarray, p_s: float, sigma2: float) -> float:
    """MISO capacity 1/2 log2(1 + p_s * sum g^2 / sigma2)."""
    if p_s <= 0 or sigma2 <= 0:
        raise ValueError("power and noise variance must be positive")
    g = np.asarray(g, dtype=float)
    return float(0.5 * np.log2(1.0 + p_s * np.sum(g**2) / sigma2))


def _pair_exclusion_sum(h: np.ndarray, m: int) -> float:
    a, b = core.pair_members(h.shape[-1], m)
    mask = np.ones(h.shape[-1], dtype=bool)
    mask[[a, b]] = False
    return float(np.sum(h[mask] ** 2))


def rate_pair_gaussian(ch: ChannelRealization, p: float, sigma2: float, m: int) -> float:
    """Gaussian-input rate of pair m over (y_1, y_{m+1}), in bits per two uses."""
    s_all = float(np.sum(ch.h**2))
    s_excl = _pair_exclusion_sum(ch.h, m)
    first = 0.5 * np.log2(1.0 + p * s_all / sigma2)
    second = 0.5 * np.log2((sigma2 + p * s_all) / (2.0 * p * s_excl + sigma2))
    return float(first + second)


def rate_total(ch: ChannelRealization, p: float, sigma2: float, k: int | None = None) -> float:
    """Overall rate per channel use: the pair rates split over ceil(K/2)+1 uses."""
    if k is None:
        k = ch.k
    elif k != ch.k:
        raise ValueError(f"k={k} does not match the channel's {ch.k} gains")
    pairs = core.num_pairs(k)
    total = sum(rate_pair_gaussian(ch, p, sigma2, m) for m in range(1, pairs + 1))
    return float(total / (pairs + 1))


def capacity_gap_check(ch: ChannelRealization, p: float, sigma2: float, k: int | None = None):
    """Margin of the one-bit capacity-gap claim: R - (C - 1) with P_s = 2P.

    Returns ``(holds, margin)``. Meaningful under the K > N shared-antenna
    mapping where sum h^2 exceeds sum g^2 and K is large.
    """
    r = rate_total(ch, p, sigma2, k)
    c = capacity_miso(ch.g, 2.0 * p, sigma2)
    margin = r - (c - 1.0)
    return bool(margin > 0), float(margin)


def binary_entropy(p_e: float) -> float:
    """H(p) in bits with H(0) = H(1) = 0."""
    if not 0.0 <= p_e <= 1.0:
        raise ValueError(f"probability out of range: {p_e}")
    if p_e in (0.0, 1.0):
        return 0.0
    return float(-p_e * np.log2(p_e) - (1.0 - p_e) * np.log2(1.0 - p_e))


def fano_rate_lower_bound(p_e: float, q_s: int) -> float:
    """Per-symbol rate bound (1 - p_e) log2(2 q_s) - H(p_e), clamped at zero."""
    bound = (1.0 - p_e) * np.log2(2 * q_s) - binary_entropy(p_e)
    return float(max(0.0, bound))


def pe_upper_bound(dmin2: float, sigma2: float) -> float:
    """Error-probability bound exp(-dmin2 / (8 sigma2))."""
    if dmin2 < 0:
        raise ValueError("squared distance must be non-negative")
    return float(np.exp(-dmin2 / (8.0 * sigma2)))


def dmin_exhaustive(
    s_true: tuple[float, float],
    beta: float,
    h: float,
    const: PamConstellation,
) -> float:
    """Exact squared minimum weight over all wrong candidates, common pair gain.

    The noiseless observation is v(s_true) + beta * v_perp(s_true) with
    v = h * (s_a, s_b); the returned value is min over candidates != s_true
    of (|<y - v(cand), v(cand)>| / ||v(cand)||)^2.
    """
    sa, sb = s_true
    y = np.array([h * sa + beta * h * sb, h * sb - beta * h * sa])
    cands = core.candidate_pairs(const)
    w = core.weight_matrix(y, np.array([h, h]), cands)
    not_true = ~((cands[:, 0] == sa) & (cands[:, 1] == sb))
    return float(np.min(w[not_true]) ** 2)


@dataclass
class DminReport:
    """Scaled minimum-distance samples d_min^2 q_s^2 / (h^2 a_s^2) per draw."""

    q_s: int
    samples: int
    dmin2_scaled: np.ndarray = field(repr=False)

    @property
    def floor(self) -> float:
        return float(np.min(self.dmin2_scaled))

    @property
    def median(self) -> float:
        return float(np.median(self.dmin2_scaled))


def dmin_batch(s_true: np.ndarray, beta: np.ndarray, h: np.ndarray, const: PamConstellation) -> np.ndarray:
    """Vectorized ``dmin_exhaustive``: (n, 2) pairs, (n,) betas and gains."""
    s_true = np.atleast_2d(s_true)
    y = np.stack(
        [h * (s_true[:, 0] + beta * s_true[:, 1]), h * (s_true[:, 1] - beta * s_true[:, 0])],
        axis=-1,
    )
    cands = core.candidate_pairs(const)
    h_pair = np.stack([h, h], axis=-1)
    w = core.weight_matrix(y, h_pair, cands)
    is_true = (cands[None, :, 0] == s_true[:, 0:1]) & (cands[None, :, 1] == s_true[:, 1:2])
    return np.min(np.where(is_true, np.inf, w), axis=1) ** 2


def dmin_probe(
    q_s: int,
    draws: int,
    rng: np.random.Generator,
    k: int = 4,
    p: float = 1.0,
    chunk: int = 4096,
) -> DminReport:
    """Sample the scaled minimum distance over random channels and symbols.

    The intended pair rides a common gain; interferers keep independent
    gains so the dissolution factor stays generic.
    """
    const = constellation_for_power(p, q_s)
    scaled = np.empty(draws)
    done = 0
    while done < draws:
        n = min(chunk, draws - done)
        h = _signed_rayleigh(rng, n)
        g_int = _signed_rayleigh(rng, (n, k - 2))
        s = const.draw(rng, size=(n, k))
        beta = 1.0 + np.sum(g_int * s[:, 2:], axis=1) / (h * s[:, 1])
        d2 = dmin_batch(s[:, :2], beta, h, const)
        scaled[done : done + n] = d2 * q_s**2 / (h**2 * const.a_s**2)
        done += n
    return DminReport(q_s=q_s, samples=draws, dmin2_scaled=scaled)


def constellation_size_for_power(p: float, epsilon: float) -> int:
    """Half-size q_s = round(P^((1 - eps) / 4)), at least 1."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return max(1, int(round(p ** ((1.0 - epsilon) / 4.0))))


@dataclass
class DofPoint:
    """One power-grid point of the degrees-of-freedom sweep."""

    p: float
    q_s: int
    pe: float
    fano_bound: float

    @property
    def ratio(self) -> float:
        """Fano bound divided by (1/2) log2 P."""
        return self.fano_bound / (0.5 * np.log2(self.p))


def dof_slope(
    p_grid,
    epsilon: float,
    trials: int,
    rng: np.random.Generator,
    k: int = 4,
    sigma2: float = 1.0,
) -> list[DofPoint]:
    """Fano-bound rate against (1/2) log2 P across a power grid.

    The constellation half-size grows as P^((1-eps)/4). The pair rides one
    fixed generic channel draw (the degrees-of-freedom claim is per
    realization); the pair-error probability is pooled over symbol and
    noise draws. Every power must exceed 1 (0 dB), where (1/2) log2 P, the
    divisor of ``DofPoint.ratio``, is positive.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    if not np.all(p_grid > 1.0):
        raise ValueError("dof needs every power above 0 dB: (1/2) log2 P must be positive")
    h_common = float(_signed_rayleigh(rng, ()))
    g_int = _signed_rayleigh(rng, k - 2)
    out = []
    for p in p_grid:
        q_s = constellation_size_for_power(p, epsilon)
        const = constellation_for_power(p, q_s)
        pe = _pair_error_rate(const, h_common, g_int, sigma2, trials, rng)
        out.append(DofPoint(p=float(p), q_s=q_s, pe=pe, fano_bound=fano_rate_lower_bound(pe, q_s)))
    return out


def dof_growth_slope(points: list[DofPoint], last: int = 3) -> float:
    """Degrees-of-freedom estimate: growth rate of the Fano bound.

    Regression slope of the bound against (1/2) log2 P over the top ``last``
    grid points. The ratio bound / ((1/2) log2 P) converges to the same
    limit but only slowly, since the critical constellation scaling keeps
    the error probability order one at bench-scale powers.
    """
    pts = points[-last:]
    x = np.array([0.5 * np.log2(pt.p) for pt in pts])
    y = np.array([pt.fano_bound for pt in pts])
    return float(np.polyfit(x, y, 1)[0])


def _pair_error_rate(
    const: PamConstellation,
    h_common: float,
    g_int: np.ndarray,
    sigma2: float,
    trials: int,
    rng: np.random.Generator,
    chunk: int = 2048,
) -> float:
    """Monte Carlo pair-error rate of the weight decoder, fixed channel."""
    cands = core.candidate_pairs(const)
    h_pair = np.array([h_common, h_common])
    errors = 0
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        s = const.draw(rng, size=(n, 2 + g_int.shape[0]))
        interference = s[:, 2:] @ g_int
        beta = 1.0 + interference / (h_common * s[:, 1])
        y = np.empty((n, 2))
        y[:, 0] = h_common * s[:, 0] + beta * h_common * s[:, 1]
        y[:, 1] = h_common * s[:, 1] - beta * h_common * s[:, 0]
        y += rng.normal(0.0, np.sqrt(sigma2), size=(n, 2))
        hat = cands[core.argmin_metric(core.weight_matrix, y, np.broadcast_to(h_pair, (n, 2)), cands)]
        errors += int(np.sum((hat[:, 0] != s[:, 0]) | (hat[:, 1] != s[:, 1])))
        done += n
    return errors / trials


@dataclass
class RateReport:
    """Per-pair rates, the per-use total, capacities, and the one-bit margin."""

    r_pair: np.ndarray
    r_total: float
    c_miso: float
    c_sum_h: float
    gap: float


def rate_report(ch: ChannelRealization, p: float, sigma2: float) -> RateReport:
    """Assemble the rate quantities for one channel realization (P_s = 2P)."""
    pairs = core.num_pairs(ch.k)
    r_pair = np.array([rate_pair_gaussian(ch, p, sigma2, m) for m in range(1, pairs + 1)])
    r_tot = float(np.sum(r_pair) / (pairs + 1))
    c = capacity_miso(ch.g, 2.0 * p, sigma2)
    c_h = capacity_miso(ch.h, 2.0 * p, sigma2)
    return RateReport(r_pair=r_pair, r_total=r_tot, c_miso=c, c_sum_h=c_h, gap=c - r_tot)


def cov_unconditional(ch: ChannelRealization, p: float, sigma2: float) -> np.ndarray:
    """Closed-form covariance of (y_1, y_{m+1}): (P sum h^2 + sigma2) I."""
    s_all = float(np.sum(ch.h**2))
    return (p * s_all + sigma2) * np.eye(2)


def cov_conditional(
    ch: ChannelRealization, p: float, sigma2: float, m: int, ratio: float = 1.0
) -> np.ndarray:
    """Covariance of (y_1, y_{m+1}) given the pair, with r = h_a s_a / (h_b s_b).

    Exact for any alphabet: the residual randomness is the interference sum,
    which enters y_{m+1} scaled by -r. ``ratio=1`` gives the matrix whose
    determinant equals the expectation convention sigma2 (2 P S_m + sigma2)
    used by the closed-form rate.
    """
    s_excl = p * _pair_exclusion_sum(ch.h, m)
    return np.array(
        [
            [s_excl + sigma2, -ratio * s_excl],
            [-ratio * s_excl, ratio**2 * s_excl + sigma2],
        ]
    )
