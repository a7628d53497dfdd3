"""Closed-form rates and capacity, error bounds, and empirical probers.

Noise variance is one, so a power P is the SNR zeta = P / sigma^2: at noise
variance sigma^2, pass P / sigma^2 and scale a covariance by sigma^2. The
Gaussian-input rate of pair m over its two observations is

    R_m = 1/2 log2(1 + P S) + 1/2 log2((1 + P S) / (2 P S_m + 1)),

with S the full gain-power sum and S_m the out-of-pair sum; the overall
per-use rate averages the pairs over ceil(K/2) + 1 uses. The minimum-distance
prober and the DoF slope estimator verify the scaling claims empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .model import PamConstellation, _signed_rayleigh

# Draws per batch of the distance prober and of the DoF pair-error estimate,
# and the top grid points the DoF slope is fitted over.
DMIN_CHUNK = 4096
DOF_CHUNK = 2048
DOF_FIT_POINTS = 3


def capacity_miso(g: np.ndarray, p_s: float):
    """MISO capacity 1/2 log2(1 + p_s * sum g^2); g may be (..., N)."""
    if p_s <= 0:
        raise ValueError("power must be positive")
    g = np.asarray(g, dtype=float)
    return 0.5 * np.log2(1.0 + p_s * np.sum(g**2, axis=-1))


def rate_pair_gaussian(h: np.ndarray, p: float, m: int):
    """Gaussian-input rate of pair m over (y_1, y_{m+1}), in bits per two uses,
    for symbol gains h (..., K); the result is (...,).

    It takes the second use at the first use's received power, 1 + P S
    (``cov_unconditional``), with the dissolved interference at its nominal
    power P S_m, ratio r = 1 in ``cov_conditional``. It is not normalized to
    the realized second-use power beta^2 s_a^2 + s_b^2 that the ``ser``
    sweep's ``tx_power_use2`` reports: 2P at K = 2, where beta = 1, and
    heavy-tailed far above it at K >= 4 under Rayleigh gains."""
    s_all = np.sum(h**2, axis=-1)
    s_excl = core.out_of_pair_sum(h**2, m)
    first = 0.5 * np.log2(1.0 + p * s_all)
    second = 0.5 * np.log2((1.0 + p * s_all) / (2.0 * p * s_excl + 1.0))
    return first + second


def rate_total(h: np.ndarray, p: float):
    """Overall rate per channel use: the pair rates split over ceil(K/2)+1 uses."""
    pairs = core.num_pairs(h.shape[-1])
    total = sum(rate_pair_gaussian(h, p, m) for m in range(1, pairs + 1))
    return total / (pairs + 1)


def capacity_gap_margin(h: np.ndarray, g: np.ndarray, p: float):
    """Margin R - (C - 1) of the one-bit capacity-gap claim, with P_s = 2P.

    h (..., K) and g (..., N) are the symbol and antenna gains; the claim
    holds where the margin is positive. Meaningful under the K > N
    shared-antenna mapping where sum h^2 exceeds sum g^2 and K is large.
    """
    return rate_total(h, p) - (capacity_miso(g, 2.0 * p) - 1.0)


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


def pe_upper_bound(dmin2: float) -> float:
    """Error-probability bound exp(-dmin2 / 8)."""
    if dmin2 < 0:
        raise ValueError("squared distance must be non-negative")
    return float(np.exp(-dmin2 / 8.0))


def dmin_batch(s_true: np.ndarray, interference: np.ndarray, h: np.ndarray, const: PamConstellation) -> np.ndarray:
    """Squared minimum weights of (n, 2) true pairs on common gains h (n,)
    over the candidate pairs of the alphabet ``const``.

    ``interference`` (n,) is each pair's out-of-pair sum, which sets beta.
    Rows are scored in ``core.row_blocks``, unfolded, in the two-gain form
    (its near-zero floors keep their digits), with one ``memo`` per call.
    """
    h_pair = np.stack([h, h], axis=-1)
    _, y = core.dissolve(h_pair, s_true, interference)
    cands = core.candidate_pairs(const)
    d2 = np.empty(len(y))
    memo: dict = {}
    for block, out in core.row_blocks(len(y), len(cands)):
        w = core.weight_matrix(y[block], h_pair[block], cands, out=out, memo=memo)
        w[(cands[:, 0] == s_true[block, 0:1]) & (cands[:, 1] == s_true[block, 1:2])] = np.inf
        np.min(w, axis=1, out=d2[block])
    return d2**2


def check_dmin_frame(k: int) -> None:
    """Reject a ``dmin_probe`` frame without interferers, k < 3."""
    if k < 3:
        raise ValueError(f"dmin needs k >= 3: with k={k} beta = 1 and the common-gain pair has a zero-weight ghost")


def dmin_probe(const: PamConstellation, draws: int, rng: np.random.Generator, k: int = 4) -> np.ndarray:
    """Samples (draws,) of the scaled minimum distance d_min^2 q_s^2 / (h^2 a_s^2)
    of ``const``'s candidate pairs over random channels and symbols.

    The intended pair rides a common gain; interferers keep independent
    gains so the dissolution factor stays generic, which needs K >= 3.
    The scaled distance does not depend on the alphabet's power. Draws are
    taken DMIN_CHUNK at a time.
    """
    check_dmin_frame(k)
    scaled = []
    for n in core.chunk_sizes(draws, DMIN_CHUNK):
        h = _signed_rayleigh(rng, n)
        g_int = _signed_rayleigh(rng, (n, k - 2))
        s = const.draw(rng, size=(n, k))
        d2 = dmin_batch(s[:, :2], np.sum(g_int * s[:, 2:], axis=1), h, const)
        scaled.append(d2 * const.q_s**2 / (h**2 * const.a_s**2))
    return np.concatenate(scaled)


def constellation_size_for_power(p: float, epsilon: float, dof: float = 0.5) -> int:
    """Half-size q_s = round(P^(dof (1 - eps) / 2)), at least 1, of a DoF
    probe: its rate log2(2 q_s) grows as dof (1 - eps) times (1/2) log2 P,
    the divisor of ``DofPoint.ratio``, so P must exceed 1 (0 dB). A pair
    symbol has 1/2 DoF, multicast's s3 one."""
    if not p > 1.0:
        raise ValueError(f"a DoF probe needs every power above 0 dB: (1/2) log2 P must be positive, got P = {p:g}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return max(1, int(round(p ** (dof * (1.0 - epsilon) / 2.0))))


@dataclass
class DofPoint:
    """One power-grid point of a degrees-of-freedom probe: ``dof_slope``'s
    pair or ``multicast.s3_rate_slope``'s s3, with its half-size ``q_s``."""

    p: float
    q_s: int
    pe: float
    fano_bound: float

    @property
    def ratio(self) -> float:
        """Fano bound divided by (1/2) log2 P."""
        return self.fano_bound / (0.5 * np.log2(self.p))


def dof_slope(p_grid, epsilon: float, trials: int, rng: np.random.Generator, k: int = 4) -> list[DofPoint]:
    """Fano-bound rate against (1/2) log2 P across a power grid.

    The constellation half-size grows as P^((1-eps)/4). The pair rides one
    fixed generic channel draw (the degrees-of-freedom claim is per
    realization); the pair-error probability is pooled over symbol and
    unit-variance noise draws. Every power must exceed 1 (0 dB), and the
    grid must strictly increase (``dof_growth_slope``). Every point's
    half-size is checked before the first draw, so an alphabet too large to
    enumerate fails before any point runs.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    sizes = [constellation_size_for_power(p, epsilon) for p in p_grid]
    if not np.all(np.diff(p_grid) > 0.0):
        raise ValueError("dof needs a strictly increasing power grid: its slope is fitted over the top points")
    consts = [core.alphabet(p, q_s) for p, q_s in zip(p_grid, sizes)]
    h_common = float(_signed_rayleigh(rng, ()))
    g_int = _signed_rayleigh(rng, k - 2)
    out = []
    for p, const in zip(p_grid, consts):
        pe = _pair_error_rate(const, h_common, g_int, trials, rng)
        out.append(DofPoint(p=float(p), q_s=const.q_s, pe=pe, fano_bound=fano_rate_lower_bound(pe, const.q_s)))
    return out


def dof_growth_slope(points: list[DofPoint]) -> float:
    """Degrees-of-freedom estimate: growth rate of the Fano bound.

    Regression slope of the bound against (1/2) log2 P over the last
    DOF_FIT_POINTS grid points, the top ones, as ``dof_slope``'s grid
    increases. The ratio bound / ((1/2) log2 P) converges to the same limit
    but only slowly, since the critical constellation scaling keeps the
    error probability order one at bench-scale powers.
    """
    pts = points[-DOF_FIT_POINTS:]
    x = np.array([0.5 * np.log2(pt.p) for pt in pts])
    y = np.array([pt.fano_bound for pt in pts])
    return float(np.polyfit(x, y, 1)[0])


def _pair_error_rate(
    const: PamConstellation, h_common: float, g_int: np.ndarray, trials: int, rng: np.random.Generator
) -> float:
    """Monte Carlo pair-error rate of the weight decoder over ``const``, fixed
    channel, unit noise variance; frames are drawn DOF_CHUNK at a time."""
    h_pair = np.array([h_common, h_common])
    errors = 0
    for n in core.chunk_sizes(trials, DOF_CHUNK):
        s = const.draw(rng, size=(n, 2 + g_int.shape[0]))
        _, y = core.dissolve(h_pair, s[:, :2], s[:, 2:] @ g_int)
        y += rng.standard_normal((n, 2))
        hat = core.pair_decode(y, np.broadcast_to(h_pair, (n, 2)), 1, const)
        errors += int(np.sum((hat[:, 0] != s[:, 0]) | (hat[:, 1] != s[:, 1])))
    return errors / trials


def cov_unconditional(h: np.ndarray, p: float) -> np.ndarray:
    """Closed-form covariance of (y_1, y_{m+1}) for symbol gains h (K,): (P sum h^2 + 1) I."""
    s_all = float(np.sum(h**2))
    return (p * s_all + 1.0) * np.eye(2)


def cov_conditional(h: np.ndarray, p: float, m: int, ratio: float = 1.0) -> np.ndarray:
    """Covariance of (y_1, y_{m+1}) given the pair, with r = h_a s_a / (h_b s_b).

    Exact for any alphabet: the residual randomness is the interference sum,
    which enters y_{m+1} scaled by -r. ``ratio=1`` gives the matrix whose
    determinant equals the expectation convention 2 P S_m + 1 used by the
    closed-form rate.
    """
    s_excl = p * core.out_of_pair_sum(h**2, m)
    return np.array(
        [
            [s_excl + 1.0, -ratio * s_excl],
            [-ratio * s_excl, ratio**2 * s_excl + 1.0],
        ]
    )
