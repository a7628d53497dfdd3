"""Interference dissolution: pairwise nonlinear precoding and decoding.

One frame carries K symbols in ceil(K/2) + 1 channel uses. The first use
superposes all symbols; use m+1 sends the m-th pair precoded so that, paired
with the first observation, the interference lands on the direction
orthogonal to the intended pair vector v = (h_a s_a, h_b s_b):

    y = v(s_a, s_b) + beta_m * v_perp(s_a, s_b) + noise,

where beta_m = 1 + (interference sum) / (h_b s_b) and
v_perp = (h_b s_b, -h_a s_a). The weight decoder scores each candidate pair
by the residual component along the candidate vector and is blind to beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChannelRealization, NoiseModel, PamConstellation

WEIGHT = "weight"
ML = "ml"


@dataclass
class SymbolBlock:
    """The K symbols sent in one frame."""

    s: np.ndarray

    def __post_init__(self) -> None:
        self.s = np.atleast_1d(np.asarray(self.s, dtype=float))
        if self.s.shape[-1] < 2:
            raise ValueError("a frame needs at least two symbols")

    @property
    def k(self) -> int:
        return self.s.shape[-1]

    @classmethod
    def draw(cls, const: PamConstellation, k: int, rng) -> "SymbolBlock":
        return cls(s=const.draw(rng, size=k))


def num_pairs(k: int) -> int:
    return (k + 1) // 2


def channel_uses(k: int) -> int:
    """Channel uses consumed by one frame: ceil(K/2) + 1."""
    return num_pairs(k) + 1


def pair_members(k: int, m: int) -> tuple[int, int]:
    """0-based symbol indices (a, b) of pair m (1-based).

    For odd K the last symbol is paired with s_1, which is already decoded
    by then; the repeated member is discarded when assembling the frame.
    """
    if not 1 <= m <= num_pairs(k):
        raise ValueError(f"pair index {m} out of range for k={k}")
    if 2 * m <= k:
        return 2 * m - 2, 2 * m - 1
    return k - 1, 0


@dataclass
class FramePlan:
    """Per-use transmit description: dissolution factors and amplitudes.

    ``second_use_amps[m-1] = (-beta_m * s_a, s_b)`` are the amplitudes sent
    via (h_a, h_b) in channel use m+1. Second-use power is not re-normalized;
    ``use_powers`` exposes the realized cost.
    """

    beta: np.ndarray
    pairs: list[tuple[int, int]]
    first_use_amps: np.ndarray
    second_use_amps: np.ndarray

    @property
    def use_powers(self) -> np.ndarray:
        """Realized transmit power of each channel use."""
        first = np.sum(self.first_use_amps**2)
        rest = np.sum(self.second_use_amps**2, axis=1)
        return np.concatenate([[first], rest])


@dataclass
class ReceivedPair:
    """The two observations used to decode pair m: (y_1, y_{m+1})."""

    y1: float
    ym: float
    pair_index: int

    @property
    def y(self) -> np.ndarray:
        return np.array([self.y1, self.ym], dtype=float)


@dataclass
class DecodeResult:
    """Decoded pair with the winning metric value and decoder tag."""

    pair: tuple[float, float]
    weight_min: float
    decoder: str
    pair_index: int = 1


def first_use_signal(block: SymbolBlock, ch: ChannelRealization) -> float:
    """Noiseless first observation: sum_k h_k s_k."""
    if block.k != ch.k:
        raise ValueError(f"block has {block.k} symbols but channel has {ch.k} gains")
    return float(ch.h @ block.s)


def dissolution_factor(block: SymbolBlock, ch: ChannelRealization, m: int) -> float:
    """beta_m = 1 + (sum of out-of-pair h_k s_k) / (h_b s_b) for pair m."""
    a, b = pair_members(block.k, m)
    denom = ch.h[b] * block.s[b]
    if denom == 0.0:
        raise ValueError("dissolution divides by h_b * s_b = 0 (degenerate input)")
    mask = np.ones(block.k, dtype=bool)
    mask[[a, b]] = False
    interference = float(ch.h[mask] @ block.s[mask])
    return 1.0 + interference / denom


def plan_frame(block: SymbolBlock, ch: ChannelRealization) -> FramePlan:
    """Compute all dissolution factors and per-use transmit amplitudes."""
    pairs = [pair_members(block.k, m) for m in range(1, num_pairs(block.k) + 1)]
    beta = np.array([dissolution_factor(block, ch, m) for m in range(1, num_pairs(block.k) + 1)])
    second = np.array([[-beta[i] * block.s[a], block.s[b]] for i, (a, b) in enumerate(pairs)])
    return FramePlan(beta=beta, pairs=pairs, first_use_amps=block.s.copy(), second_use_amps=second)


def transmit_pair(
    block: SymbolBlock,
    ch: ChannelRealization,
    m: int,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
) -> ReceivedPair:
    """Received (y_1, y_{m+1}) for pair m; ``noise=None`` gives the noiseless pair."""
    a, b = pair_members(block.k, m)
    beta = dissolution_factor(block, ch, m)
    y1 = first_use_signal(block, ch)
    ym = ch.h[b] * block.s[b] - beta * ch.h[a] * block.s[a]
    if noise is not None:
        if rng is None:
            raise ValueError("rng is required when noise is present")
        y1 += noise.sample(rng)
        ym += noise.sample(rng)
    return ReceivedPair(y1=float(y1), ym=float(ym), pair_index=m)


def candidate_pairs(const: PamConstellation) -> np.ndarray:
    """All (2 q_s)^2 candidate pairs, first member major, alphabet ascending."""
    pts = const.points
    sa, sb = np.meshgrid(pts, pts, indexing="ij")
    return np.column_stack([sa.ravel(), sb.ravel()])


def weight_matrix(y: np.ndarray, h_pair: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Weight of every candidate pair for a batch of observations.

    y: (..., 2) observations, h_pair: (..., 2) pair gains (broadcast
    against y, so ``h_pair[..., None, :]`` scores a grid of observations per
    channel), cands: (C, 2). Returns (..., C) values |<y - v, v>| / ||v||
    with v = h_pair * cand, through the identity <y - v, v> = A - B with
    A = <y, v> = (y * h_pair) @ cands^T and B = ||v||^2 = h_pair^2 @ (cands^2)^T,
    so the weight is |A - B| / sqrt(B) and no (..., C, 2) array is built.
    """
    w = (y * h_pair) @ cands.T
    energy = (h_pair * h_pair) @ (cands * cands).T
    w -= energy
    np.abs(w, out=w)
    np.sqrt(energy, out=energy)
    w /= energy
    return w


def ml_metric_matrix(
    y: np.ndarray,
    h_pair: np.ndarray,
    cands: np.ndarray,
    interference_power: np.ndarray,
    sigma2: float,
) -> np.ndarray:
    """Full-covariance likelihood metric for every candidate pair.

    ``interference_power`` is p * sum of out-of-pair h_k^2 (shape (...,)),
    so eta^2(cand) = interference_power / (h_b * cand_b)^2. The metric is
    sigma2 * (y - v)^T C^{-1} (y - v) with C = eta^2 vperp vperp^T + sigma2 I,
    evaluated through the rank-one closed form. ||y - v||^2 = ||y||^2 - 2A + B
    as in ``weight_matrix``, and since <v, vperp> = 0 the projection
    <y - v, vperp> = <y, vperp> = [y0 h1, -y1 h0] @ [cb, ca]^T.
    """
    v_sq = (h_pair * h_pair) @ (cands * cands).T
    y_rot = np.stack([y[..., 0] * h_pair[..., 1], -y[..., 1] * h_pair[..., 0]], axis=-1)
    proj = y_rot @ cands[:, ::-1].T
    d_sq = (y * h_pair) @ cands.T
    d_sq *= -2.0
    d_sq += v_sq
    d_sq += np.sum(y * y, axis=-1)[..., None]
    eta2 = interference_power[..., None] / (h_pair[..., None, 1] * cands[:, 1]) ** 2
    denom = sigma2 + eta2 * v_sq
    correction = np.divide(eta2 * proj**2, denom, out=np.zeros_like(d_sq), where=denom > 0)
    d_sq -= correction
    return d_sq


def known_beta_metric_matrix(y: np.ndarray, h_pair: np.ndarray, cands: np.ndarray, beta) -> np.ndarray:
    """Squared distance ||y - v - beta * v_perp||^2 of every candidate pair.

    y: (..., 2), h_pair: (..., 2), beta: scalar or (...,). Expanding the
    square with <v, v_perp> = 0 gives
    ||y||^2 - 2 [(y0 - beta y1) h0, (beta y0 + y1) h1] @ cands^T + (1 + beta^2) B,
    with B = ||v||^2 as in ``weight_matrix``.
    """
    beta = np.asarray(beta, dtype=float)
    y0, y1 = y[..., 0], y[..., 1]
    y_mix = np.stack([(y0 - beta * y1) * h_pair[..., 0], (beta * y0 + y1) * h_pair[..., 1]], axis=-1)
    d2 = y_mix @ cands.T
    d2 *= -2.0
    d2 += (1.0 + beta * beta)[..., None] * ((h_pair * h_pair) @ (cands * cands).T)
    d2 += np.sum(y * y, axis=-1)[..., None]
    return d2


# Values per block in ``argmin_metric``. Each (rows, C) float64 array a
# metric builds is then at most 64 KiB, under glibc's 128 KiB mmap threshold:
# it comes from the heap, stays in cache, and the next block reuses its
# memory. Arrays of a whole chunk (16 MB at C = 256) are mapped and
# page-faulted afresh on every call, which spent a quarter or more of a
# run's time in the operating system.
BLOCK_VALUES = 1 << 13


def argmin_metric(metric, y: np.ndarray, h_pair: np.ndarray, cands: np.ndarray, *args) -> np.ndarray:
    """Per-row index of the smallest ``metric(y, h_pair, cands, *args)``.

    y and h_pair are (n, 2); an array in ``args`` holds one value per row
    and is sliced with them, a scalar is passed as it is. The metric is
    evaluated on blocks of about ``BLOCK_VALUES`` values, so no (n, C) array
    is built; every row is scored on its own, so the result is the row-wise
    argmin of the whole (n, C) metric.
    """
    rows = max(1, BLOCK_VALUES // len(cands))
    idx = np.empty(len(y), dtype=np.intp)
    for lo in range(0, len(y), rows):
        block = slice(lo, lo + rows)
        part = [a[block] if np.ndim(a) else a for a in args]
        idx[block] = np.argmin(metric(y[block], h_pair[block], cands, *part), axis=1)
    return idx


def _interference_power(ch: ChannelRealization, m: int, p: float) -> float:
    a, b = pair_members(ch.k, m)
    mask = np.ones(ch.k, dtype=bool)
    mask[[a, b]] = False
    return p * float(np.sum(ch.h[mask] ** 2))


def weight(rp: ReceivedPair, cand: tuple[float, float], ch: ChannelRealization, m: int) -> float:
    """Weight component of one candidate pair: |<y - v, v>| / ||v||."""
    a, b = pair_members(ch.k, m)
    h_pair = np.array([ch.h[a], ch.h[b]])
    return float(weight_matrix(rp.y, h_pair, np.asarray(cand, dtype=float)[None, :])[0])


def weight_values(rp: ReceivedPair, ch: ChannelRealization, m: int, const: PamConstellation) -> np.ndarray:
    """Weights of all candidates, in candidate enumeration order."""
    a, b = pair_members(ch.k, m)
    h_pair = np.array([ch.h[a], ch.h[b]])
    return weight_matrix(rp.y, h_pair, candidate_pairs(const))


def ml_decision_values(
    rp: ReceivedPair,
    ch: ChannelRealization,
    m: int,
    const: PamConstellation,
    p: float,
    sigma2: float,
) -> np.ndarray:
    """Likelihood metrics of all candidates, in candidate enumeration order."""
    a, b = pair_members(ch.k, m)
    h_pair = np.array([ch.h[a], ch.h[b]])
    ipow = np.asarray(_interference_power(ch, m, p))
    return ml_metric_matrix(rp.y, h_pair, candidate_pairs(const), ipow, sigma2)


def decode_pair(rp: ReceivedPair, ch: ChannelRealization, m: int, const: PamConstellation) -> DecodeResult:
    """Exhaustive weight decoding; ties resolve to the first candidate."""
    w = weight_values(rp, ch, m, const)
    idx = int(np.argmin(w))
    cand = candidate_pairs(const)[idx]
    return DecodeResult(pair=(cand[0], cand[1]), weight_min=float(w[idx]), decoder=WEIGHT, pair_index=m)


def ml_decode_pair(
    rp: ReceivedPair,
    ch: ChannelRealization,
    m: int,
    const: PamConstellation,
    p: float,
    sigma2: float,
) -> DecodeResult:
    """Exhaustive full-covariance decoding (the oracle the weight rule tracks).

    Interference symbols are modeled as uniform over the alphabet, hence
    zero mean and per-symbol power ``p``.
    """
    vals = ml_decision_values(rp, ch, m, const, p, sigma2)
    idx = int(np.argmin(vals))
    cand = candidate_pairs(const)[idx]
    return DecodeResult(pair=(cand[0], cand[1]), weight_min=float(vals[idx]), decoder=ML, pair_index=m)


def ml_decode_pair_known_beta(
    rp: ReceivedPair,
    ch: ChannelRealization,
    m: int,
    const: PamConstellation,
    beta: float,
) -> DecodeResult:
    """Exact ML when the dissolution factor is known to the receiver.

    With beta known the observation is Gaussian around v(cand) +
    beta * v_perp(cand), so ML is nearest-neighbor on that point set. The
    interference-free frame (K = 2) has beta = 1 deterministically, making
    this the true optimum there; the weight rule instead stays blind to
    beta and pays for it.
    """
    a, b = pair_members(ch.k, m)
    h_pair = np.array([ch.h[a], ch.h[b]])
    cands = candidate_pairs(const)
    d2 = known_beta_metric_matrix(rp.y, h_pair, cands, beta)
    idx = int(np.argmin(d2))
    return DecodeResult(pair=(cands[idx, 0], cands[idx, 1]), weight_min=float(d2[idx]), decoder=ML, pair_index=m)


def transmit_frame(
    block: SymbolBlock,
    ch: ChannelRealization,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
) -> list[ReceivedPair]:
    """All received pairs of one frame; the first observation is shared."""
    plan = plan_frame(block, ch)
    y1 = first_use_signal(block, ch)
    if noise is not None:
        if rng is None:
            raise ValueError("rng is required when noise is present")
        y1 += noise.sample(rng)
    out = []
    for i, (a, b) in enumerate(plan.pairs):
        ym = ch.h[a] * plan.second_use_amps[i, 0] + ch.h[b] * plan.second_use_amps[i, 1]
        if noise is not None:
            ym += noise.sample(rng)
        out.append(ReceivedPair(y1=float(y1), ym=float(ym), pair_index=i + 1))
    return out


def transmit_and_decode_all(
    block: SymbolBlock,
    ch: ChannelRealization,
    noise: NoiseModel | None,
    rng: np.random.Generator | None,
    const: PamConstellation,
    decoder: str = WEIGHT,
    p: float | None = None,
    sigma2: float | None = None,
) -> list[DecodeResult]:
    """Transmit one frame and decode every pair from (y_1, y_{m+1})."""
    rps = transmit_frame(block, ch, noise, rng)
    results = []
    for rp in rps:
        if decoder == WEIGHT:
            results.append(decode_pair(rp, ch, rp.pair_index, const))
        elif decoder == ML:
            if p is None or sigma2 is None:
                raise ValueError("ml decoding needs p and sigma2")
            results.append(ml_decode_pair(rp, ch, rp.pair_index, const, p, sigma2))
        else:
            raise ValueError(f"unknown decoder {decoder!r}")
    return results


def frame_symbols(results: list[DecodeResult], k: int) -> np.ndarray:
    """Assemble the K decoded symbols, discarding the odd-K repeated member."""
    s_hat = np.full(k, np.nan)
    for res in results:
        a, b = pair_members(k, res.pair_index)
        s_hat[a] = res.pair[0]
        if np.isnan(s_hat[b]):
            s_hat[b] = res.pair[1]
    return s_hat
