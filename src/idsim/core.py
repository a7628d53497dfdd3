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


def out_of_pair_sum(x: np.ndarray, m: int) -> np.ndarray:
    """Sum of ``x[..., k]`` over the symbols k outside pair m."""
    k = x.shape[-1]
    mask = np.ones(k, dtype=bool)
    mask[list(pair_members(k, m))] = False
    return np.sum(x[..., mask], axis=-1)


def dissolve(h_pair: np.ndarray, s_pair: np.ndarray, interference) -> tuple[np.ndarray, np.ndarray]:
    """Noiseless dissolution of a batch of pairs: the factor and both observations.

    h_pair, s_pair: (..., 2) gains and symbols of the pair (a, b), broadcast
    against each other; interference: (...,) out-of-pair sum I of h_k s_k.
    Returns beta = 1 + I / (h_b s_b), shape (...,), and
    y = [h_a s_a + h_b s_b + I, h_b s_b - beta h_a s_a], shape (..., 2).
    """
    h_a, h_b = h_pair[..., 0], h_pair[..., 1]
    s_a, s_b = s_pair[..., 0], s_pair[..., 1]
    v_a, v_b = h_a * s_a, h_b * s_b
    if np.any(v_b == 0.0):
        raise ValueError("dissolution divides by h_b * s_b = 0 (degenerate input)")
    beta = 1.0 + interference / v_b
    return beta, np.stack([v_a + v_b + interference, v_b - beta * h_a * s_a], axis=-1)


def second_use_power(beta, s_pair: np.ndarray):
    """Realized power of a pair's second use, beta^2 s_a^2 + s_b^2 (not re-normalized)."""
    return beta**2 * s_pair[..., 0] ** 2 + s_pair[..., 1] ** 2


def _dissolve_pairs(block: SymbolBlock, ch: ChannelRealization, ms) -> tuple[np.ndarray, np.ndarray]:
    """``dissolve`` on pairs ``ms`` of one frame: beta (len(ms),), y (len(ms), 2)."""
    if block.k != ch.k:
        raise ValueError(f"block has {block.k} symbols but channel has {ch.k} gains")
    idx = np.array([pair_members(block.k, m) for m in ms])
    interference = np.array([out_of_pair_sum(ch.h * block.s, m) for m in ms])
    return dissolve(ch.h[idx], block.s[idx], interference)


def dissolution_factor(block: SymbolBlock, ch: ChannelRealization, m: int) -> float:
    """beta_m = 1 + (sum of out-of-pair h_k s_k) / (h_b s_b) for pair m."""
    return float(_dissolve_pairs(block, ch, [m])[0][0])


def _add_noise(y: np.ndarray, noise: NoiseModel | None, rng: np.random.Generator | None) -> None:
    """Add one noise sample to each entry of ``y``, in order, in place."""
    if noise is None:
        return
    if rng is None:
        raise ValueError("rng is required when noise is present")
    for i in range(len(y)):
        y[i] += noise.sample(rng)


def transmit_pair(
    block: SymbolBlock,
    ch: ChannelRealization,
    m: int,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
) -> ReceivedPair:
    """Received (y_1, y_{m+1}) for pair m; ``noise=None`` gives the noiseless pair."""
    y = _dissolve_pairs(block, ch, [m])[1][0]
    _add_noise(y, noise, rng)
    return ReceivedPair(y1=float(y[0]), ym=float(y[1]), pair_index=m)


def candidate_pairs(const: PamConstellation) -> np.ndarray:
    """All (2 q_s)^2 candidate pairs, first member major, alphabet ascending."""
    pts = const.points
    sa, sb = np.meshgrid(pts, pts, indexing="ij")
    return np.column_stack([sa.ravel(), sb.ravel()])


def weight_matrix(y: np.ndarray, h_pair: np.ndarray, cands: np.ndarray, out=None) -> np.ndarray:
    """Weight of every candidate pair for a batch of observations.

    y: (..., 2) observations, h_pair: (..., 2) pair gains (broadcast
    against y, so ``h_pair[..., None, :]`` scores a grid of observations per
    channel), cands: (C, 2). Returns (..., C) values |<y - v, v>| / ||v||
    with v = h_pair * cand, through the identity <y - v, v> = A - B with
    A = <y, v> = (y * h_pair) @ cands^T and B = ||v||^2 = h_pair^2 @ (cands^2)^T,
    so the weight is |A - B| / sqrt(B) and no (..., C, 2) array is built.
    ``out``, if given, holds at least two (..., C) float64 buffers; the
    result is written into the first.
    """
    w, energy = out[:2] if out is not None else (None, None)
    w = np.matmul(y * h_pair, cands.T, out=w)
    energy = np.matmul(h_pair * h_pair, (cands * cands).T, out=energy)
    w -= energy
    np.abs(w, out=w)
    np.sqrt(energy, out=energy)
    w /= energy
    return w


# Smallest positive double. Clamping the likelihood denominator to it changes
# only zero denominators; the numerator is zero there too, so the correction
# is 0.
_TINY = np.nextafter(0.0, 1.0)


def ml_metric_matrix(
    y: np.ndarray,
    h_pair: np.ndarray,
    cands: np.ndarray,
    interference_power: np.ndarray,
    sigma2: float,
    out=None,
) -> np.ndarray:
    """Full-covariance likelihood metric for every candidate pair.

    ``interference_power`` I >= 0 is p * sum of out-of-pair h_k^2 (shape
    (...,)), so eta^2(cand) = I / (h_b * cand_b)^2. The metric is
    sigma2 * (y - v)^T C^{-1} (y - v) with C = eta^2 vperp vperp^T + sigma2 I,
    evaluated through the rank-one closed form with its correction multiplied
    top and bottom by (h_b cand_b)^2:

        ||y - v||^2 - I <y, vperp>^2 / (sigma2 (h_b cand_b)^2 + I ||v||^2),

    using <v, vperp> = 0. Each (..., C) operand is one matrix product:
    ||y - v||^2 = [||y||^2, -2 y0 h0, -2 y1 h1, h0^2, h1^2] @ [1, ca, cb, ca^2, cb^2]^T,
    sqrt(I) <y, vperp> = sqrt(I) [y0 h1, y1 h0] @ [cb, -ca]^T, and the
    denominator is [I h0^2, (sigma2 + I) h1^2] @ [ca^2, cb^2]^T. Where the
    denominator is zero, so is the numerator, and the correction is 0.
    y and h_pair have the same shape; ``out``, if given, holds at least
    three (..., C) float64 buffers, and the result is written into the first.
    """
    d_sq, proj, denom = out[:3] if out is not None else (None, None, None)
    ipow = np.asarray(interference_power, dtype=float)
    h_sq = h_pair * h_pair
    c_sq = cands * cands
    y_terms = np.concatenate([np.sum(y * y, axis=-1, keepdims=True), -2.0 * (y * h_pair), h_sq], axis=-1)
    d_sq = np.matmul(y_terms, np.column_stack([np.ones(len(cands)), cands, c_sq]).T, out=d_sq)
    y_rot = np.sqrt(ipow)[..., None] * (y * h_pair[..., ::-1])
    proj = np.matmul(y_rot, (cands[:, ::-1] * [1.0, -1.0]).T, out=proj)
    proj *= proj
    denom = np.matmul(h_sq * np.stack([ipow, sigma2 + ipow], axis=-1), c_sq.T, out=denom)
    np.maximum(denom, _TINY, out=denom)
    proj /= denom
    d_sq -= proj
    return d_sq


def known_beta_metric_matrix(y: np.ndarray, h_pair: np.ndarray, cands: np.ndarray, beta, out=None) -> np.ndarray:
    """Squared distance ||y - v - beta * v_perp||^2 of every candidate pair.

    y: (..., 2), h_pair: (..., 2), beta: scalar or (...,). Expanding the
    square with <v, v_perp> = 0 gives
    ||y||^2 - 2 [(y0 - beta y1) h0, (beta y0 + y1) h1] @ cands^T + (1 + beta^2) B,
    with B = ||v||^2 as in ``weight_matrix``. ``out``, if given, holds at
    least two (..., C) float64 buffers; the result is written into the first.
    """
    d2, energy = out[:2] if out is not None else (None, None)
    beta = np.asarray(beta, dtype=float)
    y0, y1 = y[..., 0], y[..., 1]
    y_mix = np.stack([(y0 - beta * y1) * h_pair[..., 0], (beta * y0 + y1) * h_pair[..., 1]], axis=-1)
    d2 = np.matmul(y_mix, cands.T, out=d2)
    d2 *= -2.0
    energy = np.matmul(h_pair * h_pair, (cands * cands).T, out=energy)
    energy *= (1.0 + beta * beta)[..., None]
    d2 += energy
    d2 += np.sum(y * y, axis=-1)[..., None]
    return d2


# Values per block in ``argmin_metric``: each of its METRIC_BUFFERS (rows, C)
# float64 buffers holds at most 256 KiB, so all of them stay in a 2 MiB L2
# cache while a block is scored. At most BLOCK_ROWS rows keep the metrics'
# per-row operands, up to (rows, 5) float64, under glibc's 128 KiB mmap
# threshold, so they come from the heap instead of being mapped and
# page-faulted afresh in every block; this binds only below C = 16.
BLOCK_VALUES = 1 << 15
BLOCK_ROWS = 1 << 11
METRIC_BUFFERS = 3


def argmin_metric(metric, y: np.ndarray, h_pair: np.ndarray, cands: np.ndarray, *args) -> np.ndarray:
    """Per-row index of the smallest ``metric(y, h_pair, cands, *args)``.

    y and h_pair are (n, 2); an array in ``args`` holds one value per row
    and is sliced with them, a scalar is passed as it is. The metric is
    evaluated on blocks of about ``BLOCK_VALUES`` values, so no (n, C) array
    is built; every row is scored on its own, so the result is the row-wise
    argmin of the whole (n, C) metric. The block buffers are allocated once
    and passed to the metric as ``out``, so scoring a block allocates no
    (rows, C) array.
    """
    n, c = len(y), len(cands)
    rows = max(1, min(n, BLOCK_ROWS, BLOCK_VALUES // c))
    bufs = [np.empty((rows, c)) for _ in range(METRIC_BUFFERS)]
    idx = np.empty(n, dtype=np.intp)
    for lo in range(0, n, rows):
        block = slice(lo, lo + rows)
        m = min(rows, n - lo)
        part = [a[block] if np.ndim(a) else a for a in args]
        out = [b[:m] for b in bufs] if m < rows else bufs
        np.argmin(metric(y[block], h_pair[block], cands, *part, out=out), axis=1, out=idx[block])
    return idx


def weight(rp: ReceivedPair, cand: tuple[float, float], ch: ChannelRealization, m: int) -> float:
    """Weight component of one candidate pair: |<y - v, v>| / ||v||."""
    a, b = pair_members(ch.k, m)
    return float(weight_matrix(rp.y, ch.h[[a, b]], np.asarray(cand, dtype=float)[None, :])[0])


def _metric_values(metric, rp: ReceivedPair, ch: ChannelRealization, m: int, const: PamConstellation, *args):
    a, b = pair_members(ch.k, m)
    return metric(rp.y, ch.h[[a, b]], candidate_pairs(const), *args)


def _decode(decoder: str, metric, rp, ch, m, const, *args) -> DecodeResult:
    """Exhaustive decoding of pair m by ``metric``; ties resolve to the first candidate."""
    vals = _metric_values(metric, rp, ch, m, const, *args)
    idx = int(np.argmin(vals))
    s_a, s_b = candidate_pairs(const)[idx]
    return DecodeResult(pair=(s_a, s_b), weight_min=float(vals[idx]), decoder=decoder, pair_index=m)


def weight_values(rp: ReceivedPair, ch: ChannelRealization, m: int, const: PamConstellation) -> np.ndarray:
    """Weights of all candidates, in candidate enumeration order."""
    return _metric_values(weight_matrix, rp, ch, m, const)


def ml_decision_values(
    rp: ReceivedPair,
    ch: ChannelRealization,
    m: int,
    const: PamConstellation,
    p: float,
    sigma2: float,
) -> np.ndarray:
    """Likelihood metrics of all candidates, in candidate enumeration order."""
    return _metric_values(ml_metric_matrix, rp, ch, m, const, p * out_of_pair_sum(ch.h**2, m), sigma2)


def decode_pair(rp: ReceivedPair, ch: ChannelRealization, m: int, const: PamConstellation) -> DecodeResult:
    """Exhaustive weight decoding; ties resolve to the first candidate."""
    return _decode(WEIGHT, weight_matrix, rp, ch, m, const)


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
    return _decode(ML, ml_metric_matrix, rp, ch, m, const, p * out_of_pair_sum(ch.h**2, m), sigma2)


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
    return _decode(ML, known_beta_metric_matrix, rp, ch, m, const, beta)


def transmit_frame(
    block: SymbolBlock,
    ch: ChannelRealization,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
) -> list[ReceivedPair]:
    """All received pairs of one frame; the first observation is shared.

    The shared first use is pair 1's. Noise is drawn for it first, then for
    each pair's second use in pair order.
    """
    y = _dissolve_pairs(block, ch, range(1, num_pairs(block.k) + 1))[1]
    uses = np.concatenate([y[:1, 0], y[:, 1]])
    _add_noise(uses, noise, rng)
    return [ReceivedPair(y1=float(uses[0]), ym=float(ym), pair_index=m) for m, ym in enumerate(uses[1:], 1)]


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
