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

import threading

import numpy as np

from .model import SMALLEST_POSITIVE, PamConstellation, constellation_for_power

WEIGHT = "weight"
ML = "ml"


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


def _pair_columns(k: int, m: int):
    """Pair m's columns of a (..., K) array: a slice, so a view, for adjacent
    members; only odd K's last pair needs a copy."""
    a, b = pair_members(k, m)
    return slice(a, b + 1) if b == a + 1 else [a, b]


def chunk_sizes(total: int, chunk: int):
    """Sizes of the consecutive chunks, at most ``chunk`` each, that make up ``total``."""
    for start in range(0, total, chunk):
        yield min(chunk, total - start)


def out_of_pair_sum(x: np.ndarray, m: int) -> np.ndarray:
    """Sum of ``x[..., k]`` over the symbols k outside pair m, by ``np.sum``:
    every interference term is summed here, in one order."""
    k = x.shape[-1]
    pair = pair_members(k, m)
    return np.sum(x[..., [j for j in range(k) if j not in pair]], axis=-1)


def dissolve(h_pair: np.ndarray, s_pair: np.ndarray, interference) -> tuple[np.ndarray, np.ndarray]:
    """Noiseless dissolution of a batch of pairs: the factor and both observations.

    h_pair, s_pair: (..., 2) gains and symbols of the pair (a, b), broadcast
    against each other; interference: (...,) out-of-pair sum I of h_k s_k,
    or None where the frame has no other symbol (K = 2).
    Returns beta = 1 + I / (h_b s_b), shape (...,), and
    y = [h_a s_a + h_b s_b + I, h_b s_b - beta h_a s_a], shape (..., 2).
    A zero h_b s_b raises ValueError, as beta divides by it.

    With no interference nothing is divided: beta = 1 and
    y = [v_a + v_b, v_b - v_a], v = h s, I = 0's values bit for bit wherever
    those do not raise, since 1 + 0 / v_b = 1, 1 h_a = h_a, and adding +0.0
    changes only -0.0, which v_a + v_b is not where v_b != 0.
    """
    h_a, h_b = h_pair[..., 0], h_pair[..., 1]
    s_a, s_b = s_pair[..., 0], s_pair[..., 1]
    v_a, v_b = h_a * s_a, h_b * s_b
    if interference is None:
        y = np.empty(v_a.shape + (2,))
        np.add(v_a, v_b, out=y[..., 0])
        np.subtract(v_b, v_a, out=y[..., 1])
        return np.ones(v_a.shape), y
    if np.any(v_b == 0.0):
        raise ValueError("dissolution divides by h_b * s_b = 0 (degenerate input)")
    beta = 1.0 + interference / v_b
    return beta, np.stack([v_a + v_b + interference, v_b - beta * h_a * s_a], axis=-1)


def second_use_power(beta, s_pair: np.ndarray):
    """Realized power of a pair's second use, beta^2 s_a^2 + s_b^2 (not re-normalized)."""
    return beta**2 * s_pair[..., 0] ** 2 + s_pair[..., 1] ** 2


def frame_observe(h: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Noiseless observations of whole frames: every pair through ``dissolve``.

    h, s: (n, K) symbol gains and symbols. Returns the M = ceil(K/2)
    dissolution factors beta, shape (n, M), and the 1 + M channel uses y,
    shape (n, 1 + M): the shared first use (pair 1's), then one second use
    per pair in pair order. Pair m is decoded from ``y[:, [0, m]]``. Noise
    is the caller's, at unit variance: one ``rng.standard_normal(y.shape)``
    draws it for the shared use first, then for each second use when n = 1.
    """
    if h.shape != s.shape:
        raise ValueError(f"gains {h.shape} and symbols {s.shape} differ in shape")
    k = s.shape[-1]
    hs = h * s
    cols = [_pair_columns(k, m) for m in range(1, num_pairs(k) + 1)]
    betas, ys = zip(*(dissolve(h[..., c], s[..., c], out_of_pair_sum(hs, m)) for m, c in enumerate(cols, 1)))
    return np.stack(betas, axis=-1), np.stack([ys[0][..., 0], *(y[..., 1] for y in ys)], axis=-1)


def candidate_pairs(const: PamConstellation) -> np.ndarray:
    """All (2 q_s)^2 candidate pairs, first member major, alphabet ascending,
    so the set is antipodal: ``cands[C-1-i] == -cands[i]`` (``argmin_metric``).

    A half-size above MAX_HALF_SIZE raises ValueError (``check_half_size``).
    """
    check_half_size(const.q_s)
    pts = const.points
    cands = np.empty((len(pts), len(pts), 2))
    cands[..., 0] = pts[:, None]
    cands[..., 1] = pts
    return cands.reshape(-1, 2)


def alphabet(p: float, q_s: int) -> PamConstellation:
    """The half-size ``q_s`` alphabet at power ``p``, its half-size checked
    first: the check compares integers, so one too large for a float fails
    before it would overflow the scaling."""
    check_half_size(q_s)
    return constellation_for_power(p, q_s)


def check_half_size(q_s: int) -> None:
    """Raise ValueError for a half-size above MAX_HALF_SIZE: its (2 q_s)^2
    candidate pairs would not fit one ``row_blocks`` block."""
    if q_s > MAX_HALF_SIZE:
        raise ValueError(f"half-size {q_s} gives more than {BLOCK_VALUES} candidate pairs; "
                         f"the half-size must be at most {MAX_HALF_SIZE}")


def _odd_part(r: np.ndarray, cands: np.ndarray, out, fold) -> np.ndarray:
    """r @ cands^T into ``out``, or into ``fold`` with its absolute value into ``out``."""
    return np.matmul(r, cands.T, out=out) if fold is None else np.abs(np.matmul(r, cands.T, out=fold), out=out)


def _operands(memo, build, cands: np.ndarray):
    """``build(cands)``, kept in the dict ``memo``, if given, under ``build``,
    so calls that share ``memo`` and ``cands`` build it once."""
    if memo is None:
        return build(cands)
    if build not in memo:
        memo[build] = build(cands)
    return memo[build]


def _unit_candidates(cands: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one-gain weight's candidate side: the norms ||c||, the unit
    candidates c / ||c||, a column-major copy of them, whose transpose is the
    faster, C-contiguous product operand, and the norms repeated over at
    least ``np.getbufsize()`` values (``_subtract_norms``)."""
    norms = np.hypot(cands[:, 0], cands[:, 1])
    units = cands / norms[:, None]
    return norms, units, np.asfortranarray(units), np.tile(norms, -(-np.getbufsize() // len(norms)))


def _subtract_norms(w: np.ndarray, norms: np.ndarray, tile: np.ndarray) -> None:
    """``w -= norms`` along w's last axis, bit for bit, in loops of at least
    ``np.getbufsize()`` values. numpy subtracts a (C,) row broadcast over
    (rows, C) through its buffered iterator in one short loop per row, at
    about twice the cost; ``tile``, the norms repeated, is subtracted from
    groups of whole rows instead, and its leading rows from those left over."""
    if not w.flags.c_contiguous:
        w -= norms
        return
    rows = w.reshape(-1, len(norms))
    q = len(rows) - len(rows) % (len(tile) // len(norms))
    groups = rows[:q].reshape(-1, len(tile))
    groups -= tile
    if q < len(rows):
        rows[q:] -= tile[: rows[q:].size].reshape(-1, len(norms))


def _squares(cands: np.ndarray) -> np.ndarray:
    """The two-gain weight's candidate side: [ca^2, cb^2]."""
    return cands * cands


def weight_matrix(y: np.ndarray, h_pair: np.ndarray, cands: np.ndarray, out=None, fold=None, memo=None) -> np.ndarray:
    """Weight of every candidate pair for a batch of observations.

    y: (..., 2) observations, h_pair: (..., 2) pair gains (broadcast
    against y, so ``h_pair[..., None, :]`` scores a grid of observations per
    channel), cands: (C, 2). Returns (..., C) values |<y - v, v>| / ||v||
    with v = h_pair * cand, through the identity <y - v, v> = A - B with
    A = <y, v> = (y * h_pair) @ cands^T and B = ||v||^2 = h_pair^2 @ (cands^2)^T,
    so the weight is |A - B| / sqrt(B) and no (..., C, 2) array is built.
    ``out``, if given, holds at least two (..., C) float64 buffers; the
    result is written into the first. ``fold``, if given, is one more: A is
    written into it and |A| scored in its place, so each value is the
    smaller weight of cand and -cand (``argmin_metric``). ``memo``, if
    given, is a dict that keeps the candidate-side operands between calls
    on the same ``cands``, so they are built in the first call only.

    h_pair of shape (..., 1) is the one-gain form: both symbols ride the
    gain h, and the values are the weights divided by |h|,
    |<y / h, c / ||c||> - ||c|||, which is one product against the unit
    candidates and no energy product, square root or division per
    candidate. Dividing a row by |h| keeps its argmin, and the product's
    sign is A's, so ``fold`` holds it in A's place; only ``out``'s first
    buffer is used. The rounding differs from the two-gain form's, so
    values near zero, such as ``analysis.dmin_batch``'s floors, move in
    their last digits; that prober keeps the two-gain form.

    The weight rule is a GLRT: ML with beta an unknown real parameter.
    {v, v_perp} / ||v|| is an orthonormal basis of R^2, so
    ||y - v - beta v_perp||^2 = <y - v, v>^2 / ||v||^2 + (<y - v, v_perp> / ||v|| - beta ||v||)^2,
    and weight^2 = min over beta of ||y - v - beta v_perp||^2.
    """
    w, energy = out[:2] if out is not None else (None, None)
    if h_pair.shape[-1] == 1:
        norms, units, units_f, tile = _operands(memo, _unit_candidates, cands)
        u = y / h_pair
        # numpy scores a single row with a matrix-vector routine, whose last
        # bits depend on the operand's layout; matrix products do not.
        w = _odd_part(u, units_f if u.ndim == 2 and len(u) > 1 else units, w, fold)
        _subtract_norms(w, norms, tile)
        return np.abs(w, out=w)
    w = _odd_part(y * h_pair, cands, w, fold)
    energy = np.matmul(h_pair * h_pair, _operands(memo, _squares, cands).T, out=energy)
    w -= energy
    np.abs(w, out=w)
    np.sqrt(energy, out=energy)
    w /= energy
    return w



def _likelihood_candidates(cands: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The likelihood's candidate side: [1, ca^2, cb^2], the rotated
    candidates [cb, -ca], [ca^2, cb^2] and, for the one-gain form, ||c||^2."""
    c_sq = _squares(cands)
    return np.column_stack([np.ones(len(cands)), c_sq]), cands[:, ::-1] * [1.0, -1.0], c_sq, c_sq[:, 0] + c_sq[:, 1]


def ml_metric_matrix(y: np.ndarray, h_pair: np.ndarray, cands: np.ndarray, interference_power: np.ndarray,
                     out=None, fold=None, memo=None) -> np.ndarray:
    """Full-covariance likelihood metric for every candidate pair, at unit
    noise variance.

    ``interference_power`` I >= 0 is the per-symbol power times the sum of
    out-of-pair h_k^2 (shape (...,)), so eta^2(cand) = I / (h_b * cand_b)^2.
    The metric is (y - v)^T C^{-1} (y - v) with C = eta^2 vperp vperp^T + I_2,
    evaluated through the rank-one closed form with its correction multiplied
    top and bottom by (h_b cand_b)^2:

        ||y - v||^2 - I <y, vperp>^2 / ((h_b cand_b)^2 + I ||v||^2),

    using <v, vperp> = 0. Each (..., C) operand is one matrix product:
    ||y - v||^2 = E - 2 A, with the even product
    E = [||y||^2, h0^2, h1^2] @ [1, ca^2, cb^2]^T and the odd product
    A = (y * h_pair) @ cands^T; sqrt(I) <y, vperp> = sqrt(I) [y0 h1, y1 h0] @ [cb, -ca]^T;
    and the denominator is [I h0^2, (1 + I) h1^2] @ [ca^2, cb^2]^T.
    Where the denominator is zero, so is the numerator, and the correction
    is 0. y and h_pair have the same shape; ``out``, if given, holds at
    least three (..., C) float64 buffers, and the result is written into
    the first. ``fold``, if given, is one more: A is written into it and |A|
    scored in its place. The correction is even in the candidate, so each
    value is then the smaller metric of cand and -cand (``argmin_metric``).
    ``memo`` keeps the candidate-side operands as in ``weight_matrix``.

    h_pair of shape (..., 1) is the one-gain form: both symbols ride the
    gain h, and with u = y / h the values are

        ||c||^2 - 2 <u, c> - I (u0 cb - u1 ca)^2 / (cb^2 + I ||c||^2),

    the metric divided by h^2 minus the row constant ||u||^2, so every row
    keeps its argmin. That is three products: (2u) @ cands^T, the odd part,
    which ``fold`` holds in A's place (its sign is A's); (sqrt(I) u) @
    [cb, -ca]^T, squared; and the denominator cb^2 + I ||c||^2, the
    two-gain one at h = 1, [I, 1 + I] @ [ca^2, cb^2]^T. It is at least
    cb^2, which is positive in a zero-free alphabet, so it needs no guard
    against zero.
    """
    d_sq, proj, denom = out[:3] if out is not None else (None, None, None)
    ipow = np.asarray(interference_power, dtype=float)
    c_even, c_rot, c_sq, norm_sq = _operands(memo, _likelihood_candidates, cands)
    i_two = np.stack([ipow, 1.0 + ipow], axis=-1)
    one_gain = h_pair.shape[-1] == 1
    if one_gain:
        y_rot = y / h_pair
        d_sq = _odd_part(2.0 * y_rot, cands, d_sq, fold)
        np.subtract(norm_sq, d_sq, out=d_sq)
    else:
        h_sq = h_pair * h_pair
        y_even = np.concatenate([np.sum(y * y, axis=-1, keepdims=True), h_sq], axis=-1)
        even = np.matmul(y_even, c_even.T, out=proj)
        d_sq = _odd_part(y * h_pair, cands, d_sq, fold)
        d_sq *= -2.0
        d_sq += even
        y_rot = y * h_pair[..., ::-1]
        i_two = h_sq * i_two
    proj = np.matmul(np.sqrt(ipow)[..., None] * y_rot, c_rot.T, out=proj)
    proj *= proj
    denom = np.matmul(i_two, c_sq.T, out=denom)
    if not one_gain:
        # Clamping to the smallest positive double changes only zero
        # denominators; the numerator is zero there too, so the correction is 0.
        np.maximum(denom, SMALLEST_POSITIVE, out=denom)
    proj /= denom
    d_sq -= proj
    return d_sq


# The block budget of ``row_blocks``: each of METRIC_BUFFERS (rows, width)
# float64 buffers holds at most 256 KiB, so all of them stay in a 2 MiB L2
# cache while a block is scored. They are views of one scratch array per
# thread, kept between calls, so their pages are faulted in once per thread,
# not each time an array above glibc's 128 KiB mmap threshold is mapped
# afresh. At most BLOCK_ROWS rows keep the metrics' per-row operands, up to
# (rows, 3) float64, under that threshold; this binds only below C = 32.
BLOCK_VALUES = 1 << 15
BLOCK_ROWS = 1 << 11
METRIC_BUFFERS = 4
# The candidate budget: the largest half-size whose (2 q_s)^2 <= BLOCK_VALUES
# pairs fit one block, 90. Folded, a row scores only half of them.
MAX_HALF_SIZE = int(np.sqrt(BLOCK_VALUES)) // 2

_scratch = threading.local()


def row_blocks(n: int, width: int):
    """Yield each block of ``n`` rows, about BLOCK_VALUES values and at most
    BLOCK_ROWS rows, as ``(block, buffers)``: its row slice and a list of
    METRIC_BUFFERS (rows, width) float64 buffers to score it into. They are
    views of this thread's scratch array, grown to the largest block asked
    for and kept, so every block and every later call writes into the same
    memory, a partial last block into its leading rows."""
    rows = max(1, min(n, BLOCK_ROWS, BLOCK_VALUES // width))
    size = METRIC_BUFFERS * rows * width
    values = getattr(_scratch, "values", None)
    if values is None or len(values) < size:
        values = _scratch.values = np.empty(size)
    bufs = list(values[:size].reshape(METRIC_BUFFERS, rows, width))
    for lo in range(0, n, rows):
        m = min(rows, n - lo)
        yield slice(lo, lo + m), bufs if m == rows else [b[:m] for b in bufs]


def argmin_metric(metric, y: np.ndarray, h_pair: np.ndarray, cands: np.ndarray, *args) -> np.ndarray:
    """Per-row index into ``cands`` of the smallest ``metric(y, h_pair, cands, *args)``.

    ``cands`` (C, 2) are ``candidate_pairs``, which are antipodal,
    ``cands[C-1-i] == -cands[i]``. Every metric is an even part minus an
    odd part odd = r @ cand, so only the back half ``cands[C//2:]`` is
    scored: the metric writes odd into its ``fold`` buffer and scores |odd|,
    the better of cand and -cand.
    The argmin j over the half names C//2 + j where odd > 0, else its
    antipode C//2 - 1 - j, the earlier one of a tied pair.

    y is (n, 2) and h_pair (n, 2) or, for the one-gain forms, (n, 1);
    every array in ``args`` holds one value per row and is sliced with
    them. The rows are scored in ``row_blocks``, its buffers passed as
    ``out`` and, the last, ``fold``, with one ``memo`` per call, so no
    (n, C) array is built and the candidate-side operands are built once.
    Each row is scored on its own, so the result is the row-wise argmin of
    the whole (n, C) metric; only an exact tie between two pairs goes to the
    pair whose back-half member comes first.
    """
    n, half = len(y), len(cands) // 2
    back = cands[half:]
    idx = np.empty(n, dtype=np.intp)
    odd = np.empty(n)
    memo: dict = {}
    starts = None  # flat index of each row in a block's fold, from the first, largest block
    for block, (*out, fold) in row_blocks(n, half):
        part = [a[block] for a in args]
        scores = metric(y[block], h_pair[block], back, *part, out=out, fold=fold, memo=memo)
        if half == 2:
            # q_s = 1: over two columns np.argmin picks 1 exactly where s1 < s0,
            # 0 on a tie. They differ only on NaN, which no metric value is on
            # harness.SNR_DB_RANGE.
            np.less(scores[:, 1], scores[:, 0], out=idx[block])
        else:
            np.argmin(scores, axis=1, out=idx[block])
        if starts is None:
            starts = np.arange(len(fold)) * half
        np.take(fold, starts[: len(fold)] + idx[block], out=odd[block], mode="clip")
    # idx ^ -1 == -1 - idx: C//2 + j where odd > 0, else C//2 - 1 - j, without
    # np.where's branch per row, which mispredicts on random signs.
    return half + (idx ^ np.subtract(odd > 0, 1, dtype=np.intp))


def pair_decode(y, h, m, const, decoder=WEIGHT) -> np.ndarray:
    """Decisions (n, 2) on pair m of frames with gains h (n, K) from its
    observations y (n, 2) at unit noise variance, both symbols from the
    alphabet ``const``.

    ``WEIGHT`` takes the weight argmin over ``candidate_pairs(const)``.
    ``ML`` at K > 2 takes the argmin of the full-covariance likelihood,
    which models the interferers as zero-mean with the alphabet's power
    ``const.power`` each, since they are drawn from it. Where the pair's
    two gain columns are equal, as for the ``dof`` prober, the multicast
    receivers and pair 1 at K >= 4 under the block antenna map, both
    rules score their metric's one-gain form (``weight_matrix``,
    ``ml_metric_matrix``), whose rows are scaled and shifted copies of the
    two-gain rows with the same argmin. A tie within an
    antipodal pair resolves to the first candidate; an exact tie between
    two pairs goes to the pair whose back-half member comes first
    (``argmin_metric``).

    ``ML`` at K = 2 is exact ML with beta = 1: y = s_a (h_a, -h_a) +
    s_b (h_b, h_b) + noise has orthogonal columns, so it splits into two
    PAM slicers, ``const.nearest`` of (y0 - y1) / (2 h_a) and
    (y0 + y1) / (2 h_b). ``nearest`` resolves a tie between two levels
    downward, unlike the argmin's rule above.
    """
    k = h.shape[-1]
    h_pair = h[:, _pair_columns(k, m)]
    metric, args = weight_matrix, ()
    if decoder == ML:
        if k == 2:
            u = np.stack([y[:, 0] - y[:, 1], y[:, 0] + y[:, 1]], axis=-1)
            return const.nearest(u / (2 * h_pair))
        metric, args = ml_metric_matrix, (const.power * out_of_pair_sum(h**2, m),)
    elif decoder != WEIGHT:
        raise ValueError(f"unknown decoder {decoder!r}")
    if np.array_equal(h_pair[:, 0], h_pair[:, 1]):
        h_pair = h_pair[:, :1]
    cands = candidate_pairs(const)
    # np.take gathers the (n, 2) decisions in a tenth of the time that
    # fancy indexing took (about 15 against 140 us per 8192 rows).
    return np.take(cands, argmin_metric(metric, y, h_pair, cands, *args), axis=0)


def frame_decode(y, h, const, decoder=WEIGHT) -> np.ndarray:
    """The K symbols (n, K) of frames observed as ``frame_observe``'s y (n, 1 + M).

    Each pair is decoded by ``pair_decode`` over the alphabet ``const`` from
    the shared first use and its own second use. For odd K the last pair
    repeats s_1, and pair 1's decision of s_1 is kept.
    """
    s_hat = np.empty(h.shape)
    for m in range(num_pairs(h.shape[-1]), 0, -1):
        s_hat[:, list(pair_members(h.shape[-1], m))] = pair_decode(y[:, [0, m]], h, m, const, decoder)
    return s_hat
