"""Tests for dissolution precoding, the weight decoder, and the ML oracles."""

import inspect
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsim import core, harness, model

RNG = lambda *key: np.random.default_rng(list(key))  # noqa: E731


def observe(h, s):
    """``frame_observe`` of one frame given as sequences: beta (M,), y (1 + M,)."""
    beta, y = core.frame_observe(np.asarray([h], float), np.asarray([s], float))
    return beta[0], y[0]


def random_frames(seed, k, n, p=1.0, q_s=2):
    """n frames of K symbols on separate gains: the alphabet, h (n, K) and s (n, K)."""
    rng = RNG(seed)
    const = model.constellation_for_power(p, q_s)
    h, _ = model.draw_channels(k, k, n, rng)
    return const, h, const.draw(rng, size=(n, k))


class TestFirstUseSignal:
    def test_cancellation(self):
        assert observe([1.0, 1.0], [1.0, -1.0])[1][0] == 0.0

    def test_direct_sum(self):
        assert observe([1.0, 2.0, 0.5, 1.0], [1.0, 1.0, 2.0, -2.0])[1][0] == pytest.approx(2.0)

    def test_two_symbol_definition(self):
        rng = RNG(0)
        h, s = rng.normal(size=2), rng.normal(size=2)
        assert observe(h, s)[1][0] == pytest.approx(h @ s, rel=1e-15)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            core.frame_observe(np.ones((1, 4)), np.ones((1, 3)))


class TestDissolutionFactor:
    def test_no_interferers(self):
        assert observe([0.3, -1.2], [1.0, 2.0])[0][0] == 1.0

    def test_hand_computed(self):
        assert observe([1.0, 1.0, 1.0], [1.0, 2.0, 2.0])[0][0] == pytest.approx(2.0)

    def test_identity_random_instances(self):
        """h_a s_a + beta h_b s_b reproduces the full first-use sum."""
        for k in range(2, 9):
            _, h, s = random_frames(42, k, 30)
            beta, y = core.frame_observe(h, s)
            total = np.sum(h * s, axis=1)
            for m in range(1, core.num_pairs(k) + 1):
                a, b = core.pair_members(k, m)
                lhs = h[:, a] * s[:, a] + beta[:, m - 1] * h[:, b] * s[:, b]
                np.testing.assert_allclose(lhs, total, rtol=1e-10, atol=1e-12)

    def test_degenerate_guard(self):
        with pytest.raises(ValueError):
            observe([1.0, 1.0], [1.0, 0.0])


class TestDissolve:
    """The batched signal model against the whole-frame engine."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), k=st.integers(2, 8), q_s=st.sampled_from([1, 2, 4]))
    def test_batch_rows_match_scalar_pairs(self, seed, k, q_s):
        """Seeded channels are generic: every pair's rows are the frame
        engine's, each frame observed alone (n = 1) gives its batch row, the
        first use is sum_k h_k s_k, and the noiseless weight argmin is the pair."""
        rng = RNG(seed)
        n = 16
        const = model.constellation_for_power(1.0, q_s)
        cands = core.candidate_pairs(const)
        h, _ = model.draw_channels(k, k, n, rng)
        s = const.draw(rng, size=(n, k))
        beta_f, y_f = core.frame_observe(h, s)
        assert beta_f.shape == (n, core.num_pairs(k)) and y_f.shape == (n, core.channel_uses(k))
        for i in range(n):
            beta_i, y_i = core.frame_observe(h[i : i + 1], s[i : i + 1])
            np.testing.assert_array_equal(beta_i[0], beta_f[i])
            np.testing.assert_array_equal(y_i[0], y_f[i])
        for m in range(1, core.num_pairs(k) + 1):
            ab = list(core.pair_members(k, m))
            beta, y = core.dissolve(h[:, ab], s[:, ab], core.out_of_pair_sum(h * s, m))
            assert beta.shape == (n,) and y.shape == (n, 2)
            np.testing.assert_array_equal(beta, beta_f[:, m - 1])
            np.testing.assert_array_equal(y[:, 1], y_f[:, m])
            if m == 1:
                np.testing.assert_array_equal(y[:, 0], y_f[:, 0])
            np.testing.assert_array_less(np.abs(y[:, 0] - np.sum(h * s, axis=1)), 1e-12 * np.sum(np.abs(h * s), axis=1))
            hat = cands[core.argmin_metric(core.weight_matrix, y, h[:, ab], cands)]
            np.testing.assert_array_equal(hat, s[:, ab])

    @staticmethod
    def bits(x):
        return np.asarray(x, dtype=float).view(np.int64)

    @pytest.mark.parametrize("q_s", [1, 4])
    def test_no_interference_is_zero_interference_bit_for_bit(self, q_s):
        """Without interference, beta and y equal those of an explicit +0.0
        interference, values and sign bits, on random pairs with a quarter
        of them cancelling in the first use (h_a s_a = -h_b s_b, so its
        observation is +0.0), for a broadcast gain pair and for one pair."""
        rng = RNG(31, q_s)
        n = 4000
        h = model._signed_rayleigh(rng, (n, 2))
        s = model.constellation_for_power(10.0, q_s).draw(rng, size=(n, 2))
        cancel = rng.random(n) < 0.25
        h[cancel, 1] = h[cancel, 0] * rng.choice([-1.0, 1.0], size=int(cancel.sum()))
        s[cancel, 1] = -s[cancel, 0] * np.sign(h[cancel, 0] * h[cancel, 1])
        for args in ((h, s), (np.array([0.7, -1.3]), s), (h[0], s[0]), (h.reshape(40, 100, 2), s.reshape(40, 100, 2))):
            beta, y = core.dissolve(*args, None)
            ref_beta, ref_y = core.dissolve(*args, np.zeros(np.shape(args[1])[:-1]))
            assert beta.shape == ref_beta.shape and y.shape == ref_y.shape
            np.testing.assert_array_equal(self.bits(beta), self.bits(ref_beta))
            np.testing.assert_array_equal(self.bits(y), self.bits(ref_y))
        y = core.dissolve(h, s, None)[1]
        assert np.all(y[cancel, 0] == 0.0) and not np.any(np.signbit(y[cancel, 0]))

    def test_no_interference_divides_by_nothing(self):
        """Only the form with interference divides by h_b s_b, and only it raises on 0."""
        beta, y = core.dissolve(np.array([2.0, 1.0]), np.array([1.0, 0.0]), None)
        assert beta == 1.0 and list(y) == [2.0, -2.0]
        with pytest.raises(ValueError):
            core.dissolve(np.array([2.0, 1.0]), np.array([1.0, 0.0]), 0.0)


class TestPairing:
    def test_even_pairs(self):
        assert core.pair_members(4, 1) == (0, 1)
        assert core.pair_members(4, 2) == (2, 3)

    def test_odd_final_pair_reuses_first_symbol(self):
        assert core.pair_members(5, 3) == (4, 0)

    def test_channel_uses(self):
        assert core.channel_uses(2) == 2
        assert core.channel_uses(4) == 3
        assert core.channel_uses(5) == 4

    def test_rate_approaches_two_symbols_per_use(self):
        k = 1000
        assert k / core.channel_uses(k) > 1.99

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            core.pair_members(4, 3)

    @pytest.mark.parametrize("k", range(2, 15))
    def test_out_of_pair_sum_is_np_sum_bit_for_bit(self, k):
        """For 0 to 12 columns outside the pair the sum equals ``np.sum`` over
        them to the last bit and in the sign of
        zero, on values spread over 60 orders of magnitude with signed
        zeros among them; a single channel (K,) gives its 0-d sum."""
        rng = RNG(83, k)
        x = rng.normal(size=(4096, k)) * 10.0 ** rng.uniform(-30, 30, size=(4096, k))
        x[rng.random(x.shape) < 0.1] = -0.0
        x[:8] = -0.0
        for m in range(1, core.num_pairs(k) + 1):
            mask = np.ones(k, dtype=bool)
            mask[list(core.pair_members(k, m))] = False
            got = core.out_of_pair_sum(x, m)
            assert got.shape == (4096,)
            np.testing.assert_array_equal(got.view(np.int64), np.sum(x[:, mask], axis=-1).view(np.int64))
            assert np.float64(core.out_of_pair_sum(x[9], m)).view(np.int64) == np.sum(x[9, mask]).view(np.int64)


class TestCandidatePairs:
    @pytest.mark.parametrize("q_s", [1, 2, 8, 90])
    def test_antipodal(self, q_s):
        """cands[C-1-i] == -cands[i], the fold ``argmin_metric`` relies on."""
        cands = core.candidate_pairs(model.constellation_for_power(3.0, q_s))
        np.testing.assert_array_equal(cands[::-1], -cands)

    @pytest.mark.parametrize("q_s", [1, 2, 8, 90])
    def test_layout_is_the_meshgrid_column_stack(self, q_s):
        """First member major, alphabet ascending: row i * 2 q_s + j is
        (points[i], points[j]), bit for bit."""
        const = model.constellation_for_power(3.0, q_s)
        sa, sb = np.meshgrid(const.points, const.points, indexing="ij")
        cands = core.candidate_pairs(const)
        np.testing.assert_array_equal(cands, np.column_stack([sa.ravel(), sb.ravel()]))
        assert cands.flags.c_contiguous

    def test_budget_is_one_block(self):
        """Half-size 90 gives 32400 pairs, within one block of 32768 values;
        91 would give 33124 and raises before building them."""
        assert core.MAX_HALF_SIZE == 90
        cands = core.candidate_pairs(model.PamConstellation(1.0, 90))
        assert cands.shape == (32400, 2) and len(cands) <= core.BLOCK_VALUES
        for q_s in (91, 200):
            with pytest.raises(ValueError, match="at most 90"):
                core.candidate_pairs(model.PamConstellation(1.0, q_s))


@settings(max_examples=60)
@given(total=st.integers(0, 10**5), chunk=st.integers(1, 10**4))
def test_chunk_sizes_cover_total(total, chunk):
    """Full chunks, then one partial chunk if the total leaves a remainder."""
    sizes = list(core.chunk_sizes(total, chunk))
    assert sum(sizes) == total and len(sizes) == -(-total // chunk)
    assert all(n == chunk for n in sizes[:-1]) and all(0 < n <= chunk for n in sizes)


class TestTransmitPair:
    def test_noiseless_two_symbols(self):
        assert tuple(observe([1.0, 1.0], [1.0, 1.0])[1]) == (2.0, 0.0)

    def test_residual_orthogonal_to_pair_vector(self):
        """Noiseless y - v(true) has no component along v(true)."""
        _, h, s = random_frames(7, 5, 50, p=2.0, q_s=3)
        _, y = core.frame_observe(h, s)
        for m in (1, 2):
            ab = list(core.pair_members(5, m))
            y_pair = y[:, [0, m]]
            v = h[:, ab] * s[:, ab]
            scale = np.sum(np.abs(y_pair), axis=1) * np.linalg.norm(v, axis=1)
            assert np.all(np.abs(np.sum((y_pair - v) * v, axis=1)) <= 1e-10 * scale)

    def test_noise_variance(self):
        """The sweeps' pair observations carry AWGN of unit variance."""
        cfg = harness.ExperimentConfig("ser")
        const = model.constellation_for_power(1.0, 2)
        h, _, s, _, y = harness._id_frame_batch(cfg, const, 50_000, RNG(3))
        noise = y - core.frame_observe(h, s)[1]
        np.testing.assert_allclose(np.var(noise, axis=0), [1.0, 1.0], rtol=0.05)


class TestOrthogonality:
    def test_exact_for_all_alphabet_pairs(self):
        """<v, v_perp> is exactly zero when the two identical products are
        rounded before the subtraction (BLAS dot may keep an FMA residual)."""
        rng = RNG(11)
        const = model.constellation_for_power(1.0, 4)
        h = rng.normal(size=2)
        for sa in const.points:
            for sb in const.points:
                va, vb = h[0] * sa, h[1] * sb
                assert va * vb + vb * (-va) == 0.0


class TestWeight:
    def test_true_pair_noiseless_zero(self):
        _, h, s = random_frames(13, 4, 1)
        _, y = core.frame_observe(h, s)
        w = core.weight_matrix(y[:, :2], h[:, :2], s[:, :2])
        assert w[0, 0] <= 1e-10 * np.sum(np.abs(y[0, :2]))

    def test_hand_computed(self):
        """k=3, unit gains, s=(1,2,2): y=(5,0) and w(2,1) = sqrt(5)."""
        _, y = observe([1.0, 1.0, 1.0], [1.0, 2.0, 2.0])
        assert (y[0], y[1]) == (5.0, 0.0)
        w = core.weight_matrix(y[None, :2], np.ones((1, 2)), np.array([[2.0, 1.0]]))
        assert w[0, 0] == pytest.approx(np.sqrt(5.0), rel=1e-12)

    def test_expansion_identity(self):
        """w agrees with the explicit residual expansion for any candidate."""
        const, h, s = random_frames(17, 4, 1, p=1.5)
        h, s = h[0], s[0]
        beta, y = observe(h, s)
        v_t = h[:2] * s[:2]
        vperp_t = np.array([v_t[1], -v_t[0]])
        pts = const.points
        cands = np.array([(pts[0], pts[3]), (pts[2], pts[1]), (pts[1], pts[1])])
        w = core.weight_matrix(y[None, :2], h[None, :2], cands)[0]
        for cand, got in zip(cands, w):
            v_c = h[:2] * cand
            expected = abs((v_t - v_c + beta[0] * vperp_t) @ v_c) / np.linalg.norm(v_c)
            assert got == pytest.approx(expected, rel=1e-10)


    def test_grid_matches_matrix_and_scalar(self):
        rng = RNG(19)
        const = model.constellation_for_power(1.0, 3)
        cands = core.candidate_pairs(const)
        h = rng.normal(size=(6, 2))
        y = rng.normal(size=(6, 5, 2))
        grid = core.weight_matrix(y, h[:, None, :], cands)
        for t in range(5):
            np.testing.assert_allclose(
                grid[:, t, :], core.weight_matrix(y[:, t, :], h, cands), rtol=1e-9, atol=1e-12
            )


class TestWeightIsGlrt:
    """The weight rule is a GLRT: {v, v_perp} / ||v|| is an orthonormal basis,
    so weight^2 = min over beta of ||y - v - beta v_perp||^2, the likelihood
    metric with the dissolution factor an unknown real parameter."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        q_s=st.sampled_from([1, 2, 8]),
        snr_db=st.floats(0.0, 60.0),
        k=st.sampled_from([2, 3, 4]),
    )
    def test_weight_squared_is_min_over_beta(self, seed, q_s, snr_db, k):
        """Against the least-squares beta on the (n, C, 2) candidate vectors:
        values agree to 32 eps of the signal scale (||y|| + ||v||)^2, and every
        argmin is equal."""
        n = 64
        const, h, s = random_frames(seed, k, n, p=10.0 ** (snr_db / 10.0), q_s=q_s)
        cands = core.candidate_pairs(const)
        y = core.frame_observe(h, s)[1][:, :2] + RNG(seed, 1).normal(size=(n, 2))
        h_pair = h[:, :2]
        v = h_pair[:, None, :] * cands
        v_perp = np.stack([v[..., 1], -v[..., 0]], axis=-1)
        d = y[:, None, :] - v
        beta = np.sum(d * v_perp, axis=-1) / np.sum(v_perp * v_perp, axis=-1)
        glrt = np.sum((d - beta[..., None] * v_perp) ** 2, axis=-1)
        w2 = core.weight_matrix(y, h_pair, cands) ** 2
        scale = (np.linalg.norm(y, axis=1)[:, None] + np.linalg.norm(v, axis=-1)) ** 2
        assert np.all(np.abs(w2 - glrt) <= 32 * np.finfo(float).eps * scale)
        np.testing.assert_array_equal(np.argmin(w2, axis=1), np.argmin(glrt, axis=1))


# Reference kernels: the pair metrics written directly over the (n, C, 2)
# candidate vectors v = h_pair * cand, as the matrix-product kernels in core
# must reproduce them.
def _direct_weight(y, h_pair, cands):
    v = h_pair[..., None, :] * cands
    d = y[..., None, :] - v
    return np.abs(np.sum(d * v, axis=-1)) / np.sqrt(np.sum(v * v, axis=-1))


def _direct_ml(y, h_pair, cands, interference_power):
    v = h_pair[..., None, :] * cands
    d = y[..., None, :] - v
    vperp = np.stack([v[..., 1], -v[..., 0]], axis=-1)
    eta2 = interference_power[..., None] / (h_pair[..., None, 1] * cands[:, 1]) ** 2
    d_sq = np.sum(d * d, axis=-1)
    proj = np.sum(d * vperp, axis=-1)
    denom = 1.0 + eta2 * np.sum(v * v, axis=-1)
    return d_sq - np.divide(eta2 * proj**2, denom, out=np.zeros_like(d_sq), where=denom > 0)


def _direct_known_beta(y, h_pair, cands, beta):
    v = h_pair[..., None, :] * cands
    b = np.asarray(beta)[..., None]
    z = np.stack([v[..., 0] + b * v[..., 1], v[..., 1] - b * v[..., 0]], axis=-1)
    return np.sum((y[..., None, :] - z) ** 2, axis=-1)


class TestMatrixProductKernels:
    """The core kernels against the direct formulas above, on noisy frames.

    Each kernel value is a few roundings of terms no larger than the signal
    energy ||y||^2 + ||v||^2, which grows as P; the weight divides that by
    ||v||. Values must agree to 32 eps times that scale (the largest
    deviation seen is about 6 eps), and every argmin must be equal.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        q_s=st.sampled_from([1, 2, 8]),
        snr_db=st.floats(0.0, 60.0),
        k=st.sampled_from([2, 3, 4]),
    )
    def test_match_direct_formulas(self, seed, q_s, snr_db, k):
        rng = RNG(seed)
        p, n = 10.0 ** (snr_db / 10.0), 64
        const = model.constellation_for_power(p, q_s)
        cands = core.candidate_pairs(const)
        h, _ = model.draw_channels(k, k, n, rng)
        s = const.draw(rng, size=(n, k))
        beta = 1.0 + np.sum(h[:, 2:] * s[:, 2:], axis=1) / (h[:, 1] * s[:, 1])
        y = np.stack([np.sum(h * s, axis=1), h[:, 1] * s[:, 1] - beta * h[:, 0] * s[:, 0]], axis=-1)
        y += rng.normal(size=(n, 2))
        h_pair = h[:, :2]
        ipow = p * np.sum(h[:, 2:] ** 2, axis=1)
        y_sq = np.sum(y * y, axis=1)[:, None]
        v_sq = np.sum((h_pair[:, None, :] * cands) ** 2, axis=-1)
        tol = 32 * np.finfo(float).eps
        cases = [
            (core.weight_matrix(y, h_pair, cands), _direct_weight(y, h_pair, cands),
             (y_sq + v_sq) / np.sqrt(v_sq)),
            (core.ml_metric_matrix(y, h_pair, cands, ipow), _direct_ml(y, h_pair, cands, ipow),
             y_sq + v_sq),
        ]
        for fast, direct, scale in cases:
            assert fast.shape == direct.shape == (n, cands.shape[0])
            assert np.all(np.abs(fast - direct) <= tol * scale)
            np.testing.assert_array_equal(np.argmin(fast, axis=1), np.argmin(direct, axis=1))


class TestArgminMetric:
    """The blocked argmin equals the row-wise argmin of the whole matrix."""

    @pytest.mark.parametrize("q_s", [1, 8, 32])
    def test_matches_whole_matrix(self, q_s):
        rng = RNG(q_s)
        p, n = 100.0, 1000
        cands = core.candidate_pairs(model.constellation_for_power(p, q_s))
        h, _ = model.draw_channels(4, 4, n, rng)
        h_pair = h[:, :2]
        y = rng.normal(scale=np.sqrt(p), size=(n, 2))
        ipow = p * np.sum(h[:, 2:] ** 2, axis=1)
        for metric, args in [
            (core.weight_matrix, ()),
            (core.ml_metric_matrix, (ipow,)),
        ]:
            np.testing.assert_array_equal(
                core.argmin_metric(metric, y, h_pair, cands, *args),
                np.argmin(metric(y, h_pair, cands, *args), axis=1),
            )

    @pytest.mark.parametrize(
        "block_values,n", [(7 * 256 + 3, 100), (16 * 256, 1000), (7, 5), (1 << 20, 10), (1 << 15, 1), (1 << 20, 5000)]
    )
    def test_reused_buffers(self, monkeypatch, block_values, n):
        """Every block writes into the same (rows, C/2) buffers, the last one
        passed as ``fold``: a partial last block into their leading rows, and
        rows > n into buffers of n rows. A second call writes into the
        first call's buffers, and every block of a call shares one ``memo``,
        which holds one set of candidate operands."""
        monkeypatch.setattr(core, "BLOCK_VALUES", block_values)
        rng = RNG(n)
        p = 100.0
        cands = core.candidate_pairs(model.constellation_for_power(p, 8))
        h, _ = model.draw_channels(4, 4, n, rng)
        h_pair = h[:, :2]
        y = rng.normal(scale=np.sqrt(p), size=(n, 2))
        ipow = p * np.sum(h[:, 2:] ** 2, axis=1)
        half = len(cands) // 2
        rows = max(1, min(n, core.BLOCK_ROWS, block_values // half))
        for metric, args in [
            (core.weight_matrix, ()),
            (core.ml_metric_matrix, (ipow,)),
        ]:
            calls = []
            for _ in range(2):
                outs, memos = [], []

                def recording(*a, out, fold, memo):
                    outs.append([*out, fold])
                    memos.append(memo)
                    res = metric(*a, out=out, fold=fold, memo=memo)
                    assert res is out[0]
                    return res

                np.testing.assert_array_equal(
                    core.argmin_metric(recording, y, h_pair, cands, *args),
                    np.argmin(metric(y, h_pair, cands, *args), axis=1),
                )
                assert len(outs) == -(-n // rows)
                assert [len(o[0]) for o in outs] == [min(rows, n - lo) for lo in range(0, n, rows)]
                assert all(memo is memos[0] for memo in memos) and len(memos[0]) == 1
                for out in outs:
                    assert len(out) == core.METRIC_BUFFERS
                    for buf, first in zip(out, outs[0]):
                        assert buf.shape[1] == half
                        assert buf.__array_interface__["data"] == first.__array_interface__["data"]
                calls.append(outs[0])
            for buf, first in zip(*calls):
                assert buf.__array_interface__["data"] == first.__array_interface__["data"]

    def test_two_candidate_half_is_np_argmin_ties_included(self):
        """At q_s = 1 the back half holds two candidates, decided by one strict
        comparison: the argmin equals ``np.argmin`` of the folded scores, and
        a row with equal scores, +0.0 against -0.0 and inf against inf
        among them, takes index 0, then the fold sign's member."""
        rng = RNG(79)
        n = 5000
        cands = core.candidate_pairs(model.constellation_for_power(1.0, 1))
        scores = rng.choice([-0.0, 0.0, 1.0, 2.0, np.inf], size=(n, 2))
        odd = rng.normal(size=(n, 2))

        def metric(y, h_pair, back, rows, out, fold, memo):
            fold[:] = odd[rows]
            out[0][:] = scores[rows]
            return out[0]

        j = np.argmin(scores, axis=1)
        tied = scores[:, 0] == scores[:, 1]
        assert 0.2 < np.mean(tied) < 0.5 and np.all(j[tied] == 0)
        got = core.argmin_metric(metric, np.zeros((n, 2)), np.ones((n, 2)), cands, np.arange(n))
        np.testing.assert_array_equal(got, np.where(odd[np.arange(n), j] > 0, 2 + j, 1 - j))

    def test_fold_scores_the_better_of_each_antipodal_pair(self):
        """Given ``fold``, a kernel scores the back half with the smaller value
        of cand and -cand, and the sign of the odd part it writes there names
        the better one."""
        rng = RNG(43)
        p, n = 100.0, 200
        cands = core.candidate_pairs(model.constellation_for_power(p, 8))
        half = len(cands) // 2
        h, _ = model.draw_channels(4, 4, n, rng)
        h_pair = h[:, :2]
        y = rng.normal(scale=np.sqrt(p), size=(n, 2))
        ipow = p * np.sum(h[:, 2:] ** 2, axis=1)
        for metric, args in [
            (core.weight_matrix, ()),
            (core.ml_metric_matrix, (ipow,)),
        ]:
            full = metric(y, h_pair, cands, *args)
            back, front = full[:, half:], full[:, half - 1 :: -1]
            fold = np.empty((n, half))
            folded = metric(y, h_pair, cands[half:], *args, fold=fold)
            np.testing.assert_allclose(folded, np.minimum(back, front), rtol=1e-12, atol=1e-9)
            np.testing.assert_allclose(folded, np.where(fold > 0, back, front), rtol=1e-12, atol=1e-9)


def _decoder_inputs(seed, k, n, q_s, one_gain=False):
    """Alphabet at 20 dB and noisy pair-1 observations y (n, 2) of n frames
    with gains h (n, K); with ``one_gain`` the pair rides one gain."""
    const, h, s = random_frames(seed, k, n, p=100.0, q_s=q_s)
    if one_gain:
        h[:, 1] = h[:, 0]
    _, y = core.frame_observe(h, s)
    y += RNG(seed, 1).normal(size=y.shape)
    return const, np.ascontiguousarray(y[:, :2]), h


class TestBlockBuffers:
    """``argmin_metric``'s block buffers are one scratch array per thread,
    kept between calls."""

    @pytest.mark.parametrize(
        "decoder,k,q_s,one_gain",
        [
            pytest.param(core.WEIGHT, 2, 22, False, id="weight-2-22"),
            pytest.param(core.ML, 4, 8, False, id="ml-4-8"),
            pytest.param(core.ML, 4, 8, True, id="ml-4-8-one-gain"),
        ],
    )
    def test_threads_decoding_at_once_match_sequential_calls(self, decoder, k, q_s, one_gain):
        """Two threads decode different frames at once, each several times,
        with a short switch interval: each gets its sequential decisions."""
        repeats = 4
        inputs = [_decoder_inputs(61 + t, k, 2048, q_s, one_gain) for t in range(2)]
        expected = [core.pair_decode(y, h, 1, const, decoder) for const, y, h in inputs]
        results = [[], []]
        barrier = threading.Barrier(2)

        def decode(t):
            const, y, h = inputs[t]
            barrier.wait(timeout=60)
            for _ in range(repeats):
                results[t].append(core.pair_decode(y, h, 1, const, decoder))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=decode, args=(t,)) for t in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, expected):
            assert len(got) == repeats
            for decisions in got:
                np.testing.assert_array_equal(decisions, want)

    @pytest.mark.parametrize(
        "decoder,k,one_gain",
        [
            pytest.param(core.WEIGHT, 2, False, id="False"),
            pytest.param(core.WEIGHT, 2, True, id="True"),
            pytest.param(core.ML, 4, True, id="ml-True"),
        ],
    )
    def test_repeat_decode_allocates_no_block_buffer(self, decoder, k, one_gain):
        """A second ``pair_decode`` of 2048 rows at q_s = 22 reuses the first
        call's buffers: its peak allocation stays under one (rows, C/2) block
        buffer, 255.5 KiB, where four were allocated per call before."""
        const, y, h = _decoder_inputs(67, k, 2048, 22, one_gain)
        core.pair_decode(y, h, 1, const, decoder)
        half = (2 * const.q_s) ** 2 // 2
        tracemalloc.start()
        try:
            core.pair_decode(y, h, 1, const, decoder)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < core.BLOCK_VALUES // half * half * 8


def test_block_budget_is_read_only_in_core():
    """The block and candidate budgets belong to ``core``: no other module
    names the budget constants, the scratch array or ``check_half_size``,
    and the harness takes its decoded alphabets from ``core.alphabet``."""
    names = re.compile(r"\b(BLOCK_VALUES|BLOCK_ROWS|METRIC_BUFFERS|check_half_size|_scratch)\b")
    modules = {path.name: path.read_text() for path in Path(core.__file__).parent.glob("*.py")}
    assert set(names.findall(modules.pop("core.py"))) == {
        "BLOCK_VALUES", "BLOCK_ROWS", "METRIC_BUFFERS", "check_half_size", "_scratch"
    }
    assert "harness.py" in modules and "analysis.py" in modules
    assert {name: names.findall(text) for name, text in modules.items() if names.search(text)} == {}
    assert not hasattr(harness, "_alphabet")


def test_unit_noise_is_drawn_only_with_standard_normal():
    """Unit-variance noise is ``rng.standard_normal``. numpy's ``normal(0.0,
    1.0, n)`` is 0.0 + 1.0 * z over the same ``standard_normal`` stream, one
    more pass, and equal to z but for z = -0.0 (about 2^-54 per draw), which
    it makes +0.0: added to a nonzero observation, either gives the same
    bits. No module or demo calls ``.normal(``, and the sweeps' noise draws,
    in ``harness``, ``multicast`` and ``analysis._pair_error_rate``, use
    ``standard_normal``."""
    from idsim import analysis

    demos = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
    assert demos
    modules = {path.name: path.read_text() for path in Path(core.__file__).parent.glob("*.py")}
    assert "harness.py" in modules and "multicast.py" in modules
    texts = {**modules, **{f"demos/{path.name}": path.read_text() for path in demos}}
    assert {name: text.count(".normal(") for name, text in texts.items() if ".normal(" in text} == {}
    for text in (modules["harness.py"], modules["multicast.py"], inspect.getsource(analysis._pair_error_rate)):
        assert "rng.standard_normal(" in text


def test_decoder_names_are_spelled_only_in_core():
    """The decoding rules are named once, ``core.WEIGHT`` and ``core.ML``:
    every other module refers to those constants."""
    names = re.compile(r"""["'](weight|ml)["']""")
    modules = {path.name: path.read_text() for path in Path(core.__file__).parent.glob("*.py")}
    assert set(names.findall(modules.pop("core.py"))) == {"weight", "ml"}
    assert "cli.py" in modules and "harness.py" in modules
    assert {name: names.findall(text) for name, text in modules.items() if names.search(text)} == {}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    q_s=st.sampled_from([1, 2, 8, 22]),
    k=st.sampled_from([2, 3, 4]),
    snr_db=st.floats(0.0, 60.0),
)
def test_pair_decode_is_the_unfolded_argmin(seed, q_s, k, snr_db):
    """The folded decoder picks the row-wise argmin of the unfolded metric over
    all C candidates, for the weight and full-covariance rules; at K = 2 the
    ml decisions are the argmin of the direct known-beta metric. The
    likelihood's interferers have the alphabet's power."""
    rng = RNG(seed)
    p, n = 10.0 ** (snr_db / 10.0), 64
    const = model.constellation_for_power(p, q_s)
    cands = core.candidate_pairs(const)
    h, _ = model.draw_channels(k, k, n, rng)
    _, y = core.frame_observe(h, const.draw(rng, size=(n, k)))
    y += rng.normal(0.0, 1.0, size=y.shape)
    for m in range(1, core.num_pairs(k) + 1):
        y_m, h_pair = y[:, [0, m]], h[:, list(core.pair_members(k, m))]
        ipow = const.power * core.out_of_pair_sum(h**2, m)
        ml = (
            _direct_known_beta(y_m, h_pair, cands, 1.0)
            if k == 2
            else core.ml_metric_matrix(y_m, h_pair, cands, ipow)
        )
        for decoder, full in [(core.WEIGHT, core.weight_matrix(y_m, h_pair, cands)), (core.ML, ml)]:
            np.testing.assert_array_equal(
                core.pair_decode(y_m, h, m, const, decoder), cands[np.argmin(full, axis=1)]
            )


def _record_gain_columns(monkeypatch) -> list:
    """Wrap ``core.weight_matrix`` and ``core.ml_metric_matrix`` to record
    the gain columns of every call."""
    seen = []

    def recorder(metric):
        def recording(y, h_pair, cands, *args, **kwargs):
            seen.append(h_pair.shape[-1])
            return metric(y, h_pair, cands, *args, **kwargs)

        return recording

    for name in ("weight_matrix", "ml_metric_matrix"):
        monkeypatch.setattr(core, name, recorder(getattr(core, name)))
    return seen


class TestOneGainWeight:
    """h_pair of shape (n, 1): both symbols ride the gain h, and the kernel
    scores the weights divided by |h|, with the sign of the two-gain odd
    part in ``fold``."""

    @pytest.mark.parametrize("q_s", [1, 8, 32])
    def test_is_the_two_gain_weight_over_abs_h(self, q_s):
        """Unfolded, and folded with and without ``out``: values agree to
        rtol 1e-9 (plus 32 eps of the scale ||y|| / |h| + ||c|| where a value
        nears zero), and the fold signs are equal."""
        rng = RNG(47, q_s)
        p, n = 100.0, 300
        const = model.constellation_for_power(p, q_s)
        cands = core.candidate_pairs(const)
        half = len(cands) // 2
        h = model._signed_rayleigh(rng, n)
        assert np.any(h < 0) and np.any(h > 0)
        h_two = np.stack([h, h], axis=-1)
        _, y = core.dissolve(h_two, const.draw(rng, size=(n, 2)), rng.normal(scale=np.sqrt(p), size=n))
        y += rng.normal(size=(n, 2))
        abs_h = np.abs(h)[:, None]

        def assert_scaled(one, two, c):
            scale = np.linalg.norm(y, axis=1)[:, None] / abs_h + np.hypot(c[:, 0], c[:, 1])
            assert np.all(np.abs(one - two / abs_h) <= 1e-9 * np.abs(two / abs_h) + 32 * np.finfo(float).eps * scale)

        assert_scaled(core.weight_matrix(y, h[:, None], cands), core.weight_matrix(y, h_two, cands), cands)
        back = cands[half:]
        for with_out in (False, True):
            folds = [np.empty((n, half)) for _ in range(2)]
            res = []
            for h_pair, fold in zip((h[:, None], h_two), folds):
                out = [np.empty((n, half)) for _ in range(2)] if with_out else None
                res.append(core.weight_matrix(y, h_pair, back, out=out, fold=fold))
                if with_out:
                    assert res[-1] is out[0]
            assert_scaled(*res, back)
            np.testing.assert_array_equal(np.sign(folds[0]), np.sign(folds[1]))

    @pytest.mark.parametrize("n", [2, 67, 100])  # 100 rows of C/2 = 128 exceed one norm tile
    @pytest.mark.parametrize("view", [lambda a, c: a[:, : c], lambda a, c: a[:, ::2]], ids=["padded", "every_other"])
    def test_non_contiguous_buffers_keep_their_bits(self, n, view):
        """Views into wider arrays as ``out`` and ``fold``: the values and the
        fold equal the contiguous call's bit for bit. Padded rows cannot be
        regrouped into whole rows without a copy, so the norms must be
        subtracted in place, not from a copy."""
        rng = RNG(61, n)
        cands = core.candidate_pairs(core.alphabet(300.0, 8))
        back = cands[len(cands) // 2:]
        h = model._signed_rayleigh(rng, (n, 1))
        y = h * rng.normal(scale=np.sqrt(300.0), size=(n, 2)) + rng.normal(size=(n, 2))
        for cs in (cands, back):
            buffer = lambda: view(np.empty((n, 2 * len(cs))), len(cs))  # noqa: E731
            fold, fold_view = (None, None) if cs is cands else (np.empty((n, len(cs))), buffer())
            want = core.weight_matrix(y, h, cs, out=[np.empty((n, len(cs))) for _ in range(2)], fold=fold)
            out = [buffer(), buffer()]
            got = core.weight_matrix(y, h, cs, out=out, fold=fold_view)
            assert got is out[0] and not got.flags.c_contiguous
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            if fold is not None:
                np.testing.assert_array_equal(fold_view.view(np.int64), fold.view(np.int64))

    @pytest.mark.parametrize(
        "experiment,kw,widths",
        [
            ("multicast", {}, {1}),
            ("dof", {"k": 4}, {1}),
            ("ser", {"k": 4}, {1}),
            ("ser", {"k": 2}, {2}),
            ("ser", {"k": 4, "decoder": core.ML}, {1}),
            ("ser", {"k": 3, "decoder": core.ML}, {2}),
        ],
    )
    def test_taken_by_the_sweeps_whose_pair_shares_a_gain(self, experiment, kw, widths, monkeypatch):
        """The multicast receivers, the dof prober and ``ser`` at K = 4 (the
        block antenna map puts pair 1 on one antenna) decode with one gain
        column, with the weight and with the likelihood; ``ser`` at K = 2
        and K = 3 keeps two."""
        seen = _record_gain_columns(monkeypatch)
        monkeypatch.setattr(harness, "usable_cores", lambda: 1)
        cfg = harness.ExperimentConfig(experiment=experiment, zeta_db_grid=np.array([10.0, 20.0]),
                                       trials=500, seed=5, **kw)
        harness.run_experiment(cfg)
        assert set(seen) == widths

    def test_taken_exactly_when_the_two_columns_are_equal(self, monkeypatch):
        """Pair 1's columns equal in every row give one column; columns equal
        up to sign, different, or different in one row only keep two."""
        seen = _record_gain_columns(monkeypatch)
        const, h, s = random_frames(53, 4, 50)
        h[:, 1] = h[:, 0]
        _, y = core.frame_observe(h, s)
        for hh, width in [(h, 1), (h[:, [0, 0, 2, 3]] * [1.0, -1.0, 1.0, 1.0], 2), (h[:, [1, 2, 2, 3]], 2)]:
            seen.clear()
            core.pair_decode(y[:, :2], hh, 1, const)
            assert set(seen) == {width}
        h[7, 1] += 1e-12
        seen.clear()
        core.pair_decode(y[:, :2], h, 1, const)
        assert set(seen) == {2}


class TestOneGainLikelihood:
    """h_pair of shape (n, 1): with u = y / h the kernel scores the
    likelihood divided by h^2 minus ||u||^2, with the sign of the two-gain
    odd part in ``fold``."""

    @pytest.mark.parametrize("q_s", [1, 8, 32])
    def test_is_the_two_gain_metric_over_h_squared_less_u_squared(self, q_s):
        """Unfolded, and folded with and without ``out``: values agree to
        1e-12 of the scale ||u||^2 + ||c||^2, and the fold signs are equal."""
        rng = RNG(73, q_s)
        p, n = 100.0, 300
        const = model.constellation_for_power(p, q_s)
        cands = core.candidate_pairs(const)
        half = len(cands) // 2
        h = model._signed_rayleigh(rng, n)
        assert np.any(h < 0) and np.any(h > 0)
        h_two = np.stack([h, h], axis=-1)
        ipow = p * model._signed_rayleigh(rng, n) ** 2
        _, y = core.dissolve(h_two, const.draw(rng, size=(n, 2)), rng.normal(scale=np.sqrt(ipow)))
        y += rng.normal(size=(n, 2))
        u_sq = np.sum((y / h[:, None]) ** 2, axis=1)[:, None]

        def assert_shifted(one, two, c):
            scale = u_sq + np.sum(c * c, axis=1)
            assert np.all(np.abs(one - (two / (h * h)[:, None] - u_sq)) <= 1e-12 * scale)

        metric = core.ml_metric_matrix
        assert_shifted(metric(y, h[:, None], cands, ipow), metric(y, h_two, cands, ipow), cands)
        back = cands[half:]
        for with_out in (False, True):
            folds = [np.empty((n, half)) for _ in range(2)]
            res = []
            for h_pair, fold in zip((h[:, None], h_two), folds):
                out = [np.empty((n, half)) for _ in range(3)] if with_out else None
                res.append(metric(y, h_pair, back, ipow, out=out, fold=fold))
                if with_out:
                    assert res[-1] is out[0]
            assert_shifted(*res, back)
            np.testing.assert_array_equal(np.sign(folds[0]), np.sign(folds[1]))


# Reference one-gain kernels: the weight and likelihood of the earlier code,
# one (C,) norm row broadcast over the block and the (C/2, 2) candidates'
# transposed view as the product's operand. The core kernels must keep their
# values bit for bit.
def _reference_one_gain_weight(y, h_pair, cands, out=None, fold=None, memo=None):
    norms = np.hypot(cands[:, 0], cands[:, 1])
    units = cands / norms[:, None]
    odd = np.matmul(y / h_pair, units.T, out=fold)
    w = odd if fold is None else np.abs(odd)
    w -= norms
    return np.abs(w, out=w)


def _reference_one_gain_ml(y, h_pair, cands, interference_power, out=None, fold=None, memo=None):
    ipow = np.asarray(interference_power, dtype=float)
    c_sq = cands * cands
    norm_sq = c_sq[:, 0] + c_sq[:, 1]
    c_rot = cands[:, ::-1] * [1.0, -1.0]
    y_rot = y / h_pair
    odd = np.matmul(2.0 * y_rot, cands.T, out=fold)
    d_sq = norm_sq - (odd if fold is None else np.abs(odd))
    proj = np.matmul(np.sqrt(ipow)[..., None] * y_rot, c_rot.T)
    proj *= proj
    proj /= np.matmul(np.stack([ipow, 1.0 + ipow], axis=-1), c_sq.T)
    d_sq -= proj
    return d_sq


class TestOneGainBlocksKeepTheirBits:
    """The one-gain kernels, scored in ``argmin_metric``'s blocks with a tiled
    norm row and a C-contiguous operand, equal the reference formulas above
    bit for bit: every block's values and fold signs, and the indices. A
    one-row block, which numpy scores with a matrix-vector routine, is
    covered by n = 1 and by every n = rows + 1."""

    @pytest.mark.parametrize("q_s", [1, 3, 8, 13, 22])  # C/2 = 2, 18, 128, 338, 968
    def test_blocks_and_indices(self, q_s):
        const = core.alphabet(300.0, q_s)
        cands = core.candidate_pairs(const)
        half = len(cands) // 2
        rows = max(1, min(core.BLOCK_ROWS, core.BLOCK_VALUES // half))
        sizes = sorted({1, 2, 3, rows - 1, rows, rows + 1, 2 * rows + 1, 8192, 8193} - {0})
        for n in sizes:
            rng = RNG(89, q_s, n)
            h = model._signed_rayleigh(rng, (n, 1))
            y = h * rng.normal(scale=np.sqrt(300.0), size=(n, 2)) + rng.normal(size=(n, 2))
            ipow = 300.0 * model._signed_rayleigh(rng, n) ** 2
            for metric, reference, args in [
                (core.weight_matrix, _reference_one_gain_weight, ()),
                (core.ml_metric_matrix, _reference_one_gain_ml, (ipow,)),
            ]:
                blocks = []

                def checking(y_b, h_b, back, *a, out, fold, memo):
                    got = metric(y_b, h_b, back, *a, out=out, fold=fold, memo=memo)
                    ref_fold = np.empty_like(fold)
                    want = reference(y_b, h_b, back, *a, fold=ref_fold)
                    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
                    np.testing.assert_array_equal(fold.view(np.int64), ref_fold.view(np.int64))
                    blocks.append(len(y_b))
                    return got

                got = core.argmin_metric(checking, y, h, cands, *args)
                np.testing.assert_array_equal(got, core.argmin_metric(reference, y, h, cands, *args))
                assert blocks == [min(rows, n - lo) for lo in range(0, n, rows)]

    def test_direct_calls(self):
        """Called without ``out``, ``fold`` or ``memo``, on one row, on many,
        and on a grid of observations per channel, the kernels return the
        reference values bit for bit."""
        const = core.alphabet(100.0, 8)
        cands = core.candidate_pairs(const)
        rng = RNG(97)
        for shape in [(1,), (7,), (5, 3)]:
            h = model._signed_rayleigh(rng, shape + (1,))
            y = rng.normal(scale=10.0, size=shape + (2,))
            ipow = 100.0 * rng.random(shape)
            for got, want in [
                (core.weight_matrix(y, h, cands), _reference_one_gain_weight(y, h, cands)),
                (core.ml_metric_matrix(y, h, cands, ipow), _reference_one_gain_ml(y, h, cands, ipow)),
            ]:
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("q_s", [1, 8, 22])
    def test_memory_grows_only_by_the_outputs(self, q_s):
        """The peak allocation of one-gain ``pair_decode`` grows from 8192 to
        32768 rows by at most its per-row outputs: the indices (intp), the
        fold signs (a float and a bool) and the (n, 2) decisions. No (n, C/2)
        array and no row-side operand of the whole call is held."""
        const = core.alphabet(100.0, q_s)
        peaks = []
        for n in (8192, 32768):
            rng = RNG(101, n)
            h = np.repeat(model._signed_rayleigh(rng, (n, 1)), 2, axis=1)
            y = rng.normal(scale=10.0, size=(n, 2))
            core.pair_decode(y, h, 1, const)
            tracemalloc.start()
            try:
                core.pair_decode(y, h, 1, const)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_row = np.dtype(np.intp).itemsize + 8 + 1 + 2 * 8
        assert peaks[1] - peaks[0] <= per_row * (32768 - 8192)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    q_s=st.sampled_from([1, 2, 8, 22, 90]),
    k=st.sampled_from([2, 4, 5]),
    snr_db=st.floats(0.0, 60.0),
)
def test_one_gain_pair_decode_is_the_unfolded_two_gain_argmin(seed, q_s, k, snr_db):
    """With equal gains on pair 1, ``pair_decode`` (the one-gain form) picks
    the row-wise argmin of the unfolded two-gain weight over all C
    candidates, on every row whose best two candidates are apart by more
    than rounding."""
    rng = RNG(seed)
    p, n = 10.0 ** (snr_db / 10.0), 32
    const = model.constellation_for_power(p, q_s)
    cands = core.candidate_pairs(const)
    h = model._signed_rayleigh(rng, (n, k))
    h[:, 1] = h[:, 0]
    _, y = core.frame_observe(h, const.draw(rng, size=(n, k)))
    y = y[:, :2] + rng.normal(size=(n, 2))
    w = core.weight_matrix(y, h[:, :2], cands)
    best, second = np.partition(w, 1, axis=1)[:, :2].T
    scale = np.linalg.norm(y, axis=1) + np.abs(h[:, 0]) * np.max(np.hypot(cands[:, 0], cands[:, 1]))
    clear = second - best > 1e-9 * scale
    assert np.mean(clear) > 0.9
    hat = core.pair_decode(y, h, 1, const)
    np.testing.assert_array_equal(hat[clear], cands[np.argmin(w[clear], axis=1)])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    q_s=st.sampled_from([1, 2, 8, 22]),
    k=st.sampled_from([4, 5, 6]),
    pair=st.integers(0, 2),
    snr_db=st.floats(0.0, 60.0),
)
def test_one_gain_ml_pair_decode_is_the_unfolded_two_gain_argmin(seed, q_s, k, pair, snr_db):
    """With equal gains on pair m, ``pair_decode(..., ML)`` (the one-gain
    likelihood) picks the row-wise argmin of the unfolded two-gain
    ``ml_metric_matrix`` over all C candidates, on every row whose best two
    candidates are apart by more than rounding. At K = 5 pair 3 is (s_5, s_1)."""
    rng = RNG(seed)
    p, n = 10.0 ** (snr_db / 10.0), 32
    m = 1 + pair % core.num_pairs(k)
    a, b = core.pair_members(k, m)
    const = model.constellation_for_power(p, q_s)
    cands = core.candidate_pairs(const)
    h = model._signed_rayleigh(rng, (n, k))
    h[:, b] = h[:, a]
    _, y = core.frame_observe(h, const.draw(rng, size=(n, k)))
    y = y[:, [0, m]] + rng.normal(size=(n, 2))
    ipow = const.power * core.out_of_pair_sum(h**2, m)
    d = core.ml_metric_matrix(y, h[:, [a, b]], cands, ipow)
    best, second = np.partition(d, 1, axis=1)[:, :2].T
    scale = np.sum(y * y, axis=1) + h[:, a] ** 2 * np.max(np.sum(cands**2, axis=1))
    clear = second - best > 1e-9 * scale
    assert np.mean(clear) > 0.9
    hat = core.pair_decode(y, h, m, const, core.ML)
    np.testing.assert_array_equal(hat[clear], cands[np.argmin(d[clear], axis=1)])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    q_s=st.sampled_from([1, 2, 8, 22, 90]),
    snr_db=st.floats(0.0, 60.0),
)
def test_k2_ml_slicers_are_the_known_beta_argmin(seed, q_s, snr_db):
    """At K = 2 the ml decoder's two PAM slicers pick the row-wise argmin of
    the known-beta metric ||y - v - v_perp||^2 over all C candidates, on every
    row whose best two candidates are apart by more than rounding."""
    rng = RNG(seed)
    p, n = 10.0 ** (snr_db / 10.0), 32
    const = model.constellation_for_power(p, q_s)
    cands = core.candidate_pairs(const)
    h, _ = model.draw_channels(2, 2, n, rng)
    _, y = core.frame_observe(h, const.draw(rng, size=(n, 2)))
    y += rng.normal(size=y.shape)
    d2 = _direct_known_beta(y, h, cands, 1.0)
    best, second = np.partition(d2, 1, axis=1)[:, :2].T
    scale = np.sum(y * y, axis=1) + 2.0 * np.max(np.sum((h[:, None, :] * cands) ** 2, axis=-1), axis=1)
    clear = second - best > 1e-9 * scale
    assert np.mean(clear) > 0.9
    hat = core.pair_decode(y, h, 1, const, core.ML)
    np.testing.assert_array_equal(hat[clear], cands[np.argmin(d2[clear], axis=1)])


class TestDecodePair:
    def test_noiseless_recovery_random(self):
        const, h, s = random_frames(23, 4, 100)
        _, y = core.frame_observe(h, s)
        hat = core.pair_decode(y[:, :2], h, 1, const)
        np.testing.assert_array_equal(hat, s[:, :2])

    def test_degenerate_unit_gain_tie(self):
        """All-unit gains are a measure-zero channel with two zero-weight
        candidates; the decoder still returns one of them deterministically.

        Brute force over the 16 candidates: w(1,2) = w(1,-2) = 0.
        """
        const = model.PamConstellation(1.0, 2)
        cands = core.candidate_pairs(const)
        h = np.ones((1, 3))
        _, y = core.frame_observe(h, np.array([[1.0, 2.0, 2.0]]))
        y = y[:, :2]
        zero_set = {(1.0, 2.0), (1.0, -2.0)}
        w = core.weight_matrix(y, h[:, :2], np.array(sorted(zero_set)))
        np.testing.assert_allclose(w, 0.0, atol=1e-12)
        res1 = core.pair_decode(y, h, 1, const)[0]
        res2 = core.pair_decode(y, h, 1, const)[0]
        assert tuple(res1) in zero_set
        np.testing.assert_array_equal(res1, res2)
        assert np.min(core.weight_matrix(y, h[:, :2], cands)) == pytest.approx(0.0, abs=1e-12)

    def test_totality_under_heavy_noise(self):
        const, h, s = random_frames(29, 2, 1)
        _, y = core.frame_observe(np.repeat(h, 20, axis=0), np.repeat(s, 20, axis=0))
        y += RNG(29, 1).normal(0.0, 1e3, size=y.shape)
        hat = core.pair_decode(y, np.repeat(h, 20, axis=0), 1, const)
        assert np.isin(hat, const.points).all()


class TestMlDecodePair:
    def test_metric_value_true_pair_two_ways(self):
        """Noiseless metric at the true pair equals s2 (b vperp)^T C^-1 (b vperp),
        via explicit inverse and via a linear solve, to 1e-10. At noise
        variance s2 that is the unit-noise metric at power p / s2."""
        p, sigma2 = 2.0, 0.3
        const, h, s = random_frames(31, 4, 25, p=p)
        cands = core.candidate_pairs(const)
        beta, y = core.frame_observe(h, s)
        vals = core.ml_metric_matrix(y[:, :2], h[:, :2], cands, p / sigma2 * np.sum(h[:, 2:] ** 2, axis=1))
        for i in range(len(h)):
            idx = int(np.where((cands[:, 0] == s[i, 0]) & (cands[:, 1] == s[i, 1]))[0][0])
            v = h[i, :2] * s[i, :2]
            vperp = np.array([v[1], -v[0]])
            eta2 = p * np.sum(h[i, 2:] ** 2) / (h[i, 1] * s[i, 1]) ** 2
            cov = eta2 * np.outer(vperp, vperp) + sigma2 * np.eye(2)
            d = beta[i, 0] * vperp
            via_inv = sigma2 * d @ np.linalg.inv(cov) @ d
            via_solve = sigma2 * d @ np.linalg.solve(cov, d)
            np.testing.assert_allclose(via_inv, via_solve, rtol=1e-10)
            np.testing.assert_allclose(vals[i, idx], via_inv, rtol=1e-10, atol=1e-12)

    def test_k2_reduces_to_nearest_neighbor_on_v(self):
        """Without interferers eta^2 = 0 and C = s2 I, so the metric is
        ||y - v(cand)||^2; the deterministic-dissolution optimum is the
        known-beta metric instead, which pair_decode's two slicers minimize at K = 2."""
        p, sigma2 = 1.0, 0.5
        const, h, s = random_frames(37, 2, 1, p=p)
        cands = core.candidate_pairs(const)
        _, y = core.frame_observe(h, s)
        y += RNG(37, 1).normal(0.0, np.sqrt(sigma2), size=y.shape)
        vals = core.ml_metric_matrix(y, h, cands, p / sigma2 * core.out_of_pair_sum(h**2, 1))[0]
        v = h * cands
        np.testing.assert_allclose(vals, np.sum((y - v) ** 2, axis=1), rtol=1e-12)

    def test_zero_denominator_gives_no_correction(self):
        """With no interferers and h_b = 0 the denominator
        (h_b c_b)^2 + I ||v||^2 is zero; the correction is then 0, not 0/0,
        and the metric is ||y - v||^2."""
        rng = RNG(39)
        const = model.constellation_for_power(1.0, 2)
        cands = core.candidate_pairs(const)
        y, h_pair = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        h_pair[:, 1] = 0.0
        vals = core.ml_metric_matrix(y, h_pair, cands, np.zeros(5))
        direct = np.sum((y[:, None, :] - h_pair[:, None, :] * cands) ** 2, axis=-1)
        np.testing.assert_allclose(vals, direct, rtol=1e-12)

    def test_low_noise_agrees_with_weight_decoder(self):
        """As sigma2 -> 0 the likelihood metric orders like the weight. At
        unit noise that is the alphabet at power p / sigma2."""
        p, sigma2 = 1.0, 1e-12
        const, h, s = random_frames(41, 4, 100, p=p / sigma2)
        _, y = core.frame_observe(h, s)
        y = y[:, :2] + RNG(41, 1).normal(0.0, 1.0, size=(100, 2))
        w_hat = core.pair_decode(y, h, 1, const)
        ml_hat = core.pair_decode(y, h, 1, const, core.ML)
        np.testing.assert_array_equal(w_hat, ml_hat)

    def test_eta2_matches_dissolution_factor_variance(self):
        """Sample variance of beta over 1e6 interference draws matches
        p * sum h_k^2 / (h_b s_b)^2 within 1%."""
        rng = RNG(43)
        p = 2.0
        const = model.constellation_for_power(p, 2)
        (h,), _ = model.draw_channels(6, 6, 1, rng)
        s2_sym = const.points[2]
        s_int = const.draw(rng, size=(1_000_000, 4))
        beta = 1.0 + (s_int @ h[2:]) / (h[1] * s2_sym)
        eta2 = p * np.sum(h[2:] ** 2) / (h[1] * s2_sym) ** 2
        assert np.var(beta) == pytest.approx(eta2, rel=0.01)
        assert np.mean(beta) == pytest.approx(1.0, rel=0.01)

    def test_known_beta_is_exact_ml_for_k2(self):
        """With beta = 1 known, ML decoding at K = 2 is nearest-neighbor on v + vperp."""
        const, h, s = random_frames(47, 2, 50)
        cands = core.candidate_pairs(const)
        _, y = core.frame_observe(h, s)
        y += RNG(47, 1).normal(0.0, np.sqrt(0.5), size=y.shape)
        hat = core.pair_decode(y, h, 1, const, core.ML)
        v = h[:, None, :] * cands
        z = np.stack([v[..., 0] + v[..., 1], v[..., 1] - v[..., 0]], axis=-1)
        best = cands[np.argmin(np.sum((y[:, None, :] - z) ** 2, axis=-1), axis=1)]
        np.testing.assert_array_equal(hat, best)
        assert 0 < np.mean(np.any(hat != s, axis=1)) < 1

    def test_known_beta_noiseless_exact(self):
        const, h, s = random_frames(53, 2, 50)
        _, y = core.frame_observe(h, s)
        np.testing.assert_array_equal(core.pair_decode(y, h, 1, const, core.ML), s)


class TestFrame:
    def test_k4_noiseless_exact_three_uses(self):
        const, h, s = random_frames(59, 4, 1)
        _, y = core.frame_observe(h, s)
        assert y.shape == (1, 3) and core.channel_uses(4) == 3
        np.testing.assert_array_equal(core.frame_decode(y, h, const), s)

    def test_k5_counting_and_recovery(self):
        """Odd frame: 3 pairs, 4 uses, 5/4 symbols per use, exact recovery."""
        const, h, s = random_frames(61, 5, 1)
        beta, y = core.frame_observe(h, s)
        assert beta.shape == (1, 3) and y.shape == (1, 4)
        assert core.channel_uses(5) == 4
        assert 5 / core.channel_uses(5) == pytest.approx(1.25)
        np.testing.assert_array_equal(core.frame_decode(y, h, const), s)

    def test_shared_first_observation(self):
        """One first use serves every pair: it is each pair's own first use."""
        _, h, s = random_frames(67, 6, 20)
        _, y = core.frame_observe(h, s)
        assert y.shape == (20, 1 + core.num_pairs(6))
        for m in range(1, core.num_pairs(6) + 1):
            ab = list(core.pair_members(6, m))
            own = core.dissolve(h[:, ab], s[:, ab], core.out_of_pair_sum(h * s, m))[1][:, 0]
            np.testing.assert_allclose(own, y[:, 0], rtol=1e-12, atol=1e-12)

    def test_odd_k_keeps_pair_one_decision(self):
        """For odd K the last pair repeats s_1; pair 1's decision of it is kept
        even when the last pair's second use is wrecked."""
        const, h, s = random_frames(69, 5, 30)
        _, y = core.frame_observe(h, s)
        y[:, 3] += 1e3
        s_hat = core.frame_decode(y, h, const)
        last = core.pair_decode(y[:, [0, 3]], h, 3, const)
        assert np.any(last[:, 1] != s[:, 0])
        np.testing.assert_array_equal(s_hat[:, :4], s[:, :4])
        np.testing.assert_array_equal(s_hat[:, 4], last[:, 0])

    def test_ml_frame_decoding(self):
        """Noiseless frames at noise variance 1e-9, which at unit noise is
        the alphabet at power p / sigma2."""
        p, sigma2 = 1.0, 1e-9
        const, h, s = random_frames(71, 4, 10, p=p / sigma2)
        _, y = core.frame_observe(h, s)
        s_hat = core.frame_decode(y, h, const, core.ML)
        np.testing.assert_array_equal(s_hat, s)

    def test_unknown_decoder_rejected(self):
        const, h, s = random_frames(73, 4, 1)
        _, y = core.frame_observe(h, s)
        with pytest.raises(ValueError):
            core.frame_decode(y, h, const, "viterbi")

    def test_second_use_power(self):
        """Realized second-use power is beta^2 s_a^2 + s_b^2, not renormalized."""
        h, s = np.ones(3), np.array([1.0, 2.0, 2.0])
        beta, _ = core.dissolve(h[:2], s[:2], h[2:] @ s[2:])
        assert beta == pytest.approx(2.0)
        assert np.sum(s**2) == pytest.approx(9.0)  # first use: 1 + 4 + 4
        assert core.second_use_power(beta, s[:2]) == pytest.approx(4.0 * 1.0 + 4.0)  # beta^2 s1^2 + s2^2


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        const, h, s = random_frames(79, 4, 50)
        _, y = core.frame_observe(h, s)
        y = y[:, :2] + RNG(79, 1).normal(0.0, np.sqrt(10.0), size=(50, 2))
        first = core.pair_decode(y, h, 1, const)
        for _ in range(5):
            np.testing.assert_array_equal(core.pair_decode(y, h, 1, const), first)
            np.testing.assert_array_equal(core.pair_decode(y[::-1], h[::-1], 1, const), first[::-1])
