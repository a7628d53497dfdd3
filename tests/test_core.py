"""Tests for dissolution precoding, the weight decoder, and the ML oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsim import core, model

RNG = lambda *key: np.random.default_rng(list(key))  # noqa: E731


def make_instance(h, s):
    ch = model.ChannelRealization(h=np.asarray(h, float), g=np.asarray(h, float))
    blk = core.SymbolBlock(np.asarray(s, float))
    return blk, ch


class TestFirstUseSignal:
    def test_cancellation(self):
        blk, ch = make_instance([1.0, 1.0], [1.0, -1.0])
        assert core.first_use_signal(blk, ch) == 0.0

    def test_direct_sum(self):
        blk, ch = make_instance([1.0, 2.0, 0.5, 1.0], [1.0, 1.0, 2.0, -2.0])
        assert core.first_use_signal(blk, ch) == pytest.approx(2.0)

    def test_two_symbol_definition(self):
        rng = RNG(0)
        h, s = rng.normal(size=2), rng.normal(size=2)
        blk, ch = make_instance(h, s)
        assert core.first_use_signal(blk, ch) == pytest.approx(h @ s, rel=1e-15)

    def test_size_mismatch(self):
        blk = core.SymbolBlock(np.ones(3))
        ch = model.ChannelRealization(h=np.ones(4), g=np.ones(4))
        with pytest.raises(ValueError):
            core.first_use_signal(blk, ch)


class TestDissolutionFactor:
    def test_no_interferers(self):
        blk, ch = make_instance([0.3, -1.2], [1.0, 2.0])
        assert core.dissolution_factor(blk, ch, 1) == 1.0

    def test_hand_computed(self):
        blk, ch = make_instance([1.0, 1.0, 1.0], [1.0, 2.0, 2.0])
        assert core.dissolution_factor(blk, ch, 1) == pytest.approx(2.0)

    def test_identity_random_instances(self):
        """h_a s_a + beta h_b s_b reproduces the full first-use sum."""
        rng = RNG(42)
        const = model.constellation_for_power(1.0, 2)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            ch = model.draw_channel(k, k, rng)
            blk = core.SymbolBlock(const.draw(rng, size=k))
            total = core.first_use_signal(blk, ch)
            for m in range(1, core.num_pairs(k) + 1):
                a, b = core.pair_members(k, m)
                beta = core.dissolution_factor(blk, ch, m)
                lhs = ch.h[a] * blk.s[a] + beta * ch.h[b] * blk.s[b]
                np.testing.assert_allclose(lhs, total, rtol=1e-10, atol=1e-12)

    def test_degenerate_guard(self):
        blk, ch = make_instance([1.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            core.dissolution_factor(blk, ch, 1)


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


class TestTransmitPair:
    def test_noiseless_two_symbols(self):
        blk, ch = make_instance([1.0, 1.0], [1.0, 1.0])
        rp = core.transmit_pair(blk, ch, 1)
        assert (rp.y1, rp.ym) == (2.0, 0.0)

    def test_residual_orthogonal_to_pair_vector(self):
        """Noiseless y - v(true) has no component along v(true)."""
        rng = RNG(7)
        const = model.constellation_for_power(2.0, 3)
        for _ in range(50):
            ch = model.draw_channel(5, 5, rng)
            blk = core.SymbolBlock(const.draw(rng, size=5))
            for m in (1, 2):
                a, b = core.pair_members(5, m)
                rp = core.transmit_pair(blk, ch, m)
                v = np.array([ch.h[a] * blk.s[a], ch.h[b] * blk.s[b]])
                scale = np.sum(np.abs(rp.y)) * np.linalg.norm(v)
                assert abs((rp.y - v) @ v) <= 1e-10 * scale

    def test_noise_variance(self):
        blk, ch = make_instance([1.0, -0.5], [1.0, 2.0])
        rng = RNG(3)
        noise = model.NoiseModel(0.25)
        y1 = np.array([core.transmit_pair(blk, ch, 1, noise, rng).y1 for _ in range(50_000)])
        assert np.var(y1) == pytest.approx(0.25, rel=0.05)

    def test_rng_required_with_noise(self):
        blk, ch = make_instance([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            core.transmit_pair(blk, ch, 1, model.NoiseModel(1.0), None)


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
        rng = RNG(13)
        const = model.constellation_for_power(1.0, 2)
        ch = model.draw_channel(4, 4, rng)
        blk = core.SymbolBlock(const.draw(rng, size=4))
        rp = core.transmit_pair(blk, ch, 1)
        w = core.weight(rp, (blk.s[0], blk.s[1]), ch, 1)
        assert w <= 1e-10 * np.sum(np.abs(rp.y))

    def test_hand_computed(self):
        """k=3, unit gains, s=(1,2,2): y=(5,0) and w(2,1) = sqrt(5)."""
        blk, ch = make_instance([1.0, 1.0, 1.0], [1.0, 2.0, 2.0])
        rp = core.transmit_pair(blk, ch, 1)
        assert (rp.y1, rp.ym) == (5.0, 0.0)
        assert core.weight(rp, (2.0, 1.0), ch, 1) == pytest.approx(np.sqrt(5.0), rel=1e-12)

    def test_expansion_identity(self):
        """w agrees with the explicit residual expansion for any candidate."""
        rng = RNG(17)
        const = model.constellation_for_power(1.5, 2)
        ch = model.draw_channel(4, 4, rng)
        blk = core.SymbolBlock(const.draw(rng, size=4))
        beta = core.dissolution_factor(blk, ch, 1)
        rp = core.transmit_pair(blk, ch, 1)
        v_t = np.array([ch.h[0] * blk.s[0], ch.h[1] * blk.s[1]])
        vperp_t = np.array([v_t[1], -v_t[0]])
        pts = const.points
        for cand in [(pts[0], pts[3]), (pts[2], pts[1]), (pts[1], pts[1])]:
            v_c = np.array([ch.h[0] * cand[0], ch.h[1] * cand[1]])
            expected = abs((v_t - v_c + beta * vperp_t) @ v_c) / np.linalg.norm(v_c)
            assert core.weight(rp, cand, ch, 1) == pytest.approx(expected, rel=1e-10)

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


# Reference kernels: the pair metrics written directly over the (n, C, 2)
# candidate vectors v = h_pair * cand, as the matrix-product kernels in core
# must reproduce them.
def _direct_weight(y, h_pair, cands):
    v = h_pair[..., None, :] * cands
    d = y[..., None, :] - v
    return np.abs(np.sum(d * v, axis=-1)) / np.sqrt(np.sum(v * v, axis=-1))


def _direct_ml(y, h_pair, cands, interference_power, sigma2):
    v = h_pair[..., None, :] * cands
    d = y[..., None, :] - v
    vperp = np.stack([v[..., 1], -v[..., 0]], axis=-1)
    eta2 = interference_power[..., None] / (h_pair[..., None, 1] * cands[:, 1]) ** 2
    d_sq = np.sum(d * d, axis=-1)
    proj = np.sum(d * vperp, axis=-1)
    denom = sigma2 + eta2 * np.sum(v * v, axis=-1)
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
            (core.ml_metric_matrix(y, h_pair, cands, ipow, 1.0), _direct_ml(y, h_pair, cands, ipow, 1.0),
             y_sq + v_sq),
            (core.known_beta_metric_matrix(y, h_pair, cands, beta), _direct_known_beta(y, h_pair, cands, beta),
             y_sq + (1.0 + beta[:, None] ** 2) * v_sq),
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
        beta = rng.normal(size=n)
        for metric, args in [
            (core.weight_matrix, ()),
            (core.ml_metric_matrix, (ipow, 1.0)),
            (core.known_beta_metric_matrix, (beta,)),
            (core.known_beta_metric_matrix, (1.0,)),
        ]:
            np.testing.assert_array_equal(
                core.argmin_metric(metric, y, h_pair, cands, *args),
                np.argmin(metric(y, h_pair, cands, *args), axis=1),
            )


class TestDecodePair:
    def test_noiseless_recovery_random(self):
        rng = RNG(23)
        const = model.constellation_for_power(1.0, 2)
        for _ in range(100):
            ch = model.draw_channel(4, 4, rng)
            blk = core.SymbolBlock(const.draw(rng, size=4))
            res = core.decode_pair(core.transmit_pair(blk, ch, 1), ch, 1, const)
            assert res.pair == (blk.s[0], blk.s[1])
            assert res.decoder == core.WEIGHT

    def test_degenerate_unit_gain_tie(self):
        """All-unit gains are a measure-zero channel with two zero-weight
        candidates; the decoder still returns one of them deterministically.

        Brute force over the 16 candidates: w(1,2) = w(1,-2) = 0.
        """
        const = model.build_constellation(1.0, 2)
        blk, ch = make_instance([1.0, 1.0, 1.0], [1.0, 2.0, 2.0])
        rp = core.transmit_pair(blk, ch, 1)
        zero_set = {(1.0, 2.0), (1.0, -2.0)}
        for cand in zero_set:
            assert core.weight(rp, cand, ch, 1) == pytest.approx(0.0, abs=1e-12)
        res1 = core.decode_pair(rp, ch, 1, const)
        res2 = core.decode_pair(rp, ch, 1, const)
        assert res1.pair in zero_set
        assert res1.pair == res2.pair
        assert res1.weight_min == pytest.approx(0.0, abs=1e-12)

    def test_totality_under_heavy_noise(self):
        rng = RNG(29)
        const = model.constellation_for_power(1.0, 2)
        ch = model.draw_channel(2, 2, rng)
        blk = core.SymbolBlock(const.draw(rng, size=2))
        noise = model.NoiseModel(1e6)
        for _ in range(20):
            res = core.decode_pair(core.transmit_pair(blk, ch, 1, noise, rng), ch, 1, const)
            assert res.pair[0] in const.points and res.pair[1] in const.points


class TestMlDecodePair:
    def test_metric_value_true_pair_two_ways(self):
        """Noiseless metric at the true pair equals s2 (b vperp)^T C^-1 (b vperp),
        via explicit inverse and via a linear solve, to 1e-10."""
        rng = RNG(31)
        p, sigma2 = 2.0, 0.3
        const = model.constellation_for_power(p, 2)
        cands = core.candidate_pairs(const)
        for _ in range(25):
            ch = model.draw_channel(4, 4, rng)
            blk = core.SymbolBlock(const.draw(rng, size=4))
            beta = core.dissolution_factor(blk, ch, 1)
            rp = core.transmit_pair(blk, ch, 1)
            vals = core.ml_decision_values(rp, ch, 1, const, p, sigma2)
            idx = int(np.where((cands[:, 0] == blk.s[0]) & (cands[:, 1] == blk.s[1]))[0][0])
            v = np.array([ch.h[0] * blk.s[0], ch.h[1] * blk.s[1]])
            vperp = np.array([v[1], -v[0]])
            eta2 = p * np.sum(ch.h[2:] ** 2) / (ch.h[1] * blk.s[1]) ** 2
            cov = eta2 * np.outer(vperp, vperp) + sigma2 * np.eye(2)
            d = beta * vperp
            via_inv = sigma2 * d @ np.linalg.inv(cov) @ d
            via_solve = sigma2 * d @ np.linalg.solve(cov, d)
            np.testing.assert_allclose(via_inv, via_solve, rtol=1e-10)
            np.testing.assert_allclose(vals[idx], via_inv, rtol=1e-10, atol=1e-12)

    def test_k2_reduces_to_nearest_neighbor_on_v(self):
        """Without interferers eta^2 = 0 and C = s2 I, so the metric is
        ||y - v(cand)||^2; the deterministic-dissolution optimum is covered
        by ml_decode_pair_known_beta instead."""
        rng = RNG(37)
        p, sigma2 = 1.0, 0.5
        const = model.constellation_for_power(p, 2)
        ch = model.draw_channel(2, 2, rng)
        blk = core.SymbolBlock(const.draw(rng, size=2))
        rp = core.transmit_pair(blk, ch, 1, model.NoiseModel(sigma2), rng)
        vals = core.ml_decision_values(rp, ch, 1, const, p, sigma2)
        cands = core.candidate_pairs(const)
        v = ch.h[None, :] * cands
        np.testing.assert_allclose(vals, np.sum((rp.y[None, :] - v) ** 2, axis=1), rtol=1e-12)

    def test_low_noise_agrees_with_weight_decoder(self):
        """As sigma2 -> 0 the likelihood metric orders like the weight."""
        rng = RNG(41)
        p, sigma2 = 1.0, 1e-12
        const = model.constellation_for_power(p, 2)
        for _ in range(100):
            ch = model.draw_channel(4, 4, rng)
            blk = core.SymbolBlock(const.draw(rng, size=4))
            rp = core.transmit_pair(blk, ch, 1, model.NoiseModel(sigma2), rng)
            w_res = core.decode_pair(rp, ch, 1, const)
            ml_res = core.ml_decode_pair(rp, ch, 1, const, p, sigma2)
            assert w_res.pair == ml_res.pair

    def test_eta2_matches_dissolution_factor_variance(self):
        """Sample variance of beta over 1e6 interference draws matches
        p * sum h_k^2 / (h_b s_b)^2 within 1%."""
        rng = RNG(43)
        p = 2.0
        const = model.constellation_for_power(p, 2)
        ch = model.draw_channel(6, 6, rng)
        s2_sym = const.points[2]
        s_int = const.draw(rng, size=(1_000_000, 4))
        beta = 1.0 + (s_int @ ch.h[2:]) / (ch.h[1] * s2_sym)
        eta2 = p * np.sum(ch.h[2:] ** 2) / (ch.h[1] * s2_sym) ** 2
        assert np.var(beta) == pytest.approx(eta2, rel=0.01)
        assert np.mean(beta) == pytest.approx(1.0, rel=0.01)

    def test_known_beta_is_exact_ml_for_k2(self):
        """With beta = 1 known, decoding is nearest-neighbor on v + vperp."""
        rng = RNG(47)
        const = model.constellation_for_power(1.0, 2)
        cands = core.candidate_pairs(const)
        ch = model.draw_channel(2, 2, rng)
        blk = core.SymbolBlock(const.draw(rng, size=2))
        rp = core.transmit_pair(blk, ch, 1, model.NoiseModel(0.5), rng)
        res = core.ml_decode_pair_known_beta(rp, ch, 1, const, beta=1.0)
        v = ch.h[None, :] * cands
        z = np.stack([v[:, 0] + v[:, 1], v[:, 1] - v[:, 0]], axis=-1)
        best = cands[np.argmin(np.sum((rp.y[None, :] - z) ** 2, axis=1))]
        assert res.pair == (best[0], best[1])

    def test_known_beta_noiseless_exact(self):
        rng = RNG(53)
        const = model.constellation_for_power(1.0, 2)
        for _ in range(50):
            ch = model.draw_channel(2, 2, rng)
            blk = core.SymbolBlock(const.draw(rng, size=2))
            rp = core.transmit_pair(blk, ch, 1)
            res = core.ml_decode_pair_known_beta(rp, ch, 1, const, beta=1.0)
            assert res.pair == (blk.s[0], blk.s[1])


class TestFrame:
    def test_k4_noiseless_exact_three_uses(self):
        rng = RNG(59)
        const = model.constellation_for_power(1.0, 2)
        ch = model.draw_channel(4, 4, rng)
        blk = core.SymbolBlock(const.draw(rng, size=4))
        results = core.transmit_and_decode_all(blk, ch, None, None, const)
        assert len(results) == 2 and core.channel_uses(4) == 3
        np.testing.assert_array_equal(core.frame_symbols(results, 4), blk.s)

    def test_k5_counting_and_recovery(self):
        """Odd frame: 3 pairs, 4 uses, 5/4 symbols per use, exact recovery."""
        rng = RNG(61)
        const = model.constellation_for_power(1.0, 2)
        ch = model.draw_channel(5, 5, rng)
        blk = core.SymbolBlock(const.draw(rng, size=5))
        results = core.transmit_and_decode_all(blk, ch, None, None, const)
        assert len(results) == 3
        assert core.channel_uses(5) == 4
        assert 5 / core.channel_uses(5) == pytest.approx(1.25)
        np.testing.assert_array_equal(core.frame_symbols(results, 5), blk.s)

    def test_shared_first_observation(self):
        rng = RNG(67)
        const = model.constellation_for_power(1.0, 2)
        ch = model.draw_channel(6, 6, rng)
        blk = core.SymbolBlock(const.draw(rng, size=6))
        rps = core.transmit_frame(blk, ch, model.NoiseModel(1.0), rng)
        assert len({rp.y1 for rp in rps}) == 1

    def test_ml_frame_decoding(self):
        rng = RNG(71)
        const = model.constellation_for_power(1.0, 2)
        ch = model.draw_channel(4, 4, rng)
        blk = core.SymbolBlock(const.draw(rng, size=4))
        results = core.transmit_and_decode_all(
            blk, ch, None, None, const, decoder=core.ML, p=1.0, sigma2=1e-9
        )
        np.testing.assert_array_equal(core.frame_symbols(results, 4), blk.s)

    def test_ml_frame_requires_parameters(self):
        rng = RNG(73)
        const = model.constellation_for_power(1.0, 2)
        ch = model.draw_channel(4, 4, rng)
        blk = core.SymbolBlock(const.draw(rng, size=4))
        with pytest.raises(ValueError):
            core.transmit_and_decode_all(blk, ch, None, None, const, decoder=core.ML)

    def test_plan_frame_powers(self):
        """Realized second-use power is beta^2 s_a^2 + s_b^2, not renormalized."""
        blk, ch = make_instance([1.0, 1.0, 1.0], [1.0, 2.0, 2.0])
        plan = core.plan_frame(blk, ch)
        assert plan.beta[0] == pytest.approx(2.0)
        powers = plan.use_powers
        assert powers[0] == pytest.approx(9.0)  # 1 + 4 + 4
        assert powers[1] == pytest.approx(4.0 * 1.0 + 4.0)  # beta^2 s1^2 + s2^2


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        rng = RNG(79)
        const = model.constellation_for_power(1.0, 2)
        ch = model.draw_channel(4, 4, rng)
        blk = core.SymbolBlock(const.draw(rng, size=4))
        rp = core.transmit_pair(blk, ch, 1, model.NoiseModel(10.0), rng)
        first = core.decode_pair(rp, ch, 1, const)
        for _ in range(5):
            again = core.decode_pair(rp, ch, 1, const)
            assert again.pair == first.pair and again.weight_min == first.weight_min
