"""Tests for the three-user multicast application."""

import itertools

import numpy as np
import pytest

from idsim import analysis, model, multicast


ALPHA = multicast.ALPHA


class TestTransmit:
    def test_dissolution_factor_hand_computed(self):
        """s = (1, 1, 2) with alpha = sqrt(3)/2 gives beta = 1 + sqrt(3)."""
        beta, _ = multicast.multicast_precode(np.array([1.0, 1.0, 2.0]))
        assert beta == pytest.approx(1.0 + np.sqrt(3.0), rel=1e-14)

    def test_first_use_identity(self):
        """s1 + s2 + alpha s3 equals s1 + beta s2 by construction of beta."""
        rng = np.random.default_rng(1)
        const = model.constellation_for_power(2.0, 3)
        s = const.draw(rng, size=(200, 3))
        beta, x = multicast.multicast_precode(s)
        np.testing.assert_allclose(x[:, 0], s[:, 0] + beta * s[:, 1], rtol=1e-12)
        np.testing.assert_allclose(beta * s[:, 1] - ALPHA * s[:, 2], s[:, 1], rtol=1e-12)

    def test_default_alpha(self):
        """alpha = sqrt(3)/2: s = (1, 1, 1) gives beta = 1 + alpha."""
        assert ALPHA == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-15)
        beta, _ = multicast.multicast_precode(np.array([1.0, 1.0, 1.0]))
        assert beta == 1.0 + ALPHA

    def test_zero_s2_rejected(self):
        with pytest.raises(ValueError):
            multicast.multicast_precode(np.array([1.0, 0.0, 1.0]))


def every_frame(const):
    """All (2 q_s)^3 symbol triples, s1 major."""
    return np.array(list(itertools.product(const.points, repeat=3)))


class TestReceiveDecode:
    def test_noiseless_exact_all_users_small_alphabet(self):
        rng = np.random.default_rng(3)
        const = model.constellation_for_power(1.0, 2)
        gains = model._signed_rayleigh(rng, 3)
        s = every_frame(const)
        _, x = multicast.multicast_precode(s)
        for h_i in gains:
            h = np.full(len(s), h_i)
            got = multicast.multicast_decode(multicast.multicast_observe(x, h), h, const, const)
            np.testing.assert_array_equal(got[:, :2], s[:, :2])

    def test_totality_under_heavy_noise(self):
        """Noise of variance sigma2: sqrt(sigma2) times the unit-noise
        observation at gain h / sqrt(sigma2)."""
        rng = np.random.default_rng(5)
        const = model.constellation_for_power(1.0, 2)
        _, x = multicast.multicast_precode(np.tile([1.0, 1.0, const.points[0]], (20, 1)))
        h, sigma2 = np.full(20, 0.8), 1e6
        y = np.sqrt(sigma2) * multicast.multicast_observe(x, h / np.sqrt(sigma2), rng)
        got = multicast.multicast_decode(y, h, const, const)
        assert np.isin(got[:, :2], const.points).all()


class TestDecodeS3:
    def test_noiseless_residual_exact(self):
        """With the correct pair removed the residual is alpha h3 s3."""
        rng = np.random.default_rng(7)
        const = model.constellation_for_power(1.0, 2)
        size = len(const.points)
        s = np.column_stack([np.ones(size), -np.ones(size), const.points])
        h3 = model._signed_rayleigh(rng, size)
        y = multicast.multicast_observe(multicast.multicast_precode(s)[1], h3)
        got = multicast.multicast_decode_s3(y[:, 0], h3, 1.0, -1.0, const)
        np.testing.assert_array_equal(got, const.points)

    def test_pair_error_propagates(self):
        """An off-by-one pair decision shifts the residual into a wrong s3."""
        const = model.PamConstellation(1.0, 2)
        _, x = multicast.multicast_precode(np.array([2.0, 1.0, 1.0]))
        y = multicast.multicast_observe(x, 1.0)
        right = multicast.multicast_decode_s3(y[0], 1.0, 2.0, 1.0, const)
        wrong = multicast.multicast_decode_s3(y[0], 1.0, 1.0, 1.0, const)
        assert right == 1.0
        assert wrong != 1.0

    def test_residual_noise_scale(self):
        """Residual after a correct pair is alpha h3 s3 + AWGN(sigma2). At noise
        variance sigma2 the observation is sqrt(sigma2) times the unit-noise
        one at gain h3 / sqrt(sigma2)."""
        rng = np.random.default_rng(9)
        const = model.constellation_for_power(1.0, 2)
        h3, sigma2, n = 1.3, 0.25, 20_000
        _, x = multicast.multicast_precode(np.array([1.0, 1.0, 2.0 * const.a_s]))
        gain = np.full(n, h3 / np.sqrt(sigma2))
        y = np.sqrt(sigma2) * multicast.multicast_observe(np.tile(x, (n, 1)), gain, rng)
        resid = y[:, 0] - h3 * (1.0 + 1.0)
        assert np.mean(resid) == pytest.approx(ALPHA * h3 * 2.0 * const.a_s, rel=0.02)
        assert np.var(resid) == pytest.approx(sigma2, rel=0.05)


class TestThroughputAndSlope:
    def test_three_symbols_two_uses(self):
        assert multicast.SYMBOLS_PER_USE == pytest.approx(1.5)

    def test_per_user_ser_decreases_with_snr(self):
        from idsim import harness

        cfg = harness.ExperimentConfig(
            experiment="multicast", q_s=2, zeta_db_grid=[5.0, 25.0], trials=4000, seed=17
        )
        rows = harness.run_multicast(cfg)
        ser = {(r.scheme, r.zeta_db): r.ser for r in rows if r.scheme.startswith("user")}
        for user in ("user1", "user2", "user3"):
            assert ser[(user, 25.0)] < ser[(user, 5.0)]

    def test_s3_slope_rises_with_power(self):
        rng = np.random.default_rng(11)
        res = multicast.s3_rate_slope([1e2, 1e4], 0.2, trials=2000, rng=rng)
        assert res[1].ratio > res[0].ratio

    def test_s3_slope_near_one_at_large_power(self):
        rng = np.random.default_rng(13)
        res = multicast.s3_rate_slope([1e6], 0.2, trials=3000, rng=rng)
        assert res[0].ratio == pytest.approx(0.9, abs=0.06)

    def test_s3_points_follow_the_one_dof_law(self):
        """Each point is a DofPoint at s3's half-size round(P^((1-eps)/2)),
        with the Fano bound of its error rate."""
        res = multicast.s3_rate_slope([1e2, 1e4], 0.2, trials=500, rng=np.random.default_rng(5))
        assert all(isinstance(pt, analysis.DofPoint) for pt in res)
        assert [pt.p for pt in res] == [1e2, 1e4]
        assert [pt.q_s for pt in res] == [6, 40]
        for pt in res:
            assert pt.fano_bound == analysis.fano_rate_lower_bound(pt.pe, pt.q_s)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_s3_slope_rejects_epsilon_outside_0_1_before_any_draw(self, epsilon):
        """eps outside (0, 1) leaves no positive growth below one DoF; it is
        rejected, as ``dof`` rejects it, before the first draw."""
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="epsilon"):
            multicast.s3_rate_slope([1e2, 1e4], epsilon, trials=200, rng=rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("p_grid", [[1.0, 0.5], [1e2, 1.0], [0.1], [float("nan")]])
    def test_s3_slope_rejects_powers_at_or_below_0db(self, p_grid):
        """The slope divides by (1/2) log2 P, which is zero at P = 1 and
        negative below; the grid is rejected before any draw."""
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="0 dB"):
            multicast.s3_rate_slope(p_grid, 0.2, trials=200, rng=rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
