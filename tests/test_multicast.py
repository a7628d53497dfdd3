"""Tests for the three-user multicast application."""

import itertools

import numpy as np
import pytest

from idsim import model, multicast


class TestTransmit:
    def test_dissolution_factor_hand_computed(self):
        """s = (1, 1, 2) with alpha = sqrt(3)/2 gives beta = 1 + sqrt(3)."""
        frame = multicast.multicast_transmit(1.0, 1.0, 2.0)
        assert frame.beta == pytest.approx(1.0 + np.sqrt(3.0), rel=1e-14)

    def test_first_use_identity(self):
        """s1 + s2 + alpha s3 equals s1 + beta s2 by construction of beta."""
        rng = np.random.default_rng(1)
        const = model.constellation_for_power(2.0, 3)
        for _ in range(200):
            s1, s2, s3 = const.draw(rng, size=3)
            frame = multicast.multicast_transmit(s1, s2, s3)
            np.testing.assert_allclose(frame.x1, s1 + frame.beta * s2, rtol=1e-12)
            np.testing.assert_allclose(frame.beta * s2 - frame.alpha * s3, s2, rtol=1e-12)

    def test_default_alpha(self):
        frame = multicast.multicast_transmit(1.0, 1.0, 1.0)
        assert frame.alpha == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-15)

    def test_zero_s2_rejected(self):
        with pytest.raises(ValueError):
            multicast.multicast_transmit(1.0, 0.0, 1.0)


class TestReceiveDecode:
    def test_noiseless_exact_all_users_small_alphabet(self):
        rng = np.random.default_rng(3)
        const = model.constellation_for_power(1.0, 2)
        gains = model._signed_rayleigh(rng, 3)
        for s1, s2, s3 in itertools.product(const.points, repeat=3):
            frame = multicast.multicast_transmit(s1, s2, s3)
            for h_i in gains:
                got = multicast.multicast_receive_decode(frame, float(h_i), None, None, const)
                assert got == (s1, s2)

    def test_totality_under_heavy_noise(self):
        rng = np.random.default_rng(5)
        const = model.constellation_for_power(1.0, 2)
        frame = multicast.multicast_transmit(1.0, 1.0, const.points[0])
        for _ in range(20):
            got = multicast.multicast_receive_decode(frame, 0.8, 1e6, rng, const)
            assert got[0] in const.points and got[1] in const.points


class TestDecodeS3:
    def test_noiseless_residual_exact(self):
        """With the correct pair removed the residual is alpha h3 s3."""
        rng = np.random.default_rng(7)
        const = model.constellation_for_power(1.0, 2)
        for s3 in const.points:
            frame = multicast.multicast_transmit(1.0, -1.0, s3)
            h3 = float(model._signed_rayleigh(rng, ()))
            y = multicast.multicast_receive(frame, h3, None)
            got = multicast.multicast_decode_s3(float(y[0]), h3, 1.0, -1.0, frame.alpha, const)
            assert got == s3

    def test_pair_error_propagates(self):
        """An off-by-one pair decision shifts the residual into a wrong s3."""
        const = model.PamConstellation(1.0, 2)
        frame = multicast.multicast_transmit(2.0, 1.0, 1.0)
        y = multicast.multicast_receive(frame, 1.0, None)
        right = multicast.multicast_decode_s3(float(y[0]), 1.0, 2.0, 1.0, frame.alpha, const)
        wrong = multicast.multicast_decode_s3(float(y[0]), 1.0, 1.0, 1.0, frame.alpha, const)
        assert right == 1.0
        assert wrong != 1.0

    def test_residual_noise_scale(self):
        """Residual after a correct pair is alpha h3 s3 + AWGN(sigma2)."""
        rng = np.random.default_rng(9)
        const = model.constellation_for_power(1.0, 2)
        h3, sigma2 = 1.3, 0.25
        frame = multicast.multicast_transmit(1.0, 1.0, 2.0 * const.a_s)
        resid = []
        for _ in range(20_000):
            y = multicast.multicast_receive(frame, h3, sigma2, rng)
            resid.append(y[0] - h3 * (1.0 + 1.0))
        resid = np.asarray(resid)
        assert np.mean(resid) == pytest.approx(frame.alpha * h3 * 2.0 * const.a_s, rel=0.02)
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
        assert res[1][1] > res[0][1]

    def test_s3_slope_near_one_at_large_power(self):
        rng = np.random.default_rng(13)
        res = multicast.s3_rate_slope([1e6], 0.2, trials=3000, rng=rng)
        assert res[0][1] == pytest.approx(0.9, abs=0.06)
