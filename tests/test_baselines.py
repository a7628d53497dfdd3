"""Tests for the MRC MISO and successive-decoding reference schemes."""

import numpy as np
import pytest

from idsim import baselines, model


class TestBaselineConfig:
    def test_valid(self):
        cfg = baselines.BaselineConfig(scheme=baselines.MRC_MISO, total_power_per_use=2.0)
        assert cfg.total_power_per_use == 2.0

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            baselines.BaselineConfig(scheme="zf", total_power_per_use=1.0)

    def test_nonpositive_power(self):
        with pytest.raises(ValueError):
            baselines.BaselineConfig(scheme=baselines.SUCCESSIVE, total_power_per_use=0.0)


class TestMrc:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(1)
        const = model.constellation_for_power(2.0, 2)
        g = model._signed_rayleigh(rng, 2)
        for sym in const.points:
            assert baselines.mrc_transmit_decode(sym, g, const, None) == sym

    def test_effective_gain(self):
        assert baselines.mrc_effective_gain(np.array([3.0, 4.0])) == pytest.approx(5.0)
        np.testing.assert_allclose(baselines.mrc_effective_gain(np.array([[3.0, 4.0], [-5.0, 12.0]])), [5.0, 13.0])

    def test_batch_decision_is_nearest_point(self):
        """Each batched MRC decision is the alphabet point nearest y / ||g||."""
        rng = np.random.default_rng(4)
        const = model.constellation_for_power(20.0, 4)
        n = 2000
        g = model._signed_rayleigh(rng, (n, 2))
        s = const.draw(rng, size=n)
        gain = baselines.mrc_effective_gain(g)
        y = gain * s + rng.normal(0.0, 1.0, n)
        got = baselines.mrc_decode_batch(y, gain, const)
        brute = const.points[np.argmin(np.abs((y / gain)[:, None] - const.points), axis=1)]
        np.testing.assert_array_equal(got, brute)
        assert 0 < np.mean(got != s) < 0.5

    def test_high_snr_error_floor(self):
        """At zeta = 40 dB the 4-PAM MRC SER over fading is below 1e-4."""
        rng = np.random.default_rng(2)
        p = 1e4
        const = model.constellation_for_power(2.0 * p, 2)
        n = 200_000
        g = model._signed_rayleigh(rng, (n, 2))
        s = const.draw(rng, size=n)
        gn = baselines.mrc_effective_gain(g)
        y = gn * s + rng.normal(0.0, 1.0, n)
        ser = np.mean(baselines.mrc_decode_batch(y, gn, const) != s)
        assert ser < 1e-4

    def test_monotone_in_snr(self):
        """MRC SER is non-increasing across the sweep."""
        sers = []
        for zdb in [0.0, 10.0, 20.0, 30.0, 40.0]:
            rng = np.random.default_rng([3, int(zdb)])
            p = 10.0 ** (zdb / 10.0)
            const = model.constellation_for_power(2.0 * p, 2)
            n = 20_000
            g = model._signed_rayleigh(rng, (n, 2))
            s = const.draw(rng, size=n)
            gn = baselines.mrc_effective_gain(g)
            y = gn * s + rng.normal(0.0, 1.0, n)
            sers.append(np.mean(baselines.mrc_decode_batch(y, gn, const) != s))
        assert all(b <= a for a, b in zip(sers, sers[1:]))

    def test_rng_required_with_noise(self):
        const = model.constellation_for_power(1.0, 1)
        with pytest.raises(ValueError):
            baselines.mrc_transmit_decode(1.0, np.array([1.0, 1.0]), const, 1.0, None)


class TestSuccessive:
    def test_dominant_gain_noiseless_exact(self):
        """With a 100:1 gain ratio both stages decode exactly without noise."""
        const = model.constellation_for_power(2.5, 2)
        for s1 in const.points:
            for s2 in const.points:
                got = baselines.successive_transmit_decode(s1, s2, 100.0, 1.0, const, None)
                assert got == (s1, s2)

    def test_equal_gain_ambiguity_persists_noiseless(self):
        """h1 = h2 makes s=(1,2) collide: y=3 decodes to (2,1) even noiseless."""
        const = model.PamConstellation(1.0, 2)
        got = baselines.successive_transmit_decode(1.0, 2.0, 1.0, 1.0, const, None)
        assert got == (2.0, 1.0)

    def test_stronger_gain_decoded_first(self):
        """Ordering is by |h|: with |h2| > |h1| the second symbol leads."""
        const = model.PamConstellation(1.0, 2)
        # y = 0.1*1 + 10*2 = 20.1; stage 1 on h2: 2.0; residual 0.1 -> s1 = 1.
        got = baselines.successive_transmit_decode(1.0, 2.0, 0.1, 10.0, const, None)
        assert got == (1.0, 2.0)

    def test_error_floor_at_high_snr(self):
        """Rayleigh-averaged SER stays above 1e-2 even at 40 dB, and the
        floor is flat between 30 and 40 dB within Monte Carlo error."""
        sers = {}
        n = 40_000
        for zdb in (30.0, 40.0):
            rng = np.random.default_rng([5, int(zdb)])
            p = 10.0 ** (zdb / 10.0)
            const = model.constellation_for_power(p, 2)
            h = model._signed_rayleigh(rng, (n, 2))
            s = const.draw(rng, size=(n, 2))
            y = np.sum(h * s, axis=1) + rng.normal(0.0, 1.0, n)
            hat = baselines._successive_decode_batch(y, h[:, 0], h[:, 1], const)
            sers[zdb] = np.mean(hat != s)
        assert sers[40.0] > 1e-2
        stderr = np.sqrt(sers[30.0] * (1 - sers[30.0]) / (2 * n))
        assert abs(sers[30.0] - sers[40.0]) < 2 * 2 * stderr
