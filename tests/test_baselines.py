"""Tests for the MRC MISO and successive-decoding reference schemes."""

import numpy as np
import pytest

from idsim import baselines, core, model


class TestMrc:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(1)
        const = model.constellation_for_power(2.0, 2)
        gain = baselines.mrc_effective_gain(model._signed_rayleigh(rng, 2))
        np.testing.assert_array_equal(baselines.mrc_decode_batch(gain * const.points, gain, const), const.points)

    def test_effective_gain(self):
        assert baselines.mrc_effective_gain(np.array([3.0, 4.0])) == pytest.approx(5.0)
        np.testing.assert_allclose(baselines.mrc_effective_gain(np.array([[3.0, 4.0], [-5.0, 12.0]])), [5.0, 13.0])

    @pytest.mark.parametrize("antennas", range(1, 8))
    def test_effective_gain_is_the_sum_of_squares_bit_for_bit(self, antennas):
        """Adding the columns' squares left to right is ``np.sum``'s order for
        up to 7 columns, so the gain equals its square root bit for bit, over
        gains spread across 40 orders of magnitude."""
        rng = np.random.default_rng([5, antennas])
        g = rng.normal(size=(50_000, antennas)) * np.exp(rng.uniform(-46.0, 46.0, size=(50_000, antennas)))
        np.testing.assert_array_equal(baselines.mrc_effective_gain(g), np.sqrt(np.sum(g**2, axis=-1)))
        np.testing.assert_array_equal(baselines.mrc_effective_gain(g[0]), np.sqrt(np.sum(g[0] ** 2)))

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


def successive_reference(y, h1, h2, const):
    """The successive decoder's earlier formula, kept as its oracle: each
    selection a ``np.where``, the residual out of place, and the two
    decisions joined by ``np.column_stack``."""
    first_is_1 = np.abs(h1) >= np.abs(h2)
    h_first = np.where(first_is_1, h1, h2)
    h_second = np.where(first_is_1, h2, h1)
    s_first = const.nearest(y / h_first)
    s_second = const.nearest((y - h_first * s_first) / h_second)
    return np.column_stack([np.where(first_is_1, s_first, s_second), np.where(first_is_1, s_second, s_first)])


def successive_noiseless(s1, s2, h1, h2, const):
    """Successive decisions on the noiseless superpositions h1 s1 + h2 s2."""
    s1, s2 = np.atleast_1d(s1), np.atleast_1d(s2)
    h1, h2 = np.full(s1.shape, h1), np.full(s1.shape, h2)
    return baselines._successive_decode_batch(h1 * s1 + h2 * s2, h1, h2, const)


class TestSuccessive:
    def test_dominant_gain_noiseless_exact(self):
        """With a 100:1 gain ratio both stages decode exactly without noise."""
        const = model.constellation_for_power(2.5, 2)
        s = core.candidate_pairs(const)
        np.testing.assert_array_equal(successive_noiseless(s[:, 0], s[:, 1], 100.0, 1.0, const), s)

    def test_equal_gain_ambiguity_persists_noiseless(self):
        """h1 = h2 makes s=(1,2) collide: y=3 decodes to (2,1) even noiseless."""
        const = model.PamConstellation(1.0, 2)
        np.testing.assert_array_equal(successive_noiseless(1.0, 2.0, 1.0, 1.0, const), [[2.0, 1.0]])

    def test_stronger_gain_decoded_first(self):
        """Ordering is by |h|: with |h2| > |h1| the second symbol leads."""
        const = model.PamConstellation(1.0, 2)
        # y = 0.1*1 + 10*2 = 20.1; stage 1 on h2: 2.0; residual 0.1 -> s1 = 1.
        np.testing.assert_array_equal(successive_noiseless(1.0, 2.0, 0.1, 10.0, const), [[1.0, 2.0]])

    @pytest.mark.parametrize("q_s", [1, 2, 8])
    @pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0])
    def test_is_its_earlier_formula_bit_for_bit(self, q_s, snr_db):
        """On noisy observations over random channels, a fifth of them with
        |h1| == |h2| of equal or opposite signs, the decisions equal the
        earlier formula's, sign bits included, and the inputs are not written."""
        rng = np.random.default_rng([89, q_s, int(snr_db)])
        n = 5000
        const = model.constellation_for_power(10.0 ** (snr_db / 10.0), q_s)
        h = model._signed_rayleigh(rng, (n, 2))
        tied = rng.random(n) < 0.2
        h[tied, 1] = h[tied, 0] * rng.choice([-1.0, 1.0], size=int(tied.sum()))
        s = const.draw(rng, size=(n, 2))
        y = np.sum(h * s, axis=1) + rng.standard_normal(n)
        kept = y.copy(), h.copy()
        got = baselines._successive_decode_batch(y, h[:, 0], h[:, 1], const)
        ref = successive_reference(y, h[:, 0], h[:, 1], const)
        assert got.shape == (n, 2)
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
        np.testing.assert_array_equal(y, kept[0])
        np.testing.assert_array_equal(h, kept[1])

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
