"""Tests for rates, capacity, error bounds, and the empirical probers."""

import numpy as np
import pytest

from idsim import analysis, core, model


def channel_from(h):
    h = np.asarray(h, dtype=float)
    return model.ChannelRealization(h=h, g=h)


class TestCapacity:
    def test_half_bit_at_unit_snr(self):
        assert analysis.capacity_miso(np.array([1.0, 0.0]), 1.0, 1.0) == pytest.approx(0.5)

    def test_doubling_power_adds_half_bit_at_high_snr(self):
        g = np.array([0.8, 1.3])
        c1 = analysis.capacity_miso(g, 1e6, 1.0)
        c2 = analysis.capacity_miso(g, 2e6, 1.0)
        assert c2 - c1 == pytest.approx(0.5, abs=1e-6)

    def test_invalid(self):
        with pytest.raises(ValueError):
            analysis.capacity_miso(np.ones(2), 0.0, 1.0)


class TestPairRate:
    def test_k2_reduces_to_full_log(self):
        """Without interferers both observations are fully informative."""
        ch = channel_from([0.9, -1.4])
        p, s2 = 3.0, 0.5
        expected = np.log2(1.0 + p * np.sum(ch.h**2) / s2)
        assert analysis.rate_pair_gaussian(ch, p, s2, 1) == pytest.approx(expected, rel=1e-12)

    def test_vanishing_power(self):
        ch = channel_from([1.0, 1.0, 1.0, 1.0])
        assert analysis.rate_pair_gaussian(ch, 1e-15, 1.0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_log_det_identity(self):
        """Closed form equals the determinant route on random instances."""
        rng = np.random.default_rng(101)
        for _ in range(1000):
            k = int(rng.integers(2, 9))
            ch = model.draw_channel(k, k, rng)
            p = float(10.0 ** rng.uniform(-2, 3))
            s2 = float(10.0 ** rng.uniform(-2, 1))
            m = int(rng.integers(1, core.num_pairs(k) + 1))
            closed = analysis.rate_pair_gaussian(ch, p, s2, m)
            det_u = np.linalg.det(analysis.cov_unconditional(ch, p, s2))
            det_c = np.linalg.det(analysis.cov_conditional(ch, p, s2, m, ratio=1.0))
            direct = 0.5 * np.log2(det_u) - 0.5 * np.log2(det_c)
            np.testing.assert_allclose(closed, direct, rtol=1e-10)


class TestTotalRate:
    def test_k2_is_half_pair_rate(self):
        ch = channel_from([1.1, 0.4])
        pair = analysis.rate_pair_gaussian(ch, 2.0, 1.0, 1)
        assert analysis.rate_total(ch, 2.0, 1.0) == pytest.approx(pair / 2.0, rel=1e-12)

    def test_large_k_approaches_pair_rate(self):
        """With many equal pairs the per-use rate approaches the pair rate."""
        rng = np.random.default_rng(3)
        ch = model.draw_channel(200, 2, rng)
        r_tot = analysis.rate_total(ch, 1.0, 1.0)
        r_pairs = [analysis.rate_pair_gaussian(ch, 1.0, 1.0, m) for m in range(1, 101)]
        assert r_tot == pytest.approx(np.mean(r_pairs) * 100 / 101, rel=1e-12)

    def test_k_argument_checked(self):
        ch = channel_from([1.0, 1.0])
        with pytest.raises(ValueError):
            analysis.rate_total(ch, 1.0, 1.0, k=4)


class TestCapacityGap:
    def test_margin_positive_large_k(self):
        rng = np.random.default_rng(5)
        for zdb in (0.0, 30.0):
            ch = model.draw_channel(100, 2, rng)
            holds, margin = analysis.capacity_gap_check(ch, 10.0 ** (zdb / 10.0), 1.0)
            assert holds and margin > 0

    def test_low_power_margin_approaches_one(self):
        rng = np.random.default_rng(7)
        ch = model.draw_channel(100, 2, rng)
        _, margin = analysis.capacity_gap_check(ch, 1e-12, 1.0)
        assert margin == pytest.approx(1.0, abs=1e-3)

    def test_small_k_reported_not_asserted(self):
        """The bound needs large K; at K=4 the margin is only reported."""
        rng = np.random.default_rng(9)
        ch = model.draw_channel(4, 2, rng)
        holds, margin = analysis.capacity_gap_check(ch, 10.0, 1.0)
        assert isinstance(holds, bool) and np.isfinite(margin)


class TestRateReport:
    def test_fields_consistent(self):
        rng = np.random.default_rng(11)
        ch = model.draw_channel(8, 2, rng)
        rep = analysis.rate_report(ch, 2.0, 1.0)
        assert rep.r_pair.shape == (4,)
        assert rep.r_total == pytest.approx(np.sum(rep.r_pair) / 5.0, rel=1e-12)
        assert rep.gap == pytest.approx(rep.c_miso - rep.r_total, rel=1e-12)
        assert rep.c_sum_h > rep.c_miso  # shared mapping: sum h^2 > sum g^2


class TestFanoBound:
    def test_error_free(self):
        assert analysis.fano_rate_lower_bound(0.0, 2) == pytest.approx(2.0)

    def test_half_error_four_pam(self):
        """(1 - 0.5) log2(4) - H(0.5) = 1 - 1 = 0."""
        assert analysis.fano_rate_lower_bound(0.5, 2) == pytest.approx(0.0, abs=1e-15)

    def test_clamped_at_zero(self):
        assert analysis.fano_rate_lower_bound(0.9, 1) == 0.0

    def test_binary_entropy_edges(self):
        assert analysis.binary_entropy(0.0) == 0.0
        assert analysis.binary_entropy(1.0) == 0.0
        assert analysis.binary_entropy(0.5) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            analysis.binary_entropy(1.5)


class TestPeUpperBound:
    def test_zero_distance(self):
        assert analysis.pe_upper_bound(0.0, 1.0) == 1.0

    def test_inversion(self):
        s2 = 0.7
        d2 = 8.0 * s2 * np.log(100.0)
        assert analysis.pe_upper_bound(d2, s2) == pytest.approx(0.01, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            analysis.pe_upper_bound(-1.0, 1.0)


class TestDminExhaustive:
    def test_degenerate_integer_channel_has_ghost(self):
        """h=1, antipodal alphabet, s=(1,1), beta=1: y=(2,0).

        Brute force over the three wrong candidates gives squared weights
        {0, 8, 8}: the integer channel is one of the measure-zero
        realizations where the minimum distance collapses to zero.
        """
        const = model.build_constellation(1.0, 1)
        y = np.array([2.0, 0.0])
        expected = {}
        for sa in const.points:
            for sb in const.points:
                if (sa, sb) == (1.0, 1.0):
                    continue
                v = np.array([sa, sb])
                expected[(sa, sb)] = ((y - v) @ v) ** 2 / (v @ v)
        assert expected[(1.0, -1.0)] == pytest.approx(0.0, abs=1e-12)
        assert expected[(-1.0, 1.0)] == pytest.approx(8.0)
        assert expected[(-1.0, -1.0)] == pytest.approx(8.0)
        d2 = analysis.dmin_exhaustive((1.0, 1.0), 1.0, 1.0, const)
        assert d2 == pytest.approx(min(expected.values()), abs=1e-12)

    def test_matches_loop_oracle(self):
        """Vectorized prober equals a plain-loop enumeration exactly."""
        rng = np.random.default_rng(13)
        const = model.constellation_for_power(1.0, 2)
        for _ in range(50):
            h = float(model._signed_rayleigh(rng, ()))
            s = const.draw(rng, size=2)
            beta = float(rng.normal(1.0, 2.0))
            y = np.array([h * (s[0] + beta * s[1]), h * (s[1] - beta * s[0])])
            best = np.inf
            for sa in const.points:
                for sb in const.points:
                    if sa == s[0] and sb == s[1]:
                        continue
                    v = np.array([h * sa, h * sb])
                    w = abs((y - v) @ v) / np.linalg.norm(v)
                    best = min(best, w**2)
            got = analysis.dmin_exhaustive((s[0], s[1]), beta, h, const)
            np.testing.assert_allclose(got, best, rtol=1e-9, atol=1e-15)

    def test_positive_on_continuous_channels(self):
        """Generic draws keep the minimum distance strictly positive."""
        rep = analysis.dmin_probe(8, 100_000, np.random.default_rng(17), k=4)
        assert rep.floor > 0.0
        assert rep.samples == 100_000

    def test_report_statistics(self):
        rep = analysis.DminReport(q_s=2, samples=4, dmin2_scaled=np.array([4.0, 1.0, 9.0, 16.0]))
        assert rep.floor == 1.0
        assert rep.median == pytest.approx(6.5)


class TestDofSlope:
    def test_constellation_scaling_rule(self):
        assert analysis.constellation_size_for_power(1e6, 0.1) == 22
        assert analysis.constellation_size_for_power(1e2, 0.1) == 3
        assert analysis.constellation_size_for_power(10.0, 0.999) == 1
        with pytest.raises(ValueError):
            analysis.constellation_size_for_power(1e6, 0.0)

    def test_ratio_nondecreasing_over_decades(self):
        rng = np.random.default_rng(19)
        pts = analysis.dof_slope([1e2, 1e3, 1e4, 1e5], 0.1, trials=3000, rng=rng, k=4)
        ratios = [pt.ratio for pt in pts]
        stderr = 0.03
        assert all(b >= a - 2 * stderr for a, b in zip(ratios, ratios[1:]))

    def test_pinned_alphabet_gives_vanishing_slope(self):
        """epsilon near one pins q_s = 1, whose rate cannot scale with P."""
        rng = np.random.default_rng(23)
        pts = analysis.dof_slope([1e6], 0.999, trials=2000, rng=rng, k=4)
        assert pts[0].q_s == 1
        assert pts[0].ratio < 0.15

    @pytest.mark.parametrize("p_grid", [[1.0, 10.0], [0.1, 100.0], [float("nan")]])
    def test_rejects_powers_at_or_below_0db(self, p_grid):
        """The ratio divides by (1/2) log2 P, which is zero at P = 1 and negative below."""
        with pytest.raises(ValueError, match="0 dB"):
            analysis.dof_slope(p_grid, 0.1, trials=10, rng=np.random.default_rng(0))

    def test_growth_slope_regression(self):
        pts = [
            analysis.DofPoint(p=10.0**d, q_s=2, pe=0.0, fano_bound=0.45 * 0.5 * np.log2(10.0**d))
            for d in range(2, 7)
        ]
        assert analysis.dof_growth_slope(pts) == pytest.approx(0.45, rel=1e-12)


class TestCovarianceForms:
    def test_conditional_matches_monte_carlo(self):
        """Closed-form conditional covariance entries agree with sampling."""
        rng = np.random.default_rng(29)
        k, p, s2 = 6, 3.0, 0.7
        const = model.constellation_for_power(p, 2)
        hp = float(model._signed_rayleigh(rng, ()))
        g_int = model._signed_rayleigh(rng, k - 2)
        ch = model.ChannelRealization(h=np.concatenate([[hp, hp], g_int]), g=np.ones(2))
        s1, s2sym = const.points[3], const.points[0]
        ratio = s1 / s2sym
        n = 400_000
        intf = const.draw(rng, size=(n, k - 2)) @ g_int
        y1 = hp * (s1 + s2sym) + intf + rng.normal(0, np.sqrt(s2), n)
        beta = 1.0 + intf / (hp * s2sym)
        y2 = hp * s2sym - beta * hp * s1 + rng.normal(0, np.sqrt(s2), n)
        emp = np.cov(np.stack([y1, y2]))
        theo = analysis.cov_conditional(ch, p, s2, 1, ratio=ratio)
        np.testing.assert_allclose(emp, theo, rtol=0.02, atol=0.02 * np.abs(theo).max())

    def test_unconditional_exact_at_unit_half_size(self):
        """With q_s = 1 the alphabet has s1^2 = s2^2, where the diagonal
        unconditional form holds exactly; larger alphabets only match the
        first diagonal entry and the zero off-diagonal."""
        rng = np.random.default_rng(31)
        k, p, s2 = 6, 2.0, 0.5
        const = model.constellation_for_power(p, 1)
        hp = float(model._signed_rayleigh(rng, ()))
        g_int = model._signed_rayleigh(rng, k - 2)
        ch = model.ChannelRealization(h=np.concatenate([[hp, hp], g_int]), g=np.ones(2))
        n = 400_000
        sp = const.draw(rng, size=(n, 2))
        intf = const.draw(rng, size=(n, k - 2)) @ g_int
        y1 = hp * (sp[:, 0] + sp[:, 1]) + intf + rng.normal(0, np.sqrt(s2), n)
        beta = 1.0 + intf / (hp * sp[:, 1])
        y2 = hp * sp[:, 1] - beta * hp * sp[:, 0] + rng.normal(0, np.sqrt(s2), n)
        emp = np.cov(np.stack([y1, y2]))
        theo = analysis.cov_unconditional(ch, p, s2)
        np.testing.assert_allclose(emp, theo, rtol=0.02, atol=0.02 * theo[0, 0])
