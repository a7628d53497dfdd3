"""Tests for rates, capacity, error bounds, and the empirical probers."""

import tracemalloc

import numpy as np
import pytest

from idsim import analysis, core, harness, model


class TestCapacity:
    def test_half_bit_at_unit_snr(self):
        assert analysis.capacity_miso(np.array([1.0, 0.0]), 1.0) == pytest.approx(0.5)

    def test_doubling_power_adds_half_bit_at_high_snr(self):
        g = np.array([0.8, 1.3])
        c1 = analysis.capacity_miso(g, 1e6)
        c2 = analysis.capacity_miso(g, 2e6)
        assert c2 - c1 == pytest.approx(0.5, abs=1e-6)

    def test_invalid(self):
        with pytest.raises(ValueError):
            analysis.capacity_miso(np.ones(2), 0.0)


class TestPairRate:
    def test_k2_reduces_to_full_log(self):
        """Without interferers both observations are fully informative. At
        noise variance s2 the rate is the unit-noise one at power p / s2."""
        h = np.array([0.9, -1.4])
        p, s2 = 3.0, 0.5
        expected = np.log2(1.0 + p * np.sum(h**2) / s2)
        assert analysis.rate_pair_gaussian(h, p / s2, 1) == pytest.approx(expected, rel=1e-12)

    def test_vanishing_power(self):
        assert analysis.rate_pair_gaussian(np.ones(4), 1e-15, 1) == pytest.approx(0.0, abs=1e-12)

    def test_log_det_identity(self):
        """Closed form equals the determinant route on random instances. At
        noise variance s2 the rate is the unit-noise one at p / s2, and each
        covariance is s2 times the unit-noise one."""
        rng = np.random.default_rng(101)
        for _ in range(1000):
            k = int(rng.integers(2, 9))
            (h,), _ = model.draw_channels(k, k, 1, rng)
            p = float(10.0 ** rng.uniform(-2, 3))
            s2 = float(10.0 ** rng.uniform(-2, 1))
            m = int(rng.integers(1, core.num_pairs(k) + 1))
            closed = analysis.rate_pair_gaussian(h, p / s2, m)
            det_u = np.linalg.det(s2 * analysis.cov_unconditional(h, p / s2))
            det_c = np.linalg.det(s2 * analysis.cov_conditional(h, p / s2, m, ratio=1.0))
            direct = 0.5 * np.log2(det_u) - 0.5 * np.log2(det_c)
            np.testing.assert_allclose(closed, direct, rtol=1e-10)


class TestTotalRate:
    def test_k2_is_half_pair_rate(self):
        h = np.array([1.1, 0.4])
        pair = analysis.rate_pair_gaussian(h, 2.0, 1)
        assert analysis.rate_total(h, 2.0) == pytest.approx(pair / 2.0, rel=1e-12)

    def test_large_k_approaches_pair_rate(self):
        """With many equal pairs the per-use rate approaches the pair rate."""
        rng = np.random.default_rng(3)
        (h,), _ = model.draw_channels(200, 2, 1, rng)
        r_tot = analysis.rate_total(h, 1.0)
        r_pairs = [analysis.rate_pair_gaussian(h, 1.0, m) for m in range(1, 101)]
        assert r_tot == pytest.approx(np.mean(r_pairs) * 100 / 101, rel=1e-12)


class TestCapacityGap:
    def test_margin_positive_large_k(self):
        rng = np.random.default_rng(5)
        for zdb in (0.0, 30.0):
            margin = analysis.capacity_gap_margin(*model.draw_channels(100, 2, 1, rng), 10.0 ** (zdb / 10.0))
            assert margin > 0

    def test_low_power_margin_approaches_one(self):
        rng = np.random.default_rng(7)
        margin = analysis.capacity_gap_margin(*model.draw_channels(100, 2, 1, rng), 1e-12)
        assert margin == pytest.approx(1.0, abs=1e-3)

    def test_small_k_reported_not_asserted(self):
        """The bound needs large K; at K=4 the margin is only reported."""
        rng = np.random.default_rng(9)
        margin = analysis.capacity_gap_margin(*model.draw_channels(4, 2, 1, rng), 10.0)
        assert np.isfinite(margin)

    def test_k2_margin_is_at_least_half_a_bit(self):
        """At K = 2, R = (1/2) log2(1 + P G) and C = (1/2) log2(1 + 2 P G) on
        the same gains G = sum g^2, so C - R = (1/2) log2((1 + 2PG) / (1 + PG))
        < 1/2 and the margin 1 - (C - R) exceeds 1/2 at every power. Checked
        every 5 dB across the whole SNR range, up to 300 dB, where the margin
        reaches 1/2 in double precision. Rounding allowance 1e-12: each log2
        term is below 120 bits there, so each rounds by under 1e-13."""
        lo, hi = harness.SNR_DB_RANGE
        h, g = model.draw_channels(2, 2, 2000, np.random.default_rng(17))
        margins = np.array([analysis.capacity_gap_margin(h, g, 10.0 ** (zdb / 10.0))
                            for zdb in np.arange(lo, hi + 5.0, 5.0)])
        assert margins.min() >= 0.5 - 1e-12
        assert np.all(margins[-1] <= 0.5 + 1e-12)

    @pytest.mark.parametrize("gains", [(0.8, 1.3), (-1.7, 0.2)])
    @pytest.mark.parametrize("k", [3, 4, 6, 10])
    def test_pre_log_is_m_over_m_plus_one(self, gains, k):
        """For K >= 3 every pair's rate is log2(1 + P S) - (1/2) log2(1 + 2 P S_m)
        with S_m > 0, so it grows as one (1/2) log2 P, and ``rate_total``
        spreads the M = ceil(K/2) pairs over M + 1 uses: its slope against
        (1/2) log2 P, the capacity's, tends to M / (M + 1). Measured between
        60 and 90 dB on fixed gains g (K > 2 symbols share the two antennas).
        Tolerance, from the channel, not fitted: the terms log2(1 + 1/(P a))
        left over, 0 to 1/(P a ln 2), move the slope by at most
        sum_m (1/S + 1/(4 S_m)) / (P_60 ln 2 (M + 1) dx), dx the 60-90 dB
        step in (1/2) log2 P, plus 1e-12 for rounding."""
        m = core.num_pairs(k)
        h = np.array(gains)[model.symbol_antenna_map(k, 2)]
        p_lo, p_hi = 1e6, 1e9
        dx = 0.5 * np.log2(p_hi / p_lo)
        slope = (analysis.rate_total(h, p_hi) - analysis.rate_total(h, p_lo)) / dx
        s_all = np.sum(h**2)
        left = sum(1.0 / s_all + 1.0 / (4.0 * core.out_of_pair_sum(h**2, j)) for j in range(1, m + 1))
        tol = left / (p_lo * np.log(2.0) * (m + 1) * dx) + 1e-12
        assert tol < 1e-5
        assert abs(slope - m / (m + 1)) <= tol

    def test_batch_rows_match_single_channels(self):
        """A (count, K) batch gives each row the margin of that channel alone."""
        h, g = model.draw_channels(100, 2, 50, np.random.default_rng(13))
        batch = analysis.capacity_gap_margin(h, g, 10.0)
        assert batch.shape == (50,)
        single = [analysis.capacity_gap_margin(h[i], g[i], 10.0) for i in range(50)]
        np.testing.assert_allclose(batch, single, rtol=1e-13)


class TestRateReport:
    def test_fields_consistent(self):
        """Eight symbols: four pair rates over five uses, and a symbol-gain
        capacity above the antenna-gain one under the shared mapping."""
        rng = np.random.default_rng(11)
        (h,), (g,) = model.draw_channels(8, 2, 1, rng)
        r_pair = [analysis.rate_pair_gaussian(h, 2.0, m) for m in range(1, core.num_pairs(8) + 1)]
        assert len(r_pair) == 4
        assert analysis.rate_total(h, 2.0) == pytest.approx(np.sum(r_pair) / 5.0, rel=1e-12)
        assert analysis.capacity_miso(h, 4.0) > analysis.capacity_miso(g, 4.0)


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
        assert analysis.pe_upper_bound(0.0) == 1.0

    def test_inversion(self):
        """At noise variance s2 the bound is the unit-noise one at d2 / s2."""
        s2 = 0.7
        d2 = 8.0 * s2 * np.log(100.0)
        assert analysis.pe_upper_bound(d2 / s2) == pytest.approx(0.01, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            analysis.pe_upper_bound(-1.0)


class TestDminExhaustive:
    def test_degenerate_integer_channel_has_ghost(self):
        """h=1, antipodal alphabet, s=(1,1), beta=1: y=(2,0).

        Brute force over the three wrong candidates gives squared weights
        {0, 8, 8}: the integer channel is one of the measure-zero
        realizations where the minimum distance collapses to zero.
        """
        const = model.PamConstellation(1.0, 1)
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
        d2 = analysis.dmin_batch(np.array([[1.0, 1.0]]), np.zeros(1), np.ones(1), const)
        assert d2[0] == pytest.approx(min(expected.values()), abs=1e-12)

    def test_matches_loop_oracle(self):
        """Vectorized prober equals a plain-loop enumeration exactly."""
        rng = np.random.default_rng(13)
        const = model.constellation_for_power(1.0, 2)
        draws = []
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
            draws.append((h, s, (beta - 1.0) * h * s[1], best))
        h, s, interference, best = (np.array(col) for col in zip(*draws))
        got = analysis.dmin_batch(s, interference, h, const)
        np.testing.assert_allclose(got, best, rtol=1e-9, atol=1e-15)

    def test_blocks_bound_the_allocation(self):
        """At q_s = 64 (C = 16384) one (n, C) float64 array of 256 rows is
        32 MiB. dmin_batch scores its rows in ``core.row_blocks``, 2 rows at
        a time here, so its peak allocation stays under 2 MiB, and its
        values are the direct minimum over every candidate but the true pair."""
        rng = np.random.default_rng(19)
        const = model.constellation_for_power(1.0, 64)
        cands = core.candidate_pairs(const)
        n = 256
        h = model._signed_rayleigh(rng, n)
        s = const.draw(rng, size=(n, 2))
        interference = rng.normal(size=n)
        tracemalloc.start()
        try:
            d2 = analysis.dmin_batch(s, interference, h, const)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        m = 9
        _, y = core.dissolve(np.stack([h[:m], h[:m]], axis=-1), s[:m], interference[:m])
        v = h[:m, None, None] * cands
        w2 = np.sum((y[:, None, :] - v) * v, axis=-1) ** 2 / np.sum(v * v, axis=-1)
        w2[np.all(cands == s[:m, None, :], axis=-1)] = np.inf
        np.testing.assert_allclose(d2[:m], np.min(w2, axis=1), rtol=1e-9)

    @staticmethod
    def _dmin_inputs(seed, n, q_s):
        rng = np.random.default_rng(seed)
        const = model.constellation_for_power(1.0, q_s)
        h = model._signed_rayleigh(rng, n)
        return const.draw(rng, size=(n, 2)), rng.normal(size=n), h, const

    def test_same_values_at_every_block_size(self, monkeypatch):
        """Blocks of 2 and 3 rows (C = 256), the last one partial, give the
        default's floors to the last bit. Blocks of one row agree to 1e-12:
        numpy scores a one-row block by a matrix-vector product, whose
        rounding differs from the matrix product's in the last bits."""
        args = self._dmin_inputs(23, 50, 8)
        got = []
        for block_values in (7, 512, 1000, core.BLOCK_VALUES):
            monkeypatch.setattr(core, "BLOCK_VALUES", block_values)
            got.append(analysis.dmin_batch(*args))
        np.testing.assert_array_equal(got[1], got[3])
        np.testing.assert_array_equal(got[2], got[3])
        np.testing.assert_allclose(got[0], got[3], rtol=1e-12, atol=0)

    def test_repeat_call_allocates_no_block_buffer(self):
        """A second dmin_batch of 256 rows at q_s = 64 (C = 16384) scores into
        the first call's block buffers and builds the candidate squares once.
        Its peak stays under 768 KiB: the (C, 2) candidate pairs and their
        squares, 256 KiB each, plus one (2, C) float64 block buffer, where
        every block allocated two of them before."""
        args = self._dmin_inputs(29, 256, 64)
        analysis.dmin_batch(*args)
        tracemalloc.start()
        try:
            analysis.dmin_batch(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 * (2 * 64) ** 2 * 8

    def test_blocks_share_buffers_and_one_memo(self, monkeypatch):
        """Every block, of this call and the next, is scored into the same
        buffers, and the blocks of a call share one ``memo``, which holds one
        set of candidate operands; the next call gets a fresh one."""
        args = self._dmin_inputs(31, 100, 8)
        weight_matrix = core.weight_matrix
        calls = []

        def recording(*a, out, memo):
            calls.append((out, memo))
            return weight_matrix(*a, out=out, memo=memo)

        monkeypatch.setattr(core, "BLOCK_VALUES", 1000)
        monkeypatch.setattr(core, "weight_matrix", recording)
        np.testing.assert_array_equal(analysis.dmin_batch(*args), analysis.dmin_batch(*args))
        blocks = len(calls) // 2
        assert blocks == -(-100 // (1000 // 256)) and len(calls) == 2 * blocks
        for call in (calls[:blocks], calls[blocks:]):
            memo = call[0][1]
            assert len(memo) == 1 and all(m is memo for _, m in call)
            for out, _ in call:
                for buf, buf0 in zip(out, calls[0][0]):
                    assert buf.__array_interface__["data"] == buf0.__array_interface__["data"]
        assert calls[0][1] is not calls[blocks][1]

    def test_positive_on_continuous_channels(self):
        """Generic draws keep the minimum distance strictly positive."""
        const = model.constellation_for_power(1.0, 8)
        d2 = analysis.dmin_probe(const, 100_000, np.random.default_rng(17), k=4)
        assert d2.shape == (100_000,)
        assert np.min(d2) > 0.0


class TestDofSlope:
    def test_constellation_scaling_rule(self):
        assert analysis.constellation_size_for_power(1e6, 0.1) == 22
        assert analysis.constellation_size_for_power(1e2, 0.1) == 3
        assert analysis.constellation_size_for_power(10.0, 0.999) == 1
        with pytest.raises(ValueError):
            analysis.constellation_size_for_power(1e6, 0.0)
        for p in (1.0, 0.5, float("nan")):
            with pytest.raises(ValueError, match="0 dB"):
                analysis.constellation_size_for_power(p, 0.1)

    def test_one_law_for_both_dof_claims(self):
        """The pair's law at 1/2 DoF is round(P^((1-eps)/4)) bit for bit,
        and multicast's s3 law at one DoF is round(P^((1-eps)/2))."""
        rng = np.random.default_rng(31)
        for p, eps in zip(10.0 ** rng.uniform(0.01, 9.0, 2000), rng.uniform(1e-6, 1.0 - 1e-6, 2000)):
            assert analysis.constellation_size_for_power(p, eps) == max(1, int(round(p ** ((1.0 - eps) / 4.0))))
            assert analysis.constellation_size_for_power(p, eps, dof=1) == max(1, int(round(p ** ((1.0 - eps) / 2.0))))
        assert analysis.constellation_size_for_power(1e6, 0.2, dof=1) == 251

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

    @pytest.mark.parametrize("p_grid", [[1e6, 1e5, 1e4, 1e3, 1e2], [1e2, 1e2], [1e2, 1e4, 1e3]])
    def test_rejects_a_grid_that_does_not_strictly_increase(self, p_grid):
        """The slope is fitted over the last grid points, which must be the top
        ones; the grid is rejected before any draw."""
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="strictly increasing"):
            analysis.dof_slope(p_grid, 0.1, trials=10, rng=rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_growth_slope_regression(self):
        pts = [
            analysis.DofPoint(p=10.0**d, q_s=2, pe=0.0, fano_bound=0.45 * 0.5 * np.log2(10.0**d))
            for d in range(2, 7)
        ]
        assert analysis.dof_growth_slope(pts) == pytest.approx(0.45, rel=1e-12)


class TestProbersSumThroughCore:
    """Both probers take their interference from ``core.out_of_pair_sum``,
    once per chunk of draws; a frame without interferers takes none."""

    @staticmethod
    def _count_calls(monkeypatch) -> list:
        calls = []
        out_of_pair_sum = core.out_of_pair_sum

        def counted(x, m):
            calls.append((x.shape, m))
            return out_of_pair_sum(x, m)

        monkeypatch.setattr(core, "out_of_pair_sum", counted)
        return calls

    def test_dof_slope(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        trials = analysis.DOF_CHUNK + 1
        analysis.dof_slope([1e2, 1e3], 0.1, trials=trials, rng=np.random.default_rng(5), k=4)
        assert calls == [((analysis.DOF_CHUNK, 4), 1), ((1, 4), 1)] * 2

    def test_dof_slope_without_interferers(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        analysis.dof_slope([1e2, 1e3], 0.1, trials=analysis.DOF_CHUNK + 1, rng=np.random.default_rng(5), k=2)
        assert calls == []

    def test_dmin_probe(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        const = model.constellation_for_power(100.0, 2)
        analysis.dmin_probe(const, analysis.DMIN_CHUNK + 1, np.random.default_rng(5), k=4)
        assert calls == [((analysis.DMIN_CHUNK, 4), 1), ((1, 4), 1)]


class TestCovarianceForms:
    def test_conditional_matches_monte_carlo(self):
        """Closed-form conditional covariance entries agree with sampling."""
        rng = np.random.default_rng(29)
        k, p, s2 = 6, 3.0, 0.7
        const = model.constellation_for_power(p, 2)
        hp = float(model._signed_rayleigh(rng, ()))
        g_int = model._signed_rayleigh(rng, k - 2)
        h = np.concatenate([[hp, hp], g_int])
        s1, s2sym = const.points[3], const.points[0]
        ratio = s1 / s2sym
        n = 400_000
        intf = const.draw(rng, size=(n, k - 2)) @ g_int
        y1 = hp * (s1 + s2sym) + intf + rng.normal(0, np.sqrt(s2), n)
        beta = 1.0 + intf / (hp * s2sym)
        y2 = hp * s2sym - beta * hp * s1 + rng.normal(0, np.sqrt(s2), n)
        emp = np.cov(np.stack([y1, y2]))
        theo = s2 * analysis.cov_conditional(h, p / s2, 1, ratio=ratio)
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
        h = np.concatenate([[hp, hp], g_int])
        n = 400_000
        sp = const.draw(rng, size=(n, 2))
        intf = const.draw(rng, size=(n, k - 2)) @ g_int
        y1 = hp * (sp[:, 0] + sp[:, 1]) + intf + rng.normal(0, np.sqrt(s2), n)
        beta = 1.0 + intf / (hp * sp[:, 1])
        y2 = hp * sp[:, 1] - beta * hp * sp[:, 0] + rng.normal(0, np.sqrt(s2), n)
        emp = np.cov(np.stack([y1, y2]))
        theo = s2 * analysis.cov_unconditional(h, p / s2)
        np.testing.assert_allclose(emp, theo, rtol=0.02, atol=0.02 * theo[0, 0])
