"""Tests for constellations, channel draws, noise, and power accounting."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idsim
from idsim import core, harness, model, multicast

SEED_MOMENTS = 2001
SEED_REPRO = 77


def nearest_reference(const, x):
    """The slicer's earlier formula, kept as its oracle: the level
    ceil(t - 0.5), t = x / a_s, clipped to [1, q_s] where t > 0 and to
    [-q_s, -1] elsewhere, times a_s."""
    t = np.asarray(x, dtype=float) / const.a_s
    level = np.ceil(t - 0.5)
    level = np.where(t > 0, np.clip(level, 1, const.q_s), np.clip(level, -const.q_s, -1))
    return const.a_s * level


def signed_rayleigh_reference(rng, size):
    """``_signed_rayleigh``'s earlier formula, kept as its oracle: the same
    draws, with the sign applied as mag * (2b - 1) in int64 arithmetic."""
    mag = rng.rayleigh(scale=model._RAYLEIGH_SCALE, size=size)
    bad = mag < model.EPS_GAIN
    while np.any(bad):
        mag[bad] = rng.rayleigh(scale=model._RAYLEIGH_SCALE, size=int(bad.sum()))
        bad = mag < model.EPS_GAIN
    return mag * (rng.integers(0, 2, size=size) * 2 - 1)


def same_bits(a, b) -> bool:
    """Equal values and sign bits, element by element (and equal shapes)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestPamConstellation:
    def test_smallest_alphabet(self):
        """a_s=1, q_s=1 gives the antipodal pair {-1, +1}."""
        const = model.PamConstellation(1.0, 1)
        np.testing.assert_array_equal(const.points, [-1.0, 1.0])

    def test_four_pam(self):
        """a_s=1, q_s=2 is 4-PAM with zero excluded."""
        const = model.PamConstellation(1.0, 2)
        np.testing.assert_array_equal(const.points, [-2.0, -1.0, 1.0, 2.0])
        assert len(const.points) == 4

    def test_power_direct_sum(self):
        """Power formula matches the direct sum for a_s=0.5, q_s=3."""
        const = model.PamConstellation(0.5, 3)
        direct = np.mean(const.points**2)
        assert direct == pytest.approx(7.0 / 6.0, rel=1e-15)
        assert const.power == pytest.approx(direct, rel=1e-15)

    @given(a_s=st.floats(0.01, 100.0), q_s=st.integers(1, 64))
    def test_power_identity(self, a_s, q_s):
        """Closed form equals the alphabet average for all tested sizes."""
        const = model.PamConstellation(a_s, q_s)
        np.testing.assert_allclose(const.power, np.mean(const.points**2), rtol=1e-12)

    def test_symmetry_and_extremes(self):
        const = model.PamConstellation(0.7, 5)
        assert np.mean(const.points) == pytest.approx(0.0, abs=1e-15)
        assert 0.0 not in const.points
        assert np.min(np.abs(const.points)) == pytest.approx(0.7)
        assert np.max(np.abs(const.points)) == pytest.approx(3.5)

    @pytest.mark.parametrize("a_s,q_s", [(0.0, 2), (-1.0, 2), (1.0, 0), (1.0, -3)])
    def test_invalid_parameters(self, a_s, q_s):
        with pytest.raises(ValueError):
            model.PamConstellation(a_s, q_s)

    def test_nearest_is_alphabet_point(self):
        const = model.PamConstellation(1.0, 2)
        assert const.nearest(3.7) == 2.0
        assert const.nearest(-0.2) == -1.0
        got = const.nearest(np.array([0.4, -5.0]))
        np.testing.assert_array_equal(got, [1.0, -2.0])

    @staticmethod
    def nearest_by_argmin(const, x):
        """Reference: the alphabet point at the smallest |x - point|, the lower on a tie."""
        pts = const.points
        return pts[np.abs(np.asarray(x)[..., None] - pts).argmin(axis=-1)]

    @pytest.mark.parametrize("a_s", [1.0, 0.5, 0.37, 3.1e-3, 41.0])
    @pytest.mark.parametrize("q_s", [1, 2, 8, 32])
    def test_nearest_matches_argmin_on_random_inputs(self, a_s, q_s):
        const = model.PamConstellation(a_s, q_s)
        x = np.random.default_rng([q_s, 7]).normal(scale=1.5 * a_s * q_s, size=4000)
        x[:2] = [0.0, -0.0]
        got = const.nearest(x)
        np.testing.assert_array_equal(got, self.nearest_by_argmin(const, x))
        assert np.isin(got, const.points).all()

    @pytest.mark.parametrize("a_s", [1.0, 0.5])
    @pytest.mark.parametrize("q_s", [1, 2, 8])
    def test_nearest_ties_match_argmin_at_midpoints(self, a_s, q_s):
        """Every multiple of a_s / 2 out to q_s + 1/2, which holds each midpoint
        between neighbours and 0 between -1 and +1: ties go to the lower point."""
        const = model.PamConstellation(a_s, q_s)
        mids = a_s * np.arange(-2 * q_s - 1, 2 * q_s + 2) / 2.0
        got = const.nearest(mids)
        np.testing.assert_array_equal(got, self.nearest_by_argmin(const, mids))
        np.testing.assert_array_equal(got[mids == 0.0], [-a_s])
        for m in mids:
            assert const.nearest(m) == self.nearest_by_argmin(const, m)

    @pytest.mark.parametrize("a_s", [1.0, 0.37, 3.1e-3, 2.0**600])
    @pytest.mark.parametrize("q_s", [1, 2, 8, 90])
    def test_nearest_is_its_earlier_formula_bit_for_bit(self, a_s, q_s):
        """The in-place slicer gives the earlier formula's values and sign
        bits: at +-0.0, where both give -a_s, at +-5e-324, which a_s > 1
        divides to +-0.0, at +-inf and +-1e300, at every multiple
        of a_s / 2 out to q_s + 1, midpoints included, and on random inputs,
        as arrays of any shape and as scalars. The input is not written."""
        const = model.PamConstellation(a_s, q_s)
        tiny = np.nextafter(0.0, 1.0)
        special = [0.0, -0.0, tiny, -tiny, 2 * tiny, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300]
        grid = a_s * np.arange(-2 * q_s - 2, 2 * q_s + 3) / 2.0
        grid = np.concatenate([grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf)])
        rand = np.random.default_rng([q_s, 11]).normal(scale=2.0 * a_s * q_s, size=3000)
        x = np.concatenate([special, grid, rand])
        kept = x.copy()
        assert same_bits(const.nearest(x), nearest_reference(const, x))
        assert same_bits(x, kept)
        strided = x[: len(x) // 2 * 2].reshape(-1, 2)[::-1].T
        assert same_bits(const.nearest(strided), nearest_reference(const, strided))
        assert same_bits(const.nearest(list(x[:5])), nearest_reference(const, x[:5]))
        for v in special + list(grid[::7]):
            got = const.nearest(v)
            assert isinstance(got, np.float64) and same_bits(got, nearest_reference(const, v))
        assert same_bits([const.nearest(0.0), const.nearest(-0.0)], [-a_s, -a_s])


class TestAmplitudeForPower:
    def test_unit_power_antipodal(self):
        assert model.amplitude_for_power(1.0, 1) == pytest.approx(1.0)

    def test_power_five_four_pam(self):
        """(q_s+1)(2q_s+1) = 15, so p=5 gives a_s = sqrt(2)."""
        assert model.amplitude_for_power(5.0, 2) == pytest.approx(np.sqrt(2.0))

    @given(p=st.floats(1e-3, 1e6), q_s=st.integers(1, 64))
    def test_roundtrip_exact(self, p, q_s):
        """Scaling to power p reproduces p from the alphabet exactly."""
        const = model.constellation_for_power(p, q_s)
        np.testing.assert_allclose(const.power, p, rtol=1e-12)

    def test_large_q_asymptote(self):
        """For large q_s the amplitude approaches sqrt(3p)/q_s."""
        p, q_s = 2.0, 4096
        ratio = model.amplitude_for_power(p, q_s) / (np.sqrt(3.0 * p) / q_s)
        assert ratio == pytest.approx(1.0, rel=1e-3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            model.amplitude_for_power(0.0, 2)
        with pytest.raises(ValueError):
            model.amplitude_for_power(1.0, 0)


class TestChannelDraws:
    def test_reproducible(self):
        a = model.draw_channels(4, 4, 1, np.random.default_rng(SEED_REPRO))
        b = model.draw_channels(4, 4, 1, np.random.default_rng(SEED_REPRO))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_mean_square_gain(self):
        """Sample mean of h^2 over 1e6 draws is 1 within 1%."""
        rng = np.random.default_rng(SEED_MOMENTS)
        h = model._signed_rayleigh(rng, 1_000_000)
        assert np.mean(h**2) == pytest.approx(1.0, abs=0.01)

    def test_signs_balanced(self):
        rng = np.random.default_rng(SEED_MOMENTS)
        h = model._signed_rayleigh(rng, 200_000)
        assert np.mean(h > 0) == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("eps_gain", [model.EPS_GAIN, 0.5])
    @pytest.mark.parametrize("size", [(), 7, (4096, 2), (300, 3)])
    def test_signed_rayleigh_is_its_earlier_formula_bit_for_bit(self, monkeypatch, eps_gain, size):
        """The gains equal mag * (2b - 1) on the same stream, value and sign
        bit, and the stream is left at the same place; a threshold of 0.5
        makes the resampling loop run. Size () gives a scalar."""
        monkeypatch.setattr(model, "EPS_GAIN", eps_gain)
        rng, ref_rng = np.random.default_rng(SEED_REPRO), np.random.default_rng(SEED_REPRO)
        got, ref = model._signed_rayleigh(rng, size), signed_rayleigh_reference(ref_rng, size)
        assert type(got) is type(ref) and same_bits(got, ref)
        assert rng.random() == ref_rng.random()

    def test_deep_fades_resampled(self):
        rng = np.random.default_rng(SEED_MOMENTS)
        h = model._signed_rayleigh(rng, 1_000_000)
        assert np.min(np.abs(h)) >= model.EPS_GAIN

    def test_subvector_mapping(self):
        """With k <= n the symbol gains are the first k antenna gains."""
        (h,), (g,) = model.draw_channels(3, 5, 1, np.random.default_rng(1))
        np.testing.assert_array_equal(h, g[:3])
        assert np.sum(h**2) <= np.sum(g**2)

    def test_shared_antenna_mapping(self):
        """With k > n symbols share antennas block-wise and pairs share gains."""
        (h,), (g,) = model.draw_channels(100, 2, 1, np.random.default_rng(1))
        assert set(h) == set(g)
        np.testing.assert_array_equal(h[:50], np.full(50, g[0]))
        np.testing.assert_array_equal(h[50:], np.full(50, g[1]))
        assert np.sum(h**2) > np.sum(g**2)

    def test_antenna_map_floor_first(self):
        np.testing.assert_array_equal(model.symbol_antenna_map(5, 2), [0, 0, 1, 1, 1])
        np.testing.assert_array_equal(model.symbol_antenna_map(3, 4), [0, 1, 2])

    def test_batched_matches_shapes(self):
        h, g = model.draw_channels(4, 2, 10, np.random.default_rng(0))
        assert h.shape == (10, 4) and g.shape == (10, 2)

    @pytest.mark.parametrize("k,n", [(1, 2), (2, 1)])
    def test_invalid_sizes(self, k, n):
        with pytest.raises(ValueError):
            model.draw_channels(k, n, 1, np.random.default_rng(0))


class TestNoise:
    """The AWGN the multicast sweep adds, one draw per observation."""

    @staticmethod
    def noise(seed, n):
        x = np.zeros((n, 2))
        return multicast.multicast_observe(x, np.ones(n), np.random.default_rng(seed)).ravel()

    def test_unit_variance(self):
        x = self.noise(SEED_MOMENTS, 500_000)
        assert np.var(x) == pytest.approx(1.0, abs=0.01)
        assert np.mean(x) == pytest.approx(0.0, abs=0.01)

    def test_reproducible(self):
        np.testing.assert_array_equal(self.noise(5, 4), self.noise(5, 4))

    def test_invalid_variance(self):
        """The sweeps' noise variance is fixed at one: no config sets it."""
        with pytest.raises(TypeError):
            harness.ExperimentConfig("ser", sigma2=-1.0)

    def test_no_function_takes_a_noise_variance(self):
        """Noise variance is one everywhere: no public function or class of
        any module takes it, and the decoders take no power either; the
        likelihood reads the interferers' power off the alphabet."""
        modules = [importlib.import_module(f"idsim.{m.name}") for m in pkgutil.iter_modules(idsim.__path__)]
        funcs = [
            f
            for mod in modules
            for name, f in vars(mod).items()
            if not name.startswith("_") and getattr(f, "__module__", None) == mod.__name__
            and (inspect.isfunction(f) or (inspect.isclass(f) and not issubclass(f, Exception)))
        ]
        params = {f.__qualname__: inspect.signature(f).parameters for f in funcs}
        for name in ("pair_decode", "frame_decode", "ml_metric_matrix", "weight_matrix", "argmin_metric",
                     "dmin_batch", "multicast_observe", "ExperimentConfig"):
            assert name in params
        assert [name for name, ps in params.items() if "sigma2" in ps] == []
        assert "p" not in params["pair_decode"] and "p" not in params["frame_decode"]


class TestPowerBudget:
    """A grid point's per-symbol power is zeta = 10^(dB / 10) at unit noise variance."""

    def test_from_power(self):
        cfg = harness.ExperimentConfig("ser")
        assert cfg.power_at(10.0 * np.log10(5.0)) == pytest.approx(5.0, rel=1e-14)

    def test_from_zeta_db(self):
        assert harness.ExperimentConfig("ser").power_at(30.0) == pytest.approx(1000.0)


@settings(max_examples=30)
@given(st.integers(0, 2**31 - 1))
def test_channel_draw_determinism_property(seed):
    """Identical seeds give bit-identical channels."""
    a, _ = model.draw_channels(6, 6, 1, np.random.default_rng(seed))
    b, _ = model.draw_channels(6, 6, 1, np.random.default_rng(seed))
    np.testing.assert_array_equal(a, b)
