"""Tests for the sweep harness, CSV schema, and the command-line interface."""

import argparse
import dataclasses
import importlib
import itertools
import mmap
import os
import platform
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import idsim
from idsim import analysis, cli, core, harness, model, multicast
from test_core import _direct_known_beta, _direct_ml, _direct_weight

# The directory idsim was imported from, so that subprocesses run the same
# code whether or not the package is installed.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(idsim.__file__)))


def subprocess_env(env):
    """``env`` with PACKAGE_ROOT first on PYTHONPATH."""
    path = os.pathsep.join(p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return {**env, "PYTHONPATH": path}


def no_fork():
    raise AssertionError("a process was started")


def no_draw(*args, **kwargs):
    raise AssertionError("a channel was drawn")


def no_csv(*args, **kwargs):
    raise AssertionError("a CSV was written")


def small_cfg(**kw):
    base = dict(
        experiment="ser",
        k=2,
        q_s=2,
        zeta_db_grid=[0.0, 10.0],
        trials=2000,
        seed=321,
    )
    base.update(kw)
    return harness.ExperimentConfig(**base)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(experiment="nope"),
            dict(trials=0),
            dict(k=1),
            dict(q_s=0),
            dict(decoder="viterbi"),
            dict(zeta_db_grid=[]),
            dict(zeta_db_grid=[float("nan")]),
            dict(zeta_db_grid=[0.0, float("inf")]),
            dict(zeta_db_grid=[0.0, 300.5]),
            dict(zeta_db_grid=[-100.5]),
        ],
    )
    def test_rejects_bad_config(self, kw):
        with pytest.raises(ValueError):
            small_cfg(**kw)

    def test_negative_seed_is_named(self):
        """numpy's streams take no negative seed: the config says so before
        a worker is forked, naming the seed."""
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            small_cfg(seed=-1)


class TestSerSweep:
    def test_csv_bit_identical_for_same_seed(self):
        a = harness.rows_to_csv(harness.run_ser_sweep(small_cfg()))
        b = harness.rows_to_csv(harness.run_ser_sweep(small_cfg()))
        assert a == b

    def test_seed_changes_results(self):
        a = harness.rows_to_csv(harness.run_ser_sweep(small_cfg()))
        b = harness.rows_to_csv(harness.run_ser_sweep(small_cfg(seed=322)))
        assert a != b

    def test_stderr_column_binomial(self):
        rows = harness.run_ser_sweep(small_cfg())
        for r in rows:
            expect = np.sqrt(r.ser * (1 - r.ser) / r.trials)
            assert r.ser_stderr == pytest.approx(expect, rel=1e-12)

    def test_chunk_order_invariance(self):
        """Accumulating per-chunk error counts in reverse order reproduces
        the sweep: aggregation is a plain sum over keyed streams."""
        cfg = small_cfg(zeta_db_grid=[10.0], trials=3 * harness.CHUNK // 2)
        row = [r for r in harness.run_ser_sweep(cfg) if r.scheme == "id_weight"][0]
        p = cfg.power_at(10.0)
        const = model.constellation_for_power(p, cfg.q_s)
        sizes = [harness.CHUNK, cfg.trials - harness.CHUNK]
        errors = 0
        for chunk_idx in reversed(range(len(sizes))):
            rng = harness._rng(cfg, 0, chunk_idx)
            h, _, s, _, y = harness._id_frame_batch(cfg, const, sizes[chunk_idx], rng)
            hat = harness._id_decode_batch(cfg, const, h, y)
            errors += int(np.sum(hat[:, 0] != s[:, 0]) + np.sum(hat[:, 1] != s[:, 1]))
        assert errors / (2 * cfg.trials) == pytest.approx(row.ser, rel=1e-12)

    def test_second_use_power_logged(self):
        rows = harness.run_ser_sweep(small_cfg())
        id_rows = [r for r in rows if r.scheme == "id_weight"]
        assert all(r.tx_power_use2 is not None and r.tx_power_use2 > 0 for r in id_rows)
        mrc_rows = [r for r in rows if r.scheme == "mrc_miso"]
        assert all(r.tx_power_use2 is None for r in mrc_rows)

    def test_ml_decoder_scheme_name(self):
        rows = harness.run_ser_sweep(small_cfg(decoder=core.ML))
        assert any(r.scheme == "id_ml" for r in rows)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("decoder", [core.WEIGHT, core.ML])
    @pytest.mark.parametrize("q_s", [1, 2, 8])
    def test_rows_match_a_written_out_reference_chunk(self, k, decoder, q_s, monkeypatch):
        """Each grid point's rows, one chunk of frames, are the error counts
        and second-use power of the model written out on that chunk's stream:
        every scheme's name, order, symbol count and errors."""
        monkeypatch.setattr(harness, "usable_cores", lambda: 1)
        grid = [0.0, 10.0, 20.0]
        cfg = small_cfg(k=k, q_s=q_s, decoder=decoder, zeta_db_grid=grid, trials=600)
        rows = harness.run_ser_sweep(cfg)
        assert len(rows) == 3 * len(grid)
        errors = np.zeros(3, dtype=int)
        for zi, zdb in enumerate(grid):
            schemes, power2 = _reference_ser_chunk(cfg, zdb, harness._rng(cfg, zi, 0))
            got = rows[3 * zi : 3 * zi + 3]
            assert [(r.scheme, r.zeta_db, r.trials, r.ser) for r in got] == [
                (name, zdb, symbols, err / symbols) for name, symbols, err in schemes
            ]
            assert got[0].tx_power_use2 == pytest.approx(power2 / cfg.trials, rel=1e-12)
            assert got[1].tx_power_use2 is None and got[2].tx_power_use2 is None
            errors += [err for _, _, err in schemes]
        assert np.all(errors > 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_appended_scheme_moves_no_earlier_row(self, workers, monkeypatch):
        """A scheme appended to ``SER_SCHEMES`` draws from each chunk's stream
        after the others, so every other row keeps its bytes; its row comes
        last at each grid point, over ``trials`` symbols, with no second-use
        power."""
        monkeypatch.setattr(harness, "usable_cores", lambda: workers)
        cfg = small_cfg(k=3, trials=5 * harness.CHUNK // 2)
        before = harness.rows_to_csv(harness.run_ser_sweep(cfg)).splitlines()

        def draws_and_errs_nowhere(cfg, point, frame, rng):
            rng.standard_normal(len(frame[0]))
            return 0

        schemes = (*harness.SER_SCHEMES, ("appended", 1, draws_and_errs_nowhere))
        monkeypatch.setattr(harness, "SER_SCHEMES", schemes)
        after = harness.rows_to_csv(harness.run_ser_sweep(cfg)).splitlines()
        assert len(after) == 1 + len(schemes) * len(cfg.zeta_db_grid)
        assert [line for line in after if ",appended," not in line] == before
        appended = [dict(zip(harness.CSV_COLUMNS, line.split(","))) for line in after[len(schemes) :: len(schemes)]]
        assert [row["scheme"] for row in appended] == ["appended"] * len(cfg.zeta_db_grid)
        assert all(row["trials"] == str(cfg.trials) and row["tx_power_use2"] == "" for row in appended)


def _reference_ser_chunk(cfg, zdb, rng):
    """One ``ser`` chunk of ``cfg.trials`` frames at ``zdb`` written out from
    the model, drawn from ``rng`` in the chunk's order: each scheme's (name,
    symbols, errors), in row order, and the sum of second-use powers.

    Pair 1 is observed as y = v + beta v_perp + noise and decoded by the
    direct metrics over all (2 q_s)^2 candidate pairs, with no fold or
    blocks; MRC and successive decoding are slicers by argmin."""
    n, p = cfg.trials, cfg.power_at(zdb)
    const, const2p = model.constellation_for_power(p, cfg.q_s), model.constellation_for_power(2.0 * p, cfg.q_s)
    h, g = model.draw_channels(cfg.k, 2, n, rng)
    s = const.draw(rng, size=(n, cfg.k))
    noise = rng.standard_normal((2, n)).T
    sm = const2p.draw(rng, size=n)
    mrc_noise = rng.standard_normal(n)
    successive_noise = rng.standard_normal(n)

    h_pair, v = h[:, :2], h[:, :2] * s[:, :2]
    beta = 1.0 + np.sum(h[:, 2:] * s[:, 2:], axis=1) / v[:, 1]
    y = v + beta[:, None] * np.stack([v[:, 1], -v[:, 0]], axis=1) + noise
    points = const.points
    cands = np.array(list(itertools.product(points, points)))
    if cfg.decoder == core.WEIGHT:
        metric = _direct_weight(y, h_pair, cands)
    elif cfg.k == 2:
        metric = _direct_known_beta(y, h_pair, cands, 1.0)
    else:
        metric = _direct_ml(y, h_pair, cands, const.power * np.sum(h[:, 2:] ** 2, axis=1))
    id_errors = np.count_nonzero(cands[np.argmin(metric, axis=1)] != s[:, :2])
    power2 = np.sum(beta**2 * s[:, 0] ** 2 + s[:, 1] ** 2)

    def slice_(x, gain, alphabet):
        return alphabet[np.argmin(np.abs(x[:, None] - gain[:, None] * alphabet), axis=1)]

    gn = np.linalg.norm(g, axis=1)
    mrc_errors = np.count_nonzero(slice_(gn * sm + mrc_noise, gn, const2p.points) != sm)

    # The stronger gain's symbol first (s_0 on a tie), then the other from the residual.
    ysu = v[:, 0] + v[:, 1] + successive_noise
    first = np.abs(h[:, 0]) >= np.abs(h[:, 1])
    h_first, h_second = np.where(first, h[:, 0], h[:, 1]), np.where(first, h[:, 1], h[:, 0])
    s_first = slice_(ysu, h_first, points)
    s_second = slice_(ysu - h_first * s_first, h_second, points)
    hat = np.where(first[:, None], np.stack([s_first, s_second], 1), np.stack([s_second, s_first], 1))
    successive_errors = np.count_nonzero(hat != s[:, :2])

    schemes = [(f"id_{cfg.decoder}", 2 * n, id_errors), ("mrc_miso", n, mrc_errors),
               ("successive", 2 * n, successive_errors)]
    return schemes, power2


class TestWorkers:
    """Sweeps split their keyed chunk streams over forked workers."""

    @pytest.mark.parametrize(
        "args",
        [
            ("ser", "--k", "2", "--qs", "2", "--snr-db", "0,10"),
            ("ser", "--k", "4", "--decoder", "ml", "--qs", "2", "--snr-db", "0,10"),
            ("rate", "--decoder", "ml", "--qs", "2", "--snr-db", "0,10"),
            ("multicast", "--qs", "2", "--snr-db", "0,10"),
            ("dmin", "--qs", "8"),
        ],
    )
    def test_csv_independent_of_worker_count(self, args, tmp_path, monkeypatch):
        """1, 2.5 and 3 chunks per grid point on 1, 2 and 3 workers give the
        same bytes: results must not depend on which process runs a chunk.
        ``dmin`` runs one task per half-size, three of them here."""
        for trials in (harness.CHUNK, 5 * harness.CHUNK // 2, 3 * harness.CHUNK):
            texts = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(harness, "usable_cores", lambda: workers)
                out = tmp_path / f"t{trials}_w{workers}.csv"
                argv = [*args, "--trials", str(trials), "--seed", "77", "--out", str(out)]
                assert cli.main(argv) == 0
                texts.append(out.read_text())
            assert texts[0] == texts[1] == texts[2], (args, trials)

    def test_power_sum_in_chunk_order(self, monkeypatch):
        """tx_power_use2 adds the chunks' float sums left to right, as the
        serial loop does, so it matches that loop to the last bit."""
        monkeypatch.setattr(harness, "usable_cores", lambda: 3)
        cfg = small_cfg(k=5, zeta_db_grid=[30.0], trials=5 * harness.CHUNK // 2)
        row = harness.run_ser_sweep(cfg)[0]
        const = model.constellation_for_power(cfg.power_at(30.0), cfg.q_s)
        power2 = 0.0
        for chunk_idx, n in enumerate([harness.CHUNK, harness.CHUNK, harness.CHUNK // 2]):
            _, _, s, beta, _ = harness._id_frame_batch(cfg, const, n, harness._rng(cfg, 0, chunk_idx))
            power2 += float(np.sum(core.second_use_power(beta, s)))
        assert row.tx_power_use2 == power2 / cfg.trials

    @pytest.mark.parametrize("failing", [0, 1])
    def test_failed_chunk_fails_the_run_and_leaves_no_child(self, failing, monkeypatch, capsys):
        """A chunk that raises in the parent (worker 0) or in worker 1 fails
        the run, the CLI exits 1, and every child has been reaped."""
        monkeypatch.setattr(harness, "usable_cores", lambda: 2)
        parent = os.getpid()
        ser_chunk = harness._ser_chunk

        def flaky(*args):
            if (os.getpid() == parent) == (failing == 0):
                raise ValueError(f"chunk failed in worker {failing}")
            return ser_chunk(*args)

        monkeypatch.setattr(harness, "_ser_chunk", flaky)
        with pytest.raises(ValueError, match=f"chunk failed in worker {failing}") as exc:
            harness.run_experiment(small_cfg(trials=4 * harness.CHUNK))
        if failing:
            assert "in sweep worker 1" in str(exc.value.__cause__)
            assert "in flaky" in str(exc.value.__cause__)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert cli.main(["ser", "--snr-db", "0,10", "--trials", "20000"]) == 1
        assert f"chunk failed in worker {failing}" in capsys.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_that_sends_nothing_fails_the_run(self, monkeypatch):
        monkeypatch.setattr(harness, "usable_cores", lambda: 2)
        parent = os.getpid()
        ser_chunk = harness._ser_chunk

        def vanish(*args):
            if os.getpid() != parent:
                os._exit(3)
            return ser_chunk(*args)

        monkeypatch.setattr(harness, "_ser_chunk", vanish)
        with pytest.raises(harness.WorkerError, match="without sending"):
            harness.run_experiment(small_cfg())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_stdout_csv_printed_once(self):
        """Workers never flush the parent's buffered output: text printed
        before the sweep and the CSV each appear exactly once."""
        code = (
            "import sys; from idsim import cli, harness; harness.usable_cores = lambda: 2; "
            "print('before'); "
            "sys.exit(cli.main(['ser', '--snr-db', '0:10:20', '--trials', '20000']))"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        res = subprocess.run([sys.executable, "-c", code], env=subprocess_env(env),
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.split("\n")
        assert lines[0] == "before"
        assert res.stdout.count("before") == 1
        assert res.stdout.count("experiment,scheme") == 1
        assert len(lines) == 2 + 3 * 3 + 1  # 'before', header, 9 rows, trailing ''

    def test_numpy_random_is_imported_before_the_fork_not_at_import(self):
        """``import idsim`` leaves numpy.random unloaded, so set-up does not
        pay for it, and forked workers find it loaded by the parent when
        their first task starts, so they do not each import it."""
        code = (
            "import os, sys; import idsim; from idsim import harness; "
            "print('numpy.random' in sys.modules); "
            "parent = os.getpid(); "
            "probe = lambda t: (os.getpid() != parent, 'numpy.random' in sys.modules); "
            "print(*harness._map_chunks(probe, [(0,), (1,)], 2)[1])"
        )
        res = subprocess.run([sys.executable, "-c", code], env=subprocess_env(os.environ),
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split("\n") == ["False", "True True", ""]

    def test_exception_that_does_not_unpickle_keeps_its_traceback(self, monkeypatch):
        """A child's exception that cannot be rebuilt here arrives as a
        WorkerError holding the child's traceback."""
        monkeypatch.setattr(harness, "usable_cores", lambda: 2)
        parent = os.getpid()
        ser_chunk = harness._ser_chunk

        class NeedsTwoArgs(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a} {b}")

        def flaky(*args):
            if os.getpid() != parent:
                raise NeedsTwoArgs("lost", "arguments")
            return ser_chunk(*args)

        monkeypatch.setattr(harness, "_ser_chunk", flaky)
        with pytest.raises(harness.WorkerError, match="NeedsTwoArgs: lost arguments"):
            harness.run_experiment(small_cfg())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_exception_that_does_not_pickle_keeps_its_traceback(self, monkeypatch):
        """A child's exception that cannot be sent at all, as it holds a lock,
        arrives as a WorkerError holding the child's traceback."""
        monkeypatch.setattr(harness, "usable_cores", lambda: 2)
        parent = os.getpid()
        ser_chunk = harness._ser_chunk

        class HoldsLock(Exception):
            pass

        def flaky(*args):
            if os.getpid() != parent:
                exc = HoldsLock("cannot travel")
                exc.lock = threading.Lock()
                raise exc
            return ser_chunk(*args)

        monkeypatch.setattr(harness, "_ser_chunk", flaky)
        with pytest.raises(harness.WorkerError) as exc:
            harness.run_experiment(small_cfg())
        assert "sweep worker 1 failed" in str(exc.value)
        assert "in flaky" in str(exc.value)
        assert "HoldsLock: cannot travel" in str(exc.value)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_usable_cores_without_affinity(self, monkeypatch):
        """Where the platform has no sched_getaffinity, the CPU count."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert harness.usable_cores() == (os.cpu_count() or 1)

    def test_no_fork_while_other_threads_run(self, monkeypatch):
        """With another thread running the sweep stays in this process."""
        monkeypatch.setattr(harness, "usable_cores", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            rows = harness.run_experiment(small_cfg(trials=3 * harness.CHUNK))
        finally:
            release.set()
            thread.join()
        monkeypatch.undo()
        monkeypatch.setattr(harness, "usable_cores", lambda: 1)
        assert rows == harness.run_experiment(small_cfg(trials=3 * harness.CHUNK))


# Sweep configs for the worker-count property: ser and rate take k and the
# decoder, multicast neither.
_SWEEP_CONFIGS = st.one_of(
    st.fixed_dictionaries({
        "experiment": st.sampled_from(["ser", "rate"]),
        "k": st.integers(2, 5),
        "q_s": st.integers(1, 4),
        "decoder": st.sampled_from([core.WEIGHT, core.ML]),
    }),
    st.fixed_dictionaries({"experiment": st.just("multicast"), "q_s": st.integers(1, 4)}),
)
_SMALL_CHUNK = 16


@settings(max_examples=25, deadline=None)
@given(_SWEEP_CONFIGS, st.integers(1, 7 * _SMALL_CHUNK // 2), st.integers(0, 2**32 - 1))
def test_csv_independent_of_worker_count_over_configs(kw, trials, seed):
    """Any sweep config over 1 to 3.5 chunks gives the same bytes on 1, 2
    and 3 workers."""
    texts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "CHUNK", _SMALL_CHUNK)
        for workers in (1, 2, 3):
            mp.setattr(harness, "usable_cores", lambda: workers)
            cfg = harness.ExperimentConfig(zeta_db_grid=[0.0, 20.0], trials=trials, seed=seed, **kw)
            texts.append(harness.rows_to_csv(harness.run_experiment(cfg)))
    assert texts[0] == texts[1] == texts[2]


@pytest.mark.parametrize("experiment", list(harness._RUNNERS))
def test_stream_keys_differ_beyond_trailing_zeros(experiment, monkeypatch):
    """numpy's SeedSequence ignores trailing zeros, so two ``_rng`` paths that
    differ only in them are one stream. Every path a runner draws from, over
    three grid points or half-sizes of three chunks each, stays distinct
    once its trailing zeros are stripped."""
    paths = []
    keyed = harness._rng

    def recording(cfg, *path):
        paths.append(path)
        return keyed(cfg, *path)

    monkeypatch.setattr(harness, "_rng", recording)
    monkeypatch.setattr(harness, "CHUNK", _SMALL_CHUNK)
    monkeypatch.setattr(harness, "usable_cores", lambda: 1)
    cfg = small_cfg(experiment=experiment, k=4, q_s=8, zeta_db_grid=[20.0, 30.0, 40.0], trials=3 * _SMALL_CHUNK)
    harness.run_experiment(cfg)

    def strip(path):
        path = list(path)
        while path and path[-1] == 0:
            path.pop()
        return tuple(path)

    assert paths
    assert len({strip(path) for path in paths}) == len(paths), paths
    # The hazard itself: a trailing zero does not change the stream.
    same = [np.random.default_rng([cfg.seed, 0, *key]).random(3) for key in ([], [0], [0, 0])]
    np.testing.assert_array_equal(same[0], same[1])
    np.testing.assert_array_equal(same[0], same[2])


def test_stream_ids_are_pinned():
    """Each experiment's stream id in ``_rng`` is its place in ``_RUNNERS``.
    Reordering that dict would move every CSV, while the byte-identity tests
    cover only the benchmark's workloads, so the ids are pinned here."""
    assert harness._EXP_ID == {"ser": 0, "rate": 1, "dmin": 2, "dof": 3, "multicast": 4}
    for experiment, exp_id in harness._EXP_ID.items():
        cfg = harness.ExperimentConfig(experiment, seed=7)
        np.testing.assert_array_equal(
            harness._rng(cfg, 1, 2).random(3), np.random.default_rng([7, exp_id, 1, 2]).random(3)
        )


class TestRateSweep:
    def test_floor_matches_capacity_algebra(self):
        """normalized = 1 - 1/C reproduces exactly from the bound column C - 1."""
        cfg = small_cfg(experiment="rate", trials=500, zeta_db_grid=[6.0, 18.0])
        for r in harness.run_rate_sweep(cfg):
            if r.scheme == "gaussian_floor":
                c = r.bound_value + 1.0
                assert r.normalized_rate == pytest.approx(max(0.0, 1.0 - 1.0 / c), rel=1e-12)

    def test_gaussian_column_monotone(self):
        cfg = small_cfg(experiment="rate", trials=1500, zeta_db_grid=np.arange(0.0, 25.0, 4.0))
        vals = [r.normalized_rate for r in harness.run_rate_sweep(cfg) if r.scheme == "id_gaussian"]
        assert all(b >= a - 0.01 for a, b in zip(vals, vals[1:]))

    def test_fano_column_uses_symbol_error(self):
        cfg = small_cfg(experiment="rate", trials=800, zeta_db_grid=[12.0], decoder=core.ML)
        rows = [r for r in harness.run_rate_sweep(cfg) if r.scheme == "fano_discrete"]
        assert 0.0 <= rows[0].ser <= 1.0
        assert rows[0].rate_bits_per_use >= 0.0

    def test_fano_row_counts_both_symbols_of_each_pair(self):
        """The Fano SER counts errors over both symbols of pair 1, so its row
        reports that symbol count, and its standard error is taken over it."""
        cfg = small_cfg(experiment="rate", trials=600, zeta_db_grid=[6.0])
        row = next(r for r in harness.run_rate_sweep(cfg) if r.scheme == "fano_discrete")
        assert row.trials == 2 * cfg.trials
        errors = row.ser * row.trials
        assert errors == pytest.approx(round(errors), abs=1e-9) and 0 < round(errors) < row.trials
        assert row.ser_stderr == pytest.approx(np.sqrt(row.ser * (1.0 - row.ser) / (2 * cfg.trials)), rel=1e-12)

    def test_channel_draws_bounded_by_chunk(self, monkeypatch):
        """No channel draw is larger than one chunk, however many trials run."""
        monkeypatch.setattr(harness, "usable_cores", lambda: 1)
        counts = []
        draw_channels = model.draw_channels

        def counting(k, n, count, rng):
            counts.append(count)
            return draw_channels(k, n, count, rng)

        monkeypatch.setattr(model, "draw_channels", counting)
        harness.run_rate_sweep(small_cfg(experiment="rate", zeta_db_grid=[10.0], trials=7 * harness.CHUNK // 2))
        assert max(counts) == harness.CHUNK and sum(counts) == 7 * harness.CHUNK // 2

    def test_gaussian_rate_averages_the_frames_channels(self):
        """id_gaussian averages the rate, and its normalization the capacity,
        over the channels of the frames whose errors give the Fano row."""
        cfg = small_cfg(experiment="rate", zeta_db_grid=[10.0], trials=5 * harness.CHUNK // 2)
        row = harness.run_rate_sweep(cfg)[0]
        assert row.scheme == "id_gaussian"
        p = cfg.power_at(10.0)
        const = model.constellation_for_power(p, cfg.q_s)
        rates, capacities = [], []
        for c, n in enumerate(core.chunk_sizes(cfg.trials, harness.CHUNK)):
            h, g, *_ = harness._id_frame_batch(cfg, const, n, harness._rng(cfg, 0, c))
            rates.append(analysis.rate_total(h, p))
            capacities.append(analysis.capacity_miso(g, 2.0 * p))
        rate, capacity = np.mean(np.concatenate(rates)), np.mean(np.concatenate(capacities))
        assert row.rate_bits_per_use == pytest.approx(rate, rel=1e-12)
        assert row.normalized_rate == pytest.approx(rate / capacity, rel=1e-12)


class TestDminAndDofSweeps:
    def test_dmin_rows_positive_and_doubling(self):
        cfg = small_cfg(experiment="dmin", q_s=8, k=4, trials=300)
        rows = harness.run_dmin_probe(cfg)
        assert [r.scheme for r in rows] == ["qs=2", "qs=4", "qs=8"]
        assert all(r.bound_value > 0 for r in rows)

    def test_dof_rows_carry_slope_in_last(self):
        cfg = small_cfg(experiment="dof", k=4, trials=400, zeta_db_grid=[20.0, 30.0, 40.0])
        rows = harness.run_dof_sweep(cfg)
        assert rows[-1].bound_value is not None
        assert all(r.bound_value is None for r in rows[:-1])
        np.testing.assert_allclose([r.zeta_db for r in rows], [20.0, 30.0, 40.0])

    def test_dof_rows_keep_the_grid_values(self):
        """A dof row's SNR is the grid's value itself, not one recovered from
        its power: 10 log10(10^(z / 10)) differs from z in the last bit for
        these two."""
        grid = [10.6, 20.3]
        rows = harness.run_dof_sweep(small_cfg(experiment="dof", k=4, trials=300, zeta_db_grid=grid))
        assert [r.zeta_db for r in rows] == grid

    def test_multicast_rows(self):
        cfg = small_cfg(experiment="multicast", trials=500, zeta_db_grid=[10.0])
        rows = harness.run_multicast(cfg)
        schemes = [r.scheme for r in rows]
        assert schemes == ["user1", "user2", "user3", "throughput_symbols_per_use"]
        assert rows[-1].bound_value == pytest.approx(1.5)

    def test_multicast_user_scored_on_own_symbol(self):
        """Recounting one chunk's stream reproduces each user's row when user
        u is scored on s_u: s1, s2, then s3 from the first-use residual."""
        cfg = small_cfg(experiment="multicast", trials=500, zeta_db_grid=[10.0])
        rows = harness.run_multicast(cfg)
        const = model.constellation_for_power(cfg.power_at(10.0), cfg.q_s)
        rng = harness._rng(cfg, 0, 0)
        gains = model._signed_rayleigh(rng, (cfg.trials, 3))
        s = const.draw(rng, size=(cfg.trials, 3))
        _, x = multicast.multicast_precode(s)
        for u in range(3):
            y = multicast.multicast_observe(x, gains[:, u], rng)
            s_hat = multicast.multicast_decode(y, gains[:, u], const, const)
            assert rows[u].ser == pytest.approx(np.mean(s_hat[:, u] != s[:, u]), rel=1e-12)

    @pytest.mark.parametrize("q_s", [1, 2, 8])
    def test_multicast_chunk_is_the_full_decode_loop(self, q_s):
        """The chunk, which reads s3 for user 3 only, returns the error counts
        of the loop that decodes (s1, s2, s3) for every user and keeps column
        u, from the same stream, and leaves the stream where that loop does."""
        n = 3001
        const = model.constellation_for_power(10.0 ** 1.5, q_s)
        rng, ref_rng = (np.random.default_rng([7, q_s]) for _ in range(2))
        got = harness._multicast_chunk(None, const, rng, n)
        gains = model._signed_rayleigh(ref_rng, (n, 3))
        s = const.draw(ref_rng, size=(n, 3))
        _, x = multicast.multicast_precode(s)
        want = []
        for u in range(3):
            y = multicast.multicast_observe(x, gains[:, u], ref_rng)
            s_hat = multicast.multicast_decode(y, gains[:, u], const, const)
            want.append(int(np.count_nonzero(s_hat[:, u] != s[:, u])))
        assert got == want and all(0 < e < n for e in want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestCsv:
    def test_columns_are_the_row_fields(self):
        """The CSV's columns are SweepRow's fields in order, the header the
        benchmark's reference CSVs were recorded with; a row without an SER
        has no standard error."""
        assert harness.CSV_COLUMNS == [f.name for f in dataclasses.fields(harness.SweepRow)]
        with open(os.path.join(BENCH_DIR, "reference", "ser-2pam_seed12345.csv"), encoding="utf-8") as fh:
            assert fh.readline() == ",".join(harness.CSV_COLUMNS) + "\n"
        row = harness.SweepRow("rate", "gaussian_floor", 10.0, 100, ser=None, bound_value=1.0)
        assert row.ser_stderr is None

    def test_header_and_shape(self):
        rows = harness.run_ser_sweep(small_cfg())
        text = harness.rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(harness.CSV_COLUMNS)
        assert len(lines) == 1 + len(rows)

    def test_plot_columns_optional(self):
        rows = harness.run_ser_sweep(small_cfg(zeta_db_grid=[10.0], trials=500))
        text = harness.rows_to_csv(rows, emit_plot_data=True)
        header = text.split("\n")[0].split(",")
        assert header[-2:] == ["zeta_linear", "log10_ser"]
        first = text.split("\n")[1].split(",")
        assert float(first[header.index("zeta_linear")]) == pytest.approx(10.0)

    def test_write_to_file(self, tmp_path):
        rows = harness.run_ser_sweep(small_cfg(zeta_db_grid=[0.0], trials=200))
        out = tmp_path / "sweep.csv"
        harness.write_csv(rows, str(out))
        assert out.read_text().startswith("experiment,")

    def test_write_failure_raises(self, tmp_path):
        rows = harness.run_ser_sweep(small_cfg(zeta_db_grid=[0.0], trials=200))
        with pytest.raises(OSError):
            harness.write_csv(rows, str(tmp_path / "missing" / "sweep.csv"))


class TestSnrGridParsing:
    def test_range_inclusive(self):
        np.testing.assert_allclose(cli.parse_snr_grid("0:5:20"), [0, 5, 10, 15, 20])

    def test_comma_list(self):
        np.testing.assert_allclose(cli.parse_snr_grid("3,7.5"), [3.0, 7.5])

    @pytest.mark.parametrize("bad", ["0:0:10", "10:5:0", "1:2", "a:b:c", "nan", "inf", "0,-inf", "0:5:inf", "nan:5:10"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            cli.parse_snr_grid(bad)


# The benchmark's directory: its workload table and reference CSVs (not a package).
BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.mark.parametrize("seed", [12345, 1606])
@pytest.mark.parametrize("workload", ["ser-2pam", "multicast-16pam", "ser-k4-16pam-ml", "dof-critical"])
def test_benchmark_csv_is_byte_identical_to_its_reference(workload, seed, tmp_path, monkeypatch):
    """Every benchmark workload, run as the benchmark runs it (forked where
    the sweep forks), gives its recorded reference CSV byte for byte at the
    benchmark seed and the held-out one: the two-gain weight (``ser-2pam``),
    its one-gain form (``multicast-16pam``, ``dof-critical``) and the
    likelihood (``ser-k4-16pam-ml``)."""
    monkeypatch.syspath_prepend(BENCH_DIR)
    workloads = importlib.import_module("workloads")
    out = tmp_path / "run.csv"
    assert cli.main([*workloads.WORKLOADS[workload].argv(seed), "--out", str(out)]) == 0
    with open(os.path.join(BENCH_DIR, "reference", f"{workload}_seed{seed}.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


# Small runs off the benchmark's paths, recorded in tests/data before the
# two-PAM chunk's exact rewrites: the weight and K = 2 `ml` decoders at
# q_s = 2, the likelihood at odd K on the block antenna map, the rate sweep
# at K = 2 and at K = 10 (eight out-of-pair columns per sum), the dof
# prober and the dmin probe.
RECORDED_RUNS = {
    "ser_k2_qs2_weight": ["ser", "--k", "2", "--qs", "2", "--snr-db", "0:10:30", "--trials", "20000"],
    "ser_k2_qs2_ml": ["ser", "--k", "2", "--qs", "2", "--decoder", "ml", "--snr-db", "0:10:30", "--trials", "20000"],
    "ser_k5_qs4_ml": ["ser", "--k", "5", "--qs", "4", "--decoder", "ml", "--snr-db", "0:10:30", "--trials", "12000"],
    "rate_k2_qs1": ["rate", "--k", "2", "--qs", "1", "--snr-db", "0:10:30", "--trials", "20000"],
    "rate_k10": ["rate", "--k", "10", "--snr-db", "0:10:30", "--trials", "12000"],
    "dof_k4": ["dof", "--k", "4", "--trials", "8000"],
    "dmin_qs16": ["dmin", "--qs", "16", "--trials", "4000"],
}
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.mark.parametrize("name", sorted(RECORDED_RUNS))
def test_recorded_csv_is_byte_identical(name, tmp_path, monkeypatch):
    """Each recorded run, on one worker, gives its CSV in tests/data byte for byte."""
    monkeypatch.setattr(harness, "usable_cores", lambda: 1)
    out = tmp_path / "run.csv"
    assert cli.main([*RECORDED_RUNS[name], "--out", str(out)]) == 0
    with open(os.path.join(DATA_DIR, f"{name}.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_every_option_names_a_config_field():
    """Each subcommand's options store under ExperimentConfig's field names,
    besides the ones ``main`` reads itself."""
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    config_fields = {f.name for f in dataclasses.fields(harness.ExperimentConfig)}
    assert set(subs) == set(cli._SUBCOMMANDS)
    for name, sub in subs.items():
        dests = {a.dest for a in sub._actions} - {"help", "snr_db", "out", "emit_plot_data"}
        assert dests <= config_fields, name


class TestCliEndToEnd:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "idsim.cli", *args],
            env=subprocess_env(os.environ),
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_ser_to_file(self, tmp_path):
        out = tmp_path / "fig1.csv"
        res = self.run_cli(
            "ser", "--k", "2", "--qs", "2", "--snr-db", "0:10:10",
            "--trials", "500", "--out", str(out),
        )
        assert res.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("experiment,scheme,zeta_db")
        assert len(lines) == 1 + 2 * 3

    def test_stdout_default(self):
        res = self.run_cli("dmin", "--qs", "4", "--trials", "100")
        assert res.returncode == 0
        assert res.stdout.startswith("experiment,")
        assert "qs=4" in res.stdout
        lines = res.stdout.strip().split("\n")
        col = lines[0].split(",").index("bound_value")
        assert all(float(line.split(",")[col]) > 0 for line in lines[1:])

    def test_dmin_without_interferers_exits_nonzero(self, capsys, monkeypatch):
        """K = 2 has no interferers, so beta = 1 and the floor is a zero-weight ghost.
        It fails before any work: with --qs 8 there are three half-size tasks
        to fork for, and none is started."""
        monkeypatch.setattr(harness, "usable_cores", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        for qs in ("2", "8"):
            assert cli.main(["dmin", "--k", "2", "--qs", qs, "--trials", "10"]) == 1
            assert "k >= 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ("ser", "--epsilon", "0.2"),
            ("rate", "--epsilon", "0.2"),
            ("dmin", "--snr-db", "0:10:20"),
            ("dmin", "--decoder", "ml"),
            ("dmin", "--epsilon", "0.2"),
            ("dof", "--qs", "4"),
            ("dof", "--decoder", "ml"),
            ("multicast", "--k", "4"),
            ("multicast", "--decoder", "ml"),
            ("multicast", "--epsilon", "0.2"),
        ],
    )
    def test_flag_the_experiment_ignores_is_a_usage_error(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--trials", "10"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args", [("rate",), ("dof",), ("multicast",)]
    )
    def test_each_subcommand_runs(self, args, tmp_path):
        out = tmp_path / "out.csv"
        res = self.run_cli(
            *args, "--snr-db", "10:10:20", "--trials", "200", "--out", str(out)
        )
        assert res.returncode == 0
        assert out.exists()

    def test_bad_config_exits_nonzero(self):
        res = self.run_cli("ser", "--trials", "0")
        assert res.returncode == 1
        assert "error" in res.stderr

    @pytest.mark.parametrize("snr", ["nan", "inf", "0,nan"])
    def test_non_finite_snr_exits_nonzero(self, snr, capsys):
        assert cli.main(["ser", "--snr-db", snr, "--trials", "10"]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ("ser", "--snr-db", "4000"),
            ("rate", "--snr-db", "4000"),
            ("multicast", "--snr-db", "4000"),
            ("multicast", "--snr-db", "3070"),
            ("dof", "--snr-db", "4000"),
            ("rate", "--snr-db=-300"),
            ("ser", "--snr-db", "0,300.5"),
            ("ser", "--snr-db=-100.5,0"),
        ],
    )
    def test_snr_outside_range_exits_nonzero(self, args, tmp_path):
        """Beyond [-100, 300] dB the sweeps overflow, or the rate sweep divides
        by a zero capacity: the run stops before it starts, without a traceback."""
        out = tmp_path / "out.csv"
        res = self.run_cli(*args, "--trials", "10", "--out", str(out))
        assert res.returncode == 1
        assert res.stderr.startswith("idsim: error:") and "[-100, 300] dB" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_unallocatable_snr_grid_exits_nonzero(self, tmp_path):
        """0:1e-15:300 asks for 3e17 grid points, 2.08 EiB, more than any
        address space, so the allocation fails at once without touching
        memory; the run stops with a message, not a traceback."""
        out = tmp_path / "out.csv"
        res = self.run_cli("ser", "--snr-db", "0:1e-15:300", "--trials", "10", "--out", str(out))
        assert res.returncode == 1
        assert res.stderr.startswith("idsim: error:") and "allocate" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["ser", "rate", "multicast"])
    def test_snr_range_ends_give_finite_rows(self, experiment, capsys):
        assert cli.main([experiment, "--snr-db=-100,300", "--trials", "200"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        fields = [f for line in lines[1:] for f in line.split(",")[2:] if f]
        assert len(lines) > 1 and np.all(np.isfinite([float(f) for f in fields]))

    @pytest.mark.parametrize("snr", ["0:10:20", "-10,20"])
    def test_dof_at_or_below_0db_exits_nonzero(self, snr, capsys):
        assert cli.main(["dof", f"--snr-db={snr}", "--trials", "10"]) == 1
        assert "0 dB" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ("dof", "--snr-db", "20,300"),
            ("ser", "--qs", "91"),
            ("multicast", "--qs", "91"),
            ("dmin", "--qs", "128"),
            ("ser", "--qs", "1" + "0" * 399),
        ],
    )
    def test_alphabet_too_large_to_enumerate_exits_nonzero(self, args, tmp_path):
        """Above half-size 90 the candidate pairs exceed one decoding block:
        dof at 300 dB would ask for 2e15 bytes of them. dmin's doubling grid
        first passes 90 at 128, and a 400-digit half-size, too large for a
        float, fails before an alphabet is scaled with it."""
        out = tmp_path / "out.csv"
        res = self.run_cli(*args, "--trials", "10", "--out", str(out))
        assert res.returncode == 1
        assert res.stderr.startswith("idsim: error:") and "at most 90" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_dof_rejects_large_alphabet_before_any_point_runs(self, capsys):
        """The 20 dB point comes first in the grid but draws nothing."""
        with mock.patch.object(harness.analysis, "_signed_rayleigh", no_draw):
            assert cli.main(["dof", "--snr-db", "20,300", "--trials", "10"]) == 1
        assert "at most 90" in capsys.readouterr().err

    def test_dof_at_86db_runs(self, capsys):
        """86 dB gives half-size 86 at eps = 0.1, within the budget of 90."""
        assert cli.main(["dof", "--snr-db", "86", "--trials", "20"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith("dof,dof,86,20,")

    def test_dof_default_grid_runs(self, tmp_path):
        """dof's own default grid, 20:10:60 dB, lies above 0 dB."""
        out = tmp_path / "dof.csv"
        assert cli.main(["dof", "--trials", "20", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 5
        fields = [f for line in lines[1:] for f in line.split(",")[2:] if f]
        assert np.all(np.isfinite([float(f) for f in fields]))
        assert [float(line.split(",")[2]) for line in lines[1:]] == [20.0, 30.0, 40.0, 50.0, 60.0]

    @pytest.mark.parametrize(
        "args",
        [
            ("ser", "--k", "4", "--qs", "4", "--decoder", "ml"),
            ("ser", "--k", "2", "--qs", "4", "--decoder", "ml"),
            ("multicast", "--qs", "4"),
        ],
    )
    def test_csv_independent_of_block_size(self, args, tmp_path, monkeypatch):
        """Blocked decoding gives the same bytes whatever the block size:
        one row per block, partial last blocks, and the default."""
        texts = []
        for block_values in (7, 1000, core.BLOCK_VALUES):
            monkeypatch.setattr(core, "BLOCK_VALUES", block_values)
            out = tmp_path / f"block{block_values}.csv"
            assert cli.main([*args, "--snr-db", "0:10:30", "--trials", "700", "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1] == texts[2]

    def test_unknown_subcommand_exits_nonzero(self):
        res = self.run_cli("frobnicate")
        assert res.returncode != 0

    def test_plot_data_flag(self):
        res = self.run_cli(
            "ser", "--snr-db", "10:10:10", "--trials", "200", "--emit-plot-data"
        )
        assert res.returncode == 0
        assert "log10_ser" in res.stdout.split("\n")[0]


class TestBlasThreads:
    """Importing idsim before numpy runs BLAS on one thread unless a count is set."""

    def omp_threads_after_import(self, **env):
        base = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        res = subprocess.run(
            [sys.executable, "-c", "import os, idsim; print(os.environ.get('OMP_NUM_THREADS'))"],
            env=subprocess_env({**base, **env}),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert res.returncode == 0, res.stderr
        return res.stdout.strip()

    def test_one_thread_by_default(self):
        assert self.omp_threads_after_import() == "1"

    @pytest.mark.parametrize("var", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"])
    def test_callers_count_kept(self, var):
        expected = "2" if var == "OMP_NUM_THREADS" else "None"
        assert self.omp_threads_after_import(**{var: "2"}) == expected


# One 8192-row float64 column, 64 KiB, is 16 pages of 4 KiB. A ser chunk's
# temporaries are some twenty such columns, so the allocator faulting them in
# again costs hundreds of pages per chunk: 256-320 for ``ser --k 2 --qs 1``
# under glibc's default trim threshold.
COLUMN_PAGES = harness.CHUNK * 8 // mmap.PAGESIZE


def run_python(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; return its standard output's words."""
    res = subprocess.run([sys.executable, "-c", code], env=subprocess_env(os.environ),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt and trim policy")
def test_cli_keeps_freed_heap_and_library_does_not():
    """After a warm run, a second identical ``ser --k 2 --qs 1`` run on one
    worker faults in fewer pages than one column's per chunk through
    ``cli.main``, whose allocator keeps the freed heap, and at least that many
    through ``harness.run_experiment`` alone, since ``import idsim`` leaves
    glibc's trim threshold as it is. The library runs first: once ``cli.main``
    has run, the process keeps its heap."""
    chunks = 8
    code = (
        "import os, resource\n"
        "from idsim import harness\n"
        "harness.usable_cores = lambda: 1\n"
        "def second_run_faults(run):\n"
        "    run()\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    run()\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        f"cfg = harness.ExperimentConfig('ser', k=2, q_s=1, zeta_db_grid=[0.0], trials={chunks} * harness.CHUNK)\n"
        "second_run_faults(lambda: harness.run_experiment(cfg))\n"
        "from idsim import cli\n"
        "argv = ['ser', '--k', '2', '--qs', '1', '--snr-db', '0', '--trials', str(cfg.trials), '--out', os.devnull]\n"
        "second_run_faults(lambda: cli.main(argv))\n"
    )
    library, command = map(int, run_python(code))
    assert library >= chunks * COLUMN_PAGES, (library, command)
    assert command < chunks * COLUMN_PAGES, (library, command)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_peak_rss_does_not_grow_with_trials():
    """Memory stays bounded as --trials grows, also with the freed heap kept:
    ``ser --k 2 --qs 1`` on one worker peaks within 2 MiB at N and 16 N
    trials. One chunk's temporaries take about 1.2 MiB, and one float64 per
    trial at 16 N would take 6.1 MiB."""
    n = 50_000

    def peak_kib(trials):
        code = (
            "import os, resource\n"
            "from idsim import cli, harness\n"
            "harness.usable_cores = lambda: 1\n"
            f"assert cli.main(['ser', '--k', '2', '--qs', '1', '--snr-db', '0:10:20', '--trials', '{trials}', "
            "'--out', os.devnull]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        return int(run_python(code)[0])

    small, large = peak_kib(n), peak_kib(16 * n)
    assert large - small < 2 * 1024, (small, large)


# Invalid values of each flag, as (subcommand, flag, value, exit code): 1 for
# values the run rejects, 2 for argparse usage errors. None starts a sweep.
# Half-sizes above 90 (dmin: its doubling grid's 128) stop at 200, so that a
# run which skipped the candidate budget would build arrays of megabytes, not
# gigabytes, before it failed; the others have 151 to 400 digits, too large
# for a float.
_ALL = ["ser", "rate", "dmin", "dof", "multicast"]
_SNR_RUNS = ["ser", "rate", "dof", "multicast"]
_HUGE_HALF_SIZES = st.integers(10**150, 10**400 - 1)
_INVALID_FLAGS = st.one_of(
    st.tuples(st.sampled_from(["ser", "rate", "dof"]), st.just("--k"), st.integers(max_value=1), st.just(1)),
    st.tuples(st.just("dmin"), st.just("--k"), st.integers(max_value=2), st.just(1)),
    st.tuples(st.sampled_from(["ser", "rate", "dmin", "multicast"]), st.just("--qs"), st.integers(max_value=0), st.just(1)),
    st.tuples(st.sampled_from(["ser", "rate", "multicast"]), st.just("--qs"),
              st.one_of(st.integers(91, 200), _HUGE_HALF_SIZES), st.just(1)),
    st.tuples(st.just("dmin"), st.just("--qs"), st.one_of(st.integers(128, 200), _HUGE_HALF_SIZES), st.just(1)),
    st.tuples(st.sampled_from(_ALL), st.just("--trials"), st.integers(max_value=0), st.just(1)),
    st.tuples(st.sampled_from(_ALL), st.just("--seed"), st.integers(max_value=-1), st.just(1)),
    st.tuples(st.just("dof"), st.just("--epsilon"), st.floats().filter(lambda e: not 0.0 < e < 1.0), st.just(1)),
    st.tuples(
        st.sampled_from(_SNR_RUNS),
        st.just("--snr-db"),
        st.one_of(
            st.sampled_from(["nan", "inf", "-inf", "0,nan", "0:inf:10", "nan:1:2"]),
            st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not -100.0 <= x <= 300.0),
            st.sampled_from(["", "abc", "1:2", "1:2:3:4", "0:0:10", "0:-1:10", "10:1:0", "1,,2"]),
            st.text(max_size=8).map(lambda text: text + "q"),
        ),
        st.just(1),
    ),
    st.tuples(st.just("dof"), st.just("--snr-db"), st.floats(-100.0, 0.0), st.just(1)),
    st.tuples(
        st.just("dof"),
        st.just("--snr-db"),
        st.lists(st.floats(1.0, 80.0), min_size=2, max_size=5)
        .filter(lambda grid: not all(b > a for a, b in zip(grid, grid[1:])))
        .map(lambda grid: ",".join(map(repr, grid))),
        st.just(1),
    ),
    st.tuples(
        st.sampled_from(_ALL),
        st.sampled_from(["--trials", "--seed"]),
        st.sampled_from(["", "1.5", "two", "1e3", "0x10"]),
        st.just(2),
    ),
)


@settings(max_examples=150, deadline=None)
@given(_INVALID_FLAGS)
@example(("multicast", "--qs", 91, 1))
@example(("dmin", "--qs", 128, 1))
@example(("ser", "--qs", 10**399, 1))
@example(("dof", "--snr-db", "60,50,40,30,20", 1))
@example(("dof", "--snr-db", "20,20", 1))
@example(("ser", "--seed", -1, 1))
@example(("rate", "--seed", -1, 1))
@example(("multicast", "--seed", -1, 1))
def test_invalid_flag_value_exits_nonzero(case):
    """Any invalid value exits 1 (or 2 from argparse) before a channel is
    drawn or a worker forked, and writes no CSV."""
    experiment, flag, value, code = case
    with (
        mock.patch.object(os, "fork", no_fork),
        mock.patch.object(model, "_signed_rayleigh", no_draw),
        mock.patch.object(harness.analysis, "_signed_rayleigh", no_draw),
        mock.patch.object(harness, "write_csv", no_csv),
    ):
        try:
            got = cli.main([experiment, f"{flag}={value}"])
        except SystemExit as exc:
            got = exc.code
    assert got == code
