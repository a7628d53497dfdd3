"""Tests for the sweep harness, CSV schema, and the command-line interface."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import idsim
from idsim import cli, core, harness, model, multicast

# The directory idsim was imported from, so that subprocesses run the same
# code whether or not the package is installed.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(idsim.__file__)))


def subprocess_env(env):
    """``env`` with PACKAGE_ROOT first on PYTHONPATH."""
    path = os.pathsep.join(p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return {**env, "PYTHONPATH": path}


def no_fork():
    raise AssertionError("a process was started")


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
        ],
    )
    def test_rejects_bad_config(self, kw):
        with pytest.raises(ValueError):
            small_cfg(**kw)


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
            expect = np.sqrt(r.ser * (1 - r.ser) / r.trials_used)
            assert r.ser_stderr == pytest.approx(expect, rel=1e-12)

    def test_zero_noise_id_error_free(self):
        rows = harness.run_ser_sweep(small_cfg(sigma2=0.0))
        id_rows = [r for r in rows if r.scheme == "id_weight"]
        assert all(r.ser == 0.0 for r in id_rows)

    def test_chunk_order_invariance(self):
        """Accumulating per-chunk error counts in reverse order reproduces
        the sweep: aggregation is a plain sum over keyed streams."""
        cfg = small_cfg(zeta_db_grid=[10.0], trials=3 * harness.CHUNK // 2)
        row = [r for r in harness.run_ser_sweep(cfg) if r.scheme == "id_weight"][0]
        p = cfg.power_at(10.0)
        const = model.constellation_for_power(p, cfg.q_s)
        cands = core.candidate_pairs(const)
        sizes = [harness.CHUNK, cfg.trials - harness.CHUNK]
        errors = 0
        for chunk_idx in reversed(range(len(sizes))):
            rng = harness._rng(cfg, 0, chunk_idx)
            h, _, s, _, y = harness._id_frame_batch(cfg, const, sizes[chunk_idx], rng)
            hat = harness._id_decode_batch(cfg, cands, h, y, p)
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


class TestWorkers:
    """Sweeps split their keyed chunk streams over forked workers."""

    @pytest.mark.parametrize(
        "args",
        [
            ("ser", "--k", "2"),
            ("ser", "--k", "4", "--decoder", "ml"),
            ("rate", "--decoder", "ml"),
            ("multicast",),
        ],
    )
    def test_csv_independent_of_worker_count(self, args, tmp_path, monkeypatch):
        """1, 2.5 and 3 chunks per grid point on 1, 2 and 3 workers give the
        same bytes: results must not depend on which process runs a chunk."""
        for trials in (harness.CHUNK, 5 * harness.CHUNK // 2, 3 * harness.CHUNK):
            texts = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(harness, "usable_cores", lambda: workers)
                out = tmp_path / f"t{trials}_w{workers}.csv"
                argv = [*args, "--qs", "2", "--snr-db", "0,10", "--trials", str(trials), "--seed", "77",
                        "--out", str(out)]
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
            y = multicast.multicast_observe(x, gains[:, u], cfg.sigma2, rng)
            s_hat = multicast.multicast_decode(y, gains[:, u], const)
            assert rows[u].ser == pytest.approx(np.mean(s_hat[:, u] != s[:, u]), rel=1e-12)


class TestCsv:
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

    def test_dmin_without_interferers_exits_nonzero(self, capsys):
        """K = 2 has no interferers, so beta = 1 and the floor is a zero-weight ghost."""
        assert cli.main(["dmin", "--k", "2", "--trials", "10"]) == 1
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

    @pytest.mark.parametrize("snr", ["0:10:20", "-10,20"])
    def test_dof_at_or_below_0db_exits_nonzero(self, snr, capsys):
        assert cli.main(["dof", f"--snr-db={snr}", "--trials", "10"]) == 1
        assert "0 dB" in capsys.readouterr().err

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
