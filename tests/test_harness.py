"""Tests for the sweep harness, CSV schema, and the command-line interface."""

import os
import subprocess
import sys

import numpy as np
import pytest

from idsim import cli, core, harness


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
        sizes = [harness.CHUNK, cfg.trials - harness.CHUNK]
        errors = 0
        for chunk_idx in reversed(range(len(sizes))):
            rng = harness._rng(cfg, 0, chunk_idx)
            const, h, g, s, beta, y = harness._id_frame_batch(cfg, p, sizes[chunk_idx], rng)
            hat = harness._id_decode_batch(cfg, const, h, s, beta, y, p)
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
            env={**base, **env},
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
