"""Experiment orchestration: seeded Monte Carlo sweeps and CSV emission.

Randomness is split per (seed, experiment, grid point, chunk) so chunk
order never changes results and runs are bit-reproducible. These keyed
streams are what make parallel runs safe: no chunk's draws depend on
another's, so ``ser``, ``rate`` and ``multicast`` run their chunks on one
forked process per usable core (the CPU affinity, so ``taskset`` limits
them) and add the partial results up in chunk order, and the CSV is
byte-identical for every number of processes. ``dmin`` runs one task
per half-size the same way, each on its own stream. Only ``dof`` draws
from one sequential stream and runs in this process. Every
sweep builds all its grid points (power, alphabet) before its first draw
or fork, so a grid that cannot run fails before any work.
Noise variance is fixed at one; the SNR axis is zeta = P / sigma^2, so the
per-symbol power at a grid point is the linear zeta.
"""

from __future__ import annotations

import functools
import operator
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from . import analysis, baselines, core, model, multicast

DEFAULT_SEED = 12345
CHUNK = 8192
N_ANTENNAS = 2
# The SNR grid's range in dB. Floor: deep-fade resampling keeps every gain
# at or above model.EPS_GAIN = 1e-3, so from p = 1e-10 up the capacity
# argument 2 p sum g^2 is at least 4e-16, above the double rounding step of
# about 2.2e-16, and the rate sweep's mean capacity, a divisor, is never 0.
# Ceiling: at p = 1e30 the largest values the pair metrics form, squares of
# products of a few signal-scale terms, stay about 200 decades below the
# double overflow at 1.8e308.
SNR_DB_RANGE = (-100.0, 300.0)


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity (taskset, cpusets), else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class ExperimentConfig:
    experiment: str
    k: int = 2
    q_s: int = 2
    zeta_db_grid: np.ndarray = field(default_factory=lambda: np.arange(0.0, 31.0, 2.0))
    trials: int = 100_000
    seed: int = DEFAULT_SEED
    decoder: str = core.WEIGHT
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        if self.experiment not in _RUNNERS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.k < 2:
            raise ValueError("need at least two symbols")
        if self.q_s < 1:
            raise ValueError("half-size must be at least 1")
        if self.decoder not in (core.WEIGHT, core.ML):
            raise ValueError(f"unknown decoder {self.decoder!r}")
        self.zeta_db_grid = np.atleast_1d(np.asarray(self.zeta_db_grid, dtype=float))
        if self.zeta_db_grid.size == 0:
            raise ValueError("SNR grid must be nonempty")
        if not np.all(np.isfinite(self.zeta_db_grid)):
            raise ValueError("SNR grid values must be finite")
        lo, hi = SNR_DB_RANGE
        if not np.all((self.zeta_db_grid >= lo) & (self.zeta_db_grid <= hi)):
            raise ValueError(f"SNR grid values must lie in [{lo:g}, {hi:g}] dB")

    def power_at(self, zeta_db: float) -> float:
        """Per-symbol power for a grid point: the linear zeta, at unit noise variance."""
        return 10.0 ** (zeta_db / 10.0)


@dataclass
class SweepRow:
    """One CSV row: its fields, in order, are the CSV's columns."""

    experiment: str
    scheme: str
    zeta_db: float | None
    trials: int
    ser: float | None = None
    ser_stderr: float | None = field(init=False, default=None)
    rate_bits_per_use: float | None = None
    normalized_rate: float | None = None
    bound_value: float | None = None
    tx_power_use2: float | None = None

    def __post_init__(self) -> None:
        if self.ser is not None:
            self.ser_stderr = float(np.sqrt(self.ser * (1.0 - self.ser) / self.trials))

    @property
    def zeta_linear(self) -> float | None:
        return None if self.zeta_db is None else 10.0 ** (self.zeta_db / 10.0)

    @property
    def log10_ser(self) -> float | None:
        return None if not self.ser else float(np.log10(self.ser))


CSV_COLUMNS = [f.name for f in fields(SweepRow)]
PLOT_COLUMNS = ["zeta_linear", "log10_ser"]


def _rng(cfg: ExperimentConfig, *path: int) -> np.random.Generator:
    """The stream keyed by the seed, the experiment and ``path``. numpy's
    SeedSequence ignores trailing zeros, so ``_rng(cfg)``, ``_rng(cfg, 0)``
    and ``_rng(cfg, 0, 0)`` are one stream, chunk (0, 0)'s in ``_run_chunks``:
    keys used in one experiment must differ beyond trailing zeros."""
    return np.random.default_rng([cfg.seed, _EXP_ID[cfg.experiment], *path])


def _run_chunks(cfg: ExperimentConfig, chunk, points: list) -> list[tuple]:
    """Each grid point's element-wise sums of ``chunk(cfg, point, rng, n)``
    over the chunks of ``cfg.trials``, run on one process per usable core.

    Chunk c of grid point zi draws from its own stream ``_rng(cfg, zi, c)``,
    so its result does not depend on which process runs it. The partials
    are added left to right in chunk order, starting from 0, so float sums
    are the same to the last bit for every number of processes (``sum``
    compensates float additions from Python 3.12 on, so it is not used).
    """
    sizes = list(core.chunk_sizes(cfg.trials, CHUNK))
    tasks = [(zi, c, n) for zi in range(len(points)) for c, n in enumerate(sizes)]

    def run(zi, c, n):
        return chunk(cfg, points[zi], _rng(cfg, zi, c), n)

    parts = _map_chunks(run, tasks, usable_cores())
    return [
        tuple(functools.reduce(operator.add, column, 0) for column in zip(*parts[lo : lo + len(sizes)]))
        for lo in range(0, len(parts), len(sizes))
    ]


class WorkerError(RuntimeError):
    """A forked sweep worker ended without sending its results, or failed
    with an exception that could not be sent."""


class _WorkerTraceback(Exception):
    """The text of a forked worker's traceback, the cause of its re-raised exception."""


def _map_chunks(fn, tasks: list, workers: int) -> list:
    """``[fn(*task) for task in tasks]``, with worker w running tasks w, w + workers, ...

    Worker 0 is this process; the others are forked children that inherit
    ``fn`` and everything it reads, and send back only their pickled results
    through a pipe. An exception in a child is raised again here, with the
    child's traceback as its cause. The tasks run here instead where
    ``os.fork`` is missing or this process runs other threads, whose locks
    a forked child could inherit held. Every child is reaped before this
    returns or raises; on an error the children still running are
    terminated first.
    """
    workers = min(workers, len(tasks))
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(*task) for task in tasks]
    # numpy imports numpy.random lazily, when a task makes its first stream.
    # Imported here, once, every worker has it: workers importing it at the
    # same time each took longer than this one import. ``import idsim``
    # leaves it out, so the run pays for it, not set-up.
    import numpy.random  # noqa: F401
    pids: list[int] = []
    pipes: list[int] = []
    finished = False
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipes.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(fn, tasks[w::workers], write_fd, pipes)
            finally:
                os.close(write_fd)
            pids.append(pid)
        results = [None] * len(tasks)
        results[::workers] = [fn(*task) for task in tasks[::workers]]
        for w, read_fd in enumerate(pipes, start=1):
            with os.fdopen(read_fd, "rb", closefd=False) as fh:
                data = fh.read()
            try:
                ok, payload = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):
                raise WorkerError(f"sweep worker {w} ended without sending its results") from None
            if not ok:
                _raise_worker_failure(w, *payload)
            results[w::workers] = payload
        finished = True
        return results
    finally:
        for read_fd in pipes:
            os.close(read_fd)
        if not finished:
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGTERM)
        for pid in pids:
            os.waitpid(pid, 0)


def _raise_worker_failure(w: int, exc_data: bytes | None, text: str) -> None:
    """Raise worker ``w``'s pickled exception with its traceback ``text`` as
    the cause, or a WorkerError holding ``text`` where it does not unpickle."""
    try:
        exc = pickle.loads(exc_data)
    except Exception:
        raise WorkerError(f"sweep worker {w} failed:\n{text}") from None
    raise exc from _WorkerTraceback(f"in sweep worker {w}:\n{text}")


def _worker(fn, tasks: list, write_fd: int, inherited_fds: list[int]) -> None:
    """Body of a forked worker: run ``tasks``, send ``(True, results)`` or
    ``(False, (pickled exception or None, traceback text))``.

    The worker leaves only through ``os._exit``, so it never flushes the
    parent's buffered output or runs exit handlers it inherited.
    """
    status = 1
    try:
        for fd in inherited_fds:
            os.close(fd)
        try:
            message = (True, [fn(*task) for task in tasks])
        except Exception as exc:
            import traceback

            try:
                exc_data = pickle.dumps(exc)
            except Exception:
                exc_data = None
            message = (False, (exc_data, traceback.format_exc()))
        with os.fdopen(write_fd, "wb") as fh:
            pickle.dump(message, fh)
        status = 0 if message[0] else 1
    finally:
        os._exit(status)


def _id_frame_batch(cfg, const, n, rng):
    """One chunk of frames: channel, symbols, and pair-1 observations."""
    h, g = model.draw_channels(cfg.k, N_ANTENNAS, n, rng)
    s = const.draw(rng, size=(n, cfg.k))
    beta, y = core.dissolve(h[:, :2], s[:, :2], core.out_of_pair_sum(h * s, 1))
    # Column 0's n draws, then column 1's.
    y += rng.standard_normal((2, n)).T
    return h, g, s, beta, y


def _id_decode_batch(cfg, const, h, y):
    """Decode pair 1 for a chunk; returns decoded pairs (n, 2)."""
    return core.pair_decode(y, h, 1, const, cfg.decoder)


def _pair_errors(hat: np.ndarray, s: np.ndarray) -> int:
    """Symbol errors of decoded pairs ``hat`` against the first two columns of ``s``."""
    return int(np.count_nonzero(hat != s[:, :2]))


def _ser_chunk(cfg, point, rng, n):
    """One chunk of the SER sweep: (ID errors, MRC errors, successive errors, power2).

    ``power2`` is this chunk's sum of second-use powers.
    """
    const, const2p = point
    h, g, s, beta, y = _id_frame_batch(cfg, const, n, rng)
    id_err = _pair_errors(_id_decode_batch(cfg, const, h, y), s)
    power2 = float(np.sum(core.second_use_power(beta, s)))

    sm = const2p.draw(rng, size=n)
    gn = baselines.mrc_effective_gain(g)
    ym = gn * sm + rng.standard_normal(n)
    mrc_err = int(np.count_nonzero(baselines.mrc_decode_batch(ym, gn, const2p) != sm))

    ysu = h[:, 0] * s[:, 0] + h[:, 1] * s[:, 1] + rng.standard_normal(n)
    succ_err = _pair_errors(baselines._successive_decode_batch(ysu, h[:, 0], h[:, 1], const), s)
    return id_err, mrc_err, succ_err, power2


def run_ser_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Per-symbol SER of ID, transmit-MRC MISO, and successive decoding."""
    points = []
    for zdb in cfg.zeta_db_grid:
        p = cfg.power_at(zdb)
        points.append((core.alphabet(p, cfg.q_s), model.constellation_for_power(2.0 * p, cfg.q_s)))
    sums = _run_chunks(cfg, _ser_chunk, points)

    rows: list[SweepRow] = []
    id_scheme = f"id_{cfg.decoder}"
    for zdb, (id_err, mrc_err, succ_err, power2) in zip(cfg.zeta_db_grid, sums):
        for scheme, err, symbols in (
            (id_scheme, id_err, 2 * cfg.trials),
            ("mrc_miso", mrc_err, cfg.trials),
            ("successive", succ_err, 2 * cfg.trials),
        ):
            rows.append(
                SweepRow(
                    experiment=cfg.experiment,
                    scheme=scheme,
                    zeta_db=float(zdb),
                    trials=symbols,
                    ser=err / symbols,
                    tx_power_use2=power2 / cfg.trials if scheme == id_scheme else None,
                )
            )
    return rows


def _rate_chunk(cfg, point, rng, n):
    """One chunk of the rate sweep over its ``n`` frames: the sums of the MISO
    capacity and of the ID Gaussian rate over the frames' channels, and the
    ID decoder's pair-1 symbol errors."""
    p, const = point
    h, g, s, _, y = _id_frame_batch(cfg, const, n, rng)
    c_sum = float(np.sum(analysis.capacity_miso(g, 2.0 * p)))
    r_sum = float(np.sum(analysis.rate_total(h, p)))
    return c_sum, r_sum, _pair_errors(_id_decode_batch(cfg, const, h, y), s)


def run_rate_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Normalized Gaussian rate, the one-bit floor, and the discrete Fano curve.

    Rates and capacities are averaged over the channels of the ``trials``
    Monte Carlo frames whose pair errors give the Fano point. The Fano row's
    SER counts errors over both symbols of pair 1, so its ``trials`` is that
    symbol count, as in the ``ser`` sweep's ID rows.
    """
    points = [(p, core.alphabet(p, cfg.q_s)) for p in map(cfg.power_at, cfg.zeta_db_grid)]
    sums = _run_chunks(cfg, _rate_chunk, points)

    rows: list[SweepRow] = []
    symbols = 2 * cfg.trials
    for zdb, (c_sum, r_sum, errors) in zip(cfg.zeta_db_grid, sums):
        c_mean, r_mean = c_sum / cfg.trials, r_sum / cfg.trials
        pe = errors / symbols
        fano = analysis.fano_rate_lower_bound(pe, cfg.q_s)
        rows.append(
            SweepRow(cfg.experiment, "id_gaussian", float(zdb), cfg.trials,
                     rate_bits_per_use=r_mean, normalized_rate=r_mean / c_mean)
        )
        rows.append(
            SweepRow(cfg.experiment, "gaussian_floor", float(zdb), cfg.trials,
                     normalized_rate=max(0.0, 1.0 - 1.0 / c_mean), bound_value=c_mean - 1.0)
        )
        rows.append(
            SweepRow(cfg.experiment, "fano_discrete", float(zdb), symbols,
                     ser=pe, rate_bits_per_use=fano, normalized_rate=fano / (c_mean / 2.0))
        )
    return rows


def run_dmin_probe(cfg: ExperimentConfig) -> list[SweepRow]:
    """Scaled minimum-distance floors for half-sizes doubling up to q_s, at unit power."""
    analysis.check_dmin_frame(cfg.k)
    points = []
    q = 2
    while q <= max(2, cfg.q_s):
        points.append(core.alphabet(1.0, q))
        q *= 2

    def run(qi, const):
        d2 = analysis.dmin_probe(const, cfg.trials, _rng(cfg, qi), k=cfg.k)
        return float(np.min(d2)), float(np.median(d2))

    results = _map_chunks(run, list(enumerate(points)), usable_cores())
    return [
        SweepRow(cfg.experiment, f"qs={const.q_s}", None, cfg.trials, bound_value=floor, normalized_rate=median)
        for const, (floor, median) in zip(points, results)
    ]


def run_dof_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Degrees-of-freedom sweep over the power grid 10^(zeta_db / 10)."""
    rng = _rng(cfg, 0)
    p_grid = np.array([cfg.power_at(z) for z in cfg.zeta_db_grid])
    points = analysis.dof_slope(p_grid, cfg.epsilon, cfg.trials, rng, k=cfg.k)
    slope = analysis.dof_growth_slope(points) if len(points) >= 2 else None
    rows = []
    for i, (zdb, pt) in enumerate(zip(cfg.zeta_db_grid, points)):
        rows.append(
            SweepRow(cfg.experiment, "dof", float(zdb), cfg.trials,
                     ser=pt.pe, rate_bits_per_use=pt.fano_bound, normalized_rate=pt.ratio,
                     bound_value=slope if i == len(points) - 1 else None)
        )
    return rows


def _multicast_chunk(cfg, const, rng, n):
    """One chunk of the multicast sweep: each user's errors on its own symbol."""
    gains = model._signed_rayleigh(rng, (n, 3))
    s = const.draw(rng, size=(n, 3))
    _, x = multicast.multicast_precode(s)
    errors = []
    for u in range(3):
        y = multicast.multicast_observe(x, gains[:, u], rng)
        s_hat = multicast.multicast_decode(y, gains[:, u], const, const)
        errors.append(int(np.sum(s_hat[:, u] != s[:, u])))
    return errors


def run_multicast(cfg: ExperimentConfig) -> list[SweepRow]:
    """Per-user SER of the three-user multicast scheme, plus throughput."""
    points = [core.alphabet(cfg.power_at(zdb), cfg.q_s) for zdb in cfg.zeta_db_grid]
    sums = _run_chunks(cfg, _multicast_chunk, points)
    rows: list[SweepRow] = []
    for zdb, errors in zip(cfg.zeta_db_grid, sums):
        for u, err in enumerate(errors):
            rows.append(SweepRow(cfg.experiment, f"user{u + 1}", float(zdb), cfg.trials, ser=err / cfg.trials))
    rows.append(
        SweepRow(cfg.experiment, "throughput_symbols_per_use", None, 0,
                 bound_value=multicast.SYMBOLS_PER_USE)
    )
    return rows


_RUNNERS = {
    "ser": run_ser_sweep,
    "rate": run_rate_sweep,
    "dmin": run_dmin_probe,
    "dof": run_dof_sweep,
    "multicast": run_multicast,
}
# Each experiment's stream id in ``_rng``: its place in ``_RUNNERS``.
_EXP_ID = {name: i for i, name in enumerate(_RUNNERS)}


def run_experiment(cfg: ExperimentConfig) -> list[SweepRow]:
    return _RUNNERS[cfg.experiment](cfg)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def rows_to_csv(rows: list[SweepRow], emit_plot_data: bool = False) -> str:
    """Render sweep rows as CSV text (header + one row per (zeta, scheme))."""
    cols = CSV_COLUMNS + (PLOT_COLUMNS if emit_plot_data else [])
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, c)) for c in cols))
    return "\n".join(lines) + "\n"


def write_csv(rows: list[SweepRow], path: str | None, emit_plot_data: bool = False) -> None:
    """Write the CSV to ``path``, or standard output when path is None/'-'."""
    text = rows_to_csv(rows, emit_plot_data)
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
