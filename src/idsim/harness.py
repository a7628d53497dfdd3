"""Experiment orchestration: seeded Monte Carlo sweeps and CSV emission.

Randomness is split per (seed, experiment, grid point, chunk) so chunk
order never changes results and runs are bit-reproducible. These keyed
streams are what make parallel runs safe: no chunk's draws depend on
another's, so ``ser``, ``rate`` and ``multicast`` run their chunks on one
forked process per usable core (the CPU affinity, so ``taskset`` limits
them) and add the partial results up in chunk order, and the CSV is
byte-identical for every number of processes. ``dmin`` and
``dof`` draw from one sequential stream and run in this process. Noise
variance is fixed at one; the SNR axis is zeta = P / sigma2, so the
per-symbol power at a grid point is the linear zeta.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from . import analysis, baselines, core, model, multicast

DEFAULT_SEED = 12345
CHUNK = 8192

_EXPERIMENTS = ("ser", "rate", "dmin", "dof", "multicast")
_EXP_ID = {name: i for i, name in enumerate(_EXPERIMENTS)}

CSV_COLUMNS = [
    "experiment",
    "scheme",
    "zeta_db",
    "trials",
    "ser",
    "ser_stderr",
    "rate_bits_per_use",
    "normalized_rate",
    "bound_value",
    "tx_power_use2",
]
PLOT_COLUMNS = ["zeta_linear", "log10_ser"]


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
    output_path: str | None = None
    emit_plot_data: bool = False
    epsilon: float = 0.1
    sigma2: float = 1.0
    n_antennas: int = 2

    def __post_init__(self) -> None:
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.k < 2:
            raise ValueError("need at least two symbols")
        if self.n_antennas < 2:
            raise ValueError("need at least two antennas")
        if self.q_s < 1:
            raise ValueError("half-size must be at least 1")
        if self.decoder not in (core.WEIGHT, core.ML):
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if self.sigma2 < 0:
            raise ValueError("noise variance must be non-negative")
        self.zeta_db_grid = np.atleast_1d(np.asarray(self.zeta_db_grid, dtype=float))
        if self.zeta_db_grid.size == 0:
            raise ValueError("SNR grid must be nonempty")
        if not np.all(np.isfinite(self.zeta_db_grid)):
            raise ValueError("SNR grid values must be finite")

    def power_at(self, zeta_db: float) -> float:
        """Per-symbol power for a grid point; sigma2 = 0 uses a unit reference."""
        ref = self.sigma2 if self.sigma2 > 0 else 1.0
        return 10.0 ** (zeta_db / 10.0) * ref


@dataclass
class SweepRow:
    experiment: str
    scheme: str
    zeta_db: float | None
    trials_used: int
    ser: float | None = None
    rate_bits_per_use: float | None = None
    normalized_rate: float | None = None
    bound_value: float | None = None
    tx_power_use2: float | None = None

    @property
    def ser_stderr(self) -> float | None:
        if self.ser is None:
            return None
        return float(np.sqrt(self.ser * (1.0 - self.ser) / self.trials_used))


def _rng(cfg: ExperimentConfig, *path: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, _EXP_ID[cfg.experiment], *path])


def _chunk_tasks(cfg: ExperimentConfig, first_chunk: int = 0) -> list[tuple[int, int, int]]:
    """``(zi, chunk_idx, n)`` for each chunk of ``cfg.trials`` at each grid point, in order."""
    return [
        (zi, first_chunk + c, min(CHUNK, cfg.trials - start))
        for zi in range(len(cfg.zeta_db_grid))
        for c, start in enumerate(range(0, cfg.trials, CHUNK))
    ]


def _run_chunks(cfg: ExperimentConfig, chunk, points: list, tasks: list) -> list[list]:
    """``chunk(cfg, points[zi], rng, chunk_idx, n)`` for every task on one
    process per usable core; returns each grid point's results in task order.

    Each task draws from its own stream ``_rng(cfg, zi, chunk_idx)``, so its
    result does not depend on which process runs it or on the other tasks.
    """
    def run(zi, chunk_idx, n):
        return chunk(cfg, points[zi], _rng(cfg, zi, chunk_idx), chunk_idx, n)

    per_point: list[list] = [[] for _ in points]
    for (zi, _, _), result in zip(tasks, _map_chunks(run, tasks, usable_cores())):
        per_point[zi].append(result)
    return per_point


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
    h, g = model.draw_channels(cfg.k, cfg.n_antennas, n, rng)
    s = const.draw(rng, size=(n, cfg.k))
    beta, y = core.dissolve(h[:, :2], s[:, :2], core.out_of_pair_sum(h * s, 1))
    y[:, 0] += rng.normal(0.0, np.sqrt(cfg.sigma2), n)
    y[:, 1] += rng.normal(0.0, np.sqrt(cfg.sigma2), n)
    return h, g, s, beta, y


def _id_decode_batch(cfg, cands, h, y, p):
    """Decode pair 1 for a chunk; returns decoded pairs (n, 2)."""
    h_pair = h[:, :2]
    if cfg.decoder == core.WEIGHT:
        idx = core.argmin_metric(core.weight_matrix, y, h_pair, cands)
    elif cfg.k == 2:
        # beta is deterministically 1 without interferers: exact ML.
        idx = core.argmin_metric(core.known_beta_metric_matrix, y, h_pair, cands, 1.0)
    else:
        ipow = p * core.out_of_pair_sum(h**2, 1)
        idx = core.argmin_metric(core.ml_metric_matrix, y, h_pair, cands, ipow, cfg.sigma2)
    return cands[idx]


def _pair_errors(hat: np.ndarray, s: np.ndarray) -> int:
    """Symbol errors of decoded pairs ``hat`` against the first two columns of ``s``."""
    return int(np.sum(hat[:, 0] != s[:, 0]) + np.sum(hat[:, 1] != s[:, 1]))


def _ser_chunk(cfg, point, rng, chunk_idx, n):
    """One chunk of the SER sweep: (ID errors, MRC errors, successive errors, power2).

    ``power2`` is this chunk's sum of second-use powers.
    """
    p, const, cands, const2p = point
    h, g, s, beta, y = _id_frame_batch(cfg, const, n, rng)
    id_err = _pair_errors(_id_decode_batch(cfg, cands, h, y, p), s)
    power2 = float(np.sum(core.second_use_power(beta, s)))

    sm = const2p.draw(rng, size=n)
    gn = baselines.mrc_effective_gain(g)
    ym = gn * sm + rng.normal(0.0, np.sqrt(cfg.sigma2), n)
    mrc_err = int(np.sum(baselines.mrc_decode_batch(ym, gn, const2p) != sm))

    ysu = h[:, 0] * s[:, 0] + h[:, 1] * s[:, 1] + rng.normal(0.0, np.sqrt(cfg.sigma2), n)
    succ_err = _pair_errors(baselines._successive_decode_batch(ysu, h[:, 0], h[:, 1], const), s)
    return id_err, mrc_err, succ_err, power2


def run_ser_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Per-symbol SER of ID, transmit-MRC MISO, and successive decoding."""
    points = []
    for zdb in cfg.zeta_db_grid:
        p = cfg.power_at(zdb)
        const = model.constellation_for_power(p, cfg.q_s)
        points.append((p, const, core.candidate_pairs(const), model.constellation_for_power(2.0 * p, cfg.q_s)))
    per_point = _run_chunks(cfg, _ser_chunk, points, _chunk_tasks(cfg))

    rows: list[SweepRow] = []
    id_scheme = f"id_{cfg.decoder}"
    for zdb, parts in zip(cfg.zeta_db_grid, per_point):
        id_err, mrc_err, succ_err = (sum(part[i] for part in parts) for i in range(3))
        # Left to right in chunk order, so the float sum does not depend on workers.
        power2 = 0.0
        for part in parts:
            power2 += part[3]
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
                    trials_used=symbols,
                    ser=err / symbols,
                    tx_power_use2=power2 / cfg.trials if scheme == id_scheme else None,
                )
            )
    return rows


def _rate_chunk(cfg, point, rng, chunk_idx, n):
    """Chunk 0 of a rate grid point: its channel averages ``(C, R)`` over ``n`` draws.

    Every later chunk: the ID decoder's pair-1 symbol errors on ``n`` frames.
    """
    p, const, cands = point
    if chunk_idx == 0:
        ch = model.ChannelRealization(*model.draw_channels(cfg.k, cfg.n_antennas, n, rng))
        c_mean = float(np.mean(analysis.capacity_miso(ch.g, 2.0 * p, cfg.sigma2)))
        return c_mean, float(np.mean(analysis.rate_total(ch, p, cfg.sigma2)))
    h, _, s, _, y = _id_frame_batch(cfg, const, n, rng)
    return _pair_errors(_id_decode_batch(cfg, cands, h, y, p), s)


def run_rate_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Normalized Gaussian rate, the one-bit floor, and the discrete Fano curve.

    Rates and capacities are averaged over ``trials`` channel draws; the
    Fano point reuses the same number of Monte Carlo frames for its error
    probability.
    """
    points = []
    for zdb in cfg.zeta_db_grid:
        p = cfg.power_at(zdb)
        const = model.constellation_for_power(p, cfg.q_s)
        points.append((p, const, core.candidate_pairs(const)))
    averages = [(zi, 0, cfg.trials) for zi in range(len(points))]
    per_point = _run_chunks(cfg, _rate_chunk, points, averages + _chunk_tasks(cfg, first_chunk=1))

    rows: list[SweepRow] = []
    for zdb, ((c_mean, r_mean), *errors) in zip(cfg.zeta_db_grid, per_point):
        pe = sum(errors) / (2 * cfg.trials)
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
            SweepRow(cfg.experiment, "fano_discrete", float(zdb), cfg.trials,
                     ser=pe, rate_bits_per_use=fano, normalized_rate=fano / (c_mean / 2.0))
        )
    return rows


def run_dmin_probe(cfg: ExperimentConfig) -> list[SweepRow]:
    """Scaled minimum-distance floors for half-sizes doubling up to q_s."""
    rows: list[SweepRow] = []
    q = 2
    grid = []
    while q <= max(2, cfg.q_s):
        grid.append(q)
        q *= 2
    for qi, q_s in enumerate(grid):
        rng = _rng(cfg, qi)
        rep = analysis.dmin_probe(q_s, cfg.trials, rng, k=cfg.k)
        rows.append(
            SweepRow(cfg.experiment, f"qs={q_s}", None, cfg.trials,
                     bound_value=rep.floor, normalized_rate=rep.median)
        )
    return rows


def run_dof_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Degrees-of-freedom sweep over the power grid 10^(zeta_db / 10)."""
    rng = _rng(cfg, 0)
    p_grid = np.array([cfg.power_at(z) for z in cfg.zeta_db_grid])
    points = analysis.dof_slope(p_grid, cfg.epsilon, cfg.trials, rng, k=cfg.k)
    slope = analysis.dof_growth_slope(points) if len(points) >= 2 else None
    rows = []
    for i, pt in enumerate(points):
        rows.append(
            SweepRow(cfg.experiment, "dof", float(10.0 * np.log10(pt.p)), cfg.trials,
                     ser=pt.pe, rate_bits_per_use=pt.fano_bound, normalized_rate=pt.ratio,
                     bound_value=slope if i == len(points) - 1 else None)
        )
    return rows


def _multicast_chunk(cfg, const, rng, chunk_idx, n):
    """One chunk of the multicast sweep: each user's errors on its own symbol."""
    gains = model._signed_rayleigh(rng, (n, 3))
    s = const.draw(rng, size=(n, 3))
    _, x = multicast.multicast_precode(s)
    errors = []
    for u in range(3):
        y = multicast.multicast_observe(x, gains[:, u], cfg.sigma2, rng)
        s_hat = multicast.multicast_decode(y, gains[:, u], const)
        errors.append(int(np.sum(s_hat[:, u] != s[:, u])))
    return errors


def run_multicast(cfg: ExperimentConfig) -> list[SweepRow]:
    """Per-user SER of the three-user multicast scheme, plus throughput."""
    points = [model.constellation_for_power(cfg.power_at(zdb), cfg.q_s) for zdb in cfg.zeta_db_grid]
    per_point = _run_chunks(cfg, _multicast_chunk, points, _chunk_tasks(cfg))
    rows: list[SweepRow] = []
    for zdb, parts in zip(cfg.zeta_db_grid, per_point):
        for u in range(3):
            err = sum(part[u] for part in parts)
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
        rec = {
            "experiment": r.experiment,
            "scheme": r.scheme,
            "zeta_db": r.zeta_db,
            "trials": r.trials_used,
            "ser": r.ser,
            "ser_stderr": r.ser_stderr,
            "rate_bits_per_use": r.rate_bits_per_use,
            "normalized_rate": r.normalized_rate,
            "bound_value": r.bound_value,
            "tx_power_use2": r.tx_power_use2,
        }
        if emit_plot_data:
            rec["zeta_linear"] = None if r.zeta_db is None else 10.0 ** (r.zeta_db / 10.0)
            rec["log10_ser"] = None if not r.ser else float(np.log10(r.ser))
        lines.append(",".join(_fmt(rec[c]) for c in cols))
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
