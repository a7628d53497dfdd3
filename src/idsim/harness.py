"""Experiment orchestration: seeded Monte Carlo sweeps and CSV emission.

Randomness is split per (seed, experiment, grid point, chunk) so chunk
order never changes results and runs are bit-reproducible. Noise variance
is fixed at one; the SNR axis is zeta = P / sigma2, so the per-symbol
power at a grid point is the linear zeta.
"""

from __future__ import annotations

import sys
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


def run_ser_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Per-symbol SER of ID, transmit-MRC MISO, and successive decoding."""
    rows: list[SweepRow] = []
    id_scheme = f"id_{cfg.decoder}"
    for zi, zdb in enumerate(cfg.zeta_db_grid):
        p = cfg.power_at(zdb)
        const = model.constellation_for_power(p, cfg.q_s)
        cands = core.candidate_pairs(const)
        const2p = model.constellation_for_power(2.0 * p, cfg.q_s)
        err = {id_scheme: 0, "mrc_miso": 0, "successive": 0}
        denom = {id_scheme: 0, "mrc_miso": 0, "successive": 0}
        power2 = 0.0
        done = 0
        chunk_idx = 0
        while done < cfg.trials:
            n = min(CHUNK, cfg.trials - done)
            rng = _rng(cfg, zi, chunk_idx)
            h, g, s, beta, y = _id_frame_batch(cfg, const, n, rng)
            hat = _id_decode_batch(cfg, cands, h, y, p)
            err[id_scheme] += int(np.sum(hat[:, 0] != s[:, 0]) + np.sum(hat[:, 1] != s[:, 1]))
            denom[id_scheme] += 2 * n
            power2 += float(np.sum(core.second_use_power(beta, s)))

            sm = const2p.draw(rng, size=n)
            gn = np.sqrt(np.sum(g**2, axis=1))
            ym = gn * sm + rng.normal(0.0, np.sqrt(cfg.sigma2), n)
            err["mrc_miso"] += int(np.sum(const2p.nearest(ym / gn) != sm))
            denom["mrc_miso"] += n

            ysu = h[:, 0] * s[:, 0] + h[:, 1] * s[:, 1] + rng.normal(0.0, np.sqrt(cfg.sigma2), n)
            hats = baselines._successive_decode_batch(ysu, h[:, 0], h[:, 1], const)
            err["successive"] += int(np.sum(hats[:, 0] != s[:, 0]) + np.sum(hats[:, 1] != s[:, 1]))
            denom["successive"] += 2 * n

            done += n
            chunk_idx += 1
        for scheme in (id_scheme, "mrc_miso", "successive"):
            rows.append(
                SweepRow(
                    experiment=cfg.experiment,
                    scheme=scheme,
                    zeta_db=float(zdb),
                    trials_used=denom[scheme],
                    ser=err[scheme] / denom[scheme],
                    tx_power_use2=power2 / cfg.trials if scheme == id_scheme else None,
                )
            )
    return rows


def run_rate_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Normalized Gaussian rate, the one-bit floor, and the discrete Fano curve.

    Rates and capacities are averaged over ``trials`` channel draws; the
    Fano point reuses the same number of Monte Carlo frames for its error
    probability.
    """
    rows: list[SweepRow] = []
    for zi, zdb in enumerate(cfg.zeta_db_grid):
        p = cfg.power_at(zdb)
        rng = _rng(cfg, zi, 0)
        ch = model.ChannelRealization(*model.draw_channels(cfg.k, cfg.n_antennas, cfg.trials, rng))
        c_mean = float(np.mean(analysis.capacity_miso(ch.g, 2.0 * p, cfg.sigma2)))
        r_mean = float(np.mean(analysis.rate_total(ch, p, cfg.sigma2)))

        const = model.constellation_for_power(p, cfg.q_s)
        cands = core.candidate_pairs(const)
        err = 0
        done = 0
        chunk_idx = 1
        while done < cfg.trials:
            n = min(CHUNK, cfg.trials - done)
            rng = _rng(cfg, zi, chunk_idx)
            hh, _, ss, _, y = _id_frame_batch(cfg, const, n, rng)
            hat = _id_decode_batch(cfg, cands, hh, y, p)
            err += int(np.sum(hat[:, 0] != ss[:, 0]) + np.sum(hat[:, 1] != ss[:, 1]))
            done += n
            chunk_idx += 1
        pe = err / (2 * cfg.trials)
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


def run_multicast(cfg: ExperimentConfig) -> list[SweepRow]:
    """Per-user SER of the three-user multicast scheme, plus throughput."""
    rows: list[SweepRow] = []
    for zi, zdb in enumerate(cfg.zeta_db_grid):
        p = cfg.power_at(zdb)
        const = model.constellation_for_power(p, cfg.q_s)
        err = np.zeros(3, dtype=int)
        done = 0
        chunk_idx = 0
        while done < cfg.trials:
            n = min(CHUNK, cfg.trials - done)
            rng = _rng(cfg, zi, chunk_idx)
            gains = model._signed_rayleigh(rng, (n, 3))
            s = const.draw(rng, size=(n, 3))
            _, x = multicast.multicast_precode(s)
            for u in range(3):
                y = multicast.multicast_observe(x, gains[:, u], cfg.sigma2, rng)
                s_hat = multicast.multicast_decode(y, gains[:, u], const)
                err[u] += int(np.sum(s_hat[:, u] != s[:, u]))
            done += n
            chunk_idx += 1
        for u in range(3):
            rows.append(
                SweepRow(cfg.experiment, f"user{u + 1}", float(zdb), cfg.trials, ser=err[u] / cfg.trials)
            )
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
