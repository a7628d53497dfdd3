"""Command-line front end: one subcommand per experiment, CSV out.

Examples:
    idsim ser --k 2 --qs 2 --snr-db 0:5:40 --trials 100000 --out fig1.csv
    idsim rate --k 2 --snr-db 0:2:30 --trials 2000 --decoder ml
    idsim dmin --qs 16 --trials 1000
    idsim dof --snr-db 20:10:60 --trials 4000
    idsim multicast --qs 2 --snr-db 0:5:30 --trials 20000
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import harness


def parse_snr_grid(text: str) -> np.ndarray:
    """Parse 'start:step:stop' (stop inclusive) or a comma list of dB values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if not all(np.isfinite([start, step, stop])):
            raise ValueError(f"SNR values must be finite, got {text!r}")
        if step <= 0:
            raise ValueError("SNR step must be positive")
        if stop < start:
            raise ValueError("SNR stop must not precede start")
        return np.arange(start, stop + step / 2.0, step)
    grid = np.array([float(p) for p in text.split(",")])
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"SNR values must be finite, got {text!r}")
    return grid


def _add_common(sub: argparse.ArgumentParser, snr_db: str) -> None:
    sub.add_argument("--k", type=int, default=2, help="number of symbols per frame")
    sub.add_argument("--qs", type=int, default=2, help="constellation half-size")
    sub.add_argument("--snr-db", default=snr_db, help="zeta grid in dB, start:step:stop (default: %(default)s)")
    sub.add_argument("--trials", type=int, default=100_000, help="Monte Carlo trials per grid point")
    sub.add_argument("--seed", type=int, default=harness.DEFAULT_SEED, help="master seed")
    sub.add_argument("--decoder", choices=["weight", "ml"], default="weight")
    sub.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    sub.add_argument("--emit-plot-data", action="store_true", help="add normalized plot columns")
    sub.add_argument("--epsilon", type=float, default=0.1, help="constellation growth slack (dof)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="idsim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="experiment", required=True)
    # dof needs every power above 0 dB, so its grid starts higher.
    for name, descr, snr_db in [
        ("ser", "symbol-error-rate sweep: ID vs MRC MISO vs successive decoding", "0:2:30"),
        ("rate", "normalized achievable-rate sweep with floor and Fano curves", "0:2:30"),
        ("dmin", "scaled minimum-distance probe over doubling constellation sizes", "0:2:30"),
        ("dof", "degrees-of-freedom sweep with power-scaled constellations", "20:10:60"),
        ("multicast", "three-user multicast SER sweep", "0:2:30"),
    ]:
        _add_common(subs.add_parser(name, help=descr), snr_db)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = harness.ExperimentConfig(
            experiment=args.experiment,
            k=args.k,
            q_s=args.qs,
            zeta_db_grid=parse_snr_grid(args.snr_db),
            trials=args.trials,
            seed=args.seed,
            decoder=args.decoder,
            output_path=args.out,
            emit_plot_data=args.emit_plot_data,
            epsilon=args.epsilon,
        )
        rows = harness.run_experiment(cfg)
        harness.write_csv(rows, cfg.output_path, cfg.emit_plot_data)
    except (ValueError, OSError) as exc:
        print(f"idsim: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
