"""Command-line front end: one subcommand per experiment, CSV out.

Examples:
    idsim ser --k 2 --qs 2 --snr-db 0:5:40 --trials 100000 --out fig1.csv
    idsim rate --k 2 --snr-db 0:2:30 --trials 2000 --decoder ml
    idsim dmin --qs 16 --trials 1000
    idsim dof --snr-db 20:10:60 --trials 4000
    idsim multicast --qs 2 --snr-db 0:5:30 --trials 20000
    idsim ser --snr-db=-10:5:20 --trials 20000  (a grid from below 0 dB needs the =)
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import os
import sys

import numpy as np

from . import core, harness


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


# Each subcommand takes only the options its experiment reads, besides
# --trials, --seed, --out and --emit-plot-data: dest -> default, each dest an
# ExperimentConfig field or snr_db. dof needs every power above 0 dB, so its
# grid starts higher; dmin needs interferers, so its frame has four symbols.
_SUBCOMMANDS = {
    "ser": ("symbol-error-rate sweep: ID vs MRC MISO vs successive decoding",
            {"k": 2, "q_s": 2, "snr_db": "0:2:30", "decoder": core.WEIGHT}),
    "rate": ("normalized achievable-rate sweep with floor and Fano curves",
             {"k": 2, "q_s": 2, "snr_db": "0:2:30", "decoder": core.WEIGHT}),
    "dmin": ("scaled minimum-distance probe over doubling constellation sizes", {"k": 4, "q_s": 2}),
    "dof": ("degrees-of-freedom sweep with power-scaled constellations",
            {"k": 2, "snr_db": "20:10:60", "epsilon": 0.1}),
    "multicast": ("three-user multicast SER sweep", {"q_s": 2, "snr_db": "0:2:30"}),
}


def _add_options(sub: argparse.ArgumentParser, defaults: dict) -> None:
    if "k" in defaults:
        sub.add_argument("--k", type=int, default=defaults["k"], help="number of symbols per frame (default: %(default)s)")
    if "q_s" in defaults:
        sub.add_argument("--qs", dest="q_s", metavar="QS", type=int, default=defaults["q_s"], help="constellation half-size")
    if "snr_db" in defaults:
        sub.add_argument("--snr-db", default=defaults["snr_db"], help="zeta grid in dB, start:step:stop (default: %(default)s)")
    sub.add_argument("--trials", type=int, default=100_000, help="Monte Carlo trials per grid point")
    sub.add_argument("--seed", type=int, default=harness.DEFAULT_SEED, help="master seed")
    if "decoder" in defaults:
        sub.add_argument("--decoder", choices=[core.WEIGHT, core.ML], default=defaults["decoder"])
    sub.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    sub.add_argument("--emit-plot-data", action="store_true", help="add normalized plot columns")
    if "epsilon" in defaults:
        sub.add_argument("--epsilon", type=float, default=defaults["epsilon"], help="constellation growth slack")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="idsim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="experiment", required=True)
    for name, (descr, defaults) in _SUBCOMMANDS.items():
        _add_options(subs.add_parser(name, help=descr), defaults)
    return parser


# mallopt(3): setting M_TRIM_THRESHOLD to -1 stops glibc from giving the
# freed top of the heap back to the kernel. By default it does so past
# 128 KiB, so every sweep chunk faulted its 64-256 KiB temporaries in again
# (256-320 minor faults per 8192-row ser chunk). The idsim command owns its
# process, and its forked workers inherit the setting; importing idsim leaves
# the allocator alone. A C library without mallopt (macOS, Windows) keeps its
# own policy.
_M_TRIM_THRESHOLD = -1  # the parameter's number in glibc's malloc.h


def _keep_freed_heap() -> None:
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, -1)


def main(argv=None) -> int:
    opts = vars(build_parser().parse_args(argv))
    _keep_freed_heap()
    try:
        fields = {f.name: opts[f.name] for f in dataclasses.fields(harness.ExperimentConfig) if f.name in opts}
        if "snr_db" in opts:
            fields["zeta_db_grid"] = parse_snr_grid(opts["snr_db"])
        cfg = harness.ExperimentConfig(**fields)
        rows = harness.run_experiment(cfg)
        harness.write_csv(rows, opts["out"], opts["emit_plot_data"])
    except (ValueError, OSError, MemoryError, harness.WorkerError) as exc:
        print(f"idsim: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
