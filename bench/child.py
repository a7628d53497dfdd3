"""Run one idsim CLI experiment in this fresh process and print its timings.

    python3 bench/child.py --t0 T0 --trace 0|1 --spans PATH -- ser --k 2 ... --out x.csv

Set-up covers interpreter start, ``import idsim`` (numpy included) and
argument parsing, up to the moment the config is built and
``harness.run_experiment`` is entered. It is reported twice. ``setup_s`` is
the CPU time of the main thread up to that moment (user plus system, from
process start). It leaves out time spent waiting for a core, which on a
shared two-core host moved wall set-up time by up to a third, and the CPU
time of numpy's BLAS threads, which spin while numpy loads.
``setup_wall_s`` is the wall time from ``T0``, the parent's
``time.perf_counter()`` taken just before it started this process; both
read CLOCK_MONOTONIC, which ``run.py`` checks.

Work time is the wall time of ``run_experiment`` plus ``rows_to_csv``. With
``--trace 1`` every layer function is wrapped and the spans are written to
``PATH`` at exit; with ``--trace 0`` only those two functions are.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import idsim  # noqa: E402
from idsim import cli  # noqa: E402

from tracer import Tracer, span_stats  # noqa: E402

TIMED = ("harness.run_experiment", "harness.rows_to_csv")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("idsim_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.idsim_argv[1:] if args.idsim_argv[:1] == ["--"] else args.idsim_argv

    tracer = Tracer()
    tracer.install(idsim, None if args.trace else TIMED)
    setup: dict[str, float] = {}
    run_experiment = idsim.harness.run_experiment

    def entered(*a, **kw):
        setup.setdefault("cpu_s", time.thread_time())
        setup.setdefault("wall_s", time.perf_counter() - args.t0)
        return run_experiment(*a, **kw)

    idsim.harness.run_experiment = entered
    cpu0, wall0 = time.process_time(), time.perf_counter()
    rc = cli.main(argv)
    cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
    if args.spans:
        tracer.save(args.spans)

    stats = span_stats(tracer.spans)
    run = next((s for s in tracer.spans if s[0] == "harness.run_experiment"), None)
    work_s = sum(stats[n]["total_s"] for n in TIMED if n in stats)
    print(
        json.dumps(
            {
                "setup_s": setup.get("cpu_s"),
                "setup_wall_s": setup.get("wall_s"),
                "work_s": work_s,
                "frames": 0 if run is None else run[4],
                "cpu_s": cpu_s,
                "wall_s": wall_s,
                "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
        )
    )
    return rc


if __name__ == "__main__":
    sys.exit(main())
