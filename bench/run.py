"""idsim benchmark: fixed CLI experiments, each in a fresh process.

    python3 bench/run.py --workload ser-2pam --seed 12345 --seconds 30 --trace 0

A closed loop with one client: the next ``idsim`` process starts only after
the previous one has ended, and none starts once it would be expected to end
past ``--seconds`` (a minimum number always runs). Every process's CSV is
checked against the recorded reference (``check.py``) and must be
byte-identical to the other processes of the run, which share its seed.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics as medians over processes. With ``--trace 1`` processes alternate
between untraced and traced, and it reports per-layer metrics from the
traced ones (``tracer.py``). The full run record, with every process's
figures and quartiles, goes to ``bench/results/<workload>_seed<seed>_trace<t>.json``
(with ``_trials<n>`` appended when ``--trials`` is given).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from check import check
from tracer import span_stats
from workloads import BENCH_SEED, END_TO_END, KERNELS, LAYERS, TRACED_FUNCTIONS, WORKLOADS, per_layer_units

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
RESULTS = os.path.join(BENCH_DIR, "results")
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Processes every run makes, however short --seconds is: enough for a median.
MIN_PROCESSES = {0: 3, 1: 4}
# A run must end within 180 s: no process starts after DEADLINE_S, and none
# outlives RUN_LIMIT_S from the start of the run.
DEADLINE_S = 150.0
RUN_LIMIT_S = 175.0
PROCESS_TIMEOUT_S = 120.0


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read, never searched for)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def child_env(nproc: int) -> dict[str, str]:
    """The caller's environment with BLAS thread counts capped at nproc."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        if var in env and (not env[var].isdigit() or int(env[var]) > nproc):
            env[var] = str(nproc)
    return env


def blas_library() -> dict:
    """Name and version of the BLAS numpy was built against, where numpy says."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version")}


def run_record(seed: int, nproc: int, env: dict[str, str]) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_library(),
        "nproc": nproc,
        "blas_thread_env": {var: env.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
        "argv": {name: ["idsim", *w.argv(seed)] for name, w in WORKLOADS.items()},
    }


def run_process(w, seed: int, trials: int, traced: bool, out_dir: str, i: int, env, timeout: float) -> dict:
    """Run one fresh idsim process; return its figures and check results."""
    csv = os.path.join(out_dir, f"run{i}.csv")
    spans = os.path.join(out_dir, f"spans{i}.json")
    rec: dict = {"index": i, "traced": traced, "problems": []}
    t0 = time.perf_counter()
    cmd = [sys.executable, CHILD, "--t0", repr(t0), "--trace", str(int(traced))]
    if traced:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(
            [*cmd, "--", *w.argv(seed, trials), "--out", csv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        rec["problems"].append(f"timed out after {timeout:.0f} s")
        rec["wall_s"] = time.perf_counter() - t0
        return rec
    rec["wall_s"] = time.perf_counter() - t0
    rec["rc"] = proc.returncode
    if proc.returncode != 0:
        rec["problems"].append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return rec
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    rec.update(
        setup_s=out["setup_s"],
        setup_wall_s=out["setup_wall_s"],
        work_s=out["work_s"],
        frames=out["frames"],
        frames_per_s=out["frames"] / out["work_s"],
        cpu_util=out["cpu_s"] / out["wall_s"],
        peak_rss_mb=out["maxrss_kib"] / 1024.0,
    )
    with open(csv, encoding="utf-8") as fh:
        rec["csv"] = fh.read()
    try:
        problems, rec["identical"] = check(w, rec["csv"], seed, trials)
    except (ValueError, KeyError, IndexError) as exc:
        problems = [f"malformed CSV: {exc!r}"]
    rec["problems"] += problems
    if traced:
        with open(spans, encoding="utf-8") as fh:
            rec["stats"] = span_stats(json.load(fh))
    return rec


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2]}


def end_to_end(done: list[dict], attempted: int, failed: int) -> tuple[dict, dict]:
    """Metric values, and their quartiles for the run record."""
    timed = ("frames_per_s", "setup_s", "setup_wall_s", "peak_rss_mb")
    spread = {name: quartiles([p[name] for p in done]) for name in timed}
    values = {name: q["median"] for name, q in spread.items()}
    values["pass_frac"] = (attempted - failed) / attempted
    return values, spread


def layer_metrics(w, traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metric values from the traced processes, and any problems."""
    never = {"calls": 0, "self_s": 0.0, "work": 0}
    problems = []
    per_proc = []
    for p in traced:
        stats = p["stats"]
        root = stats["cli.main"]["total_s"]
        vals = {}
        for fn in TRACED_FUNCTIONS:
            st = stats.get(fn, never)
            vals[f"{fn}.calls"] = st["calls"]
            vals[f"{fn}.self_s"] = st["self_s"]
            vals[f"{fn}.self_share"] = st["self_s"] / root
        for fn, arrays in KERNELS.items():
            st = stats.get(fn, never)
            vals[f"{fn}.cand_evals"] = st["work"]
            vals[f"{fn}.bytes_computed"] = 16 * arrays * st["work"]
            vals[f"{fn}.ns_per_cand_eval"] = st["self_s"] * 1e9 / st["work"] if st["work"] else 0.0
        for layer in LAYERS:
            self_s = sum(st["self_s"] for name, st in stats.items() if name.startswith(layer + "."))
            vals[f"layer.{layer}.self_s"] = self_s
            vals[f"layer.{layer}.self_share"] = self_s / root
        missing = [fn for fn in w.expected if stats.get(fn, never)["calls"] == 0]
        if missing:
            problems.append(f"coverage: expected functions never called: {missing}")
        per_proc.append(vals)
    counts = [n for n, (unit, _) in per_layer_units().items() if unit in ("count", "bytes")]
    for name in counts:
        if len({v[name] for v in per_proc}) > 1:
            problems.append(f"count {name} differs between traced processes: {[v[name] for v in per_proc]}")
    values = {name: statistics.median(v[name] for v in per_proc) for name in per_proc[0]}
    for name in counts:
        values[name] = per_proc[0][name]
    values["trace.overhead_frac"] = (
        statistics.median(p["work_s"] for p in traced) / statistics.median(p["work_s"] for p in untraced) - 1.0
    )
    values["process.cpu_util"] = statistics.median(p["cpu_util"] for p in untraced)
    return values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trials", type=int, default=None, help="override the workload's trials (smoke check)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "idsim", "cli.py")):
        print(f"bench: no idsim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if time.get_clock_info("perf_counter").implementation != "clock_gettime(CLOCK_MONOTONIC)":
        print("bench: set-up time needs perf_counter on CLOCK_MONOTONIC", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    trials = w.trials if args.trials is None else args.trials
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    tag = f"{w.name}_seed{args.seed}_trace{args.trace}"
    if args.trials is not None:
        # Runs at other trials (the smoke check) never share files with benchmark runs.
        tag += f"_trials{trials}"
    out_dir = os.path.join(RESULTS, tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    procs: list[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(procs) >= MIN_PROCESSES[args.trace]:
            est = statistics.median(p["wall_s"] for p in procs)
            if elapsed + est > args.seconds:
                break
        if elapsed > DEADLINE_S:
            break
        traced = bool(args.trace) and len(procs) % 2 == 1
        timeout = min(PROCESS_TIMEOUT_S, RUN_LIMIT_S - elapsed)
        procs.append(run_process(w, args.seed, trials, traced, out_dir, len(procs), env, timeout))
    run_s = time.perf_counter() - start

    csvs = [p["csv"] for p in procs if "csv" in p]
    for p in procs:
        if "csv" in p and p["csv"] != csvs[0]:
            p["problems"].append("CSV differs from the run's first CSV at the same seed")
    failed = sum(1 for p in procs if p["problems"])
    problems = [f"process {p['index']}: {msg}" for p in procs for msg in p["problems"]]
    # Timings come from every process that ran to the end: a failed check
    # makes the run incorrect, not its timings wrong.
    untraced = [p for p in procs if "work_s" in p and not p["traced"]]
    traced = [p for p in procs if "work_s" in p and p["traced"]]
    if not untraced or (args.trace and not traced):
        print("bench: no process ran to the end; " + "; ".join(problems), file=sys.stderr)
        return 1

    spread = {}
    if args.trace:
        values, layer_problems = layer_metrics(w, traced, untraced)
        problems += layer_problems
        units = {name: unit for name, (unit, _) in per_layer_units().items()}
    else:
        values, spread = end_to_end(untraced, len(procs), failed)
        units = END_TO_END
    for msg in problems:
        print(f"bench: {msg}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": len(procs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": w.name,
        "why": w.why,
        "trials": trials,
        "trace": args.trace,
        "run_s": run_s,
        "record": run_record(args.seed, nproc, env),
        "csv_identical_to_reference": sum(1 for p in procs if p.get("identical")),
        "problems": problems,
        "quartiles": spread,
        "processes": [{k: v for k, v in p.items() if k not in ("csv", "stats")} for p in procs],
        "result": result,
    }
    with open(os.path.join(RESULTS, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(
        f"{w.name}: {len(procs)} processes in {run_s:.1f} s, {failed} failed, "
        f"{record['csv_identical_to_reference']} CSVs identical to the reference"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
