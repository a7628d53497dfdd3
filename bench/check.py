"""Correctness check of a workload's CSV against the recorded reference.

References live in ``bench/reference/<workload>_seed<seed>.csv`` for the
benchmark seed and the held-out seed, at each workload's benchmark trials.
Re-record them from the current code with

    python3 bench/check.py record

A CSV fails when its header, row keys or empty fields differ from the
reference, when any numeric field is non-finite, or when a value departs
from the reference by more than the tolerances below. Byte identity with the
reference is reported separately and is not a failure, so a change that
flips near-tie decisions shows how many CSVs moved.

At a seed with no recorded reference the benchmark-seed reference is used:
``ser`` is then compared by the binomial test, which holds because channels
are drawn afresh per frame. ``dof`` rides one channel per seed, so there
its error rate is only range-checked and the rate columns are checked for
consistency with it.
"""

from __future__ import annotations

import math
import os
import sys

from workloads import BENCH_SEED, HELDOUT_SEED, WORKLOADS, Workload

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Width of the binomial test on ser, in standard deviations. The variance is
# doubled because the two symbols of a pair share a channel and noise draw.
Z = 5.0
# tx_power_use2 is a mean of beta^2 terms with beta ~ 1/h_b. Where beta is
# fixed (K = 2, beta = 1) the value is exactly 2P and the two recorded seeds
# agree on it; then it must match the reference to TX_POWER_RTOL either way.
# For K > 2 one deep fade can raise it tenfold, so there only a drop below
# the reference by more than TX_POWER_FACTOR fails; a drop is what a
# precoder that skips the dissolution factor would show.
TX_POWER_RTOL = 1e-6
TX_POWER_FACTOR = 8.0
# Rate columns recomputed from the CSV's own error rate (9 printed digits).
CONSISTENCY_TOL = 1e-6

KEY_COLUMNS = ("experiment", "scheme", "zeta_db")


def reference_path(workload: str, seed: int) -> str:
    return os.path.join(REF_DIR, f"{workload}_seed{seed}.csv")


def _read(workload: str, seed: int) -> str:
    with open(reference_path(workload, seed), encoding="utf-8") as fh:
        return fh.read()


def _parse(text: str) -> tuple[list[str], list[dict[str, str]]]:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _binary_entropy(p: float) -> float:
    return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _dof_consistency(w: Workload, rows: list[dict[str, str]]) -> list[str]:
    """Fano bound, normalised rate and slope recomputed from each row's pe."""
    eps = float(w.args[w.args.index("--epsilon") + 1])
    problems, xs, ys = [], [], []
    for r in rows:
        p = 10.0 ** (float(r["zeta_db"]) / 10.0)
        pe = float(r["ser"])
        q_s = max(1, int(round(p ** ((1.0 - eps) / 4.0))))
        fano = max(0.0, (1.0 - pe) * math.log2(2 * q_s) - _binary_entropy(pe))
        rate = float(r["rate_bits_per_use"])
        if abs(rate - fano) > CONSISTENCY_TOL * max(1.0, fano):
            problems.append(f"zeta {r['zeta_db']}: rate {rate} != Fano bound {fano:.9g} of pe {pe}")
        norm = float(r["normalized_rate"])
        if abs(norm - rate / (0.5 * math.log2(p))) > CONSISTENCY_TOL:
            problems.append(f"zeta {r['zeta_db']}: normalized_rate {norm} != rate / (log2 P / 2)")
        xs.append(0.5 * math.log2(p))
        ys.append(rate)
    xs, ys = xs[-3:], ys[-3:]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    last = float(rows[-1]["bound_value"])
    if abs(last - slope) > CONSISTENCY_TOL * max(1.0, abs(slope)):
        problems.append(f"dof slope {last} != regression slope {slope:.9g}")
    return problems


def check(w: Workload, text: str, seed: int, trials: int) -> tuple[list[str], bool]:
    """Return (problems, byte-identical) for one CSV of workload ``w``."""
    ref_seed = seed if seed in (BENCH_SEED, HELDOUT_SEED) else BENCH_SEED
    ref_text = _read(w.name, ref_seed)
    identical = seed == ref_seed and trials == w.trials and text == ref_text
    if identical:
        return [], True
    header, rows = _parse(text)
    ref_header, ref_rows = _parse(ref_text)
    if header != ref_header:
        return [f"header {header} != reference {ref_header}"], False
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows != reference {len(ref_rows)}"], False
    _, other_rows = _parse(_read(w.name, HELDOUT_SEED if ref_seed == BENCH_SEED else BENCH_SEED))
    problems: list[str] = []
    cross_channel = ref_rows[0]["experiment"] == "dof" and seed != ref_seed
    for i, (r, ref, other) in enumerate(zip(rows, ref_rows, other_rows)):
        where = f"row {i + 1} ({r.get('scheme')}, zeta {r.get('zeta_db')})"
        if any(r[c] != ref[c] for c in KEY_COLUMNS):
            problems.append(f"{where}: key columns differ from reference")
            continue
        if [c for c in header if r[c] == ""] != [c for c in header if ref[c] == ""]:
            problems.append(f"{where}: empty fields differ from reference")
            continue
        vals = {c: float(r[c]) for c in header[2:] if r[c] != ""}
        bad = [c for c, v in vals.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"{where}: non-finite {bad}")
            continue
        n, n_ref = int(r["trials"]), int(ref["trials"])
        if n * w.trials != n_ref * trials:
            problems.append(f"{where}: trials {n} does not scale with the reference's {n_ref}")
            continue
        if "ser" in vals:
            a, b = vals["ser"], float(ref["ser"])
            if not 0.0 <= a <= 1.0:
                problems.append(f"{where}: ser {a} outside [0, 1]")
            elif not cross_channel:
                pbar = (a + b) / 2.0
                tol = Z * math.sqrt(2.0 * pbar * (1.0 - pbar) * (1.0 / n + 1.0 / n_ref)) + 3.0 / min(n, n_ref)
                if abs(a - b) > tol:
                    problems.append(f"{where}: ser {a} vs reference {b} exceeds binomial tolerance {tol:.3g}")
            stderr = math.sqrt(a * (1.0 - a) / n)
            if abs(vals["ser_stderr"] - stderr) > CONSISTENCY_TOL * max(stderr, 1e-6):
                problems.append(f"{where}: ser_stderr {vals['ser_stderr']} != sqrt(ser(1-ser)/trials)")
        if "tx_power_use2" in vals:
            a, b = vals["tx_power_use2"], float(ref["tx_power_use2"])
            if ref["tx_power_use2"] == other["tx_power_use2"]:
                if abs(a - b) > TX_POWER_RTOL * abs(b):
                    problems.append(f"{where}: tx_power_use2 {a} != seed-independent reference {b}")
            elif not a * TX_POWER_FACTOR >= b:
                problems.append(f"{where}: tx_power_use2 {a} below reference {b} / {TX_POWER_FACTOR}")
        if r["experiment"] != "dof" and r["bound_value"] != ref["bound_value"]:
            problems.append(f"{where}: bound_value {r['bound_value']} != reference {ref['bound_value']}")
    if not problems and ref_rows[0]["experiment"] == "dof":
        problems += _dof_consistency(w, rows)
    return problems, False


def record() -> None:
    """Write every workload's reference CSV at both recorded seeds."""
    sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(REF_DIR)), "src"))
    from idsim import cli

    os.makedirs(REF_DIR, exist_ok=True)
    for w in WORKLOADS.values():
        for seed in (BENCH_SEED, HELDOUT_SEED):
            path = reference_path(w.name, seed)
            if cli.main(w.argv(seed) + ["--out", path]) != 0:
                raise SystemExit(f"idsim failed on {w.name} at seed {seed}")
            print(path)


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        raise SystemExit("usage: python3 bench/check.py record")
    record()
