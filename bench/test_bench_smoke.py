"""Smoke check of the benchmark itself, at tiny trials and with no timing gate.

Runs every workload once untraced and once traced through ``run.py`` and
asserts the correctness check, the trace coverage check (both reported in
``correct``) and the result keys. ``python -m pytest bench`` runs it alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from check import check, reference_path  # noqa: E402
from workloads import BENCH_SEED, END_TO_END, WORKLOADS, per_layer_units  # noqa: E402

RESULTS = os.path.join(BENCH, "results")
TINY_TRIALS = {"ser-2pam": 2000, "multicast-16pam": 200, "ser-k4-16pam-ml": 200, "dof-critical": 100}


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seconds", "0",
           "--trace", str(trace), "--trials", str(TINY_TRIALS[workload])]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_passes_checks_and_reports_every_metric(workload):
    for trace, names in ((0, list(END_TO_END)), (1, list(per_layer_units()))):
        # A file in the benchmark run's own results directory must survive a smoke run.
        bench_dir = os.path.join(RESULTS, f"{workload}_seed{BENCH_SEED}_trace{trace}")
        os.makedirs(bench_dir, exist_ok=True)
        marker = os.path.join(bench_dir, "smoke-marker")
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("left by test_bench_smoke\n")
        try:
            result = _run(workload, trace)
            assert os.path.isfile(marker)
        finally:
            os.remove(marker)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, result
        assert list(result["metrics"]) == names
        tag = f"{workload}_seed{BENCH_SEED}_trace{trace}_trials{TINY_TRIALS[workload]}"
        assert os.path.isfile(os.path.join(RESULTS, tag + ".json"))


def test_benchmark_json_names_the_coded_workloads_and_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == per_layer_units()


def test_check_rejects_a_shifted_ser_and_a_nan():
    w = WORKLOADS["ser-2pam"]
    with open(reference_path(w.name, BENCH_SEED), encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    assert check(w, "\n".join(lines), BENCH_SEED, w.trials) == ([], True)
    fields = lines[1].split(",")
    shifted = float(fields[4]) + 0.05
    for ser, stderr in ((shifted, (shifted * (1 - shifted) / int(fields[3])) ** 0.5), ("nan", fields[5])):
        text = "\n".join([lines[0], ",".join(fields[:4] + [str(ser), str(stderr)] + fields[6:]), *lines[2:]])
        problems, identical = check(w, text, BENCH_SEED, w.trials)
        assert problems and not identical


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_check_rejects_a_scaled_seed_independent_tx_power(factor):
    w = WORKLOADS["ser-2pam"]
    with open(reference_path(w.name, BENCH_SEED), encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    fields = lines[1].split(",")
    assert fields[2] == "0" and fields[-1] == "2"  # id_weight at 0 dB: exactly 2P
    text = "\n".join([lines[0], ",".join(fields[:-1] + [str(2 * factor)]), *lines[2:]])
    problems, identical = check(w, text, BENCH_SEED, w.trials)
    assert any("tx_power_use2" in p for p in problems) and not identical
