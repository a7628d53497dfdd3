"""The benchmark's workloads and the layer metrics it reports.

Each workload is one fixed ``idsim`` CLI experiment. The benchmark passes
its workload seed to the CLI as ``--seed`` and sets ``--trials`` so that
one process finishes in a few seconds on two cores while every kernel call
still sees a full-size chunk (harness ``CHUNK`` = 8192 rows, the ``dof``
prober's 2048), which is what sets peak memory.
"""

from __future__ import annotations

from dataclasses import dataclass

# idsim's own default seed; the benchmark seed unless --seed says otherwise.
BENCH_SEED = 12345
# Second recorded seed, never used while tuning: later claims are confirmed on it.
HELDOUT_SEED = 1606

# Called on every workload: the CLI entry, the dispatch and the CSV writer.
_COMMON = (
    "cli.main",
    "cli.parse_snr_grid",
    "harness.run_experiment",
    "harness.rows_to_csv",
    "harness.write_csv",
    "model.constellation_for_power",
    "model._signed_rayleigh",
    "model.PamConstellation.draw",
    "core.candidate_pairs",
)


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    trials: int
    why: str
    # Functions the traced run must see called at least once (coverage check).
    expected: tuple[str, ...]

    def argv(self, seed: int, trials: int | None = None) -> list[str]:
        """Exact idsim CLI arguments for ``seed`` (``--out`` is added per process)."""
        n = self.trials if trials is None else trials
        return [*self.args, "--trials", str(n), "--seed", str(seed)]


_SER_PATH = (
    "harness.run_ser_sweep",
    "harness._id_frame_batch",
    "harness._id_decode_batch",
    "model.draw_channels",
    "model.PamConstellation.nearest",
    "baselines._successive_decode_batch",
)

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "ser-2pam",
            ("ser", "--k", "2", "--qs", "1", "--snr-db", "0:5:40"),
            trials=200_000,
            why="C = 4 candidates: the weight kernel is about a third of the time, so draws, "
            "slicing, frame glue and baselines show, and so does a small-C kernel loss",
            expected=_COMMON + _SER_PATH + ("core.weight_matrix",),
        ),
        Workload(
            "multicast-16pam",
            ("multicast", "--qs", "8", "--snr-db", "0:10:30"),
            trials=8192,
            why="C = 256, three users per frame: the weight kernel is about 98% of the time, "
            "each (8192, 256, 2) intermediate is 33 MB, far past L2",
            expected=_COMMON + ("harness.run_multicast", "core.weight_matrix", "model.PamConstellation.nearest"),
        ),
        Workload(
            "ser-k4-16pam-ml",
            ("ser", "--k", "4", "--qs", "8", "--snr-db", "0:10:40", "--decoder", "ml"),
            trials=8192,
            why="the only CLI path into core.ml_metric_matrix (about 93% of the time), "
            "plus the K > 2 interference path and the block antenna map",
            expected=_COMMON + _SER_PATH + ("core.ml_metric_matrix",),
        ),
        Workload(
            "dof-critical",
            ("dof", "--snr-db", "20:10:60", "--epsilon", "0.1"),
            trials=4096,
            why="the analysis prober path; critical scaling grows C from 36 to 1936, so the "
            "kernel working set sweeps from in-cache to 63 MB per intermediate",
            expected=_COMMON
            + (
                "harness.run_dof_sweep",
                "analysis.dof_slope",
                "analysis._pair_error_rate",
                "analysis.fano_rate_lower_bound",
                "analysis.dof_growth_slope",
                "core.weight_matrix",
            ),
        ),
    ]
}

# End-to-end metrics: name -> unit. Reported with tracing off.
END_TO_END = {
    "frames_per_s": "frames/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_frac": "fraction",
}

# Functions whose calls, self time and share the traced run reports.
TRACED_FUNCTIONS = (
    "cli.main",
    "harness.run_experiment",
    "harness.run_ser_sweep",
    "harness.run_multicast",
    "harness.run_dof_sweep",
    "harness._id_frame_batch",
    "harness._id_decode_batch",
    "harness.rows_to_csv",
    "model.draw_channels",
    "model._signed_rayleigh",
    "model.PamConstellation.draw",
    "model.PamConstellation.nearest",
    "core.candidate_pairs",
    "core.weight_matrix",
    "core.ml_metric_matrix",
    "baselines._successive_decode_batch",
    "analysis.dof_slope",
    "analysis._pair_error_rate",
)

# The pair-metric kernels, with the number of (rows, C, 2) float64 arrays
# each one materialises in the code this benchmark was defined on:
# weight_matrix builds v, d, d*v and v*v; ml_metric_matrix builds v, d,
# vperp, d*d, d*vperp and v*v. bytes_computed is derived from this table and
# the argument shapes, not measured.
KERNELS = {"core.weight_matrix": 4, "core.ml_metric_matrix": 6}

LAYERS = ("model", "core", "baselines", "analysis", "harness", "cli")


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, better), in report order."""
    out: dict[str, tuple[str, str]] = {}
    for fn in TRACED_FUNCTIONS:
        out[f"{fn}.calls"] = ("count", "lower")
        out[f"{fn}.self_s"] = ("s", "lower")
        out[f"{fn}.self_share"] = ("fraction", "lower")
    for fn in KERNELS:
        out[f"{fn}.cand_evals"] = ("count", "lower")
        out[f"{fn}.bytes_computed"] = ("bytes", "lower")
        out[f"{fn}.ns_per_cand_eval"] = ("ns", "lower")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = ("s", "lower")
        out[f"layer.{layer}.self_share"] = ("fraction", "lower")
    out["trace.overhead_frac"] = ("fraction", "lower")
    out["process.cpu_util"] = ("fraction", "higher")
    return out
