"""Link-level simulation and rate analysis for interference dissolution.

The scheme superposes K PAM symbols in one channel use and then sends each
symbol pair nonlinearly precoded so the pair can be peeled off with one
more observation: interference is dissolved into the pair's own direction's
orthogonal complement. Modules:

- ``model``: constellations, Rayleigh channel draws, noise, power budgets
- ``core``: precoding, the weight decoder, and likelihood oracles
- ``baselines``: transmit-MRC MISO and successive decoding references
- ``analysis``: closed-form rates, bounds, distance and DoF probers
- ``multicast``: the three-user, three-symbols-in-two-uses application
- ``harness``: seeded Monte Carlo sweeps and CSV emission
- ``cli``: the ``idsim`` command
"""

import os as _os

# The pair metrics are (rows, 2) @ (2, C) products on small blocks. A second
# BLAS thread did not make them faster but took up to 16% more CPU time, so
# BLAS runs on one thread unless a thread count is already set. This holds
# only when importing idsim is what loads numpy's BLAS.
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
if not any(var in _os.environ for var in _BLAS_THREAD_VARS):
    _os.environ["OMP_NUM_THREADS"] = "1"

from .analysis import (
    DminReport,
    DofPoint,
    RateReport,
    binary_entropy,
    capacity_gap_check,
    capacity_miso,
    dmin_exhaustive,
    dmin_probe,
    dof_growth_slope,
    dof_slope,
    fano_rate_lower_bound,
    pe_upper_bound,
    rate_pair_gaussian,
    rate_report,
    rate_total,
)
from .baselines import BaselineConfig, mrc_transmit_decode, successive_transmit_decode
from .core import (
    DecodeResult,
    FramePlan,
    ReceivedPair,
    SymbolBlock,
    channel_uses,
    decode_pair,
    dissolution_factor,
    first_use_signal,
    frame_symbols,
    ml_decode_pair,
    ml_decode_pair_known_beta,
    plan_frame,
    transmit_and_decode_all,
    transmit_frame,
    transmit_pair,
    weight,
)
from .harness import ExperimentConfig, SweepRow, run_experiment, write_csv
from .model import (
    ChannelRealization,
    NoiseModel,
    PamConstellation,
    PowerBudget,
    amplitude_for_power,
    awgn,
    build_constellation,
    constellation_for_power,
    draw_channel,
)
from .multicast import (
    ALPHA_DEFAULT,
    MulticastFrame,
    multicast_decode_s3,
    multicast_receive_decode,
    multicast_transmit,
    s3_rate_slope,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
