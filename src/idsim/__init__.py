"""Link-level simulation and rate analysis for interference dissolution.

The scheme superposes K PAM symbols in one channel use and then sends each
symbol pair nonlinearly precoded so the pair can be peeled off with one
more observation: interference is dissolved into the pair's own direction's
orthogonal complement. The package re-exports nothing; import its modules,
as in ``from idsim import core``:

- ``model``: constellations with exact power accounting, Rayleigh channel draws
- ``core``: the dissolution signal model, the weight decoder, likelihood oracles,
  and batched whole-frame observation and decoding
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

__version__ = "0.1.0"
