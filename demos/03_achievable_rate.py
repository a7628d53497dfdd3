#!/usr/bin/env python3
"""Normalized achievable rate against the channel capacity.

Three curves per SNR point, all normalized per symbol by half the MISO
capacity at the 2P budget:

 - id_gaussian: the Gaussian-input rate of the scheme (closed form),
 - gaussian_floor: the one-bit-away floor 1 - 1/C,
 - fano_discrete: a lower bound from the measured 4-PAM symbol error rate.

The discrete curve starts near zero (the alphabet can't beat the error
rate at 0 dB) and is close to capacity by 18 dB.
"""

import numpy as np

from idsim import analysis, harness, model

grid = np.arange(0.0, 25.0, 3.0)
cfg = harness.ExperimentConfig(
    experiment="rate", k=2, q_s=2, zeta_db_grid=grid, trials=1500, decoder="ml"
)
rows = harness.run_rate_sweep(cfg)

by_scheme = {}
for r in rows:
    by_scheme.setdefault(r.scheme, {})[r.zeta_db] = r

print(f"{'zeta(dB)':>8s} {'gaussian':>10s} {'floor':>10s} {'fano 4-PAM':>11s} {'pair SER':>10s}")
for z in grid:
    g = by_scheme["id_gaussian"][z]
    f = by_scheme["gaussian_floor"][z]
    d = by_scheme["fano_discrete"][z]
    print(f"{z:8.0f} {g.normalized_rate:10.3f} {f.normalized_rate:10.3f} "
          f"{d.normalized_rate:11.3f} {d.ser:10.4f}")

# The one-bit claim needs many symbols sharing few antennas: check it on a
# hundred-symbol frame over two antennas at a few SNRs.
print("\nOne-bit capacity gap, K=100 symbols on N=2 antennas (10 draws each):")
rng = np.random.default_rng(1)
for zdb in (0.0, 10.0, 20.0, 30.0):
    p = 10.0 ** (zdb / 10.0)
    margins = [analysis.capacity_gap_margin(*model.draw_channels(100, 2, 1, rng), p)[0] for _ in range(10)]
    print(f"  zeta={zdb:4.0f} dB: min margin over draws = {min(margins):.3f} bits (> 0)")
