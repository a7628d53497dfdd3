#!/usr/bin/env python3
"""Minimum-distance scaling and the half degree-of-freedom per symbol.

The decoder separates a pair whenever no wrong candidate projects onto
the observation the way the true pair does; the relevant margin is the
minimum weight over wrong candidates. Scaling it by q_s^2 / (h a_s)^2
removes the nominal constellation shrinkage, so a flat profile across
alphabet sizes is what lets the constellation grow with power.

Growing the half-size as P^((1-eps)/4) then buys rate ~ (1-eps)/4 *
log2(P) per symbol: half of the AWGN slope, i.e. 1/2 DoF.
"""

import numpy as np

from idsim import analysis, model

rng = np.random.default_rng(3)

print("scaled min weight^2 over 2000 draws per alphabet size (K=4):")
print(f"{'q_s':>4s} {'min':>10s} {'1%':>10s} {'median':>10s}")
for q_s in (2, 4, 8, 16):
    const = model.constellation_for_power(1.0, q_s)
    d2 = analysis.dmin_probe(const, 2000, rng, k=4)
    print(f"{q_s:4d} {np.min(d2):10.2e} {np.percentile(d2, 1.0):10.2e} {np.median(d2):10.3f}")
print("(the floor is an extreme statistic and jumps around; the body of the")
print(" distribution stays within a small factor across a 8x size sweep)")

print("\nDoF sweep, eps=0.1, one fixed channel draw, 4000 trials per point:")
pts = analysis.dof_slope([1e2, 1e3, 1e4, 1e5, 1e6], 0.1, trials=4000, rng=rng, k=4)
print(f"{'P':>8s} {'q_s':>4s} {'pair err':>9s} {'fano bits':>10s} {'ratio':>7s}")
for pt in pts:
    print(f"{pt.p:8.0e} {pt.q_s:4d} {pt.pe:9.3f} {pt.fano_bound:10.3f} {pt.ratio:7.3f}")
slope = analysis.dof_growth_slope(pts)
print(f"growth slope of the bound vs (1/2) log2 P over the top decades: {slope:.3f}")
print("(target 0.5 * (1 - eps) = 0.45; the plain ratio converges much more")
print(" slowly because the critical scaling keeps the error rate order one)")
