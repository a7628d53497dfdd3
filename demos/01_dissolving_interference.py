#!/usr/bin/env python3
"""Walk through one interference-dissolution frame, step by step.

Six 4-PAM symbols go out in four channel uses: one superposition shot,
then one precoded use per pair. Each pair is decoded from just two
observations, with all the other symbols still unknown to the receiver.
"""

import numpy as np

from idsim import core, model

rng = np.random.default_rng(7)

P = 10.0  # per-symbol power
const = model.constellation_for_power(P, 2)
print("4-PAM alphabet scaled to power", P)
print("  points:", np.round(const.points, 3))
print("  average power:", round(const.power, 12))

K = 6
h = model.draw_channels(K, K, 1, rng)[0][0]  # symbol gains of one channel
s = const.draw(rng, size=K)
print(f"\n{K} symbols:", np.round(s, 3))
print("channel gains:", np.round(h, 3))

# One frame is a batch of n = 1: beta is (1, pairs), y is (1, 1 + pairs).
pairs = [core.pair_members(K, m) for m in range(1, core.num_pairs(K) + 1)]
beta, y = core.frame_observe(h[None], s[None])
beta = beta[0]
powers = [np.sum(s**2)] + [core.second_use_power(beta[i], s[[a, b]]) for i, (a, b) in enumerate(pairs)]
print("\nDissolution factors per pair:", np.round(beta, 4))
print("Realized power per channel use:", np.round(powers, 2))
print("(the second uses are not re-normalized; the factor inflates them)")

# The first observation is a plain superposition; every pair reuses it.
y1 = h @ s
for m in range(1, core.num_pairs(K) + 1):
    a, b = core.pair_members(K, m)
    lhs = h[a] * s[a] + beta[m - 1] * h[b] * s[b]
    print(f"pair {m}: h_a s_a + beta h_b s_b = {lhs:+.6f}  vs  y1 = {y1:+.6f}")

# Decode pair 1 in unit-variance noise and show the weight landscape.
y_pair = y[:, :2] + rng.normal(0.0, 1.0, size=(1, 2))
cands = core.candidate_pairs(const)
weights = core.weight_matrix(y_pair, h[None, :2], cands)[0]
order = np.argsort(weights)
print(f"\nnoisy observations for pair 1: y = ({y_pair[0, 0]:+.3f}, {y_pair[0, 1]:+.3f})")
print("five smallest weights:")
for idx in order[:5]:
    tag = "  <-- true pair" if tuple(cands[idx]) == (s[0], s[1]) else ""
    print(f"  cand ({cands[idx][0]:+.3f}, {cands[idx][1]:+.3f})  w = {weights[idx]:.4f}{tag}")

pick = core.pair_decode(y_pair, h[None], 1, const)[0]
print("weight decoder picks:", tuple(np.round(pick, 3)))

# Full frame, noiseless: every symbol comes back exactly.
s_hat = core.frame_decode(y, h[None], const)[0]
print("\nnoiseless full frame:", np.round(s_hat, 3))
print("exact recovery:", bool(np.all(s_hat == s)))
print(f"channel uses: {core.channel_uses(K)} for {K} symbols "
      f"-> {K / core.channel_uses(K):.2f} symbols per use")
