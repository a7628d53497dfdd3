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
ch = model.draw_channel(K, K, rng)
block = core.SymbolBlock.draw(const, K, rng)
print(f"\n{K} symbols:", np.round(block.s, 3))
print("channel gains:", np.round(ch.h, 3))

pairs = [core.pair_members(K, m) for m in range(1, core.num_pairs(K) + 1)]
beta = np.array([core.dissolution_factor(block, ch, m) for m in range(1, len(pairs) + 1)])
powers = [np.sum(block.s**2)] + [core.second_use_power(beta[i], block.s[[a, b]]) for i, (a, b) in enumerate(pairs)]
print("\nDissolution factors per pair:", np.round(beta, 4))
print("Realized power per channel use:", np.round(powers, 2))
print("(the second uses are not re-normalized; the factor inflates them)")

# The first observation is a plain superposition; every pair reuses it.
y1 = core.first_use_signal(block, ch)
for m in range(1, core.num_pairs(K) + 1):
    a, b = core.pair_members(K, m)
    lhs = ch.h[a] * block.s[a] + beta[m - 1] * ch.h[b] * block.s[b]
    print(f"pair {m}: h_a s_a + beta h_b s_b = {lhs:+.6f}  vs  y1 = {y1:+.6f}")

# Decode pair 1 in noise and show the weight landscape.
sigma2 = 1.0
rp = core.transmit_pair(block, ch, 1, model.NoiseModel(sigma2), rng)
weights = core.weight_values(rp, ch, 1, const)
cands = core.candidate_pairs(const)
order = np.argsort(weights)
print(f"\nnoisy observations for pair 1: y = ({rp.y1:+.3f}, {rp.ym:+.3f})")
print("five smallest weights:")
for idx in order[:5]:
    tag = "  <-- true pair" if tuple(cands[idx]) == (block.s[0], block.s[1]) else ""
    print(f"  cand ({cands[idx][0]:+.3f}, {cands[idx][1]:+.3f})  w = {weights[idx]:.4f}{tag}")

res = core.decode_pair(rp, ch, 1, const)
print("weight decoder picks:", tuple(np.round(res.pair, 3)))

# Full frame, noiseless: every symbol comes back exactly.
results = core.transmit_and_decode_all(block, ch, None, None, const)
s_hat = core.frame_symbols(results, K)
print("\nnoiseless full frame:", np.round(s_hat, 3))
print("exact recovery:", bool(np.all(s_hat == block.s)))
print(f"channel uses: {core.channel_uses(K)} for {K} symbols "
      f"-> {K / core.channel_uses(K):.2f} symbols per use")
