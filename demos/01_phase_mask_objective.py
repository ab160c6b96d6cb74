"""The toy objective: how much light a discrete phase mask steers into one
diffraction order.

A configuration is a vector of n integer levels in [0, L).  Element m gets
the complex amplitude exp(2*pi*i * c_m / L), and the score for target order
k is the normalized far-field power |DFT_k|^2 / n^2.  It is cheap, exactly
checkable, and has the same shape as a genuinely expensive physics merit
function: discrete knobs in, one scalar out.
"""

import numpy as np

from idleclimb.objective import PhaseMaskObjective, neighbors
from support import brute_force_optimum, spectrum

obj = PhaseMaskObjective(length=8, level_count=2, target_order=1)

# A uniform mask is a plain mirror: everything lands in order 0.
flat = (0,) * 8
print("flat mask          ->", [f"{v:.4f}" for v in spectrum(flat, 2)])

# Alternating elements form a two-level grating: power splits symmetrically.
alternating = (0, 1) * 4
print("alternating mask   ->", [f"{v:.4f}" for v in spectrum(alternating, 2)])

# Exhaustive search over all 2^8 masks for order 1.
best_config, best_value = brute_force_optimum(obj)
print(f"\nbrute-force optimum for order 1: {best_config}  efficiency {best_value:.6f}")
print("(a half-period step mask; (2 + sqrt(2))/8 =", (2 + np.sqrt(2)) / 8, ")")

# Energy conservation: the efficiencies over all n orders always sum to 1.
rng = np.random.default_rng(0)
mask = tuple(int(v) for v in rng.integers(0, 4, size=16))
total = spectrum(mask, 4).sum()
print(f"\nrandom 16-element 4-level mask: spectrum sums to {total:.15f}")

# The search neighborhood used by the optimizer: all single-element changes.
count = sum(1 for _ in neighbors(obj, best_config))
print(f"single-change neighbors of an 8-element binary mask: {count}")

# No neighbor of the brute-force optimum improves on it, by definition.
improving = [
    change
    for change in neighbors(obj, best_config)
    if obj.evaluate(best_config[: change[0]] + (change[1],) + best_config[change[0] + 1 :])
    > best_value
]
print("improving neighbors at the optimum:", improving)
