"""
Architecture geometry and parameter audit
=========================================

Derives the eight standard configurations, prints a per-stage parameter
table counted in closed form from each configuration (no model is
built), and demonstrates the causal receptive field of the dilated
temporal-convolution stack.
"""

import numpy as np

from emgtcn.model import (
    BASELINE_RECURRENT_PARAMS,
    count_parameters,
    derive_config,
)
from emgtcn.tensor import Tensor, causal_conv_block

print(f"{'window':>7} {'N':>3} {'D':>3} {'Z':>2} "
      f"{'embed':>6} {'attn':>5} {'blocks':>6} {'head':>5} {'total':>6} ratio")
for window_ms in (200, 300):
    for n, d in ((10, 12), (10, 16), (16, 12), (16, 16)):
        if window_ms == 300 and n == 16:
            n = 15  # 600 samples split into 15 patches of 40
        cfg = derive_config(window_ms, n, d)
        total, parts = count_parameters(cfg)
        print(f"{window_ms:>5}ms {n:>3} {d:>3} {cfg.num_blocks:>2} "
              f"{parts['embedding']:>6} {parts['attention']:>5} "
              f"{parts['blocks']:>6} {parts['classifier']:>5} {total:>6} "
              f"{BASELINE_RECURRENT_PARAMS / total:5.1f}x")

# causality: perturbing the input at t never changes a TC block's outputs before t
rng = np.random.default_rng(1)
x = rng.normal(size=(2, 12)).T  # (T, channels)
weights = (Tensor(rng.normal(size=(2, 2, 3))), Tensor(np.zeros(2)),
           Tensor(rng.normal(size=(2, 2, 3))), Tensor(np.zeros(2)))
base = causal_conv_block(Tensor(x), *weights, dilation=2).data
bumped = x.copy()
bumped[8, :] += 10.0
after = causal_conv_block(Tensor(bumped), *weights, dilation=2).data
changed = np.flatnonzero(np.any(after != base, axis=1))
print(f"\nperturbed input index 8; changed output indices: {changed}")
assert np.array_equal(after[:8], base[:8]), changed

# receptive field growth: 1 + 2*(k-1)*sum(dilations)
for n in (10, 15, 16):
    cfg = derive_config(200 if n != 15 else 300, n, 12)
    reach = 1 + 2 * (cfg.kernel_size - 1) * sum(cfg.dilations)
    print(f"N={n:>2}: dilations {cfg.dilations} reach {reach} positions")
