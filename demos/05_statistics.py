"""
Evaluation statistics
=====================

Aggregates per-subject accuracies, runs the paired signed-rank test
(its p read from the exact null distribution), and maps p-values onto
significance bands.
"""

import numpy as np

from emgtcn import stats

# two models evaluated on the same ten subjects
rng = np.random.default_rng(8)
subjects = list(range(1, 11))
model_a = {s: 0.78 + 0.05 * rng.random() for s in subjects}
model_b = {s: model_a[s] + 0.02 + 0.01 * rng.standard_normal()
           for s in subjects}

for name, scores in (("A", model_a), ("B", model_b)):
    rep = stats.aggregate(scores, model_id=name)
    print(f"model {name}: mean {rep.mean:.4f}  std {rep.std:.4f}  "
          f"IQR [{rep.q1:.4f}, {rep.q3:.4f}]")

a = np.array([model_a[s] for s in subjects])
b = np.array([model_b[s] for s in subjects])

result = stats.wilcoxon_signed_rank(a, b)
print(f"W = {result.statistic}, p = {result.p_value:.6f} "
      f"(n_eff = {result.n_effective})")
print(f"band: {stats.significance_band(result.p_value)}")

# the textbook hand case: five positive differences
hand = stats.wilcoxon_signed_rank(np.arange(1.0, 6.0), np.zeros(5))
print(f"d=[1..5]: W = {hand.statistic}, p = {hand.p_value} "
      f"(n_eff = {hand.n_effective})")

# band thresholds
for p in (0.00005, 0.0001, 0.0005, 0.005, 0.03, 0.2):
    print(f"  p = {p:<8} -> {stats.significance_band(p)}")
