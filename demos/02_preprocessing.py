"""
Signal conditioning and segmentation
====================================

Runs one synthetic recording through the conditioning chain: causal
low-pass filter, global max-abs normalization, logarithmic companding,
then windowing into labeled segments.
"""

import numpy as np

from emgtcn import data as dio
from emgtcn import signal as sig

rec = dio.generate_synthetic(subjects=1, classes=5, reps=6, seed=42)[0]
print(f"recording: {rec.channels} channels x {rec.num_samples} samples "
      f"at {rec.sample_rate_hz:.0f} Hz")

# the companding curve: strong gain for small amplitudes; the result is
# a float64 array of the input's shape
mu = sig.MuLawParams()
xs = np.array([0.01, 0.1, 0.5, 1.0])
for x, y in zip(xs, sig.mu_law(xs, mu)):
    print(f"  mu-law({x:4}) = {y:.6f}")

processed = sig.preprocess(rec.data)
print(f"after preprocessing: range [{processed.min():.4f}, "
      f"{processed.max():.4f}]")

# cut into 200 ms windows; a window must sit inside one repetition span
segments = sig.segment(rec.with_data(processed), window_ms=200)
print(f"{len(segments)} segments of shape "
      f"{segments.channels} x {segments.seg_len}")
classes, counts = np.unique(segments.labels, return_counts=True)
for cls, count in zip(classes, counts):
    print(f"  class {cls}: {count}")

# a wider stride thins the windows out
sparse = sig.segment(rec.with_data(processed), window_ms=200, stride_ms=400)
print(f"with a 400 ms stride: {len(sparse)} segments")
