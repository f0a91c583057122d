"""How the benchmark times an interval.

On a shared host the speed of the same code drifts by a quarter or more
over tens of seconds (measured on the 2-core development host: epoch
times of one run ranged 0.39-0.70 s), so two runs of one commit a minute
apart can disagree by more than any useful regression bound.

* ``ScaledClock`` (training and inference): wall time, scaled by a
  fixed reference job run right before and right after each interval.
  An interval's time is multiplied by ``NOMINAL_S`` over the mean of
  the two reference times around it, so it reads as seconds on the host
  at its nominal speed. The reference mixes interpreter work with
  small-array numpy calls, what training and inference spend their time
  on. It is benchmark code, so no change to the program can move it.
* ``CpuClock`` (ingest): process CPU time, user plus system. Ingest
  time goes to large-array memory traffic, page faults and file writes,
  which the reference does not track; waiting on the disk is left out.
* ``WallClock`` (traced runs): plain wall time.

Workloads read ``now()`` at the start and end of an interval and call
``factor()`` right after it ends; the scaled time is the difference
times the factor. Raw wall times stay in the report.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.030  # typical reference time on a 2-core x86-64 host, OpenBLAS, 1 thread

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((32, 10, 12))
_W = _rng.standard_normal((12, 12))
_K = _rng.standard_normal((12, 12))


def reference_s() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    for _ in range(100):
        h = np.maximum(_X @ _W, 0.0)
        e = np.exp(h - h.max(axis=-1, keepdims=True))
        e /= e.sum(axis=-1, keepdims=True)
        np.einsum("oi,bit->bot", _K, e.transpose(0, 2, 1))
    return time.perf_counter() - t0


class WallClock:
    now = staticmethod(time.perf_counter)

    def factor(self) -> float:
        return 1.0


class CpuClock(WallClock):
    now = staticmethod(time.process_time)


class ScaledClock(WallClock):
    def __init__(self):
        self.last = reference_s()

    def factor(self) -> float:
        now = reference_s()
        scale = NOMINAL_S / ((self.last + now) / 2.0)
        self.last = now
        return scale
