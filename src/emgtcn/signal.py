"""Conditioning and windowing of raw surface-EMG recordings.

The pipeline is: causal first-order Butterworth low-pass per channel,
per-recording max-abs normalization into [-1, 1], logarithmic mu-law
companding, then segmentation into fixed-length windows that lie fully
inside a single gesture's active span.

Two knobs here are deliberate configuration, not derived constants, and
both matter when trying to reproduce published accuracy numbers: the
filter cutoff (default 450 Hz) and the companding strength mu (default
255, the telephony convention). Window stride defaults to the window
length, i.e. non-overlapping segments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import butter, lfilter

from .errors import ConfigError, DataError

__all__ = [
    "MuLawParams",
    "FilterParams",
    "SegmentSet",
    "butterworth_lowpass",
    "normalize_max_abs",
    "mu_law",
    "segment",
    "preprocess",
    "ms_to_samples",
    "window_samples",
]


@dataclass(frozen=True)
class MuLawParams:
    """Compression strength for the logarithmic scaler."""

    mu: float = 255.0

    def __post_init__(self):
        if not (self.mu > 0 and np.isfinite(self.mu)):
            raise ConfigError(f"mu must be a positive finite float, got {self.mu!r}")


@dataclass(frozen=True)
class FilterParams:
    cutoff_hz: float = 450.0
    sample_rate_hz: float = 2000.0

    def __post_init__(self):
        if not (self.sample_rate_hz > 0 and np.isfinite(self.sample_rate_hz)):
            raise ConfigError(
                f"sample_rate_hz must be positive, got {self.sample_rate_hz!r}"
            )
        if not (0 < self.cutoff_hz < self.sample_rate_hz / 2):
            raise ConfigError(
                f"cutoff_hz must lie in (0, {self.sample_rate_hz / 2}) "
                f"(below Nyquist), got {self.cutoff_hz!r}"
            )


@dataclass
class SegmentSet:
    """Columnar batch of segments.

    data is M x C x L float64; labels are zero-based class indices
    (annotation gesture g maps to class g-1; rest never appears).
    """

    data: np.ndarray
    labels: np.ndarray
    subjects: np.ndarray
    repetitions: np.ndarray
    sample_rate_hz: float

    #: the per-window arrays: the windows, then one entry per window
    PER_WINDOW: ClassVar[tuple] = ("data", "labels", "subjects", "repetitions")

    def __post_init__(self):
        if self.data.ndim != 3:
            raise DataError(f"segment data must be M x C x L, got {self.data.shape}")
        if not (np.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise DataError(
                f"sample rate must be finite and positive, got {self.sample_rate_hz}"
            )
        m = self.data.shape[0]
        for name in self.PER_WINDOW[1:]:
            arr = getattr(self, name)
            if arr.shape != (m,):
                raise DataError(
                    f"{name} must have one entry per segment ({m}), got {arr.shape}"
                )

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[1]

    @property
    def seg_len(self) -> int:
        return self.data.shape[2]


def butterworth_lowpass(signal: np.ndarray, p: FilterParams) -> np.ndarray:
    """First-order causal low-pass, one forward pass per channel.

    Accepts a single series or a channels x T matrix; returns float64 of
    the same shape. The discretization is the bilinear transform with
    frequency prewarping, which pins DC gain to exactly 1.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.size == 0:
        raise DataError("cannot filter an empty series")
    b, a = butter(1, p.cutoff_hz, btype="low", fs=p.sample_rate_hz)
    return lfilter(b, a, x, axis=-1)


def normalize_max_abs(x: np.ndarray) -> np.ndarray:
    """Scale a whole recording into [-1, 1] by its global peak.

    One shared factor across channels preserves inter-channel amplitude
    ratios. An all-zero input is returned unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    # max |x| without an |x| temporary; NaN propagates through both
    peak = max(x.max(), -x.min()) if x.size else 0.0
    return x if peak == 0.0 else x / peak


def mu_law(x, p: MuLawParams = MuLawParams()) -> np.ndarray:
    """Logarithmic companding sign(x) * ln(1 + mu|x|) / ln(1 + mu).

    Odd, strictly increasing, and fixes -1, 0, 1 exactly; both zeros map
    to +0.0 and NaN stays NaN. Inputs must already be normalized into
    [-1, 1]. The result is a fresh float64 array of x's shape (0-d for a
    scalar), computed in that one buffer: since
    (+-y) / c == +-(y / c) exactly, companding |x| and copying the sign
    of each nonzero x back gives the formula's value bit for bit.
    """
    arr = np.asarray(x, dtype=np.float64)
    out = np.abs(arr, out=np.empty_like(arr))
    # a max above 1 or a NaN max sends us to the mask; NaN alone passes
    if not out.max(initial=0.0) <= 1.0:
        bad = out > 1.0
        if bad.any():
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            pos = idx[0] if len(idx) == 1 else idx
            raise DataError(
                f"mu_law input must satisfy |x| <= 1; index {pos} holds {arr[idx]!r}"
            )
    # sign(+-0) is 0, so a zero x must give +0.0 while a negative x whose
    # value underflows gives -0.0; only an input holding a zero (or NaN)
    # needs the mask that tells the two apart
    nonzero = True if out.min(initial=np.inf) > 0.0 else arr != 0
    out *= p.mu
    np.log1p(out, out=out)
    out /= np.log1p(p.mu)
    np.copysign(out, arr, out=out, where=nonzero)
    return out


def segment(recording, window_ms: int, stride_ms: int | None = None) -> SegmentSet:
    """Cut a recording into labeled windows.

    A window is emitted only when it fits entirely inside one
    contiguous run of constant (gesture, repetition) with gesture != 0;
    rest samples and boundary-straddling windows are discarded. Within
    a run of span samples the count is floor((span - L) / stride) + 1.
    Emitted labels are zero-based (gesture g -> class g-1).
    """
    sample_rate_hz = float(recording.sample_rate_hz)
    seg_len, stride = window_samples(window_ms, stride_ms, sample_rate_hz)

    data = np.asarray(recording.data, dtype=np.float64)
    gesture = np.asarray(recording.gesture)
    repetition = np.asarray(recording.repetition)
    subject = int(getattr(recording, "subject", 0))

    # bounds of the maximal runs of constant (gesture, repetition)
    change = (gesture[1:] != gesture[:-1]) | (repetition[1:] != repetition[:-1])
    bounds = np.concatenate(([0], np.flatnonzero(change) + 1, [len(gesture)]))
    starts = np.concatenate([np.zeros(0, int)] + [
        np.arange(a, b - seg_len + 1, stride)
        for a, b in zip(bounds[:-1], bounds[1:]) if a < b and gesture[a]
    ])
    m = len(starts)
    if m:  # one gather from the (T - L + 1) x C x L view of every window
        out = sliding_window_view(data, seg_len, axis=1).transpose(1, 0, 2)[starts]
    else:
        if gesture.any():
            warnings.warn(
                f"window of {seg_len} samples exceeds every active gesture span; "
                "no segments emitted",
                stacklevel=2,
            )
        out = np.empty((0, data.shape[0], seg_len))
    return SegmentSet(
        data=out,
        labels=gesture[starts].astype(np.int64) - 1,
        subjects=np.full(m, subject, dtype=np.int64),
        repetitions=repetition[starts].astype(np.int64),
        sample_rate_hz=sample_rate_hz,
    )


def preprocess(
    data: np.ndarray,
    filter_params: FilterParams = FilterParams(),
    mu_params: MuLawParams = MuLawParams(),
) -> np.ndarray:
    """Filter, normalize, and compand one recording's channel matrix.

    Each stage's input is dropped as soon as the next stage returns, so
    at most two full-size float64 buffers are alive at once.
    """
    x = butterworth_lowpass(data, filter_params)
    x = normalize_max_abs(x)
    return mu_law(x, mu_params)


def ms_to_samples(ms: int, rate_hz: float, name: str) -> int:
    """Convert a duration to a sample count, refusing any duration that
    is not a whole positive number of samples at ``rate_hz``."""
    try:
        exact = ms * rate_hz / 1000.0
    except OverflowError:  # an int beyond any float
        exact = np.inf
    n = round(exact) if np.isfinite(exact) else 0
    if abs(exact - n) > 1e-9 or n < 1:
        raise ConfigError(
            f"{name}={ms} is not a whole positive number of samples at {rate_hz} Hz"
        )
    return int(n)


def window_samples(window_ms: int, stride_ms: int | None, rate_hz: float) -> tuple:
    """The window and the stride (by default the window) in samples at
    ``rate_hz``. A duration must be a whole positive number of samples;
    it and its count stay below 2**32, far beyond any real window."""
    counts = []
    for name, ms in (("window_ms", window_ms), ("stride_ms", stride_ms)):
        ms = window_ms if ms is None else ms
        n = ms_to_samples(ms, rate_hz, name)
        if max(ms, n) >= 2**32:
            raise ConfigError(
                f"{name}={ms} is {n:.6g} samples at {rate_hz} Hz; a duration and its "
                "sample count must each be below 2**32"
            )
        counts.append(n)
    return tuple(counts)
