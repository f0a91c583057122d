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

import math
import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError

__all__ = [
    "MuLawParams",
    "FilterParams",
    "SegmentSet",
    "butterworth_lowpass",
    "normalize_max_abs",
    "mu_law",
    "segment",
    "segment_index",
    "window_blocks",
    "preprocess",
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
        # the ratio the filter is designed from underflows for a tiny cutoff
        if not (0 < self.cutoff_hz / self.sample_rate_hz < 0.5):
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
    frequency prewarping, which pins DC gain to exactly 1: with
    t = tan(pi * cutoff / rate), y[n] = a*y[n-1] + b*(x[n] + x[n-1]) for
    b = t/(1+t) and the pole a = (1-t)/(1+t), from rest. A series is NaN
    from its first n with x[n] + x[n-1] not finite on.
    """
    x = np.asarray(signal)
    if x.size == 0:
        raise DataError("cannot filter an empty series")
    t = math.tan(math.pi * (p.cutoff_hz / p.sample_rate_hz))
    rows = x.reshape(-1, x.shape[-1])
    n = rows.shape[1]
    u = np.zeros((len(rows), -(-n // _BLOCK), _BLOCK))  # x[n] + x[n-1], zero-padded
    flat = u.reshape(len(rows), -1)
    flat[:, :n] = rows
    after = None
    with np.errstate(over="ignore", invalid="ignore"):
        flat[:, 1:n] += rows[:, :-1]
        if not np.isfinite(flat.sum()):
            # a block's product spreads a NaN or inf to its earlier outputs
            # too (0 * nan is nan), so a series is scanned only up to one
            after = np.logical_or.accumulate(~np.isfinite(flat), axis=1)
            flat[after] = 0.0
    y = _scan(u, (1 - t) / (1 + t), t / (1 + t)).reshape(len(rows), -1)
    if after is not None:
        y[after] = np.nan
    return y[:, :n].reshape(x.shape)


_BLOCK = 32  # samples per block of _scan


def _scan(u: np.ndarray, a: float, gain: float = 1.0) -> np.ndarray:
    """gain * y for y[n] = a*y[n-1] + u[n] from rest, u being R series of m
    blocks of K samples (overwritten): a times the y each block's forerunner
    ends in, itself this recurrence at a**K, is added to the block's first
    sample, then each series is one product with the powers of a."""
    k = u.shape[-1]
    powers = a ** np.arange(k)
    # subnormals would slow the products manyfold and add less than rounding
    powers[abs(powers) < np.finfo(float).tiny] = 0.0
    lag = np.arange(k) - np.arange(k)[:, None]
    if u.shape[1] > 1:
        ends = u[:, :-1] @ powers[::-1]  # each block's last y from rest
        state = np.zeros((len(u), -(-ends.shape[1] // k), k))
        state.reshape(len(u), -1)[:, : ends.shape[1]] = ends
        u[:, 1:, 0] += a * _scan(state, a**k).reshape(len(u), -1)[:, : ends.shape[1]]
    return u @ (gain * np.where(lag >= 0, powers[np.abs(lag)], 0.0))


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
    seg_len, stride = window_samples(window_ms, stride_ms, float(recording.sample_rate_hz))
    data = np.asarray(recording.data, dtype=np.float64)
    starts, segs = segment_index(recording, seg_len, stride)
    if len(starts):  # one gather from the (T - L + 1) x C x L view of every window
        out = sliding_window_view(data, seg_len, axis=1).transpose(1, 0, 2)[starts]
    else:
        out = np.empty(segs.data.shape)
    return replace(segs, data=out)


def segment_index(recording, seg_len: int, stride: int) -> tuple:
    """The windows of ``seg_len`` samples that ``segment`` cuts from
    ``recording`` at ``stride``, without cutting them: (starts, segs),
    the first sample of each window and a SegmentSet of their labels,
    subjects and repetitions whose ``data`` is a read-only M x C x L
    placeholder of zeros that holds no memory. Warns, as ``segment``
    does, when the recording has active samples but no window fits."""
    gesture = np.asarray(recording.gesture)
    repetition = np.asarray(recording.repetition)
    # bounds of the maximal runs of constant (gesture, repetition)
    change = (gesture[1:] != gesture[:-1]) | (repetition[1:] != repetition[:-1])
    bounds = np.concatenate(([0], np.flatnonzero(change) + 1, [len(gesture)]))
    starts = np.concatenate([np.zeros(0, int)] + [
        np.arange(a, b - seg_len + 1, stride)
        for a, b in zip(bounds[:-1], bounds[1:]) if a < b and gesture[a]
    ])
    m = len(starts)
    if not m and gesture.any():
        warnings.warn(
            f"window of {seg_len} samples exceeds every active gesture span; "
            "no segments emitted",
            stacklevel=3,
        )
    shape = (m, len(recording.data), seg_len)
    return starts, SegmentSet(
        data=np.broadcast_to(np.float64(0.0), shape),
        labels=gesture[starts].astype(np.int64) - 1,
        subjects=np.full(m, int(getattr(recording, "subject", 0)), dtype=np.int64),
        repetitions=repetition[starts].astype(np.int64),
        sample_rate_hz=float(recording.sample_rate_hz),
    )


def window_blocks(data: np.ndarray, starts: np.ndarray, seg_len: int):
    """Yield the windows of ``seg_len`` samples of ``data`` (C x T) that
    begin at ``starts``, in order: ``segment``'s gather, in contiguous
    k x C x L blocks of at most 1 MiB (or one window), so that a writer
    can stream a recording's windows without ever holding them all."""
    if not len(starts):
        return
    view = sliding_window_view(data, seg_len, axis=1).transpose(1, 0, 2)
    per_block = max(1, (1 << 20) // view[0].nbytes)
    for lo in range(0, len(starts), per_block):
        yield view[starts[lo : lo + per_block]]


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


def window_samples(window_ms: int, stride_ms: int | None, rate_hz: float) -> tuple:
    """The window and the stride (by default the window) in samples at
    ``rate_hz``: the one rule by which a duration becomes a sample count.
    A duration must be a whole positive number of samples; it and its
    count stay below 2**32, far beyond any real window."""
    counts = []
    for name, ms in (("window_ms", window_ms), ("stride_ms", stride_ms)):
        ms = window_ms if ms is None else ms
        try:
            exact = ms * rate_hz / 1000.0
        except OverflowError:  # an int beyond any float
            exact = np.inf
        n = round(exact) if np.isfinite(exact) else 0
        if abs(exact - n) > 1e-9 or n < 1:
            raise ConfigError(
                f"{name}={ms} is not a whole positive number of samples at {rate_hz} Hz"
            )
        if max(ms, n) >= 2**32:
            raise ConfigError(
                f"{name}={ms} is {n:.6g} samples at {rate_hz} Hz; a duration and its "
                "sample count must each be below 2**32"
            )
        counts.append(int(n))
    return tuple(counts)
