"""Recording and segment file formats, the repetition-based train/test
split, and a synthetic multi-class generator for desk-scale runs.

Recordings travel as SEMG-BIN v1, a fixed little-endian layout chosen
so a round trip is bit-exact and any language can parse it:

    magic "SEMG" | u32 version=1 | u32 channels | f64 sample_rate |
    u64 T | C*T float32 samples row-major | T * (u16 gesture, u16 rep)

Real acquisitions can be bridged in as annotated CSV with columns
ch1..chC,gesture,repetition (one row per sample); parsing vendor
archive containers is out of scope. Segment sets persist in an
analogous "SSEG" container so the preprocess and train commands can
hand off through the filesystem.
"""

from __future__ import annotations

import csv
import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, FormatError
from .signal import SegmentSet

__all__ = [
    "Recording",
    "SplitSpec",
    "read_recording",
    "write_recording",
    "read_annotated_csv",
    "write_annotated_csv",
    "read_segments",
    "write_segments",
    "concat_segments",
    "split",
    "generate_synthetic",
]

_REC_MAGIC = b"SEMG"
_REC_VERSION = 1
_SEG_MAGIC = b"SSEG"
_SEG_VERSION = 1


@dataclass
class Recording:
    """Multi-channel time series with per-sample gesture/repetition
    annotations. Gesture 0 marks rest; active samples carry repetition
    ids in [1, 6]."""

    data: np.ndarray
    sample_rate_hz: float
    gesture: np.ndarray
    repetition: np.ndarray
    subject: int = 0

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float32)
        if self.data.ndim != 2:
            raise DataError(f"samples must be channels x T, got {self.data.shape}")
        if not np.isfinite(self.data).all():
            c, i = np.argwhere(~np.isfinite(self.data))[0]
            raise DataError(
                f"sample {i} of channel ch{c + 1} is not finite ({float(self.data[c, i])})"
            )
        if not (np.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise DataError(
                f"sample rate must be finite and positive, got {self.sample_rate_hz}"
            )
        t = self.data.shape[1]
        self.gesture = np.ascontiguousarray(self.gesture, dtype=np.uint16)
        self.repetition = np.ascontiguousarray(self.repetition, dtype=np.uint16)
        if self.gesture.shape != (t,) or self.repetition.shape != (t,):
            raise DataError(
                f"annotations must have one entry per sample ({t}), got "
                f"{self.gesture.shape} and {self.repetition.shape}"
            )
        active = self.gesture != 0
        reps = self.repetition[active]
        if reps.size and (reps.min() < 1 or reps.max() > 6):
            raise DataError(
                "repetition ids on active samples must lie in [1, 6]; "
                f"found {int(reps.min())}..{int(reps.max())}"
            )

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def num_samples(self) -> int:
        return self.data.shape[1]

    def with_data(self, data: np.ndarray) -> "Recording":
        """Same annotations, new sample matrix (e.g. after filtering)."""
        return replace(self, data=data)


@dataclass(frozen=True)
class SplitSpec:
    """Which repetition ids feed training and which feed testing."""

    train_repetitions: frozenset = frozenset({1, 3, 4, 6})
    test_repetitions: frozenset = frozenset({2, 5})

    def __post_init__(self):
        train = frozenset(int(r) for r in self.train_repetitions)
        test = frozenset(int(r) for r in self.test_repetitions)
        object.__setattr__(self, "train_repetitions", train)
        object.__setattr__(self, "test_repetitions", test)
        if train & test:
            raise ConfigError(
                f"repetitions {sorted(train & test)} appear in both splits"
            )
        if not (train | test) <= set(range(1, 7)):
            raise ConfigError(
                f"repetition ids must lie in 1..6, got {sorted(train | test)}"
            )


class _Reader:
    """Bounds-checked cursor over a whole binary file (SEMG, SSEG, TCHG)."""

    def __init__(self, buf: bytes, what: str):
        self.buf = buf
        self.offset = 0
        self.what = what

    def take(self, n: int, part: str) -> bytes:
        if self.offset + n > len(self.buf):
            raise FormatError(
                f"truncated {self.what}: needed {n} bytes for {part} at offset "
                f"{self.offset}, only {len(self.buf) - self.offset} remain"
            )
        out = self.buf[self.offset : self.offset + n]
        self.offset += n
        return out

    def done(self):
        if self.offset != len(self.buf):
            raise FormatError(
                f"{self.what} has {len(self.buf) - self.offset} trailing bytes "
                f"after offset {self.offset}"
            )


def write_recording(path, rec: Recording):
    """Serialize as SEMG-BIN v1 (samples stored as float32)."""
    samples = np.ascontiguousarray(rec.data, dtype="<f4")
    ann = np.empty((rec.num_samples, 2), dtype="<u2")
    ann[:, 0] = rec.gesture
    ann[:, 1] = rec.repetition
    with open(path, "wb") as fh:
        fh.write(_REC_MAGIC)
        fh.write(struct.pack("<II", _REC_VERSION, rec.channels))
        fh.write(struct.pack("<d", rec.sample_rate_hz))
        fh.write(struct.pack("<Q", rec.num_samples))
        fh.write(samples.tobytes())
        fh.write(ann.tobytes())


def read_recording(path, subject: int = 0) -> Recording:
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf, "recording")
    magic = r.take(4, "magic")
    if magic != _REC_MAGIC:
        raise FormatError(f"not a recording file: bad magic {magic!r} at offset 0")
    version, channels = struct.unpack("<II", r.take(8, "header"))
    if version != _REC_VERSION:
        raise FormatError(
            f"recording version {version} is not supported; this build reads "
            f"{_REC_VERSION}"
        )
    (rate,) = struct.unpack("<d", r.take(8, "sample rate"))
    (t,) = struct.unpack("<Q", r.take(8, "sample count"))
    data = (
        np.frombuffer(r.take(4 * channels * t, "samples"), dtype="<f4")
        .reshape(channels, t)
        .copy()
    )
    ann = (
        np.frombuffer(r.take(4 * t, "annotations"), dtype="<u2")
        .reshape(t, 2)
        .copy()
    )
    r.done()
    return Recording(
        data=data, sample_rate_hz=rate, gesture=ann[:, 0], repetition=ann[:, 1],
        subject=subject,
    )


def write_annotated_csv(path, rec: Recording):
    """One row per sample: ch1..chC,gesture,repetition."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"ch{c + 1}" for c in range(rec.channels)] + ["gesture", "repetition"]
        )
        for i in range(rec.num_samples):
            writer.writerow(
                [repr(float(v)) for v in rec.data[:, i]]
                + [int(rec.gesture[i]), int(rec.repetition[i])]
            )


def read_annotated_csv(path, sample_rate_hz: float, subject: int = 0) -> Recording:
    """Parse the ch1..chC,gesture,repetition bridge format.

    The CSV carries no rate, so the caller supplies it.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if header[-2:] != ["gesture", "repetition"]:
            raise DataError(
                f"{path}: last two columns must be gesture,repetition, got {header[-2:]}"
            )
        channels = len(header) - 2
        if channels < 1 or header[:channels] != [f"ch{c + 1}" for c in range(channels)]:
            raise DataError(f"{path}: channel columns must be ch1..ch{channels}")
        cols, gestures, reps = [], [], []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != channels + 2:
                raise DataError(
                    f"{path}:{row_no}: expected {channels + 2} cells, got {len(row)}"
                )
            try:
                cols.append([float(v) for v in row[:channels]])
                gestures.append(int(row[channels]))
                reps.append(int(row[channels + 1]))
            except ValueError:
                raise DataError(f"{path}:{row_no}: malformed row") from None
    if not cols:
        raise DataError(f"{path}: no sample rows")
    data = np.asarray(cols, dtype=np.float32).T
    return Recording(
        data=data, sample_rate_hz=sample_rate_hz,
        gesture=np.asarray(gestures), repetition=np.asarray(reps), subject=subject,
    )


def write_segments(path, segments: SegmentSet):
    """Persist a SegmentSet as SSEG v1 (float64 windows, u16 metadata)."""
    m = len(segments)
    for name in ("labels", "subjects", "repetitions"):
        arr = getattr(segments, name)
        if arr.size and (arr.min() < 0 or arr.max() > np.iinfo(np.uint16).max):
            raise DataError(f"{name} exceed the u16 range of the segment format")
    with open(path, "wb") as fh:
        fh.write(_SEG_MAGIC)
        fh.write(
            struct.pack(
                "<IIIQ", _SEG_VERSION, segments.channels, segments.seg_len, m
            )
        )
        fh.write(struct.pack("<dI", segments.sample_rate_hz, segments.window_ms))
        fh.write(np.ascontiguousarray(segments.labels, dtype="<u2").tobytes())
        fh.write(np.ascontiguousarray(segments.subjects, dtype="<u2").tobytes())
        fh.write(np.ascontiguousarray(segments.repetitions, dtype="<u2").tobytes())
        fh.write(np.ascontiguousarray(segments.data, dtype="<f8").tobytes())


def read_segments(path) -> SegmentSet:
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf, "segment file")
    magic = r.take(4, "magic")
    if magic != _SEG_MAGIC:
        raise FormatError(f"not a segment file: bad magic {magic!r} at offset 0")
    version, channels, seg_len, m = struct.unpack("<IIIQ", r.take(20, "header"))
    if version != _SEG_VERSION:
        raise FormatError(
            f"segment file version {version} is not supported; this build reads "
            f"{_SEG_VERSION}"
        )
    rate, window_ms = struct.unpack("<dI", r.take(12, "rate/window"))
    labels = np.frombuffer(r.take(2 * m, "labels"), dtype="<u2").astype(np.int64)
    subjects = np.frombuffer(r.take(2 * m, "subjects"), dtype="<u2").astype(np.int64)
    reps = np.frombuffer(r.take(2 * m, "repetitions"), dtype="<u2").astype(np.int64)
    data = (
        np.frombuffer(r.take(8 * m * channels * seg_len, "windows"), dtype="<f8")
        .reshape(m, channels, seg_len)
        .copy()
    )
    r.done()
    # min/max scan without a full-size mask; NaN and +-inf show in them
    if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        i, c, t = np.argwhere(~np.isfinite(data))[0]
        raise DataError(
            f"window {i}: sample {t} of channel ch{c + 1} is not finite "
            f"({data[i, c, t]})"
        )
    return SegmentSet(
        data=data, labels=labels, subjects=subjects, repetitions=reps,
        sample_rate_hz=rate, window_ms=window_ms,
    )


def concat_segments(parts) -> SegmentSet:
    """Stack segment sets from several recordings into one.

    All parts must agree on channel count, window length, and rate.
    """
    parts = list(parts)
    if not parts:
        raise DataError("cannot concatenate zero segment sets")
    first = parts[0]
    for p in parts[1:]:
        same = (
            p.data.shape[1:] == first.data.shape[1:]
            and p.sample_rate_hz == first.sample_rate_hz
            and p.window_ms == first.window_ms
        )
        if not same:
            raise DataError(
                f"segment sets disagree on geometry: {p.data.shape[1:]} at "
                f"{p.sample_rate_hz} Hz vs {first.data.shape[1:]} at "
                f"{first.sample_rate_hz} Hz"
            )
    return SegmentSet(
        data=np.concatenate([p.data for p in parts]),
        labels=np.concatenate([p.labels for p in parts]),
        subjects=np.concatenate([p.subjects for p in parts]),
        repetitions=np.concatenate([p.repetitions for p in parts]),
        sample_rate_hz=first.sample_rate_hz,
        window_ms=first.window_ms,
    )


def _select(segments: SegmentSet, mask: np.ndarray) -> SegmentSet:
    return SegmentSet(
        data=segments.data[mask],
        labels=segments.labels[mask],
        subjects=segments.subjects[mask],
        repetitions=segments.repetitions[mask],
        sample_rate_hz=segments.sample_rate_hz,
        window_ms=segments.window_ms,
    )


def split(segments: SegmentSet, spec: SplitSpec = SplitSpec()):
    """Partition segments by repetition id into (train, test).

    Segments whose repetition is in neither set are dropped with a
    warning that counts them.
    """
    reps = segments.repetitions
    train_mask = np.isin(reps, sorted(spec.train_repetitions))
    test_mask = np.isin(reps, sorted(spec.test_repetitions))
    dropped = int(len(segments) - train_mask.sum() - test_mask.sum())
    if dropped:
        warnings.warn(
            f"{dropped} segments fall outside both repetition sets and were dropped",
            stacklevel=2,
        )
    return _select(segments, train_mask), _select(segments, test_mask)


# class signatures are derived from the class id alone (not the user
# seed), so "class 3" means the same waveform family in every dataset
_SIGNATURE_ENTROPY = 987654321


def _class_signature(class_id: int, channels: int):
    gen = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((_SIGNATURE_ENTROPY, class_id)))
    )
    amplitude = gen.uniform(0.35, 1.0, size=channels)
    base_hz = 22.0 + 6.0 * class_id + gen.uniform(-1.5, 1.5)
    harmonic_weights = gen.dirichlet(np.ones(3))
    phase = gen.uniform(0.0, 2.0 * np.pi, size=channels)
    return amplitude, base_hz, harmonic_weights, phase


def generate_synthetic(
    subjects: int,
    classes: int = 17,
    reps: int = 6,
    seed: int = 0,
    channels: int = 12,
    sample_rate_hz: float = 2000.0,
    gesture_seconds: float = 1.0,
    rest_seconds: float = 0.25,
) -> list:
    """Build one synthetic Recording per subject.

    Each class is a fixed band-limited oscillation (distinct base
    frequency, harmonic mix, per-channel amplitude profile); spans get
    per-repetition phase, gain jitter and noise from the seeded
    generator. Layout mirrors an acquisition protocol: for each gesture,
    ``reps`` repetitions of rest followed by the active span.
    """
    if classes < 2:
        raise ConfigError(f"need at least 2 classes, got {classes}")
    if subjects < 1:
        raise ConfigError(f"need at least 1 subject, got {subjects}")
    if not 1 <= reps <= 6:
        raise ConfigError(f"repetitions must lie in 1..6, got {reps}")
    if not (sample_rate_hz > 0 and np.isfinite(sample_rate_hz)):
        raise ConfigError(f"sample rate must be positive and finite, got {sample_rate_hz}")
    for name, seconds in (("gesture", gesture_seconds), ("rest", rest_seconds)):
        if not (seconds >= 0 and np.isfinite(seconds)):
            raise ConfigError(
                f"{name} span must be non-negative and finite seconds, got {seconds}"
            )
    active_n = int(round(gesture_seconds * sample_rate_hz))
    rest_n = int(round(rest_seconds * sample_rate_hz))
    if active_n < 1:
        raise ConfigError("gesture span must cover at least one sample")

    signatures = [_class_signature(g, channels) for g in range(1, classes + 1)]
    t_active = np.arange(active_n) / sample_rate_hz

    recordings = []
    for subj in range(subjects):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((seed, 5150, subj)))
        )
        total = classes * reps * (rest_n + active_n)
        data = np.empty((channels, total), dtype=np.float64)
        gesture = np.zeros(total, dtype=np.uint16)
        repetition = np.zeros(total, dtype=np.uint16)
        pos = 0
        for g in range(1, classes + 1):
            amplitude, base_hz, weights, phase = signatures[g - 1]
            for rep in range(1, reps + 1):
                data[:, pos : pos + rest_n] = rng.normal(
                    scale=0.01, size=(channels, rest_n)
                )
                pos += rest_n
                span_phase = rng.uniform(0.0, 2.0 * np.pi)
                gain = rng.uniform(0.9, 1.1)
                wave = np.zeros((channels, active_n))
                for h, wgt in enumerate(weights, start=1):
                    angle = (
                        2.0 * np.pi * base_hz * h * t_active
                        + h * (phase[:, None] + span_phase)
                    )
                    wave += wgt * np.sin(angle)
                wave *= gain * amplitude[:, None]
                wave += rng.normal(scale=0.05, size=(channels, active_n))
                data[:, pos : pos + active_n] = wave
                gesture[pos : pos + active_n] = g
                repetition[pos : pos + active_n] = rep
                pos += active_n
        recordings.append(
            Recording(
                data=data.astype(np.float32),
                sample_rate_hz=sample_rate_hz,
                gesture=gesture,
                repetition=repetition,
                subject=subj + 1,
            )
        )
    return recordings
