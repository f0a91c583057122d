"""Recording and segment file formats, the repetition-based train/test
split, and a synthetic multi-class generator for desk-scale runs.

Recordings travel as SEMG-BIN v1, a fixed little-endian layout chosen
so a round trip is bit-exact and any language can parse it:

    magic "SEMG" | u32 version=1 | u32 channels | f64 sample_rate |
    u64 T | C*T float32 samples row-major | T * (u16 gesture, u16 rep)

Real acquisitions can be read in (not written) as annotated CSV with columns
ch1..chC,gesture,repetition (one row per sample); parsing vendor
archive containers is out of scope. Segment sets persist in an
analogous "SSEG" container so the preprocess and train commands can
hand off through the filesystem.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import math
import mmap
import os
import secrets
import stat
import struct
import warnings
from concurrent.futures import ThreadPoolExecutor
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
        d = self.data
        if not _all_finite(d):
            c, i = np.argwhere(~np.isfinite(d))[0]
            raise DataError(
                f"sample {i} of channel ch{c + 1} is not finite ({float(d[c, i])})"
            )
        if not (np.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise DataError(
                f"sample rate must be finite and positive, got {self.sample_rate_hz}"
            )
        t = self.data.shape[1]
        self.gesture = _u16_ids(self.gesture, "gesture")
        self.repetition = _u16_ids(self.repetition, "repetition")
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


def _all_finite(a: np.ndarray) -> bool:
    """Whether no element is NaN or +-inf, without a full-size mask. A
    finite sum proves it in one pass; only a sum that is not finite
    (a non-finite element, or finite values that overflow it) pays for
    the min/max scan."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(a.sum()):
            return True
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _u16_ids(ids, name: str) -> np.ndarray:
    """Annotation ids as contiguous uint16. Input of any other dtype
    must hold integers in [0, 65535]; the first id that is not is named."""
    arr = np.asarray(ids)
    if arr.dtype != np.uint16:
        if arr.dtype.kind not in "biuf":
            raise DataError(f"{name} ids must be integers, got dtype {arr.dtype}")
        with np.errstate(invalid="ignore"):
            bad = ~((arr >= 0) & (arr <= 65535) & (arr % 1 == 0))
        if bad.any():
            i = np.flatnonzero(bad)[0]
            raise DataError(
                f"{name} id {arr.flat[i]} of sample {i} is not an integer in [0, 65535]"
            )
    return np.ascontiguousarray(arr, dtype=np.uint16)


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
    """Bounds-checked cursor over a binary file (SEMG, SSEG, TCHG), read
    through one private copy-on-write map of the whole file.

    Every part's byte count is checked against the bytes left in the
    file before it is read. Every array is a view over the map: nothing
    is copied in, and writes to an array never reach the file.
    """

    def __init__(self, path, what: str):
        self.what = what
        self.offset = 0
        with open(path, "rb") as fh:
            self.size = os.fstat(fh.fileno()).st_size
            self.map = b""  # mmap refuses an empty file, which holds no part anyway
            if self.size:
                self.map = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)

    def _need(self, n: int, part: str):
        if n > self.size - self.offset:
            raise FormatError(
                f"truncated {self.what}: needed {n} bytes for {part} at offset "
                f"{self.offset}, only {self.size - self.offset} remain"
            )

    def take(self, n: int, part: str) -> bytes:
        self._need(n, part)
        self.offset += n
        return self.map[self.offset - n : self.offset]

    def unpack(self, fmt: str, part: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), part))

    def header(self, magic: bytes, version: int):
        """Check the four-byte magic and the u32 format version."""
        found = self.take(4, "magic")
        if found != magic:
            raise FormatError(f"not a {self.what}: bad magic {found!r} at offset 0")
        (found,) = self.unpack("<I", "version")
        if found != version:
            raise FormatError(
                f"{self.what} version {found} is not supported; this build reads "
                f"{version}"
            )

    def array(self, dtype: str, shape: tuple, part: str) -> np.ndarray:
        """The next bytes as a (maybe unaligned) view of ``shape`` over
        the map; a shape numpy cannot hold is a format error."""
        dtype = np.dtype(dtype)
        n = dtype.itemsize * math.prod(shape)
        self._need(n, part)
        try:  # only a shape of no elements can get here too big for numpy
            out = np.frombuffer(self.map, dtype, n // dtype.itemsize, self.offset)
            out = out.reshape(shape)
        except ValueError:
            raise FormatError(
                f"{self.what}: {part} has shape {shape}, which numpy cannot hold"
            ) from None
        self.offset += n
        return out

    def done(self):
        if self.offset != self.size:
            raise FormatError(
                f"{self.what} has {self.size - self.offset} trailing bytes "
                f"after offset {self.offset}"
            )


def _writable(path) -> str:
    """The real path of ``path`` (symlinks resolved), once it is clear
    that ``_replacing`` may write there: its folder exists, and a file
    already there is a regular file with write permission, as an
    in-place write would need (a device, FIFO or folder is never
    replaced). A failure is an ``OSError`` naming ``path``."""
    target, name = os.fsdecode(os.path.realpath(path)), os.fsdecode(path)
    try:  # the error ``open`` gives: a missing folder, or a file on the way
        mode = os.stat(os.path.dirname(target)).st_mode
    except OSError as err:
        raise OSError(err.errno, err.strerror, name) from None
    if not stat.S_ISDIR(mode):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), name)
    if os.path.exists(target) and not os.path.isfile(target):
        raise FileExistsError(errno.EEXIST, "not a regular file", name)
    if os.path.exists(target) and not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), name)
    return target


@contextlib.contextmanager
def _replacing(path):
    """A binary file to write in place of ``path``; every output goes
    through it. It is made exclusively beside the real path of ``path``
    (a symlink keeps its link), takes the old file's permission bits,
    and is renamed over it, so ``path`` is replaced whole or not at all
    and arrays mapped from the old file keep their values. On any
    failure, ``KeyboardInterrupt`` too, it is removed and ``path`` is
    left as it was. ``_writable`` says which paths it refuses."""
    target = _writable(path)
    tmp = f"{target}.{secrets.token_hex(4)}.tmp"
    try:  # exclusive, so a name already in use is never taken
        fh = open(tmp, "xb")
    except OSError as err:  # a folder that cannot take it: name the target
        raise OSError(err.errno, err.strerror, os.fsdecode(path)) from None
    try:
        with fh:
            with contextlib.suppress(FileNotFoundError):
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def write_recording(path, rec: Recording):
    """Serialize as SEMG-BIN v1 (samples stored as float32), replacing
    ``path`` atomically (``_replacing``)."""
    samples = np.ascontiguousarray(rec.data, dtype="<f4")
    ann = np.empty((rec.num_samples, 2), dtype="<u2")
    ann[:, 0] = rec.gesture
    ann[:, 1] = rec.repetition
    with _replacing(path) as fh:
        fh.write(_REC_MAGIC)
        fh.write(struct.pack("<IIdQ", _REC_VERSION, rec.channels,
                             rec.sample_rate_hz, rec.num_samples))
        fh.write(samples)
        fh.write(ann)


def read_recording(path, subject: int = 0) -> Recording:
    """Read a SEMG-BIN v1 file. The samples are a view over a private
    copy-on-write map of the file, as in ``read_segments``; the
    annotations are copied out as contiguous uint16."""
    r = _Reader(path, "recording file")
    r.header(_REC_MAGIC, _REC_VERSION)
    channels, rate, t = r.unpack("<IdQ", "header")
    data = r.array("<f4", (channels, t), "samples")
    ann = r.array("<u2", (t, 2), "annotations")
    r.done()
    return Recording(
        data=data, sample_rate_hz=rate, gesture=ann[:, 0], repetition=ann[:, 1],
        subject=subject,
    )


def _csv_rows(path):
    """(line number, cells) of each record of a UTF-8 CSV file; bytes
    that are not UTF-8, or a record the csv module refuses, raise
    DataError naming the file (and the line)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                yield reader.line_num, row
        except UnicodeDecodeError as err:
            raise DataError(f"{path}: not UTF-8 text ({err.reason})") from None
        except csv.Error as err:
            raise DataError(f"{path}:{reader.line_num}: {err}") from None


def _write_csv(path, header, rows):
    """Write a CSV report: UTF-8 with ``\\n`` line ends, the header, then
    each row's cells joined by commas with ``str``. A float's ``str`` is
    its ``repr``, so every value reads back exactly. ``path`` is
    replaced atomically (``_replacing``)."""
    with _replacing(path) as fh:
        for row in (header, *rows):
            fh.write((",".join(map(str, row)) + "\n").encode("utf-8"))


def read_annotated_csv(path, sample_rate_hz: float, subject: int = 0) -> Recording:
    """Parse the ch1..chC,gesture,repetition bridge format.

    The CSV carries no rate, so the caller supplies it.
    """
    rows = _csv_rows(path)
    _, header = next(rows, (0, None))
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
    for line_no, row in rows:
        if not row:
            continue
        if len(row) != channels + 2:
            raise DataError(
                f"{path}:{line_no}: expected {channels + 2} cells, got {len(row)}"
            )
        try:
            cols.append([float(v) for v in row[:channels]])
            gestures.append(int(row[channels]))
            reps.append(int(row[channels + 1]))
        except ValueError:
            raise DataError(f"{path}:{line_no}: malformed row") from None
    if not cols:
        raise DataError(f"{path}: no sample rows")
    data = np.asarray(cols, dtype=np.float32).T
    return Recording(
        data=data, sample_rate_hz=sample_rate_hz,
        gesture=np.asarray(gestures), repetition=np.asarray(reps), subject=subject,
    )


def write_segments(path, *parts: SegmentSet):
    """Persist one or more SegmentSets as one SSEG v1 file (float64
    windows, u16 metadata).

    Several parts give the bytes of ``concat_segments(parts)``: their
    windows are written in turn and never joined in memory.

    ``path`` is replaced atomically (``_replacing``), so windows that
    ``read_segments`` has mapped from the old file, even those being
    written out here, keep their values.
    """
    first = _common_geometry(parts)
    columns = {
        name: np.concatenate([getattr(p, name) for p in parts])
        for name in SegmentSet.PER_WINDOW[1:]
    }
    for name, arr in columns.items():
        if arr.size and (arr.min() < 0 or arr.max() > np.iinfo(np.uint16).max):
            raise DataError(f"{name} exceed the u16 range of the segment format")
    try:  # before the file is opened, so a refused header leaves none
        header = struct.pack("<IIIQdI", _SEG_VERSION, first.channels, first.seg_len,
                             len(columns["labels"]), first.sample_rate_hz,
                             first.window_ms)
    except struct.error:
        raise DataError(
            f"{first.channels} channels of {first.seg_len}-sample windows of "
            f"{first.window_ms} ms do not fit the u32 fields of the segment format"
        ) from None
    _check_window(first)
    with _replacing(path) as fh:
        fh.write(_SEG_MAGIC)
        fh.write(header)
        for arr in columns.values():
            fh.write(np.ascontiguousarray(arr, dtype="<u2"))
        for p in parts:
            fh.write(np.ascontiguousarray(p.data, dtype="<f8"))


def read_segments(path) -> SegmentSet:
    """Read an SSEG v1 file. The labels, subjects and repetitions are
    copied out into int64 arrays; the windows are a view over a private
    copy-on-write map of the file, so reading copies nothing in, and
    writing into the windows changes the array but never the file.

    On Linux a mapped file that is replaced (every writer here renames
    over its target) stays readable through live views. A mapped file
    (``.semg``, ``.sseg`` or ``.ckpt``) truncated in place from outside
    the process makes the next read of a lost page end in ``SIGBUS``,
    as it does for numpy's ``mmap_mode``.
    """
    r = _Reader(path, "segment file")
    r.header(_SEG_MAGIC, _SEG_VERSION)
    channels, seg_len, m, rate, window_ms = r.unpack("<IIQdI", "header")
    columns = {
        name: r.array("<u2", (m,), name).astype(np.int64)
        for name in SegmentSet.PER_WINDOW[1:]
    }
    data = r.array("<f8", (m, channels, seg_len), "windows")
    r.done()
    if not _all_finite(data):
        i, c, t = np.argwhere(~np.isfinite(data))[0]
        raise DataError(
            f"window {i}: sample {t} of channel ch{c + 1} is not finite "
            f"({data[i, c, t]})"
        )
    segs = SegmentSet(data=data, **columns, sample_rate_hz=rate, window_ms=window_ms)
    _check_window(segs)
    return segs


def _check_window(segs: SegmentSet):
    """Refuse a set whose windows are not ``window_ms`` long at its
    sample rate: as an SSEG header, it would contradict itself."""
    exact = segs.window_ms * segs.sample_rate_hz / 1000.0
    if abs(exact - segs.seg_len) > 1e-9:
        raise FormatError(
            f"segment file: {segs.window_ms} ms at {segs.sample_rate_hz} Hz is "
            f"{exact:.6g} samples, but its windows hold {segs.seg_len}"
        )


def _common_geometry(parts) -> SegmentSet:
    """The first part, once every part agrees with it on channel count,
    window length, and rate."""
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
    return first


def concat_segments(parts) -> SegmentSet:
    """Stack segment sets from several recordings into one.

    All parts must agree on channel count, window length, and rate.
    """
    parts = list(parts)
    return replace(_common_geometry(parts), **{
        name: np.concatenate([getattr(p, name) for p in parts])
        for name in SegmentSet.PER_WINDOW
    })


def _select(segments: SegmentSet, mask: np.ndarray) -> SegmentSet:
    return replace(segments, **{
        name: getattr(segments, name)[mask] for name in SegmentSet.PER_WINDOW
    })


def _split_masks(segments: SegmentSet, spec: SplitSpec):
    """Row masks of the train and test sides. Rows in neither are
    counted in a warning attributed to the caller of the public split."""
    reps = segments.repetitions
    train_mask = np.isin(reps, sorted(spec.train_repetitions))
    test_mask = np.isin(reps, sorted(spec.test_repetitions))
    dropped = int(len(segments) - train_mask.sum() - test_mask.sum())
    if dropped:
        warnings.warn(
            f"{dropped} segments fall outside both repetition sets and were dropped",
            stacklevel=3,
        )
    return train_mask, test_mask


def split(segments: SegmentSet, spec: SplitSpec = SplitSpec()):
    """Partition segments by repetition id into (train, test).

    Segments whose repetition is in neither set are dropped with a
    warning that counts them.
    """
    train_mask, test_mask = _split_masks(segments, spec)
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

    Subjects are filled on a thread pool of up to the usable cores, each
    with its own seeded generator, so the bytes do not depend on the
    worker count; samples go straight into each subject's float32 array.
    """
    if not 2 <= classes <= 65535:
        raise ConfigError(f"classes must lie in 2..65535 (u16 gesture ids), got {classes}")
    if channels < 1:
        raise ConfigError(f"need at least 1 channel, got {channels}")
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
    try:
        size = channels * classes * reps * (gesture_seconds + rest_seconds)
        size *= sample_rate_hz
    except OverflowError:  # an int setting beyond any float
        size = math.inf
    # a subject's float32 samples are the largest array; the float64
    # wave of one span holds at most half of them (classes >= 2)
    if size > np.iinfo(np.intp).max // 4:
        raise ConfigError(f"{size:.4g} samples of a subject are beyond what numpy can index")
    active_n = int(round(gesture_seconds * sample_rate_hz))
    rest_n = int(round(rest_seconds * sample_rate_hz))
    if active_n < 1:
        raise ConfigError("gesture span must cover at least one sample")

    signatures = [_class_signature(g, channels) for g in range(1, classes + 1)]
    t_active = np.arange(active_n) / sample_rate_hz
    total = classes * reps * (rest_n + active_n)
    # allocated here, not in the workers: glibc keeps what a thread's arena frees
    arrays = [
        (np.empty((channels, total), dtype=np.float32),
         np.zeros(total, dtype=np.uint16), np.zeros(total, dtype=np.uint16))
        for _ in range(subjects)
    ]

    def fill(subj):  # numpy only, so a tracer sees one generate_synthetic span
        data, gesture, repetition = arrays[subj]
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((seed, 5150, subj)))
        )
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

    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    with ThreadPoolExecutor(min(subjects, cores)) as pool:
        list(pool.map(fill, range(subjects)))  # a worker's error cancels the rest
    return [
        Recording(data=d, sample_rate_hz=sample_rate_hz, gesture=g, repetition=r,
                  subject=subj + 1)
        for subj, (d, g, r) in enumerate(arrays)
    ]
