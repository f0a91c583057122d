"""Recording and segment file formats, the repetition-based train/test
split, and a synthetic multi-class generator for desk-scale runs.

Recordings (SEMG), segment sets (SSEG) and checkpoints (TCHG) share one
little-endian layout, so a round trip is bit-exact and any language can
parse it: a 4-byte magic (the kind), version 2 as a uint32, the byte
length of a JSON head as a uint64, the head, then each array in C order
from the next multiple of 8 bytes. The UTF-8 head, padded with spaces
to a multiple of 8 bytes, is ``{"arrays": [[name, dtype, shape], ...],
"meta": {...}}``; the arrays follow in its order, so their offsets
follow from it. Each writer names the arrays and meta of its kind.

Real acquisitions can be read in (not written) as annotated CSV with columns
ch1..chC,gesture,repetition (one row per sample); parsing vendor
archive containers is out of scope.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import json
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
_SEG_MAGIC = b"SSEG"
_VERSION = 2


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


def _write_file(path, magic: bytes, meta: dict, arrays: dict):
    """Write one file of the layout in the module docstring, replacing
    ``path`` atomically (``_replacing``). ``arrays`` maps each name to
    its dtype, its shape and its parts: arrays stacked on their first
    axis that fill the shape, written in turn and never joined. The
    parts may be produced only as they are written (an iterator); parts
    that hold more or fewer values than the shape are refused, and then
    nothing is written."""
    index = [[name, dtype, list(shape)] for name, (dtype, shape, _) in arrays.items()]
    head = json.dumps({"arrays": index, "meta": meta}, sort_keys=True).encode()
    head += b" " * (-len(head) % 8)
    with _replacing(path) as fh:
        fh.write(magic + struct.pack("<IQ", _VERSION, len(head)) + head)
        for name, (dtype, shape, parts) in arrays.items():
            fh.write(bytes(-fh.tell() % 8))
            count = 0
            for part in parts:
                part = np.ascontiguousarray(part, dtype=dtype)
                fh.write(part)
                count += part.size
                del part  # freed before the next part is produced
            if count != math.prod(shape):
                raise DataError(
                    f"{name} got {count} values from its parts; its shape "
                    f"{tuple(shape)} holds {math.prod(shape)}"
                )


def _unique_keys(pairs) -> dict:
    """A JSON object that holds no key twice (``json`` keeps the last)."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {key!r} appears twice")
        out[key] = value
    return out


def _read_file(path, magic: bytes, what: str, dtypes: dict, kinds: dict) -> tuple:
    """The meta and the arrays (name -> array) of a file of the layout
    in the module docstring, named ``what`` in errors. ``dtypes`` maps
    each array name the file must hold to its dtype; a key ``"g/*"``
    stands for any number of names ``g/...``. ``kinds`` maps each meta
    key to the type of its value (``object``: any, the caller checks).
    Every array is an aligned view over one private copy-on-write map
    of the file: nothing is copied in, and writes to it never reach
    the file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = b""  # mmap refuses an empty file, which holds no part anyway
        if size:
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)

    def need(offset: int, n: int, part: str):
        if n > size - offset:
            raise FormatError(
                f"truncated {what} file: needed {n} bytes for {part} at offset "
                f"{offset}, only {size - offset} remain"
            )

    need(0, 4, "magic")
    if buf[:4] != magic:
        raise FormatError(f"not a {what} file: bad magic {buf[:4]!r} at offset 0")
    need(4, 12, "version and head length")
    version, head_len = struct.unpack_from("<IQ", buf, 4)
    if version != _VERSION:
        raise FormatError(
            f"{what} file version {version} is not supported; this build reads {_VERSION}"
        )
    need(16, head_len, "head")
    try:  # UnicodeDecodeError is a ValueError too
        head = json.loads(buf[16 : 16 + head_len].decode("utf-8"),
                          object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as err:
        raise FormatError(f"{what} file: head is not JSON ({err})") from None
    if not (isinstance(head, dict) and head.keys() == {"arrays", "meta"}
            and isinstance(head["arrays"], list) and isinstance(head["meta"], dict)):
        raise FormatError(f"{what} file: head must hold a list 'arrays' and an object 'meta'")
    meta = head["meta"]
    if meta.keys() != kinds.keys() or any(
        t is not object and type(meta[k]) is not t for k, t in kinds.items()
    ):
        want = ", ".join(k if t is object else f"{k} ({t.__name__})" for k, t in kinds.items())
        raise FormatError(f"{what} file: meta must hold exactly {want}")
    offset, arrays = 16 + head_len, {}
    for i, entry in enumerate(head["arrays"]):
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
                and isinstance(entry[2], list)):
            raise FormatError(f"{what} file: array {i} is not [name, dtype, shape]")
        name, dtype, shape = entry
        group, _, rest = name.partition("/")
        want = dtypes.get(f"{group}/*" if rest else name)
        if want is None:
            raise FormatError(f"unrecognized {what} entry {name!r}")
        if name in arrays:
            raise FormatError(f"{what} entry {name!r} appears twice")
        if dtype != want:
            raise FormatError(f"{what} entry {name!r} is not of dtype {want}")
        if not all(type(d) is int and d >= 0 for d in shape):
            raise FormatError(f"{what} entry {name!r} has a dimension that is not an integer >= 0")
        start, count = offset + -offset % 8, math.prod(shape)
        n = np.dtype(want).itemsize * count
        need(offset, start - offset + n, repr(name))
        try:  # only a shape of no elements can get here too big for numpy
            arrays[name] = np.frombuffer(buf, want, count, start).reshape(shape)
        except ValueError:
            raise FormatError(
                f"{what} entry {name!r} has shape {tuple(shape)}, which numpy cannot hold"
            ) from None
        offset = start + n
    missing = [name for name in dtypes if not name.endswith("/*") and name not in arrays]
    if missing:
        raise FormatError(f"{what} file is missing entry {missing[0]!r}")
    if offset != size:
        raise FormatError(
            f"{what} file has {size - offset} trailing bytes after offset {offset}"
        )
    return meta, arrays


def write_recording(path, rec: Recording):
    """Write ``rec`` as a SEMG file: the arrays ``samples`` (``<f4``,
    channels x T), ``gesture`` and ``repetition`` (``<u2``, T) and the
    meta ``sample_rate_hz``. ``path`` is replaced atomically. A float64
    sample beyond the float32 range is refused first, so the file reads back."""
    samples = rec.data
    if samples.dtype != np.float32:  # float32 samples were checked finite
        with np.errstate(over="ignore"):
            samples = samples.astype(np.float32)
        if not _all_finite(samples):
            c, i = np.argwhere(~np.isfinite(samples))[0]
            raise DataError(f"sample {i} of channel ch{c + 1} ({float(rec.data[c, i])}) "
                            "is beyond the float32 range of the recording format")
    _write_file(path, _REC_MAGIC, {"sample_rate_hz": float(rec.sample_rate_hz)}, {
        "samples": ("<f4", samples.shape, [samples]),
        "gesture": ("<u2", rec.gesture.shape, [rec.gesture]),
        "repetition": ("<u2", rec.repetition.shape, [rec.repetition]),
    })


def read_recording(path, subject: int = 0) -> Recording:
    """Read a SEMG file. The samples and annotations are views over a
    private copy-on-write map of the file, as in ``read_segments``."""
    meta, arrays = _read_file(path, _REC_MAGIC, "recording", {
        "samples": "<f4", "gesture": "<u2", "repetition": "<u2",
    }, {"sample_rate_hz": float})
    return Recording(
        data=arrays["samples"], sample_rate_hz=meta["sample_rate_hz"],
        gesture=arrays["gesture"], repetition=arrays["repetition"], subject=subject,
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


def write_segments(path, *parts: SegmentSet, windows=None):
    """Persist one or more SegmentSets as one SSEG file: the arrays
    ``SegmentSet.PER_WINDOW``, ``data`` as ``<f8`` (M x C x L) and the
    columns as ``<u2`` (M), and the meta ``sample_rate_hz``. The window
    length is only ever L, so nothing can contradict it.

    Several parts give the bytes of ``concat_segments(parts)``: their
    windows are written in turn and never joined in memory.

    ``windows``, when given, holds the parts' windows instead: an
    iterable of k x C x L blocks that together are every part's windows
    in turn, drawn only as the file is written, so they can be produced
    then, one block at a time. The parts' ``data`` then gives only their
    shape (``signal.segment_index`` makes such parts). Blocks that do
    not add up to the parts' windows are refused.

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
    shape = (len(columns["labels"]), *first.data.shape[1:])
    _write_file(path, _SEG_MAGIC, {"sample_rate_hz": float(first.sample_rate_hz)}, {
        "data": ("<f8", shape, [p.data for p in parts] if windows is None else windows),
        **{name: ("<u2", arr.shape, [arr]) for name, arr in columns.items()},
    })


def read_segments(path) -> SegmentSet:
    """Read an SSEG file. The labels, subjects and repetitions are
    copied out into int64 arrays; the windows are a view over a private
    copy-on-write map of the file, so reading copies nothing in, and
    writing into the windows changes the array but never the file.

    On Linux a mapped file that is replaced (every writer here renames
    over its target) stays readable through live views. A mapped file
    (``.semg``, ``.sseg`` or ``.ckpt``) truncated in place from outside
    the process makes the next read of a lost page end in ``SIGBUS``,
    as it does for numpy's ``mmap_mode``.
    """
    meta, arrays = _read_file(path, _SEG_MAGIC, "segment", {
        "data": "<f8", **dict.fromkeys(SegmentSet.PER_WINDOW[1:], "<u2"),
    }, {"sample_rate_hz": float})
    segs = SegmentSet(
        data=arrays["data"], **meta,
        **{name: arrays[name].astype(np.int64) for name in SegmentSet.PER_WINDOW[1:]},
    )
    if not _all_finite(segs.data):
        i, c, t = np.argwhere(~np.isfinite(segs.data))[0]
        raise DataError(
            f"window {i}: sample {t} of channel ch{c + 1} is not finite "
            f"({segs.data[i, c, t]})"
        )
    return segs


def _common_geometry(parts) -> SegmentSet:
    """The first part, once every part agrees with it on channel count,
    window length, and rate."""
    if not parts:
        raise DataError("cannot concatenate zero segment sets")
    first = parts[0]
    for p in parts[1:]:
        if not (p.data.shape[1:] == first.data.shape[1:]
                and p.sample_rate_hz == first.sample_rate_hz):
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
    ``reps`` repetitions of rest followed by the active span. Every
    class's third harmonic lies below the Nyquist frequency, so at most
    51 classes fit at 2 kHz.

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
    # class g's third harmonic reaches 3 (22 + 6 g + 1.5) Hz (_class_signature);
    # at or above the Nyquist frequency it would alias onto another class
    fits = math.floor((sample_rate_hz / 6 - 23.5) / 6)
    if classes > fits:
        raise ConfigError(
            f"{classes} classes alias at {sample_rate_hz:g} Hz: class {classes}'s third "
            f"harmonic reaches {3 * (23.5 + 6 * classes):g} Hz, above the Nyquist "
            f"frequency {sample_rate_hz / 2:g} Hz; at most {max(fits, 0)} classes fit"
        )
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
    # each span's wave is sum_h w_h gain amp sin(a_h + b_h), a_h = 2 pi f h t
    # and b_h = h (phase + span phase), formed as sin a cos b + cos a sin b;
    # so sin a_h and cos a_h are computed once per class, and each span
    # takes 6 multiply-adds (elementwise, so no BLAS build moves a byte)
    harmonics, bases = np.arange(1, 4), []
    for _, base_hz, _, _ in signatures:
        angles = [2.0 * np.pi * base_hz * h * t_active for h in harmonics]
        bases.append([np.sin(a) for a in angles] + [np.cos(a) for a in angles])
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
        wave, term = np.empty((channels, active_n)), np.empty((channels, active_n))
        pos = 0
        for g in range(1, classes + 1):
            amplitude, _, weights, phase = signatures[g - 1]
            for rep in range(1, reps + 1):
                data[:, pos : pos + rest_n] = rng.normal(
                    scale=0.01, size=(channels, rest_n)
                )
                pos += rest_n
                span_phase = rng.uniform(0.0, 2.0 * np.pi)
                gain = rng.uniform(0.9, 1.1)
                shift = np.multiply.outer(harmonics, phase + span_phase)
                scale = np.multiply.outer(weights, gain * amplitude)
                rows = np.concatenate([scale * np.cos(shift), scale * np.sin(shift)])
                wave.fill(0.0)
                for row, basis in zip(rows, bases[g - 1]):
                    wave += np.multiply(row[:, None], basis, out=term)
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
