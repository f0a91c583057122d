import errno
import hashlib
import io
import json
import math
import os
import struct
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emgtcn import data as data_module
from emgtcn.data import (
    Recording,
    SplitSpec,
    concat_segments,
    generate_synthetic,
    read_annotated_csv,
    read_recording,
    read_segments,
    split,
    write_recording,
    write_segments,
)
from emgtcn.errors import ConfigError, DataError, FormatError
from emgtcn.model import AttentionTcn, ModelConfig
from emgtcn.signal import SegmentSet, segment
from emgtcn.train import (
    Adam,
    load_checkpoint,
    make_checkpoint,
    restore_model,
    restore_optimizer,
    save_checkpoint,
)
from file_heads import (
    array_offset, file_bytes, head_of, head_span, huge_recording, with_head, with_meta,
)


def sample_recording(channels=3, t=50, rate=2000.0, seed=0):
    rng = np.random.default_rng(seed)
    gesture = np.zeros(t, dtype=np.uint16)
    repetition = np.zeros(t, dtype=np.uint16)
    gesture[10:30] = 2
    repetition[10:30] = 4
    data = rng.normal(size=(channels, t)).astype(np.float32)
    data[0, 0] = np.float32(-0.0)
    data[1, 1] = np.float32(1e-39)  # subnormal survives the round trip too
    return Recording(
        data=data, sample_rate_hz=rate, gesture=gesture, repetition=repetition,
        subject=7,
    )


def sample_segments(m=10, c=2, l=8, seed=1):
    rng = np.random.default_rng(seed)
    return SegmentSet(
        data=rng.normal(size=(m, c, l)),
        labels=rng.integers(0, 5, size=m),
        subjects=rng.integers(1, 4, size=m),
        repetitions=rng.integers(1, 7, size=m),
        sample_rate_hz=2000.0,
    )


def test_recording_validates_annotation_length():
    with pytest.raises(DataError):
        Recording(
            data=np.zeros((2, 10), dtype=np.float32),
            sample_rate_hz=2000.0,
            gesture=np.zeros(9, dtype=np.uint16),
            repetition=np.zeros(10, dtype=np.uint16),
        )


def test_recording_validates_repetition_range():
    gesture = np.ones(5, dtype=np.uint16)
    with pytest.raises(DataError):
        Recording(
            data=np.zeros((1, 5), dtype=np.float32),
            sample_rate_hz=2000.0,
            gesture=gesture,
            repetition=np.zeros(5, dtype=np.uint16),  # active but rep 0
        )


def test_recording_round_trip_bit_exact(tmp_path):
    rec = sample_recording()
    path = tmp_path / "rec.semg"
    write_recording(path, rec)
    back = read_recording(path, subject=7)
    assert back.data.tobytes() == rec.data.tobytes()
    assert np.array_equal(back.gesture, rec.gesture)
    assert np.array_equal(back.repetition, rec.repetition)
    assert back.sample_rate_hz == rec.sample_rate_hz
    assert back.channels == rec.channels
    # negative zero keeps its sign bit
    assert np.signbit(back.data[0, 0])


def test_recording_header_constants(tmp_path):
    rec = Recording(
        data=np.zeros((12, 20), dtype=np.float32),
        sample_rate_hz=2000.0,
        gesture=np.zeros(20, dtype=np.uint16),
        repetition=np.zeros(20, dtype=np.uint16),
    )
    path = tmp_path / "roundtrip.semg"
    write_recording(path, rec)
    raw = path.read_bytes()
    assert raw[:4] == b"SEMG"
    assert int.from_bytes(raw[4:8], "little") == 2
    assert head_of(raw) == {
        "arrays": [["samples", "<f4", [12, 20]], ["gesture", "<u2", [20]],
                   ["repetition", "<u2", [20]]],
        "meta": {"sample_rate_hz": 2000.0},
    }
    back = read_recording(path)
    assert back.channels == 12
    assert back.sample_rate_hz == 2000.0


def test_recording_bad_magic(tmp_path):
    path = tmp_path / "junk.semg"
    path.write_bytes(b"XXXX" + bytes(40))
    with pytest.raises(FormatError) as err:
        read_recording(path)
    assert "magic" in str(err.value)


def test_recording_truncation_reports_offset(tmp_path):
    rec = sample_recording()
    path = tmp_path / "full.semg"
    write_recording(path, rec)
    cut = tmp_path / "cut.semg"
    cut.write_bytes(path.read_bytes()[:50])
    with pytest.raises(FormatError) as err:
        read_recording(cut)
    assert "offset" in str(err.value)


def test_recording_version_mismatch(tmp_path):
    rec = sample_recording()
    path = tmp_path / "v.semg"
    write_recording(path, rec)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (9).to_bytes(4, "little")
    bad = tmp_path / "v9.semg"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        read_recording(bad)
    assert "9" in str(err.value)
    # a whole file of the first layout: magic, version, channels, rate,
    # T, the samples, then (gesture, repetition) pairs
    ann = np.stack([rec.gesture, rec.repetition], axis=1).astype("<u2")
    v1 = struct.pack("<IIdQ", 1, rec.channels, rec.sample_rate_hz, rec.num_samples)
    bad.write_bytes(b"SEMG" + v1 + rec.data.astype("<f4").tobytes() + ann.tobytes())
    with pytest.raises(FormatError, match="recording file version 1 is not supported"):
        read_recording(bad)


def test_recording_rejects_non_finite_sample(tmp_path):
    rec = sample_recording(channels=3, t=50)
    path = tmp_path / "rec.semg"
    write_recording(path, rec)
    raw = bytearray(path.read_bytes())
    at = array_offset(raw, "samples") + 4 * (1 * 50 + 5)  # channel 1, sample 5
    raw[at : at + 4] = np.array([np.inf], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError) as err:
        read_recording(path)
    msg = str(err.value)
    assert "ch2" in msg and "5" in msg and "inf" in msg


@pytest.mark.parametrize("value", [np.nan, -np.inf, np.inf])
def test_recording_names_first_non_finite_sample(value):
    data = np.zeros((3, 40), dtype=np.float32)
    data[2, 9] = value
    data[2, 30] = np.nan
    with pytest.raises(DataError) as err:
        replace(sample_recording(t=40), data=data)
    assert str(err.value) == f"sample 9 of channel ch3 is not finite ({float(value)})"


@pytest.mark.filterwarnings("error")
def test_write_recording_refuses_a_sample_float32_cannot_hold(tmp_path):
    data = np.zeros((3, 40))
    data[1, 7], data[2, 3] = 1e300, -1e39
    path = tmp_path / "rec.semg"
    with pytest.raises(DataError) as err:
        write_recording(path, replace(sample_recording(t=40), data=data))
    assert str(err.value) == (
        "sample 7 of channel ch2 (1e+300) is beyond the float32 range of the "
        "recording format"
    )
    assert not path.exists()
    # the float32 extremes themselves are written and read back
    data[1, 7], data[2, 3] = np.finfo(np.float32).max, np.finfo(np.float32).min
    write_recording(path, replace(sample_recording(t=40), data=data))
    assert np.array_equal(read_recording(path).data, data.astype(np.float32))


def test_recording_checks_samples_without_a_full_size_mask():
    # 12 channels x 100000 float32 samples: 4.8 MB; annotations 0.4 MB
    t = 100_000
    gesture = np.ones(t, dtype=np.uint16)
    repetition = np.ones(t, dtype=np.uint16)
    data = np.random.default_rng(2).normal(size=(12, t)).astype(np.float32)
    peak = _peak_bytes(Recording, data, 2000.0, gesture, repetition)
    assert peak < 0.1 * data.nbytes, peak  # the active mask and reps, not C x T


def test_trailing_bytes_rejected_in_every_format(tmp_path):
    model = AttentionTcn(ModelConfig(
        channels=2, seq_len=4, num_patches=2, model_dim=2,
    ))
    ckpt = make_checkpoint(
        model, Adam(model.named_parameters()), epoch=0, rng_state=None
    )
    cases = [
        ("r.semg", lambda p: write_recording(p, sample_recording()), read_recording),
        ("s.sseg", lambda p: write_segments(p, sample_segments()), read_segments),
        ("m.ckpt", lambda p: save_checkpoint(p, ckpt), load_checkpoint),
    ]
    for name, write, read in cases:
        path = tmp_path / name
        write(path)
        read(path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read(path)


def _read_checkpoint_fully(path):
    ckpt = load_checkpoint(path)
    restore_optimizer(ckpt, restore_model(ckpt))


class PristineFiles:
    """One small valid file of each binary format, its bytes and the
    function that reads it, keyed by file name."""

    def __init__(self, root):
        self.root = root
        model = AttentionTcn(ModelConfig(
            channels=2, seq_len=4, num_patches=2, model_dim=2,
        ))
        rng_state = np.random.Generator(np.random.PCG64(7)).bit_generator.state
        ckpt = make_checkpoint(model, Adam(model.named_parameters()), 3, rng_state)
        self.cases = {}
        writers = {
            "r.semg": (lambda p: write_recording(p, sample_recording(t=12)), read_recording),
            "s.sseg": (lambda p: write_segments(p, sample_segments(m=3, l=4)), read_segments),
            "m.ckpt": (lambda p: save_checkpoint(p, ckpt), _read_checkpoint_fully),
        }
        for name, (write, read) in writers.items():
            path = root / name
            write(path)
            read(path)
            self.cases[name] = (path, path.read_bytes(), read)

    def __repr__(self):
        return f"PristineFiles({self.root})"


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    return PristineFiles(tmp_path_factory.mktemp("pristine"))


_NAMES = st.sampled_from(["r.semg", "s.sseg", "m.ckpt"])
# (in the head?, bit): half of the flips land in the fixed header or
# the JSON head, however long each file's head is
_BIT = st.tuples(st.booleans(), st.integers(0, 2**40))
_HOSTILE = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_HOSTILE
@given(name=_NAMES, cut=st.integers(0, 2**40))
def test_truncated_file_raises_format_error(pristine, name, cut):
    path, blob, read = pristine.cases[name]
    path.write_bytes(blob[: cut % len(blob)])
    with pytest.raises(FormatError, match="truncated"):
        read(path)


@_HOSTILE
@given(name=_NAMES, bits=st.lists(_BIT, min_size=1, max_size=3))
def test_bit_flipped_file_raises_only_format_or_data_error(pristine, name, bits):
    # a flip may leave a readable file (a changed sample, say); any error
    # it causes must be one the CLI maps to its exit codes
    path, blob, read = pristine.cases[name]
    damaged = bytearray(blob)
    for in_head, bit in bits:
        bit %= 8 * (head_span(blob) if in_head else len(blob))
        damaged[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(damaged))
    try:
        read(path)
    except (FormatError, DataError):
        pass


def test_repeated_checkpoint_entry_raises_format_error(pristine):
    # a second "epoch" key in the meta, then a second entry for an array
    path, blob, read = pristine.cases["m.ckpt"]
    text = json.dumps(head_of(blob), sort_keys=True).encode()
    path.write_bytes(with_head(blob, text.replace(b'"meta": {', b'"meta": {"epoch": 99, ')))
    with pytest.raises(FormatError, match="'epoch' appears twice"):
        read(path)
    head = head_of(blob)
    head["arrays"].append(head["arrays"][0])
    path.write_bytes(with_head(blob, head))
    with pytest.raises(FormatError, match=f"'{head['arrays'][0][0]}' appears twice"):
        read(path)


def test_annotated_csv_round_trip(tmp_path):
    rec = sample_recording(channels=2, t=20)
    path = tmp_path / "rec.csv"
    rows = ["ch1,ch2,gesture,repetition"] + [
        ",".join([*map(repr, map(float, rec.data[:, i])),
                  str(rec.gesture[i]), str(rec.repetition[i])])
        for i in range(rec.num_samples)
    ]
    path.write_text("\n".join(rows) + "\n")
    back = read_annotated_csv(path, sample_rate_hz=2000.0, subject=7)
    assert back.data.tobytes() == rec.data.tobytes()
    assert np.array_equal(back.gesture, rec.gesture)
    assert np.array_equal(back.repetition, rec.repetition)


@pytest.mark.parametrize(
    "gesture, rep, words",
    [
        ("65537", "1", "gesture id 65537 of sample 2"),
        ("-1", "1", "gesture id -1 of sample 2"),
        ("1", "65536", "repetition id 65536 of sample 2"),
    ],
    ids=["gesture-above", "gesture-negative", "repetition-above"],
)
def test_annotated_csv_refuses_ids_outside_u16(tmp_path, gesture, rep, words):
    path = tmp_path / "ids.csv"
    path.write_text(f"ch1,gesture,repetition\n0.1,0,0\n0.2,1,1\n0.3,{gesture},{rep}\n")
    with pytest.raises(DataError, match=words):
        read_annotated_csv(path, sample_rate_hz=2000.0)


def test_recording_refuses_ids_that_are_not_integers():
    for bad in (np.array([0.0, 1.5]), np.array([0.0, np.nan]), np.array(["0", "1"])):
        with pytest.raises(DataError, match="gesture"):
            Recording(np.zeros((1, 2)), 2000.0, bad, np.array([0, 1]))
    # integer-valued floats are ids; uint16 input is taken as it is
    rec = Recording(np.zeros((1, 2)), 2000.0, np.array([0.0, 2.0]), np.array([0, 1]))
    assert rec.gesture.dtype == np.uint16 and list(rec.gesture) == [0, 2]


def test_annotated_csv_rejects_bad_shape(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("ch1,gesture,repetition\n0.5,1\n")
    with pytest.raises(DataError):
        read_annotated_csv(path, sample_rate_hz=2000.0)
    path.write_text("a,b,gesture,repetition\n")
    with pytest.raises(DataError):
        read_annotated_csv(path, sample_rate_hz=2000.0)


@pytest.mark.parametrize("text, words", [
    ("", "empty file"),
    ("ch1,label,repetition\n0.5,1,1\n", "last two columns must be gesture,repetition"),
    ("ch1,gesture,repetition\n0.5,1,1\n0.x,1,1\n", "rows.csv:3: malformed row"),
    ("ch1,gesture,repetition\n\n", "no sample rows"),
], ids=["empty", "last-columns", "malformed-number", "no-rows"])
def test_annotated_csv_refuses_malformed_text(tmp_path, text, words):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=words):
        read_annotated_csv(path, sample_rate_hz=2000.0)


def test_segments_round_trip_bit_exact(tmp_path):
    segs = sample_segments()
    segs.data[0, 0, 0] = -0.0
    path = tmp_path / "set.sseg"
    write_segments(path, segs)
    back = read_segments(path)
    assert back.data.tobytes() == segs.data.tobytes()
    assert np.array_equal(back.labels, segs.labels)
    assert np.array_equal(back.subjects, segs.subjects)
    assert np.array_equal(back.repetitions, segs.repetitions)
    assert back.sample_rate_hz == segs.sample_rate_hz
    assert head_of(path.read_bytes())["meta"] == {"sample_rate_hz": segs.sample_rate_hz}
    assert np.signbit(back.data[0, 0, 0])


def test_segments_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "x.sseg"
    path.write_bytes(b"NOPE" + bytes(30))
    with pytest.raises(FormatError):
        read_segments(path)
    good = tmp_path / "good.sseg"
    write_segments(good, sample_segments())
    cut = tmp_path / "cut.sseg"
    cut.write_bytes(good.read_bytes()[:40])
    with pytest.raises(FormatError) as err:
        read_segments(cut)
    assert "offset" in str(err.value)


def test_recording_shape_numpy_cannot_hold_raises_format_error(tmp_path):
    # 0 channels make the sample block 0 bytes long, so only the shape
    # (0, 2**62) of float32 is wrong: numpy refuses to create it
    path = tmp_path / "huge.semg"
    path.write_bytes(huge_recording())
    with pytest.raises(FormatError, match="samples"):
        read_recording(path)


def _peak_bytes(fn, *args):
    """Peak traced allocation while ``fn`` runs, over what existed before."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_segment_file_passes_through_memory_once(tmp_path):
    segs = sample_segments(m=2048, c=4, l=256)  # 16 MiB of windows
    path = tmp_path / "big.sseg"
    write_peak = _peak_bytes(write_segments, path, segs)
    read_peak = _peak_bytes(read_segments, path)
    data_bytes, file_bytes = segs.data.nbytes, path.stat().st_size
    assert write_peak < 0.5 * data_bytes, (write_peak, data_bytes)
    assert read_peak < 1.5 * file_bytes, (read_peak, file_bytes)
    assert read_segments(path).data.tobytes() == segs.data.tobytes()


def test_segment_windows_are_mapped_not_copied(tmp_path):
    segs = sample_segments(m=2048, c=4, l=256)  # 16 MiB of windows
    path = tmp_path / "big.sseg"
    write_segments(path, segs)
    read_peak = _peak_bytes(read_segments, path)
    assert read_peak < 0.05 * path.stat().st_size, read_peak  # the int64 columns
    back = read_segments(path)
    assert back.data.flags.writeable and not isinstance(back.data, np.memmap)


def test_segments_reject_non_finite_window_value(tmp_path):
    path = tmp_path / "nan.sseg"
    write_segments(path, sample_segments(m=3))
    raw = bytearray(path.read_bytes())
    at = array_offset(raw, "data") + 3 * 2 * 8 * 8 - 8  # last value
    raw[at : at + 8] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError) as err:
        read_segments(path)
    msg = str(err.value)
    assert "window 2" in msg and "sample 7" in msg and "ch2" in msg and "nan" in msg


def test_segments_accept_finite_windows_whose_sum_overflows(tmp_path):
    segs = sample_segments(m=3)
    segs.data[:] = 1e308
    segs.data[1] = -1e308
    path = tmp_path / "big.sseg"
    write_segments(path, segs)
    assert read_segments(path).data.tobytes() == segs.data.tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_segments_name_the_first_non_finite_window_value(tmp_path, value):
    segs = sample_segments(m=3)
    segs.data[:] = 1e308  # the sum overflows before the bad value is met
    segs.data[1, 1, 3] = value
    segs.data[2, 0, 0] = np.nan
    path = tmp_path / "bad.sseg"
    write_segments(path, segs)
    with pytest.raises(DataError) as err:
        read_segments(path)
    assert str(err.value) == (
        f"window 1: sample 3 of channel ch2 is not finite ({float(value)})"
    )


def test_recording_accepts_finite_samples_whose_sum_overflows():
    data = np.full((2, 40), 3e38, dtype=np.float32)
    data[1] = -3e38
    rec = replace(sample_recording(t=40), data=data)
    assert rec.data.tobytes() == data.tobytes()


def test_segments_rewritten_from_their_own_map_keep_their_bytes(tmp_path):
    # several pages of windows, all of them faulted in by the finite check
    path = tmp_path / "set.sseg"
    write_segments(path, sample_segments(m=600, c=4, l=64))
    blob = path.read_bytes()
    write_segments(path, read_segments(path))
    assert path.read_bytes() == blob


def test_segments_read_before_a_rewrite_keep_their_values(tmp_path):
    old, new = sample_segments(m=50, seed=2), sample_segments(m=50, seed=3)
    path = tmp_path / "set.sseg"
    write_segments(path, old)
    held = read_segments(path)
    write_segments(path, new)
    assert held.data.tobytes() == old.data.tobytes()
    assert read_segments(path).data.tobytes() == new.data.tobytes()


def test_writing_into_read_windows_leaves_the_file_alone(tmp_path):
    segs = sample_segments(m=50)
    path = tmp_path / "set.sseg"
    write_segments(path, segs)
    blob = path.read_bytes()
    held = read_segments(path)
    held.data[:] = 7.0
    assert np.all(held.data == 7.0)
    assert path.read_bytes() == blob
    assert read_segments(path).data.tobytes() == segs.data.tobytes()


def test_segment_file_of_zero_windows_round_trips(tmp_path):
    path, again = tmp_path / "empty.sseg", tmp_path / "again.sseg"
    write_segments(path, sample_segments(m=0))
    back = read_segments(path)
    assert back.data.shape == (0, 2, 8) and len(back.labels) == 0
    write_segments(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_segments_shape_numpy_cannot_hold_raises_format_error(tmp_path):
    # no windows, so the window block is 0 bytes long and only the shape
    # (0, 2**31, 2**31) of float64 is wrong
    path = tmp_path / "huge.sseg"
    path.write_bytes(file_bytes(b"SSEG", {"arrays": [
        ["data", "<f8", [0, 2**31, 2**31]], ["labels", "<u2", [0]],
        ["subjects", "<u2", [0]], ["repetitions", "<u2", [0]],
    ], "meta": {"sample_rate_hz": 2000.0}}))
    with pytest.raises(FormatError, match="'data' has shape .* numpy cannot hold"):
        read_segments(path)


class _DiskFullAfterFirstWrite(io.FileIO):
    def write(self, b):
        if self.tell():
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(b)


def test_failed_segment_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "set.sseg"
    write_segments(path, sample_segments(m=5, seed=2))
    blob = path.read_bytes()
    monkeypatch.setattr(data_module, "open", _DiskFullAfterFirstWrite, raising=False)
    with pytest.raises(OSError) as err:
        write_segments(path, sample_segments(m=9, seed=3))
    assert err.value.errno == errno.ENOSPC
    assert path.read_bytes() == blob
    assert os.listdir(tmp_path) == ["set.sseg"]


def test_segments_reject_non_finite_rate(tmp_path):
    path = tmp_path / "rate.sseg"
    write_segments(path, sample_segments(m=3))
    path.write_bytes(with_meta(path.read_bytes(), sample_rate_hz=-math.inf))
    with pytest.raises(DataError) as err:
        read_segments(path)
    assert "-inf" in str(err.value)


def test_recording_rejects_nan_rate(tmp_path):
    path = tmp_path / "rate.semg"
    write_recording(path, sample_recording(t=12))
    path.write_bytes(with_meta(path.read_bytes(), sample_rate_hz=math.nan))
    with pytest.raises(DataError) as err:
        read_recording(path)
    assert "nan" in str(err.value)


def test_constructors_reject_non_finite_rate():
    # the constructors own the check, so code that builds these in
    # memory meets it as the file readers do
    with pytest.raises(DataError, match="finite and positive.*nan"):
        replace(sample_recording(), sample_rate_hz=float("nan"))
    segs = sample_segments(m=3)
    with pytest.raises(DataError, match="finite and positive.*inf"):
        SegmentSet(
            data=segs.data, labels=segs.labels, subjects=segs.subjects,
            repetitions=segs.repetitions, sample_rate_hz=float("inf"),
        )


def test_concat_segments():
    a = sample_segments(m=4, seed=2)
    b = sample_segments(m=6, seed=3)
    both = concat_segments([a, b])
    assert len(both) == 10
    assert np.array_equal(both.data[:4], a.data)
    assert np.array_equal(both.labels[4:], b.labels)
    assert np.array_equal(both.subjects, np.concatenate([a.subjects, b.subjects]))
    assert np.array_equal(both.repetitions, np.concatenate([a.repetitions, b.repetitions]))
    assert both.sample_rate_hz == a.sample_rate_hz
    with pytest.raises(DataError):
        concat_segments([])
    with pytest.raises(DataError):
        concat_segments([a, sample_segments(m=3, l=16)])
    with pytest.raises(DataError):
        concat_segments([a, replace(a, sample_rate_hz=1000.0)])


def test_write_segments_parts_give_the_concatenated_file(tmp_path):
    parts = [sample_segments(m=4, seed=2), sample_segments(m=0, seed=3),
             sample_segments(m=7, seed=4)]
    joined, several = tmp_path / "joined.sseg", tmp_path / "parts.sseg"
    write_segments(joined, concat_segments(parts))
    write_segments(several, *parts)
    assert several.read_bytes() == joined.read_bytes()
    read = read_segments(several)
    assert read.data.tobytes() == concat_segments(parts).data.tobytes()
    # the same windows drawn one at a time, behind parts that give only shapes
    streamed = tmp_path / "streamed.sseg"
    shapes = [replace(p, data=np.broadcast_to(0.0, p.data.shape)) for p in parts]
    write_segments(streamed, *shapes, windows=(w[None] for p in parts for w in p.data))
    assert streamed.read_bytes() == joined.read_bytes()


@pytest.mark.parametrize("drop, extra", [(1, 0), (0, 1)], ids=["short", "long"])
def test_write_segments_refuses_windows_that_miss_the_shape(tmp_path, drop, extra):
    segs = sample_segments(m=5, seed=2)
    path = tmp_path / "x.sseg"
    path.write_bytes(b"old")
    blocks = [segs.data[:2], segs.data[2 : 5 - drop], segs.data[:extra]]
    with pytest.raises(DataError, match=r"^data got \d+ values from its parts; "
                                        r"its shape \(5, 2, 8\) holds 80$"):
        write_segments(path, segs, windows=iter(blocks))
    assert path.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.sseg"]


def test_write_segments_refuses_what_concat_refuses(tmp_path):
    a = sample_segments(m=4, seed=2)
    for parts in ([], [a, sample_segments(m=3, l=16)], [a, replace(a, sample_rate_hz=1000.0)]):
        with pytest.raises(DataError) as joined:
            concat_segments(parts)
        path = tmp_path / "x.sseg"
        with pytest.raises(DataError) as written:
            write_segments(path, *parts)
        assert str(written.value) == str(joined.value)
        assert not path.exists()


def test_segment_head_of_the_old_layout_is_refused(tmp_path):
    # the window length is the windows' last axis; a head that still
    # gives it in ms, whether it agrees or not, is not this layout
    path = tmp_path / "x.sseg"
    write_segments(path, sample_segments(m=2))
    raw = path.read_bytes()
    assert head_of(raw)["meta"] == {"sample_rate_hz": 2000.0}
    for window_ms in (4, 6):
        path.write_bytes(with_meta(raw, window_ms=window_ms))
        with pytest.raises(FormatError, match=r"meta must hold exactly sample_rate_hz \(float\)$"):
            read_segments(path)


def test_write_segments_refuses_a_label_beyond_u16_and_writes_nothing(tmp_path):
    path = tmp_path / "x.sseg"
    segs = sample_segments(m=2, seed=1)
    segs.labels[1] = 65536
    with pytest.raises(DataError, match="labels exceed the u16 range"):
        write_segments(path, segs)
    assert not path.exists()


def test_segment_parts_written_without_joining(tmp_path):
    parts = [sample_segments(m=512, c=4, l=256, seed=s) for s in range(4)]  # 16 MiB
    path = tmp_path / "parts.sseg"
    peak = _peak_bytes(write_segments, path, *parts)
    assert peak < 0.1 * path.stat().st_size, peak  # only the u16 columns are joined


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(train_repetitions={1, 2}, test_repetitions={2, 5})
    with pytest.raises(ConfigError):
        SplitSpec(train_repetitions={0, 1}, test_repetitions={2})
    spec = SplitSpec()
    assert spec.train_repetitions == {1, 3, 4, 6}
    assert spec.test_repetitions == {2, 5}


def test_split_default_proportions():
    m = 60
    segs = SegmentSet(
        data=np.zeros((m, 1, 4)),
        labels=np.zeros(m, dtype=np.int64),
        subjects=np.zeros(m, dtype=np.int64),
        repetitions=np.tile(np.arange(1, 7), 10).astype(np.int64),
        sample_rate_hz=2000.0,
    )
    train, test = split(segs)
    assert len(train) == 40 and len(test) == 20
    assert set(train.repetitions) == {1, 3, 4, 6}
    assert set(test.repetitions) == {2, 5}


def test_split_empty_test_spec_takes_all_eligible():
    segs = sample_segments(m=30, seed=4)
    spec = SplitSpec(train_repetitions=frozenset(range(1, 7)),
                     test_repetitions=frozenset())
    train, test = split(segs, spec)
    assert len(train) == 30 and len(test) == 0


def test_split_is_partition_and_warns_on_drops():
    segs = sample_segments(m=40, seed=5)  # repetitions span 1..6
    spec = SplitSpec(train_repetitions={1, 3}, test_repetitions={2})
    with pytest.warns(UserWarning, match=r"\d+ segments"):
        train, test = split(segs, spec)
    dropped = int(np.isin(segs.repetitions, [4, 5, 6]).sum())
    assert len(train) + len(test) + dropped == len(segs)
    assert dropped > 0
    assert not set(map(tuple, train.data[:, 0])) & set(map(tuple, test.data[:, 0]))


def test_split_sides_hold_their_rows_of_every_per_window_array():
    segs = replace(sample_segments(m=40, seed=6), sample_rate_hz=1000.0)
    for side, reps in zip(split(segs), ([1, 3, 4, 6], [2, 5])):
        mask = np.isin(segs.repetitions, reps)
        assert 0 < len(side) < len(segs)
        for name in ("data", "labels", "subjects", "repetitions"):
            assert np.array_equal(getattr(side, name), getattr(segs, name)[mask]), name
        assert (side.sample_rate_hz, side.seg_len) == (1000.0, 8)


def test_split_every_gesture_in_both_halves():
    rec = generate_synthetic(subjects=1, classes=5, reps=6, seed=3,
                             channels=4, gesture_seconds=0.5)[0]
    segs = segment(rec, window_ms=200)
    train, test = split(segs)
    assert set(train.labels) == set(range(5))
    assert set(test.labels) == set(range(5))


def test_generate_synthetic_deterministic():
    a = generate_synthetic(subjects=2, classes=3, reps=2, seed=11, channels=4,
                           gesture_seconds=0.3, rest_seconds=0.1)
    b = generate_synthetic(subjects=2, classes=3, reps=2, seed=11, channels=4,
                           gesture_seconds=0.3, rest_seconds=0.1)
    for ra, rb in zip(a, b):
        assert ra.data.tobytes() == rb.data.tobytes()
        assert np.array_equal(ra.gesture, rb.gesture)
    c = generate_synthetic(subjects=2, classes=3, reps=2, seed=12, channels=4,
                           gesture_seconds=0.3, rest_seconds=0.1)
    assert a[0].data.tobytes() != c[0].data.tobytes()


_SYNTH_ARGS = dict(classes=4, reps=2, seed=7, channels=3, gesture_seconds=0.3,
                   rest_seconds=0.1)
# sha256 over each subject's samples, gesture ids and repetition ids in
# turn, for three subjects of _SYNTH_ARGS, as the serial float64 generator
# wrote them
_SYNTH_SHA256 = "70480cda34f38924318275321146d3414d5aeaa13cf5ff8207e46e6a1d2fac6c"


def _synth_digest(recs):
    h = hashlib.sha256()
    for rec in recs:
        for arr in (rec.data, rec.gesture, rec.repetition):
            h.update(arr.tobytes())
    return h.hexdigest()


def test_generate_synthetic_bytes_are_pinned():
    recs = generate_synthetic(subjects=3, **_SYNTH_ARGS)
    assert _synth_digest(recs) == _SYNTH_SHA256
    for rec in recs:
        assert rec.data.dtype == np.float32 and rec.data.flags.c_contiguous
    # subject k is the same recording however many subjects are asked for
    for n in (1, 2):
        for short, full in zip(generate_synthetic(subjects=n, **_SYNTH_ARGS), recs):
            assert _synth_digest([short]) == _synth_digest([full])


@pytest.mark.parametrize("cores", [1, 3])
def test_generate_synthetic_bytes_do_not_depend_on_the_worker_count(monkeypatch, cores):
    sizes = []

    class Pool(data_module.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(data_module, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    assert _synth_digest(generate_synthetic(subjects=3, **_SYNTH_ARGS)) == _SYNTH_SHA256
    assert sizes == [cores]


def test_generate_synthetic_worker_error_reaches_the_caller(monkeypatch):
    err = MemoryError("cannot allocate the wave")
    empty, raised_in = np.empty, []

    def empty_in_main_thread(*args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            return empty(*args, **kwargs)
        raised_in.append(threading.current_thread())
        raise err

    monkeypatch.setattr(np, "empty", empty_in_main_thread)
    with pytest.raises(MemoryError) as info:
        generate_synthetic(subjects=3, **_SYNTH_ARGS)
    assert info.value is err
    assert raised_in  # from inside a worker thread


def _reference_subject(classes, reps, seed, channels, sample_rate_hz,
                       gesture_seconds, rest_seconds):
    """Subject 1's samples, gesture and repetition ids as the generator
    wrote them with one np.sin per harmonic and span: the reference the
    sum-of-angles form is held to."""
    active_n = int(round(gesture_seconds * sample_rate_hz))
    rest_n = int(round(rest_seconds * sample_rate_hz))
    t_active = np.arange(active_n) / sample_rate_hz
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 5150, 0))))
    parts, gesture, repetition = [], [], []
    for g in range(1, classes + 1):
        amplitude, base_hz, weights, phase = data_module._class_signature(g, channels)
        for rep in range(1, reps + 1):
            parts.append(rng.normal(scale=0.01, size=(channels, rest_n)))
            span_phase = rng.uniform(0.0, 2.0 * np.pi)
            gain = rng.uniform(0.9, 1.1)
            wave = np.zeros((channels, active_n))
            for h, wgt in enumerate(weights, start=1):
                angle = (2.0 * np.pi * base_hz * h * t_active
                         + h * (phase[:, None] + span_phase))
                wave += wgt * np.sin(angle)
            wave *= gain * amplitude[:, None]
            wave += rng.normal(scale=0.05, size=(channels, active_n))
            parts.append(wave)
            gesture += [0] * rest_n + [g] * active_n
            repetition += [0] * rest_n + [rep] * active_n
    return (np.concatenate(parts, axis=1).astype(np.float32),
            np.array(gesture, dtype=np.uint16), np.array(repetition, dtype=np.uint16))


@pytest.mark.parametrize("seed, gesture_seconds, rest_seconds", [
    (0, 1.0, 0.25),
    (1, 5.0, 3.0),
], ids=["default", "db2"])
def test_generate_synthetic_stays_within_one_float32_rounding_of_the_sine_loop(
        seed, gesture_seconds, rest_seconds):
    args = dict(classes=17, reps=6, seed=seed, channels=12, sample_rate_hz=2000.0,
                gesture_seconds=gesture_seconds, rest_seconds=rest_seconds)
    (rec,) = generate_synthetic(subjects=1, **args)
    data, gesture, repetition = _reference_subject(**args)
    assert rec.gesture.tobytes() == gesture.tobytes()
    assert rec.repetition.tobytes() == repetition.tobytes()
    rest = gesture == 0
    assert rec.data[:, rest].tobytes() == data[:, rest].tobytes()
    # absolute: near a zero crossing one rounding of the float64 sum is
    # many float32 ulps of the sample
    moved = np.abs(rec.data[:, ~rest].astype(np.float64) - data[:, ~rest])
    assert moved.max() <= 2.0**-23


@pytest.mark.parametrize("rate, fits", [(2000.0, 51), (800.0, 18), (300.0, 4), (100.0, 0)])
def test_generate_synthetic_refuses_classes_that_alias(rate, fits):
    if fits >= 2:
        generate_synthetic(subjects=1, classes=fits, reps=1, channels=1,
                           sample_rate_hz=rate, gesture_seconds=0.01, rest_seconds=0)
    with pytest.raises(ConfigError, match=f"; at most {fits} classes fit$"):
        generate_synthetic(subjects=1, classes=max(fits + 1, 2), reps=1,
                           sample_rate_hz=rate, gesture_seconds=0.01, rest_seconds=0)


def test_generate_synthetic_layout():
    recs = generate_synthetic(subjects=2, classes=17, reps=6, seed=0,
                              channels=3, gesture_seconds=0.2, rest_seconds=0.05)
    assert len(recs) == 2
    for i, rec in enumerate(recs):
        assert rec.subject == i + 1
        active = rec.gesture != 0
        starts = np.flatnonzero(np.diff(active.astype(np.int8)) == 1)
        assert starts.size == 17 * 6
        assert set(rec.gesture[active].tolist()) == set(range(1, 18))
        assert set(rec.repetition[active].tolist()) == set(range(1, 7))
        assert rec.repetition[~active].max() == 0


def test_generate_synthetic_validation():
    with pytest.raises(ConfigError):
        generate_synthetic(subjects=0)
    with pytest.raises(ConfigError):
        generate_synthetic(subjects=1, classes=1)
    with pytest.raises(ConfigError):
        generate_synthetic(subjects=1, reps=7)


def test_generate_synthetic_centroid_separability():
    # nearest centroid on per-channel mean-absolute-value features must
    # clear 50% on the held-out repetitions; this is the floor that the
    # learned model builds on
    recs = generate_synthetic(subjects=2, classes=17, reps=6, seed=1)
    segs = concat_segments([segment(rec, window_ms=200) for rec in recs])
    train, test = split(segs)
    feats_train = np.abs(train.data).mean(axis=2)
    feats_test = np.abs(test.data).mean(axis=2)
    centroids = np.stack(
        [feats_train[train.labels == g].mean(axis=0) for g in range(17)]
    )
    dists = ((feats_test[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    preds = dists.argmin(axis=1)
    acc = float((preds == test.labels).mean())
    assert acc > 0.5, acc


# -- one read path, one write path -----------------------------------------


def _small_checkpoint(seed, lr=1e-4):
    model = AttentionTcn(ModelConfig(
        channels=2, seq_len=4, num_patches=2, model_dim=2,
    ), seed=seed)
    return make_checkpoint(model, Adam(model.named_parameters(), lr=lr), seed, None)


def _write_report(path, seed):
    rows = [(s, 1.0 / (s + seed + 1)) for s in range(1, 4)]
    data_module._write_csv(path, ("subject", "accuracy"), rows)


# each writer, called with a path and a seed that picks what it writes
_WRITERS = {
    "recording": lambda p, seed: write_recording(p, sample_recording(seed=seed)),
    "segments": lambda p, seed: write_segments(p, sample_segments(seed=seed)),
    "checkpoint": lambda p, seed: save_checkpoint(p, _small_checkpoint(seed)),
    "report": _write_report,
}


def _map_of(arr):
    """The mmap an array views, found through its chain of bases."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj


@pytest.mark.parametrize("writer", ["recording", "checkpoint", "report"])
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out"
    _WRITERS[writer](path, 2)
    blob = path.read_bytes()
    monkeypatch.setattr(data_module, "open", _DiskFullAfterFirstWrite, raising=False)
    with pytest.raises(OSError) as err:
        _WRITERS[writer](path, 3)
    assert err.value.errno == errno.ENOSPC
    assert path.read_bytes() == blob
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_interrupted_write_keeps_the_old_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out"
    _WRITERS[writer](path, 2)
    blob = path.read_bytes()

    class Interrupted(io.FileIO):
        def write(self, b):
            raise KeyboardInterrupt

    monkeypatch.setattr(data_module, "open", Interrupted, raising=False)
    with pytest.raises(KeyboardInterrupt):
        _WRITERS[writer](path, 3)
    assert path.read_bytes() == blob
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_write_through_a_symlink_replaces_its_target(tmp_path, writer):
    (tmp_path / "real").mkdir()
    target, link, plain = tmp_path / "real" / "out", tmp_path / "link", tmp_path / "plain"
    _WRITERS[writer](target, 2)
    link.symlink_to(os.path.join("real", "out"))
    _WRITERS[writer](link, 3)
    _WRITERS[writer](plain, 3)
    assert link.is_symlink() and os.readlink(link) == os.path.join("real", "out")
    assert target.read_bytes() == plain.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["link", "plain", "real"]
    assert os.listdir(tmp_path / "real") == ["out"]


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_rewritten_file_keeps_its_permission_bits(tmp_path, writer):
    path, fresh = tmp_path / "out", tmp_path / "fresh"
    _WRITERS[writer](path, 2)
    path.chmod(0o640)
    _WRITERS[writer](path, 3)
    assert path.stat().st_mode & 0o7777 == 0o640
    umask = os.umask(0)
    os.umask(umask)
    _WRITERS[writer](fresh, 3)
    assert fresh.stat().st_mode & 0o7777 == 0o666 & ~umask


def test_recording_samples_are_mapped_not_copied(tmp_path):
    t = 2**16
    gesture = np.zeros(t, dtype=np.uint16)
    repetition = np.zeros(t, dtype=np.uint16)
    gesture[t // 4 : 3 * t // 4] = 5
    repetition[t // 4 : 3 * t // 4] = 2
    data = np.random.default_rng(0).normal(size=(63, t)).astype(np.float32)
    path = tmp_path / "big.semg"
    write_recording(path, Recording(data, 2000.0, gesture, repetition))
    blob = path.read_bytes()
    assert len(blob) == 16 * 2**20 + head_span(blob)  # 63 channels + annotations
    peak = _peak_bytes(read_recording, path)
    assert peak < 0.05 * len(blob), peak
    back = read_recording(path)
    assert back.data.flags.writeable and not isinstance(back.data, np.memmap)
    assert back.data.tobytes() == data.tobytes()
    back.data[:] = 7.0
    assert path.read_bytes() == blob


def test_each_file_is_mapped_once(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, _small_checkpoint(0))
    ckpt = load_checkpoint(path)
    maps = {id(_map_of(a)) for group in (ckpt.weights, ckpt.m, ckpt.v)
            for a in group.values()}
    assert len(maps) == 1


def test_recording_and_checkpoint_rewritten_from_their_own_map(tmp_path):
    rec, ckpt = tmp_path / "r.semg", tmp_path / "m.ckpt"
    write_recording(rec, sample_recording(t=3000))
    save_checkpoint(ckpt, _small_checkpoint(4))
    blobs = rec.read_bytes(), ckpt.read_bytes()
    write_recording(rec, read_recording(rec))
    save_checkpoint(ckpt, load_checkpoint(ckpt))
    assert (rec.read_bytes(), ckpt.read_bytes()) == blobs


def test_loaded_files_keep_their_values_when_rewritten(tmp_path):
    rec_path, ckpt_path = tmp_path / "r.semg", tmp_path / "m.ckpt"
    old_rec, new_rec = sample_recording(t=3000, seed=1), sample_recording(t=3000, seed=2)
    write_recording(rec_path, old_rec)
    save_checkpoint(ckpt_path, _small_checkpoint(1))
    held_rec, held_ckpt = read_recording(rec_path), load_checkpoint(ckpt_path)
    write_recording(rec_path, new_rec)
    save_checkpoint(ckpt_path, _small_checkpoint(2))
    assert held_rec.data.tobytes() == old_rec.data.tobytes()
    assert np.array_equal(held_rec.gesture, old_rec.gesture)
    want = _small_checkpoint(1)
    for name, arr in want.weights.items():
        assert held_ckpt.weights[name].tobytes() == arr.tobytes()
    assert read_recording(rec_path).data.tobytes() == new_rec.data.tobytes()


def test_empty_recording_and_empty_checkpoint_array_round_trip(tmp_path):
    rec_path, again = tmp_path / "r.semg", tmp_path / "again.semg"
    empty = np.zeros(0, dtype=np.uint16)
    write_recording(rec_path, Recording(np.zeros((3, 0), np.float32), 2000.0, empty, empty))
    back = read_recording(rec_path)
    assert back.data.shape == (3, 0) and back.gesture.shape == (0,)
    write_recording(again, back)
    assert again.read_bytes() == rec_path.read_bytes()

    # a checkpoint holds only the model's parameters, none of them empty,
    # so the empty <f8 array round-trips as an SSEG of zero windows
    path, again = tmp_path / "s.sseg", tmp_path / "again.sseg"
    write_segments(path, sample_segments(m=0))
    loaded = read_segments(path)
    assert loaded.data.shape == (0, 2, 8) and loaded.data.dtype == np.float64
    write_segments(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_every_array_read_is_aligned_and_holds_what_was_written(tmp_path):
    # each digit of lr lengthens the checkpoint's head by one byte, and
    # each window or sample moves the arrays after the first, so the
    # eight files of each kind would put arrays at every offset mod 8
    for k in range(1, 9):
        rec, segs = sample_recording(t=40 + k), sample_segments(m=k)
        ckpt = _small_checkpoint(5, lr=float("0." + "123456789"[:k]))
        write_recording(tmp_path / "r.semg", rec)
        write_segments(tmp_path / "s.sseg", segs)
        save_checkpoint(tmp_path / "m.ckpt", ckpt)
        back_rec = read_recording(tmp_path / "r.semg")
        back_segs = read_segments(tmp_path / "s.sseg")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        pairs = [(getattr(back_rec, n), getattr(rec, n))
                 for n in ("data", "gesture", "repetition")]
        pairs += [(getattr(back_segs, n), getattr(segs, n)) for n in SegmentSet.PER_WINDOW]
        pairs += [(getattr(loaded, group)[name], arr) for group in ("weights", "m", "v")
                  for name, arr in getattr(ckpt, group).items()]
        for got, want in pairs:
            assert got.flags.aligned and got.ctypes.data % 8 == 0
            assert got.tobytes() == np.asarray(want, got.dtype).tobytes()
        model = restore_model(loaded)
        restore_optimizer(loaded, model)
        for name, p in model.named_parameters().items():
            assert p.data.tobytes() == ckpt.weights[name].tobytes()
            assert p.data.flags.aligned


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_a_fifo_or_folder_is_never_replaced(tmp_path, writer):
    fifo, folder = tmp_path / "fifo", tmp_path / "folder"
    os.mkfifo(fifo)
    folder.mkdir()
    for path in (fifo, folder):
        with pytest.raises(FileExistsError, match="not a regular file"):
            _WRITERS[writer](path, 1)
    assert fifo.is_fifo() and folder.is_dir() and not any(folder.iterdir())
    assert sorted(os.listdir(tmp_path)) == ["fifo", "folder"]


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_a_file_without_write_permission_is_not_replaced(tmp_path, monkeypatch, writer):
    path = tmp_path / "out"
    _WRITERS[writer](path, 2)
    blob = path.read_bytes()
    path.chmod(0o444)
    # root may write to any file, so the check is made to see what a user sees
    monkeypatch.setattr(data_module.os, "access", lambda p, mode: False)
    with pytest.raises(PermissionError) as err:
        _WRITERS[writer](path, 3)
    assert err.value.errno == errno.EACCES and err.value.filename == str(path)
    assert path.read_bytes() == blob
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_a_folder_that_takes_no_new_file_names_the_target(tmp_path, monkeypatch, writer):
    path = tmp_path / "out"

    def refuse(file, mode="r", *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), file)

    # root may create files in any folder, so the refusal is made to see what a user sees
    monkeypatch.setattr(data_module, "open", refuse, raising=False)
    with pytest.raises(PermissionError) as err:
        _WRITERS[writer](path, 1)
    assert err.value.errno == errno.EACCES and err.value.filename == str(path)
    assert os.listdir(tmp_path) == []


def test_recording_refuses_samples_that_are_not_2d():
    for shape in ((10,), (1, 2, 5)):
        with pytest.raises(DataError, match=r"samples must be channels x T, got \("):
            Recording(
                data=np.zeros(shape, dtype=np.float32), sample_rate_hz=2000.0,
                gesture=np.zeros(5, dtype=np.uint16),
                repetition=np.zeros(5, dtype=np.uint16),
            )


def test_recording_turns_integer_samples_into_float32():
    rec = Recording(
        data=np.arange(-3, 3, dtype=np.int16).reshape(2, 3), sample_rate_hz=2000.0,
        gesture=np.zeros(3, dtype=np.uint16), repetition=np.zeros(3, dtype=np.uint16),
    )
    assert rec.data.dtype == np.float32
    assert np.array_equal(rec.data, [[-3.0, -2.0, -1.0], [0.0, 1.0, 2.0]])
