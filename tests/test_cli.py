"""End-to-end tests for the command-line surface.

Every test drives main() in-process and checks the contract: exit code
0/2/3/4, exactly one machine-readable line on stdout, human chatter on
stderr only, and byte-identical artifacts for identical invocations.
"""

import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emgtcn import cli, data as dio, signal, stats, train as tr
from emgtcn.cli import main
from emgtcn.errors import ConfigError
from emgtcn.model import AttentionTcn, derive_config
from file_heads import (
    array_offset, file_bytes, head_of, huge_recording, with_head, with_meta,
)


def run(argv):
    return main([str(a) for a in argv])


def machine_line(capsys):
    """Parse stdout, asserting it carries exactly one key=value line."""
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 1, f"expected one stdout line, got {lines!r}"
    return dict(pair.split("=", 1) for pair in lines[0].split())


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth -> preprocess -> train -> eval run, shared."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw"
    segs = root / "segs.sseg"
    ckpt = root / "model.ckpt"
    trace = root / "trace.csv"
    reports = root / "reports"
    assert run([
        "synth", "--out-dir", raw, "--subjects", 2, "--num-classes", 3,
        "--reps", 6, "--seed", 9, "--gesture-seconds", 0.3,
        "--rest-seconds", 0.1,
    ]) == 0
    inputs = sorted(str(p) for p in raw.iterdir())
    assert run(["preprocess", *inputs, "--out", segs]) == 0
    assert run([
        "train", segs, "--checkpoint", ckpt, "--trace", trace,
        "--epochs", 2, "--lr", 0.01, "--model-dim", 4,
        "--num-classes", 3, "--seed", 5,
    ]) == 0
    assert run(["eval", ckpt, segs, "--out-dir", reports]) == 0
    return {
        "root": root, "raw": raw, "segs": segs, "ckpt": ckpt,
        "trace": trace, "reports": reports, "inputs": inputs,
    }


def test_pipeline_artifacts_exist(pipeline):
    assert pipeline["segs"].exists()
    assert pipeline["ckpt"].exists()
    assert pipeline["trace"].exists()
    assert (pipeline["reports"] / "model_per_subject.csv").exists()
    assert (pipeline["reports"] / "model_summary.csv").exists()


def test_preprocess_stdout_is_single_machine_line(pipeline, tmp_path, capsys):
    out = tmp_path / "again.sseg"
    assert run(["preprocess", *pipeline["inputs"], "--out", out]) == 0
    fields = machine_line(capsys)
    assert fields["segments"] == str(out)
    assert fields["count"].isdigit() and int(fields["count"]) > 0
    assert fields["classes"] == "3"


def test_train_stdout_fields(pipeline, tmp_path, capsys):
    ck, trc = tmp_path / "m.ckpt", tmp_path / "t.csv"
    assert run([
        "train", pipeline["segs"], "--checkpoint", ck, "--trace", trc,
        "--epochs", 1, "--model-dim", 4, "--num-classes", 3, "--seed", 5,
    ]) == 0
    fields = machine_line(capsys)
    assert fields["checkpoint"] == str(ck)
    assert float(fields["final_loss"]) > 0.0
    assert 0.0 <= float(fields["final_train_acc"]) <= 1.0


def test_eval_stdout_and_reports_agree(pipeline, capsys, tmp_path):
    out_dir = tmp_path / "rep"
    assert run([
        "eval", pipeline["ckpt"], pipeline["segs"], "--out-dir", out_dir,
        "--model-id", "trial",
    ]) == 0
    fields = machine_line(capsys)
    per_subject = stats.read_per_subject(fields["per_subject"])
    assert sorted(per_subject) == [1, 2]
    values = np.array([per_subject[s] for s in sorted(per_subject)])
    assert float(fields["mean"]) == pytest.approx(values.mean(), abs=1e-15)
    assert "trial_per_subject.csv" in fields["per_subject"]


def test_invalid_patch_count_exits_2(pipeline, tmp_path, capsys):
    for num_patches in (7, 0):
        code = run([
            "train", pipeline["segs"], "--checkpoint", tmp_path / "m.ckpt",
            "--trace", tmp_path / "t.csv", "--num-patches", num_patches,
        ])
        captured = capsys.readouterr()
        assert code == 2, num_patches
        assert captured.out == ""
        assert str(num_patches) in captured.err


def test_train_takes_window_from_segment_file(pipeline, tmp_path, capsys):
    wide = tmp_path / "w300.sseg"
    assert run([
        "preprocess", *pipeline["inputs"], "--out", wide, "--window-ms", 300,
    ]) == 0
    ckpt = tmp_path / "w300.ckpt"
    code = run([
        "train", wide, "--checkpoint", ckpt, "--trace", tmp_path / "t.csv",
        "--num-patches", 15, "--model-dim", 16, "--num-classes", 3,
        "--epochs", 1,
    ])
    assert code == 0, capsys.readouterr().err
    cfg = tr.load_checkpoint(ckpt).config
    assert (cfg.seq_len, cfg.patch_len) == (600, 40)


def test_non_finite_csv_sample_exits_2(tmp_path, capsys):
    rows = ["1.0,1.0,0,0"] * 100 + ["1.0,1.0,1,1"] * 400
    rows[300] = "1.0,nan,1,1"  # sample 300 of channel ch2
    csv_path = tmp_path / "rec.csv"
    csv_path.write_text("ch1,ch2,gesture,repetition\n" + "\n".join(rows) + "\n")
    out = tmp_path / "x.sseg"
    code = run(["preprocess", csv_path, "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "ch2" in captured.err and "300" in captured.err
    assert "rec.csv" in captured.err
    assert not out.exists()


def test_csv_id_outside_u16_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "ids.csv"
    csv_path.write_text("ch1,gesture,repetition\n0.1,0,0\n0.2,65537,1\n")
    out = tmp_path / "x.sseg"
    line = assert_one_error_line(
        run(["preprocess", csv_path, "--out", out]), capsys.readouterr()
    )
    assert "ids.csv" in line and "gesture id 65537 of sample 1" in line
    assert not out.exists()


def test_truncated_second_semg_input_exits_4(pipeline, tmp_path, capsys):
    trunc = tmp_path / "trunc.semg"
    with open(pipeline["inputs"][1], "rb") as fh:
        trunc.write_bytes(fh.read()[:-100])
    out = tmp_path / "x.sseg"
    code = run(["preprocess", pipeline["inputs"][0], trunc, "--out", out])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    last = captured.err.strip().splitlines()[-1]
    assert last.startswith("file error: ") and "truncated" in last
    assert captured.err.count(str(trunc)) == 1
    assert not out.exists()


def test_recording_shape_numpy_cannot_hold_exits_4(tmp_path, capsys):
    huge = tmp_path / "huge.semg"
    huge.write_bytes(huge_recording())
    code = run(["preprocess", huge, "--out", tmp_path / "x.sseg"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("file error: "), lines


def test_semg_filtered_at_its_own_rate(tmp_path):
    raw, out = tmp_path / "khz.semg", tmp_path / "khz.sseg"
    (rec,) = dio.generate_synthetic(
        1, classes=3, reps=2, sample_rate_hz=1000.0,
        gesture_seconds=0.5, rest_seconds=0.1,
    )
    dio.write_recording(raw, rec)
    assert run(["preprocess", raw, "--out", out]) == 0
    rec = dio.read_recording(raw, subject=1)
    filt = signal.FilterParams(sample_rate_hz=1000.0)
    want = signal.segment(rec.with_data(signal.preprocess(rec.data, filt)), 200)
    got = dio.read_segments(out)
    assert got.sample_rate_hz == 1000.0
    assert len(got) > 0
    np.testing.assert_array_equal(got.data, want.data)
    np.testing.assert_array_equal(got.labels, want.labels)


def _peak_bytes(argv):
    """Exit code and peak traced allocation of one in-process CLI run."""
    tracemalloc.start()
    try:
        code = run(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_preprocess_and_train_hold_the_windows_about_once(tmp_path):
    # 3 subjects, half-overlapping 200 ms windows: a 25 MB segment file
    assert run([
        "synth", "--out-dir", tmp_path / "raw", "--subjects", 3,
        "--num-classes", 4, "--reps", 6, "--seed", 3,
        "--gesture-seconds", 1, "--rest-seconds", 0.25,
    ]) == 0
    inputs = sorted((tmp_path / "raw").iterdir())
    segs = tmp_path / "s.sseg"
    code, peak = _peak_bytes(["preprocess", *inputs, "--out", segs, "--stride-ms", 100])
    assert code == 0
    size = segs.stat().st_size
    # the windows once, plus one recording being conditioned and cut
    assert peak <= 1.5 * size, peak / size
    code, peak = _peak_bytes([
        "train", segs, "--checkpoint", tmp_path / "m.ckpt",
        "--trace", tmp_path / "t.csv", "--epochs", 0,
        "--num-classes", 4, "--model-dim", 4,
    ])
    assert code == 0
    # the file read once, plus the training side; the test side is never built
    assert peak <= 1.85 * size, peak / size


def test_preprocess_peak_does_not_grow_with_the_corpus(tmp_path):
    # each subject's windows at a 100 ms stride are about 8.3 MB; only one
    # recording is conditioned at a time, so 6 subjects peak as 2 do
    assert run([
        "synth", "--out-dir", tmp_path / "raw", "--subjects", 6,
        "--num-classes", 4, "--reps", 6, "--seed", 3,
    ]) == 0
    inputs = sorted((tmp_path / "raw").iterdir())
    peaks = {}
    for n in (2, 6):
        code, peaks[n] = _peak_bytes([
            "preprocess", *inputs[:n], "--out", tmp_path / f"s{n}.sseg", "--stride-ms", 100,
        ])
        assert code == 0
    assert max(peaks.values()) <= 1.1 * min(peaks.values()), peaks
    size = (tmp_path / "s6.sseg").stat().st_size
    assert peaks[6] < 0.35 * size, peaks[6] / size


def test_synth_peak_does_not_grow_with_the_corpus(tmp_path, monkeypatch):
    # each subject's samples are about 2.9 MB; with two workers no more than
    # two subjects exist at a time, so 6 subjects peak as 2 do
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    peaks = {}
    for n in (2, 6):
        code, peaks[n] = _peak_bytes([
            "synth", "--out-dir", tmp_path / f"raw{n}", "--subjects", n,
            "--num-classes", 4, "--reps", 6, "--seed", 3,
        ])
        assert code == 0
    assert max(peaks.values()) <= 1.1 * min(peaks.values()), peaks
    # two subjects, the workers' span buffers and each class's harmonics
    subject = (tmp_path / "raw6" / "subject01.semg").stat().st_size
    assert peaks[6] < 4 * subject, peaks[6] / subject


def _write_annotated_csv(path, rec):
    """``rec`` in the CSV bridge format; its float32 samples read back exactly."""
    header = [f"ch{c + 1}" for c in range(rec.channels)] + ["gesture", "repetition"]
    rows = [",".join(map(repr, map(float, col))) + f",{g},{r}"
            for col, g, r in zip(rec.data.T, rec.gesture, rec.repetition)]
    path.write_text("\n".join([",".join(header), *rows]) + "\n")


def test_streamed_segment_file_equals_the_segments_written_whole(tmp_path):
    # a SEMG, a SEMG whose 150 ms spans hold no 200 ms window, and a CSV
    synth = ["synth", "--subjects", 1, "--num-classes", 3, "--reps", 2,
             "--channels", 3, "--rest-seconds", 0.1]
    for name, seconds, seed in (("a", 0.5, 1), ("short", 0.15, 2), ("c", 0.6, 3)):
        assert run([*synth, "--out-dir", tmp_path / name,
                    "--gesture-seconds", seconds, "--seed", seed]) == 0
    _write_annotated_csv(tmp_path / "c.csv", dio.read_recording(tmp_path / "c" / "subject01.semg"))
    inputs = ["a/subject01.semg", "short/subject01.semg", "c.csv"]
    proc = _run_module(["preprocess", *inputs, "--out", "s.sseg", "--stride-ms", 100], tmp_path)
    assert proc.returncode == 0, proc.stderr

    recs = [dio.read_recording(tmp_path / path, subject=i)
            for i, path in enumerate(inputs[:2], start=1)]
    recs.append(dio.read_annotated_csv(tmp_path / inputs[2], 2000.0, subject=3))
    with pytest.warns(UserWarning, match="no segments emitted"):
        parts = [signal.segment(r.with_data(signal.preprocess(r.data)), 200, 100)
                 for r in recs]
    dio.write_segments(tmp_path / "whole.sseg", *parts)
    assert (tmp_path / "s.sseg").read_bytes() == (tmp_path / "whole.sseg").read_bytes()

    labels = np.concatenate([p.labels for p in parts])
    classes, counts = np.unique(labels, return_counts=True)
    assert proc.stdout == f"segments=s.sseg count={len(labels)} classes={len(classes)}\n"
    assert proc.stderr.splitlines() == [
        f"{inputs[0]}: {len(parts[0])} segments from subject 1",
        "warning: window of 400 samples exceeds every active gesture span; "
        "no segments emitted",
        f"{inputs[1]}: 0 segments from subject 2",
        f"{inputs[2]}: {len(parts[2])} segments from subject 3",
        *(f"  class {cls}: {count} segments" for cls, count in zip(classes, counts)),
    ]


def _counting_preprocess(monkeypatch) -> list:
    """Count the recordings conditioned from here on."""
    calls, conditioned = [], signal.preprocess
    monkeypatch.setattr(signal, "preprocess",
                        lambda *args, **kw: calls.append(1) or conditioned(*args, **kw))
    return calls


def test_preprocess_refuses_in_input_order_and_keeps_the_old_file(
    tmp_path, capsys, monkeypatch
):
    assert run(["synth", "--out-dir", tmp_path / "raw", "--subjects", 2, "--num-classes", 2,
                "--reps", 2, "--channels", 2, "--gesture-seconds", 0.3]) == 0
    good, other = sorted((tmp_path / "raw").iterdir())
    raw = bytearray(other.read_bytes())
    at = array_offset(bytes(raw), "samples") + 4 * 7  # sample 7 of ch1
    raw[at : at + 4] = np.array([np.nan], dtype="<f4").tobytes()
    nonfinite, junk = tmp_path / "nonfinite.semg", tmp_path / "junk.semg"
    nonfinite.write_bytes(bytes(raw))
    junk.write_bytes(b"not a recording")
    out = tmp_path / "out.sseg"
    out.write_bytes(b"old segments")
    calls = _counting_preprocess(monkeypatch)
    capsys.readouterr()
    code = run(["preprocess", good, nonfinite, junk, "--out", out])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    note, line = captured.err.splitlines()
    assert note.startswith(f"{good}: ") and line.startswith("error: ")
    assert line == f"error: {nonfinite}: sample 7 of channel ch1 is not finite (nan)"
    assert str(junk) not in captured.err
    assert calls == []  # refused before any recording was conditioned
    assert out.read_bytes() == b"old segments"
    assert not list(tmp_path.glob("*.tmp"))


def test_preprocess_refuses_an_empty_recording_before_reading_on(tmp_path, capsys):
    # conditioning refuses it; the first pass does, ahead of the next input
    empty, junk = tmp_path / "empty.semg", tmp_path / "junk.semg"
    dio.write_recording(empty, dio.Recording(np.zeros((2, 0), dtype=np.float32), 2000.0,
                                             np.zeros(0), np.zeros(0)))
    junk.write_bytes(b"not a recording")
    line = assert_one_error_line(
        run(["preprocess", empty, junk, "--out", tmp_path / "x.sseg"]), capsys.readouterr()
    )
    assert line == f"error: {empty}: cannot filter an empty series"


@pytest.mark.parametrize("change", [
    lambda rec: dataclasses.replace(rec, data=rec.data[:1]),
    lambda rec: dataclasses.replace(rec, sample_rate_hz=1000.0),
], ids=["channels", "rate"])
def test_preprocess_refuses_disagreeing_inputs_before_writing(
    tmp_path, capsys, monkeypatch, change
):
    (rec,) = dio.generate_synthetic(1, classes=2, reps=2, channels=2, gesture_seconds=0.5,
                                    rest_seconds=0.1)
    inputs = [tmp_path / "a.semg", tmp_path / "b.semg"]
    recs = [rec, change(rec)]
    for path, r in zip(inputs, recs):
        dio.write_recording(path, r)
    parts = [signal.segment(r.with_data(signal.preprocess(
        r.data, signal.FilterParams(sample_rate_hz=r.sample_rate_hz))), 200) for r in recs]
    with pytest.raises(dio.DataError) as refused:
        dio.write_segments(tmp_path / "whole.sseg", *parts)
    out = tmp_path / "out.sseg"
    out.write_bytes(b"old segments")
    calls = _counting_preprocess(monkeypatch)
    code = run(["preprocess", *inputs, "--out", out])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == f"error: {refused.value}"
    assert calls == []
    assert out.read_bytes() == b"old segments"
    assert not list(tmp_path.glob("*.tmp"))


def test_preprocess_refuses_an_input_that_shrinks_between_passes(
    pipeline, tmp_path, capsys, monkeypatch
):
    reads, read = [], dio.read_recording

    def read_shorter_the_second_time(path, subject=0):
        rec = read(path, subject)
        reads.append(path)
        if len(reads) == 1:
            return rec
        half = rec.num_samples // 2
        return dataclasses.replace(rec, data=rec.data[:, :half],
                                   gesture=rec.gesture[:half], repetition=rec.repetition[:half])

    monkeypatch.setattr(dio, "read_recording", read_shorter_the_second_time)
    out = tmp_path / "out.sseg"
    out.write_bytes(b"old segments")
    path = pipeline["inputs"][0]
    code = run(["preprocess", path, "--out", out])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    t = read(path).num_samples
    assert captured.err.splitlines()[-1] == (
        f"error: {path}: changed while being read: (12, {t}) samples, then (12, {t // 2})"
    )
    assert out.read_bytes() == b"old segments"
    assert not list(tmp_path.glob("*.tmp"))


def test_preprocess_over_the_file_size_limit_names_its_output(pipeline, tmp_path):
    # the limit is set in the child only; its 1.4 MB segment file passes it
    out = tmp_path / "out.sseg"
    out.write_bytes(b"old segments")
    limit = 256 * 1024
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "emgtcn", "preprocess", *pipeline["inputs"], "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
    )
    assert proc.returncode == 4 and proc.stdout == "", proc.stderr
    lines = proc.stderr.splitlines()
    too_large = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
    assert lines[-1] == f"file error: {too_large}: {str(out)!r}"
    assert [ln for ln in lines if ln.startswith(("file error", "error", "Traceback"))] == [
        lines[-1]]
    assert out.read_bytes() == b"old segments"
    assert os.listdir(tmp_path) == ["out.sseg"]


def test_preprocess_names_an_input_that_vanishes_between_passes(
    pipeline, tmp_path, capsys, monkeypatch
):
    # an error while the windows are produced is the input's, not the output's
    path = tmp_path / "in.semg"
    shutil.copyfile(pipeline["inputs"][0], path)
    reads, read = [], dio.read_recording

    def vanish_before_the_second_read(path, subject=0):
        reads.append(path)
        if len(reads) == 2:
            os.remove(path)
        return read(path, subject)

    monkeypatch.setattr(dio, "read_recording", vanish_before_the_second_read)
    out = tmp_path / "out.sseg"
    out.write_bytes(b"old segments")
    code = run(["preprocess", path, "--out", out])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"file error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(path)!r}"
    )
    assert out.read_bytes() == b"old segments"
    assert os.listdir(tmp_path) == ["out.sseg"]


def test_peak_rss_tool_reports_one_line(tmp_path):
    tool = Path(__file__).resolve().parent.parent / "tools" / "peak_rss.py"
    proc = subprocess.run(
        [sys.executable, str(tool), "params", "--bogus"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr  # the command's own exit code
    first, last = proc.stderr.splitlines()
    assert "--bogus" in first
    assert re.fullmatch(
        r"exit=2 peak_rss_mb=\d+\.\d cpu_s=\d+\.\d\d wall_s=\d+\.\d\d minflt=\d+", last
    ), last


def test_preprocess_takes_a_window_no_model_could_patch(pipeline, tmp_path):
    # 1 ms is two samples at 2 kHz: not 10 patches, but a valid window
    assert run([
        "preprocess", pipeline["inputs"][0], "--out", tmp_path / "x.sseg",
        "--window-ms", 1,
    ]) == 0


def test_synth_rate_needs_no_filter_cutoff(tmp_path, capsys):
    # 800 Hz is below twice the 450 Hz cutoff; synth builds no filter
    assert run([
        "synth", "--out-dir", tmp_path / "s", "--subjects", 1,
        "--num-classes", 2, "--reps", 1, "--gesture-seconds", 0.2,
        "--sample-rate-hz", 800,
    ]) == 0
    rec = dio.read_recording(tmp_path / "s" / "subject01.semg")
    assert rec.sample_rate_hz == 800.0


def test_non_finite_sample_rate_exits_2(tmp_path, capsys):
    (rec,) = dio.generate_synthetic(1, classes=2, reps=1, gesture_seconds=0.2)
    good = tmp_path / "good.semg"
    dio.write_recording(good, rec)
    for rate in ("inf", "nan"):
        semg = tmp_path / f"{rate}.semg"
        semg.write_bytes(with_meta(good.read_bytes(), sample_rate_hz=float(rate)))
        for argv in (
            ["synth", "--out-dir", tmp_path / "s", "--sample-rate-hz", rate],
            ["params", "--sample-rate-hz", rate],
            ["preprocess", semg, "--out", tmp_path / "x.sseg"],
        ):
            assert run(argv) == 2, (argv, rate)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.strip().splitlines()) == 1


# (subcommand, flag) pairs the subcommand never reads, so refuses
UNREAD_FLAGS = [
    *(("preprocess", f) for f in (
        "--num-patches", "--model-dim", "--kernel-size", "--num-classes",
        "--seed",
    )),
    *(("train", f) for f in (
        "--window-ms", "--stride-ms", "--cutoff-hz", "--mu", "--sample-rate-hz",
    )),
    *(("eval", f) for f in (
        "--window-ms", "--stride-ms", "--num-patches", "--model-dim",
        "--kernel-size", "--num-classes", "--cutoff-hz", "--mu",
        "--sample-rate-hz", "--seed",
    )),
    *(("params", f) for f in ("--stride-ms", "--cutoff-hz", "--mu", "--seed")),
    *(("synth", f) for f in (
        "--num-patches", "--model-dim", "--kernel-size", "--cutoff-hz", "--mu",
    )),
]


def required_args(command, tmp_path):
    return {
        "preprocess": ["preprocess", tmp_path / "a.semg", "--out", tmp_path / "x.sseg"],
        "train": ["train", tmp_path / "s.sseg", "--checkpoint", tmp_path / "m.ckpt",
                  "--trace", tmp_path / "t.csv"],
        "eval": ["eval", tmp_path / "m.ckpt", tmp_path / "s.sseg",
                 "--out-dir", tmp_path / "r"],
        "params": ["params"],
        "synth": ["synth", "--out-dir", tmp_path / "raw"],
    }[command]


def test_unread_flags_exit_2(tmp_path, capsys):
    assert len(UNREAD_FLAGS) == 29
    for command, flag in UNREAD_FLAGS:
        code = run([*required_args(command, tmp_path), flag, 1])
        captured = capsys.readouterr()
        assert code == 2, (command, flag)
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and flag in lines[0], (command, flag, lines)
    assert list(tmp_path.iterdir()) == []


def test_usage_error_is_one_line(tmp_path, capsys):
    assert run(["params", "--bogus", 1]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and "--bogus" in lines[0]


def test_abbreviated_flag_exits_2(tmp_path, capsys):
    # without allow_abbrev=False argparse would run this as --epochs 3
    argv = ["train", tmp_path / "s.sseg", "--checkpoint", tmp_path / "a",
            "--trace", tmp_path / "b", "--ep", 3]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and "--ep" in lines[0]
    assert list(tmp_path.iterdir()) == []


def test_synth_bad_span_seconds_exit_2(tmp_path, capsys):
    for flag, value in (("--gesture-seconds", "inf"), ("--rest-seconds", "nan"),
                        ("--rest-seconds", "-0.5")):
        assert run(["synth", "--out-dir", tmp_path / "s", flag, value]) == 2, flag
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and "span" in lines[0], (flag, value, lines)
    assert list(tmp_path.iterdir()) == []


# each stays a few samples long, so no mis-ordered check can allocate much
@pytest.mark.parametrize("argv, words", [
    (["--channels", -1], "channel"),
    (["--channels", 0], "channel"),
    (["--num-classes", 70000], "65535"),
    (["--sample-rate-hz", 1e300], "numpy can index"),
    (["--sample-rate-hz", 1e308, "--gesture-seconds", 10], "numpy can index"),
    (["--num-classes", 60], "at most 51 classes fit"),
    (["--num-classes", 2, "--sample-rate-hz", 100], "at most 0 classes fit"),
])
def test_synth_output_it_cannot_write_exits_2(tmp_path, capsys, argv, words):
    out = tmp_path / "s"
    code = run([
        "synth", "--out-dir", out, "--subjects", 1, "--reps", 1,
        "--gesture-seconds", 0.001, "--rest-seconds", 0, *argv,
    ])
    line = assert_one_error_line(code, capsys.readouterr())
    assert words in line, line
    assert not out.exists()


def test_synth_beyond_numpy_names_the_samples_of_a_subject(tmp_path, capsys):
    out = tmp_path / "s"
    code = run([
        "synth", "--out-dir", out, "--subjects", 1, "--num-classes", 2, "--reps", 1,
        "--channels", 1, "--gesture-seconds", 0.001, "--rest-seconds", 0,
        "--sample-rate-hz", 1e300,
    ])
    line = assert_one_error_line(code, capsys.readouterr())
    assert line == "error: 2e+297 samples of a subject are beyond what numpy can index"


def test_synth_out_of_memory_in_a_worker_exits_2(tmp_path, monkeypatch, capsys):
    empty = np.empty

    def empty_in_main_thread(*args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            return empty(*args, **kwargs)
        raise MemoryError("cannot allocate the wave")

    monkeypatch.setattr(np, "empty", empty_in_main_thread)
    out = tmp_path / "s"
    code = run([
        "synth", "--out-dir", out, "--subjects", 3, "--num-classes", 2, "--reps", 1,
        "--gesture-seconds", 0.02, "--rest-seconds", 0,
    ])
    line = assert_one_error_line(code, capsys.readouterr())
    assert line == "error: out of memory: cannot allocate the wave", line
    assert not out.exists()


@pytest.mark.parametrize("cores", [1, 3])
def test_synth_failure_at_subject_2_keeps_subject_1_whole(
    tmp_path, monkeypatch, capsys, cores
):
    # subject 1 is written as soon as it is ready; subject 2's generator
    # fails, so the run exits 2 with subject01.semg whole and no temporary
    small = ["--subjects", 3, "--num-classes", 2, "--reps", 1,
             "--gesture-seconds", 0.02, "--rest-seconds", 0]
    assert run(["synth", "--out-dir", tmp_path / "whole", *small]) == 0
    capsys.readouterr()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    seed_sequence = np.random.SeedSequence

    def failing(entropy, *args, **kwargs):  # generate_synthetic seeds subject 2 with index 1
        if entropy == (0, 5150, 1):
            raise MemoryError("cannot allocate subject 2")
        return seed_sequence(entropy, *args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", failing)
    out = tmp_path / "s"
    code = run(["synth", "--out-dir", out, *small])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    first = out / "subject01.semg"
    assert captured.err.splitlines() == [
        f"wrote {first} (80 samples)",
        "error: out of memory: cannot allocate subject 2",
    ]
    assert os.listdir(out) == ["subject01.semg"]
    assert first.read_bytes() == (tmp_path / "whole" / "subject01.semg").read_bytes()


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(b"\xff\xfe{\x00}\x00")  # UTF-16 with a byte order mark
    line = assert_one_error_line(run(["params", "--config", cfg]), capsys.readouterr())
    assert f"{cfg}: not valid JSON" in line, line


def test_config_that_names_a_key_twice_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"window_ms": 300, "window_ms": 200}')
    line = assert_one_error_line(run(["params", "--config", cfg]), capsys.readouterr())
    assert line == f"error: {cfg}: not valid JSON (key 'window_ms' appears twice)", line


def test_preprocess_csv_that_is_not_utf8_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "rec.csv"
    csv_path.write_bytes(b"ch1,gesture,repetition\n0.1,0,0\n\xe90.2,1,1\n")
    out = tmp_path / "x.sseg"
    line = assert_one_error_line(
        run(["preprocess", csv_path, "--out", out]), capsys.readouterr()
    )
    assert f"{csv_path}: not UTF-8" in line, line
    assert not out.exists()


@pytest.mark.parametrize("where, line_no", [("header", 1), ("row", 3)])
def test_preprocess_csv_field_beyond_the_csv_limit_exits_2(
    tmp_path, capsys, where, line_no
):
    long_cell = "1" * (csv.field_size_limit() + 1)
    rows = ["ch1,gesture,repetition", "0.1,0,0", "0.2,1,1"]
    rows[line_no - 1] = (
        f"ch{long_cell},gesture,repetition" if where == "header" else f"{long_cell},1,1"
    )
    csv_path = tmp_path / "big.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "x.sseg"
    line = assert_one_error_line(
        run(["preprocess", csv_path, "--out", out]), capsys.readouterr()
    )
    assert f"{csv_path}:{line_no}: field larger than field limit" in line, line
    assert not out.exists()


def test_config_nested_beyond_the_recursion_limit_exits_2(tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100_000)
    line = assert_one_error_line(run(["params", "--config", cfg]), capsys.readouterr())
    assert f"{cfg}: not valid JSON" in line and "recursion" in line, line


@pytest.mark.parametrize("command, flag, words", [
    ("params", "--window-ms", "window_ms=1000"),
    ("preprocess", "--stride-ms", "stride_ms=1000"),
    ("synth", "--channels", "numpy can index"),
], ids=["params-window-ms", "preprocess-stride-ms", "synth-channels"])
def test_integer_setting_beyond_any_float_exits_2(
    pipeline, tmp_path, capsys, command, flag, words
):
    out = tmp_path / "out"
    argv = {
        "params": ["params"],
        "preprocess": ["preprocess", pipeline["inputs"][0], "--out", out],
        "synth": ["synth", "--out-dir", out],
    }[command]
    code = run([*argv, flag, 10**400])  # float(10**400) overflows
    line = assert_one_error_line(code, capsys.readouterr())
    assert words in line, line
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--window-ms", "--stride-ms"])
def test_bad_duration_refused_before_conditioning(
    pipeline, tmp_path, capsys, monkeypatch, flag
):
    def conditioned(*args, **kwargs):
        raise AssertionError("a recording was conditioned before its durations were checked")

    monkeypatch.setattr(signal, "preprocess", conditioned)
    path, out = pipeline["inputs"][0], tmp_path / "x.sseg"
    line = assert_one_error_line(
        run(["preprocess", path, "--out", out, flag, 0]), capsys.readouterr()
    )
    name = flag[2:].replace("-", "_")
    assert line == (
        f"error: {path}: {name}=0 is not a whole positive number of samples at 2000.0 Hz"
    ), line
    assert not out.exists()


@pytest.mark.parametrize("rate, argv, words", [
    (2000.0, ["--window-ms", 5 * 10**9], "window_ms=5000000000 is 1e+10 samples"),
    (2000.0, ["--stride-ms", 10**20], f"stride_ms={10**20} is 2e+20 samples"),
    (1e300, [], "window_ms=200 is 2e+299 samples at 1e+300 Hz"),
    (2000.0 * 2**33, ["--window-ms", 1], "window_ms=1 is 1.71799e+10 samples"),
], ids=["window-ms", "stride-ms", "header-rate", "window-samples"])
def test_duration_beyond_the_segment_format_exits_2(
    pipeline, tmp_path, capsys, rate, argv, words
):
    # a duration or sample count of 2**32 or more is far beyond any real
    # window (2**32 ms is 50 days), so it is refused as a mistyped setting
    path, out = tmp_path / "rec.semg", tmp_path / "x.sseg"
    rec = dio.read_recording(pipeline["inputs"][0])
    dio.write_recording(path, dataclasses.replace(rec, sample_rate_hz=rate))
    line = assert_one_error_line(
        run(["preprocess", path, "--out", out, *argv]), capsys.readouterr()
    )
    assert f"error: {path}: {words}" in line and "below 2**32" in line, line
    assert not out.exists()


@pytest.mark.parametrize("window_ms, rate, words", [
    (0, 2000.0, "window_ms=0 is not a whole positive number of samples at 2000.0 Hz"),
    (200, 999.0, "window_ms=200 is not a whole positive number of samples at 999.0 Hz"),
    (3 * 10**9, 2000.0, "window_ms=3000000000 is 6e+09 samples at 2000.0 Hz; a "
                        "duration and its sample count must each be below 2**32"),
], ids=["zero", "not-whole", "2**32-samples"])
def test_model_params_and_preprocess_refuse_a_window_alike(
    pipeline, tmp_path, capsys, window_ms, rate, words
):
    with pytest.raises(ConfigError) as err:
        derive_config(window_ms, 10, 12, sample_rate_hz=rate)
    assert str(err.value) == words
    line = assert_one_error_line(
        run(["params", "--window-ms", window_ms, "--sample-rate-hz", rate]),
        capsys.readouterr(),
    )
    assert line == f"error: {words}", line
    path, out = tmp_path / "rec.semg", tmp_path / "x.sseg"
    rec = dio.read_recording(pipeline["inputs"][0])
    dio.write_recording(path, dataclasses.replace(rec, sample_rate_hz=rate))
    line = assert_one_error_line(
        run(["preprocess", path, "--out", out, "--window-ms", window_ms]),
        capsys.readouterr(),
    )
    assert line == f"error: {path}: {words}", line
    assert not out.exists()


def test_module_entry_point_error_is_one_line(tmp_path):
    # `python -m emgtcn` runs the CLI without the installed script and
    # without runpy's "found in sys.modules" warning ahead of the message
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "emgtcn", "synth", "--out-dir", str(tmp_path / "x"),
         "--rest-seconds", "nan"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "span" in lines[0], lines
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["params"],
    ["synth", "--out-dir", "raw", "--subjects", 2, "--num-classes", 2, "--reps", 1,
     "--gesture-seconds", 0.1, "--rest-seconds", 0],
], ids=["params", "synth"])
def test_closed_stdout_is_one_file_error_naming_it(tmp_path, argv, unbuffered):
    # stdout is a pipe whose reader has gone before the key=value line is
    # printed: the command's work stands, and exit 4 names '<stdout>' once,
    # with no "Exception ignored" from the flush at exit
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "emgtcn", *map(str, argv)], cwd=tmp_path, env=env,
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 4, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[-1] == "file error: [Errno 32] Broken pipe: '<stdout>'", lines
    assert not any(word in line for line in lines[:-1]
                   for word in ("error", "Error", "Exception")), lines
    if argv[0] == "synth":
        assert run([*argv[:2], tmp_path / "whole", *argv[3:]]) == 0
        assert sorted(os.listdir(tmp_path / "raw")) == ["subject01.semg", "subject02.semg"]
        for name in os.listdir(tmp_path / "raw"):
            assert (tmp_path / "raw" / name).read_bytes() == (
                tmp_path / "whole" / name).read_bytes(), name


def _run_module(args, cwd):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "emgtcn", *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_library_warnings_are_one_stderr_line(tmp_path):
    assert _run_module([
        "synth", "--out-dir", "raw", "--subjects", 1, "--num-classes", 2,
        "--reps", 2, "--gesture-seconds", 0.3, "--rest-seconds", 0.1,
    ], tmp_path).returncode == 0
    assert _run_module(
        ["preprocess", "raw/subject01.semg", "--out", "s.sseg"], tmp_path
    ).returncode == 0
    for args, text in (
        (["train", "s.sseg", "--checkpoint", "m.ckpt", "--trace", "t.csv",
          "--epochs", 0, "--num-classes", 2, "--model-dim", 4,
          "--train-reps", 1, "--test-reps", 5], "outside both repetition sets"),
        (["preprocess", "raw/subject01.semg", "--out", "w.sseg",
          "--window-ms", 400], "exceeds every active gesture span"),
    ):
        proc = _run_module(args, tmp_path)
        assert proc.returncode == 0, proc.stderr
        warned = [ln for ln in proc.stderr.splitlines() if ln.startswith("warning: ")]
        assert len(warned) == 1 and text in warned[0], proc.stderr
        # no "<file>.py:<line>: UserWarning:" prefix, so no echoed source line
        assert ".py:" not in proc.stderr and "UserWarning" not in proc.stderr


def test_every_input_without_windows_warns(tmp_path):
    # one warning per input, though each comes from the same line of code
    # with the same text; run as a module, since pytest sets its own filters
    assert _run_module([
        "synth", "--out-dir", "raw", "--subjects", 3, "--num-classes", 2,
        "--reps", 1, "--gesture-seconds", 0.1,
    ], tmp_path).returncode == 0
    inputs = [f"raw/subject0{i}.semg" for i in (1, 2, 3)]
    proc = _run_module(["preprocess", *inputs, "--out", "s.sseg"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "segments=s.sseg count=0 classes=0\n"
    assert proc.stderr.splitlines() == [
        line for i, path in enumerate(inputs, start=1) for line in (
            "warning: window of 400 samples exceeds every active gesture span; "
            "no segments emitted",
            f"{path}: 0 segments from subject {i}",
        )
    ]


def test_help_lists_exactly_the_read_settings(capsys):
    settings = {
        "preprocess": "--config --window-ms --stride-ms --cutoff-hz --mu "
                      "--sample-rate-hz --out",
        "train": "--config --num-patches --model-dim --kernel-size "
                 "--num-classes --epochs --batch-size --lr --seed --train-reps "
                 "--test-reps --checkpoint --trace",
        "eval": "--config --train-reps --test-reps --out-dir --model-id",
        "params": "--config --window-ms --num-patches --model-dim "
                  "--kernel-size --num-classes --sample-rate-hz --channels",
        "synth": "--config --seed --num-classes --sample-rate-hz --out-dir "
                 "--subjects --reps --channels --gesture-seconds --rest-seconds",
        "compare": "--out",
    }
    for command, flags in settings.items():
        with pytest.raises(SystemExit) as exit_info:
            run([command, "--help"])
        assert exit_info.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == {"--help", *flags.split()}, command


def test_corrupt_checkpoint_exits_4(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage here")
    assert run(["eval", bad, pipeline["segs"], "--out-dir", tmp_path]) == 4
    assert capsys.readouterr().out == ""


def test_missing_input_exits_4(pipeline, tmp_path):
    assert run([
        "eval", tmp_path / "absent.ckpt", pipeline["segs"],
        "--out-dir", tmp_path,
    ]) == 4


def test_preprocess_into_a_missing_directory_exits_4(pipeline, tmp_path, capsys):
    out = tmp_path / "missing_dir" / "x.sseg"
    assert run(["preprocess", pipeline["inputs"][0], "--out", out]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [ln for ln in captured.err.splitlines() if "error" in ln]
    assert errors == [f"file error: [Errno 2] No such file or directory: '{out}'"]
    assert not out.parent.exists()


def test_eval_window_mismatch_exits_2(pipeline, tmp_path, capsys):
    narrow = tmp_path / "narrow.sseg"
    assert run([
        "preprocess", *pipeline["inputs"], "--out", narrow,
        "--window-ms", 100,
    ]) == 0
    capsys.readouterr()
    code = run(["eval", pipeline["ckpt"], narrow, "--out-dir", tmp_path])
    assert code == 2
    assert "200" in capsys.readouterr().err  # 100 ms at 2 kHz


def test_eval_of_misfit_windows_is_one_line_and_writes_nothing(
    pipeline, tmp_path, capsys
):
    narrow = tmp_path / "narrow.sseg"
    assert run([
        "preprocess", *pipeline["inputs"], "--out", narrow, "--window-ms", 100,
    ]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "reports"
    code = run(["eval", pipeline["ckpt"], narrow, "--out-dir", out_dir])
    line = assert_one_error_line(code, capsys.readouterr())
    assert "(12, 200)" in line and "(12, 400)" in line, line  # 100 vs 200 ms
    assert not out_dir.exists()


def _segments_with_label_4(pipeline, tmp_path):
    """The pipeline's segment file with every label raised by 2, so
    its labels run to 4 and no 3-class model can predict them."""
    segs = dio.read_segments(pipeline["segs"])
    path = tmp_path / "five.sseg"
    dio.write_segments(path, dataclasses.replace(segs, labels=segs.labels + 2))
    return path


def test_train_on_labels_beyond_num_classes_exits_2(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    code = run([
        "train", _segments_with_label_4(pipeline, tmp_path), "--checkpoint", ckpt,
        "--trace", tmp_path / "t.csv", "--epochs", 1, "--model-dim", 4,
        "--num-classes", 3,
    ])
    line = assert_one_error_line(code, capsys.readouterr())
    assert "label 4 does not fit 3 classes" in line, line
    assert not ckpt.exists()


def test_eval_of_labels_the_checkpoint_cannot_predict_exits_2(
    pipeline, tmp_path, capsys
):
    out_dir = tmp_path / "reports"
    code = run([
        "eval", pipeline["ckpt"], _segments_with_label_4(pipeline, tmp_path),
        "--out-dir", out_dir,
    ])
    line = assert_one_error_line(code, capsys.readouterr())
    assert "label 4 does not fit 3 classes" in line, line
    assert not out_dir.exists()


def test_eval_of_a_checkpoint_with_a_nan_weight_exits_4(pipeline, tmp_path, capsys):
    ckpt = tr.load_checkpoint(pipeline["ckpt"])
    ckpt.weights["head.w"][0, 0] = math.nan
    bad = tmp_path / "nan.ckpt"
    tr.save_checkpoint(bad, ckpt)
    out_dir = tmp_path / "reports"
    assert run(["eval", bad, pipeline["segs"], "--out-dir", out_dir]) == 4
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert captured.out == "" and len(lines) == 1, lines
    assert "'w/head.w' is not an array of finite numbers" in lines[0]
    assert not out_dir.exists()


def test_eval_of_a_checkpoint_claiming_a_larger_model_exits_4(pipeline, tmp_path, capsys):
    bad = tmp_path / "inflated.ckpt"
    raw = pipeline["ckpt"].read_bytes()
    head = head_of(raw)
    head["meta"]["config"]["model_dim"] = 1000
    bad.write_bytes(with_head(raw, head))
    out_dir = tmp_path / "reports"
    assert run(["eval", bad, pipeline["segs"], "--out-dir", out_dir]) == 4
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert captured.out == "" and len(lines) == 1, lines
    assert lines[0].startswith("file error: checkpoint entry 'w/patch.w' has shape "), lines
    assert lines[0].endswith(", 1000)"), lines
    assert not out_dir.exists()


@pytest.mark.parametrize("doctor, words", [
    (lambda c: c.m.pop("attn.wq"), "checkpoint is missing entry 'm/attn.wq'"),
    (lambda c: c.v.update({"no.such": np.ones(1)}),
     "checkpoint entry 'v/no.such' is not a model parameter"),
    (lambda c: c.m.update({"head.b": np.ones(1)}),
     "checkpoint entry 'm/head.b' has shape (1,), expected (3,)"),
    (lambda c: (c.m.clear(), c.v.clear()), "checkpoint is missing entry 'm/attn.bk'"),
], ids=["missing-m", "unknown-v", "misshaped-m", "no-moments"])
def test_eval_of_a_checkpoint_whose_moments_do_not_fit_its_model_exits_4(
    pipeline, tmp_path, capsys, doctor, words
):
    """A checkpoint that no run could resume from is refused by eval too."""
    ckpt = tr.load_checkpoint(pipeline["ckpt"])
    doctor(ckpt)
    bad = tmp_path / "bad.ckpt"
    tr.save_checkpoint(bad, ckpt)
    out_dir = tmp_path / "reports"
    assert run(["eval", bad, pipeline["segs"], "--out-dir", out_dir]) == 4
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert captured.out == "" and len(lines) == 1, lines
    assert words in lines[0], lines
    assert not out_dir.exists()


def test_eval_scores_subjects_across_a_chunk_boundary(tmp_path, capsys):
    # three held-out subjects of 150 windows: subject 2 straddles the
    # 256-window chunk boundary of eval's one scoring pass
    cfg = derive_config(20, 4, 4, channels=2, sample_rate_hz=2000.0, num_classes=3)
    model = AttentionTcn(cfg, seed=1)
    ckpt = tmp_path / "m.ckpt"
    tr.save_checkpoint(ckpt, tr.make_checkpoint(
        model, tr.Adam(model.named_parameters()), epoch=0, rng_state=None
    ))
    rng = np.random.default_rng(4)
    subjects = np.repeat([1, 2, 3], 150)
    segs = signal.SegmentSet(
        data=rng.normal(size=(450, 2, 40)), labels=rng.integers(0, 3, 450),
        subjects=subjects, repetitions=np.tile([2, 5], 225),
        sample_rate_hz=2000.0,
    )
    path = tmp_path / "held_out.sseg"
    dio.write_segments(path, segs)
    assert run(["eval", ckpt, path, "--out-dir", tmp_path / "r"]) == 0
    written = stats.read_per_subject(machine_line(capsys)["per_subject"])

    alone = tr.restore_model(tr.load_checkpoint(ckpt))
    expected = {}
    for s in (1, 2, 3):
        preds = np.argmax(alone.forward(segs.data[subjects == s]).data, axis=1)
        expected[s] = stats.accuracy(preds, segs.labels[subjects == s])
    assert written == expected
    assert len(set(expected.values())) > 1  # the subjects are told apart


def test_compare_happy_path(pipeline, tmp_path, capsys):
    paths = []
    for name, bump in (("alpha", 0.0), ("beta", 0.05), ("gamma", -0.1)):
        p = tmp_path / f"{name}_per_subject.csv"
        p.write_text(
            "subject,accuracy\n"
            + "".join(f"{s},{0.5 + bump + 0.01 * s}\n" for s in range(1, 7))
        )
        paths.append(p)
    out = tmp_path / "cmp.csv"
    assert run(["compare", *paths, "--out", out]) == 0
    fields = machine_line(capsys)
    assert fields["rows"] == "2"
    lines = out.read_text().splitlines()
    assert lines[0] == "model_a,model_b,W,p,band"
    assert [ln.split(",")[:2] for ln in lines[1:]] == [
        ["alpha", "beta"], ["alpha", "gamma"],
    ]
    for ln in lines[1:]:
        band, p_val = ln.split(",")[4], float(ln.split(",")[3])
        assert band == stats.significance_band(p_val)


def test_eval_model_id_that_breaks_the_csv_exits_2(pipeline, tmp_path, capsys):
    for model_id in ("x,y", 'x"y', "x\ny", "x\ry"):
        out_dir = tmp_path / "rep"
        code = run([
            "eval", pipeline["ckpt"], pipeline["segs"], "--out-dir", out_dir,
            "--model-id", model_id,
        ])
        line = assert_one_error_line(code, capsys.readouterr())
        assert "model id" in line, model_id
        assert not out_dir.exists()


def test_compare_report_name_that_breaks_the_csv_exits_2(tmp_path, capsys):
    rows = "subject,accuracy\n1,0.5\n2,0.6\n"
    a = tmp_path / "a_per_subject.csv"
    b = tmp_path / "b,c_per_subject.csv"
    a.write_text(rows)
    b.write_text(rows)
    out = tmp_path / "cmp.csv"
    line = assert_one_error_line(
        run(["compare", a, b, "--out", out]), capsys.readouterr()
    )
    assert "'b,c'" in line
    assert not out.exists()


def test_eval_model_id_with_a_path_separator_exits_2(pipeline, tmp_path, capsys):
    for model_id in ("../escape", "a/b", f"a{os.sep}b", f"a{os.altsep or '/'}b"):
        code = run([
            "eval", pipeline["ckpt"], pipeline["segs"],
            "--out-dir", tmp_path / "rep", "--model-id", model_id,
        ])
        line = assert_one_error_line(code, capsys.readouterr())
        assert "model id" in line and "path separator" in line, model_id
        assert list(tmp_path.iterdir()) == []


def test_compare_repeated_report_name_exits_2(tmp_path, capsys):
    a = tmp_path / "r1" / "m_per_subject.csv"
    b = tmp_path / "r2" / "m_per_subject.csv"
    for p in (a, b):
        p.parent.mkdir()
        p.write_text("subject,accuracy\n1,0.5\n2,0.6\n")
    out = tmp_path / "cmp.csv"
    line = assert_one_error_line(
        run(["compare", a, b, "--out", out]), capsys.readouterr()
    )
    assert "'m'" in line and str(a) in line and str(b) in line
    assert not out.exists()


def test_compare_bad_report_row_names_file_and_line(tmp_path, capsys):
    a = tmp_path / "a_per_subject.csv"
    b = tmp_path / "b_per_subject.csv"
    a.write_text("subject,accuracy\n1,0.5\n2,0.6\n")
    b.write_text("subject,accuracy\n1,0.5\n2,nan\n")
    line = assert_one_error_line(
        run(["compare", a, b, "--out", tmp_path / "c.csv"]), capsys.readouterr()
    )
    assert "b_per_subject.csv:3:" in line


def test_compare_report_that_is_not_utf8_exits_2(tmp_path, capsys):
    good = tmp_path / "a_per_subject.csv"
    good.write_text("subject,accuracy\n1,0.5\n2,0.6\n")
    bad = tmp_path / "b_per_subject.csv"
    bad.write_bytes(b"subject,accuracy\n1,0.5\n2,\xff0.6\n")
    out = tmp_path / "cmp.csv"
    line = assert_one_error_line(
        run(["compare", good, bad, "--out", out]), capsys.readouterr()
    )
    assert f"{bad}: not UTF-8" in line, line
    assert not out.exists()


def test_compare_subject_mismatch_exits_2(tmp_path, capsys):
    a = tmp_path / "a_per_subject.csv"
    b = tmp_path / "b_per_subject.csv"
    a.write_text("subject,accuracy\n1,0.5\n2,0.6\n")
    b.write_text("subject,accuracy\n1,0.5\n3,0.6\n")
    assert run(["compare", a, b, "--out", tmp_path / "c.csv"]) == 2
    err = capsys.readouterr().err
    assert "2" in err and "3" in err


def test_train_rerun_is_byte_identical(pipeline, tmp_path):
    outs = []
    for tag in ("one", "two"):
        ck, trc = tmp_path / f"{tag}.ckpt", tmp_path / f"{tag}.csv"
        assert run([
            "train", pipeline["segs"], "--checkpoint", ck, "--trace", trc,
            "--epochs", 2, "--model-dim", 4, "--num-classes", 3,
            "--seed", 5,
        ]) == 0
        outs.append((ck.read_bytes(), trc.read_bytes()))
    assert outs[0] == outs[1]


SMALL_SYNTH = ["--subjects", 2, "--num-classes", 3, "--reps", 2,
               "--gesture-seconds", 0.2, "--rest-seconds", 0.05]


def synth_bytes(out_dir):
    return [(out_dir / f"subject0{s}.semg").read_bytes() for s in (1, 2)]


def test_synth_config_seed_matches_flag(tmp_path):
    cfg, other = tmp_path / "run.json", tmp_path / "other.json"
    cfg.write_text(json.dumps({"seed": 11}))
    other.write_text(json.dumps({"seed": 99}))
    assert run(["synth", "--out-dir", tmp_path / "flag", *SMALL_SYNTH, "--seed", 11]) == 0
    assert run(["synth", "--out-dir", tmp_path / "cfg", *SMALL_SYNTH, "--config", cfg]) == 0
    assert run([  # the flag beats the file
        "synth", "--out-dir", tmp_path / "both", *SMALL_SYNTH, "--config", other,
        "--seed", 11,
    ]) == 0
    flag = synth_bytes(tmp_path / "flag")
    assert flag == synth_bytes(tmp_path / "cfg") == synth_bytes(tmp_path / "both")


def test_environment_does_not_set_the_seed(tmp_path, monkeypatch, capsys):
    assert run(["synth", "--out-dir", tmp_path / "flag", *SMALL_SYNTH, "--seed", 0]) == 0
    capsys.readouterr()
    monkeypatch.setenv("TCHGR_SEED", "11")
    assert run(["synth", "--out-dir", tmp_path / "env", *SMALL_SYNTH]) == 0
    assert machine_line(capsys)["seed"] == "0"
    assert synth_bytes(tmp_path / "flag") == synth_bytes(tmp_path / "env")


def test_zero_epochs_checkpoint_equals_initialization(pipeline, tmp_path):
    ck = tmp_path / "init.ckpt"
    assert run([
        "train", pipeline["segs"], "--checkpoint", ck,
        "--trace", tmp_path / "t.csv", "--epochs", 0,
        "--model-dim", 4, "--num-classes", 3, "--seed", 5,
    ]) == 0
    restored = tr.restore_model(tr.load_checkpoint(ck))
    fresh = AttentionTcn(restored.cfg, seed=5)
    for name, param in fresh.named_parameters().items():
        stored = restored.named_parameters()[name]
        assert param.data.tobytes() == stored.data.tobytes(), name


def test_largest_published_geometry_accepted(capsys):
    # 300 ms window, 15 patches of 40 samples, 16-dim embedding
    assert run([
        "params", "--window-ms", 300, "--num-patches", 15,
        "--model-dim", 16,
    ]) == 0
    fields = machine_line(capsys)
    embedding = 12 * 40 * 16 + 16
    attention = 4 * (16 * 16 + 16)
    blocks = 4 * 2 * (16 * 16 * 3 + 16)
    classifier = 15 * 16 * 17 + 17
    assert int(fields["embedding"]) == embedding
    assert int(fields["attention"]) == attention
    assert int(fields["blocks"]) == blocks
    assert int(fields["classifier"]) == classifier
    assert int(fields["total"]) == embedding + attention + blocks + classifier
    assert int(fields["baseline"]) == 1_102_801
    assert float(fields["ratio"]) > 10.0


def test_params_counts_a_config_without_building_it(capsys):
    # a 2e6 ms window gives a patch projection of 57.6M weights (460 MB
    # as float64), which a built model would allocate
    code, peak = _peak_bytes(["params", "--window-ms", 2_000_000])
    assert code == 0
    assert int(machine_line(capsys)["total"]) == 57_606_245
    assert peak < 5 * 10**6, peak


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"num_patches": 10, "model_dim": 12}))
    assert run([
        "params", "--config", cfg, "--window-ms", 200, "--model-dim", 4,
    ]) == 0
    fields = machine_line(capsys)
    # flag D=4 wins over the file's 12; file's N=10 still applies
    assert int(fields["attention"]) == 4 * (4 * 4 + 4)
    assert int(fields["classifier"]) == 10 * 4 * 17 + 17


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"learning_rate": 0.1}))
    assert run(["params", "--config", cfg]) == 2
    assert "learning_rate" in capsys.readouterr().err


def test_config_shuffle_is_an_unknown_key(pipeline, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"shuffle": False}))
    code = run([
        "train", pipeline["segs"], "--config", cfg,
        "--checkpoint", tmp_path / "m.ckpt", "--trace", tmp_path / "t.csv",
    ])
    line = assert_one_error_line(code, capsys.readouterr())
    assert "unknown config keys ['shuffle']" in line, line
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "key, value", [("epochs", "10"), ("train_repetitions", 5), ("seed", "zebra")]
)
def test_config_value_of_wrong_type_exits_2(pipeline, tmp_path, capsys, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    code = run([
        "train", pipeline["segs"], "--config", cfg,
        "--checkpoint", tmp_path / "m.ckpt", "--trace", tmp_path / "t.csv",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert key in captured.err


def test_malformed_config_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("{not json")
    assert run(["params", "--config", cfg]) == 2
    assert "JSON" in capsys.readouterr().err


def test_train_rep_filter_affects_segment_count(pipeline, tmp_path, capsys):
    ck, trc = tmp_path / "m.ckpt", tmp_path / "t.csv"
    with pytest.warns(UserWarning, match="outside both repetition sets"):
        code = run([
            "train", pipeline["segs"], "--checkpoint", ck, "--trace", trc,
            "--epochs", 0, "--model-dim", 4, "--num-classes", 3,
            "--train-reps", "1", "--test-reps", "2",
        ])
    assert code == 0
    err = capsys.readouterr().err
    assert "training on 6 segments" in err  # 2 subjects x 3 classes x rep 1


def test_overlapping_rep_split_exits_2(pipeline, tmp_path, capsys):
    assert run([
        "train", pipeline["segs"], "--checkpoint", tmp_path / "m.ckpt",
        "--trace", tmp_path / "t.csv", "--epochs", 1,
        "--model-dim", 4, "--num-classes", 3, "--train-reps", "1,2",
        "--test-reps", "2,5",
    ]) == 2
    assert capsys.readouterr().out == ""


def test_out_of_range_rep_exits_2(pipeline, tmp_path):
    assert run([
        "train", pipeline["segs"], "--checkpoint", tmp_path / "m.ckpt",
        "--trace", tmp_path / "t.csv", "--epochs", 1,
        "--model-dim", 4, "--num-classes", 3, "--train-reps", "1,7",
    ]) == 2


@pytest.mark.parametrize("field", ["last window value", "sample rate"])
def test_non_finite_segment_file_exits_2(pipeline, tmp_path, capsys, field):
    raw = bytearray(pipeline["segs"].read_bytes())
    if field == "last window value":
        at = array_offset(raw, "labels") - 8  # the windows end 8-aligned
        raw[at : at + 8] = np.array([np.nan], dtype="<f8").tobytes()
    else:
        raw = with_meta(raw, sample_rate_hz=-math.inf)
    bad = tmp_path / "bad.sseg"
    bad.write_bytes(bytes(raw))
    ck = tmp_path / "m.ckpt"
    for argv in (
        ["train", bad, "--checkpoint", ck, "--trace", tmp_path / "t.csv",
         "--epochs", 1, "--model-dim", 4, "--num-classes", 3],
        ["eval", pipeline["ckpt"], bad, "--out-dir", tmp_path / "reports"],
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "finite" in captured.err
    assert not ck.exists()


@pytest.mark.parametrize("command, doctor, words", [
    ("train", lambda meta: meta.update(window_ms=200),
     "segment file: meta must hold exactly sample_rate_hz (float)"),
    ("eval", lambda meta: meta["config"].update(patch_len=40),
     "checkpoint config is invalid: ModelConfig.__init__() got an unexpected "
     "keyword argument 'patch_len'"),
    ("eval", lambda meta: meta["opt"].update(beta1=0.9, beta2=0.999, eps=1e-08),
     "checkpoint entry 'opt' must hold the numbers ['lr', 'step'], got {'beta1': 0.9, "
     "'beta2': 0.999, 'eps': 1e-08, 'lr': 0.01, 'step': 2}"),
], ids=["sseg-window-ms", "tchg-patch-len", "tchg-adam-constants"])
def test_file_of_the_old_layout_exits_4(pipeline, tmp_path, capsys, command, doctor, words):
    # the meta the layout held before each fact was stored once: a
    # segment file's window_ms, a checkpoint config's patch_len and
    # Adam's betas and eps beside lr and step
    kind = "segs" if command == "train" else "ckpt"
    raw = pipeline[kind].read_bytes()
    head = head_of(raw)
    doctor(head["meta"])
    bad = tmp_path / f"old{pipeline[kind].suffix}"
    bad.write_bytes(with_head(raw, head))
    argv = {
        "train": ["train", bad, "--checkpoint", tmp_path / "m.ckpt",
                  "--trace", tmp_path / "t.csv", "--epochs", 1, "--model-dim", 4,
                  "--num-classes", 3],
        "eval": ["eval", bad, pipeline["segs"], "--out-dir", tmp_path / "reports"],
    }[command]
    assert run(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"file error: {words}\n"
    assert list(tmp_path.iterdir()) == [bad]


def test_head_nested_past_the_recursion_limit_exits_4(pipeline, tmp_path, capsys):
    deep = b"[" * 100_000 + b"]" * 100_000
    for magic, name in ((b"SEMG", "deep.semg"), (b"SSEG", "deep.sseg"), (b"TCHG", "deep.ckpt")):
        (tmp_path / name).write_bytes(file_bytes(magic, deep))
    for argv in (
        ["preprocess", tmp_path / "deep.semg", "--out", tmp_path / "x.sseg"],
        ["train", tmp_path / "deep.sseg", "--checkpoint", tmp_path / "m.ckpt",
         "--trace", tmp_path / "t.csv", "--epochs", 1, "--model-dim", 4, "--num-classes", 3],
        ["eval", tmp_path / "deep.ckpt", pipeline["segs"], "--out-dir", tmp_path / "r"],
        ["eval", pipeline["ckpt"], tmp_path / "deep.sseg", "--out-dir", tmp_path / "r"],
    ):
        code, captured = run(argv), capsys.readouterr()
        assert code == 4 and captured.out == "", argv
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("file error: "), lines
        assert "head is not JSON (maximum recursion depth" in lines[0], lines
    assert sorted(os.listdir(tmp_path)) == ["deep.ckpt", "deep.semg", "deep.sseg"]


def assert_one_error_line(code, captured):
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def test_negative_seed_exits_2(pipeline, tmp_path, capsys):
    synth = ["synth", "--out-dir", tmp_path / "s", "--subjects", 1,
             "--num-classes", 2, "--reps", 1, "--gesture-seconds", 0.2]
    train = ["train", pipeline["segs"], "--checkpoint", tmp_path / "m.ckpt",
             "--trace", tmp_path / "t.csv", "--epochs", 0, "--model-dim", 4,
             "--num-classes", 3]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": -3}))
    for argv, source in (
        ([*synth, "--seed", -1], "--seed"),
        ([*train, "--seed", -1], "--seed"),
        ([*train, "--config", cfg], f"{cfg}: seed"),
    ):
        line = assert_one_error_line(run(argv), capsys.readouterr())
        assert source in line and "non-negative" in line, line
    assert list(tmp_path.iterdir()) == [cfg]


def test_infinite_lr_exits_2(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    train = ["train", pipeline["segs"], "--checkpoint", ckpt,
             "--trace", tmp_path / "t.csv", "--epochs", 1, "--model-dim", 4,
             "--num-classes", 3]
    cfg = tmp_path / "run.json"
    cfg.write_text('{"lr": Infinity}')  # Python's json reads this as a float
    lines = []
    for argv in ([*train, "--lr", "inf"], [*train, "--config", cfg]):
        lines.append(assert_one_error_line(run(argv), capsys.readouterr()))
        assert "lr" in lines[-1] and "inf" in lines[-1], lines[-1]
        assert not ckpt.exists()
    assert lines[0] == lines[1]


def _tiny_csv(folder):
    """A one-channel CSV recording: 400 samples each of gestures 1 and 2,
    one window of the default 200 ms at the default 2000 Hz."""
    path = Path(folder) / "tiny.csv"
    rows = [f"{i % 7 / 10},{1 + i // 400},1" for i in range(800)]
    path.write_text("ch1,gesture,repetition\n" + "\n".join(rows) + "\n")
    return path


def test_cutoff_that_underflows_the_filter_design_exits_2(tmp_path, capsys):
    out = tmp_path / "x.sseg"
    code = run(["preprocess", _tiny_csv(tmp_path), "--out", out, "--cutoff-hz", "5e-324"])
    line = assert_one_error_line(code, capsys.readouterr())
    assert "cutoff_hz must lie in (0, 1000.0) (below Nyquist), got 5e-324" in line, line
    assert not out.exists()


@pytest.mark.parametrize("command, key, flag", [
    (command, key, flag)
    for key, flag, kind, _, commands, _ in cli._SETTINGS if kind == "number"
    for command in commands
])
@pytest.mark.parametrize("value", [0, 999, 1e-3, 10**30, 10**400, -10**400, math.nan, -0.0],
                         ids=["0", "999", "1e-3", "1e30", "1e400", "-1e400", "nan", "-0.0"])
def test_config_number_reads_as_its_flag(pipeline, tmp_path, capsys, command, key, flag,
                                         value):
    """A number from the file runs as the same text given to its flag:
    the same exit code, stdout and stderr. The ``=`` form lets argparse
    take a value that starts with a minus sign."""
    out, trace = tmp_path / "out", tmp_path / "t.csv"
    argv = {
        "preprocess": ["preprocess", _tiny_csv(tmp_path), "--out", out],
        "train": ["train", pipeline["segs"], "--checkpoint", out, "--trace", trace,
                  "--epochs", 1, "--model-dim", 4, "--num-classes", 3],
        "params": ["params"],
        "synth": ["synth", "--out-dir", out, "--subjects", 1, "--reps", 1,
                  "--gesture-seconds", 0.02, "--rest-seconds", 0],
    }[command]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    results = []
    for source in (["--config", cfg], [f"{flag}={json.dumps(value)}"]):
        code = run([*argv, *source])
        results.append((code, *capsys.readouterr()))
        for path in (out, trace):
            if path.is_dir():
                shutil.rmtree(path)
            path.unlink(missing_ok=True)
    assert results[0] == results[1]


def test_out_of_memory_exits_2(tmp_path, capsys):
    # a 1.39 EiB time axis for one 1e14-second span, beyond any address
    # space, so numpy refuses it at once on any host
    code = run([
        "synth", "--out-dir", tmp_path / "s", "--subjects", 1, "--num-classes", 2,
        "--reps", 1, "--channels", 1, "--gesture-seconds", 1e14, "--rest-seconds", 0,
    ])
    line = assert_one_error_line(code, capsys.readouterr())
    assert "memory" in line


@pytest.mark.parametrize("argv", [
    ["--model-dim", 10**21],
    # 2e9 samples, below 2**32, in one patch of D = 1e8
    ["--window-ms", 10**9, "--num-patches", 1, "--model-dim", 10**8],
])
def test_geometry_numpy_cannot_index_exits_2(argv, capsys):
    line = assert_one_error_line(run(["params", *argv]), capsys.readouterr())
    assert "largest weight" in line, line


# magnitudes stay small, so no draw allocates more than a few MB, save
# a few integers beyond uint64 and beyond any float, which are refused
# before anything of their size is allocated; negative integers get a
# strategy of their own, as Hypothesis rarely draws them from a range
# that spans zero
_JSON_INT = st.integers(0, 32) | st.integers(-5, -1) | st.sampled_from(
    [2**64, 10**30, 10**400, -10**400]
)
_JSON_NUMBER = _JSON_INT | st.floats(-5, 32) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 5e-324]
)
_JSON_REPS = st.lists(_JSON_INT, max_size=4)
_JSON_VALUES = st.one_of(
    _JSON_NUMBER, st.booleans(), st.text(max_size=3), st.none(), _JSON_REPS
)
# every config key with the values of its JSON kind
_SETTING_VALUES = {
    **dict.fromkeys(
        ["window_ms", "stride_ms", "num_patches", "model_dim", "kernel_size",
         "num_classes", "batch_size", "epochs", "seed"], _JSON_INT,
    ),
    **dict.fromkeys(["mu", "cutoff_hz", "sample_rate_hz", "lr"], _JSON_NUMBER),
    "train_repetitions": _JSON_REPS,
    "test_repetitions": _JSON_REPS,
}


def _config_of(keys):
    """A JSON object over ``keys``: each setting's value fits its kind in
    half the draws, so runs get past the type check to the subcommand."""
    return st.fixed_dictionaries({
        key: st.booleans().flatmap(
            lambda fit, key=key: _SETTING_VALUES.get(key, _JSON_VALUES) if fit
            else _JSON_VALUES
        )
        for key in keys
    })


# the config keys plus one that no subcommand knows, at most four a file
_CONFIGS = st.lists(
    st.sampled_from([*_SETTING_VALUES, "bogus"]), unique=True, max_size=4
).flatmap(_config_of)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(config=_CONFIGS)
def test_random_config_exits_0_or_2(pipeline, config):
    root = pipeline["root"] / "fuzz"
    root.mkdir(exist_ok=True)
    cfg = root / "run.json"
    cfg.write_text(json.dumps(config))
    for argv in (
        ["preprocess", _tiny_csv(root), "--out", root / "x.sseg"],
        ["params"],
        ["synth", "--out-dir", root / "raw", "--subjects", 1, "--reps", 1,
         "--gesture-seconds", 0.02, "--rest-seconds", 0],
        ["train", pipeline["segs"], "--checkpoint", root / "m.ckpt",
         "--trace", root / "t.csv", "--epochs", 0],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([*argv, "--config", cfg])
        assert code in (0, 2), (argv[0], config, code, err.getvalue())
        if code == 2:
            assert out.getvalue() == ""
            assert "Traceback" not in err.getvalue()
            lines = err.getvalue().strip().splitlines()
            assert lines[-1].startswith("error: "), (argv[0], config, lines)
            assert sum(ln.startswith("error:") for ln in lines) == 1


# -- outputs that name an input --------------------------------------------


def _files(folder):
    return {p.name: p.read_bytes() for p in Path(folder).iterdir()}


def _refused(capsys, argv, folder, *named):
    """Run ``argv``, which must exit 2 with one stderr line naming each of
    ``named`` and leave every file in ``folder`` as it was."""
    before = _files(folder)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and all(str(p) in lines[0] for p in named), lines
    assert _files(folder) == before


def test_preprocess_refuses_an_output_that_is_an_input(pipeline, tmp_path, capsys):
    rec, link = tmp_path / "x.semg", tmp_path / "link.sseg"
    rec.write_bytes(Path(pipeline["inputs"][0]).read_bytes())
    _refused(capsys, ["preprocess", rec, "--out", rec], tmp_path, rec)
    link.symlink_to(rec)
    _refused(capsys, ["preprocess", rec, "--out", link], tmp_path, rec, link)


def test_train_refuses_a_checkpoint_that_is_its_segment_file(pipeline, tmp_path, capsys):
    segs = tmp_path / "a.sseg"
    segs.write_bytes(pipeline["segs"].read_bytes())
    _refused(capsys, [
        "train", segs, "--checkpoint", segs, "--trace", tmp_path / "t.csv",
    ], tmp_path, segs)


def test_train_refuses_a_trace_that_is_its_checkpoint(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "o"
    ckpt.write_bytes(pipeline["ckpt"].read_bytes())
    _refused(capsys, [
        "train", pipeline["segs"], "--checkpoint", ckpt, "--trace", ckpt,
    ], tmp_path, ckpt)
    # neither exists yet: the real paths decide
    new = tmp_path / "new"
    _refused(capsys, [
        "train", pipeline["segs"], "--checkpoint", new,
        "--trace", tmp_path / "." / "new",
    ], tmp_path, new)


def test_compare_refuses_an_output_that_is_a_report(pipeline, tmp_path, capsys):
    a, b = tmp_path / "A.csv", tmp_path / "B.csv"
    a.write_bytes((pipeline["reports"] / "model_per_subject.csv").read_bytes())
    b.write_bytes(a.read_bytes())
    _refused(capsys, ["compare", a, b, "--out", a], tmp_path, a)


def test_train_checks_output_directories_before_it_trains(pipeline, tmp_path, capsys):
    ckpt, trace = tmp_path / "m.ckpt", tmp_path / "missing" / "t.csv"
    code = run([
        "train", pipeline["segs"], "--checkpoint", ckpt, "--trace", trace,
        "--epochs", 1, "--model-dim", 4, "--num-classes", 3,
    ])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"file error: [Errno 2] No such file or directory: '{trace}'"
    ]
    assert os.listdir(tmp_path) == []


def test_train_refuses_a_fifo_output_before_it_trains(pipeline, tmp_path, capsys):
    ckpt, fifo = tmp_path / "m.ckpt", tmp_path / "fifo"
    os.mkfifo(fifo)
    code = run(["train", pipeline["segs"], "--checkpoint", ckpt, "--trace", fifo])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"file error: [Errno 17] not a regular file: '{fifo}'"
    ]
    assert os.listdir(tmp_path) == ["fifo"] and fifo.is_fifo()


def test_eval_checks_its_reports_before_it_reads(pipeline, tmp_path, capsys):
    # a checkpoint trained into the report folder under a report's name
    rep = tmp_path / "rep"
    rep.mkdir()
    ckpt = rep / "a_summary.csv"
    ckpt.write_bytes(pipeline["ckpt"].read_bytes())
    argv = ["eval", ckpt, pipeline["segs"], "--out-dir", rep, "--model-id", "a"]
    _refused(capsys, argv, rep, ckpt)


def test_synth_checks_its_outputs_before_it_generates(tmp_path, monkeypatch, capsys):
    def generate(*args, **kwargs):
        raise AssertionError("subjects were generated before their outputs were checked")

    monkeypatch.setattr(dio, "generate_synthetic", generate)
    folder = tmp_path / "subject01.semg"
    folder.mkdir()
    code = run(["synth", "--out-dir", tmp_path, "--subjects", 2])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"file error: [Errno 17] not a regular file: '{folder}'"
    ]
    assert os.listdir(tmp_path) == ["subject01.semg"]


def test_non_finite_gradient_exits_3_and_writes_nothing(pipeline, tmp_path, capsys):
    ckpt, trace = tmp_path / "m.ckpt", tmp_path / "t.csv"
    with pytest.warns(RuntimeWarning, match="(overflow|invalid value) encountered"):
        code = run([
            "train", pipeline["segs"], "--checkpoint", ckpt, "--trace", trace,
            "--epochs", 1, "--lr", 1e30, "--model-dim", 4, "--num-classes", 3,
            "--batch-size", 8, "--seed", 0,
        ])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert lines[-1].startswith("numerical failure: non-finite gradient"), lines
    assert not ckpt.exists() and not trace.exists()


@pytest.mark.parametrize("argv, words", [
    (["compare", "a_per_subject.csv", "--out", "c.csv"], "need at least two"),
    (["eval", "m.ckpt", "s.sseg", "--out-dir", "r", "--train-reps", "1,x"],
     "repetition list must be integers, got '1,x'"),
    (["params", "--config", "list.json"], "list.json: top level must be an object"),
    (["params", "--num-classes", 1], "num_classes must be >= 2, got 1"),
], ids=["compare-one-report", "reps-not-integers", "config-list", "one-class"])
def test_documented_refusals_exit_2(tmp_path, monkeypatch, capsys, argv, words):
    monkeypatch.chdir(tmp_path)
    Path("list.json").write_text("[1]")
    line = assert_one_error_line(run(argv), capsys.readouterr())
    assert words in line, line
    assert os.listdir(tmp_path) == ["list.json"]


def _makedirs_error(path) -> str:
    """The line main() printed when ``os.makedirs(path)`` failed."""
    with pytest.raises(OSError) as err:
        os.makedirs(path)
    return f"file error: {err.value}"


@pytest.mark.parametrize("below", ["sub", os.path.join("a", "b"), "sub" + os.sep])
def test_synth_refuses_an_out_dir_under_a_file_before_it_generates(
    tmp_path, monkeypatch, capsys, below
):
    def generate(*args, **kwargs):
        raise AssertionError("subjects were generated before the folder was checked")

    monkeypatch.setattr(dio, "generate_synthetic", generate)
    (tmp_path / "x.sseg").write_bytes(b"")
    out_dir = os.path.join(tmp_path, "x.sseg", below)
    assert run(["synth", "--out-dir", out_dir, "--subjects", 2]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [_makedirs_error(out_dir)]
    assert "Not a directory" in captured.err
    assert os.listdir(tmp_path) == ["x.sseg"]


def test_eval_refuses_an_out_dir_under_a_file_before_it_scores(
    pipeline, tmp_path, monkeypatch, capsys
):
    def load(path):
        raise AssertionError("the checkpoint was read before the folder was checked")

    monkeypatch.setattr(tr, "load_checkpoint", load)
    (tmp_path / "x.sseg").write_bytes(b"")
    out_dir = os.path.join(tmp_path, "x.sseg", "sub")
    assert run(["eval", pipeline["ckpt"], pipeline["segs"], "--out-dir", out_dir]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [_makedirs_error(out_dir)]
    assert os.listdir(tmp_path) == ["x.sseg"]


def _open_error(path) -> str:
    """The line main() printed when ``open(path, "xb")`` failed."""
    with pytest.raises(OSError) as err:
        open(path, "xb")
    return f"file error: {err.value}"


@pytest.mark.parametrize("below", ["y.sseg", os.path.join("a", "y.sseg")])
@pytest.mark.parametrize("command", ["preprocess", "train"])
def test_an_output_path_through_a_file_is_refused_as_open_refuses_it(
    pipeline, tmp_path, capsys, command, below
):
    (tmp_path / "x.sseg").write_bytes(b"")
    out = os.path.join(tmp_path, "x.sseg", below)
    argv = {
        "preprocess": ["preprocess", pipeline["inputs"][0], "--out", out],
        "train": [
            "train", pipeline["segs"], "--checkpoint", tmp_path / "m.ckpt", "--trace", out,
            "--epochs", 1, "--model-dim", 4, "--num-classes", 3,
        ],
    }[command]
    assert run(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [_open_error(out)]
    assert "Not a directory" in captured.err
    assert os.listdir(tmp_path) == ["x.sseg"]
    assert (tmp_path / "x.sseg").read_bytes() == b""


@pytest.mark.parametrize("command", ["preprocess", "train", "eval"])
def test_a_bad_config_is_refused_before_a_bad_output_path(tmp_path, capsys, command):
    config = tmp_path / "c.json"
    config.write_text('{"nope": 1}')
    (tmp_path / "file").write_bytes(b"")
    missing = tmp_path / "missing" / "out"
    argv = {
        "preprocess": ["preprocess", "in.semg", "--out", missing],
        "train": ["train", "s.sseg", "--checkpoint", missing, "--trace", missing],
        "eval": ["eval", "m.ckpt", "s.sseg", "--out-dir", tmp_path / "file" / "sub"],
    }[command]
    line = assert_one_error_line(run([*argv, "--config", config]), capsys.readouterr())
    assert line == f"error: {config}: unknown config keys ['nope']"


def test_output_check_cost_grows_linearly_with_the_path_count(tmp_path, monkeypatch):
    calls = []

    def counted(real):
        def call(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(os, "stat", counted(os.stat))
    monkeypatch.setattr(os, "lstat", counted(os.lstat))

    def stat_calls(n):
        calls.clear()
        outputs = [os.path.join(tmp_path, f"subject{s:02d}.semg") for s in range(1, n + 1)]
        cli._check_outputs(outputs, [])
        return len(calls)

    small, large = stat_calls(300), stat_calls(600)
    assert 0 < small and large <= 2.5 * small, (small, large)
