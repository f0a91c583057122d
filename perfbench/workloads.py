"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup``
(repeated and timed by the runner), runs its unit of work in a closed
loop with one client in ``measure``, and makes the checks that need
extra work in ``verify``, after the measured interval. Only public
functions of the emgtcn modules are called, always through module
attributes, so the traced run sees every call.

``measure`` fills an ``Outcome``: the headline ``task_s`` and
``items_per_s`` (README.md says what each means per workload), timed
by the workload's clock in ``Outcome.clock`` (see clocks.py), a
``report`` of detailed metrics under their own names with unit and
sample count, the ``units`` of work done and the ``unit_root`` span
that per-layer times are normalised by, and exact counts in ``facts``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
import time

import numpy as np

from emgtcn import cli, data, model, signal, stats, train
from clocks import CpuClock, ScaledClock, WallClock

TARGET_ACC = 0.90
EPOCH_BUDGET = 60
MODEL_SEED = 0  # model init and shuffle seed, as in the release gate
CHUNK = 256  # held-out scoring chunk, as ``emgtcn eval`` uses
B1_SLICE = 170  # batch-1 requests per separately scaled interval
CLASSES = 17
BATCH = 32
LR = 1e-4
TRAIN_CONFIGS = {"train_desk": (200, 10, 12), "train_wide": (300, 15, 16)}
INFER_CONFIG = (200, 10, 12)
TRAIN_SUBJECTS = 4
INGEST_SUBJECTS = 8
INGEST_WINDOW_MS = 200
INGEST_STRIDE_MS = 100


class Outcome:
    """Operation counts, failed checks and measurements of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.task_s = None
        self.items_per_s = None
        self.report = {}
        self.facts = {"train.checkpoint_bytes": 0.0, "data.sseg_bytes": 0.0}
        self.digest = None
        self.units = 0
        self.unit_root = None
        self.clock = WallClock()
        # the benchmark's own checks inside ``measure``, on the clock and on the wall
        self.checking_s = 0.0
        self.checking_wall_s = 0.0
        self.after_first_unit = None  # called once, when the first unit ends

    def op(self, ok: bool, what: str):
        """Count one attempted operation; a failed check fails it."""
        self.attempted += 1
        self.check(ok, what)

    def check(self, ok: bool, what: str):
        """A run-level check; failing it fails the run."""
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def unit_done(self):
        if self.after_first_unit is not None:
            self.after_first_unit()
            self.after_first_unit = None

    @contextlib.contextmanager
    def checking(self):
        t0, w0 = self.clock.now(), time.perf_counter()
        try:
            yield
        finally:
            self.checking_s += self.clock.now() - t0
            self.checking_wall_s += time.perf_counter() - w0


def timing(samples, unit: str) -> dict:
    """Median plus the highest listed percentile with >= 10 samples beyond it."""
    n = len(samples)
    out = {"median": statistics.median(samples), "unit": unit, "n": n}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - pct) / 100.0 >= 10.0:
            out[f"p{pct:g}"] = float(np.percentile(samples, pct))
            break
    return out


def value(x, unit: str, n: int = 1) -> dict:
    return {"value": x, "unit": unit, "n": n}


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(memoryview(np.ascontiguousarray(a)).cast("B"))
    return h.hexdigest()


def _weights_digest(m) -> str:
    params = m.named_parameters()
    return _sha(*(params[k].data for k in sorted(params)))


def _corpus(seed: int, window_ms: int):
    recordings = data.generate_synthetic(TRAIN_SUBJECTS, classes=CLASSES, seed=seed)
    parts = [
        signal.segment(r.with_data(signal.preprocess(r.data)), window_ms=window_ms)
        for r in recordings
    ]
    return data.split(data.concat_segments(parts))


def _predict(m, windows: np.ndarray) -> np.ndarray:
    """Held-out scoring in chunks, the way ``emgtcn eval`` does it."""
    return np.concatenate([
        np.argmax(m.forward(windows[lo : lo + CHUNK]).data, axis=1)
        for lo in range(0, windows.shape[0], CHUNK)
    ])


def _finished(done: int, limit, deadline: float) -> bool:
    """``limit`` units when given, otherwise until the deadline."""
    return done >= limit if limit is not None else time.perf_counter() >= deadline


# -- training -------------------------------------------------------------


class TrainWorkload:
    """Train from scratch, one epoch per ``train.train`` call through the
    resume path, until held-out accuracy reaches the target; past the
    target, keep training until the deadline."""

    clock = ScaledClock

    def __init__(self, name: str, seed: int, workdir: str):
        self.seed = seed
        self.window_ms, patches, dim = TRAIN_CONFIGS[name]
        self.model_cfg = model.derive_config(self.window_ms, patches, dim, num_classes=CLASSES)

    def setup(self) -> str:
        self.train_set, self.test_set = _corpus(self.seed, self.window_ms)
        # warm-up: one step on a throwaway model
        warm = model.AttentionTcn(self.model_cfg, seed=MODEL_SEED)
        loss = train.cross_entropy(
            warm.forward(self.train_set.data[:BATCH]), self.train_set.labels[:BATCH]
        )
        loss.backward()
        return _sha(self.train_set.data, self.train_set.labels,
                    self.test_set.data, self.test_set.labels)

    def _fresh(self):
        m = model.AttentionTcn(self.model_cfg, seed=MODEL_SEED)
        return m, train.Adam(m.named_parameters(), lr=LR)

    def _cfg(self, epochs: int):
        return train.TrainConfig(epochs=epochs, batch_size=BATCH, lr=LR, seed=MODEL_SEED)

    def measure(self, out: "Outcome", deadline: float, limit=None):
        """``limit`` is unused: training always runs to the target."""
        m, opt = self._fresh()
        windows = len(self.train_set)
        state, to_target, wall_to_target, reached, acc = None, 0.0, 0.0, None, None
        epoch_s, wall_epoch_s = [], []
        self.snapshot = None
        for epoch in range(EPOCH_BUDGET):
            t0 = out.clock.now()
            result = train.train(m, self.train_set, self._cfg(epoch + 1), optimizer=opt,
                                 start_epoch=epoch, rng_state=state)
            wall = out.clock.now() - t0
            dt = wall * out.clock.factor()
            state = result.rng_state
            epoch_s.append(dt)
            wall_epoch_s.append(wall)
            out.op(bool(np.isfinite(result.losses).all()), f"epoch {epoch + 1}: loss not finite")
            if reached is None:
                to_target += dt
                wall_to_target += wall
                acc = stats.accuracy(_predict(m, self.test_set.data), self.test_set.labels)
                if acc >= TARGET_ACC:
                    reached = epoch + 1
                    with out.checking():
                        out.digest = _weights_digest(m)
            if epoch < 2:
                with out.checking():
                    self.snapshot = (epoch + 1, _weights_digest(m))
            out.unit_done()
            if reached is not None and time.perf_counter() >= deadline:
                break
        out.check(reached is not None,
                  f"held-out accuracy {acc} below {TARGET_ACC} after {EPOCH_BUDGET} epochs")
        per_s = [windows / s for s in epoch_s]
        out.task_s = to_target
        out.items_per_s = statistics.median(per_s)
        out.units = -(-windows // BATCH) * len(epoch_s)  # optimizer steps
        out.unit_root = "train.train"
        out.report.update({
            "time_to_target_s": value(to_target, "s"),
            "time_to_target_wall_s": value(wall_to_target, "s"),
            "epochs_to_target": value(reached or 0, "count"),
            "heldout_acc": value(acc, "fraction"),
            "train_windows_per_s": timing(per_s, "1/s"),
            "epoch_s": timing(epoch_s, "s"),
            "epoch_wall_s": timing(wall_epoch_s, "s"),
        })

    def verify(self, out: "Outcome"):
        """An uninterrupted run equals the epoch-by-epoch resumed one."""
        epochs, digest = self.snapshot
        m, opt = self._fresh()
        train.train(m, self.train_set, self._cfg(epochs), optimizer=opt)
        out.check(_weights_digest(m) == digest,
                  f"resumed training differs from an uninterrupted run at epoch {epochs}")


# -- inference ------------------------------------------------------------


def _same_arrays(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes() for k in a
    )


class InferWorkload:
    """Decode held-out windows at batch 1 with a restored checkpoint, then
    score the held-out set in chunks with two checkpoints and compare
    them with the paired signed-rank test."""

    clock = ScaledClock

    def __init__(self, name: str, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.window_ms, patches, dim = INFER_CONFIG
        self.model_cfg = model.derive_config(self.window_ms, patches, dim, num_classes=CLASSES)

    def setup(self) -> str:
        """Train two epochs, checkpointing after each; decode with the
        checkpoints restored from disk."""
        train_set, self.test_set = _corpus(self.seed, self.window_ms)
        m = model.AttentionTcn(self.model_cfg, seed=MODEL_SEED)
        opt = train.Adam(m.named_parameters(), lr=LR)
        self.models, self.round_trips, blobs = [], [], []
        state = None
        for epoch in range(2):
            cfg = train.TrainConfig(epochs=epoch + 1, batch_size=BATCH, lr=LR, seed=MODEL_SEED)
            state = train.train(m, train_set, cfg, optimizer=opt,
                                start_epoch=epoch, rng_state=state).rng_state
            ckpt = train.make_checkpoint(m, opt, epoch=epoch + 1, rng_state=state)
            path = os.path.join(self.workdir, f"model{epoch + 1}.ckpt")
            train.save_checkpoint(path, ckpt)
            loaded = train.load_checkpoint(path)
            restored = train.restore_model(loaded)
            self.models.append(restored)
            self.round_trips.append((path, ckpt, loaded, restored))
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        self.checkpoint_bytes = len(blobs[-1])
        return hashlib.sha256(b"".join(blobs)).hexdigest()

    def measure(self, out: "Outcome", deadline: float, limit=None):
        """``limit`` counts rounds: one batch-1 pass over the held-out
        set, chunked scoring with both checkpoints, one comparison."""
        test = self.test_set
        n = len(test)
        masks = [test.subjects == s for s in np.unique(test.subjects)]
        decoder = self.models[-1]
        latencies, pass_s, wall_pass_s, batch_per_s, compare_s = [], [], [], [], []
        first = None
        done = 0
        while True:
            # one closed-loop client: the next window goes once the last is decoded
            # the pass is timed in slices, each scaled on its own, so that
            # drift within a pass is tracked too
            preds = np.empty(n, dtype=np.int64)
            request_s = np.empty(n)
            wall, scaled = 0.0, 0.0
            for lo in range(0, n, B1_SLICE):
                hi = min(n, lo + B1_SLICE)
                t_slice = out.clock.now()
                for i in range(lo, hi):
                    t0 = out.clock.now()
                    preds[i] = np.argmax(decoder.forward(test.data[i]).data)
                    request_s[i] = out.clock.now() - t0
                t_slice = out.clock.now() - t_slice
                scale = out.clock.factor()
                request_s[lo:hi] *= scale
                wall += t_slice
                scaled += t_slice * scale
            wall_pass_s.append(wall)
            pass_s.append(scaled)
            latencies.extend(request_s)

            chunked, chunk_s = [], []
            for m in self.models:
                p = np.empty(n, dtype=np.int64)
                t0 = out.clock.now()
                for mask in masks:
                    p[mask] = _predict(m, test.data[mask])
                chunk_s.append(out.clock.now() - t0)
                chunked.append(p)
            scale = out.clock.factor()
            batch_per_s.extend(n / (s * scale) for s in chunk_s)

            t0 = time.perf_counter()
            accs = [
                {k: stats.accuracy(p[mask], test.labels[mask]) for k, mask in enumerate(masks)}
                for p in chunked
            ]
            reports = [stats.aggregate(a, model_id=f"epoch{i + 1}") for i, a in enumerate(accs)]
            keys = sorted(accs[0])
            wilcoxon = stats.wilcoxon_signed_rank(
                [accs[0][k] for k in keys], [accs[1][k] for k in keys]
            )
            compare_s.append(time.perf_counter() - t0)

            with out.checking():
                for i in range(n):
                    out.op(preds[i] == chunked[-1][i],
                           f"window {i}: batch-1 and chunked predictions differ")
                digest = _sha(preds, *chunked)
                if first is None:
                    first = out.digest = digest
                out.check(digest == first, "predictions differ between rounds")
            done += 1
            out.unit_done()
            if _finished(done, limit, deadline):
                break
        out.task_s = statistics.median(pass_s)
        out.items_per_s = statistics.median(batch_per_s)
        out.units = done
        out.facts["train.checkpoint_bytes"] = float(self.checkpoint_bytes)
        out.report.update({
            "b1_latency_ms": timing([1000.0 * s for s in latencies], "ms"),
            "b1_pass_s": timing(pass_s, "s"),
            "b1_pass_wall_s": timing(wall_pass_s, "s"),
            "batch_windows_per_s": timing(batch_per_s, "1/s"),
            "heldout_acc": value(reports[-1].mean, "fraction", len(keys)),
            "compare_ms": timing([1000.0 * s for s in compare_s], "ms"),
            "wilcoxon_p": value(wilcoxon.p_value, "probability", wilcoxon.n_effective),
        })

    def verify(self, out: "Outcome"):
        """Each checkpoint round trip is bit-exact: the loaded entries and
        the restored weights equal what was saved, and saving the loaded
        checkpoint reproduces the file."""
        for path, ckpt, loaded, restored in self.round_trips:
            params = {k: p.data for k, p in restored.named_parameters().items()}
            again = path + ".again"
            train.save_checkpoint(again, loaded)
            ok = (
                _same_arrays(ckpt.weights, loaded.weights) and _same_arrays(ckpt.m, loaded.m)
                and _same_arrays(ckpt.v, loaded.v) and _same_arrays(ckpt.weights, params)
                and ckpt.opt == loaded.opt and ckpt.epoch == loaded.epoch
                and ckpt.rng_state == loaded.rng_state and ckpt.config == loaded.config
                and _same_file(path, again)
            )
            os.remove(again)
            out.check(ok, f"checkpoint round trip of {os.path.basename(path)} is not bit-exact")


# -- ingest ---------------------------------------------------------------


def _active_spans(gesture: np.ndarray, repetition: np.ndarray):
    """(start, stop, gesture, repetition) of each maximal active run."""
    change = np.flatnonzero((np.diff(gesture) != 0) | (np.diff(repetition) != 0)) + 1
    bounds = np.concatenate(([0], change, [gesture.size]))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if gesture[start] != 0:
            yield int(start), int(stop), int(gesture[start]), int(repetition[start])


class IngestWorkload:
    """``emgtcn preprocess`` over raw recordings with windows overlapping
    by half, then the segment-file load that ``train``/``eval`` do."""

    clock = CpuClock

    def __init__(self, name: str, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.out_path = os.path.join(workdir, "segments.sseg")

    def setup(self) -> str:
        """Write the recordings, and derive from their annotations the
        windows the closed form predicts: floor((span - L) / stride) + 1
        per active span."""
        recordings = data.generate_synthetic(INGEST_SUBJECTS, classes=CLASSES, seed=self.seed)
        self.paths, self.samples, self.expected = [], 0, []
        h = hashlib.sha256()
        for subject, rec in enumerate(recordings, start=1):
            path = os.path.join(self.workdir, f"subject{subject:02d}.semg")
            data.write_recording(path, rec)
            with open(path, "rb") as fh:
                h.update(fh.read())
            self.paths.append(path)
            self.samples += rec.channels * rec.num_samples
            self.seg_len = int(round(INGEST_WINDOW_MS * rec.sample_rate_hz / 1000))
            stride = int(round(INGEST_STRIDE_MS * rec.sample_rate_hz / 1000))
            for start, stop, g, rep in _active_spans(rec.gesture, rec.repetition):
                if stop - start >= self.seg_len:
                    count = (stop - start - self.seg_len) // stride + 1
                    self.expected.append((subject, start, count, g - 1, rep))
        return h.hexdigest()

    def _pass(self):
        argv = ["preprocess", *self.paths, "--out", self.out_path,
                "--window-ms", str(INGEST_WINDOW_MS), "--stride-ms", str(INGEST_STRIDE_MS)]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        segs = data.read_segments(self.out_path)
        return code, captured.getvalue(), segs, data.split(segs)

    def measure(self, out: "Outcome", deadline: float, limit=None):
        """``limit`` counts passes: preprocess, then read and split."""
        want = sum(e[2] for e in self.expected)
        columns = [
            np.concatenate([np.full(e[2], e[i]) for e in self.expected]) for i in (3, 0, 4)
        ]
        pass_s, wall_pass_s, per_s, first = [], [], [], None
        done = 0
        while True:
            t0, c0 = time.perf_counter(), out.clock.now()
            code, stdout, segs, (train_set, test_set) = self._pass()
            dt = (out.clock.now() - c0) * out.clock.factor()
            wall_pass_s.append(time.perf_counter() - t0)
            pass_s.append(dt)
            per_s.append(self.samples / dt)
            with out.checking():
                for path in self.paths:
                    out.op(code == 0, f"preprocess of {path} exited {code}")
                ok = (
                    len(segs) == want and f"count={want}" in stdout.split()
                    and all(np.array_equal(a, b) for a, b in
                            zip((segs.labels, segs.subjects, segs.repetitions), columns))
                    and len(train_set) + len(test_set) == want
                )
                out.op(ok, f"{len(segs)} windows read back; the closed form gives {want}")
                last = _finished(done + 1, limit, deadline)
                if first is None or last:
                    digest = _sha(segs.data)
                    first = first or digest
                    out.check(digest == first, "segment file differs between passes")
                del segs, train_set, test_set
            done += 1
            out.unit_done()
            if last:
                break
        sseg_bytes = os.path.getsize(self.out_path)
        out.task_s = statistics.median(pass_s)
        out.items_per_s = statistics.median(per_s)
        out.units = done
        out.digest = first
        out.facts["data.sseg_bytes"] = float(sseg_bytes)
        out.report.update({
            "ingest_samples_per_s": timing(per_s, "1/s"),
            "ingest_pass_s": timing(pass_s, "s"),
            "ingest_pass_wall_s": timing(wall_pass_s, "s"),
            "windows": value(want, "count"),
            "sseg_bytes": value(sseg_bytes, "B"),
        })

    def verify(self, out: "Outcome"):
        """Windows read back equal the processed recording they were cut
        from, and re-writing what was read reproduces the file."""
        segs = data.read_segments(self.out_path)
        copy = self.out_path + ".again"
        data.write_segments(copy, segs)
        out.check(_same_file(self.out_path, copy), "segment file does not round-trip")
        os.remove(copy)
        row, first_row = 0, {}
        for subject, start, count, _, _ in self.expected:
            first_row.setdefault(subject, (row, start))
            row += count
        for subject in (1, INGEST_SUBJECTS):
            row, start = first_row[subject]
            rec = data.read_recording(self.paths[subject - 1])
            window = signal.preprocess(rec.data)[:, start : start + self.seg_len]
            out.check(np.array_equal(segs.data[row], window),
                      f"first window of subject {subject} differs from its recording")


def _same_file(a: str, b: str, block: int = 1 << 24) -> bool:
    if os.path.getsize(a) != os.path.getsize(b):
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            x, y = fa.read(block), fb.read(block)
            if x != y:
                return False
            if not x:
                return True


WORKLOADS = {
    "train_desk": TrainWorkload,
    "train_wide": TrainWorkload,
    "infer_stream": InferWorkload,
    "ingest": IngestWorkload,
}
