"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of every emgtcn layer from the
outside: module attributes and class methods are swapped for timing
wrappers while ``instrument`` is active and restored afterwards, so
nothing under ``src/`` changes and an untraced run executes the
original code. Each span is (span id, parent id, name, phase, start,
end); all spans of one run share the tracer's ``run_id`` and stay in
memory until the run ends.

``tensor.make_op`` is not a span of its own: its wrapper re-wraps the
backward closure of every recorded node, so backward time is charged to
the op that built the node (``tensor.<op>.bwd``), and it counts the
recorded nodes and the bytes of their values.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import gzip
import statistics
import time

from emgtcn import cli, data, model, signal, stats, tensor, train

TENSOR_OPS = (
    "linear", "matmul", "dilated_causal_conv1d", "transpose", "reshape",
    "relu", "softmax_lastdim", "add", "mul",
)
MODEL_STAGES = ("model.embed_patches", "model.self_attention", "model.tc_block")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"
        self.spans = []  # (sid, parent, name, phase, start, end)
        self.counts = collections.Counter()  # (phase, root name, key) -> n
        self._stack = []  # (sid, name) of open spans
        self._next_id = 0

    def call(self, name, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, self.phase, start, end))

    def count(self, key, n):
        root = self._stack[0][1] if self._stack else ""
        self.counts[(self.phase, root, key)] += n

    def current(self) -> str:
        return self._stack[-1][1] if self._stack else ""

    def write(self, path):
        """Dump every span as gzipped CSV (times in seconds)."""
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["run_id", "span_id", "parent_id", "name", "phase", "start", "end"])
            for sid, parent, name, phase, start, end in sorted(self.spans):
                out.writerow([self.run_id, sid, parent, name, phase, repr(start), repr(end)])


def _wrapper(tracer, name, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return traced


def _patches(tracer):
    """(owner, attribute, replacement) for every traced entry point."""
    out = []

    def span(owner, attr, name):
        out.append((owner, attr, _wrapper(tracer, name, getattr(owner, attr))))

    for op in TENSOR_OPS:
        span(tensor, op, f"tensor.{op}")
    span(tensor.Tensor, "backward", "tensor.backward")
    span(tensor.ComputationTape, "__init__", "tensor.tape_build")
    span(tensor.ComputationTape, "run", "tensor.tape_run")
    span(tensor.ComputationTape, "reset", "tensor.tape_reset")

    make_op = tensor.make_op

    def traced_make_op(data_, parents, backward_fn):
        out_ = make_op(data_, parents, backward_fn)
        if out_._backward is not None:
            out_._backward = _wrapper(tracer, tracer.current() + ".bwd", out_._backward)
            tracer.count("nodes", 1)
            tracer.count("bytes", out_.data.nbytes)
        return out_

    out.append((tensor, "make_op", traced_make_op))
    out.append((train, "make_op", traced_make_op))

    span(model, "embed_patches", "model.embed_patches")
    span(model, "self_attention", "model.self_attention")
    tc_block = model.tc_block

    def traced_tc_block(h, w):
        index = int(w.dilation).bit_length() - 1
        return tracer.call(f"model.tc_block.{index}", tc_block, h, w)

    out.append((model, "tc_block", traced_tc_block))
    span(model.AttentionTcn, "forward", "model.forward")

    span(train, "cross_entropy", "train.cross_entropy")
    span(train.Adam, "step", "train.adam_step")
    for fn in ("train", "save_checkpoint", "load_checkpoint", "restore_model"):
        span(train, fn, f"train.{fn}")

    for fn in ("butterworth_lowpass", "normalize_max_abs", "mu_law", "preprocess"):
        span(signal, fn, f"signal.{fn}")
    segment = signal.segment

    def traced_segment(*args, **kwargs):
        segs = tracer.call("signal.segment", segment, *args, **kwargs)
        tracer.count("windows", len(segs))
        return segs

    out.append((signal, "segment", traced_segment))

    for fn in ("read_recording", "write_recording", "concat_segments",
               "write_segments", "read_segments", "split", "generate_synthetic"):
        span(data, fn, f"data.{fn}")
    for fn in ("accuracy", "aggregate", "wilcoxon_signed_rank"):
        span(stats, fn, f"stats.{fn}")
    span(cli, "main", "cli.main")
    return out


@contextlib.contextmanager
def instrument(tracer):
    """Install the wrappers for the duration of the block."""
    patches = _patches(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def layer_metrics(tracer, unit_root, units, traced_wall_s, overhead_s):
    """Reduce the spans of a traced run to the per-layer metrics.

    Time metrics are milliseconds per unit of work, summed over the
    measured phase; when ``unit_root`` is set only spans under root
    spans of that name count (for training: under ``train.train``,
    which leaves the held-out checks out). ``traced_wall_s`` is the
    wall time of the traced measured phase less the benchmark's own
    checking, and ``overhead_s`` the traced minus the untraced time of
    the same work.
    """
    spans = [s for s in tracer.spans if s[3] == "measure"]
    by_id = {s[0]: s for s in spans}
    child_time = collections.defaultdict(float)
    for sid, parent, name, _, start, end in spans:
        if parent in by_id:
            child_time[parent] += end - start

    def root_of(span):
        while span[1] in by_id:
            span = by_id[span[1]]
        return span

    scoped = [s for s in spans if unit_root is None or root_of(s)[2] == unit_root]
    total = collections.defaultdict(float)
    self_total = collections.defaultdict(float)
    for sid, parent, name, _, start, end in scoped:
        total[name] += end - start
        self_total[name] += end - start - child_time[sid]
    ms = 1000.0 / units

    def counted(key):
        return sum(
            n for (phase, root, k), n in tracer.counts.items()
            if phase == "measure" and k == key and (unit_root is None or root == unit_root)
        )

    m = {}
    for op in TENSOR_OPS:
        m[f"tensor.{op}.fwd_ms"] = ms * total[f"tensor.{op}"]
        m[f"tensor.{op}.bwd_ms"] = ms * total[f"tensor.{op}.bwd"]
    m["tensor.tape_build_ms"] = ms * total["tensor.tape_build"]
    m["tensor.tape_run_self_ms"] = ms * self_total["tensor.tape_run"]
    m["tensor.nodes_per_step"] = counted("nodes") / units
    m["tensor.bytes_per_step"] = counted("bytes") / units

    m["model.embed_ms"] = ms * total["model.embed_patches"]
    m["model.attention_ms"] = ms * total["model.self_attention"]
    for i in range(4):
        m[f"model.tc_block.{i}_ms"] = ms * total[f"model.tc_block.{i}"]
    stage_time = collections.defaultdict(float)
    for sid, parent, name, _, start, end in scoped:
        if name.startswith(MODEL_STAGES):
            stage_time[parent] += end - start
    m["model.head_self_ms"] = ms * sum(
        end - start - stage_time[sid]
        for sid, _, name, _, start, end in scoped if name == "model.forward"
    )

    m["train.forward_ms"] = ms * sum(
        end - start for _, parent, name, _, start, end in scoped
        if name == "model.forward" and by_id.get(parent, ("",) * 3)[2] == "train.train"
    )
    m["train.loss_ms"] = ms * total["train.cross_entropy"]
    m["train.loss_bwd_ms"] = ms * total["train.cross_entropy.bwd"]
    m["train.backward_ms"] = ms * total["tensor.backward"]
    m["train.adam_ms"] = ms * total["train.adam_step"]
    m["train.steps"] = float(sum(1 for s in scoped if s[2] == "train.adam_step"))
    epochs = [end - start for _, _, name, _, start, end in scoped if name == "train.train"]
    m["train.epoch_s"] = statistics.median(epochs) if epochs else 0.0

    setup = collections.defaultdict(list)
    for _, _, name, phase, start, end in tracer.spans:
        if phase == "setup":
            setup[name].append(end - start)

    def setup_median(name, scale):
        return scale * statistics.median(setup[name]) if setup[name] else 0.0

    m["train.checkpoint_save_ms"] = setup_median("train.save_checkpoint", 1000.0)
    m["train.checkpoint_load_ms"] = setup_median("train.load_checkpoint", 1000.0)

    m["signal.butterworth_ms"] = ms * total["signal.butterworth_lowpass"]
    m["signal.normalize_ms"] = ms * total["signal.normalize_max_abs"]
    m["signal.mu_law_ms"] = ms * total["signal.mu_law"]
    m["signal.segment_ms"] = ms * total["signal.segment"]
    m["signal.windows"] = counted("windows") / units

    for fn in ("read_recording", "concat_segments", "write_segments", "read_segments", "split"):
        m[f"data.{fn}_ms"] = ms * total[f"data.{fn}"]
    m["data.generate_synthetic_s"] = setup_median("data.generate_synthetic", 1.0)

    m["stats.accuracy_ms"] = ms * total["stats.accuracy"]
    m["stats.aggregate_ms"] = ms * total["stats.aggregate"]
    m["stats.wilcoxon_ms"] = ms * total["stats.wilcoxon_signed_rank"]
    m["cli.preprocess_self_ms"] = ms * self_total["cli.main"]

    roots = [s for s in spans if s[1] not in by_id]
    m["trace.top_coverage"] = sum(s[5] - s[4] for s in roots) / traced_wall_s
    # share of the time of top-level spans with children that the self
    # times of the spans below them account for
    composite = [s for s in scoped if s[1] not in by_id and child_time[s[0]] > 0]
    root_time = sum(s[5] - s[4] for s in composite)
    below = sum(child_time[s[0]] for s in composite)
    m["trace.layer_self_share"] = below / root_time if root_time else 0.0
    m["trace.overhead_s"] = overhead_s
    return m
