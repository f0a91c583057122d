"""Command-line surface for the full pipeline.

Subcommands: preprocess, train, eval, params, compare, synth. Settings
come from an optional JSON config file plus flags, with flags winning;
each subcommand has flags only for the settings it reads.
The seed resolves as: --seed flag, then the config file, then 0; a
negative seed is refused.

Stream discipline: anything meant for humans goes to stderr; stdout
carries exactly one machine-readable key=value line per command.
Exit codes, set only in main(): 0 success, 2 config/validation
problems, 3 numerical failures, 4 file format or I/O problems.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
import warnings

import numpy as np

from . import data as dio
from . import signal as sig
from . import stats, train as tr
from .errors import (
    ConfigError,
    DataError,
    EmgTcnError,
    FormatError,
    NumericalError,
    UsageError,
)
from .model import (
    BASELINE_RECURRENT_PARAMS, AttentionTcn, ModelConfig, count_parameters, derive_config,
)

__all__ = ["main"]


def _parse_rep_list(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise ConfigError(f"repetition list must be integers, got {text!r}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# JSON kind of a setting -> (flag parser, what a config file value must
# be, the check on that value); floats also take ints
_KINDS = {
    "int": (int, "an integer", _is_int),
    "int|null": (int, "an integer", lambda v: v is None or _is_int(v)),
    "number": (float, "a number", lambda v: _is_int(v) or isinstance(v, float)),
    "reps": (_parse_rep_list, "a list of integers",
             lambda v: isinstance(v, list) and all(map(_is_int, v))),
}

# Every setting once: config key (also the flag's dest), flag, JSON kind,
# default, the subcommands that take the flag (and so --config), and help
# text. A default that a library type owns is read from it.
_SETTINGS = (
    ("window_ms", "--window-ms", "int", 200, ("preprocess", "params"), None),
    ("stride_ms", "--stride-ms", "int|null", None, ("preprocess",), None),
    ("num_patches", "--num-patches", "int", 10, ("train", "params"), None),
    ("model_dim", "--model-dim", "int", 12, ("train", "params"), None),
    ("kernel_size", "--kernel-size", "int", ModelConfig.kernel_size,
     ("train", "params"), None),
    ("num_classes", "--num-classes", "int", ModelConfig.num_classes,
     ("train", "params", "synth"), None),
    ("cutoff_hz", "--cutoff-hz", "number", sig.FilterParams.cutoff_hz,
     ("preprocess",), None),
    ("mu", "--mu", "number", sig.MuLawParams.mu, ("preprocess",), None),
    ("sample_rate_hz", "--sample-rate-hz", "number", sig.FilterParams.sample_rate_hz,
     ("preprocess", "params", "synth"),
     "rate of .csv inputs, of synth output and of params; "
     ".semg files carry their own"),
    ("epochs", "--epochs", "int", 10, ("train",), None),
    ("batch_size", "--batch-size", "int", tr.TrainConfig.batch_size, ("train",), None),
    ("lr", "--lr", "number", tr.TrainConfig.lr, ("train",), None),
    ("seed", "--seed", "int|null", None, ("train", "synth"), None),
    ("train_repetitions", "--train-reps", "reps", dio.SplitSpec.train_repetitions,
     ("train", "eval"), "comma-separated repetition ids"),
    ("test_repetitions", "--test-reps", "reps", dio.SplitSpec.test_repetitions,
     ("train", "eval"), "comma-separated repetition ids"),
)


def _load_run_config(args) -> argparse.Namespace:
    """The table's defaults, overlaid by the config file (each value read
    by its flag's parser, from the text the flag would be given: a list
    joined by commas), then by the flags. A command that takes --seed
    refuses a negative seed, naming its source; an unset seed is 0. Each
    command checks the other settings it reads by building its objects."""
    kinds = {name: kind for name, _, kind, _, _, _ in _SETTINGS}
    cfg = {name: default for name, _, _, default, _, _ in _SETTINGS}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh, object_pairs_hook=dio._unique_keys)
        # also bytes that are not UTF-8, and nesting beyond the recursion limit
        except (ValueError, RecursionError) as err:
            raise ConfigError(f"{args.config}: not valid JSON ({err})") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config}: top level must be an object")
        unknown = set(loaded) - set(kinds)
        if unknown:
            raise ConfigError(
                f"{args.config}: unknown config keys {sorted(unknown)}"
            )
        for key, value in loaded.items():
            parse, want, fits = _KINDS[kinds[key]]
            if not fits(value):
                raise ConfigError(f"{args.config}: {key} must be {want}, got {value!r}")
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            cfg[key] = None if value is None else parse(text)
    for name in kinds:
        value = getattr(args, name, None)
        if value is not None:
            cfg[name] = value
    seed = cfg["seed"]
    if hasattr(args, "seed") and seed is not None and seed < 0:
        source = "--seed" if args.seed is not None else f"{args.config}: seed"
        raise ConfigError(f"{source} must be a non-negative integer, got {seed}")
    cfg["seed"] = seed or 0
    return argparse.Namespace(**cfg)


def _note(msg: str):
    print(msg, file=sys.stderr)


def _emit(**pairs):
    """Print the key=value line and flush it. A stdout that cannot take it (a
    closed pipe) is an OSError naming '<stdout>', and is pointed at the null
    device, so that the flush at exit does not fail again."""
    try:
        print(" ".join(f"{k}={v}" for k, v in pairs.items()), flush=True)
    except OSError as err:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise OSError(err.errno, err.strerror, "<stdout>") from None


def _fmt(x: float) -> str:
    return repr(float(x))


def _check_outputs(outputs, inputs):
    """Refuse, before anything is read, an output that the writers would
    refuse (``data._writable``: exit 4), or one that names the file of an
    input or an earlier output (exit 2). Each path is keyed once: by its
    ``(st_dev, st_ino)``, or by its real path while it does not exist."""
    seen = {}
    for i, path in enumerate((*inputs, *outputs)):
        if i >= len(inputs):
            dio._writable(path)
        try:
            st = os.stat(path)
            key = st.st_dev, st.st_ino
        except OSError:  # does not exist yet
            key = os.path.realpath(path)
        if key in seen and i >= len(inputs):
            raise UsageError(f"output {path} would overwrite {seen[key]}")
        seen.setdefault(key, path)


def _check_out_dir(out_dir, outputs, inputs):
    """``_check_outputs`` when ``out_dir`` exists. A missing one is made
    after the work, but is refused first, with the error ``os.makedirs``
    raises, when its nearest existing ancestor is not a folder."""
    head = out_dir
    while head and not os.path.exists(head):
        missing, head = head, os.path.dirname(head.rstrip(os.sep))
    if head == out_dir:
        _check_outputs(outputs, inputs)
    elif head and not os.path.isdir(head):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), missing)


# -- subcommands ---------------------------------------------------------


def _cmd_preprocess(args, cfg):
    """Two passes over the inputs, so that no more than one recording's
    samples are conditioned at a time. The first reads each input, makes
    every refusal, and finds each window's start and columns, which fix
    the file's head; the second reads each input again, conditions it
    and writes its windows straight out of the conditioned buffer."""
    mu = sig.MuLawParams(mu=cfg.mu)
    _check_outputs([args.out], args.inputs)
    parts, plan = [], []
    for index, path in enumerate(args.inputs, start=1):
        with _naming(path):
            rec, filt, seg_len, stride = _read_input(path, index, cfg)
            if not rec.data.size:  # conditioning refuses it: do so in this pass
                sig.preprocess(rec.data, filt, mu)
            starts, segs = sig.segment_index(rec, seg_len, stride)
        shape = rec.data.shape
        del rec  # so that no input stays mapped through the second pass
        _note(f"{path}: {len(segs)} segments from subject {index}")
        parts.append(segs)
        plan.append((path, index, starts, shape))
    labels = np.concatenate([p.labels for p in parts])
    classes, counts = np.unique(labels, return_counts=True)
    for cls, count in zip(classes, counts):
        _note(f"  class {cls}: {count} segments")

    def windows():
        for (path, index, starts, shape), segs in zip(plan, parts):
            with _naming(path):
                rec, filt, _, _ = _read_input(path, index, cfg)
                if rec.data.shape != shape:
                    raise DataError(f"changed while being read: {shape} samples, then "
                                    f"{rec.data.shape}")
                processed = sig.preprocess(rec.data, filt, mu)
            yield from sig.window_blocks(processed, starts, segs.seg_len)
            del processed  # before the next recording is conditioned

    dio.write_segments(args.out, *parts, windows=windows())
    _emit(segments=args.out, count=len(labels), classes=len(classes))


@contextlib.contextmanager
def _naming(path):
    """Lead the message of an error raised in the block with ``path``;
    the CSV reader's errors already lead with it."""
    try:
        yield
    except EmgTcnError as err:
        if str(err).startswith(f"{path}:"):
            raise
        raise type(err)(f"{path}: {err}") from None


def _read_input(path, subject: int, cfg) -> tuple:
    """Read one recording; return it with the filter, window and stride
    at its own sample rate. Only a CSV takes its rate from the settings."""
    if str(path).endswith(".csv"):
        rec = dio.read_annotated_csv(
            path, sample_rate_hz=cfg.sample_rate_hz, subject=subject
        )
    else:
        rec = dio.read_recording(path, subject=subject)
    seg_len, stride = sig.window_samples(cfg.window_ms, cfg.stride_ms, rec.sample_rate_hz)
    filt = sig.FilterParams(cutoff_hz=cfg.cutoff_hz, sample_rate_hz=rec.sample_rate_hz)
    return rec, filt, seg_len, stride


def _read_side(path, cfg, side: str, num_classes: int):
    """The ``side`` ("train" or "test") of the segment file at ``path``
    under the configured repetition split; an empty side, or a label a
    ``num_classes`` model cannot predict, is refused."""
    spec = dio.SplitSpec(cfg.train_repetitions, cfg.test_repetitions)
    segs = dio.read_segments(path)
    segs = dio._select(segs, dio._split_masks(segs, spec)[0 if side == "train" else 1])
    if len(segs) == 0:
        reps = getattr(cfg, f"{side}_repetitions")
        raise UsageError(f"no segments with repetitions {sorted(reps)} in {path}")
    top = int(segs.labels.max())
    if top >= num_classes:
        raise DataError(f"label {top} does not fit {num_classes} classes")
    return segs


def _cmd_train(args, cfg):
    train_cfg = tr.TrainConfig(
        epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr, seed=cfg.seed,
    )
    _check_outputs([args.checkpoint, args.trace], [args.segments])
    train_set = _read_side(args.segments, cfg, "train", cfg.num_classes)
    model_cfg = ModelConfig(
        channels=train_set.channels, seq_len=train_set.seg_len,
        num_patches=cfg.num_patches, model_dim=cfg.model_dim,
        kernel_size=cfg.kernel_size, num_classes=cfg.num_classes,
    )
    model = AttentionTcn(model_cfg, seed=cfg.seed)
    _note(
        f"training on {len(train_set)} segments "
        f"(N={model_cfg.num_patches}, D={model_cfg.model_dim}, "
        f"Z={model_cfg.num_blocks}) for {cfg.epochs} epochs"
    )
    opt = tr.Adam(model.named_parameters(), lr=cfg.lr)
    result = tr.train(model, train_set, train_cfg, optimizer=opt)
    tr.save_checkpoint(
        args.checkpoint,
        tr.make_checkpoint(model, opt, epoch=cfg.epochs, rng_state=result.rng_state),
    )
    tr.write_trace(args.trace, result)
    final_loss = result.losses[-1] if result.losses else float("nan")
    final_acc = result.accuracies[-1] if result.accuracies else float("nan")
    _emit(
        checkpoint=args.checkpoint, trace=args.trace,
        final_loss=_fmt(final_loss), final_train_acc=_fmt(final_acc),
    )


def _cmd_eval(args, cfg):
    model_id = args.model_id or os.path.splitext(os.path.basename(args.checkpoint))[0]
    paths = stats.report_paths(args.out_dir, model_id)
    _check_out_dir(args.out_dir, list(paths.values()), [args.checkpoint, args.segments])
    ckpt = tr.load_checkpoint(args.checkpoint)
    model = tr.restore_model(ckpt)
    test_set = _read_side(args.segments, cfg, "test", model.cfg.num_classes)
    preds = _predict(model, test_set.data)
    per_subject = {}
    for subject in np.unique(test_set.subjects):
        mask = test_set.subjects == subject
        per_subject[int(subject)] = stats.accuracy(preds[mask], test_set.labels[mask])
    report = stats.aggregate(per_subject, model_id=model_id)
    stats.emit_report(report, args.out_dir)
    for subject in sorted(per_subject):
        _note(f"subject {subject}: accuracy {per_subject[subject]:.4f}")
    _emit(
        per_subject=paths["per_subject"], summary=paths["summary"],
        mean=_fmt(report.mean), std=_fmt(report.std),
    )


def _predict(model: AttentionTcn, windows: np.ndarray, chunk: int = 256) -> np.ndarray:
    preds = []
    for lo in range(0, windows.shape[0], chunk):
        logits = model.forward(windows[lo : lo + chunk]).data
        preds.append(np.argmax(logits, axis=1))
    return np.concatenate(preds)


def _cmd_params(args, cfg):
    model_cfg = derive_config(
        cfg.window_ms, cfg.num_patches, cfg.model_dim, channels=args.channels,
        sample_rate_hz=cfg.sample_rate_hz, kernel_size=cfg.kernel_size,
        num_classes=cfg.num_classes,
    )
    total, breakdown = count_parameters(model_cfg)
    _note(
        f"architecture: window {cfg.window_ms} ms, N={model_cfg.num_patches}, "
        f"D={model_cfg.model_dim}, Z={model_cfg.num_blocks}, "
        f"dilations {list(model_cfg.dilations)}"
    )
    for stage, count in breakdown.items():
        _note(f"  {stage:<10} {count:>8}")
    _note(f"  {'total':<10} {total:>8}")
    ratio = BASELINE_RECURRENT_PARAMS / total
    _note(
        f"reference recurrent baseline is {BASELINE_RECURRENT_PARAMS} parameters "
        f"({ratio:.1f}x this model)"
    )
    _emit(
        embedding=breakdown["embedding"], attention=breakdown["attention"],
        blocks=breakdown["blocks"], classifier=breakdown["classifier"],
        total=total, baseline=BASELINE_RECURRENT_PARAMS, ratio=_fmt(ratio),
    )


def _cmd_compare(args, cfg):
    if len(args.reports) < 2:
        raise UsageError("need at least two per-subject reports to compare")
    _check_outputs([args.out], args.reports)
    names = [stats.report_name(p) for p in args.reports]
    for i, name in enumerate(names):
        if name in names[:i]:
            first = args.reports[names.index(name)]
            raise UsageError(
                f"report name {name!r} is repeated: {first} and {args.reports[i]}"
            )
    reports = [stats.read_per_subject(p) for p in args.reports]
    base_name, base = names[0], reports[0]
    base_subjects = set(base)
    for name, rep, path in zip(names[1:], reports[1:], args.reports[1:]):
        if set(rep) != base_subjects:
            missing = sorted(base_subjects ^ set(rep))
            raise UsageError(
                f"{path}: subject set differs from {args.reports[0]} "
                f"(mismatched subjects: {missing})"
            )
    subjects = sorted(base_subjects)
    a = np.array([base[s] for s in subjects])
    rows = []
    for name, rep in zip(names[1:], reports[1:]):
        b = np.array([rep[s] for s in subjects])
        result = stats.wilcoxon_signed_rank(a, b)
        band = stats.significance_band(result.p_value)
        rows.append((base_name, name, result.statistic, result.p_value, band))
        _note(
            f"{base_name} vs {name}: W={result.statistic} "
            f"p={result.p_value:.6g} ({band}, n={result.n_effective})"
        )
    dio._write_csv(args.out, ("model_a", "model_b", "W", "p", "band"), rows)
    _emit(comparisons=args.out, rows=len(rows))


def _cmd_synth(args, cfg):
    paths = [os.path.join(args.out_dir, f"subject{s:02d}.semg")
             for s in range(1, args.subjects + 1)]
    _check_out_dir(args.out_dir, paths, [])
    recordings = dio.generate_synthetic(
        subjects=args.subjects, classes=cfg.num_classes, reps=args.reps,
        seed=cfg.seed, channels=args.channels,
        sample_rate_hz=cfg.sample_rate_hz,
        gesture_seconds=args.gesture_seconds, rest_seconds=args.rest_seconds,
    )
    # no zip or enumerate: their reused tuple would hold the last subject
    # while the next is made
    with contextlib.closing(recordings):  # a failed write shuts the pool down here
        for rec in recordings:
            os.makedirs(args.out_dir, exist_ok=True)  # once the first subject is ready
            path = paths[rec.subject - 1]
            dio.write_recording(path, rec)
            _note(f"wrote {path} ({rec.num_samples} samples)")
            del rec  # before the next subject is allocated
    _emit(
        out_dir=args.out_dir, subjects=args.subjects,
        classes=cfg.num_classes, reps=args.reps, seed=cfg.seed,
    )


# -- parser and entry point -----------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as UsageError, so main() prints one line
    and exits 2 like every other validation failure.

    Flags must be spelled in full: abbreviation is off here and, since
    subcommand parsers are built from this class, in every subcommand.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="emgtcn",
        description="surface-EMG gesture recognition pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="filter, compand, and segment recordings")
    p.add_argument("inputs", nargs="+", help="recording files (.semg or .csv)")
    p.add_argument("--out", required=True, help="segment file to write")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("train", help="train a classifier on a segment file")
    p.add_argument("segments", help="segment file from preprocess")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--trace", required=True, help="per-epoch CSV to write")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on held-out segments")
    p.add_argument("checkpoint")
    p.add_argument("segments")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--model-id", dest="model_id")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("params", help="audit the parameter count of a config")
    p.add_argument("--channels", type=int, default=12)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("compare", help="Wilcoxon baseline-vs-rest over reports")
    p.add_argument("reports", nargs="+", help="per-subject CSVs; first is baseline")
    p.add_argument("--out", required=True, help="comparison CSV to write")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("synth", help="generate synthetic recordings")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--subjects", type=int, default=4)
    p.add_argument("--reps", type=int, default=6)
    p.add_argument("--channels", type=int, default=12)
    p.add_argument("--gesture-seconds", type=float, default=1.0,
                   dest="gesture_seconds")
    p.add_argument("--rest-seconds", type=float, default=0.25, dest="rest_seconds")
    p.set_defaults(func=_cmd_synth)

    for command in dict.fromkeys(c for row in _SETTINGS for c in row[4]):
        sub.choices[command].add_argument(
            "--config", help="JSON config file", metavar="CONFIG"
        )
    for name, flag, kind, _, commands, help_text in _SETTINGS:
        for command in commands:
            sub.choices[command].add_argument(
                flag, dest=name, type=_KINDS[kind][0], help=help_text,
                metavar=flag[2:].upper().replace("-", "_"),
            )
    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    # a library warning reaches stderr as one line, without its source, and
    # each time it is raised (once per input, say), not once per line of
    # code; other categories keep Python's filters
    saved_format, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", UserWarning)
            args = build_parser().parse_args(argv)
            args.func(args, _load_run_config(args))
        return 0
    except NumericalError as err:
        _note(f"numerical failure: {err}")
        return 3
    except (FormatError, OSError) as err:
        _note(f"file error: {err}")
        return 4
    except EmgTcnError as err:
        _note(f"error: {err}")
        return 2
    except MemoryError as err:
        _note(f"error: out of memory: {err}")
        return 2
    finally:
        warnings.formatwarning = saved_format


if __name__ == "__main__":
    sys.exit(main())
