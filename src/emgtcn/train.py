"""Mini-batch training: Adam, cross-entropy, the epoch loop, and
bit-exact checkpointing.

Determinism is a contract here, not an aspiration. Batch order comes
from one seeded PCG64 generator that is advanced exactly once per epoch,
optimizer math is plain float64, and the checkpoint stores weights,
moment buffers and the generator state verbatim, so a run resumed from
epoch e reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import _Reader, _replacing, _write_csv
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    FormatError,
    NumericalError,
    UsageError,
)
from .model import AttentionTcn, ModelConfig
from .tensor import Tensor, make_op

__all__ = [
    "TrainConfig",
    "TrainResult",
    "Adam",
    "cross_entropy",
    "train",
    "Checkpoint",
    "make_checkpoint",
    "restore_model",
    "restore_optimizer",
    "save_checkpoint",
    "load_checkpoint",
    "write_trace",
]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    lr: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")


@dataclass
class TrainResult:
    """Per-epoch trace plus the RNG state needed to continue the run."""

    epochs: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    accuracies: list = field(default_factory=list)
    rng_state: dict | None = None

    def append(self, epoch: int, loss: float, acc: float):
        self.epochs.append(epoch)
        self.losses.append(loss)
        self.accuracies.append(acc)


class Adam:
    """Standard Adam with bias correction over a name -> Tensor map.

    The moments live in two flat float64 vectors, one slot per parameter
    in dict order; ``m[name]`` and ``v[name]`` are reshaped views into
    them, so moment state is read per name and written in place
    (``opt.m[name][...] = values``), never rebound.

    Building an ``Adam`` turns gradient tracking on for every parameter
    it updates. This is the one place training enables it, so a frozen
    model (see ``restore_model``) becomes trainable exactly when it gets
    an optimizer, and never trains silently on zero gradients.
    """

    def __init__(self, params: dict, lr: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        # (name, tensor, flat slice) for each parameter, in dict order
        self._slots = []
        offset = 0
        for name, p in self.params.items():
            p.requires_grad = True
            self._slots.append((name, p, slice(offset, offset + p.data.size)))
            offset += p.data.size
        self._m = np.zeros(offset)
        self._v = np.zeros(offset)
        self.m = {n: self._m[s].reshape(p.data.shape) for n, p, s in self._slots}
        self.v = {n: self._v[s].reshape(p.data.shape) for n, p, s in self._slots}

    def step(self):
        """Apply one update from the gradients currently on the params.

        A missing gradient counts as zero (the moments still decay). The
        gradients are joined into one flat vector and the moment and
        update arithmetic runs once over it. A non-finite gradient raises
        ``NumericalError`` naming the first offending parameter and leaves
        every parameter, moment and the step count untouched.
        """
        t = self.step_count + 1
        g = np.concatenate([
            p.grad.reshape(-1) if p.grad is not None else np.zeros(p.data.size)
            for _, p, _ in self._slots
        ])
        if not np.isfinite(g).all():
            name = next(n for n, _, s in self._slots if not np.isfinite(g[s]).all())
            raise NumericalError(
                f"non-finite gradient for parameter {name!r} at step {t}"
            )
        self.step_count = t
        c1 = 1.0 - self.beta1**t
        c2 = 1.0 - self.beta2**t
        m = self._m
        v = self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        update = self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
        for _, p, s in self._slots:
            p.data -= update[s].reshape(p.data.shape)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the true classes.

    ``logits`` is B x K, ``labels`` holds class indices in [0, K).
    Stable via log-sum-exp; the gradient is the fused
    (softmax - one_hot) / B, so no giant softmax graph is recorded.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    z = logits.data
    if z.ndim != 2:
        raise DimensionError(f"logits must be B x K, got shape {logits.shape}")
    b, k = z.shape
    if labels.shape != (b,):
        raise DimensionError(
            f"need one label per row: {b} rows, {labels.shape[0]} labels"
        )
    bad = (labels < 0) | (labels >= k)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise DataError(
            f"label {labels[i]} at index {i} outside [0, {k})"
        )
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    losses = lse[:, 0] - z[np.arange(b), labels]
    soft = np.exp(z - lse)

    def backward(g):
        grad = soft.copy()
        grad[np.arange(b), labels] -= 1.0
        grad *= g / b
        return (grad,)

    return make_op(np.asarray(losses.mean()), (logits,), backward)


def train(
    model: AttentionTcn,
    train_set,
    cfg: TrainConfig,
    optimizer: Adam | None = None,
    start_epoch: int = 0,
    rng_state: dict | None = None,
) -> TrainResult:
    """Run epochs [start_epoch, cfg.epochs) of shuffled mini-batch SGD.

    Shuffling draws one permutation per epoch from a PCG64 generator
    seeded with cfg.seed (or restored from ``rng_state`` when resuming),
    which is what makes split runs reproduce whole runs exactly. A given
    ``optimizer`` must step at cfg.lr.
    """
    m = len(train_set)
    if m == 0:
        raise UsageError("cannot train on an empty segment set")
    if optimizer is not None and optimizer.lr != cfg.lr:
        raise ConfigError(f"cfg.lr={cfg.lr!r} differs from the optimizer's lr={optimizer.lr!r}")
    opt = optimizer if optimizer is not None else Adam(
        model.named_parameters(), lr=cfg.lr
    )
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    if rng_state is not None:
        rng.bit_generator.state = rng_state

    x_all = np.ascontiguousarray(train_set.data, dtype=np.float64)
    y_all = np.asarray(train_set.labels, dtype=np.int64)

    result = TrainResult()
    for epoch in range(start_epoch, cfg.epochs):
        order = rng.permutation(m)
        loss_sum = 0.0
        correct = 0
        for lo in range(0, m, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            xb = x_all[idx]
            yb = y_all[idx]
            logits = model.forward(xb)
            loss = cross_entropy(logits, yb)
            tape = loss.backward()
            opt.step()
            tape.reset()
            loss_sum += float(loss.data) * len(idx)
            correct += int((np.argmax(logits.data, axis=1) == yb).sum())
        result.append(epoch, loss_sum / m, correct / m)
    result.rng_state = rng.bit_generator.state
    return result


def write_trace(path, result: TrainResult):
    """Emit the per-epoch trace as CSV with round-trippable floats."""
    _write_csv(path, ("epoch", "loss", "train_acc"),
               zip(result.epochs, result.losses, result.accuracies))


# -- checkpoint format ---------------------------------------------------
#
# little-endian binary:
#   magic "TCHG" | u32 version | u32 entry_count | entries...
# entry:
#   u32 name_len | name utf-8 | u8 kind | payload
# kinds: 0 = JSON blob (u64 byte length + bytes)
#        1 = float64 array (u32 ndim, u64 dims..., raw data)
#        2 = i64 scalar

_MAGIC = b"TCHG"
_VERSION = 1
# each optimizer setting: the type and range Adam can resume from
_OPT_KEYS = {
    "lr": (float, "a positive finite float", lambda x: 0 < x < math.inf),
    "beta1": (float, "a float in [0, 1)", lambda x: 0 <= x < 1),
    "beta2": (float, "a float in [0, 1)", lambda x: 0 <= x < 1),
    "eps": (float, "a positive finite float", lambda x: 0 < x < math.inf),
    "step": (int, "an integer in [0, 2**63)", lambda x: 0 <= x < 2**63),
}


@dataclass
class Checkpoint:
    config: ModelConfig
    epoch: int
    weights: dict
    m: dict
    v: dict
    opt: dict
    rng_state: dict | None


def make_checkpoint(
    model: AttentionTcn, optimizer: Adam, epoch: int, rng_state: dict | None
) -> Checkpoint:
    return Checkpoint(
        config=model.cfg,
        epoch=epoch,
        weights={k: p.data.copy() for k, p in model.named_parameters().items()},
        m={k: a.copy() for k, a in optimizer.m.items()},
        v={k: a.copy() for k, a in optimizer.v.items()},
        opt={
            "lr": optimizer.lr,
            "beta1": optimizer.beta1,
            "beta2": optimizer.beta2,
            "eps": optimizer.eps,
            "step": optimizer.step_count,
        },
        rng_state=rng_state,
    )


def restore_model(ckpt: Checkpoint) -> AttentionTcn:
    """Rebuild the model of a checkpoint as an inference model.

    Every parameter comes back with ``requires_grad=False``, so a forward
    pass records no graph and keeps no activations for backward. The
    weights are copies, so training the model leaves ``ckpt`` as it was,
    and two models restored from one checkpoint share nothing. Passing
    the parameters to an optimizer (``Adam``, ``restore_optimizer`` or
    ``train``'s default) makes them trainable again.
    """
    model = AttentionTcn(ckpt.config, seed=0)
    params = model.named_parameters()
    _check_group("w", ckpt.weights, params)
    for name, p in params.items():
        p.data = np.array(ckpt.weights[name], dtype=np.float64, order="C")
        p.requires_grad = False
    return model


def restore_optimizer(ckpt: Checkpoint, model: AttentionTcn) -> Adam:
    opt = Adam(
        model.named_parameters(),
        lr=ckpt.opt["lr"],
        beta1=ckpt.opt["beta1"],
        beta2=ckpt.opt["beta2"],
        eps=ckpt.opt["eps"],
    )
    opt.step_count = int(ckpt.opt["step"])
    for group, saved, views in (("m", ckpt.m, opt.m), ("v", ckpt.v, opt.v)):
        _check_group(group, saved, views)
        for name, view in views.items():
            view[...] = saved[name]
    return opt


def _check_group(group: str, saved: dict, expected: dict):
    """Refuse a checkpoint group (``w``, ``m`` or ``v``) unless it holds
    exactly the model's parameter names, each in the expected shape;
    ``expected`` maps names to arrays or tensors of that shape."""
    missing = sorted(set(expected) - set(saved))
    if missing:
        raise FormatError(f"checkpoint is missing entry '{group}/{missing[0]}'")
    unknown = sorted(set(saved) - set(expected))
    if unknown:
        raise FormatError(
            f"checkpoint entry '{group}/{unknown[0]}' is not a model parameter"
        )
    for name, want in expected.items():
        if saved[name].shape != want.shape:
            raise FormatError(
                f"checkpoint entry '{group}/{name}' has shape "
                f"{saved[name].shape}, expected {want.shape}"
            )


def save_checkpoint(path, ckpt: Checkpoint):
    """Write ``ckpt`` as TCHG v1, replacing ``path`` atomically, so a
    checkpoint loaded from the old file keeps its values."""
    config = json.dumps(asdict(ckpt.config), sort_keys=True)
    entries = [("config", 0, config), ("epoch", 2, ckpt.epoch)]
    entries.append(("opt", 0, json.dumps(ckpt.opt, sort_keys=True)))
    if ckpt.rng_state is not None:
        entries.append(("rng", 0, json.dumps(ckpt.rng_state, sort_keys=True)))
    for group, arrays in (("w", ckpt.weights), ("m", ckpt.m), ("v", ckpt.v)):
        entries.extend((f"{group}/{name}", 1, arr) for name, arr in arrays.items())

    with _replacing(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(entries)))
        for name, kind, payload in entries:
            raw = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(raw)}sB", len(raw), raw, kind))
            if kind == 0:
                blob = payload.encode("utf-8")
                fh.write(struct.pack("<Q", len(blob)))
                fh.write(blob)
            elif kind == 1:
                arr = np.ascontiguousarray(payload, dtype="<f8")
                shape = arr.shape or (1,)
                fh.write(struct.pack(f"<I{len(shape)}Q", arr.ndim, *shape))
                fh.write(arr)
            else:
                fh.write(struct.pack("<q", int(payload)))


def load_checkpoint(path) -> Checkpoint:
    """Read a TCHG v1 file. Its arrays are (maybe unaligned) views over
    a private copy-on-write map of the file; the restorers copy them."""
    fields: dict = {}
    r = _Reader(path, "checkpoint file")
    r.header(_MAGIC, _VERSION)
    (count,) = r.unpack("<I", "entry count")
    try:
        for _ in range(count):
            (name_len,) = r.unpack("<I", "entry name length")
            name = r.take(name_len, "entry name").decode("utf-8")
            if name in fields:
                raise FormatError(f"checkpoint entry {name!r} appears twice")
            (kind,) = r.unpack("<B", f"kind of {name!r}")
            if kind == 0:
                (blob_len,) = r.unpack("<Q", f"length of {name!r}")
                fields[name] = r.take(blob_len, f"payload of {name!r}").decode("utf-8")
            elif kind == 1:
                (ndim,) = r.unpack("<I", f"rank of {name!r}")
                dims = r.unpack(f"<{max(ndim, 1)}Q", f"shape of {name!r}")
                fields[name] = r.array("<f8", dims[:ndim], f"data of {name!r}")
            elif kind == 2:
                (fields[name],) = r.unpack("<q", f"value of {name!r}")
            else:
                raise FormatError(
                    f"unknown entry kind {kind} for {name!r} at offset {r.offset}"
                )
    except UnicodeDecodeError as err:
        raise FormatError(
            f"malformed checkpoint entry before offset {r.offset}: {err}"
        ) from None
    r.done()
    try:
        config = json.loads(fields.pop("config"))
        epoch = fields.pop("epoch")
        opt = json.loads(fields.pop("opt"))
        rng_state = json.loads(fields.pop("rng")) if "rng" in fields else None
    except KeyError as missing:
        raise FormatError(f"checkpoint is missing entry {missing}") from None
    except (TypeError, ValueError) as err:
        raise FormatError(f"checkpoint metadata is malformed: {err}") from None
    if not (isinstance(config, dict) and all(type(v) is int for v in config.values())):
        raise FormatError(f"checkpoint config must map names to integers, got {config!r}")
    try:
        config = ModelConfig(**config)
    except (TypeError, ConfigError) as err:
        raise FormatError(f"checkpoint config is invalid: {err}") from None
    if not (type(epoch) is int and epoch >= 0):
        raise FormatError(f"checkpoint entry 'epoch' must be an integer >= 0, got {epoch!r}")
    if not (isinstance(opt, dict) and opt.keys() == _OPT_KEYS.keys()):
        raise FormatError(
            f"checkpoint entry 'opt' must hold the numbers {sorted(_OPT_KEYS)}, got {opt!r}"
        )
    for key, (kind, what, fits) in _OPT_KEYS.items():
        if not (type(opt[key]) is kind and fits(opt[key])):
            raise FormatError(f"checkpoint entry 'opt' holds {key}={opt[key]!r}, not {what}")
    if rng_state is not None:
        try:
            np.random.PCG64().state = rng_state
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise FormatError(
                f"checkpoint entry 'rng' is not a PCG64 state: {err!r}"
            ) from None
    weights, moments_m, moments_v = {}, {}, {}
    for name, value in fields.items():
        group, _, param = name.partition("/")
        target = {"w": weights, "m": moments_m, "v": moments_v}.get(group)
        if target is None or not param:
            raise FormatError(f"unrecognized checkpoint entry {name!r}")
        if not (isinstance(value, np.ndarray) and np.isfinite(value).all()):
            raise FormatError(f"checkpoint entry {name!r} is not an array of finite numbers")
        if group == "v" and (value < 0).any():
            raise FormatError(f"checkpoint entry {name!r} holds a negative second moment")
        target[param] = value
    return Checkpoint(
        config=config, epoch=epoch, weights=weights, m=moments_m, v=moments_v,
        opt=opt, rng_state=rng_state,
    )
