"""Mini-batch training: Adam, cross-entropy, the epoch loop, and
bit-exact checkpointing.

Determinism is a contract here, not an aspiration. Batch order comes
from one seeded PCG64 generator that is advanced exactly once per epoch,
optimizer math is plain float64, and the checkpoint stores weights,
moment buffers and the generator state verbatim, so a run resumed from
epoch e reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import _read_file, _write_csv, _write_file
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
    """Standard Adam with bias correction over a name -> Tensor map, at
    the standard constants of Kingma & Ba (ICLR 2015).

    The moments live in two flat float64 vectors, one slot per parameter
    in dict order; ``m[name]`` and ``v[name]`` are reshaped views into
    them, so moment state is read per name and written in place
    (``opt.m[name][...] = values``), never rebound.

    Building an ``Adam`` turns gradient tracking on for every parameter
    it updates. This is the one place training enables it, so a frozen
    model (see ``restore_model``) becomes trainable exactly when it gets
    an optimizer, and never trains silently on zero gradients.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, lr: float = 1e-4):
        self.params = dict(params)
        self.lr = float(lr)
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


_MAGIC = b"TCHG"
_GROUPS = ("w", "m", "v")
# each optimizer setting: the type and range Adam can resume from
_OPT_KEYS = {
    "lr": (float, "a positive finite float", lambda x: 0 < x < math.inf),
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
        opt={"lr": optimizer.lr, "step": optimizer.step_count},
        rng_state=rng_state,
    )


def restore_model(ckpt: Checkpoint) -> AttentionTcn:
    """Copy a loaded checkpoint's weights into a new inference model.

    Every parameter comes back with ``requires_grad=False``, so a forward
    pass records no graph and keeps no activations for backward. The
    weights are copies, so training the model leaves ``ckpt`` as it was,
    and two models restored from one checkpoint share nothing. Passing
    the parameters to an optimizer (``Adam``, ``restore_optimizer`` or
    ``train``'s default) makes them trainable again.
    """
    model = AttentionTcn(ckpt.config, seed=0)
    for name, p in model.named_parameters().items():
        p.data = np.array(ckpt.weights[name], dtype=np.float64, order="C")
        p.requires_grad = False
    return model


def restore_optimizer(ckpt: Checkpoint, model: AttentionTcn) -> Adam:
    """Adam over ``model`` with a loaded checkpoint's lr, step and moments."""
    opt = Adam(model.named_parameters(), lr=ckpt.opt["lr"])
    opt.step_count = int(ckpt.opt["step"])
    for saved, views in ((ckpt.m, opt.m), (ckpt.v, opt.v)):
        for name, view in views.items():
            view[...] = saved[name]
    return opt


def save_checkpoint(path, ckpt: Checkpoint):
    """Write ``ckpt`` as a TCHG file (layout in ``emgtcn.data``),
    replacing ``path`` atomically, so a checkpoint loaded from the old
    file keeps its values. The arrays are ``w/<name>``, ``m/<name>``
    and ``v/<name>`` (weights and Adam moments) as ``<f8``; the meta is
    ``config`` (the ``ModelConfig`` fields), ``epoch``, ``opt`` (Adam's
    ``lr`` and ``step``; its betas and eps are constants) and ``rng``
    (``null`` for none)."""
    meta = {"config": asdict(ckpt.config), "epoch": int(ckpt.epoch), "opt": ckpt.opt,
            "rng": ckpt.rng_state}
    groups = zip(_GROUPS, (ckpt.weights, ckpt.m, ckpt.v))
    _write_file(path, _MAGIC, meta, {
        f"{group}/{name}": ("<f8", arr.shape, [arr]) for group, arrays in groups
        for name, arr in arrays.items()
    })


def load_checkpoint(path) -> Checkpoint:
    """Read a TCHG file and judge all of it, so the restorers only copy: groups
    ``w``, ``m`` and ``v`` each hold exactly ``AttentionTcn(config)``'s parameters
    in their shapes. The arrays are views over a private copy-on-write map of the file."""
    meta, arrays = _read_file(path, _MAGIC, "checkpoint", {f"{g}/*": "<f8" for g in _GROUPS},
                              {"config": dict, "epoch": int, "opt": dict, "rng": object})
    config, epoch, opt, rng_state = (meta[k] for k in ("config", "epoch", "opt", "rng"))
    if not all(type(v) is int for v in config.values()):
        raise FormatError(f"checkpoint config must map names to integers, got {config!r}")
    try:
        config = ModelConfig(**config)
    except (TypeError, ConfigError) as err:
        raise FormatError(f"checkpoint config is invalid: {err}") from None
    if epoch < 0:
        raise FormatError(f"checkpoint entry 'epoch' must be an integer >= 0, got {epoch!r}")
    if opt.keys() != _OPT_KEYS.keys():
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
    groups = {group: {} for group in _GROUPS}
    for name, value in arrays.items():
        group, _, param = name.partition("/")
        if not np.isfinite(value).all():
            raise FormatError(f"checkpoint entry {name!r} is not an array of finite numbers")
        if group == "v" and (value < 0).any():
            raise FormatError(f"checkpoint entry {name!r} holds a negative second moment")
        groups[group][param] = value
    shapes = {name: p.shape for name, p in AttentionTcn(config).named_parameters().items()}
    for group, saved in groups.items():
        if missing := sorted(shapes.keys() - saved.keys()):
            raise FormatError(f"checkpoint is missing entry '{group}/{missing[0]}'")
        if unknown := sorted(saved.keys() - shapes.keys()):
            raise FormatError(f"checkpoint entry '{group}/{unknown[0]}' is not a model parameter")
        for name, shape in shapes.items():
            if saved[name].shape != shape:
                raise FormatError(f"checkpoint entry '{group}/{name}' has shape "
                                  f"{saved[name].shape}, expected {shape}")
    return Checkpoint(config, epoch, *groups.values(), opt=opt, rng_state=rng_state)
