"""The gesture classifier: patch embedding, single-head self-attention
with an additive residual, a stack of dilated temporal-convolution
blocks, and a linear head over the flattened features.

A window of C channels and L samples is cut into N non-overlapping
patches of P samples, each flattened channel-major and projected to the
model dimension D. The attention stage mixes patches globally (it adds
no positional information; order sensitivity comes from the causal
convolutions). The block count is tied to the patch count,
Z = max(1, ceil(log2 N)), with dilation doubling per block so the last
patch's receptive field covers the whole sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError
from .signal import window_samples
from .tensor import Tensor

__all__ = [
    "ModelConfig",
    "derive_config",
    "parameter_shapes",
    "AttentionWeights",
    "TcBlockWeights",
    "AttentionTcn",
    "embed_patches",
    "self_attention",
    "tc_block",
    "count_parameters",
    "BASELINE_RECURRENT_PARAMS",
]

# size of the dilated recurrent baseline that the parameter-ratio
# comparison is made against
BASELINE_RECURRENT_PARAMS = 1_102_801


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; everything else is derived."""

    channels: int
    seq_len: int
    num_patches: int
    model_dim: int
    kernel_size: int = 3
    num_classes: int = 17

    def __post_init__(self):
        for name in ("channels", "seq_len", "num_patches", "model_dim", "kernel_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.seq_len % self.num_patches != 0:
            raise ConfigError(
                f"window length {self.seq_len} is not divisible into {self.num_patches} patches"
            )
        largest = max(math.prod(shape) for shape, _ in parameter_shapes(self).values())
        if largest > np.iinfo(np.intp).max // 8:
            raise ConfigError(
                f"the largest weight would hold {largest} float64 values, beyond "
                "what numpy can index"
            )

    @property
    def patch_len(self) -> int:
        return self.seq_len // self.num_patches

    @property
    def num_blocks(self) -> int:
        return max(1, math.ceil(math.log2(self.num_patches)))

    @property
    def dilations(self) -> tuple:
        return tuple(2**i for i in range(self.num_blocks))


def derive_config(
    window_ms: int,
    num_patches: int,
    model_dim: int,
    channels: int = 12,
    sample_rate_hz: float = 2000.0,
    kernel_size: int = 3,
    num_classes: int = 17,
) -> ModelConfig:
    """Resolve a window length in milliseconds into a full ModelConfig.

    The window converts to samples by ``signal.window_samples``, the rule
    ``segment`` and ``preprocess`` use, so the model fits the windows cut
    at the same length and rate, and refuses the windows they refuse.
    """
    return ModelConfig(
        channels=channels,
        seq_len=window_samples(window_ms, None, sample_rate_hz)[0],
        num_patches=num_patches,
        model_dim=model_dim,
        kernel_size=kernel_size,
        num_classes=num_classes,
    )


def parameter_shapes(cfg: ModelConfig) -> dict:
    """Each checkpoint name of a model built from ``cfg`` mapped to (shape,
    init fan-in), in the order ``AttentionTcn`` draws the weights, without
    building it. A fan-in of 0 marks a bias that starts at zero."""
    c, p, d, k = cfg.channels, cfg.patch_len, cfg.model_dim, cfg.kernel_size
    n = cfg.num_patches * d
    shapes = {"patch.w": ((c * p, d), c * p), "patch.b": ((d,), 0)}
    for role in "qkvo":
        shapes.update({f"attn.w{role}": ((d, d), d), f"attn.b{role}": ((d,), 0)})
    for conv in (f"block{i}.conv{j}" for i in range(cfg.num_blocks) for j in (1, 2)):
        shapes.update({f"{conv}.k": ((d, d, k), d * k), f"{conv}.b": ((d,), 0)})
    shapes.update({"head.w": ((n, cfg.num_classes), n), "head.b": ((cfg.num_classes,), 0)})
    return shapes


@dataclass
class AttentionWeights:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


@dataclass
class TcBlockWeights:
    kernel1: Tensor
    bias1: Tensor
    kernel2: Tensor
    bias2: Tensor
    dilation: int


def embed_patches(x: Tensor, cfg: ModelConfig, weight: Tensor, bias: Tensor) -> Tensor:
    """Project each patch to the model dimension: (..., C, L) -> (..., N, D)."""
    if x.shape[-2:] != (cfg.channels, cfg.seq_len):
        raise DimensionError(
            f"windows are {x.shape[-2:]}; the model expects "
            f"{(cfg.channels, cfg.seq_len)}"
        )
    return T.patch_embed(x, weight, bias, cfg.num_patches)


def self_attention(e: Tensor, w: AttentionWeights) -> Tensor:
    """Single-head scaled dot-product attention with residual, as one op.

    out = e + softmax(Q K^T / sqrt(D)) V projected through the output
    map, where Q, K, V are affine images of the patch embeddings e
    (shape (..., N, D)).
    """
    return T.attention_block(e, w.wq, w.bq, w.wk, w.bk, w.wv, w.bv, w.wo, w.bo)


def tc_block(h: Tensor, w: TcBlockWeights) -> Tensor:
    """h + ReLU(conv2(ReLU(conv1(h)))) as one recorded op: h is (..., N, D),
    and both convolutions run causally over N at this block's dilation,
    with D as channels."""
    return T.causal_conv_block(h, w.kernel1, w.bias1, w.kernel2, w.bias2, w.dilation)


class AttentionTcn:
    """All trainable weights plus the forward pass.

    Weights are drawn uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) from a
    seeded generator in a fixed order; biases start at zero, so two
    models built with the same config and seed are bit-identical.
    ``weights``, when given, maps every name of ``parameter_shapes(cfg)``
    to an array of its shape; the model then holds a float64 copy of each
    and draws nothing.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0, weights: dict | None = None):
        self.cfg = cfg
        rng = np.random.default_rng(seed) if weights is None else None
        params = self._params = {}
        for name, (shape, fan_in) in parameter_shapes(cfg).items():
            if weights is not None:
                data = np.array(weights[name], dtype=np.float64, order="C")
            else:
                bound = 1.0 / math.sqrt(fan_in) if fan_in else 0.0
                data = rng.uniform(-bound, bound, size=shape) if fan_in else np.zeros(shape)
            params[name] = Tensor(data, requires_grad=True)

        def under(prefix):  # in creation order, which is the weight classes' field order
            return [p for name, p in params.items() if name.startswith(prefix)]

        self.patch_weight, self.patch_bias = params["patch.w"], params["patch.b"]
        self.attention = AttentionWeights(*under("attn."))
        self.blocks = [TcBlockWeights(*under(f"block{i}."), dilation=dil)
                       for i, dil in enumerate(cfg.dilations)]
        self.head_weight, self.head_bias = params["head.w"], params["head.b"]

    def named_parameters(self) -> dict:
        """Every trainable tensor, keyed by a stable dotted name."""
        return dict(self._params)

    def forward(self, x) -> Tensor:
        """Logits for one window (C x L -> num_classes) or a batch
        (B x C x L -> B x num_classes)."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.ndim not in (2, 3):
            raise DimensionError(
                f"expected (channels, seq_len) or a batch thereof, got shape {x.shape}"
            )
        h = embed_patches(x, self.cfg, self.patch_weight, self.patch_bias)
        h = self_attention(h, self.attention)
        for blk in self.blocks:
            h = tc_block(h, blk)
        flat = T.reshape(h, x.shape[:-2] + (self.cfg.num_patches * self.cfg.model_dim,))
        return T.linear(flat, self.head_weight, self.head_bias)


def count_parameters(cfg: ModelConfig) -> tuple:
    """(total, breakdown): the trainable scalars of a model built from ``cfg``,
    without building it, and their sums by stage over ``parameter_shapes``."""
    stages = {"patch": "embedding", "attn": "attention", "block": "blocks", "head": "classifier"}
    breakdown = dict.fromkeys(stages.values(), 0)
    for name, (shape, _) in parameter_shapes(cfg).items():
        breakdown[stages[name.split(".")[0].rstrip("0123456789")]] += math.prod(shape)
    return sum(breakdown.values()), breakdown
