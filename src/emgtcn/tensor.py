"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is sized for the gesture classifier: elementwise add and
multiply, matrix multiplication, reshape/transpose, ReLU, last-dimension
softmax, dilated causal 1-D convolution, and three model stages as one
op each, which the model calls instead of composing the primitives:
``patch_embed`` (patch split and affine map), ``attention_block``
(self-attention with its residual add) and ``causal_conv_block`` (conv,
ReLU, conv, ReLU, residual add). Every op records its inputs and a
backward closure on the output node; ``Tensor.backward()`` replays the
resulting tape in reverse topological order and accumulates gradients
into every ``requires_grad`` ancestor.

The convolution is channels-last, matching the model's (..., N, D)
layout: its input ``x`` is (..., T, C_in) and its kernel is
(C_out, C_in, k).

Everything runs in 64-bit floats so finite-difference gradient checks
are meaningful. Data buffers are row-major numpy arrays. A tensor is
immutable once created (only its gradient buffer changes later): no op
writes into its inputs' arrays, and each finishes its own output in place.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionError, UsageError

__all__ = [
    "Tensor",
    "ComputationTape",
    "add",
    "mul",
    "matmul",
    "reshape",
    "transpose",
    "relu",
    "softmax_lastdim",
    "dilated_causal_conv1d",
    "causal_conv_block",
    "linear",
    "patch_embed",
    "attention_block",
    "make_op",
]


class Tensor:
    """n-dimensional float64 value, optionally tracked for gradients.

    ``data`` is always a C-contiguous (row-major) float64 array. ``grad``
    is ``None`` until a backward pass reaches this tensor.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        # ascontiguousarray would promote 0-d scalars to shape (1,)
        self.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._consumed = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self):
        tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    def backward(self) -> "ComputationTape":
        """Run reverse-mode accumulation from this scalar loss.

        Each call builds a fresh tape and returns it. The tape refers to
        this loss, but the loss keeps no reference to the tape, so the
        step's graph is freed by reference counting as soon as the caller
        drops the loss and the tape. Running marks this loss as consumed;
        calling again before ``tape.reset()`` is rejected so gradients
        cannot silently double.
        """
        if self.data.size != 1:
            raise UsageError(
                f"backward() needs a scalar loss; got shape {self.data.shape}"
            )
        tape = ComputationTape(self)
        tape.run()
        return tape


class ComputationTape:
    """Topologically ordered record of the ops reachable from one root.

    ``nodes`` lists parents before children, so iterating it in reverse
    visits the graph in reverse topological order. ``run()`` may only be
    invoked once per ``reset()``; the flag that enforces this lives on
    the root, so it also holds across tapes built from the same root.
    """

    def __init__(self, root: Tensor):
        self.root = root
        self.nodes = _topo_order(root)

    def run(self):
        if self.root._consumed:
            raise UsageError(
                "backward() already ran for this tape; call reset() before replaying"
            )
        self.root._consumed = True
        self.root.grad = np.ones_like(self.root.data)
        for node in reversed(self.nodes):
            if node._backward is None or node.grad is None:
                continue
            for parent, pgrad in zip(node._parents, node._backward(node.grad)):
                if pgrad is None:
                    continue
                if parent.grad is None:
                    parent.grad = pgrad.copy() if pgrad.base is not None else pgrad
                else:
                    parent.grad = parent.grad + pgrad

    def reset(self):
        """Clear all gradients so the tape can be replayed."""
        for node in self.nodes:
            node.grad = None
        self.root._consumed = False


def _topo_order(root: Tensor) -> list:
    """Iterative post-order DFS: parents appear before their consumers."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def make_op(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """Create the output node of a primitive op.

    ``backward_fn(grad_out)`` must return one gradient array (or ``None``)
    per parent, in order. Recording is skipped entirely when no parent
    requires gradients.
    """
    out = Tensor(data)
    for p in parents:
        if p.requires_grad:
            out.requires_grad, out._parents, out._backward = True, tuple(parents), backward_fn
            break
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- primitives --------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        ga = _unbroadcast(g, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return make_op(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        ga = _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None
        return ga, gb

    return make_op(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. 2-D operands contract as m*k @ k*n -> m*n; extra
    leading axes are treated as batch dimensions (numpy stacking rules).
    """
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul: cannot contract shapes {a.shape} and {b.shape}"
        )
    data = a.data @ b.data

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape)
        if b.requires_grad:
            gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape)
        return ga, gb

    return make_op(data, (a, b), backward)


def reshape(x: Tensor, shape) -> Tensor:
    """``x`` in a new shape; its value is a view of ``x``'s data."""
    return make_op(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.data.shape),))


def transpose(x: Tensor, axes) -> Tensor:
    """``x`` with its axes permuted; identity axes give a view of ``x``'s data."""
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return make_op(np.transpose(x.data, axes), (x,), lambda g: (np.transpose(g, inverse),))


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at 0 is taken as 0."""
    out = np.maximum(x.data, 0.0)
    return make_op(out, (x,), lambda g: (g * (out > 0),))


def _softmax(y):
    """``softmax_lastdim`` of ``y``, written over ``y``, and its backward half."""
    if y.size == 0 or y.ndim == 0 or y.shape[-1] < 1:
        raise DimensionError(
            f"softmax_lastdim needs a nonempty last dimension; got shape {y.shape}"
        )
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y, lambda g: y * (g - (g * y).sum(axis=-1, keepdims=True))


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the last dimension, stabilised by max subtraction."""
    y, backward = _softmax(x.data.copy())
    return make_op(y, (x,), lambda g: (backward(g),))


def _affine(x, weight, bias):
    """The checks and math of ``linear`` on arrays. Returns x @ weight +
    bias and ``backward(g, want_x, want_weight, want_bias)``, which gives
    (gx, gw, gb)."""
    if x.ndim < 1 or weight.ndim != 2 or x.shape[-1] != weight.shape[0]:
        raise DimensionError(
            f"linear: input shape {x.shape} does not match weight shape {weight.shape}"
        )
    if bias.shape != (weight.shape[1],):
        raise DimensionError(
            f"linear: bias shape {bias.shape} does not match weight shape {weight.shape}"
        )
    n_in, n_out = weight.shape

    def backward(g, want_x, want_weight, want_bias):
        gx = g @ weight.T if want_x else None
        gw = x.reshape(-1, n_in).T @ g.reshape(-1, n_out) if want_weight else None
        gb = g.reshape(-1, n_out).sum(axis=0) if want_bias else None
        return gx, gw, gb

    out = np.dot(x, weight) if x.ndim == 2 else x @ weight
    out += bias
    return out, backward


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map along the last dimension: x @ weight + bias.

    ``x`` may have any number of leading dimensions (including none);
    ``weight`` is in*out, ``bias`` is (out,).
    """
    parents = (x, weight, bias)
    out, backward = _affine(x.data, weight.data, bias.data)
    return make_op(out, parents, lambda g: backward(g, *(p.requires_grad for p in parents)))


def patch_embed(x: Tensor, weight: Tensor, bias: Tensor, num_patches: int) -> Tensor:
    """(..., C, L) -> (..., N, D) as one op: the last axis is cut into N
    patches of P = L/N samples, each flattened channel-major into a C*P
    row (the C-order copy of a transpose), then mapped by ``linear``."""
    parents = (x, weight, bias)
    if num_patches < 1:
        raise ConfigError(f"num_patches must be >= 1, got {num_patches}")
    if x.ndim < 2 or x.shape[-1] % num_patches:
        raise DimensionError(f"patch_embed: {x.shape} does not cut into {num_patches} patches")
    lead, (c, length) = x.shape[:-2], x.shape[-2:]
    cut = lead + (c, num_patches, length // num_patches)
    split = np.ascontiguousarray(x.data.reshape(cut).swapaxes(-3, -2))
    rows = split.reshape(lead + (num_patches, c * cut[-1]))
    out, backward = _affine(rows, weight.data, bias.data)

    def unsplit(g):
        gx, gw, gb = backward(g, *(p.requires_grad for p in parents))
        if gx is not None:
            gx = gx.reshape(split.shape).swapaxes(-3, -2).reshape(x.shape)
        return gx, gw, gb

    return make_op(out, parents, unsplit)


def attention_block(e, wq, bq, wk, bk, wv, bv, wo, bo) -> Tensor:
    """e + linear(softmax(q k^T / sqrt(D)) v, wo, bo) as one op, q, k and v
    being affine images of e (..., N, D). To equal the composed ops bit for
    bit it copies k^T and the k gradient to C order, and sums e's gradient
    in the tape's order: residual, then the q, k and v terms."""
    parents = (e, wq, bq, wk, bk, wv, bv, wo, bo)
    if e.ndim < 2:
        raise DimensionError(f"attention: input shape {e.shape} is not (..., N, D)")
    (q, back_q), (k, back_k), (v, back_v) = (
        _affine(e.data, w.data, b.data) for w, b in ((wq, bq), (wk, bk), (wv, bv))
    )
    kt = np.ascontiguousarray(k.swapaxes(-1, -2))
    if q.shape[-1] != kt.shape[-2]:
        raise DimensionError(f"matmul: cannot contract shapes {q.shape} and {kt.shape}")
    scale = np.asarray(1.0 / math.sqrt(e.shape[-1]))
    s = q @ kt
    s *= scale
    a, back_a = _softmax(s)
    o, back_o = _affine(a @ v, wo.data, bo.data)
    if o.shape != e.shape:
        raise DimensionError(f"attention: output {o.shape} is not input shape {e.shape}")

    def backward(g):
        want = [p.requires_grad for p in parents]
        gm, gwo, gbo = back_o(g, any(want[:7]), *want[7:])
        if gm is None:
            return (None,) * 7 + (gwo, gbo)
        gs = back_a(gm @ v.swapaxes(-1, -2)) * scale
        ge_q, gwq, gbq = back_q(gs @ kt.swapaxes(-1, -2), *want[:3])
        gk = (q.swapaxes(-1, -2) @ gs).swapaxes(-1, -2).copy()
        ge_k, gwk, gbk = back_k(gk, want[0], *want[3:5])
        ge_v, gwv, gbv = back_v(a.swapaxes(-1, -2) @ gm, want[0], *want[5:7])
        ge = ((g + ge_q) + ge_k) + ge_v if want[0] else None
        return ge, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo

    o += e.data
    return make_op(o, parents, backward)


def _conv_forward(x, kernel, bias, dilation):
    """The checks and forward half of ``dilated_causal_conv1d``, on arrays:
    the k shifted taps go side by side into one zero-initialised
    (..., T, k*channels_in) array for one matrix product (im2col). Returns
    the output and ``backward(g, want_x, want_kernel, want_bias)``, which
    adds each tap's shifted gradient slice in tap order. A tap reaching T
    or more steps back reads only zeros and is skipped both ways."""
    if type(dilation) is bool or not isinstance(dilation, (int, np.integer)) or dilation < 1:
        raise ConfigError(f"dilation must be a positive integer, got {dilation!r}")
    if kernel.ndim != 3 or kernel.size == 0:
        raise ConfigError(
            f"kernel must be channels_out*channels_in*k and nonempty, got shape {kernel.shape}"
        )
    if x.ndim not in (2, 3) or x.shape[-1] != kernel.shape[1]:
        raise DimensionError(
            f"conv1d: input shape {x.shape} does not match kernel shape {kernel.shape}"
        )
    c_out, c_in, k = kernel.shape
    if bias.shape != (c_out,):
        raise DimensionError(
            f"conv1d: bias shape {bias.shape} does not match {c_out} output channels"
        )
    t_len = x.shape[-2]
    # row i*c_in + c of the (k*c_in, c_out) kernel matrix holds kernel[:, c, i]
    taps = np.zeros(x.shape[:-1] + (k * c_in,))
    live = []  # (tap index, shift back in time) for every tap that reads any input
    for i in range(k):
        if (shift := (k - 1 - i) * dilation) < t_len:
            taps[..., shift:, i * c_in : (i + 1) * c_in] = x[..., : t_len - shift, :]
            live.append((i, shift))
    taps = taps.reshape(-1, k * c_in)
    w_mat = kernel.transpose(2, 1, 0).reshape(k * c_in, c_out)
    out = np.dot(taps, w_mat)
    out += bias

    def backward(g, want_x, want_kernel, want_bias):
        gx = gk = gb = None
        g2 = g.reshape(-1, c_out)
        if want_x:
            gtaps = (g2 @ w_mat.T).reshape(x.shape[:-1] + (k * c_in,))
            gx = np.zeros(x.shape)
            for i, shift in live:
                gx[..., : t_len - shift, :] += gtaps[..., shift:, i * c_in : (i + 1) * c_in]
        if want_kernel:
            gk = (taps.T @ g2).reshape(k, c_in, c_out).transpose(2, 1, 0)
        if want_bias:
            gb = g2.sum(axis=0)
        return gx, gk, gb

    return out.reshape(x.shape[:-1] + (c_out,)), backward


def dilated_causal_conv1d(x: Tensor, kernel: Tensor, bias: Tensor, dilation: int) -> Tensor:
    """Causal 1-D convolution with dilated taps and per-channel bias.

    ``x`` is channels-last, (T, channels_in) or (batch, T, channels_in);
    ``kernel`` is (channels_out, channels_in, k). Tap i reads the input
    (k-1-i)*dilation steps back, and positions before the start read
    zero, so the output keeps length T and output t only reads inputs at
    positions <= t.
    """
    parents = (x, kernel, bias)
    out, backward = _conv_forward(x.data, kernel.data, bias.data, dilation)
    return make_op(out, parents, lambda g: backward(g, *(p.requires_grad for p in parents)))


def causal_conv_block(h, kernel1, bias1, kernel2, bias2, dilation: int) -> Tensor:
    """h + relu(conv2(relu(conv1(h)))) as one op, bit for bit equal to the
    composed ops; backward reads each ReLU mask as r > 0 from its output r."""
    c1, backward1 = _conv_forward(h.data, kernel1.data, bias1.data, dilation)
    r1 = np.maximum(c1, 0.0, out=c1)
    c2, backward2 = _conv_forward(r1, kernel2.data, bias2.data, dilation)
    r2 = np.maximum(c2, 0.0, out=c2)
    if r2.shape != h.shape:
        raise DimensionError(f"conv block: output {r2.shape} is not input shape {h.shape}")

    def backward(g):
        want = [p.requires_grad for p in (h, kernel1, bias1, kernel2, bias2)]
        gr1, gk2, gb2 = backward2(g * (r2 > 0), any(want[:3]), *want[3:])
        gh, gk1, gb1 = backward1(gr1 * (r1 > 0), *want[:3]) if any(want[:3]) else [None] * 3
        return (g + gh if want[0] else None), gk1, gb1, gk2, gb2

    return make_op(h.data + r2, (h, kernel1, bias1, kernel2, bias2), backward)
