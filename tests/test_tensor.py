import gc
import math
import weakref

import numpy as np
import pytest

from emgtcn import tensor as T
from emgtcn.errors import ConfigError, DimensionError, UsageError
from emgtcn.tensor import add, mul
from composed_ops import sum_all
from gradcheck import fd_grad, max_rel_err

# softmax([1,2,3]) evaluated at 40 decimal digits and rounded to float64
SOFTMAX_123 = np.array(
    [0.090030573170380458, 0.24472847105479765, 0.6652409557748219]
)


def test_matmul_identity():
    a = T.Tensor(np.eye(2))
    b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.matmul(a, b).data, b.data)


def test_matmul_row_times_column():
    out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_grad_of_sum_is_ones_times_bt():
    rng = np.random.default_rng(7)
    a = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    sum_all(T.matmul(a, b)).backward()
    assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T, atol=1e-12)

    num = fd_grad(lambda: float((a.data @ b.data).sum()), a.data)
    assert max_rel_err(a.grad, num) <= 1e-6


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(err.value)


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(3)
    a = T.Tensor(rng.normal(size=(5, 3, 4)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    out = T.matmul(a, b)
    for i in range(5):
        assert np.allclose(out.data[i], a.data[i] @ b.data, atol=1e-12)
    sum_all(out).backward()
    num = fd_grad(lambda: float((a.data @ b.data).sum()), b.data)
    assert max_rel_err(b.grad, num) <= 1e-6


def test_softmax_uniform_on_equal_logits():
    out = T.softmax_lastdim(T.Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, np.full(3, 1.0 / 3.0), atol=1e-15)


def test_softmax_large_logits_no_overflow():
    out = T.softmax_lastdim(T.Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(1.0, abs=1e-12)
    assert out.data[1] == pytest.approx(0.0, abs=1e-12)


def test_softmax_reference_values():
    out = T.softmax_lastdim(T.Tensor([1.0, 2.0, 3.0]))
    assert np.allclose(out.data, SOFTMAX_123, rtol=0, atol=1e-15)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 6)) * 3
    out = T.softmax_lastdim(T.Tensor(x))
    assert np.allclose(out.data.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    shifted = T.softmax_lastdim(T.Tensor(x + 17.25))
    assert np.allclose(out.data, shifted.data, rtol=0, atol=1e-12)


def test_softmax_empty_rejected():
    with pytest.raises(DimensionError):
        T.softmax_lastdim(T.Tensor(np.zeros((2, 0))))


def test_softmax_gradient():
    rng = np.random.default_rng(13)
    x = T.Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    w = rng.normal(size=(2, 5))
    sum_all(mul(T.softmax_lastdim(x), T.Tensor(w))).backward()

    def loss():
        e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
        return float((e / e.sum(axis=-1, keepdims=True) * w).sum())

    assert max_rel_err(x.grad, fd_grad(loss, x.data)) <= 1e-6


def test_relu_values():
    out = T.relu(T.Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_all_negative_zero_grad():
    x = T.Tensor([-3.0, -0.5, -2.0], requires_grad=True)
    out = T.relu(x)
    assert np.array_equal(out.data, np.zeros(3))
    sum_all(out).backward()
    assert np.array_equal(x.grad, np.zeros(3))


def test_relu_gradient_matches_fd():
    rng = np.random.default_rng(17)
    vals = rng.normal(size=20)
    vals[np.abs(vals) < 0.05] = 0.5  # keep the FD probe away from the kink
    x = T.Tensor(vals, requires_grad=True)
    w = rng.normal(size=20)
    sum_all(mul(T.relu(x), T.Tensor(w))).backward()
    num = fd_grad(lambda: float((np.maximum(x.data, 0.0) * w).sum()), x.data)
    assert max_rel_err(x.grad, num) <= 1e-6


def test_conv_zero_input_zero_output():
    x = T.Tensor(np.zeros((8, 2)))
    k = T.Tensor(np.ones((3, 2, 2)))
    out = T.dilated_causal_conv1d(x, k, T.Tensor(np.zeros(3)), dilation=1)
    assert np.array_equal(out.data, np.zeros((8, 3)))


def test_conv_identity_kernel():
    x = T.Tensor([[1.0], [2.0], [3.0]])
    k = T.Tensor([[[0.0, 1.0]]])
    out = T.dilated_causal_conv1d(x, k, T.Tensor(np.zeros(1)), dilation=1)
    assert np.array_equal(out.data, [[1.0], [2.0], [3.0]])


def test_conv_dilation_two_hand_oracle():
    # out[t] = x[t] + x[t-2], zero-padded on the left
    x = T.Tensor([[1.0], [2.0], [3.0], [4.0]])
    k = T.Tensor([[[1.0, 1.0]]])
    out = T.dilated_causal_conv1d(x, k, T.Tensor(np.zeros(1)), dilation=2)
    assert np.array_equal(out.data, [[1.0], [2.0], [4.0], [6.0]])


def test_conv_causality_exact():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(3, 16)).T
    k = T.Tensor(rng.normal(size=(4, 3, 3)))
    b = T.Tensor(rng.normal(size=4))
    base = T.dilated_causal_conv1d(T.Tensor(x), k, b, dilation=2).data
    t = 9
    bumped = x.copy()
    bumped[t, :] += 100.0
    out = T.dilated_causal_conv1d(T.Tensor(bumped), k, b, dilation=2).data
    assert np.array_equal(out[:t, :], base[:t, :])
    assert not np.array_equal(out[t:, :], base[t:, :])


def test_conv_rejects_bad_dilation_and_empty_kernel():
    x = T.Tensor(np.zeros((4, 1)))
    b = T.Tensor(np.zeros(1))
    with pytest.raises(ConfigError):
        T.dilated_causal_conv1d(x, T.Tensor(np.zeros((1, 1, 2))), b, dilation=0)
    with pytest.raises(ConfigError):
        T.dilated_causal_conv1d(x, T.Tensor(np.zeros((1, 1, 0))), b, dilation=1)


def test_conv_channel_mismatch_rejected():
    with pytest.raises(DimensionError):
        T.dilated_causal_conv1d(
            T.Tensor(np.zeros((4, 2))),
            T.Tensor(np.zeros((1, 3, 2))),
            T.Tensor(np.zeros(1)),
            dilation=1,
        )


def test_conv_gradients_match_fd():
    rng = np.random.default_rng(23)
    x = T.Tensor(rng.normal(size=(2, 7)).T, requires_grad=True)
    k = T.Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
    b = T.Tensor(rng.normal(size=3), requires_grad=True)
    w = rng.normal(size=(3, 7)).T
    sum_all(mul(T.dilated_causal_conv1d(x, k, b, dilation=2), T.Tensor(w))).backward()

    def loss():
        out = T.dilated_causal_conv1d(
            T.Tensor(x.data), T.Tensor(k.data), T.Tensor(b.data), dilation=2
        )
        return float((out.data * w).sum())

    for param in (x, k, b):
        assert max_rel_err(param.grad, fd_grad(loss, param.data)) <= 1e-6


def test_conv_batched_matches_per_example():
    rng = np.random.default_rng(29)
    xs = rng.normal(size=(4, 2, 10)).transpose(0, 2, 1)
    k = T.Tensor(rng.normal(size=(3, 2, 2)))
    b = T.Tensor(rng.normal(size=3))
    batched = T.dilated_causal_conv1d(T.Tensor(xs), k, b, dilation=4).data
    for i in range(4):
        single = T.dilated_causal_conv1d(T.Tensor(xs[i]), k, b, dilation=4).data
        assert np.array_equal(batched[i], single)


def _loop_conv(x, kernel, bias, dilation, g):
    """Per-output-position reference: out[t] = b + sum_i K[:, :, i] x[t - (k-1-i)d].

    Returns the output and the x/kernel/bias gradients of sum(out * g),
    for channels-last x of shape (B, T, C_in).
    """
    c_out, _, k = kernel.shape
    batch, t_len, _ = x.shape
    out = np.zeros((batch, t_len, c_out))
    gx, gk, gb = np.zeros_like(x), np.zeros_like(kernel), np.zeros_like(bias)
    for n in range(batch):
        for t in range(t_len):
            out[n, t] = bias
            gb += g[n, t]
            for i in range(k):
                src = t - (k - 1 - i) * dilation
                if src < 0:
                    continue
                out[n, t] += kernel[:, :, i] @ x[n, src]
                gx[n, src] += kernel[:, :, i].T @ g[n, t]
                gk[:, :, i] += np.outer(g[n, t], x[n, src])
    return out, gx, gk, gb


@pytest.mark.parametrize("dilation", [1, 2, 4, 8])
@pytest.mark.parametrize("batched", [True, False])
def test_conv_matches_loop_oracle(dilation, batched):
    # model shapes: B=32, T=N=15, C=D=16, k=3; at dilation 8 the oldest
    # tap reaches (k-1)*8 = 16 >= T steps back and reads only padding
    rng = np.random.default_rng(47 + dilation)
    shape = (32, 15, 16) if batched else (15, 16)
    x = T.Tensor(rng.normal(size=shape), requires_grad=True)
    k = T.Tensor(rng.normal(size=(16, 16, 3)), requires_grad=True)
    b = T.Tensor(rng.normal(size=16), requires_grad=True)
    g = rng.normal(size=shape)
    out = T.dilated_causal_conv1d(x, k, b, dilation=dilation)
    sum_all(mul(out, T.Tensor(g))).backward()

    lead = (1,) if not batched else ()
    want_out, want_gx, want_gk, want_gb = _loop_conv(
        x.data.reshape(lead + shape), k.data, b.data, dilation, g.reshape(lead + shape)
    )
    tol = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.data, want_out.reshape(shape), **tol)
    np.testing.assert_allclose(x.grad, want_gx.reshape(shape), **tol)
    np.testing.assert_allclose(k.grad, want_gk, **tol)
    np.testing.assert_allclose(b.grad, want_gb, **tol)


@pytest.mark.parametrize("batched", [True, False])
def test_conv_reach_beyond_window_matches_loop_oracle(batched):
    # T=3, k=3, dilation 4: taps 0 and 1 reach 8 and 4 >= T steps back,
    # read nothing and are skipped, so only the newest tap contributes
    rng = np.random.default_rng(53)
    shape = (5, 3, 4) if batched else (3, 4)
    x = T.Tensor(rng.normal(size=shape), requires_grad=True)
    k = T.Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    b = T.Tensor(rng.normal(size=2), requires_grad=True)
    g = rng.normal(size=shape[:-1] + (2,))
    out = T.dilated_causal_conv1d(x, k, b, dilation=4)
    sum_all(mul(out, T.Tensor(g))).backward()

    lead = (1,) if not batched else ()
    want_out, want_gx, want_gk, want_gb = _loop_conv(
        x.data.reshape(lead + shape), k.data, b.data, 4, g.reshape(lead + g.shape)
    )
    tol = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.data, want_out.reshape(out.shape), **tol)
    np.testing.assert_allclose(x.grad, want_gx.reshape(shape), **tol)
    np.testing.assert_allclose(k.grad, want_gk, **tol)
    np.testing.assert_allclose(b.grad, want_gb, **tol)
    assert not k.grad[:, :, :2].any()


def _composed_block(h, k1, b1, k2, b2, dilation):
    """The TC block built from the public primitives, op by op."""
    seq = T.relu(T.dilated_causal_conv1d(h, k1, b1, dilation))
    return T.add(h, T.relu(T.dilated_causal_conv1d(seq, k2, b2, dilation)))


def _block_inputs(seed, shape, trainable, k=3):
    rng = np.random.default_rng(seed)
    d = shape[-1]
    arrays = (
        rng.normal(size=shape),
        rng.normal(size=(d, d, k)), rng.normal(size=d),
        rng.normal(size=(d, d, k)), rng.normal(size=d),
    )
    return [T.Tensor(a, requires_grad=t) for a, t in zip(arrays, trainable)]


@pytest.mark.parametrize("trainable", [
    (True,) * 5,
    (False, True, True, True, True),
    (False, False, False, True, True),
    (True, False, False, False, False),
], ids=["all", "params", "conv2-only", "h-only"])
@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("dilation", [1, 2, 4, 8])
def test_conv_block_equals_composition_bit_for_bit(dilation, batched, trainable):
    # N=10, k=3: at dilation 8 the oldest tap reaches 16 >= N steps back
    shape = (4, 10, 6) if batched else (10, 6)
    g = np.random.default_rng(61).normal(size=shape)
    results = []
    for block in (T.causal_conv_block, _composed_block):
        inputs = _block_inputs(59 + dilation, shape, trainable)
        out = block(*inputs, dilation)
        sum_all(mul(out, T.Tensor(g))).backward()
        results.append((out.data, [p.grad for p in inputs]))
    (fused, fused_grads), (composed, composed_grads) = results
    assert fused.tobytes() == composed.tobytes()
    for want, got, trains in zip(composed_grads, fused_grads, trainable):
        assert (got is None) == (not trains)
        if trains:
            assert got.tobytes() == want.tobytes()


def test_conv_block_gradients_match_fd():
    inputs = _block_inputs(67, (2, 10, 3), (True,) * 5, k=2)
    w = np.random.default_rng(71).normal(size=(2, 10, 3))
    sum_all(mul(T.causal_conv_block(*inputs, 2), T.Tensor(w))).backward()

    def loss():
        out = T.causal_conv_block(*(T.Tensor(p.data) for p in inputs), 2)
        return float((out.data * w).sum())

    for p in inputs:
        assert max_rel_err(p.grad, fd_grad(loss, p.data)) <= 1e-6


@pytest.mark.parametrize("change, error", [
    (dict(dilation=0), ConfigError),
    (dict(k1=np.zeros((4, 4, 0))), ConfigError),
    (dict(k1=np.zeros((3, 4, 3)), b1=np.zeros(3)), DimensionError),
    (dict(b1=np.zeros(5)), DimensionError),
    (dict(b2=np.zeros((4, 1))), DimensionError),
], ids=["dilation", "empty-kernel", "kernel2-in-channels", "bias1", "bias2"])
def test_conv_block_refuses_what_the_composition_refuses(change, error):
    args = dict(
        h=np.ones((10, 4)), k1=np.ones((4, 4, 3)), b1=np.zeros(4),
        k2=np.ones((4, 4, 3)), b2=np.zeros(4), dilation=1,
    ) | change
    dilation = args.pop("dilation")
    messages = []
    for block in (T.causal_conv_block, _composed_block):
        with pytest.raises(error) as caught:
            block(*(T.Tensor(a) for a in args.values()), dilation)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def test_conv_block_refuses_output_channels_unlike_its_input():
    h, k1, b1, k2, b2 = (
        T.Tensor(a) for a in (
            np.ones((10, 4)), np.ones((4, 4, 3)), np.zeros(4), np.ones((1, 4, 3)), np.zeros(1)
        )
    )
    with pytest.raises(DimensionError, match=r"output \(10, 1\) is not input shape \(10, 4\)"):
        T.causal_conv_block(h, k1, b1, k2, b2, 1)


def test_frozen_conv_block_records_no_backward():
    out = T.causal_conv_block(*_block_inputs(73, (10, 4), (False,) * 5), 2)
    assert out._backward is None and out._parents == ()


def _composed_embed(x, w, b, n):
    """The patch embedding built from the public primitives, op by op."""
    lead, (c, length) = x.shape[:-2], x.shape[-2:]
    parts = T.reshape(x, lead + (c, n, length // n))
    nd = parts.ndim
    axes = tuple(range(nd - 3)) + (nd - 2, nd - 3, nd - 1)
    return T.linear(T.reshape(T.transpose(parts, axes), lead + (n, c * (length // n))), w, b)


def _composed_attention(e, wq, bq, wk, bk, wv, bv, wo, bo):
    """The attention stage built from the public primitives, op by op."""
    q, k, v = T.linear(e, wq, bq), T.linear(e, wk, bk), T.linear(e, wv, bv)
    axes = tuple(range(e.ndim - 2)) + (e.ndim - 1, e.ndim - 2)
    scale = T.Tensor(1.0 / math.sqrt(e.shape[-1]))
    scores = T.mul(T.matmul(q, T.transpose(k, axes)), scale)
    return T.add(e, T.linear(T.matmul(T.softmax_lastdim(scores), v), wo, bo))


def _embed_inputs(seed, lead, trainable, c=12, length=400, d=12, n=10):
    rng = np.random.default_rng(seed)
    arrays = (
        rng.normal(size=lead + (c, length)), rng.normal(size=(c * (length // n), d)),
        rng.normal(size=d),
    )
    return [T.Tensor(a, requires_grad=t) for a, t in zip(arrays, trainable)]


def _attention_inputs(seed, lead, trainable, n=10, d=12):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=lead + (n, d))]
    for _ in "qkvo":
        arrays += [rng.normal(size=(d, d)) / math.sqrt(d), rng.normal(size=d)]
    return [T.Tensor(a, requires_grad=t) for a, t in zip(arrays, trainable)]


def _assert_equals_composition(fused, composed, make_inputs, trainable, g, *extra):
    """The fused op's output and gradients equal its composition's byte for
    byte, each run on fresh copies of the same inputs against upstream g."""
    results = []
    for op in (fused, composed):
        inputs = make_inputs()
        out = op(*inputs, *extra)
        sum_all(mul(out, T.Tensor(g))).backward()
        results.append((out.data, [p.grad for p in inputs]))
    (fused_out, fused_grads), (composed_out, composed_grads) = results
    assert fused_out.tobytes() == composed_out.tobytes()
    for want, got, trains in zip(composed_grads, fused_grads, trainable):
        assert (got is None) == (not trains)
        if trains:
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("trainable", [
    (True,) * 3, (False, True, True), (True, False, False), (False, True, False),
], ids=["all", "params", "x-only", "weight-only"])
@pytest.mark.parametrize("lead", [(), (1,), (4,)], ids=["unbatched", "B1", "B4"])
def test_patch_embed_equals_composition_bit_for_bit(lead, trainable):
    g = np.random.default_rng(83).normal(size=lead + (10, 12))
    _assert_equals_composition(
        T.patch_embed, _composed_embed, lambda: _embed_inputs(79, lead, trainable),
        trainable, g, 10,
    )


@pytest.mark.parametrize("trainable", [
    (True,) * 9,
    (False,) + (True,) * 8,
    (True,) + (False,) * 8,
    (False, False, False, True, True, False, False, False, False),
    (False,) * 7 + (True, True),
], ids=["all", "params", "e-only", "k-only", "out-only"])
@pytest.mark.parametrize("lead", [(), (1,), (4,)], ids=["unbatched", "B1", "B4"])
def test_attention_block_equals_composition_bit_for_bit(lead, trainable):
    g = np.random.default_rng(89).normal(size=lead + (10, 12))
    _assert_equals_composition(
        T.attention_block, _composed_attention,
        lambda: _attention_inputs(97, lead, trainable), trainable, g,
    )


def test_patch_embed_gradients_match_fd():
    inputs = _embed_inputs(101, (2,), (True,) * 3, c=2, length=12, d=3, n=4)
    w = np.random.default_rng(103).normal(size=(2, 4, 3))
    sum_all(mul(T.patch_embed(*inputs, 4), T.Tensor(w))).backward()

    def loss():
        out = T.patch_embed(*(T.Tensor(p.data) for p in inputs), 4)
        return float((out.data * w).sum())

    for p in inputs:
        assert max_rel_err(p.grad, fd_grad(loss, p.data)) <= 1e-6


def test_attention_block_gradients_match_fd():
    inputs = _attention_inputs(107, (2,), (True,) * 9, n=4, d=3)
    w = np.random.default_rng(109).normal(size=(2, 4, 3))
    sum_all(mul(T.attention_block(*inputs), T.Tensor(w))).backward()

    def loss():
        out = T.attention_block(*(T.Tensor(p.data) for p in inputs))
        return float((out.data * w).sum())

    for p in inputs:
        assert max_rel_err(p.grad, fd_grad(loss, p.data)) <= 1e-6


def test_frozen_patch_embed_and_attention_record_no_backward():
    for out in (
        T.patch_embed(*_embed_inputs(113, (2,), (False,) * 3), 10),
        T.attention_block(*_attention_inputs(127, (2,), (False,) * 9)),
    ):
        assert out._backward is None and out._parents == ()


@pytest.mark.parametrize("change", [
    dict(w=np.zeros((479, 12))), dict(w=np.zeros(480)), dict(b=np.zeros(11)),
], ids=["weight-rows", "weight-rank", "bias"])
def test_patch_embed_refuses_what_the_composition_refuses(change):
    args = dict(x=np.ones((2, 12, 400)), w=np.ones((480, 12)), b=np.zeros(12)) | change
    messages = []
    for op in (T.patch_embed, _composed_embed):
        with pytest.raises(DimensionError) as caught:
            op(*(T.Tensor(a) for a in args.values()), 10)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("name, shape", [
    ("wq", (11, 12)), ("bq", (11,)), ("wk", (12, 11)), ("bk", (12, 1)),
    ("wv", (11, 12)), ("bv", (13,)), ("wo", (11, 12)), ("bo", (11,)),
])
def test_attention_block_refuses_what_the_composition_refuses(name, shape):
    args = dict(e=np.ones((2, 10, 12))) | {
        f"{kind}{role}": np.ones((12, 12)) if kind == "w" else np.zeros(12)
        for role in "qkvo" for kind in "wb"
    }
    args[name] = np.ones(shape)
    messages = []
    for op in (T.attention_block, _composed_attention):
        with pytest.raises(DimensionError) as caught:
            op(*(T.Tensor(a) for a in args.values()))
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("call, error, match", [
    (lambda: T.patch_embed(*_embed_inputs(1, (), (False,) * 3), 0), ConfigError, "got 0"),
    (lambda: T.patch_embed(*_embed_inputs(1, (), (False,) * 3, length=401), 10), DimensionError,
     r"\(12, 401\) does not cut into 10 patches"),
    (lambda: T.patch_embed(T.Tensor(np.ones(400)), T.Tensor(np.ones((480, 12))),
                           T.Tensor(np.zeros(12)), 10), DimensionError, r"\(400,\)"),
    (lambda: T.attention_block(T.Tensor(np.ones(12)), *_attention_inputs(1, (), (False,) * 9)[1:]),
     DimensionError, r"input shape \(12,\)"),
    (lambda: T.linear(T.Tensor(1.0), T.Tensor(np.ones((1, 1))), T.Tensor(np.zeros(1))),
     DimensionError, r"input shape \(\)"),
    (lambda: T.dilated_causal_conv1d(*_block_inputs(1, (10, 4), (False,) * 3), True),
     ConfigError, "got True"),
    (lambda: T.causal_conv_block(*_block_inputs(1, (10, 4), (False,) * 5), True), ConfigError,
     "got True"),
], ids=["embed-no-patches", "embed-uneven-patches", "embed-1d", "attention-1d", "linear-0d",
        "conv-bool-dilation", "block-bool-dilation"])
def test_stage_ops_refuse_malformed_calls(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_attention_block_refuses_output_width_unlike_its_input():
    e, wq, bq, wk, bk, wv, bv = _attention_inputs(131, (), (False,) * 7)
    wo, bo = T.Tensor(np.ones((12, 1))), T.Tensor(np.zeros(1))
    with pytest.raises(DimensionError, match=r"output \(10, 1\) is not input shape \(10, 12\)"):
        T.attention_block(e, wq, bq, wk, bk, wv, bv, wo, bo)


def test_attention_block_refuses_queries_and_keys_of_different_widths():
    inputs = list(_attention_inputs(131, (), (False,) * 9))
    inputs[1:3] = T.Tensor(np.ones((12, 11))), T.Tensor(np.zeros(11))  # wq, bq
    with pytest.raises(DimensionError, match=r"cannot contract shapes \(10, 11\) and"):
        T.attention_block(*inputs)


def test_linear_identity():
    x = T.Tensor([[1.5, -2.0]])
    out = T.linear(x, T.Tensor(np.eye(2)), T.Tensor(np.zeros(2)))
    assert np.array_equal(out.data, x.data)


def test_linear_affine_values():
    out = T.linear(
        T.Tensor([1.0, 1.0]), T.Tensor(np.eye(2)), T.Tensor([5.0, -5.0])
    )
    assert np.array_equal(out.data, [6.0, -4.0])


def test_linear_shape_mismatch():
    with pytest.raises(DimensionError):
        T.linear(T.Tensor(np.zeros(3)), T.Tensor(np.zeros((2, 2))), T.Tensor(np.zeros(2)))
    with pytest.raises(DimensionError):
        T.linear(T.Tensor(np.zeros(2)), T.Tensor(np.zeros((2, 2))), T.Tensor(np.zeros(3)))


def test_linear_weight_gradient_matches_fd():
    rng = np.random.default_rng(31)
    x = T.Tensor(rng.normal(size=(4, 3)))
    w = T.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = T.Tensor(rng.normal(size=2), requires_grad=True)
    c = rng.normal(size=(4, 2))
    sum_all(mul(T.linear(x, w, b), T.Tensor(c))).backward()

    def loss():
        return float(((x.data @ w.data + b.data) * c).sum())

    assert max_rel_err(w.grad, fd_grad(loss, w.data)) <= 1e-6
    assert max_rel_err(b.grad, fd_grad(loss, b.data)) <= 1e-6


def test_backward_sum_gives_ones():
    x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    sum_all(x).backward()
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_elementwise_square():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    sum_all(mul(x, x)).backward()
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(UsageError):
        mul(x, x).backward()


def test_double_backward_without_reset_rejected():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    loss = sum_all(mul(x, x))
    tape = loss.backward()
    with pytest.raises(UsageError):
        loss.backward()
    tape.reset()
    assert x.grad is None
    loss.backward()
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_second_backward_refused_after_tape_dropped():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    loss = sum_all(mul(x, x))
    loss.backward()  # the returned tape is dropped at once
    with pytest.raises(UsageError):
        loss.backward()
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_graph_freed_when_loss_and_tape_dropped():
    rng = np.random.default_rng(47)
    x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    gc.collect()
    gc.disable()
    try:
        hidden = T.matmul(x, w)
        loss = sum_all(T.relu(hidden))
        tape = loss.backward()
        # Tensor has no __weakref__ slot; these arrays are owned by the graph alone
        refs = [weakref.ref(hidden.data), weakref.ref(loss.data)]
        del hidden, loss, tape
        assert all(r() is None for r in refs)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert x.grad.shape == (3, 4) and w.grad.shape == (4, 2)


def test_grad_accumulates_across_uses():
    x = T.Tensor([3.0], requires_grad=True)
    sum_all(add(x, x)).backward()
    assert np.array_equal(x.grad, [2.0])


def test_reshape_transpose_gradients():
    rng = np.random.default_rng(37)
    x = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = rng.normal(size=(4, 6))
    out = T.transpose(T.reshape(x, (6, 4)), (1, 0))
    sum_all(mul(out, T.Tensor(w))).backward()
    num = fd_grad(
        lambda: float((x.data.reshape(6, 4).T * w).sum()), x.data
    )
    assert max_rel_err(x.grad, num) <= 1e-6


def test_composite_graph_matches_fd():
    # attention-like mix: softmax(QK^T/sqrt(d)) V, a dilated conv, relu, linear
    rng = np.random.default_rng(41)
    d = 3
    q = T.Tensor(rng.normal(size=(4, d)), requires_grad=True)
    kx = T.Tensor(rng.normal(size=(4, d)), requires_grad=True)
    v = T.Tensor(rng.normal(size=(4, d)), requires_grad=True)
    kern = T.Tensor(rng.normal(size=(d, d, 2)), requires_grad=True)
    cb = T.Tensor(rng.normal(size=d), requires_grad=True)
    w = T.Tensor(rng.normal(size=(d, 2)), requires_grad=True)
    b = T.Tensor(rng.normal(size=2), requires_grad=True)
    params = {"q": q, "k": kx, "v": v, "kern": kern, "cb": cb, "w": w, "b": b}

    def forward(np_mode: bool):
        if np_mode:
            scores = q.data @ kx.data.T / np.sqrt(d)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            att = (e / e.sum(axis=-1, keepdims=True)) @ v.data
            conv = T.dilated_causal_conv1d(
                T.Tensor(att), T.Tensor(kern.data), T.Tensor(cb.data), dilation=2
            ).data
            h = np.maximum(conv, 0.0)
            return float((h @ w.data + b.data).sum())
        scores = mul(T.matmul(q, T.transpose(kx, (1, 0))), T.Tensor(1.0 / np.sqrt(d)))
        att = T.matmul(T.softmax_lastdim(scores), v)
        conv = T.dilated_causal_conv1d(att, kern, cb, dilation=2)
        return sum_all(T.linear(T.relu(conv), w, b))

    forward(False).backward()
    for name, p in params.items():
        num = fd_grad(lambda: forward(True), p.data)
        err = max_rel_err(p.grad, num)
        assert err <= 1e-4, f"{name}: rel err {err}"
        assert np.all(np.isfinite(p.grad))


def test_tape_determinism_bit_identical():
    rng = np.random.default_rng(43)
    x0 = rng.normal(size=(3, 5))
    w0 = rng.normal(size=(5, 4))

    def run():
        x = T.Tensor(x0, requires_grad=True)
        w = T.Tensor(w0, requires_grad=True)
        out = T.softmax_lastdim(T.matmul(x, w))
        sum_all(T.relu(out)).backward()
        return out.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


@pytest.mark.parametrize("op", [T.add, T.mul], ids=["add", "mul"])
def test_broadcast_along_an_inner_axis_sums_its_gradient(op):
    rng = np.random.default_rng(47)
    a = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    coeffs = rng.normal(size=(3, 4))
    sum_all(mul(op(a, b), T.Tensor(coeffs))).backward()
    assert a.grad.shape == (3, 4) and b.grad.shape == (3, 1)

    def loss():
        return float((op(T.Tensor(a.data), T.Tensor(b.data)).data * coeffs).sum())

    assert max_rel_err(a.grad, fd_grad(loss, a.data)) <= 1e-6
    assert max_rel_err(b.grad, fd_grad(loss, b.data)) <= 1e-6


def test_repr_gives_shape_and_tracking():
    assert repr(T.Tensor(np.zeros((2, 3)))) == "Tensor(shape=(2, 3))"
    assert repr(T.Tensor(1.0, requires_grad=True)) == "Tensor(shape=(), requires_grad=True)"
