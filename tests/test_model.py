import math

import numpy as np
import pytest

from emgtcn.data import Recording
from emgtcn.errors import ConfigError, DimensionError
from emgtcn.model import (
    AttentionTcn,
    AttentionWeights,
    ModelConfig,
    TcBlockWeights,
    count_parameters,
    derive_config,
    embed_patches,
    parameter_shapes,
    self_attention,
    tc_block,
)
from emgtcn.signal import segment
from emgtcn.tensor import Tensor, mul
from composed_ops import sum_all

# the eight standard architecture variants as (window_ms, N, D), with
# the parameter totals reported for the original full-scale models;
# our kernel width and layout choices land well below these
VARIANTS = [
    (200, 10, 12, 49_186),
    (200, 10, 16, 68_445),
    (200, 16, 12, 69_076),
    (200, 16, 16, 94_965),
    (300, 10, 12, 52_066),
    (300, 10, 16, 72_285),
    (300, 15, 12, 67_651),
    (300, 15, 16, 92_945),
]


def tiny_cfg(**kw):
    base = dict(
        channels=2, seq_len=12, num_patches=4, model_dim=3,
        kernel_size=2, num_classes=5,
    )
    base.update(kw)
    return ModelConfig(**base)


def test_config_requires_exact_tiling():
    with pytest.raises(ConfigError, match="window length 10 is not divisible into 3 patches"):
        ModelConfig(channels=1, seq_len=10, num_patches=3, model_dim=2)


def test_config_derived_blocks_and_dilations():
    cfg = tiny_cfg(num_patches=4, seq_len=12)
    assert cfg.patch_len == 3
    assert cfg.num_blocks == 2
    assert cfg.dilations == (1, 2)
    one = ModelConfig(channels=1, seq_len=3, num_patches=1, model_dim=2)
    assert one.num_blocks == 1  # floor keeps a temporal stage even for N=1
    assert one.dilations == (1,)


def test_derive_config_standard_cases():
    cfg = derive_config(200, num_patches=10, model_dim=12)
    assert (cfg.seq_len, cfg.patch_len, cfg.num_blocks) == (400, 40, 4)
    assert cfg.dilations == (1, 2, 4, 8)

    cfg = derive_config(300, num_patches=15, model_dim=16)
    assert (cfg.seq_len, cfg.patch_len, cfg.num_blocks) == (600, 40, 4)

    cfg = derive_config(200, num_patches=16, model_dim=12)
    assert (cfg.seq_len, cfg.patch_len, cfg.num_blocks) == (400, 25, 4)


def test_derive_config_indivisible_names_sizes():
    with pytest.raises(ConfigError) as err:
        derive_config(200, num_patches=7, model_dim=12)
    msg = str(err.value)
    assert "400" in msg and "7" in msg
    with pytest.raises(ConfigError):
        derive_config(200, num_patches=10, model_dim=12, sample_rate_hz=999.0)
    with pytest.raises(ConfigError):
        derive_config(0, num_patches=10, model_dim=12)
    # segment() and the model convert a window to samples by one rule
    for window_ms, rate in ((200, 2000.0), (300, 2000.0), (150, 1000.0),
                            (250, 1200.0), (125, 4000.0)):
        rec = Recording(
            data=np.zeros((2, 1000), dtype=np.float32), sample_rate_hz=rate,
            gesture=np.ones(1000), repetition=np.ones(1000),
        )
        cfg = derive_config(window_ms, num_patches=10, model_dim=4,
                            channels=2, sample_rate_hz=rate)
        assert segment(rec, window_ms=window_ms).seg_len == cfg.seq_len


def test_embed_patches_identity_projection():
    cfg = ModelConfig(
        channels=1, seq_len=4, num_patches=2, model_dim=2
    )
    out = embed_patches(
        Tensor([[1.0, 2.0, 3.0, 4.0]]), cfg, Tensor(np.eye(2)), Tensor(np.zeros(2))
    )
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_embed_patches_zero_input():
    cfg = tiny_cfg()
    w = Tensor(np.ones((cfg.channels * cfg.patch_len, cfg.model_dim)))
    out = embed_patches(
        Tensor(np.zeros((cfg.channels, cfg.seq_len))), cfg, w,
        Tensor(np.zeros(cfg.model_dim)),
    )
    assert np.array_equal(out.data, np.zeros((4, 3)))


def test_embed_patches_flattens_channel_major():
    # patch j must read as [ch0 samples..., ch1 samples...]
    cfg = ModelConfig(
        channels=2, seq_len=4, num_patches=2, model_dim=4
    )
    x = np.array([[1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0]])
    out = embed_patches(Tensor(x), cfg, Tensor(np.eye(4)), Tensor(np.zeros(4)))
    assert np.array_equal(out.data, [[1, 2, 10, 20], [3, 4, 30, 40]])


def test_embed_patches_full_scale_shape():
    cfg = derive_config(200, num_patches=10, model_dim=12)
    model = AttentionTcn(cfg, seed=0)
    out = embed_patches(
        Tensor(np.zeros((12, 400))), cfg, model.patch_weight, model.patch_bias
    )
    assert out.shape == (10, 12)


@pytest.mark.parametrize("shape", [(12, 399), (11, 400), (2, 12, 401)])
def test_embed_patches_refuses_a_window_that_does_not_fit(shape):
    cfg = derive_config(200, num_patches=10, model_dim=12)
    model = AttentionTcn(cfg, seed=0)
    want = f"windows are {shape[-2:]}; the model expects (12, 400)"
    with pytest.raises(DimensionError) as err:
        embed_patches(Tensor(np.zeros(shape)), cfg, model.patch_weight, model.patch_bias)
    assert str(err.value) == want


def _scalar_attention_weights(wq, bq, wk, bk, wv, bv, wo, bo):
    return AttentionWeights(
        wq=Tensor([[wq]]), bq=Tensor([bq]),
        wk=Tensor([[wk]]), bk=Tensor([bk]),
        wv=Tensor([[wv]]), bv=Tensor([bv]),
        wo=Tensor([[wo]]), bo=Tensor([bo]),
    )


def test_attention_single_patch_reduces_to_value_path():
    rng = np.random.default_rng(1)
    d = 4
    e = rng.normal(size=(1, d))
    w = AttentionWeights(
        wq=Tensor(rng.normal(size=(d, d))), bq=Tensor(rng.normal(size=d)),
        wk=Tensor(rng.normal(size=(d, d))), bk=Tensor(rng.normal(size=d)),
        wv=Tensor(rng.normal(size=(d, d))), bv=Tensor(np.zeros(d)),
        wo=Tensor(rng.normal(size=(d, d))), bo=Tensor(np.zeros(d)),
    )
    out = self_attention(Tensor(e), w)
    expected = e + (e @ w.wv.data) @ w.wo.data
    assert np.allclose(out.data, expected, atol=1e-12)


def test_attention_zero_query_key_averages_values():
    rng = np.random.default_rng(2)
    n, d = 5, 3
    e = rng.normal(size=(n, d))
    w = AttentionWeights(
        wq=Tensor(np.zeros((d, d))), bq=Tensor(np.zeros(d)),
        wk=Tensor(np.zeros((d, d))), bk=Tensor(np.zeros(d)),
        wv=Tensor(rng.normal(size=(d, d))), bv=Tensor(rng.normal(size=d)),
        wo=Tensor(np.eye(d)), bo=Tensor(np.zeros(d)),
    )
    out = self_attention(Tensor(e), w)
    v = e @ w.wv.data + w.bv.data
    expected = e + np.broadcast_to(v.mean(axis=0), (n, d))
    assert np.allclose(out.data, expected, atol=1e-12)


def test_attention_two_patch_scalar_hand_trace():
    e = [[1.0], [2.0]]
    wq, bq, wk, bk = 0.5, 0.1, -0.3, 0.2
    wv, bv, wo, bo = 0.7, -0.1, 1.5, 0.05
    out = self_attention(
        Tensor(e), _scalar_attention_weights(wq, bq, wk, bk, wv, bv, wo, bo)
    )

    # scalar arithmetic all the way down, no tensor ops involved
    q = [1.0 * wq + bq, 2.0 * wq + bq]
    k = [1.0 * wk + bk, 2.0 * wk + bk]
    v = [1.0 * wv + bv, 2.0 * wv + bv]
    expected = []
    for i in range(2):
        s = [q[i] * k[0], q[i] * k[1]]
        m = max(s)
        ex = [math.exp(s[0] - m), math.exp(s[1] - m)]
        tot = ex[0] + ex[1]
        mixed = (ex[0] * v[0] + ex[1] * v[1]) / tot
        expected.append(e[i][0] + mixed * wo + bo)
    assert np.allclose(out.data[:, 0], expected, atol=1e-12)


def test_attention_permutation_equivariance():
    rng = np.random.default_rng(4)
    n, d = 6, 4
    e = rng.normal(size=(n, d))
    w = AttentionWeights(
        wq=Tensor(rng.normal(size=(d, d))), bq=Tensor(rng.normal(size=d)),
        wk=Tensor(rng.normal(size=(d, d))), bk=Tensor(rng.normal(size=d)),
        wv=Tensor(rng.normal(size=(d, d))), bv=Tensor(rng.normal(size=d)),
        wo=Tensor(rng.normal(size=(d, d))), bo=Tensor(rng.normal(size=d)),
    )
    perm = rng.permutation(n)
    direct = self_attention(Tensor(e[perm]), w).data
    permuted = self_attention(Tensor(e), w).data[perm]
    assert np.allclose(direct, permuted, atol=1e-12)


def test_tc_block_zero_weights_is_identity():
    rng = np.random.default_rng(6)
    h = rng.normal(size=(5, 3))
    w = TcBlockWeights(
        kernel1=Tensor(np.zeros((3, 3, 2))), bias1=Tensor(np.zeros(3)),
        kernel2=Tensor(np.zeros((3, 3, 2))), bias2=Tensor(np.zeros(3)),
        dilation=1,
    )
    assert np.array_equal(tc_block(Tensor(h), w).data, h)


def test_tc_block_hand_oracle():
    # conv1 sums current+previous step, conv2 passes through
    w = TcBlockWeights(
        kernel1=Tensor([[[1.0, 1.0]]]), bias1=Tensor([0.0]),
        kernel2=Tensor([[[0.0, 1.0]]]), bias2=Tensor([0.0]),
        dilation=1,
    )
    out = tc_block(Tensor([[1.0], [2.0], [3.0]]), w)
    assert np.array_equal(out.data, [[2.0], [5.0], [8.0]])


def test_tc_block_causal():
    rng = np.random.default_rng(8)
    d = 3
    h = rng.normal(size=(8, d))
    w = TcBlockWeights(
        kernel1=Tensor(rng.normal(size=(d, d, 3))), bias1=Tensor(rng.normal(size=d)),
        kernel2=Tensor(rng.normal(size=(d, d, 3))), bias2=Tensor(rng.normal(size=d)),
        dilation=2,
    )
    base = tc_block(Tensor(h), w).data
    bumped = h.copy()
    bumped[5] += 3.0
    out = tc_block(Tensor(bumped), w).data
    assert np.array_equal(out[:5], base[:5])


def test_block_chain_ignores_last_patch_for_earlier_outputs():
    cfg = derive_config(200, num_patches=10, model_dim=12)
    model = AttentionTcn(cfg, seed=3)
    rng = np.random.default_rng(10)
    h = rng.normal(size=(10, 12))
    h2 = h.copy()
    h2[-1] = 0.0

    def chain(arr):
        out = Tensor(arr)
        for blk in model.blocks:
            out = tc_block(out, blk)
        return out.data

    assert np.array_equal(chain(h)[:-1], chain(h2)[:-1])


@pytest.mark.parametrize("window_ms,n,d,reported", VARIANTS)
def test_receptive_field_spans_all_patches(window_ms, n, d, reported):
    # positive weights and inputs keep every ReLU open, so a zero
    # gradient could only mean a patch is architecturally unreachable
    cfg = derive_config(window_ms, num_patches=n, model_dim=d)
    rng = np.random.default_rng(12)
    blocks = [
        TcBlockWeights(
            kernel1=Tensor(rng.uniform(0.1, 0.5, size=(d, d, cfg.kernel_size))),
            bias1=Tensor(np.full(d, 0.1)),
            kernel2=Tensor(rng.uniform(0.1, 0.5, size=(d, d, cfg.kernel_size))),
            bias2=Tensor(np.full(d, 0.1)),
            dilation=dil,
        )
        for dil in cfg.dilations
    ]
    h = Tensor(rng.uniform(0.1, 1.0, size=(n, d)), requires_grad=True)
    out = h
    for blk in blocks:
        out = tc_block(out, blk)
    mask = np.zeros((n, d))
    mask[-1] = 1.0
    sum_all(mul(out, Tensor(mask))).backward()
    reached = np.abs(h.grad).max(axis=1) > 0
    assert reached.all()


@pytest.mark.parametrize("window_ms,n,d,reported", VARIANTS)
def test_parameter_audit_all_variants(window_ms, n, d, reported):
    cfg = derive_config(window_ms, num_patches=n, model_dim=d)
    assert cfg.num_blocks == 4
    model = AttentionTcn(cfg, seed=0)
    total, breakdown = count_parameters(model.cfg)
    enumerated = sum(p.data.size for p in model.named_parameters().values())
    assert total == enumerated
    assert sum(breakdown.values()) == total
    assert total < 110_000
    assert total < reported


def paper_form_count(cfg):
    """The per-stage parameter count in the paper's closed form, written
    independently of ``parameter_shapes``."""
    c, p, d, k = cfg.channels, cfg.patch_len, cfg.model_dim, cfg.kernel_size
    n, z, classes = cfg.num_patches, cfg.num_blocks, cfg.num_classes
    return {
        "embedding": c * p * d + d,
        "attention": 4 * (d * d + d),
        "blocks": z * 2 * (d * d * k + d),
        "classifier": n * d * classes + classes,
    }


@pytest.mark.parametrize("num_classes", [2, 17])
@pytest.mark.parametrize("kernel_size", [2, 3, 5])
@pytest.mark.parametrize("window_ms,n,d,reported", VARIANTS)
def test_parameter_count_equals_the_closed_form(window_ms, n, d, reported, kernel_size,
                                                num_classes):
    cfg = derive_config(window_ms, n, d, kernel_size=kernel_size, num_classes=num_classes)
    total, breakdown = count_parameters(cfg)
    want = paper_form_count(cfg)
    assert list(breakdown.items()) == list(want.items())
    assert total == sum(want.values())
    model = AttentionTcn(cfg, seed=0)
    shapes = parameter_shapes(cfg)
    params = model.named_parameters()
    assert list(shapes) == list(params)
    assert [s for s, _ in shapes.values()] == [p.shape for p in params.values()]
    assert total == sum(p.data.size for p in params.values())


def test_weights_are_drawn_in_checkpoint_order_by_their_fan_in():
    # the draw order and bounds the model was first built with, written
    # out by hand: a reordered layout would change every seeded model
    cfg = tiny_cfg()
    c, p, d, k, n = 2, 3, 3, 2, 4 * 3
    layout = [("patch.w", (c * p, d), c * p), ("patch.b", (d,), 0)]
    for role in "qkvo":
        layout += [(f"attn.w{role}", (d, d), d), (f"attn.b{role}", (d,), 0)]
    for i in range(cfg.num_blocks):
        for conv in (1, 2):
            layout += [(f"block{i}.conv{conv}.k", (d, d, k), d * k),
                       (f"block{i}.conv{conv}.b", (d,), 0)]
    layout += [("head.w", (n, 5), n), ("head.b", (5,), 0)]
    assert [(name, s, f) for name, (s, f) in parameter_shapes(cfg).items()] == layout
    rng = np.random.default_rng(7)
    model = AttentionTcn(cfg, seed=7)
    params = model.named_parameters()
    for name, shape, fan_in in layout:
        bound = 1.0 / math.sqrt(fan_in) if fan_in else 0.0
        want = rng.uniform(-bound, bound, size=shape) if fan_in else np.zeros(shape)
        assert params[name].data.tobytes() == want.tobytes(), name
    assert model.patch_weight is params["patch.w"] and model.head_bias is params["head.b"]
    assert model.attention.wq is params["attn.wq"] and model.attention.bo is params["attn.bo"]
    for i, blk in enumerate(model.blocks):
        assert blk.kernel1 is params[f"block{i}.conv1.k"]
        assert blk.bias2 is params[f"block{i}.conv2.b"]
        assert blk.dilation == 2**i


def test_parameter_count_grows_superlinearly_in_model_dim():
    base = derive_config(200, num_patches=10, model_dim=12)
    double = derive_config(200, num_patches=10, model_dim=24)
    t1, _ = count_parameters(AttentionTcn(base, seed=0).cfg)
    t2, _ = count_parameters(AttentionTcn(double, seed=0).cfg)
    assert t2 > 2 * t1


def test_forward_output_shapes_all_variants():
    for window_ms, n, d, _ in VARIANTS:
        cfg = derive_config(window_ms, num_patches=n, model_dim=d)
        model = AttentionTcn(cfg, seed=0)
        x = np.zeros((12, cfg.seq_len))
        assert model.forward(x).shape == (17,)


def test_forward_batch_shape():
    cfg = derive_config(200, num_patches=10, model_dim=12)
    model = AttentionTcn(cfg, seed=0)
    x = np.random.default_rng(14).normal(size=(32, 12, 400))
    out = model.forward(x)
    assert out.shape == (32, 17)
    # same shapes replay bit-identically; across batch layouts the BLAS
    # blocking differs, so only near-equality holds there
    assert model.forward(x).data.tobytes() == out.data.tobytes()
    single = model.forward(x[5])
    assert np.allclose(out.data[5], single.data, rtol=0, atol=1e-12)


def test_forward_zero_weights_uniform_logits():
    cfg = tiny_cfg()
    model = AttentionTcn(cfg, seed=0)
    for p in model.named_parameters().values():
        p.data[...] = 0.0
    out = model.forward(np.random.default_rng(15).normal(size=(2, 12)))
    assert np.array_equal(out.data, np.zeros(5))


def test_forward_shape_mismatch():
    cfg = tiny_cfg()
    model = AttentionTcn(cfg, seed=0)
    with pytest.raises(DimensionError):
        model.forward(np.zeros((3, 12)))
    with pytest.raises(DimensionError):
        model.forward(np.zeros(12))


def test_forward_deterministic_and_seeded_init():
    cfg = tiny_cfg()
    x = np.random.default_rng(16).normal(size=(2, 12))
    a = AttentionTcn(cfg, seed=42)
    b = AttentionTcn(cfg, seed=42)
    for pa, pb in zip(a.named_parameters().values(), b.named_parameters().values()):
        assert np.array_equal(pa.data, pb.data)
    assert a.forward(x).data.tobytes() == b.forward(x).data.tobytes()
    c = AttentionTcn(cfg, seed=43)
    assert not np.array_equal(c.patch_weight.data, a.patch_weight.data)


def test_init_bounds_and_zero_biases():
    cfg = derive_config(200, num_patches=10, model_dim=12)
    model = AttentionTcn(cfg, seed=0)
    for name, p in model.named_parameters().items():
        if ".b" in name or name.endswith("bias"):
            assert np.array_equal(p.data, np.zeros_like(p.data)), name
    assert np.array_equal(model.patch_bias.data, np.zeros(12))
    assert np.array_equal(model.head_bias.data, np.zeros(17))
    bound = 1.0 / math.sqrt(12 * 40)
    w = model.patch_weight.data
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > 0.5 * bound
