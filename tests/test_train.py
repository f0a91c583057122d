
import gc
import math

import numpy as np
import pytest

from emgtcn.errors import (
    ConfigError,
    DataError,
    DimensionError,
    FormatError,
    NumericalError,
    UsageError,
)
from emgtcn.model import AttentionTcn, ModelConfig, derive_config
from emgtcn.signal import SegmentSet
from emgtcn.tensor import ComputationTape, Tensor
from emgtcn.train import (
    Adam,
    TrainConfig,
    cross_entropy,
    load_checkpoint,
    make_checkpoint,
    restore_model,
    restore_optimizer,
    save_checkpoint,
    train,
    write_trace,
)
from file_heads import head_of, with_head
from gradcheck import fd_grad, max_rel_err

LN_17 = 2.833213344056216
# -log softmax([1,2,3])[2] = log(1 + e^-1 + e^-2), 40-digit evaluation
CE_123_LABEL2 = 0.4076059644443803


def tiny_model(seed=0, **kw):
    cfg = ModelConfig(
        channels=2, seq_len=12, num_patches=4, model_dim=3,
        kernel_size=2, num_classes=5, **kw,
    )
    return AttentionTcn(cfg, seed=seed)


def random_segments(m, cfg, seed=0, classes=None):
    rng = np.random.default_rng(seed)
    classes = classes or cfg.num_classes
    return SegmentSet(
        data=rng.normal(size=(m, cfg.channels, cfg.seq_len)),
        labels=rng.integers(0, classes, size=m),
        subjects=np.zeros(m, dtype=np.int64),
        repetitions=np.ones(m, dtype=np.int64),
        sample_rate_hz=2000.0,
    )


def test_cross_entropy_uniform_logits():
    loss = cross_entropy(Tensor(np.zeros((4, 17))), np.array([0, 5, 11, 16]))
    assert float(loss.data) == pytest.approx(LN_17, abs=1e-12)


def test_cross_entropy_saturated_correct_class():
    z = np.zeros((1, 17))
    z[0, 3] = 1000.0
    loss = cross_entropy(Tensor(z), np.array([3]))
    assert 0.0 <= float(loss.data) <= 1e-6


def test_cross_entropy_reference_value():
    loss = cross_entropy(Tensor([[1.0, 2.0, 3.0]]), np.array([2]))
    assert float(loss.data) == pytest.approx(CE_123_LABEL2, abs=1e-12)


def test_cross_entropy_refuses_a_single_vector():
    with pytest.raises(DimensionError, match=r"B x K, got shape \(3,\)"):
        cross_entropy(Tensor([1.0, 2.0, 3.0]), 2)


def test_cross_entropy_refuses_fewer_labels_than_rows():
    with pytest.raises(DimensionError, match="need one label per row: 3 rows, 2 labels"):
        cross_entropy(Tensor(np.zeros((3, 4))), np.array([0, 1]))


def test_cross_entropy_label_out_of_range_names_index():
    with pytest.raises(DataError) as err:
        cross_entropy(Tensor(np.zeros((3, 4))), np.array([0, 7, 1]))
    msg = str(err.value)
    assert "7" in msg and "1" in msg


def test_cross_entropy_finite_for_extreme_logits():
    z = np.array([[1e300, -1e300, 0.0], [-745.0, 745.0, 0.0]])
    loss = cross_entropy(Tensor(z), np.array([1, 0]))
    assert np.isfinite(float(loss.data))


def test_cross_entropy_gradient_matches_fd():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    labels = np.array([0, 2, 4, 2])
    cross_entropy(logits, labels).backward()

    def loss():
        z = logits.data
        zmax = z.max(axis=1, keepdims=True)
        lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
        return float((lse - z[np.arange(4), labels]).mean())

    assert max_rel_err(logits.grad, fd_grad(loss, logits.data)) <= 1e-6


@pytest.mark.parametrize("window_ms,patches,dim", [(200, 10, 12), (300, 15, 16)])
def test_desk_training_step_records_9_nodes(window_ms, patches, dim):
    # patch embedding 1, attention 1, one node per TC block 4 (both
    # configs have 4 blocks), head reshape and linear 2, loss 1
    model = AttentionTcn(derive_config(window_ms, patches, dim))
    x = np.random.default_rng(5).normal(size=(8, 12, model.cfg.seq_len))
    loss = cross_entropy(model.forward(x), np.arange(8))
    nodes = ComputationTape(loss).nodes
    assert sum(node._backward is not None for node in nodes) == 9


def test_adam_zero_gradient_keeps_params():
    p = Tensor([1.0, -2.0], requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.zeros(2)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)
    assert np.array_equal(opt.m["p"], np.zeros(2))
    assert np.array_equal(opt.v["p"], np.zeros(2))


def test_adam_moments_decay_under_zero_gradient():
    p = Tensor([1.0], requires_grad=True)
    opt = Adam({"p": p}, lr=0.0)
    opt.m["p"][:] = 1.0
    opt.v["p"][:] = 1.0
    p.grad = np.zeros(1)
    opt.step()
    assert opt.m["p"][0] == pytest.approx(0.9, abs=1e-15)
    assert opt.v["p"][0] == pytest.approx(0.999, abs=1e-15)


def test_adam_first_step_magnitude():
    # with bias correction the first update is lr * g / (|g| + eps)
    for g0 in (1.0, -3.0, 0.001):
        p = Tensor([0.5], requires_grad=True)
        opt = Adam({"p": p}, lr=1e-4)
        p.grad = np.array([g0])
        opt.step()
        delta = p.data[0] - 0.5
        expected = -1e-4 * g0 / (abs(g0) + 1e-8)
        assert delta == pytest.approx(expected, rel=1e-12)
        assert abs(delta) == pytest.approx(1e-4, rel=1e-4)


def test_adam_lr_zero_is_identity():
    rng = np.random.default_rng(5)
    p = Tensor(rng.normal(size=7), requires_grad=True)
    before = p.data.copy()
    opt = Adam({"p": p}, lr=0.0)
    for _ in range(3):
        p.grad = rng.normal(size=7)
        opt.step()
    assert np.array_equal(p.data, before)


def test_adam_quadratic_bowl():
    # f(w) = w^2 from w=1 at lr=0.1: monotone early, converged by 50
    # steps, with known sign-flip oscillation once w nears 0
    w = Tensor([1.0], requires_grad=True)
    opt = Adam({"w": w}, lr=0.1)
    losses = [1.0]
    for _ in range(50):
        w.grad = np.array([2.0 * w.data[0]])
        opt.step()
        losses.append(float(w.data[0] ** 2))
    assert all(b < a for a, b in zip(losses[:12], losses[1:12]))
    assert losses[-1] < 1e-4
    assert losses[-1] < 1e-4 * losses[0]


def test_adam_nan_gradient_names_parameter():
    p = Tensor([1.0], requires_grad=True)
    opt = Adam({"patch.w": p}, lr=0.1)
    p.grad = np.array([np.nan])
    with pytest.raises(NumericalError) as err:
        opt.step()
    assert "patch.w" in str(err.value)


def desk_model():
    return AttentionTcn(
        derive_config(window_ms=200, num_patches=10, model_dim=12, num_classes=17),
        seed=0,
    )


def reference_adam_step(opt, m, v, t):
    """Per-parameter Adam update, one parameter at a time, as the
    flat step must reproduce bit for bit."""
    c1 = 1.0 - opt.beta1**t
    c2 = 1.0 - opt.beta2**t
    for name, p in opt.params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m[name] *= opt.beta1
        m[name] += (1.0 - opt.beta1) * g
        v[name] *= opt.beta2
        v[name] += (1.0 - opt.beta2) * g * g
        p.data -= opt.lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + opt.eps)


def test_adam_flat_step_matches_per_parameter_loop():
    flat_model, ref_model = desk_model(), desk_model()
    opt = Adam(flat_model.named_parameters(), lr=1e-3)
    ref = Adam(ref_model.named_parameters(), lr=1e-3)
    ref_m = {k: np.zeros_like(a) for k, a in ref.m.items()}
    ref_v = {k: np.zeros_like(a) for k, a in ref.v.items()}
    skipped = list(opt.params)[3]
    rng = np.random.default_rng(17)
    for t in range(1, 6):
        for name, p in opt.params.items():
            g = None if name == skipped else rng.normal(size=p.data.shape)
            p.grad = g
            ref.params[name].grad = g
        opt.step()
        reference_adam_step(ref, ref_m, ref_v, t)
    assert opt.step_count == 5
    for name, p in opt.params.items():
        assert p.data.tobytes() == ref.params[name].data.tobytes(), name
        assert opt.m[name].tobytes() == ref_m[name].tobytes(), name
        assert opt.v[name].tobytes() == ref_v[name].tobytes(), name
        assert opt.m[name].shape == p.data.shape


def test_adam_non_finite_gradient_leaves_every_parameter_untouched():
    model = desk_model()
    opt = Adam(model.named_parameters(), lr=1e-3)
    rng = np.random.default_rng(19)
    for p in opt.params.values():
        p.grad = rng.normal(size=p.data.shape)
    opt.step()
    names = list(opt.params)
    bad = names[-2]
    opt.params[bad].grad.flat[1] = np.inf
    before = {k: p.data.copy() for k, p in opt.params.items()}
    m_before = {k: a.copy() for k, a in opt.m.items()}
    v_before = {k: a.copy() for k, a in opt.v.items()}
    with pytest.raises(NumericalError) as err:
        opt.step()
    assert repr(bad) in str(err.value)
    assert all(repr(n) not in str(err.value) for n in names if n != bad)
    assert opt.step_count == 1
    for name, p in opt.params.items():
        assert np.array_equal(p.data, before[name]), name
        assert np.array_equal(opt.m[name], m_before[name]), name
        assert np.array_equal(opt.v[name], v_before[name]), name


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, lr=0.0)


def test_train_empty_set_rejected():
    model = tiny_model()
    empty = SegmentSet(
        data=np.empty((0, 2, 12)),
        labels=np.empty(0, dtype=np.int64),
        subjects=np.empty(0, dtype=np.int64),
        repetitions=np.empty(0, dtype=np.int64),
        sample_rate_hz=2000.0,
    )
    with pytest.raises(UsageError):
        train(model, empty, TrainConfig(epochs=1))


def test_train_refuses_a_config_lr_its_optimizer_does_not_use():
    model = tiny_model(seed=1)
    before = {k: p.data.copy() for k, p in model.named_parameters().items()}
    opt = Adam(model.named_parameters(), lr=1e-3)
    cfg = TrainConfig(epochs=1, batch_size=4, lr=1e-2)
    with pytest.raises(ConfigError, match=r"cfg.lr=0.01 differs from the optimizer's lr=0.001"):
        train(model, random_segments(8, model.cfg), cfg, optimizer=opt)
    assert opt.step_count == 0
    for k, p in model.named_parameters().items():
        assert np.array_equal(p.data, before[k])


def test_train_zero_epochs_keeps_weights():
    model = tiny_model(seed=1)
    before = {k: p.data.copy() for k, p in model.named_parameters().items()}
    result = train(model, random_segments(8, model.cfg), TrainConfig(epochs=0))
    assert result.epochs == []
    for k, p in model.named_parameters().items():
        assert np.array_equal(p.data, before[k])


def test_train_deterministic_across_runs():
    def run():
        model = tiny_model(seed=2)
        segs = random_segments(20, model.cfg, seed=9)
        res = train(model, segs, TrainConfig(epochs=3, batch_size=8, seed=5, lr=1e-3))
        return (
            {k: p.data.tobytes() for k, p in model.named_parameters().items()},
            res.losses,
        )

    w1, l1 = run()
    w2, l2 = run()
    assert w1 == w2
    assert l1 == l2


def test_train_leaves_no_cyclic_garbage():
    # each step's graph must be freed by reference counting, not by the
    # cyclic collector
    model = tiny_model(seed=3)
    segs = random_segments(20, model.cfg, seed=9)
    gc.collect()
    gc.disable()
    try:
        train(model, segs, TrainConfig(epochs=2, batch_size=8, seed=5, lr=1e-3))
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_train_shuffle_changes_batching():
    model_a = tiny_model(seed=2)
    model_b = tiny_model(seed=2)
    segs = random_segments(20, model_a.cfg, seed=9)
    ra = train(model_a, segs, TrainConfig(epochs=2, batch_size=8, seed=5, lr=1e-3))
    rb = train(model_b, segs, TrainConfig(epochs=2, batch_size=8, seed=6, lr=1e-3))
    assert ra.losses != rb.losses


@pytest.mark.parametrize("misfit", [
    {"channels": 3},
    {"seq_len": 16},
])
def test_train_on_misfit_windows_raises_and_changes_no_parameter(misfit):
    model = tiny_model(seed=3)
    before = {name: p.data.copy() for name, p in model.named_parameters().items()}
    other = ModelConfig(**{**vars(model.cfg), **misfit})
    with pytest.raises(DimensionError) as err:
        train(model, random_segments(8, other), TrainConfig(epochs=1, lr=1e-3))
    have, want = (other.channels, other.seq_len), (model.cfg.channels, model.cfg.seq_len)
    assert str(have) in str(err.value) and str(want) in str(err.value)
    for name, p in model.named_parameters().items():
        assert np.array_equal(p.data, before[name]), name


def test_train_records_one_row_per_epoch():
    model = tiny_model(seed=4)
    res = train(
        model, random_segments(10, model.cfg), TrainConfig(epochs=4, lr=1e-3)
    )
    assert res.epochs == [0, 1, 2, 3]
    assert len(res.losses) == 4 and len(res.accuracies) == 4
    assert all(np.isfinite(v) for v in res.losses)
    assert all(0.0 <= a <= 1.0 for a in res.accuracies)
    assert res.rng_state is not None


def test_overfit_single_batch_smallest_variant():
    # 32 fixed random segments must be memorized well inside 500 epochs;
    # the published full-scale rate (1e-4) is far too timid for a task
    # this small, so the overfit check picks its own
    cfg = derive_config(200, num_patches=10, model_dim=12)
    model = AttentionTcn(cfg, seed=0)
    segs = random_segments(32, cfg, seed=7, classes=17)
    cfg_t = TrainConfig(epochs=500, batch_size=32, lr=0.01, seed=0)
    opt = Adam(model.named_parameters(), lr=cfg_t.lr)
    final = None
    for start in range(0, 500, 25):
        res = train(
            model, segs,
            TrainConfig(epochs=start + 25, batch_size=32, lr=0.01, seed=0),
            optimizer=opt, start_epoch=start,
        )
        final = res.losses[-1]
        if final < 0.01:
            break
    assert final is not None and final < 0.01


def test_write_trace_round_trips_floats(tmp_path):
    res = train(
        tiny_model(seed=6),
        random_segments(10, tiny_model().cfg, seed=1),
        TrainConfig(epochs=3, lr=1e-3),
    )
    path = tmp_path / "trace.csv"
    write_trace(path, res)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,train_acc"
    for row, (e, l, a) in zip(lines[1:], zip(res.epochs, res.losses, res.accuracies)):
        fe, fl, fa = row.split(",")
        assert int(fe) == e
        assert float(fl) == l
        assert float(fa) == a


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = tiny_model(seed=8)
    segs = random_segments(16, model.cfg, seed=2)
    res = train(model, segs, TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=3))
    opt = Adam(model.named_parameters(), lr=1e-3)
    ckpt = make_checkpoint(model, opt, epoch=2, rng_state=res.rng_state)
    path = tmp_path / "model.tchg"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)

    assert loaded.config == model.cfg
    assert loaded.epoch == 2
    assert loaded.opt == ckpt.opt
    assert loaded.rng_state == res.rng_state
    for name, arr in ckpt.weights.items():
        assert loaded.weights[name].tobytes() == arr.tobytes()
    for name in ckpt.m:
        assert loaded.m[name].tobytes() == ckpt.m[name].tobytes()
        assert loaded.v[name].tobytes() == ckpt.v[name].tobytes()

    clone = restore_model(loaded)
    x = np.random.default_rng(0).normal(size=(2, 12))
    assert clone.forward(x).data.tobytes() == model.forward(x).data.tobytes()


def test_restored_model_is_frozen(tmp_path):
    model = tiny_model(seed=8)
    path = tmp_path / "model.tchg"
    save_checkpoint(path, make_checkpoint(model, Adam(model.named_parameters()), 0, None))
    frozen = restore_model(load_checkpoint(path))
    assert not any(p.requires_grad for p in frozen.named_parameters().values())
    out = frozen.forward(np.random.default_rng(0).normal(size=(4, 2, 12)))
    assert not out.requires_grad
    assert out._backward is None and out._parents == ()


@pytest.mark.parametrize("window_ms,patches,dim", [(200, 10, 12), (300, 15, 16)])
def test_frozen_logits_equal_trainable_logits(window_ms, patches, dim):
    trainable = AttentionTcn(derive_config(window_ms, patches, dim), seed=0)
    ckpt = make_checkpoint(trainable, Adam(trainable.named_parameters()), 0, None)
    frozen = restore_model(ckpt)
    rng = np.random.default_rng(1)
    for batch in ((), (4,), (256,)):
        shape = batch + (12, trainable.cfg.seq_len)
        x = rng.normal(size=shape)
        graph = trainable.forward(x)
        assert graph._backward is not None
        assert frozen.forward(x).data.tobytes() == graph.data.tobytes(), shape


def test_train_makes_restored_model_trainable():
    model = tiny_model(seed=6)
    segs = random_segments(24, model.cfg, seed=4)
    ckpt = make_checkpoint(model, Adam(model.named_parameters()), 0, None)
    restored = restore_model(ckpt)
    cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=5)
    res = train(restored, segs, cfg)
    ref = train(model, segs, cfg)
    assert res.losses == ref.losses
    for name, p in restored.named_parameters().items():
        assert p.requires_grad
        assert p.data.tobytes() == model.named_parameters()[name].data.tobytes(), name
        assert p.data.tobytes() != ckpt.weights[name].tobytes(), name


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.tchg"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert "magic" in str(err.value)


def test_checkpoint_truncation_reports_offset(tmp_path):
    model = tiny_model(seed=9)
    opt = Adam(model.named_parameters())
    path = tmp_path / "full.tchg"
    save_checkpoint(path, make_checkpoint(model, opt, epoch=0, rng_state=None))
    raw = path.read_bytes()
    cut = tmp_path / "cut.tchg"
    cut.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError) as err:
        load_checkpoint(cut)
    assert "offset" in str(err.value)


def test_checkpoint_version_mismatch(tmp_path):
    model = tiny_model(seed=9)
    opt = Adam(model.named_parameters())
    path = tmp_path / "v.tchg"
    save_checkpoint(path, make_checkpoint(model, opt, epoch=0, rng_state=None))
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    bad = tmp_path / "v99.tchg"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        load_checkpoint(bad)
    assert "99" in str(err.value)


def test_resume_matches_uninterrupted_run(tmp_path):
    segs = random_segments(24, tiny_model().cfg, seed=11)

    # one uninterrupted 6-epoch run
    solo = tiny_model(seed=10)
    solo_opt = Adam(solo.named_parameters(), lr=1e-3)
    solo_res = train(
        solo, segs, TrainConfig(epochs=6, batch_size=8, lr=1e-3, seed=13),
        optimizer=solo_opt,
    )

    # same run split at epoch 3 through a checkpoint file
    first = tiny_model(seed=10)
    first_opt = Adam(first.named_parameters(), lr=1e-3)
    first_res = train(
        first, segs, TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=13),
        optimizer=first_opt,
    )
    path = tmp_path / "resume.tchg"
    save_checkpoint(
        path, make_checkpoint(first, first_opt, epoch=3, rng_state=first_res.rng_state)
    )

    ckpt = load_checkpoint(path)
    second = restore_model(ckpt)
    second_opt = restore_optimizer(ckpt, second)
    second_res = train(
        second, segs, TrainConfig(epochs=6, batch_size=8, lr=1e-3, seed=13),
        optimizer=second_opt, start_epoch=ckpt.epoch, rng_state=ckpt.rng_state,
    )

    for name, p in solo.named_parameters().items():
        assert p.data.tobytes() == second.named_parameters()[name].data.tobytes()
    assert solo_res.losses[3:] == second_res.losses
    assert solo_res.accuracies[3:] == second_res.accuracies


def test_restore_optimizer_rejects_mismatched_moments(tmp_path):
    model = tiny_model(seed=4)
    opt = Adam(model.named_parameters(), lr=1e-3)
    path = tmp_path / "good.tchg"
    save_checkpoint(path, make_checkpoint(model, opt, epoch=0, rng_state=None))
    name = next(iter(opt.m))

    wrong_shape = load_checkpoint(path)
    wrong_shape.v[name] = np.ones(1)
    missing = load_checkpoint(path)
    del missing.m[name]
    unknown = load_checkpoint(path)
    unknown.m["no.such"] = np.ones(1)
    for ckpt, entry in ((wrong_shape, f"v/{name}"), (missing, f"m/{name}"),
                        (unknown, "m/no.such")):
        doctored = tmp_path / "doctored.tchg"
        save_checkpoint(doctored, ckpt)
        loaded = load_checkpoint(doctored)
        with pytest.raises(FormatError) as err:
            restore_optimizer(loaded, restore_model(loaded))
        assert entry in str(err.value)


def test_restore_model_names_the_mismatched_weight(tmp_path):
    model = tiny_model(seed=4)
    path = tmp_path / "good.tchg"
    save_checkpoint(path, make_checkpoint(
        model, Adam(model.named_parameters()), epoch=0, rng_state=None
    ))
    name = next(iter(model.named_parameters()))
    extra, missing, wrong_shape = (load_checkpoint(path) for _ in range(3))
    extra.weights["extra"] = np.ones(1)
    del missing.weights[name]
    wrong_shape.weights[name] = np.ones(1)
    for ckpt, entry in ((extra, "w/extra"), (missing, f"w/{name}"),
                        (wrong_shape, f"w/{name}")):
        doctored = tmp_path / "doctored.tchg"
        save_checkpoint(doctored, ckpt)
        with pytest.raises(FormatError) as err:
            restore_model(load_checkpoint(doctored))
        assert entry in str(err.value)


@pytest.mark.parametrize("group, key, value, named", [
    ("weights", "head.w", math.nan, "'w/head.w'"),
    ("m", "attn.wq", math.inf, "'m/attn.wq'"),
    ("v", "patch.b", -math.inf, "'v/patch.b'"),
    ("v", "patch.b", -1.0, "'v/patch.b'"),
    ("opt", "lr", math.inf, "'opt' holds lr=inf"),
    ("opt", "lr", math.nan, "'opt' holds lr=nan"),
    # Adam's betas and eps are constants, so the opt entry holds neither
    ("opt", "beta2", 1.0, "'opt' must hold the numbers ['lr', 'step']"),
    ("opt", "eps", 0.0, "'opt' must hold the numbers ['lr', 'step']"),
    ("opt", "step", 2.5, "'opt' holds step=2.5"),
    ("opt", "step", -1, "'opt' holds step=-1"),
    ("opt", "step", True, "'opt' holds step=True"),
    ("opt", "lr", 1, "'opt' holds lr=1"),
    ("epoch", None, -3, "'epoch'"),
], ids=[
    "nan-weight", "inf-m", "inf-v", "negative-v", "inf-lr", "nan-lr", "beta2-1",
    "eps-0", "fractional-step", "negative-step", "bool-step", "int-lr", "negative-epoch",
])
def test_load_checkpoint_refuses_non_finite_and_malformed_numbers(
    tmp_path, group, key, value, named
):
    model = tiny_model(seed=4)
    ckpt = make_checkpoint(model, Adam(model.named_parameters()), epoch=2, rng_state=None)
    if group == "epoch":
        ckpt.epoch = value
    elif group == "opt":
        ckpt.opt[key] = value
    else:
        getattr(ckpt, group)[key].flat[0] = value
    path = tmp_path / "bad.tchg"
    save_checkpoint(path, ckpt)
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert named in str(err.value)


@pytest.mark.parametrize("doctor, words", [
    (lambda c: lambda head: head["arrays"][0].__setitem__(1, "<i8"),
     r"checkpoint entry 'w/\S+' is not of dtype <f8"),
    (lambda c: object.__setattr__(c.config, "model_dim", 2.5),
     "config must map names to integers"),
    (lambda c: c.opt.update(extra=1.0), "'opt' must hold the numbers"),
    (lambda c: setattr(c, "rng_state", {"bit_generator": "MT19937"}),
     "'rng' is not a PCG64 state"),
    (lambda c: c.weights.update({"": np.ones(1)}), "unrecognized checkpoint entry 'w/'"),
], ids=["entry-dtype", "config-float", "opt-keys", "rng-state", "entry-name"])
def test_load_checkpoint_refuses_malformed_entries(tmp_path, doctor, words):
    """``doctor`` changes the checkpoint before it is saved and may
    return a function that then changes the file's JSON head."""
    model = tiny_model(seed=4)
    ckpt = make_checkpoint(model, Adam(model.named_parameters()), epoch=2, rng_state=None)
    edit = doctor(ckpt)
    path = tmp_path / "bad.tchg"
    save_checkpoint(path, ckpt)
    if edit:
        head = head_of(path.read_bytes())
        edit(head)
        path.write_bytes(with_head(path.read_bytes(), head))
    with pytest.raises(FormatError, match=words):
        load_checkpoint(path)


def test_checkpoint_geometry_numpy_cannot_index_is_format_error(tmp_path):
    model = tiny_model()
    ckpt = make_checkpoint(model, Adam(model.named_parameters()), epoch=0,
                           rng_state=None)
    # a config no ModelConfig accepts, as a corrupt or hostile file holds it
    object.__setattr__(ckpt.config, "model_dim", 10**21)
    path = tmp_path / "huge.tchg"
    save_checkpoint(path, ckpt)
    with pytest.raises(FormatError, match="largest weight"):
        load_checkpoint(path)
