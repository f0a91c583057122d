"""Acceptance gate: the nine release criteria, one test each.

Each criterion records a single PASS/FAIL line, shown as an "acceptance
criteria" section in the terminal summary (see conftest.py). Tolerances
are pinned here and must not drift; the per-criterion docstrings state
what is being claimed.
"""

import math
import time

import numpy as np

from emgtcn import data as dio
from emgtcn import signal as sig
from emgtcn import stats
from emgtcn import train as tr
from emgtcn.model import (
    BASELINE_RECURRENT_PARAMS,
    AttentionTcn,
    TcBlockWeights,
    count_parameters,
    derive_config,
    self_attention,
    tc_block,
)
from emgtcn.tensor import Tensor, dilated_causal_conv1d, mul
from composed_ops import sum_all
from signed_rank_oracle import literal_enumeration_p, signed_vector

# the eight standard variants as (window_ms, num_patches, model_dim)
VARIANTS = [
    (200, 10, 12), (200, 10, 16), (200, 16, 12), (200, 16, 16),
    (300, 10, 12), (300, 10, 16), (300, 15, 12), (300, 15, 16),
]


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-3)


# -- 1: gradients ----------------------------------------------------------


def test_criterion_1_gradient_suite(acceptance_gate):
    """Autodiff vs central differences on >= 100 sampled parameters of the
    full 200 ms graph, relative error <= 1e-4, under 60 s."""
    with acceptance_gate.criterion(1, "gradient check vs finite differences"):
        start = time.monotonic()
        cfg = derive_config(window_ms=200, num_patches=10, model_dim=12)
        model = AttentionTcn(cfg, seed=4)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1, cfg.channels, cfg.seq_len))
        label = [5]

        def loss_value() -> float:
            return float(tr.cross_entropy(model.forward(x), label).data)

        loss = tr.cross_entropy(model.forward(x), label)
        tape = loss.backward()
        params = model.named_parameters()
        analytic = {k: p.grad.copy() for k, p in params.items()}
        tape.reset()

        h = 1e-5
        checked = 0
        worst = 0.0
        for name, p in params.items():
            flat = p.data.reshape(-1)
            coords = rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for c in coords:
                old = flat[c]
                flat[c] = old + h
                up = loss_value()
                flat[c] = old - h
                down = loss_value()
                flat[c] = old
                fd = (up - down) / (2.0 * h)
                an = analytic[name].reshape(-1)[c]
                worst = max(worst, rel_err(fd, an))
                checked += 1
        elapsed = time.monotonic() - start
        assert checked >= 100, checked
        assert worst <= 1e-4, f"worst relative error {worst:.3e}"
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f} s"


# -- 2: companding ---------------------------------------------------------


def test_criterion_2_mu_law_exactness(acceptance_gate):
    """Fixed points exact; F(0.5; 255) matches ln(128.5)/ln(256) to 1e-6;
    odd and monotone on a 1000-point grid."""
    with acceptance_gate.criterion(2, "mu-law fixed points, midpoint value, oddness"):
        assert sig.mu_law(0.0) == 0.0
        assert sig.mu_law(1.0) == 1.0
        assert sig.mu_law(-1.0) == -1.0
        oracle = math.log(128.5) / math.log(256.0)
        assert abs(sig.mu_law(0.5) - oracle) <= 1e-6
        grid = np.linspace(-1.0, 1.0, 1000)
        out = sig.mu_law(grid)
        flipped = sig.mu_law(-grid)
        assert np.array_equal(out, -flipped)
        assert np.all(np.diff(out) > 0)


# -- 3: architecture derivation -------------------------------------------


def test_criterion_3_architecture_derivation(acceptance_gate):
    """Window/patch arithmetic and the block-count rule, exact."""
    with acceptance_gate.criterion(3, "patch geometry and block count per variant"):
        cfg = derive_config(window_ms=200, num_patches=10, model_dim=12)
        assert (cfg.seq_len, cfg.patch_len) == (400, 40)
        assert derive_config(200, 16, 12).patch_len == 25
        assert derive_config(300, 10, 12).patch_len == 60
        assert derive_config(300, 15, 12).patch_len == 40
        for window_ms, n, d in VARIANTS:
            assert derive_config(window_ms, n, d).num_blocks == 4


# -- 4: parameter audit ----------------------------------------------------


def test_criterion_4_parameter_audit(acceptance_gate):
    """Closed-form count equals buffer enumeration; every variant is under
    110k parameters and beats the recurrent baseline by more than 10x."""
    with acceptance_gate.criterion(4, "parameter audit for all eight variants"):
        for window_ms, n, d in VARIANTS:
            model = AttentionTcn(derive_config(window_ms, n, d), seed=0)
            total, breakdown = count_parameters(model)
            enumerated = sum(
                p.data.size for p in model.named_parameters().values()
            )
            assert total == enumerated, (window_ms, n, d)
            assert sum(breakdown.values()) == total
            assert total < 110_000, (window_ms, n, d, total)
            assert BASELINE_RECURRENT_PARAMS / total > 10.0


# -- 5: causality and receptive field --------------------------------------


def test_criterion_5_causality_and_receptive_field(acceptance_gate):
    """Future samples never leak backward; the dilated stack still reaches
    every patch position from the last output."""
    with acceptance_gate.criterion(5, "temporal causality and full receptive field"):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 16)).T
        k = Tensor(rng.normal(size=(3, 3, 3)))
        b = Tensor(np.zeros(3))
        base = dilated_causal_conv1d(Tensor(x), k, b, dilation=2).data
        t0 = 7
        bumped = x.copy()
        bumped[t0, :] += 1.0
        out = dilated_causal_conv1d(Tensor(bumped), k, b, dilation=2).data
        assert out[:t0, :].tobytes() == base[:t0, :].tobytes()
        assert not np.array_equal(out[t0:, :], base[t0:, :])

        for window_ms, n, d in VARIANTS:
            cfg = derive_config(window_ms, n, d)
            h = Tensor(rng.uniform(0.5, 1.0, size=(n, d)), requires_grad=True)
            out = h
            for dil in cfg.dilations:
                # positive taps and bias keep both ReLUs open everywhere
                blk = TcBlockWeights(
                    kernel1=Tensor(rng.uniform(0.1, 0.5, size=(d, d, 3))),
                    bias1=Tensor(np.full(d, 0.1)),
                    kernel2=Tensor(rng.uniform(0.1, 0.5, size=(d, d, 3))),
                    bias2=Tensor(np.full(d, 0.1)),
                    dilation=dil,
                )
                out = tc_block(out, blk)
            mask = np.zeros((n, d))
            mask[-1, :] = 1.0
            sum_all(mul(out, Tensor(mask))).backward()
            per_position = np.abs(h.grad).sum(axis=1)
            assert np.all(per_position > 0.0), (window_ms, n, d)


# -- 6: attention properties ------------------------------------------------


def test_criterion_6_attention_properties(acceptance_gate):
    """Rows of the attention matrix sum to one; the stage commutes with
    patch permutations; a single patch reduces to e + (e Wv) Wo."""
    with acceptance_gate.criterion(6, "attention stochasticity, equivariance, degenerate"):
        cfg = derive_config(window_ms=200, num_patches=10, model_dim=12)
        model = AttentionTcn(cfg, seed=9)
        w = model.attention
        rng = np.random.default_rng(21)
        e = rng.normal(size=(cfg.num_patches, cfg.model_dim))
        q = e @ w.wq.data + w.bq.data
        k = e @ w.wk.data + w.bk.data
        scores = q @ k.T / math.sqrt(cfg.model_dim)
        attn = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        assert np.max(np.abs(attn.sum(axis=1) - 1.0)) <= 1e-12

        out = self_attention(Tensor(e), w).data
        perm = rng.permutation(cfg.num_patches)
        permuted = self_attention(Tensor(e[perm]), w).data
        assert np.max(np.abs(permuted - out[perm])) <= 1e-12

        d = 6
        single = rng.normal(size=(1, d))
        wv = rng.normal(size=(d, d))
        wo = rng.normal(size=(d, d))
        from emgtcn.model import AttentionWeights

        weights = AttentionWeights(
            wq=Tensor(rng.normal(size=(d, d))), bq=Tensor(np.zeros(d)),
            wk=Tensor(rng.normal(size=(d, d))), bk=Tensor(np.zeros(d)),
            wv=Tensor(wv), bv=Tensor(np.zeros(d)),
            wo=Tensor(wo), bo=Tensor(np.zeros(d)),
        )
        got = self_attention(Tensor(single), weights).data
        want = single + (single @ wv) @ wo
        assert np.max(np.abs(got - want)) <= 1e-12


# -- 7: desk-scale learning --------------------------------------------------


def test_criterion_7_desk_scale_learning(acceptance_gate):
    """Synthetic 4-subject / 17-class corpus: >= 90% held-out accuracy
    within 100 epochs in under 10 minutes, and a 32-segment batch is
    memorized to loss < 0.01 within 500 epochs."""
    with acceptance_gate.criterion(7, "desk-scale convergence and single-batch overfit"):
        start = time.monotonic()
        parts = []
        for rec in dio.generate_synthetic(subjects=4, classes=17, reps=6, seed=0):
            processed = rec.with_data(sig.preprocess(rec.data))
            parts.append(sig.segment(processed, window_ms=200))
        segments = dio.concat_segments(parts)
        train_set, test_set = dio.split(segments)
        assert len(train_set) == 1360 and len(test_set) == 680

        cfg = derive_config(window_ms=200, num_patches=10, model_dim=12)
        model = AttentionTcn(cfg, seed=0)
        opt = tr.Adam(model.named_parameters(), lr=1e-4)

        def test_accuracy() -> float:
            preds = []
            for lo in range(0, len(test_set), 256):
                logits = model.forward(test_set.data[lo : lo + 256]).data
                preds.append(np.argmax(logits, axis=1))
            return stats.accuracy(np.concatenate(preds), test_set.labels)

        reached = None
        state = None
        for upto in range(10, 101, 10):
            run_cfg = tr.TrainConfig(epochs=upto, batch_size=32, lr=1e-4, seed=0)
            result = tr.train(
                model, train_set, run_cfg, optimizer=opt,
                start_epoch=upto - 10, rng_state=state,
            )
            state = result.rng_state
            if test_accuracy() >= 0.90:
                reached = upto
                break
        elapsed = time.monotonic() - start
        assert reached is not None, "never hit 90% held-out accuracy"
        assert elapsed < 600.0, f"took {elapsed:.0f} s"

        overfit_model = AttentionTcn(cfg, seed=1)
        batch = sig.SegmentSet(
            data=train_set.data[:32].copy(),
            labels=train_set.labels[:32],
            subjects=train_set.subjects[:32],
            repetitions=train_set.repetitions[:32],
            sample_rate_hz=train_set.sample_rate_hz,
        )
        overfit_opt = tr.Adam(overfit_model.named_parameters(), lr=1e-2)
        final = None
        for upto in range(50, 501, 50):
            run = tr.train(
                overfit_model, batch,
                tr.TrainConfig(epochs=upto, batch_size=32, lr=1e-2, seed=0),
                optimizer=overfit_opt, start_epoch=upto - 50,
            )
            final = run.losses[-1]
            if final < 0.01:
                break
        assert final is not None and final < 0.01, final


# -- 8: statistics ------------------------------------------------------------


def test_criterion_8_statistics(acceptance_gate):
    """Exact Wilcoxon hand case, the exact p equal to a literal listing of
    all 2^n sign assignments at every W for n <= 12, with and without
    tied magnitudes, and the band thresholds."""
    with acceptance_gate.criterion(8, "signed-rank test and significance bands"):
        d = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        res = stats.wilcoxon_signed_rank(d, np.zeros(5))
        assert res.statistic == 0.0
        assert res.p_value == 0.0625

        for n in range(4, 13):
            tied = 1.0 + np.arange(n) // 2  # magnitudes tied in pairs
            for w in range(0, n * (n + 1) // 2 + 1):
                diffs = signed_vector(n, w)
                for d in (diffs, np.sign(diffs) * tied):
                    exact = stats.wilcoxon_signed_rank(d, np.zeros(n)).p_value
                    listed = literal_enumeration_p(d)
                    assert abs(exact - listed) <= 1e-12, (n, w, exact, listed)

        assert stats.significance_band(0.0001) == "****"
        assert stats.significance_band(0.00011) == "***"
        assert stats.significance_band(0.001) == "***"
        assert stats.significance_band(0.01) == "**"
        assert stats.significance_band(0.05) == "*"
        assert stats.significance_band(0.051) == "ns"


# -- 9: determinism and persistence -------------------------------------------


def test_criterion_9_determinism_and_persistence(acceptance_gate, tmp_path):
    """Same-seed runs and split runs agree to the byte; recordings survive
    a disk round trip bit-exactly."""
    with acceptance_gate.criterion(9, "bit-exact reruns, resume, and file round trip"):
        rng = np.random.default_rng(17)
        data = rng.normal(size=(24, 2, 12))
        seg = sig.SegmentSet(
            data=data,
            labels=rng.integers(0, 3, size=24).astype(np.uint16),
            subjects=np.ones(24, dtype=np.uint16),
            repetitions=np.ones(24, dtype=np.uint16),
            sample_rate_hz=2000.0,
        )
        from emgtcn.model import ModelConfig

        cfg = ModelConfig(
            channels=2, seq_len=12, num_patches=4, model_dim=4, num_classes=3,
        )

        def run_epochs(total: int):
            model = AttentionTcn(cfg, seed=2)
            opt = tr.Adam(model.named_parameters(), lr=1e-3)
            result = tr.train(
                model, seg,
                tr.TrainConfig(epochs=total, batch_size=8, lr=1e-3, seed=2),
                optimizer=opt,
            )
            return model, opt, result

        model_a, opt_a, res_a = run_epochs(6)
        model_b, _, res_b = run_epochs(6)
        for name, p in model_a.named_parameters().items():
            assert p.data.tobytes() == model_b.named_parameters()[name].data.tobytes()
        assert res_a.losses == res_b.losses

        # interrupted at epoch 3, resumed from the checkpoint on disk
        model_c = AttentionTcn(cfg, seed=2)
        opt_c = tr.Adam(model_c.named_parameters(), lr=1e-3)
        first = tr.train(
            model_c, seg,
            tr.TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=2),
            optimizer=opt_c,
        )
        path = tmp_path / "resume.ckpt"
        tr.save_checkpoint(
            path, tr.make_checkpoint(model_c, opt_c, 3, first.rng_state)
        )
        ckpt = tr.load_checkpoint(path)
        resumed = tr.restore_model(ckpt)
        opt_d = tr.restore_optimizer(ckpt, resumed)
        second = tr.train(
            resumed, seg,
            tr.TrainConfig(epochs=6, batch_size=8, lr=1e-3, seed=2),
            optimizer=opt_d, start_epoch=ckpt.epoch, rng_state=ckpt.rng_state,
        )
        for name, p in resumed.named_parameters().items():
            assert p.data.tobytes() == model_a.named_parameters()[name].data.tobytes()
        assert first.losses + second.losses == res_a.losses

        rec = dio.Recording(
            data=np.array(
                [[-0.0, 1e-39, 3.5, -2.25], [0.125, -1.0, 2.0, 4.0]],
                dtype=np.float32,
            ),
            sample_rate_hz=2000.0,
            gesture=np.array([0, 1, 1, 0], dtype=np.uint16),
            repetition=np.array([0, 2, 2, 0], dtype=np.uint16),
        )
        disk = tmp_path / "round.semg"
        dio.write_recording(disk, rec)
        back = dio.read_recording(disk)
        assert back.data.tobytes() == rec.data.tobytes()
        assert np.array_equal(back.gesture, rec.gesture)
        assert np.array_equal(back.repetition, rec.repetition)
        assert back.sample_rate_hz == rec.sample_rate_hz
