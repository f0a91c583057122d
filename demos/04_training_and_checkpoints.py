"""
Training, determinism, and resume
=================================

Trains a small classifier on synthetic segments, saves a checkpoint
mid-run, resumes from disk, and shows the resumed run reproducing the
uninterrupted one bit for bit.
"""

import os
import tempfile

import numpy as np

from emgtcn import data as dio
from emgtcn import signal as sig
from emgtcn import train as tr
from emgtcn.model import AttentionTcn, derive_config

# one subject, five gestures, conditioned and windowed
(rec,) = dio.generate_synthetic(subjects=1, classes=5, reps=6, seed=3)
segments = sig.segment(rec.with_data(sig.preprocess(rec.data)), window_ms=200)
train_set, test_set = dio.split(segments)
print(f"{len(train_set)} training / {len(test_set)} held-out segments")

cfg = derive_config(window_ms=200, num_patches=10, model_dim=8, num_classes=5)
model = AttentionTcn(cfg, seed=0)
opt = tr.Adam(model.named_parameters(), lr=1e-3)
result = tr.train(model, train_set,
                  tr.TrainConfig(epochs=8, batch_size=32, lr=1e-3, seed=0),
                  optimizer=opt)
for e, loss, acc in zip(result.epochs, result.losses, result.accuracies):
    print(f"  epoch {e}: loss {loss:.4f}  train acc {acc:.3f}")

# held-out accuracy
logits = model.forward(test_set.data).data
acc = float((np.argmax(logits, axis=1) == test_set.labels).mean())
print(f"held-out accuracy: {acc:.3f}")

# interrupt at epoch 4, persist, resume; the split run must match the
# straight run exactly, so shuffling state rides along in the checkpoint
with tempfile.TemporaryDirectory() as tmp:
    half_model = AttentionTcn(cfg, seed=0)
    half_opt = tr.Adam(half_model.named_parameters(), lr=1e-3)
    first = tr.train(half_model, train_set,
                     tr.TrainConfig(epochs=4, batch_size=32, lr=1e-3, seed=0),
                     optimizer=half_opt)
    path = os.path.join(tmp, "half.ckpt")
    tr.save_checkpoint(path, tr.make_checkpoint(half_model, half_opt, 4,
                                                first.rng_state))
    ckpt = tr.load_checkpoint(path)
    resumed = tr.restore_model(ckpt)
    tr.train(resumed, train_set,
             tr.TrainConfig(epochs=8, batch_size=32, lr=1e-3, seed=0),
             optimizer=tr.restore_optimizer(ckpt, resumed),
             start_epoch=ckpt.epoch, rng_state=ckpt.rng_state)

identical = all(
    p.data.tobytes() == resumed.named_parameters()[name].data.tobytes()
    for name, p in model.named_parameters().items()
)
print(f"resumed weights identical to uninterrupted run: {identical}")
