"""Contracts that the ops keep for their callers.

- No op writes into its inputs' arrays, forward or backward, and each
  op's output owns its buffer. The ops finish their outputs in place, so
  an output that aliased an input would let the next in-place write
  change a value that a caller or a backward closure still reads.
  ``reshape``, and ``transpose`` by identity axes, return views by
  design.
- Every op builds its node through the module attribute ``make_op`` of
  ``tensor`` or ``train``, so a wrapper swapped in there (as the traced
  benchmark run does) sees every node.
"""

import math

import numpy as np
import pytest

from emgtcn import model as M
from emgtcn import tensor as T
from emgtcn import train
from composed_ops import sum_all


def _rand(rng, *shape):
    return rng.normal(size=shape)


def _logits_and_labels(rng, lead):
    rows = lead[0] if lead else 1
    return [_rand(rng, rows, 5)], (rng.integers(0, 5, size=rows),)


# op name -> (function, inputs(rng, lead) -> (arrays, extra args), output is a view)
CASES = {
    "add": (T.add, lambda r, lead: ([_rand(r, *lead, 3, 4), _rand(r, 4)], ()), False),
    "mul": (T.mul, lambda r, lead: ([_rand(r, *lead, 3, 4), _rand(r, 4)], ()), False),
    "matmul": (T.matmul, lambda r, lead: ([_rand(r, *lead, 3, 5), _rand(r, 5, 2)], ()), False),
    "reshape": (T.reshape, lambda r, lead: ([_rand(r, *lead, 3, 4)], (lead + (12,),)), True),
    "transpose": (
        T.transpose,
        lambda r, lead: ([_rand(r, *lead, 3, 4)], (tuple(reversed(range(len(lead) + 2))),)),
        False,
    ),
    "transpose-identity": (
        T.transpose, lambda r, lead: ([_rand(r, *lead, 3, 4)], (tuple(range(len(lead) + 2)),)),
        True,
    ),
    "relu": (T.relu, lambda r, lead: ([_rand(r, *lead, 3, 4)], ()), False),
    "softmax_lastdim": (T.softmax_lastdim, lambda r, lead: ([_rand(r, *lead, 3, 4)], ()), False),
    "dilated_causal_conv1d": (
        T.dilated_causal_conv1d,
        lambda r, lead: ([_rand(r, *lead, 10, 6), _rand(r, 5, 6, 3), _rand(r, 5)], (2,)),
        False,
    ),
    "causal_conv_block": (
        T.causal_conv_block,
        lambda r, lead: (
            [_rand(r, *lead, 10, 6), _rand(r, 6, 6, 3), _rand(r, 6), _rand(r, 6, 6, 3),
             _rand(r, 6)],
            (2,),
        ),
        False,
    ),
    "linear": (
        T.linear, lambda r, lead: ([_rand(r, *lead, 3, 4), _rand(r, 4, 5), _rand(r, 5)], ()), False,
    ),
    "patch_embed": (
        T.patch_embed,
        lambda r, lead: ([_rand(r, *lead, 3, 40), _rand(r, 12, 6), _rand(r, 6)], (10,)),
        False,
    ),
    "attention_block": (
        T.attention_block,
        lambda r, lead: (
            [_rand(r, *lead, 10, 12)]
            + [a for _ in "qkvo" for a in (_rand(r, 12, 12) / math.sqrt(12), _rand(r, 12))],
            (),
        ),
        False,
    ),
    "cross_entropy": (train.cross_entropy, _logits_and_labels, False),
}


def test_every_op_has_a_case():
    ops = T.__all__[T.__all__.index("add") : T.__all__.index("attention_block") + 1]
    assert set(ops) | {"transpose-identity", "cross_entropy"} == set(CASES)


@pytest.mark.parametrize("trainable", [False, True], ids=["frozen", "trainable"])
@pytest.mark.parametrize("lead", [(), (4,)], ids=["unbatched", "batched"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_op_leaves_its_inputs_unchanged_and_owns_its_output(name, lead, trainable):
    op, make_inputs, is_view = CASES[name]
    arrays, extra = make_inputs(np.random.default_rng(7), lead)
    inputs = [T.Tensor(a, requires_grad=trainable) for a in arrays]
    read = [x.data for x in inputs] + [a for a in extra if isinstance(a, np.ndarray)]
    before = [a.copy() for a in read]
    out = op(*inputs, *extra)
    for a, want in zip(read, before):
        assert a.tobytes() == want.tobytes()
        assert np.shares_memory(out.data, a) == (is_view and a is read[0])
    if trainable:
        value = out.data.copy()
        g = np.random.default_rng(11).normal(size=out.shape)
        sum_all(T.mul(out, T.Tensor(g))).backward()
        assert out.data.tobytes() == value.tobytes()
        for a, want in zip(read, before):
            assert a.tobytes() == want.tobytes()


def _desk_model():
    return M.AttentionTcn(M.derive_config(200, 10, 12), seed=0)


def _counting(monkeypatch):
    """Swap ``make_op`` in ``tensor`` and ``train`` for a wrapper that
    records, per call, whether the node kept a backward closure."""
    recorded, make_op = [], T.make_op

    def counted(data, parents, backward_fn):
        out = make_op(data, parents, backward_fn)
        recorded.append(out._backward is not None)
        return out

    monkeypatch.setattr(T, "make_op", counted)
    monkeypatch.setattr(train, "make_op", counted)
    return recorded


def test_training_step_records_nine_nodes_through_make_op(monkeypatch):
    m = _desk_model()
    rng = np.random.default_rng(3)
    x, labels = rng.normal(size=(4, 12, 400)), np.array([0, 5, 16, 2])
    recorded = _counting(monkeypatch)
    train.cross_entropy(m.forward(x), labels).backward()
    assert recorded == [True] * 9


def test_frozen_batch1_forward_calls_make_op_eight_times(monkeypatch):
    m = _desk_model()
    for p in m.named_parameters().values():
        p.requires_grad = False
    recorded = _counting(monkeypatch)
    m.forward(np.random.default_rng(5).normal(size=(12, 400)))
    assert recorded == [False] * 8
