"""The traced benchmark mode (``perfbench/run.py --trace 1``) wraps the
functions of every emgtcn layer by name. Installing and removing its
wrappers here makes a removed or renamed function fail tier-1, not only
a traced benchmark run."""

import importlib.util
from pathlib import Path

from emgtcn import cli, data, model, signal, stats, tensor, train

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_instrument_finds_and_restores_every_wrapped_function():
    layers = (cli, data, model, signal, stats, tensor, train)
    before = [dict(vars(layer)) for layer in layers]
    with tracer.instrument(tracer.Tracer("t")):
        pass
    assert [dict(vars(layer)) for layer in layers] == before
