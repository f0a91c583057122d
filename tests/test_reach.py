"""Every function in ``src/emgtcn`` that no command runs is listed in
``UNREACHED``, with the reason it is kept, and no other is.

A child process runs the pipeline of ``tools/fixed_run.py`` (imported,
not copied) and then one command for each path that pipeline does not
take: a CSV ``preprocess``, a ``--train-reps`` list, a usage error and
a warning. It runs them under ``sys.setprofile`` and
``threading.setprofile`` and prints, as JSON, the functions of
``src/emgtcn`` it never entered. A function is a ``def`` or a
``lambda``, named ``<module>.<qualname>``. A comprehension belongs to
the function around it, and a function nested in one that is never
entered is not named on its own. To see the list:

    PYTHONPATH=src python tests/test_reach.py

A new function that no command reaches fails here until it is listed
with its reason. A listed function that a command starts to reach fails
too, so the list only shrinks as its items land.
"""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from inspect import CO_OPTIMIZED
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "emgtcn"

# function -> why it stays though no command runs it: the ROADMAP item
# that deletes it or gives it a caller, or "interactive"
UNREACHED = {
    # item 4 moves the primitives the model does not run into the tests
    **dict.fromkeys([
        "tensor._unbroadcast", "tensor.add", "tensor.mul", "tensor.matmul",
        "tensor.transpose", "tensor.relu", "tensor.softmax_lastdim",
        "tensor.dilated_causal_conv1d",
    ], "item 4"),
    # item 6 deletes what only the benchmark, the demos and the tests call
    **dict.fromkeys([
        "signal.segment", "data.concat_segments", "data.split",
        "data.Recording.with_data", "data.Recording.channels",
    ], "item 6"),
    "train.restore_optimizer": "item 20",  # train --resume will run it
    "tensor.Tensor.__repr__": "interactive",
}

_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def functions() -> dict:
    """Each function's code location (file, first line, qualname) in the
    package, mapped to its ``<module>.<qualname>``."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        todo = [compile(path.read_text(encoding="utf-8"), os.path.realpath(path), "exec")]
        while todo:
            code = todo.pop()
            todo += [c for c in code.co_consts if hasattr(c, "co_code")]
            # CO_OPTIMIZED marks a function body, not a module or class body
            if code.co_flags & CO_OPTIMIZED and code.co_name not in _COMPREHENSIONS:
                key = (code.co_filename, code.co_firstlineno, code.co_qualname)
                found[key] = f"{path.stem}.{code.co_qualname}"
    return found


def _main(argv) -> int:
    from emgtcn.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


def _commands(root: str):
    """The fixed run, then one command per path it does not take."""
    spec = importlib.util.spec_from_file_location("fixed_run", ROOT / "tools" / "fixed_run.py")
    fixed_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixed_run)
    fixed_run.fixed_run(root)
    from emgtcn.data import generate_synthetic

    (rec,) = generate_synthetic(1, classes=2, reps=6, gesture_seconds=0.3, rest_seconds=0.1)
    csv = os.path.join(root, "one.csv")
    with open(csv, "w", encoding="utf-8") as fh:
        header = [f"ch{c + 1}" for c in range(len(rec.data))] + ["gesture", "repetition"]
        fh.write(",".join(header))
        for t in range(rec.num_samples):
            fh.write("\n" + ",".join([*map(str, rec.data[:, t]), str(rec.gesture[t]),
                                      str(rec.repetition[t])]))
    segs = os.path.join(root, "segs.sseg")
    config = os.path.join(root, "run.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"epochs": 0, "lr": 1e-3, "seed": None, "test_repetitions": [2, 5]}, fh)
    for argv, code in (
        (["params"], 0),
        (["preprocess", csv, "--out", os.path.join(root, "csv.sseg")], 0),
        (["train", segs, "--checkpoint", os.path.join(root, "r.ckpt"), "--trace",
          os.path.join(root, "r.csv"), "--config", config, "--train-reps", "1,3"], 0),
        (["train", segs], 2),  # a usage error
        (["preprocess", os.path.join(root, "raw", "subject01.semg"), "--out",
          os.path.join(root, "w.sseg"), "--window-ms", 5000], 0),  # a warning
    ):
        assert _main(argv) == code, argv


def unreached() -> list:
    """Run the commands under the profiler; the functions never entered."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    with tempfile.TemporaryDirectory(prefix="emgtcn-reach-") as root:
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            _commands(root)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    seen = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_qualname)
            for c in entered}
    never = {name for key, name in functions().items() if key not in seen}
    # a function nested in one never entered is implied by it
    return sorted(name for name in never if not any(
        name.startswith(outer + ".<locals>.") for outer in never))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects name their "
                    "qualname from Python 3.11 on")
def test_unreached_functions_are_exactly_the_listed_ones(tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, __file__], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    found = set(json.loads(proc.stdout))
    unlisted = sorted(found - UNREACHED.keys())
    reached = sorted(UNREACHED.keys() - found)
    assert not unlisted, f"no command runs these; list each with its reason: {unlisted}"
    assert not reached, f"a command now runs these; take them off the list: {reached}"


if __name__ == "__main__":
    print(json.dumps(unreached()))
