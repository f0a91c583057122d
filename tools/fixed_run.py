"""Run the fixed pipeline through ``emgtcn.cli.main`` and print the
sha256 of every artifact it writes.

    python tools/fixed_run.py

The run is ``synth --subjects 4 --seed 0``, ``preprocess`` at the
default window, ``train --epochs 3`` at seeds 0 and 1, ``eval`` of both
checkpoints and ``compare`` of the two reports, all in a temporary
directory that is removed afterwards. stdout gets one
``<sha256>  <artifact>`` line per artifact (14 in all), in the order
they are written; the commands' own output is held back and shown on
stderr only if a command fails. The digests depend on the host's float
arithmetic (BLAS build, CPU), so compare them between two checkouts on
one machine.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from emgtcn.cli import main  # noqa: E402

SUBJECTS = 4


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    if code != 0:
        sys.stderr.write(out.getvalue() + err.getvalue())
        raise SystemExit(f"fixed run: {argv[0]} exited {code}")


def fixed_run(root: str) -> list:
    """Run the pipeline under ``root``; return the artifact names in order."""
    raw = os.path.join(root, "raw")
    _run(["synth", "--out-dir", raw, "--subjects", SUBJECTS, "--seed", 0])
    semg = [f"raw/subject{s:02d}.semg" for s in range(1, SUBJECTS + 1)]
    _run(["preprocess", *(os.path.join(root, p) for p in semg),
          "--out", os.path.join(root, "segs.sseg")])
    models = ("m0", "m1")
    for seed, name in enumerate(models):
        _run(["train", os.path.join(root, "segs.sseg"),
              "--checkpoint", os.path.join(root, f"{name}.ckpt"),
              "--trace", os.path.join(root, f"trace{seed}.csv"),
              "--epochs", 3, "--seed", seed])
    for name in models:
        _run(["eval", os.path.join(root, f"{name}.ckpt"),
              os.path.join(root, "segs.sseg"), "--out-dir", root])
    _run(["compare", *(os.path.join(root, f"{m}_per_subject.csv") for m in models),
          "--out", os.path.join(root, "comparisons.csv")])
    return [
        *semg, "segs.sseg", "m0.ckpt", "m1.ckpt", "trace0.csv", "trace1.csv",
        *(f"{m}_{part}.csv" for m in models for part in ("per_subject", "summary")),
        "comparisons.csv",
    ]


def print_digests() -> int:
    with tempfile.TemporaryDirectory(prefix="emgtcn-fixed-") as root:
        for name in fixed_run(root):
            with open(os.path.join(root, name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"{digest}  {os.path.basename(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(print_digests())
