"""Run the fixed pipeline through ``emgtcn.cli.main`` and check that
every artifact it writes is byte-identical to the committed record.

    python tools/fixed_run.py

The run is ``synth --subjects 4 --seed 0``, ``preprocess`` at the
default window, ``train --epochs 3`` at seeds 0 and 1, ``eval`` of both
checkpoints and ``compare`` of the two reports, all in a temporary
directory that is removed afterwards. The commands' own output is held
back and shown on stderr only if a command fails.

stdout gets the record: one ``<sha256>  <artifact>`` line per artifact
(14 in all), in the order they are written, then ``#`` note lines for
the host (python, numpy and scipy versions, the BLAS numpy was built
with) and ``# src_lines N``, the line count of ``src/emgtcn/*.py``.

The digest lines are then compared with ``tools/fixed_run.digests``;
``#`` lines take no part in the comparison. The script exits 0 when
they agree. Otherwise it exits 1 with one stderr line naming every
artifact whose digest changed, is missing or is extra, and saying
whether the host notes differ too: the digests depend on the host's
float arithmetic (BLAS build, CPU), so a host change can move them
without any change to the code. It also exits 1, with one stderr line
naming them, when the work directory holds anything besides the 14
artifacts after the run, such as a temporary file that a writer failed
to rename or remove. To re-baseline after a deliberate change, write
stdout to a temporary file, move it over the record and give the reason
in CHANGES.md:

    python tools/fixed_run.py > /tmp/digests; mv /tmp/digests tools/fixed_run.digests
"""

import contextlib
import glob
import hashlib
import io
import os
import platform
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, "..", "src")
RECORD = os.path.join(HERE, "fixed_run.digests")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from emgtcn.cli import main  # noqa: E402

SUBJECTS = 4
HOST_NOTES = ("python", "numpy", "scipy", "blas")


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


def leftovers(root: str, names) -> str | None:
    """The line naming every file or folder under ``root`` that is not
    one of the artifacts ``names`` (paths relative to ``root``) or a
    folder holding one, or None when there is none."""
    expected = set(names) | {os.path.dirname(n) for n in names}
    found = []
    for folder, dirs, files in os.walk(root):
        found += [os.path.relpath(os.path.join(folder, f), root) for f in dirs + files]
    extra = sorted(set(found) - expected)
    if not extra:
        return None
    return f"fixed run: the work directory holds more than the artifacts: {', '.join(extra)}"


def notes() -> list:
    """The ``#`` lines: host versions, then the ``src/`` line count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = "unknown"
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "emgtcn", "*.py")):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return [
        f"# python {platform.python_version()}", f"# numpy {np.__version__}",
        f"# scipy {scipy.__version__}", f"# blas {blas}", f"# src_lines {src_lines}",
    ]


def _parse(lines) -> tuple:
    digests, host = {}, {}
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(" ")
            if key in HOST_NOTES:
                host[key] = value
        elif line.strip():
            digest, _, name = line.partition("  ")
            digests[name] = digest
    return digests, host


def compare(record: str, printed: list):
    """The mismatch line for the ``printed`` lines against the ``record``
    text, or None when every digest agrees."""
    want, want_host = _parse(record.splitlines())
    have, have_host = _parse(printed)
    groups = (
        ("changed", [n for n in have if n in want and have[n] != want[n]]),
        ("missing", [n for n in want if n not in have]),
        ("extra", [n for n in have if n not in want]),
    )
    found = [f"{label} {', '.join(names)}" for label, names in groups if names]
    if not found:
        return None
    drift = [
        f"{key} {want_host.get(key)} -> {have_host.get(key)}"
        for key in HOST_NOTES if want_host.get(key) != have_host.get(key)
    ]
    host = f"host notes differ: {', '.join(drift)}" if drift else "host notes match"
    return f"fixed run: digests differ from {os.path.basename(RECORD)}: {'; '.join(found)}; {host}"


def check() -> int:
    with tempfile.TemporaryDirectory(prefix="emgtcn-fixed-") as root:
        printed = []
        names = fixed_run(root)
        for name in names:
            with open(os.path.join(root, name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            printed.append(f"{digest}  {os.path.basename(name)}")
        extra = leftovers(root, names)
    printed += notes()
    print("\n".join(printed))
    try:
        with open(RECORD, encoding="utf-8") as fh:
            record = fh.read()
    except FileNotFoundError:
        record = ""
    failures = [line for line in (compare(record, printed), extra) if line]
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(check())
