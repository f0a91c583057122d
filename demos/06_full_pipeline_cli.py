"""
The whole pipeline through the command line
===========================================

Drives every subcommand in-process: synthesize recordings, preprocess,
train, evaluate two seeds, and compare them with the signed-rank test.
All human-readable output lands on stderr; each command prints one
machine-readable line on stdout.
"""

import tempfile
from pathlib import Path

from emgtcn.cli import main

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    raw = root / "raw"
    segs = root / "segments.sseg"

    assert main(["synth", "--out-dir", str(raw), "--subjects", "3",
                 "--num-classes", "5", "--reps", "6", "--seed", "1",
                 "--gesture-seconds", "0.5"]) == 0
    inputs = sorted(str(p) for p in raw.iterdir())

    assert main(["preprocess", *inputs, "--out", str(segs)]) == 0

    reports = []
    for seed in ("10", "20"):
        ckpt = root / f"model_s{seed}.ckpt"
        assert main(["train", str(segs),
                     "--checkpoint", str(ckpt),
                     "--trace", str(root / f"trace_s{seed}.csv"),
                     "--epochs", "6", "--lr", "0.001", "--model-dim", "8",
                     "--num-classes", "5", "--seed", seed]) == 0
        out_dir = root / f"report_s{seed}"
        assert main(["eval", str(ckpt), str(segs), "--out-dir", str(out_dir),
                     "--model-id", f"seed{seed}"]) == 0
        reports.append(out_dir / f"seed{seed}_per_subject.csv")

    assert main(["params", "--window-ms", "200", "--num-patches", "10",
                 "--model-dim", "8", "--num-classes", "5"]) == 0

    assert main(["compare", *(str(r) for r in reports),
                 "--out", str(root / "comparisons.csv")]) == 0
    print("\ncomparisons.csv:")
    print((root / "comparisons.csv").read_text())
