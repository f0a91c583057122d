"""Run one perfbench workload in alternating pairs on a base commit and
on the working tree, and write the pairs to a BENCH file.

    python tools/bench_pair.py --base REV --workload W --pairs K --seconds S --tag TAG

The base side runs in a temporary root that holds ``git archive REV
src`` beside the working tree's ``perfbench/`` and ``BENCHMARK.json``,
so the two sides run one benchmark and differ only in ``src/``. Pair i
(from 1) runs both sides at seed i, the base first when i is odd and
the change first when it is even, so run order weighs on both sides
alike. ``--base HEAD`` on a tree whose ``src/`` is committed gives an
A/A series in the same format.

``BENCH_<W>_<TAG>.json`` at the root of the repository then holds:
  - ``host``: the host record of the first run;
  - ``base`` and ``change``: each side's commit and the sha256 of its
    ``src/emgtcn/*.py`` (the change also says whether its ``src/``
    differs from that commit);
  - ``pairs``: per pair, the seed, the side run first, and each side's
    gated ``metrics`` (the last line ``perfbench/run.py`` prints) and
    ``detail`` (the report line before it);
  - ``summary``: per gated metric of ``BENCHMARK.json``, each side's
    median and quartiles (``statistics.quantiles``, inclusive), the
    median over pairs of change / base, and ``change_wins``, the pairs
    in which the change is better in the metric's direction (a tie
    counts for neither side).

A run that fails its checks stops the series; nothing is written.
Ten pairs of one workload take about 7 minutes at ``--seconds 15``.
"""

import argparse
import hashlib
import io
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout


def _commit(rev: str) -> str:
    return _git("rev-parse", f"{rev}^{{commit}}").decode().strip()


def src_sha256(root: pathlib.Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.glob("src/emgtcn/*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def base_root(rev: str, into: pathlib.Path):
    """``into`` filled with ``rev``'s ``src/`` and this tree's benchmark."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev, "src"))) as tar:
        tar.extractall(into, filter="data")
    shutil.copytree(ROOT / "perfbench", into / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", into / "BENCHMARK.json")


def run_once(root: pathlib.Path, workload: str, seed: int, seconds: int) -> tuple:
    """(report, result): the two JSON lines ``perfbench/run.py`` ends with."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True)
    report, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"bench_pair: {root} seed {seed} failed: {report['problems']}")
    return report, result


def summarize(pairs: list, declared: list) -> dict:
    """Per gated metric: each side's median and quartiles, the median
    ratio change / base, and the pairs the change wins."""
    summary = {}
    for metric in declared:
        name = metric["name"]
        base, change = ([p[side]["metrics"][name] for p in pairs] for side in SIDES)
        entry = {}
        for side, values in zip(SIDES, (base, change)):
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            entry[side] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                           "iqr": q3 - q1}
        entry["median_ratio"] = statistics.median(c / b for b, c in zip(base, change))
        sign = 1 if metric["better"] == "higher" else -1
        entry["change_wins"] = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="commit whose src/ is the base")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--tag", required=True, help="names the file BENCH_<W>_<TAG>.json")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, so that each side has quartiles")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"base": pathlib.Path(tmp), "change": ROOT}
        base_root(args.base, roots["base"])
        bench = {
            "workload": args.workload, "seconds": args.seconds,
            "base": {"rev": args.base, "commit": _commit(args.base),
                     "src_sha256": src_sha256(roots["base"])},
            "change": {"commit": _commit("HEAD"),
                       "src_differs_from_commit": bool(_git("status", "--porcelain", "src")),
                       "src_sha256": src_sha256(ROOT)},
            "pairs": [],
        }
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                report, result = run_once(roots[side], args.workload, seed, args.seconds)
                bench.setdefault("host", report["host"])
                pair[side] = {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
                              "detail": report["detail"]}
            bench["pairs"].append(pair)
            print(f"pair {seed}: " + ", ".join(
                f"{side} task_s {pair[side]['metrics']['task_s']:.4g}" for side in SIDES
            ), file=sys.stderr)
    bench["summary"] = summarize(bench["pairs"], declared)
    out = ROOT / f"BENCH_{args.workload}_{args.tag}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
