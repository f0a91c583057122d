"""Every committed ``BENCH_*.json`` (written by ``tools/bench_pair.py``)
parses, names both commits, and holds a summary that recomputes from its
pairs. The tool itself is not run here: ten pairs take minutes."""

import importlib.util
import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_names_two_commits_and_recomputes_from_its_pairs(path):
    bench = json.loads(path.read_text())
    for side in ("base", "change"):
        assert re.fullmatch("[0-9a-f]{40}", bench[side]["commit"]), side
        assert re.fullmatch("[0-9a-f]{64}", bench[side]["src_sha256"]), side
    pairs = bench["pairs"]
    assert [p["seed"] for p in pairs] == list(range(1, len(pairs) + 1))
    assert [p["first"] for p in pairs] == [("base", "change")[i % 2] for i in range(len(pairs))]
    assert bench["summary"] == bench_pair.summarize(pairs, DECLARED)
    for name, entry in bench["summary"].items():
        for side in ("base", "change"):
            values = [p[side]["metrics"][name] for p in pairs]
            assert entry[side]["median"] == statistics.median(values), (name, side)


def test_summary_counts_wins_in_each_metric_direction():
    def pair(base, change):
        return {side: {"metrics": {"task_s": t, "items_per_s": 1 / t}}
                for side, t in (("base", base), ("change", change))}

    pairs = [pair(2.0, 1.0), pair(2.0, 2.0), pair(1.0, 4.0), pair(3.0, 1.5)]
    declared = [{"name": "task_s", "better": "lower"},
                {"name": "items_per_s", "better": "higher"}]
    summary = bench_pair.summarize(pairs, declared)
    for name in ("task_s", "items_per_s"):
        assert summary[name]["change_wins"] == 2  # the tie counts for neither
    assert summary["task_s"]["median_ratio"] == 0.75  # of 0.5, 1.0, 4.0 and 0.5
    assert summary["task_s"]["base"] == {"median": 2.0, "q1": 1.75, "q3": 2.25, "iqr": 0.5}
