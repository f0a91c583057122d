"""The comparison step of ``tools/fixed_run.py``.

The pipeline itself is not run here: its digests depend on the host's
float arithmetic. Only the comparison of printed lines with a record is.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fixed_run.py"
_spec = importlib.util.spec_from_file_location("fixed_run", TOOL)
fixed_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fixed_run)

NOTES = [
    "# python 3.11.7", "# numpy 2.4.6", "# scipy 1.17.1",
    "# blas scipy-openblas 0.3.31", "# src_lines 2700",
]
DIGESTS = ["aa11  subject01.semg", "bb22  m0.ckpt", "cc33  comparisons.csv"]
RECORD = "\n".join(DIGESTS + NOTES) + "\n"


def test_equal_digests_pass_whatever_the_notes_say():
    assert fixed_run.compare(RECORD, DIGESTS + NOTES) is None
    assert fixed_run.compare(RECORD, DIGESTS) is None
    other_host = ["# numpy 9.9.9", "# blas other 1.0", "# src_lines 1"]
    assert fixed_run.compare(RECORD, DIGESTS + other_host) is None


def test_every_mismatch_is_named_on_one_line():
    printed = ["aa11  subject01.semg", "ff00  m0.ckpt", "dd44  extra.csv", *NOTES]
    line = fixed_run.compare(RECORD, printed)
    assert "\n" not in line
    assert "changed m0.ckpt" in line
    assert "missing comparisons.csv" in line
    assert "extra extra.csv" in line
    assert "subject01.semg" not in line
    assert "host notes match" in line


def test_host_drift_is_told_apart():
    printed = ["ff00  subject01.semg", *DIGESTS[1:], "# python 3.11.7",
               "# numpy 2.5.0", "# scipy 1.17.1", "# blas scipy-openblas 0.3.31"]
    line = fixed_run.compare(RECORD, printed)
    assert "changed subject01.semg" in line
    assert "host notes differ: numpy 2.4.6 -> 2.5.0" in line
    assert "python" not in line.split("host notes differ")[1]


def test_committed_record_holds_the_fourteen_artifacts():
    record = (TOOL.parent / "fixed_run.digests").read_text()
    digests = [ln for ln in record.splitlines() if ln and not ln.startswith("#")]
    assert len(digests) == 14
    assert all(len(ln.split("  ")[0]) == 64 for ln in digests)
    assert fixed_run.compare(record, record.splitlines()) is None


def test_anything_besides_the_artifacts_is_named_on_one_line(tmp_path):
    names = ["raw/subject01.semg", "segs.sseg", "m0.ckpt"]
    for name in names:
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(b"x")
    assert fixed_run.leftovers(str(tmp_path), names) is None
    (tmp_path / "m0.ckpt.1a2b3c4d.tmp").write_bytes(b"")
    (tmp_path / "raw" / "stray").mkdir()
    line = fixed_run.leftovers(str(tmp_path), names)
    assert "\n" not in line
    assert line.endswith(": m0.ckpt.1a2b3c4d.tmp, raw/stray")


def test_committed_record_counts_the_source_lines_of_this_tree():
    # aim 2's metric: a change to src/ must refresh the record it is judged by
    record = (TOOL.parent / "fixed_run.digests").read_text().splitlines()
    counted = [ln for ln in fixed_run.notes() if ln.startswith("# src_lines ")]
    assert counted and counted[0] in record, (counted, record[-1])
