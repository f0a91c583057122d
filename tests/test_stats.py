import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from emgtcn.errors import DataError, DimensionError, UsageError
from emgtcn.stats import (
    _average_ranks,
    accuracy,
    aggregate,
    emit_report,
    read_per_subject,
    significance_band,
    wilcoxon_signed_rank,
)
from signed_rank_oracle import literal_enumeration_p, signed_vector


def test_accuracy_basic_fractions():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([1, 2, 3], [0, 0, 0]) == 0.0
    assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75


def test_accuracy_refuses_a_logit_matrix():
    logits = np.array([[0.5, 0.5, 0.1], [0.0, 1.0, 1.0]])
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2,\)"):
        accuracy(logits, np.array([0, 1]))


def test_accuracy_empty_rejected():
    with pytest.raises(UsageError):
        accuracy(np.empty(0), np.empty(0))


def test_accuracy_length_mismatch():
    with pytest.raises(DimensionError):
        accuracy([1, 2], [1, 2, 3])


def test_aggregate_single_subject():
    rep = aggregate({3: 0.8})
    assert rep.mean == 0.8
    assert rep.std == 0.0
    assert rep.median == 0.8
    assert rep.q1 == rep.q3 == 0.8


def test_aggregate_two_subjects_hand_arithmetic():
    rep = aggregate({1: 0.6, 2: 0.8})
    assert rep.mean == pytest.approx(0.7, abs=1e-15)
    # n-1 denominator: sqrt(((0.1)^2 + (0.1)^2) / 1)
    assert rep.std == pytest.approx(math.sqrt(0.02), abs=1e-15)


def test_aggregate_identical_values_zero_iqr():
    rep = aggregate({s: 0.75 for s in range(10)})
    assert rep.q3 - rep.q1 == 0.0
    assert rep.std == 0.0


def test_aggregate_quartiles_ordered_and_interpolated():
    rng = np.random.default_rng(1)
    vals = {s: float(v) for s, v in enumerate(rng.uniform(0, 1, size=11))}
    rep = aggregate(vals)
    assert 0.0 <= rep.q1 <= rep.median <= rep.q3 <= 1.0
    arr = np.sort(np.array(list(vals.values())))
    assert rep.median == pytest.approx(arr[5], abs=1e-15)
    assert rep.q1 == pytest.approx(np.percentile(arr, 25), abs=1e-15)


def test_aggregate_mean_is_permutation_invariant():
    rng = np.random.default_rng(2)
    vals = rng.uniform(0, 1, size=9)
    a = aggregate({s: float(v) for s, v in enumerate(vals)})
    b = aggregate({8 - s: float(v) for s, v in enumerate(vals)})
    assert a.mean == b.mean and a.std == b.std


def test_aggregate_rejects_out_of_range():
    with pytest.raises(DataError):
        aggregate({0: 1.5})
    with pytest.raises(DataError, match=r"accuracies must lie in \[0, 1\]"):
        aggregate({1: float("nan"), 2: 0.5})
    with pytest.raises(UsageError):
        aggregate({})


def test_wilcoxon_degenerate_all_zero_differences():
    r = wilcoxon_signed_rank([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
    assert r.p_value == 1.0
    assert r.n_effective == 0


def test_wilcoxon_hand_case_all_positive():
    r = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], np.zeros(5))
    assert r.statistic == 0.0
    assert r.p_value == pytest.approx(2.0 / 32.0, abs=1e-15)
    assert r.n_effective == 5


def test_average_ranks_equal_scipy_rankdata_on_ties():
    rng = np.random.default_rng(3)
    for n in [*range(1, 25), 200, 1001]:
        for levels in (1, 2, max(1, n // 3), n):
            v = rng.integers(0, levels, n) / 7.0
            ranks = _average_ranks(v)
            assert np.array_equal(ranks, scipy.stats.rankdata(v, method="average"))
            assert np.array_equal(2 * ranks, np.rint(2 * ranks))  # half-integers


def test_wilcoxon_tied_ranks_hand_case():
    # d = [1, -1, 2]: |d| ranks are [1.5, 1.5, 3], so W = 1.5 and
    # 6 of 8 sign assignments give W+ <= 1.5  ->  p = 0.75
    r = wilcoxon_signed_rank([1.0, -1.0, 2.0], np.zeros(3))
    assert r.statistic == 1.5
    assert r.p_value == pytest.approx(0.75, abs=1e-15)


def test_wilcoxon_exact_matches_literal_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 13))
        a = np.round(rng.normal(size=n), 1)
        b = np.round(rng.normal(size=n), 1)
        r = wilcoxon_signed_rank(a, b)
        if r.n_effective == 0:
            continue
        # a and b are multiples of 0.1; the oracle gets the differences as
        # exact integers (in tenths), so its float equality finds every tie
        exact_d = np.rint(10.0 * (a - b))
        assert r.p_value == pytest.approx(literal_enumeration_p(exact_d), abs=1e-12)


def test_wilcoxon_symmetric_in_arguments():
    rng = np.random.default_rng(4)
    a = rng.normal(size=12)
    b = rng.normal(size=12)
    r1 = wilcoxon_signed_rank(a, b)
    r2 = wilcoxon_signed_rank(b, a)
    assert r1.statistic == r2.statistic
    assert r1.p_value == r2.p_value


def test_wilcoxon_detects_unit_shift():
    rng = np.random.default_rng(5)
    b = np.sort(rng.uniform(0, 1, size=20)) + np.arange(20) * 1e-3
    r = wilcoxon_signed_rank(b + 1.0, b)
    assert r.p_value < 0.001


def test_wilcoxon_drops_zero_differences():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([1.0, 0.0, 0.0, 0.0])
    r = wilcoxon_signed_rank(a, b)
    assert r.n_effective == 3


def test_wilcoxon_exact_on_both_sides_of_twenty_pairs():
    # one exact path at every n: nothing switches at 20 pairs, and the
    # test takes no method option
    rng = np.random.default_rng(6)
    for n in (20, 21):
        a = np.round(rng.normal(size=n), 1)
        b = np.round(rng.normal(size=n), 1)
        exact_d = np.rint(10.0 * (a - b))
        exact_d = exact_d[exact_d != 0]
        assert np.unique(np.abs(exact_d)).size < exact_d.size  # ties
        r = wilcoxon_signed_rank(a, b)
        assert r.n_effective == exact_d.size
        assert r.p_value == pytest.approx(literal_enumeration_p(exact_d), abs=1e-12)
    with pytest.raises(TypeError):
        wilcoxon_signed_rank([1.0], [0.0], method="exact")


def test_wilcoxon_input_validation():
    with pytest.raises(DimensionError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0])
    with pytest.raises(UsageError):
        wilcoxon_signed_rank([], [])
    with pytest.raises(DataError):
        wilcoxon_signed_rank([np.nan], [0.0])


def test_wilcoxon_exact_every_w_up_to_twelve():
    # exhaustive over every achievable W with distinct magnitudes, and
    # the same sign patterns on magnitudes tied in threes
    for n in range(4, 13):
        tied = 1.0 + np.arange(n) // 3
        for w in range(n * (n + 1) // 4 + 1):
            d = signed_vector(n, w)
            for diffs in (d, np.sign(d) * tied):
                p = wilcoxon_signed_rank(diffs, np.zeros(n)).p_value
                assert p == pytest.approx(literal_enumeration_p(diffs), abs=1e-12), (n, w)


def test_wilcoxon_exact_at_fifteen_subsample():
    # 25 paired values, checked at an n=15 subsample, plain and rounded
    # to tenths so that magnitudes tie
    rng = np.random.default_rng(7)
    a = rng.normal(size=25)
    b = a + rng.normal(scale=0.8, size=25)
    idx = rng.choice(25, size=15, replace=False)
    p = wilcoxon_signed_rank(a[idx], b[idx]).p_value
    assert p == pytest.approx(literal_enumeration_p(a[idx] - b[idx]), abs=1e-12)
    a1, b1 = np.round(a[idx], 1), np.round(b[idx], 1)
    p = wilcoxon_signed_rank(a1, b1).p_value
    assert p == pytest.approx(literal_enumeration_p(np.rint(10.0 * (a1 - b1))), abs=1e-12)
    # and across all W at n=15
    for w in range(0, 15 * 16 // 4 + 1, 3):
        d = signed_vector(15, w)
        p = wilcoxon_signed_rank(d, np.zeros(15)).p_value
        assert p == pytest.approx(literal_enumeration_p(d), abs=1e-12), w


def edgeworth_p(n, w):
    """Two-sided p of W on tie-free ranks 1..n from the continuity-corrected
    normal tail plus its fourth-cumulant (Edgeworth) term. W+ sums
    independent r * Bernoulli(1/2), whose fourth cumulant is -r^4 / 8;
    near a thousand pairs this is within ~2e-7 of the exact p."""
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    k4 = -sum(r**4 for r in range(1, n + 1)) / 8.0
    z = (w - mean + 0.5) / math.sqrt(var)
    density = math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
    kurtosis_term = density * k4 / (24.0 * var**2) * (z**3 - 3.0 * z)
    cdf = 0.5 * math.erfc(-z / math.sqrt(2.0)) - kurtosis_term
    return min(1.0, 2.0 * cdf)


def test_wilcoxon_exact_past_1023_pairs():
    # from 1024 pairs on, 2^n sign assignments pass float64's range, so a
    # tally of counts overflows. scipy's continuity-corrected normal
    # approximation is off by up to ~1.5e-4 mid-range at this n, so it is
    # checked in a tail and near the centre; the Edgeworth term holds tight.
    for n, z in ((1024, -2.33), (1100, -0.025)):
        sd = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
        w = int(n * (n + 1) / 4.0 + z * sd)
        d = signed_vector(n, w)
        r = wilcoxon_signed_rank(d, np.zeros(n))
        assert r.n_effective == n and r.statistic == w
        approx = scipy.stats.wilcoxon(d, method="approx", correction=True).pvalue
        assert abs(r.p_value - approx) <= 1e-4, (n, r.p_value, approx)
        assert abs(r.p_value - edgeworth_p(n, w)) <= 1e-6, (n, r.p_value)


def test_wilcoxon_p_always_in_unit_interval():
    rng = np.random.default_rng(8)
    for n in (1, 2, 5, 21, 40):
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        r = wilcoxon_signed_rank(a, b)
        assert 0.0 <= r.p_value <= 1.0
        assert r.n_effective <= n


def test_wilcoxon_matches_scipy_on_tie_free_samples():
    # scipy's exact null distribution is an independent oracle
    rng = np.random.default_rng(2110)
    for case in range(200):
        n = int(rng.integers(5, 41))
        a = rng.normal(size=n)
        b = a + rng.normal(loc=rng.uniform(-1.0, 1.0), size=n)
        assert np.unique(np.abs(a - b)).size == n and np.all(a != b)
        ours = wilcoxon_signed_rank(a, b)
        ref = scipy.stats.wilcoxon(a, b, method="exact")
        assert ours.statistic == ref.statistic, (case, n)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-12, abs=0), (case, n)


def fraction_reference(ka, kb, n):
    """Independent oracle for accuracies ka/n vs kb/n: the differences are
    exact Fractions, so zeros and ties are found by exact equality. Returns
    (W, two-sided p), with p counted over all sign assignments in Python's
    exact integers."""
    d = [Fraction(int(x) - int(y), n) for x, y in zip(ka, kb) if x != y]
    counts = {}
    for x in d:
        counts[abs(x)] = counts.get(abs(x), 0) + 1
    rank_of, first = {}, 1
    for mag in sorted(counts):
        rank_of[mag] = Fraction(2 * first + counts[mag] - 1, 2)
        first += counts[mag]
    ranks = [rank_of[abs(x)] for x in d]
    w = min(sum(r for r, x in zip(ranks, d) if x > 0),
            sum(r for r, x in zip(ranks, d) if x < 0))
    # average ranks are half-integers: count on doubled integer ranks;
    # ways[s] is the number of sign assignments whose doubled W+ is s
    twice, w2 = [int(2 * r) for r in ranks], int(2 * w)
    ways = [1] + [0] * sum(twice)
    for r in twice:
        for s in range(len(ways) - 1, r - 1, -1):
            ways[s] += ways[s - r]
    return w, min(1.0, float(Fraction(2 * sum(ways[: w2 + 1]), 2 ** len(d))))


def test_wilcoxon_ties_found_by_exact_value():
    # four equal |d| = 10/850 that come out as two distinct floats
    ka, kb = np.array([500, 600, 700, 300]), np.array([490, 590, 690, 310])
    a, b = ka / 850, kb / 850
    assert np.unique(np.abs(a - b)).size == 2
    r = wilcoxon_signed_rank(a, b)
    assert r.statistic == 2.5
    assert r.p_value == fraction_reference(ka, kb, 850)[1] == 0.625

    rng = np.random.default_rng(850)
    float_split = 0
    for case in range(60):
        n = 850 if case % 2 else int(rng.integers(50, 10**5))
        ka = rng.integers(3, n - 2, size=int(rng.integers(4, 11)))
        shift = rng.integers(-3, 4, size=ka.size)
        if case >= 40:  # 21 to 40 nonzero pairs
            ka = rng.integers(3, n - 2, size=int(rng.integers(21, 41)))
            shift = rng.choice([-3, -2, -1, 1, 2, 3], size=ka.size)
        kb = ka + shift
        a, b = ka / n, kb / n
        exact = {Fraction(int(x - y), n) for x, y in zip(ka, kb) if x != y}
        distinct_floats = np.unique(np.abs(a - b)[ka != kb]).size
        float_split += distinct_floats > len({abs(x) for x in exact})
        w, p = fraction_reference(ka, kb, n)
        r = wilcoxon_signed_rank(a, b)
        if not exact:
            assert r.n_effective == 0 and r.p_value == 1.0
            continue
        assert r.n_effective == sum(ka != kb), case
        assert r.statistic == float(w), case
        assert r.p_value == pytest.approx(p, rel=1e-12, abs=0), case
    assert float_split > 0


def test_significance_band_thresholds():
    assert significance_band(0.5) == "ns"
    assert significance_band(0.06) == "ns"
    assert significance_band(0.05) == "*"
    assert significance_band(0.03) == "*"
    assert significance_band(0.01) == "**"
    assert significance_band(0.002) == "**"
    assert significance_band(0.001) == "***"
    assert significance_band(0.0002) == "***"
    assert significance_band(0.0001) == "****"
    assert significance_band(0.0) == "****"
    assert significance_band(1.0) == "ns"


def test_significance_band_monotone_step():
    grid = np.linspace(0.0, 1.0, 2001)
    strength = {"****": 4, "***": 3, "**": 2, "*": 1, "ns": 0}
    bands = [strength[significance_band(float(p))] for p in grid]
    assert all(b1 >= b2 for b1, b2 in zip(bands, bands[1:]))


def test_significance_band_range_errors():
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(DataError):
            significance_band(bad)


def test_emit_report_round_trip(tmp_path):
    per_subject = {1: 1.0 / 3.0, 2: 0.8, 7: 0.911111111111111}
    report = aggregate(per_subject, model_id="m1")
    paths = emit_report(report, tmp_path)
    assert "comparisons" not in paths

    parsed = read_per_subject(paths["per_subject"])
    assert parsed == per_subject
    again = aggregate(parsed, model_id="m1")
    assert again == report

    summary_lines = open(paths["summary"]).read().splitlines()
    assert summary_lines[0] == "model_id,mean,std,median,q1,q3"
    cells = summary_lines[1].split(",")
    assert cells[0] == "m1"
    assert float(cells[1]) == report.mean
    assert float(cells[2]) == report.std


def test_read_per_subject_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,0.5\n")
    with pytest.raises(DataError):
        read_per_subject(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("subject,accuracy\n")
    with pytest.raises(DataError):
        read_per_subject(empty)


@pytest.mark.parametrize("text", [
    "subject,accuracy\r\n1,0.5\r\n2,0.25\r\n",
    "subject,accuracy\n\n1,0.5\n   \n2,0.25\n\n",
    "subject,accuracy \n1 , 0.5\n2,0.25\n",
    '"subject","accuracy"\n"1","0.5"\n2,"0.25"\n',
], ids=["crlf", "blank-lines", "spaces", "quoted"])
def test_read_per_subject_reads_csv_as_the_shared_reader_does(tmp_path, text):
    path = tmp_path / "r_per_subject.csv"
    path.write_bytes(text.encode())
    assert read_per_subject(path) == {1: 0.5, 2: 0.25}


def test_read_per_subject_bad_header_shows_its_cells(tmp_path):
    path = tmp_path / "r_per_subject.csv"
    path.write_text("subject;accuracy\n1;0.5\n")
    with pytest.raises(DataError, match=r"got \['subject;accuracy'\]$"):
        read_per_subject(path)


def test_emit_report_writes_numpy_floats_as_numbers(tmp_path):
    report = aggregate({1: np.float64(0.5), 2: np.float64(0.25)}, model_id="m")
    paths = emit_report(report, tmp_path)
    assert open(paths["per_subject"]).read() == "subject,accuracy\n1,0.5\n2,0.25\n"
    assert read_per_subject(paths["per_subject"]) == {1: 0.5, 2: 0.25}


@pytest.mark.parametrize(
    "rows, line, words",
    [
        ("1,0.5\n1,0.9\n2,0.7\n", 3, "subject 1 appears twice"),
        ("1,0.5\n2,1.5\n", 3, "accuracy 1.5"),
        ("1,0.5\n2,-0.1\n", 3, "accuracy -0.1"),
        ("1,nan\n2,0.5\n", 2, "accuracy nan"),
        ("1,0.5\n2,inf\n", 3, "accuracy inf"),
        ("1,0.5\n2,x\n", 3, "malformed row"),
    ],
    ids=["duplicate", "above-one", "negative", "nan", "inf", "malformed"],
)
def test_read_per_subject_rejects_bad_rows(tmp_path, rows, line, words):
    path = tmp_path / "r_per_subject.csv"
    path.write_text("subject,accuracy\n" + rows)
    with pytest.raises(DataError, match=f"r_per_subject.csv:{line}: {words}"):
        read_per_subject(path)
