import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
from hypothesis import example, given, settings, strategies as st

from emgtcn import signal
from emgtcn.errors import ConfigError, DataError
from emgtcn.signal import (
    FilterParams,
    MuLawParams,
    SegmentSet,
    butterworth_lowpass,
    mu_law,
    normalize_max_abs,
    preprocess,
    segment,
    segment_index,
    window_blocks,
)

# ln(128.5)/ln(256) at 40 decimal digits, rounded to float64
MU_LAW_HALF_255 = 0.87570306864923476


class FakeRecording:
    def __init__(self, data, gesture, repetition, subject=1, rate=2000.0):
        self.data = np.asarray(data)
        self.gesture = np.asarray(gesture, dtype=np.uint16)
        self.repetition = np.asarray(repetition, dtype=np.uint16)
        self.subject = subject
        self.sample_rate_hz = rate


def test_filter_params_validation():
    with pytest.raises(ConfigError):
        FilterParams(cutoff_hz=1000.0, sample_rate_hz=2000.0)  # at Nyquist
    with pytest.raises(ConfigError):
        FilterParams(cutoff_hz=-5.0)
    FilterParams(cutoff_hz=999.0, sample_rate_hz=2000.0)


@pytest.mark.parametrize("build, error, words", [
    (lambda: FilterParams(sample_rate_hz=float("inf")), ConfigError,
     "sample_rate_hz must be positive, got inf"),
    (lambda: FilterParams(sample_rate_hz=float("nan")), ConfigError,
     "sample_rate_hz must be positive, got nan"),
    # 2 * cutoff / rate, the cutoff butter designs with, underflows to 0
    (lambda: FilterParams(cutoff_hz=5e-324), ConfigError,
     r"cutoff_hz must lie in \(0, 1000.0\) \(below Nyquist\), got 5e-324"),
    (lambda: butterworth_lowpass(np.zeros((2, 0)), FilterParams()), DataError,
     "cannot filter an empty series"),
    (lambda: SegmentSet(np.zeros((2, 3)), *[np.zeros(2)] * 3, 2000.0), DataError,
     r"segment data must be M x C x L, got \(2, 3\)"),
    (lambda: SegmentSet(np.zeros((2, 1, 3)), np.zeros(2), np.zeros(3), np.zeros(2),
                        2000.0), DataError,
     r"subjects must have one entry per segment \(2\), got \(3,\)"),
], ids=["inf-rate", "nan-rate", "subnormal-cutoff", "empty-series", "not-3d", "short-column"])
def test_signal_types_refuse_malformed_input(build, error, words):
    with pytest.raises(error, match=words):
        build()


def test_filter_constant_signal_converges_to_constant():
    x = np.full(4000, 3.25)
    y = butterworth_lowpass(x, FilterParams())
    assert abs(y[-1] - 3.25) <= 1e-9


def test_filter_zero_signal():
    y = butterworth_lowpass(np.zeros(100), FilterParams())
    assert np.array_equal(y, np.zeros(100))


def test_filter_cutoff_attenuation_is_half_power():
    # drive with a pure tone at the cutoff and fit a sinusoid to the
    # steady-state tail; a first-order filter passes 1/sqrt(2) there
    p = FilterParams(cutoff_hz=450.0, sample_rate_hz=2000.0)
    t = np.arange(20000) / p.sample_rate_hz
    x = np.sin(2 * np.pi * p.cutoff_hz * t)
    y = butterworth_lowpass(x, p)[-4000:]
    tt = t[-4000:]
    basis = np.column_stack(
        [np.sin(2 * np.pi * p.cutoff_hz * tt), np.cos(2 * np.pi * p.cutoff_hz * tt)]
    )
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    amplitude = float(np.hypot(*coef))
    assert amplitude == pytest.approx(1.0 / np.sqrt(2.0), abs=0.01)


def test_filter_applies_per_channel():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 500))
    y = butterworth_lowpass(x, FilterParams())
    for c in range(3):
        assert np.array_equal(y[c], butterworth_lowpass(x[c], FilterParams()))


K = signal._BLOCK


@pytest.mark.parametrize("rate", [1.0, 2000.0, 44100.0])
@pytest.mark.parametrize("ratio", [1e-4, 1e-3, 0.05, 0.225, 0.25, 0.4, 0.4999])
def test_filter_matches_scipy_butter_lfilter(ratio, rate):
    # K - 1, K and K + 1 samples end inside, at and past the first block;
    # K*K - 1 .. K*K + 1 do so for the block-end states' own blocks
    rng = np.random.default_rng(int(ratio * 1e4))
    p = FilterParams(cutoff_hz=ratio * rate, sample_rate_hz=rate)
    b, a = scipy.signal.butter(1, p.cutoff_hz, fs=rate)
    for n in (1, 2, K - 1, K, K + 1, K * K - 1, K * K, K * K + 1, 20011):
        for dtype in (np.float32, np.float64):
            x = (rng.normal(size=(3, n)) * 50.0 + 20.0).astype(dtype)
            want = scipy.signal.lfilter(b, a, x.astype(np.float64))
            got = butterworth_lowpass(x, p)
            assert got.dtype == np.float64 and got.shape == x.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(butterworth_lowpass(x[1], p), got[1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_filter_output_before_a_non_finite_sample_is_unchanged(bad):
    # a block's triangular product multiplies later inputs by zeros, and
    # 0 * nan is nan: the samples before one must not see it
    x = np.random.default_rng(6).normal(size=(2, 5 * K + 7))
    clean = butterworth_lowpass(x, FilterParams())
    for n in (0, 1, K - 1, K, K + 3, 3 * K - 1, x.shape[1] - 1):
        dirty = x.copy()
        dirty[1, n] = bad
        y = butterworth_lowpass(dirty, FilterParams())
        assert np.array_equal(y[0], clean[0])
        assert np.array_equal(y[1, :n], clean[1, :n])
        assert np.isnan(y[1, n:]).all()
        assert np.array_equal(butterworth_lowpass(dirty[1], FilterParams()), y[1],
                              equal_nan=True)


def test_filter_bytes_do_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import hashlib, numpy as np; from emgtcn.signal import FilterParams, "
            "butterworth_lowpass as f; x = np.random.default_rng(2).normal("
            "size=(12, 40000)).astype(np.float32); "
            "print(hashlib.sha256(f(x, FilterParams()).tobytes()).hexdigest())")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    x = np.random.default_rng(2).normal(size=(12, 40000)).astype(np.float32)
    digests.add(hashlib.sha256(butterworth_lowpass(x, FilterParams()).tobytes()).hexdigest())
    assert len(digests) == 1


def test_mu_law_fixes_zero_and_endpoints():
    p = MuLawParams(mu=255.0)
    assert mu_law(0.0, p) == 0.0
    assert mu_law(1.0, p) == 1.0
    assert mu_law(-1.0, p) == -1.0


def test_mu_law_reference_value():
    assert mu_law(0.5, MuLawParams(mu=255.0)) == pytest.approx(
        MU_LAW_HALF_255, abs=1e-9
    )


def test_mu_law_odd_bit_symmetric():
    x = np.linspace(0.0, 1.0, 1001)
    p = MuLawParams(mu=255.0)
    assert np.array_equal(mu_law(-x, p), -mu_law(x, p))


def test_mu_law_monotone_on_grid():
    x = np.linspace(-1.0, 1.0, 1000)
    y = mu_law(x, MuLawParams(mu=255.0))
    assert np.all(np.diff(y) > 0)


def test_mu_law_small_mu_is_near_identity():
    x = np.linspace(-1.0, 1.0, 2001)
    y = mu_law(x, MuLawParams(mu=1e-6))
    assert np.abs(y - x).max() <= 1e-5


def test_mu_law_rejects_out_of_range_with_index():
    x = np.array([0.0, 0.5, 1.5, 0.2])
    with pytest.raises(DataError) as err:
        mu_law(x)
    assert "2" in str(err.value)


def test_mu_law_params_validation():
    with pytest.raises(ConfigError):
        MuLawParams(mu=0.0)
    with pytest.raises(ConfigError):
        MuLawParams(mu=-1.0)


def test_normalize_max_abs():
    x = np.array([[1.0, -4.0], [2.0, 0.5]])
    y = normalize_max_abs(x)
    assert np.abs(y).max() == 1.0
    assert np.allclose(y, x / 4.0)
    z = np.zeros((2, 3))
    assert np.array_equal(normalize_max_abs(z), z)


def _single_span_recording(span, total=None, start=100, channels=2):
    total = total or start + span + 100
    gesture = np.zeros(total, dtype=np.uint16)
    repetition = np.zeros(total, dtype=np.uint16)
    gesture[start : start + span] = 7
    repetition[start : start + span] = 1
    rng = np.random.default_rng(9)
    return FakeRecording(rng.normal(size=(channels, total)), gesture, repetition)


def test_segment_counts_single_span():
    rec = _single_span_recording(span=2000)
    out = segment(rec, window_ms=200, stride_ms=200)  # 400 samples at 2 kHz
    assert len(out) == 5
    assert out.data.shape == (5, 2, 400)
    assert np.all(out.labels == 6)
    assert np.all(out.repetitions == 1)
    assert np.all(out.subjects == 1)


def test_segment_counts_with_overlap():
    rec = _single_span_recording(span=800)
    out = segment(rec, window_ms=200, stride_ms=100)  # 400/200 samples
    assert len(out) == 3


def test_segment_counts_protocol_layout():
    rec = _single_span_recording(span=10000)
    out = segment(rec, window_ms=300, stride_ms=300)  # 600 samples
    assert len(out) == 16


def test_segment_count_formula_property():
    rng = np.random.default_rng(33)
    for span in rng.integers(400, 3000, size=10):
        rec = _single_span_recording(span=int(span))
        for stride_ms in (100, 200, 350):
            out = segment(rec, window_ms=200, stride_ms=stride_ms)
            stride = stride_ms * 2
            assert len(out) == (int(span) - 400) // stride + 1


def test_segment_windows_copy_exact_samples():
    rec = _single_span_recording(span=1000)
    out = segment(rec, window_ms=200)
    assert np.array_equal(out.data[0], rec.data[:, 100:500])
    assert np.array_equal(out.data[1], rec.data[:, 500:900])


def test_segment_skips_rest_and_boundaries():
    total = 1200
    gesture = np.zeros(total, dtype=np.uint16)
    repetition = np.zeros(total, dtype=np.uint16)
    gesture[0:500] = 1
    repetition[0:500] = 1
    # 200 samples of rest, then a second gesture
    gesture[700:1200] = 2
    repetition[700:1200] = 1
    rec = FakeRecording(np.ones((1, total)), gesture, repetition)
    out = segment(rec, window_ms=200, stride_ms=50)
    # each 500-sample span yields floor((500-400)/100)+1 = 2 windows
    assert len(out) == 4
    assert list(out.labels) == [0, 0, 1, 1]


def test_segment_separates_repetitions_of_same_gesture():
    total = 1000
    gesture = np.full(total, 3, dtype=np.uint16)
    repetition = np.concatenate(
        [np.full(500, 1, dtype=np.uint16), np.full(500, 2, dtype=np.uint16)]
    )
    rec = FakeRecording(np.ones((1, total)), gesture, repetition)
    out = segment(rec, window_ms=200, stride_ms=200)
    # no window may straddle the repetition boundary at sample 500
    assert len(out) == 2
    assert list(out.repetitions) == [1, 2]


def test_segment_window_too_long_warns_and_returns_empty():
    rec = _single_span_recording(span=300)  # shorter than 400-sample window
    with pytest.warns(UserWarning):
        out = segment(rec, window_ms=200)
    assert len(out) == 0


def test_segment_rejects_bad_window():
    rec = _single_span_recording(span=2000)
    with pytest.raises(ConfigError):
        segment(rec, window_ms=0)
    with pytest.raises(ConfigError):
        segment(rec, window_ms=200, stride_ms=0)


@pytest.mark.parametrize("window_ms, stride_ms, rate, setting", [
    (200, 10**20, 2000.0, f"stride_ms={10**20} is 2e+20 samples at 2000.0 Hz"),
    (10**20, None, 2000.0, f"window_ms={10**20} is 2e+20 samples at 2000.0 Hz"),
    (200, None, 1e300, "window_ms=200 is 2e+299 samples at 1e+300 Hz"),
    (2**32, None, 1000.0, "window_ms=4294967296 is 4.29497e+09 samples at 1000.0 Hz"),
], ids=["stride", "window", "rate", "u32"])
def test_segment_refuses_a_duration_numpy_cannot_index(window_ms, stride_ms, rate, setting):
    rec = _single_span_recording(span=2000)
    rec.sample_rate_hz = rate
    with pytest.raises(ConfigError) as info:
        segment(rec, window_ms=window_ms, stride_ms=stride_ms)
    message = str(info.value)
    assert message.startswith(setting) and "\n" not in message, message


def _segment_oracle(rec, seg_len, stride):
    """The windowing rule as a plain loop over samples: every window
    that fits inside one run of constant (gesture, repetition) with
    gesture != 0, taken every ``stride`` samples from the run's start."""
    g, r, n = rec.gesture, rec.repetition, len(rec.gesture)
    windows, labels, reps, saw_active = [], [], [], False
    start = 0
    for i in range(1, n + 1):
        if i < n and (g[i], r[i]) == (g[start], r[start]):
            continue
        if g[start] != 0:
            saw_active = True
            for off in range(start, i - seg_len + 1, stride):
                windows.append(rec.data[:, off : off + seg_len].astype(np.float64))
                labels.append(int(g[start]) - 1)
                reps.append(int(r[start]))
        start = i
    return windows, labels, reps, saw_active


# (gesture, repetition, length) runs; neighbours with equal ids merge
_runs = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(1, 20)), max_size=12
)


@settings(max_examples=150, deadline=None)
@given(
    runs=_runs, window=st.integers(1, 8), stride=st.integers(1, 8),
    channels=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
)
@example(runs=[], window=3, stride=2, channels=2, seed=0)  # 0 samples
@example(runs=[(0, 0, 10), (0, 1, 5)], window=3, stride=2, channels=2, seed=0)
def test_segment_matches_the_loop_oracle(runs, window, stride, channels, seed):
    gesture = np.concatenate([np.full(k, g) for g, _, k in runs] + [[]])
    repetition = np.concatenate([np.full(k, r) for _, r, k in runs] + [[]])
    data = np.random.default_rng(seed).normal(size=(channels, len(gesture)))
    rec = FakeRecording(data, gesture, repetition, subject=4, rate=1000.0)
    windows, labels, reps, saw_active = _segment_oracle(rec, window, stride)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = segment(rec, window_ms=window, stride_ms=stride)
        starts, index = segment_index(rec, window, stride)
    # segment and segment_index warn alike
    assert len(caught) == 2 * int(saw_active and not windows)
    want = np.stack(windows) if windows else np.empty((0, channels, window))
    assert out.data.shape == want.shape
    assert out.data.tobytes() == want.tobytes()
    assert out.data.dtype == np.float64 and out.data.flags.c_contiguous
    for col, expect in ((out.labels, labels), (out.repetitions, reps)):
        assert col.dtype == np.int64 and col.tolist() == expect
    assert out.subjects.dtype == np.int64 and out.subjects.tolist() == [4] * len(out)
    # the index cuts nothing, and its starts give the same windows block by block
    assert index.data.shape == want.shape and not any(index.data.strides)
    for name in SegmentSet.PER_WINDOW[1:]:
        assert getattr(index, name).tolist() == getattr(out, name).tolist()
    blocks = list(window_blocks(rec.data, starts, window))
    got = np.concatenate(blocks) if blocks else np.empty((0, channels, window))
    assert got.tobytes() == want.tobytes()


def test_window_blocks_hold_at_most_1_mib():
    # 64-byte windows at stride 1: 39993 from a 40000-sample run, more
    # than two 1 MiB blocks hold, then 93 from a short run after rest
    gesture = np.r_[np.ones(40000), np.zeros(50), np.full(100, 2)]
    rec = FakeRecording(np.random.default_rng(8).normal(size=(1, len(gesture))),
                        gesture, np.ones(len(gesture)), rate=1000.0)
    starts, _ = segment_index(rec, 8, 1)
    blocks = list(window_blocks(rec.data, starts, 8))
    assert [len(b) for b in blocks] == [16384, 16384, 7318]
    assert all(b.flags.c_contiguous and b.nbytes <= 1 << 20 for b in blocks)
    got = np.concatenate(blocks)
    assert got.tobytes() == segment(rec, window_ms=8, stride_ms=1).data.tobytes()


def test_segment_allocates_only_its_windows():
    # 12 channels, 40 alternating 2000-sample gesture and 500-sample rest
    # runs; 400-sample windows at half overlap: 360 windows, 13.8 MB
    spans = [(1 + i % 5, 1 + i // 5, 2000) for i in range(40)]
    gesture = np.concatenate([np.r_[np.full(k, g), np.zeros(500)] for g, _, k in spans])
    repetition = np.concatenate([np.full(k + 500, r) for _, r, k in spans])
    data = np.random.default_rng(6).normal(size=(12, len(gesture)))
    rec = FakeRecording(data, gesture, repetition)
    tracemalloc.start()
    try:
        out = segment(rec, window_ms=200, stride_ms=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 360
    assert peak <= 1.1 * out.data.nbytes


def test_preprocess_pipeline_range():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(3, 2000)) * 50
    y = preprocess(x)
    assert y.shape == x.shape
    assert np.abs(y).max() <= 1.0
    assert np.isclose(np.abs(y).max(), 1.0)


# the conditioning formulas as first written, each stage a fresh temporary
def _mu_law_formula(x, mu=255.0):
    arr = np.asarray(x, dtype=np.float64)
    return np.sign(arr) * np.log1p(mu * np.abs(arr)) / np.log1p(mu)


def _normalize_formula(x):
    x = np.asarray(x, dtype=np.float64)
    peak = np.abs(x).max() if x.size else 0.0
    return x if peak == 0.0 else x / peak


def _same_bits(a, b):
    """Equal bytes, NaN payloads aside: NaN where the other has NaN."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return (
        a.shape == b.shape and np.array_equal(nan, np.isnan(b))
        and a[~nan].tobytes() == b[~nan].tobytes()
    )


def _special_matrix(seed, shape=(4, 3000)):
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape)
    x[0, :6] = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]
    return x


@pytest.mark.parametrize("mu", [1e-6, 1.0, 255.0, 1e6])
def test_mu_law_equals_formula_bit_for_bit(mu):
    p = MuLawParams(mu=mu)
    x = _special_matrix(seed=int(mu) % 97)
    before = x.copy()
    y = mu_law(x, p)
    assert _same_bits(y, _mu_law_formula(x, mu))
    assert x.tobytes() == before.tobytes()
    # a scalar or 0-d input gives a 0-d float64 array
    for v in (0.0, -0.0, 1.0, -1.0, 0.3, -0.7, np.float64(-0.25), np.float32(0.5),
              np.asarray(-0.25)):
        got = mu_law(v, p)
        assert type(got) is np.ndarray and got.shape == () and got.dtype == np.float64
        assert _same_bits(got, _mu_law_formula(v, mu))
    nan = np.array([0.5, np.nan, -np.nan, -0.5])
    assert _same_bits(mu_law(nan, p), _mu_law_formula(nan, mu))
    assert mu_law(np.empty((2, 0)), p).shape == (2, 0)


def test_mu_law_zero_signs():
    # sign(+-0) is 0: both zeros give +0.0; a tiny negative x whose value
    # underflows to zero keeps the formula's -0.0
    y = mu_law(np.array([-0.0, 0.0, -5e-324, 5e-324]), MuLawParams(mu=1e-6))
    assert np.signbit(y).tolist() == [False, False, True, False]
    assert not np.signbit(mu_law(-0.0))


def test_mu_law_range_check_sees_past_a_nan():
    with pytest.raises(DataError) as err:
        mu_law(np.array([0.1, np.nan, -1.5, 0.2]))
    assert "index 2" in str(err.value) and "-1.5" in str(err.value)


def test_normalize_equals_formula_bit_for_bit():
    for x in (
        _special_matrix(seed=3) * 40.0,
        np.array([[-3.0, 2.0], [1.0, 0.5]]),  # peak from the negative side
        np.zeros((3, 5)),
        np.array([[-0.0, 0.0]]),
        np.array([[0.5, np.nan, -2.0]]),
        np.asarray(-2.5),
    ):
        before = x.copy()
        assert _same_bits(normalize_max_abs(x), _normalize_formula(x))
        assert x.tobytes() == before.tobytes()


def test_preprocess_equals_formula_bit_for_bit():
    rng = np.random.default_rng(8)
    fp = FilterParams()
    for x in (
        rng.normal(size=(3, 4000)) * 80.0,
        rng.normal(size=(2, 500)).astype(np.float32),
        np.zeros((2, 300)),
        np.array([[0.0, -0.0, 1.0, -1.0, np.nan, 0.5]]),
    ):
        before = x.copy()
        want = _mu_law_formula(_normalize_formula(butterworth_lowpass(x, fp)))
        assert _same_bits(preprocess(x), want)
        assert x.tobytes() == before.tobytes()


def _peak_ratio(fn, x):
    """Peak traced allocation while ``fn(x)`` runs, per byte of ``x``."""
    tracemalloc.start()
    try:
        fn(x)
        return tracemalloc.get_traced_memory()[1] / x.nbytes
    finally:
        tracemalloc.stop()


def test_conditioning_allocates_at_most_two_recordings():
    # 12 channels x 50000 samples of float64: 4.8 MB
    x = np.random.default_rng(4).uniform(-1.0, 1.0, size=(12, 50_000))
    assert _peak_ratio(mu_law, x) <= 1.1  # the output buffer alone
    x[3, 7] = -0.0  # a zero costs the 1-byte-per-value sign mask
    assert _peak_ratio(mu_law, x) <= 1.2
    assert _peak_ratio(normalize_max_abs, x) <= 1.1
    assert _peak_ratio(preprocess, x * 30.0) <= 2.2  # one stage's input and output

