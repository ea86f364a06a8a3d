"""Tests for the sEMG processing chain."""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    reference_gate_series,
    reference_multipliers,
    reference_read_csv,
    reference_write_csv,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from superlimb import emg
from superlimb.emg import (
    DEFAULT_BAND,
    DEFAULT_WINDOW,
    EmgTrace,
    HillParams,
    _read_csv,
    activation_series,
    bandpass,
    check_writable,
    envelope,
    gate_series,
    hill_force,
    load_motion_csv,
    load_trace_csv,
    map_to_equilibrium,
    rectify,
    run_pipeline,
    write_csv,
    write_pipeline_csv,
    write_trace_csv,
    zero_order_hold,
)
from superlimb.errors import (
    BadBand,
    BadWindow,
    DimensionMismatch,
    MissingFile,
    NonFinite,
    ValidationError,
)


def make_trace(samples, fs=1000.0, name="ch1", t0=0.0):
    return EmgTrace(fs=fs, channels=((name, np.asarray(samples, float)),), t0=t0)


# --- containers -----------------------------------------------------------------


def test_trace_validation():
    with pytest.raises(ValidationError):
        EmgTrace(fs=0.0, channels=(("ch1", np.zeros(4)),))
    with pytest.raises(ValidationError):
        EmgTrace(fs=1000.0, channels=())
    with pytest.raises(DimensionMismatch):
        EmgTrace(fs=1000.0, channels=(("ch1", np.zeros((2, 2))),))
    with pytest.raises(DimensionMismatch):
        EmgTrace(fs=1000.0, channels=(("a", np.zeros(4)), ("b", np.zeros(5))))
    with pytest.raises(NonFinite):
        make_trace([0.0, np.nan, 0.0])


def test_trace_times():
    tr = make_trace(np.zeros(5), fs=100.0, t0=2.0)
    assert tr.n_samples == 5
    np.testing.assert_allclose(tr.times, 2.0 + np.arange(5) / 100.0)


def test_hill_params_validation():
    with pytest.raises(ValidationError):
        HillParams(f_max=0.0)
    with pytest.raises(ValidationError):
        HillParams(act_tau_rise=-1.0)
    with pytest.raises(ValidationError):
        HillParams(fl_factor=1.6)
    with pytest.raises(ValidationError):
        HillParams(fv_factor=0.0)
    with pytest.raises(ValidationError):
        HillParams(mvc_reference=0.0)


# --- filtering ------------------------------------------------------------------


def test_bandpass_rejects_dc():
    tr = make_trace(np.full(2000, 3.5))
    out = bandpass(tr, *DEFAULT_BAND)
    residual = np.max(np.abs(out.channels[0][1])) / 3.5
    assert residual < 1e-6


def test_bandpass_designs_each_band_once(monkeypatch, rng):
    # the biquad is designed once per (band, rate); later calls reuse it and
    # filter to the same bits as a fresh design
    import scipy.signal

    from superlimb import emg

    emg._band_design.cache_clear()
    designs = []
    butter = scipy.signal.butter
    monkeypatch.setattr(scipy.signal, "butter", lambda *a, **k: designs.append(a) or butter(*a, **k))
    tr = make_trace(rng.standard_normal(500))
    first, again = (bandpass(tr, *DEFAULT_BAND).channels[0][1] for _ in range(2))
    b, a = butter(1, list(DEFAULT_BAND), btype="bandpass", fs=tr.fs)
    assert first.tobytes() == again.tobytes() == scipy.signal.filtfilt(b, a, tr.channels[0][1]).tobytes()
    bandpass(tr, 30.0, 400.0)
    bandpass(make_trace(tr.channels[0][1], fs=2000.0), *DEFAULT_BAND)
    assert len(designs) == 3


def test_bandpass_band_validation():
    tr = make_trace(np.zeros(100))
    for band in [(0.0, 450.0), (450.0, 20.0), (20.0, 600.0), (-5.0, 100.0)]:
        with pytest.raises(BadBand):
            bandpass(tr, *band)


def test_bandpass_too_short():
    with pytest.raises(ValidationError):
        bandpass(make_trace(np.zeros(5)), *DEFAULT_BAND)


@pytest.mark.parametrize("n", [6, 7, 9])
def test_bandpass_shorter_than_edge_padding(n):
    # filtfilt pads each end by three times the biquad's 3 coefficients
    with pytest.raises(ValidationError, match="too short"):
        bandpass(make_trace(np.zeros(n)), *DEFAULT_BAND)
    bandpass(make_trace(np.zeros(10)), *DEFAULT_BAND)


def test_bandpass_zero_phase():
    # a symmetric pulse stays symmetric: no group delay
    x = np.zeros(801)
    x[380:421] = np.hanning(41)
    out = bandpass(make_trace(x), *DEFAULT_BAND).channels[0][1]
    np.testing.assert_allclose(out, out[::-1], atol=1e-9)


def test_rectify():
    tr = make_trace([-1.0, 2.0, -0.5, 0.0])
    out = rectify(tr).channels[0][1]
    np.testing.assert_array_equal(out, [1.0, 2.0, 0.5, 0.0])


# --- envelope -------------------------------------------------------------------


def test_envelope_constant_signal():
    tr = make_trace(np.full(500, 2.0))
    env = envelope(tr, 0.1).channels[0][1]
    assert env.size == 500
    np.testing.assert_allclose(env, 2.0, atol=1e-12)


def test_envelope_bounds():
    rng = np.random.default_rng(3)
    s = rng.standard_normal(400)
    env = envelope(make_trace(s), 0.05).channels[0][1]
    assert np.all(env >= 0.0)
    assert np.all(env <= np.max(np.abs(s)) + 1e-12)


def test_envelope_partial_leading_window():
    # first sample's RMS is just its own magnitude
    s = np.array([3.0, 0.0, 0.0, 0.0, 0.0])
    env = envelope(make_trace(s, fs=10.0), 0.3).channels[0][1]
    assert env[0] == 3.0
    np.testing.assert_allclose(env[1], np.sqrt(9.0 / 2.0), atol=1e-12)


def test_envelope_window_validation():
    with pytest.raises(BadWindow):
        envelope(make_trace(np.zeros(100)), 0.001)


def test_sine_envelope_matches_rms():
    # a unit sine inside the passband must come out of the chain with its
    # analytic RMS; the ends are excluded because the zero-phase filter's
    # startup transients live there.
    fs = 1000.0
    t = np.arange(2000) / fs
    tr = make_trace(np.sin(2 * np.pi * 180.0 * t), fs=fs)
    env = envelope(rectify(bandpass(tr, *DEFAULT_BAND)), DEFAULT_WINDOW)
    interior = env.channels[0][1][200:-200]
    target = 1.0 / np.sqrt(2.0)
    assert np.max(np.abs(interior - target)) / target < 0.02


# --- activation + force ---------------------------------------------------------


def test_activation_first_order_steps():
    p = HillParams()
    up = activation_series(np.array([1.0]), p, 1000.0, a0=0.5)
    assert up[0] == pytest.approx(0.5 + (0.001 / p.act_tau_rise) * 0.5, abs=1e-15)
    down = activation_series(np.array([0.0]), p, 1000.0, a0=0.5)
    assert down[0] == pytest.approx(0.5 - (0.001 / p.act_tau_fall) * 0.5, abs=1e-15)


def test_activation_series_fs_validation():
    # checked once per call, before any sample: an empty envelope too
    for fs in (0.0, -1000.0, np.inf, np.nan):
        for env in (np.array([0.5]), np.array([])):
            with pytest.raises(ValidationError, match="fs must be finite and > 0"):
                activation_series(env, HillParams(), fs)


def test_activation_series_monotone_response():
    p = HillParams()
    rise = activation_series(np.ones(500), p, 1000.0)
    assert np.all(np.diff(rise) > 0.0)
    assert rise[-1] < 1.0 and rise[-1] > 0.99
    fall = activation_series(np.zeros(500), p, 1000.0, a0=1.0)
    assert np.all(np.diff(fall) < 0.0)
    assert fall[-1] > 0.0


def test_activation_series_normalizes_by_mvc():
    p = HillParams(mvc_reference=2.0)
    a = activation_series(np.full(2000, 1.0), p, 1000.0)
    assert a[-1] == pytest.approx(0.5, abs=1e-3)


def test_hill_force_zero_is_exact():
    assert hill_force(0.0, HillParams()) == 0.0


def test_hill_force_scaling():
    p = HillParams(f_max=300.0, fl_factor=0.8, fv_factor=0.5)
    assert hill_force(1.0, p) == pytest.approx(120.0, abs=1e-12)
    a = np.linspace(0, 1, 11)
    forces = [hill_force(x, p) for x in a]
    assert np.all(np.diff(forces) > 0.0)


def test_hill_force_domain():
    with pytest.raises(ValidationError):
        hill_force(-0.1, HillParams())
    with pytest.raises(ValidationError):
        hill_force(1.1, HillParams())


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=200), st.floats(0.0, 1.0))
def test_activation_stays_in_unit_interval(env, a0):
    a = activation_series(np.asarray(env), HillParams(), 1000.0, a0=a0)
    assert np.all(a >= 0.0) and np.all(a <= 1.0)


# --- gating ---------------------------------------------------------------------


def test_motion_gate_schmitt():
    # on at |yaw| >= 0.3, off at |yaw| <= 0.25, held in between; starts off
    thr, hys = 0.3, 0.05
    for yaws, gate in [
        ([0.31], [True]),
        ([-0.31], [True]),
        ([0.27], [False]),
        ([0.31, 0.2], [True, False]),
        ([0.31, 0.27], [True, True]),
        ([0.31, 0.25], [True, False]),
        ([-0.31, -0.27, -0.25], [True, True, False]),
        ([0.3, -0.26, 0.0, 0.29], [True, True, False, False]),
    ]:
        np.testing.assert_array_equal(gate_series(np.array(yaws), thr, hys), gate)


def test_motion_gate_validation():
    # checked once per call, with or without yaw samples
    for yaws in (np.array([0.0]), np.array([])):
        with pytest.raises(ValidationError):
            gate_series(yaws, 0.1, 0.2)
        with pytest.raises(ValidationError):
            gate_series(yaws, 0.1, -0.01)


def test_gate_series_replays_single_steps():
    yaws = np.array([0.0, 0.35, 0.28, 0.2, 0.28, 0.4, 0.0, -0.33, -0.27, -0.1])
    out = gate_series(yaws, 0.3, 0.05)
    np.testing.assert_array_equal(out, reference_gate_series(yaws, 0.3, 0.05))
    np.testing.assert_array_equal(out[:7], [False, True, True, False, False, True, False])
    assert out.dtype == bool


@st.composite
def _gate_cases(draw):
    """Yaws around a drawn gate: its edges exactly, NaN, +-Inf and any
    value within twice the threshold."""
    thr = draw(st.floats(1e-3, 10.0))
    hys = draw(st.floats(0.0, thr, exclude_max=True))
    edges = [thr, -thr, thr - hys, hys - thr, 0.0, float("nan"), float("inf"), -float("inf")]
    yaws = draw(st.lists(st.sampled_from(edges) | st.floats(-2 * thr, 2 * thr), max_size=60))
    return np.array(yaws, dtype=float), thr, hys


@settings(max_examples=200, deadline=None)
@given(_gate_cases())
def test_gate_series_matches_the_schmitt_loop(case):
    yaws, thr, hys = case
    got = gate_series(yaws, thr, hys)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, reference_gate_series(yaws, thr, hys))


def test_map_to_equilibrium():
    assert map_to_equilibrium(250.0, False, 1e-4) == 0.0
    assert map_to_equilibrium(250.0, True, 1e-4) == pytest.approx(0.025, abs=1e-15)
    with pytest.raises(ValidationError):
        map_to_equilibrium(1.0, True, -1e-4)


def test_force_laws_act_sample_by_sample():
    p = HillParams(f_max=300.0, fl_factor=0.8)
    a = np.linspace(0.0, 1.0, 7)
    gate = a > 0.4
    force = hill_force(a, p)
    np.testing.assert_array_equal(force, [hill_force(x, p) for x in a.tolist()])
    np.testing.assert_array_equal(
        map_to_equilibrium(force, gate, 2e-4),
        [map_to_equilibrium(f, g, 2e-4) for f, g in zip(force.tolist(), gate.tolist())],
    )
    with pytest.raises(ValidationError, match="1.5"):
        hill_force(np.array([0.2, 1.5]), p)
    for gain in (np.inf, np.nan):
        with pytest.raises(ValidationError, match="gain"):
            map_to_equilibrium(force, gate, gain)


def test_zero_order_hold():
    t = np.array([1.0, 2.0, 3.0])
    v = np.array([10.0, 20.0, 30.0])
    q = np.array([0.5, 1.0, 1.5, 2.5, 3.0, 9.0])
    out = zero_order_hold(q, t, v, initial=-1.0)
    np.testing.assert_array_equal(out, [-1.0, 10.0, 10.0, 20.0, 30.0, 30.0])


def test_zero_order_hold_empty_stream():
    out = zero_order_hold(np.array([0.0, 1.0]), np.array([]), np.array([]), 5.0)
    np.testing.assert_array_equal(out, [5.0, 5.0])


# --- whole pipeline -------------------------------------------------------------


def test_pipeline_ungated_opens_gate():
    rng = np.random.default_rng(0)
    tr = make_trace(rng.standard_normal(1000))
    res = run_pipeline(tr, HillParams(), 0.3, 0.05, 1e-4, motion=None)
    assert np.all(res.gate)
    np.testing.assert_array_equal(res.dxeq, 1e-4 * res.force)


def test_pipeline_channel_mean():
    rng = np.random.default_rng(1)
    s = rng.standard_normal(1000)
    single = make_trace(s)
    double = EmgTrace(fs=1000.0, channels=(("a", s.copy()), ("b", s.copy())))
    r1 = run_pipeline(single, HillParams(), 0.3, 0.05, 1e-4)
    r2 = run_pipeline(double, HillParams(), 0.3, 0.05, 1e-4)
    np.testing.assert_allclose(r2.envelope, r1.envelope, atol=1e-12)
    np.testing.assert_allclose(r2.force, r1.force, atol=1e-9)


def test_pipeline_gate_from_motion():
    tr = make_trace(np.ones(1000) * 0.1)
    motion = (np.array([0.0, 0.4]), np.array([0.0, 0.35]))
    res = run_pipeline(tr, HillParams(), 0.3, 0.05, 1e-4, motion=motion)
    assert not res.gate[0]
    assert res.gate[-1]
    assert np.all(res.dxeq[~res.gate] == 0.0)


# --- CSV ------------------------------------------------------------------------


def test_trace_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    tr = EmgTrace(
        fs=1000.0,
        channels=(("ch1", rng.standard_normal(50)), ("ch2", rng.standard_normal(50))),
        t0=0.25,
    )
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, tr)
    back = load_trace_csv(path)
    assert back.fs == pytest.approx(1000.0, rel=1e-9)
    assert [n for n, _ in back.channels] == ["ch1", "ch2"]
    for (_, a), (_, b) in zip(tr.channels, back.channels):
        np.testing.assert_array_equal(a, b)  # repr() round-trips exactly
    assert back.t0 == 0.25


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 399).flatmap(lambda n: hnp.arrays(
    np.float64, n, elements=st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0]))))
@example(np.array([1.0, 2.0]))
@example(np.array([-np.inf, np.inf]))
@example(np.array([-0.0, -0.0]))
@example(np.array([1e308, 1.5e308, 1.7e308, 1.6e308]))
def test_median_matches_numpy(x):
    # odd and even lengths, signed zeros, infinities and a middle pair whose
    # sum overflows: the same bits as np.median, with no warning of its own
    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(np.median(x)).hex()
    assert emg._median(x).hex() == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 60), st.floats(1e-4, 1.0), st.data())
def test_trace_time_step_is_numpys_median(tmp_path_factory, n, step, data):
    # the time step the reader infers from jittered, still uniform times
    jitter = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-1e-9, 1e-9)))
    t = (np.arange(n) + jitter) * step
    path = tmp_path_factory.mktemp("median") / "trace.csv"
    path.write_text("t,ch1\n" + "".join(f"{v!r},0.5\n" for v in t.tolist()))
    assert load_trace_csv(str(path)).fs.hex() == (1.0 / float(np.median(np.diff(t)))).hex()


def test_load_trace_errors(tmp_path):
    with pytest.raises(MissingFile):
        load_trace_csv(str(tmp_path / "nope.csv"))
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("time,ch1\n0.0,1.0\n0.001,2.0\n")
    with pytest.raises(ValidationError):
        load_trace_csv(str(bad_header))
    short = tmp_path / "short.csv"
    for body in ("0.0,1.0\n", "", "\n\n"):  # one row, header only, blank lines only
        short.write_text("t,ch1\n" + body)
        with pytest.raises(ValidationError) as exc:
            load_trace_csv(str(short))
        assert str(exc.value) == f"{short}: need at least two samples"
    jitter = tmp_path / "jitter.csv"
    jitter.write_text("t,ch1\n0.0,1.0\n0.001,2.0\n0.005,3.0\n")
    with pytest.raises(ValidationError):
        load_trace_csv(str(jitter))


def test_load_motion_errors(tmp_path):
    with pytest.raises(MissingFile):
        load_motion_csv(str(tmp_path / "nope.csv"))
    bad = tmp_path / "bad.csv"
    bad.write_text("t,yaw\n0.0,0.0\n")
    with pytest.raises(ValidationError):
        load_motion_csv(str(bad))
    back = tmp_path / "back.csv"
    back.write_text("t,yaw_rad\n1.0,0.0\n0.5,0.1\n")
    with pytest.raises(ValidationError):
        load_motion_csv(str(back))
    empty = tmp_path / "empty.csv"
    empty.write_text("t,yaw_rad\n")
    with pytest.raises(ValidationError):
        load_motion_csv(str(empty))


def test_load_motion_round_trip(tmp_path):
    path = tmp_path / "motion.csv"
    path.write_text("t,yaw_rad\n0.0,0.0\n1.5,0.35\n")
    t, yaw = load_motion_csv(str(path))
    np.testing.assert_array_equal(t, [0.0, 1.5])
    np.testing.assert_array_equal(yaw, [0.0, 0.35])


def test_write_pipeline_csv(tmp_path):
    tr = make_trace(np.ones(100) * 0.2)
    res = run_pipeline(tr, HillParams(), 0.3, 0.05, 1e-4)
    path = tmp_path / "pipe.csv"
    write_pipeline_csv(str(path), res)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,envelope,activation,force_n,gate,dxeq_m"
    assert len(lines) == 101
    first = lines[1].split(",")
    assert first[4] in ("0", "1")  # gate column is an integer flag
    assert float(first[0]) == 0.0


# --- CSV input checks -----------------------------------------------------------


NOT_A_FLOAT = "could not convert string to float: 'abc'"


def _long_body(bad_line: int, bad_row: str) -> str:
    """Body of a 3,000-row trace with two blank lines after its 1,000th row
    and ``bad_row`` on physical line ``bad_line`` (the header is line 1)."""
    lines = [f"{i / 1000!r},{i % 7 / 7!r}" for i in range(3000)]
    lines[1000:1000] = ["", ""]
    lines[bad_line - 2] = bad_row
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "body, line, reason",
    [
        ("0,1\n0.001,abc\n", 3, "abc"),  # non-numeric cell
        ("0,1\n0.001\n", 3, "1 cells"),  # ragged row
        ("0,1\n0.001,nan\n0.002,1\n", 3, "NaN or Inf"),
        ("0,1\n\n0.001,inf\n", 4, "NaN or Inf"),  # blank lines still count
        # numpy would strip the information separator; float does not
        ("0,1\n0.001,\x1c2\n", 3, "could not convert string to float"),
        # far past the first rows and after blank lines, the physical line
        pytest.param(_long_body(1004, "2.5,abc"), 1004, NOT_A_FLOAT, id="far-cell-1004"),
        pytest.param(_long_body(2750, "2.5,abc"), 2750, NOT_A_FLOAT, id="far-cell-2750"),
        pytest.param(_long_body(2750, "2.5"), 2750, "1 cells, the header has 2",
                     id="far-short-row"),
        pytest.param(_long_body(2750, "2.5,1,1"), 2750, "3 cells, the header has 2",
                     id="far-long-row"),
        pytest.param(_long_body(2750, "2.5,-inf"), 2750, "NaN or Inf cell", id="far-inf"),
        pytest.param(_long_body(3002, "nan,0.5"), 3002, "NaN or Inf cell", id="far-nan-time"),
    ],
)
def test_load_trace_rejects_bad_rows(tmp_path, body, line, reason):
    path = tmp_path / "trace.csv"
    path.write_text("t,ch1\n" + body)
    with pytest.raises(ValidationError) as exc:
        load_trace_csv(str(path))
    assert not isinstance(exc.value, NonFinite)  # bad input, not a numeric failure
    assert f"{path}, line {line}:" in str(exc.value)
    assert reason in str(exc.value)


@pytest.mark.parametrize(
    "body, line, reason",
    [
        ("0.0,0.0\nnan,0.1\n", 3, "NaN or Inf"),
        ("0.0,0.0\n0.5,nan\n", 3, "NaN or Inf"),
        ("0.0,0.0\n0.5,x\n", 3, "'x'"),
        ("0.0,0.0\n0.5\n", 3, "1 cells"),
    ],
)
def test_load_motion_rejects_bad_rows(tmp_path, body, line, reason):
    path = tmp_path / "motion.csv"
    path.write_text("t,yaw_rad\n" + body)
    with pytest.raises(ValidationError) as exc:
        load_motion_csv(str(path))
    assert f"{path}, line {line}:" in str(exc.value)
    assert reason in str(exc.value)


def test_load_motion_keeps_extra_columns(tmp_path):
    # n_used < width: the extra columns are checked for width only, never parsed
    path = tmp_path / "motion.csv"
    path.write_text("t,yaw_rad,label,gain\n0.0,0.0,rest,x\n1.5,0.35,turn,nan\n")
    t, yaw = load_motion_csv(str(path))
    np.testing.assert_array_equal(t, [0.0, 1.5])
    np.testing.assert_array_equal(yaw, [0.0, 0.35])
    _, data = _read_csv(str(path), "motion", "t,yaw_rad", lambda h: True, n_used=2)
    assert data.shape == (2, 2)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("t,yaw_rad,label\n0.0,0.0,rest\n1.5,0.35\n")
    with pytest.raises(ValidationError, match="line 3"):
        load_motion_csv(str(ragged))


def test_quoted_numeric_cells_parse(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text('"t","ch1"\n"0.0","1.5"\n0.001,"-2.5e-3"\n"0.002",3\n')
    tr = load_trace_csv(str(path))
    np.testing.assert_array_equal(tr.channels[0][1], [1.5, -2.5e-3, 3.0])
    assert tr.t0 == 0.0


def test_plain_numeric_files_skip_the_scan(tmp_path, monkeypatch, trace_csv):
    # numpy's tokenizer reads them, with the scan's tables
    monkeypatch.setattr(emg, "_scan_csv", lambda *a: pytest.fail("a plain file reached the scan"))
    motion = tmp_path / "motion.csv"
    motion.write_text("t,yaw_rad\r\n0.0,0.1\r\n\r\n0.5, -0.35\r\n1.0,+2e-3")
    trace = load_trace_csv(trace_csv)
    t, yaw = load_motion_csv(str(motion))
    _, want = reference_read_csv(trace_csv, "trace", "", lambda h: True)
    np.testing.assert_array_equal(trace.channels[0][1], want[:, 1])
    _, want = reference_read_csv(str(motion), "motion", "", lambda h: True, 2)
    np.testing.assert_array_equal(np.column_stack((t, yaw)), want)


_FORMATS = [repr, "%.6g".__mod__, "%.17g".__mod__, "%.6f".__mod__]
_PADS = st.sampled_from(["", " ", "  ", "\t"])
#: cells numpy's tokenizer reads unlike ``float`` (quoted, ``1_0``, a
#: non-ASCII digit, an information separator), not finite, or not numbers
_ODD_CELLS = ['"1.5"', '" -2e-3 "', "1_0", "\u0661", "\x1c1", "1\x1f", "nan", "-inf",
              "Infinity", "1e400", "abc", "0x10", "+-1", "", " "]


@st.composite
def _cells(draw, odd: bool):
    if odd and draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(_ODD_CELLS))
    text = draw(st.sampled_from(_FORMATS))(draw(st.floats(allow_nan=False, allow_infinity=False)))
    if not text.startswith("-") and draw(st.booleans()):
        text = "+" + text
    return draw(_PADS) + text + draw(_PADS)


@st.composite
def _csv_files(draw):
    """Bytes of a CSV file: numeric rows and blank lines,
    with LF, CRLF, CR or mixed line ends; half the files also hold odd
    cells, whitespace-only and ragged rows and, now and then, a byte that
    is not UTF-8."""
    width = draw(st.integers(2, 4))
    odd = draw(st.booleans())
    lines = [",".join(["t"] + [f"c{i}" for i in range(1, width)])]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 9)) if odd else draw(st.integers(0, 7))
        if kind == 0:
            lines.append("")
        elif kind == 8:
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        else:
            n = draw(st.sampled_from([1, width - 1, width + 1])) if kind == 9 else width
            lines.append(",".join(draw(_cells(odd)) for _ in range(n)))
    ends = draw(st.sampled_from(["\n", "\r\n", "\r", None]))
    text = "".join(line + (ends or draw(st.sampled_from(["\n", "\r\n"]))) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode()
    if odd and draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(len(lines[0]) + 1, max(len(data), len(lines[0]) + 1)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _read_outcome(read, path: str, n_used):
    try:
        header, data = read(path, "table", "t,...", lambda h: True, n_used)
    except ValidationError as exc:
        return type(exc), str(exc)
    return header, data.shape, data.view(np.uint64).tobytes()


@settings(max_examples=300, deadline=None)
@given(_csv_files())
@example(b"t,a,b\r0,1.5,-2\r1, 2 ,3\r")  # CR-only line ends
@example(b"t,a\n0,\x1c1\n")  # numpy alone reads the separator as whitespace
@example(b"t,a\n")  # an empty body, on which numpy warns
@example(b't,a\n"0",1_0\n')
@pytest.mark.filterwarnings("error")
def test_read_csv_matches_the_scan(tmp_path_factory, data):
    # the same header and array bits, or the same error and message, as
    # the line-by-line scan, whichever reader takes the file
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_bytes(data)
    for n_used in (None, 2):
        got = _read_outcome(_read_csv, str(path), n_used)
        assert got == _read_outcome(reference_read_csv, str(path), n_used)


@pytest.mark.parametrize("target", ["missing-dir", "dir", "file-as-dir"])
def test_check_writable_raises_what_write_csv_raises(tmp_path, target):
    (tmp_path / "f").write_text("")
    path = str({"missing-dir": tmp_path / "no" / "x.csv", "dir": tmp_path,
                "file-as-dir": tmp_path / "f" / "x.csv"}[target])
    with pytest.raises(ValidationError) as opened:
        write_csv(path, ["a"], np.zeros((1, 1)))
    with pytest.raises(ValidationError) as checked:
        check_writable(path)
    assert str(checked.value) == str(opened.value)
    check_writable(str(tmp_path / "new.csv"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f"]  # the check creates nothing


# --- CSV writer -----------------------------------------------------------------


def _csv_body(values) -> bytes:
    """The kernel's text of a column of floats, one cell per line."""
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    return b"".join(text.tobytes() for text in emg._csv_chunks(column, None))


def _repr_body(values) -> bytes:
    return "".join(repr(v) + "\n" for v in np.asarray(values, dtype=float).tolist()).encode()


def _with_neighbours(values) -> list[float]:
    """Each value with the floats one ulp below and above it, both signs."""
    out = [y for x in values for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]
    return out + [-y for y in out]


def test_kernel_matches_repr_on_every_power_of_two():
    values = _with_neighbours([math.ldexp(1.0, e) for e in range(-1074, 1024)])
    assert _csv_body(values) == _repr_body(values)


def test_kernel_matches_repr_on_every_power_of_ten():
    values = _with_neighbours([float(f"1e{e}") for e in range(-323, 309)])
    assert _csv_body(values) == _repr_body(values)


def test_kernel_matches_repr_on_integers_near_2_to_53():
    # the integers on either side of 2^53, where the spacing goes from 1 to 2
    values = _with_neighbours([2.0**53 + i for i in range(-64, 65)] + [2.0**53 + 2.0, 2.0**54 + 4.0])
    assert _csv_body(values) == _repr_body(values)


#: the switches between fixed and exponent notation, subnormals, the extremes
EDGES = [1e16, 9999999999999998.0, 1e-4, 1e-5, 0.00010000000000000002, 123456789012345680.0,
         5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308, 4.9406564584124654e-320,
         1.7976931348623157e308, 0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]


def test_kernel_matches_repr_on_edges():
    values = EDGES + _with_neighbours([x for x in EDGES if math.isfinite(x)])
    assert _csv_body(values) == _repr_body(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=16, max_size=64))
def test_kernel_matches_repr_on_any_bit_pattern(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _csv_body(values) == _repr_body(values)


def test_multipliers_are_exact_and_the_margin_holds():
    # every table row: 10^k <= the interval's width < 10^(k+1), the limbs
    # are ceil(2^(q + 124) / 10^k), and no product m * 2^q / 10^k with
    # m <= 2^55 that is not an integer lies within 2^-67 of one, the
    # threshold below which the kernel reads a fraction as zero (its
    # fixed-point excess is below 2^-69)
    ks, limbs = emg._multipliers(np.arange(4096))
    worst = Fraction(1)
    for row in range(4096):
        q = max(row & 2047, 1) - 1075
        width = Fraction(2) ** q * (Fraction(3, 4) if row >> 11 else 1)
        k = int(ks[row])
        assert Fraction(10) ** k <= width < Fraction(10) ** (k + 1)
        g = Fraction(2) ** q / Fraction(10) ** k
        got = sum(int(limbs[j, row]) << (32 * j) for j in range(4))
        assert got == math.ceil(g * 2**124)
        worst = min(worst, _nearest_miss(g, 2**55))
    assert worst > Fraction(1, 2**67)


def empty_table():
    return (np.zeros(4096, dtype=np.int64), np.zeros((4, 4096), dtype=np.uint64),
            np.zeros(4096, dtype=bool))


def test_a_write_fills_only_the_multiplier_rows_its_cells_use(tmp_path, monkeypatch):
    monkeypatch.setattr(emg, "_TABLE", empty_table())
    rng = np.random.default_rng(33)
    table = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-3, 4, (300, 3))
    write_csv(str(tmp_path / "got.csv"), ["a", "b", "c"], table)
    reference_write_csv(str(tmp_path / "ref.csv"), ["a", "b", "c"], table)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    ks, limbs, filled = emg._TABLE
    # the biased exponents of the cells, 2048 up just above a power of two
    bits = table.view(np.uint64)
    used = bits >> np.uint64(52) & np.uint64(0x7FF)
    used += ((bits & np.uint64(2**52 - 1) == 0) & (used > 1)) * np.uint64(2048)
    assert set(np.flatnonzero(filled).tolist()) == set(used.ravel().tolist())
    ref_ks, ref_limbs = reference_multipliers()
    assert ks[filled].tobytes() == ref_ks[filled].tobytes()
    assert limbs[:, filled].tobytes() == ref_limbs[:, filled].tobytes()
    assert not ks[~filled].any() and not limbs[:, ~filled].any()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4095), max_size=40), min_size=1, max_size=4))
def test_lazily_filled_multiplier_rows_match_the_full_table(requests):
    ref_ks, ref_limbs = reference_multipliers()
    table = empty_table()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(emg, "_TABLE", table)
        asked = set()
        for rows in requests:  # rows already filled are kept, new ones added
            ks, limbs = emg._multipliers(np.array(rows, dtype=np.intp))
            asked |= set(rows)
            at = sorted(asked)
            assert ks[at].tobytes() == ref_ks[at].tobytes()
            assert limbs[:, at].tobytes() == ref_limbs[:, at].tobytes()
            assert np.flatnonzero(table[2]).tolist() == at


def _nearest_miss(g: Fraction, m_max: int) -> Fraction:
    """The least nonzero distance from m * g to an integer over 1 <= m <=
    m_max: 1/den when den <= m_max, else the error of the last continued
    fraction convergent of g whose denominator is at most m_max."""
    a, b = g.numerator, g.denominator
    if b <= m_max:
        return Fraction(1, b) if b > 1 else Fraction(1)
    p0, q0, p1, q1 = 0, 1, 1, 0
    x, y = a, b
    while y:
        t = x // y
        p2, q2 = t * p1 + p0, t * q1 + q0
        if q2 > m_max:
            break
        p0, q0, p1, q1 = p1, q1, p2, q2
        x, y = y, x - t * y
    return abs(q1 * g - p1)


@pytest.mark.parametrize("width", [1, 6])
@pytest.mark.parametrize("limit", ["cells", "fresh"])
@pytest.mark.parametrize("rows", ["0", "1", "chunk-1", "chunk", "chunk+1"])
def test_write_csv_matches_the_oracle_at_chunk_boundaries(tmp_path, width, limit, rows):
    # cells that all differ from the ones above them: a batch formats
    # _CSV_FRESH of them, a chunk writes _CSV_CELLS (whole rows each)
    per = {"cells": emg._CSV_CELLS, "fresh": emg._CSV_FRESH}[limit] // width
    n = {"0": 0, "1": 1, "chunk-1": per - 1, "chunk": per, "chunk+1": per + 1}[rows]
    rng = np.random.default_rng(n)
    table = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-6, 18, (n, width))
    header = [f"c{i}" for i in range(width)]
    flag = None if width == 1 else 2
    write_csv(str(tmp_path / "got.csv"), header, table, flag=flag)
    reference_write_csv(str(tmp_path / "ref.csv"), header, table, flag=flag)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


#: values whose shortest repr takes every form: signed zero, subnormal,
#: exponent, the 1e16 switch to exponent form, an inexact sum, big integers
AWKWARD = [-0.0, 5e-324, 1e-05, 1e16, 1e22, 0.1 + 0.2, 2.0**53 + 2.0, 12345678901234567890.0,
           -1.0, 0.0, 1.7976931348623157e308]


@pytest.mark.parametrize("n", [0, 1, 64, 65, 131])
@pytest.mark.parametrize("flag", [None, 4])
def test_write_csv_bytes_match_the_rowwise_loop(tmp_path, n, flag):
    header = ["t", "a", "b", "c", "gate", "d"]
    rows = np.resize(np.array(AWKWARD), (n, len(header)))  # each column cycles through AWKWARD
    write_csv(str(tmp_path / "got.csv"), header, rows, flag=flag)
    reference_write_csv(str(tmp_path / "ref.csv"), header, rows, flag=flag)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


#: run values: both zeros (which must never share text), a subnormal, an
#: inexact sum, NaN and Inf, and any float
_RUN_VALUES = st.sampled_from([0.0, -0.0, 5e-324, 0.1 + 0.2, 1.0, float("nan"), float("inf")]) | st.floats()


@st.composite
def _tables_with_runs(draw):
    """A table whose columns are runs of equal values (1 to 70 long), with
    an optional flag column."""
    n = draw(st.sampled_from([0, 1, 64, 65]) | st.integers(0, 131))
    width = draw(st.integers(1, 5))
    cols = []
    for _ in range(width):
        col = []
        while len(col) < n:
            col += [draw(_RUN_VALUES)] * draw(st.integers(1, 70))
        cols.append(col[:n])
    flag = draw(st.none() | st.integers(0, width - 1))
    return np.array(cols, dtype=float).reshape(width, n).T, flag


@settings(max_examples=150, deadline=None)
@given(_tables_with_runs())
def test_write_csv_matches_the_oracle_on_runs_of_equal_cells(tmp_path_factory, table):
    # runs of equal values, NaN, Inf and flag cells: the bytes of one repr per cell
    rows, flag = table
    folder = tmp_path_factory.mktemp("csv")
    header = [f"c{i}" for i in range(rows.shape[1])]
    write_csv(str(folder / "got.csv"), header, rows, flag=flag)
    reference_write_csv(str(folder / "ref.csv"), header, rows, flag=flag)
    assert (folder / "got.csv").read_bytes() == (folder / "ref.csv").read_bytes()


@settings(max_examples=100, deadline=None)
@given(_tables_with_runs(), st.integers(1, 12), st.integers(1, 24))
def test_write_csv_matches_the_oracle_at_any_chunk_size(tmp_path_factory, table, cells, fresh):
    # tiny chunks and batches, so that runs of equal cells cross both, and a
    # batch's first row may hold more cells than it may format
    rows, flag = table
    folder = tmp_path_factory.mktemp("csv")
    header = [f"c{i}" for i in range(rows.shape[1])]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(emg, "_CSV_CELLS", cells)
        patch.setattr(emg, "_CSV_FRESH", fresh)
        write_csv(str(folder / "got.csv"), header, rows, flag=flag)
    reference_write_csv(str(folder / "ref.csv"), header, rows, flag=flag)
    assert (folder / "got.csv").read_bytes() == (folder / "ref.csv").read_bytes()


@pytest.mark.parametrize("n", [1, 2, 64, 65, 192])
@pytest.mark.parametrize("held", [0, 4])
def test_write_csv_keeps_adjacent_zeros_apart(tmp_path, n, held):
    # 0.0 and -0.0 compare equal but differ in their bit patterns, and so
    # in their text, also where they alternate down a column beside held
    # values; a flag column of either zero writes 0
    zeros = np.resize([0.0, -0.0, -0.0, 0.0], n)
    rows = np.column_stack((zeros, zeros, np.full((held, n), 0.1 + 0.2).T))
    path = tmp_path / "z.csv"
    write_csv(str(path), ["a", "gate"] + [f"h{i}" for i in range(held)], rows, flag=1)
    body = path.read_text().splitlines()[1:]
    assert body == [",".join([repr(z), "0"] + ["0.30000000000000004"] * held) for z in zeros.tolist()]


_TABLES = hnp.arrays(
    float,
    st.tuples(st.integers(0, 66), st.integers(1, 4)),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=40, deadline=None)
@given(_TABLES)
def test_csv_round_trip_is_bitwise(tmp_path_factory, x):
    path = str(tmp_path_factory.mktemp("csv") / "x.csv")
    header = [f"c{i}" for i in range(x.shape[1])]
    write_csv(path, header, x)
    got_header, back = _read_csv(path, "table", "c0,...", lambda h: True)
    assert got_header == header
    assert back.shape == x.shape
    assert back.tobytes() == x.tobytes()  # -0.0 and subnormals included
