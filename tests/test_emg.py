"""Tests for the sEMG processing chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from superlimb.emg import (
    _CSV_BLOCK,
    DEFAULT_BAND,
    DEFAULT_WINDOW,
    EmgTrace,
    HillParams,
    _read_csv,
    activation_series,
    bandpass,
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
    state, manual = False, []
    for y in yaws.tolist():
        if abs(y) >= 0.3:
            state = True
        elif abs(y) <= 0.3 - 0.05:
            state = False
        manual.append(state)
    np.testing.assert_array_equal(out, manual)
    np.testing.assert_array_equal(out[:7], [False, True, True, False, False, True, False])
    assert out.dtype == bool


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


# --- CSV writer -----------------------------------------------------------------


def _rowwise_csv(header: list[str], rows: np.ndarray, flag: int | None = None) -> bytes:
    """The writer's former row-by-row loop: the oracle for its bytes."""
    out = [",".join(header) + "\n"]
    for row in rows.tolist():
        cells = list(map(repr, row))
        if flag is not None:
            cells[flag] = "1" if row[flag] else "0"
        out.append(",".join(cells) + "\n")
    return "".join(out).encode()


#: values whose shortest repr takes every form: signed zero, subnormal,
#: exponent, the 1e16 switch to exponent form, an inexact sum, big integers
AWKWARD = [-0.0, 5e-324, 1e-05, 1e16, 1e22, 0.1 + 0.2, 2.0**53 + 2.0, 12345678901234567890.0,
           -1.0, 0.0, 1.7976931348623157e308]


@pytest.mark.parametrize("n", [0, 1, _CSV_BLOCK, _CSV_BLOCK + 1, 2 * _CSV_BLOCK + 3])
@pytest.mark.parametrize("flag", [None, 4])
def test_write_csv_bytes_match_the_rowwise_loop(tmp_path, n, flag):
    header = ["t", "a", "b", "c", "gate", "d"]
    rows = np.resize(np.array(AWKWARD), (n, len(header)))  # each column cycles through AWKWARD
    path = tmp_path / "out.csv"
    write_csv(str(path), header, rows, flag=flag)
    assert path.read_bytes() == _rowwise_csv(header, rows, flag)


_TABLES = hnp.arrays(
    float,
    st.tuples(st.integers(0, _CSV_BLOCK + 2), st.integers(1, 4)),
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
