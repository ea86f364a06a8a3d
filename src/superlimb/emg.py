"""Surface-EMG processing chain.

Raw electrode traces are band-pass filtered (zero-phase biquad, default
20-450 Hz), rectified, and reduced to a causal moving-RMS envelope.  The
envelope, normalized by an MVC reference, drives first-order activation
dynamics; a reduced Hill model (activation x maximal force x constant
length/velocity factors) yields the muscle-force estimate.  A Schmitt
trigger on the shank yaw angle gates the final map from muscle force to an
upward equilibrium-point shift, so electrode activity alone can never move
the limb.

File formats
------------
Traces are CSV with header ``t,ch1[,ch2,...]`` (seconds, millivolts);
motion streams are CSV ``t,yaw_rad``.  Streams are merged on the trace
timestamps with zero-order hold of the slower stream.  Pipeline output is
CSV ``t,envelope,activation,force_n,gate,dxeq_m``.
"""

from __future__ import annotations

import csv
import math
import os
from array import array
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import (
    BadBand,
    BadWindow,
    DimensionMismatch,
    MissingFile,
    NonFinite,
    RankDeficient,
    ValidationError,
)

DEFAULT_BAND = (20.0, 450.0)
DEFAULT_FS = 1000.0
DEFAULT_WINDOW = 0.1
#: filtfilt's default edge padding of the band-pass biquad: 3 x its 3 coefficients
FILTER_PAD = 9
#: rows ``write_csv`` formats at a time; a larger block is no faster, and one of
#: 256 rows of a 21-column simulation log adds about 0.5 MB to the peak RSS
_CSV_BLOCK = 64
#: cells of a block, past its first row and the flag column, equal to the
#: cell above them, below which ``write_csv`` formats every cell: there the
#: numpy work of sharing texts costs about what the ``repr`` calls it saves
_CSV_SHARED = 128


@dataclass(frozen=True)
class EmgTrace:
    """Uniformly sampled multi-channel sEMG segment.

    channels is a tuple of (name, samples-in-mV); all channels share the
    sampling rate fs and the segment start time t0.
    """

    fs: float
    channels: tuple[tuple[str, np.ndarray], ...]
    t0: float = 0.0

    def __post_init__(self):
        if not (self.fs > 0.0 and np.isfinite(self.fs)):
            raise ValidationError(f"fs must be positive, got {self.fs}")
        chans = []
        length = None
        for name, samples in self.channels:
            s = np.asarray(samples, dtype=float)
            if s.ndim != 1:
                raise DimensionMismatch(f"channel {name!r} must be 1-D")
            if length is None:
                length = s.size
            elif s.size != length:
                raise DimensionMismatch("all channels must have equal length")
            if s.size and not np.all(np.isfinite(s)):
                raise NonFinite(f"channel {name!r} contains NaN/Inf")
            chans.append((str(name), s))
        if not chans:
            raise ValidationError("trace needs at least one channel")
        object.__setattr__(self, "channels", tuple(chans))

    @property
    def n_samples(self) -> int:
        return self.channels[0][1].size

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_samples) / self.fs


@dataclass(frozen=True)
class HillParams:
    """Reduced Hill-model parameters; the length/velocity factors are
    constant scalars because no fascicle measurements exist to drive them."""

    f_max: float = 300.0
    act_tau_rise: float = 0.05
    act_tau_fall: float = 0.08
    fl_factor: float = 1.0
    fv_factor: float = 1.0
    mvc_reference: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.f_max < np.inf):
            raise ValidationError(f"f_max must be finite and > 0, got {self.f_max}")
        if not (0.0 < self.act_tau_rise < np.inf and 0.0 < self.act_tau_fall < np.inf):
            raise ValidationError("activation time constants must be finite and > 0")
        if not (0.0 < self.mvc_reference < np.inf):
            raise ValidationError(f"mvc_reference must be finite and > 0, got {self.mvc_reference}")
        for name in ("fl_factor", "fv_factor"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.5):
                raise ValidationError(f"{name} must be in (0, 1.5], got {v}")
        if not math.isfinite(self.f_max * self.fl_factor * self.fv_factor):
            raise ValidationError("full-activation force f_max * fl_factor * fv_factor overflows")


def check_band(f_lo: float, f_hi: float, fs: float, key: str | None = None):
    """Band-pass corners must satisfy 0 < f_lo < f_hi < fs/2."""
    if not (0.0 < f_lo < f_hi < fs / 2.0):
        raise BadBand(f"need 0 < f_lo < f_hi < fs/2, got ({f_lo}, {f_hi}) at fs={fs}", key)


def check_window(window: float, fs: float, key: str | None = None):
    """An RMS window must be finite, span two samples and hold a finite
    number of them (``window * fs``)."""
    if not (2.0 / fs <= window < np.inf and math.isfinite(window * fs)):
        raise BadWindow(
            f"window must be finite and span two samples, with window * fs finite, "
            f"at fs={fs}, got {window}", key
        )


def check_samples(n: int, key: str | None = None):
    """A trace to band-pass must be longer than the filter's edge padding."""
    if not n > FILTER_PAD:
        raise ValidationError(f"trace too short to filter ({n} samples)", key)


def check_gate(threshold: float, hysteresis: float, key: str | None = None):
    """The motion gate needs threshold > hysteresis >= 0."""
    if not (threshold > hysteresis >= 0.0):
        raise ValidationError(
            f"need threshold > hysteresis >= 0, got ({threshold}, {hysteresis})", key
        )


def check_gain(gain: float, key: str | None = None, hill: HillParams | None = None):
    """The force-to-shift gain must be finite and >= 0; given ``hill``, its
    shift at the full-activation muscle force (finite by ``HillParams``)
    must be finite too."""
    if not (0.0 <= gain < np.inf):
        raise ValidationError(f"gain must be finite and >= 0, got {gain}", key)
    if hill is None:
        return
    f_full = hill_force(1.0, hill)
    if not math.isfinite(gain * f_full):
        raise ValidationError(f"gain {gain:g} gives no finite equilibrium shift at the "
                              f"full-activation muscle force ({f_full:g} N)", key)


def _map_channels(trace: EmgTrace, fn) -> EmgTrace:
    return EmgTrace(
        fs=trace.fs,
        channels=tuple((name, fn(s)) for name, s in trace.channels),
        t0=trace.t0,
    )


@cache
def _band_design(f_lo: float, f_hi: float, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """The band-pass biquad's coefficients ``(b, a)`` for one checked band
    and sampling rate, designed once and kept read-only."""
    from scipy.signal import butter

    b, a = butter(1, [f_lo, f_hi], btype="bandpass", fs=fs)
    b.flags.writeable = a.flags.writeable = False
    return b, a


def bandpass(trace: EmgTrace, f_lo: float, f_hi: float) -> EmgTrace:
    """Zero-phase band-pass: one second-order (biquad) Butterworth section
    applied forward and backward.  Rejects DC exactly.  A band whose
    filter has no initial state (a corner so low that a pole rounds onto 1)
    is RankDeficient, and samples whose filtering overflows are NonFinite.
    SciPy's signal module is imported here, on the first call, so a run
    that never filters does not pay its import time."""
    from scipy.signal import filtfilt

    check_band(f_lo, f_hi, trace.fs)
    check_samples(trace.n_samples)
    b, a = _band_design(f_lo, f_hi, trace.fs)

    def filtered(s: np.ndarray) -> np.ndarray:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                out = filtfilt(b, a, s)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient(f"bandpass: band ({f_lo:g}, {f_hi:g}) Hz gives a "
                                f"degenerate filter at fs={trace.fs:g} ({exc})") from exc
        if not np.all(np.isfinite(out)):
            raise NonFinite("bandpass: the filtered samples overflow")
        return out

    return _map_channels(trace, filtered)


def rectify(trace: EmgTrace) -> EmgTrace:
    """Full-wave rectification (samplewise absolute value)."""
    return _map_channels(trace, np.abs)


def envelope(trace: EmgTrace, window: float) -> EmgTrace:
    """Causal moving-RMS envelope with the given window in seconds.

    Leading samples use the partial window that is available, so the output
    has the same length as the input.  Squares whose running sum overflows
    are a NonFinite error.
    """
    check_window(window, trace.fs)
    n = int(round(window * trace.fs))

    def rms(s: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            c = np.concatenate([[0.0], np.cumsum(s * s)])
        if not np.isfinite(c[-1]):  # the running sum of squares is nondecreasing
            raise NonFinite("envelope: the sum of squared samples overflows")
        counts = np.minimum(np.arange(1, s.size + 1), n)
        lo = np.maximum(np.arange(1, s.size + 1) - n, 0)
        acc = c[1:] - c[lo]
        return np.sqrt(np.maximum(acc / counts, 0.0))

    return _map_channels(trace, rms)


def activation_series(
    env: np.ndarray, params: HillParams, fs: float, a0: float = 0.0
) -> np.ndarray:
    """First-order activation dynamics over a whole envelope array sampled
    at ``fs``, starting from activation ``a0``.

    Each envelope sample is normalized by mvc_reference and clamped to
    [0, 1] to form the drive u; activation relaxes towards u with the rise
    constant when increasing and the fall constant otherwise, and is
    clamped to [0, 1].
    """
    if not (0.0 < fs < math.inf):
        raise ValidationError(f"fs must be finite and > 0, got {fs}")
    dt = 1.0 / fs
    mvc, k_rise, k_fall = params.mvc_reference, dt / params.act_tau_rise, dt / params.act_tau_fall
    samples = np.asarray(env, dtype=float).tolist()
    out = [0.0] * len(samples)
    a = a0
    for i, e in enumerate(samples):
        u = e / mvc
        u = 0.0 if u < 0.0 else 1.0 if u > 1.0 else u
        a += (k_rise if u > a else k_fall) * (u - a)
        a = 0.0 if a < 0.0 else 1.0 if a > 1.0 else a
        out[i] = a
    return np.array(out)


def hill_force(a, params: HillParams):
    """Muscle force F = a * f_max * fl_factor * fv_factor of an activation
    given as a float or, sample by sample, as an array."""
    if not np.all((a >= 0.0) & (a <= 1.0)):  # NaN fails both
        raise ValidationError(f"activation must be in [0,1], got {a}")
    return a * params.f_max * params.fl_factor * params.fv_factor


def gate_series(yaws: np.ndarray, threshold: float, hysteresis: float) -> np.ndarray:
    """Schmitt trigger on |yaw| replayed over a yaw sequence, starting off:
    the gate turns on at >= threshold, off at <= threshold - hysteresis,
    and holds its previous state in between."""
    check_gate(threshold, hysteresis)
    off = threshold - hysteresis
    mags = np.abs(np.asarray(yaws, dtype=float)).tolist()
    out = [False] * len(mags)
    state = False
    for i, mag in enumerate(mags):
        if mag >= threshold:
            state = True
        elif mag <= off:
            state = False
        out[i] = state
    return np.array(out, dtype=bool)


def map_to_equilibrium(f_muscle, gate, gain: float):
    """Upward equilibrium-point shift commanded by the muscle force (a float
    or, sample by sample, an array); zero wherever the motion gate is off."""
    check_gain(gain)
    shift = np.where(gate, gain * np.asarray(f_muscle, dtype=float), 0.0)
    return shift if shift.ndim else float(shift)


def zero_order_hold(
    t_query: np.ndarray, t: np.ndarray, values: np.ndarray, initial: float = 0.0
) -> np.ndarray:
    """Sample a piecewise-constant stream at the query times; queries before
    the first stream sample get ``initial``."""
    tq = np.asarray(t_query, dtype=float)
    ts = np.asarray(t, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ts.size == 0:
        return np.full(tq.shape, initial)
    idx = np.searchsorted(ts, tq, side="right") - 1
    out = np.where(idx >= 0, vs[np.clip(idx, 0, vs.size - 1)], initial)
    return out


# --- sEMG sources and settings -------------------------------------------------


@dataclass(frozen=True)
class ActivationProfile:
    """Piecewise-constant activation schedule for synthetic sEMG."""

    duration: float
    steps: tuple[tuple[float, float], ...]
    fs: float = DEFAULT_FS

    def __post_init__(self):
        if not (0.0 < self.fs < math.inf):
            raise ValidationError(f"fs must be finite and positive, got {self.fs}")
        if not (0.0 < self.duration < math.inf):
            raise ValidationError(f"duration must be finite and positive, got {self.duration}")
        if not math.isfinite(self.duration * self.fs):
            raise ValidationError(f"gives no finite sample count at fs={self.fs}", "duration")
        if not self.steps:
            raise ValidationError("steps must not be empty")
        prev = -math.inf
        for i, (t, level) in enumerate(self.steps):
            if t < prev:
                raise ValidationError(f"steps[{i}]: times must be nondecreasing")
            prev = t
            if not (0.0 <= level <= 1.0):
                raise ValidationError(f"steps[{i}]: level must be in [0,1], got {level}")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * self.fs))

    def sample(self, t: np.ndarray) -> np.ndarray:
        times, levels = zip(*self.steps)
        return zero_order_hold(t, times, levels)


@dataclass(frozen=True)
class EmgConfig:
    """The sEMG command channel of a scenario: one source (recorded trace or
    synthetic profile) and the pipeline settings, whose defaults the
    ``emg-pipeline`` flags share.  Band and window are checked when enabled."""

    enabled: bool
    trace: EmgTrace | None = None
    profile: ActivationProfile | None = None
    seed: int = 0
    hill: HillParams = field(default_factory=HillParams)
    threshold: float = 0.3
    hysteresis: float = 0.05
    gain: float = 1e-4
    motion: tuple[np.ndarray, np.ndarray] | None = None
    band: tuple[float, float] = DEFAULT_BAND
    window: float = DEFAULT_WINDOW

    def __post_init__(self):
        if not (self.seed >= 0):
            raise ValidationError("must be >= 0", "seed")
        check_gate(self.threshold, self.hysteresis, "threshold")
        check_gain(self.gain, "gain", self.hill)
        if not self.enabled:
            return
        if (self.trace is None) == (self.profile is None):
            raise ValidationError("give exactly one of 'trace' or 'profile'")
        source = self.profile if self.trace is None else self.trace
        check_samples(source.n_samples, "profile.duration" if self.trace is None else "trace")
        check_band(*self.band, source.fs, "band")
        check_window(self.window, source.fs, "window")


# --- whole-trace pipeline -----------------------------------------------------


@dataclass(frozen=True)
class PipelineResult:
    """Per-sample pipeline outputs at the trace timestamps."""

    t: np.ndarray
    envelope: np.ndarray
    activation: np.ndarray
    force: np.ndarray
    gate: np.ndarray
    dxeq: np.ndarray


def run_pipeline(
    trace: EmgTrace,
    hill: HillParams,
    gate_threshold: float,
    gate_hysteresis: float,
    gain: float,
    motion: tuple[np.ndarray, np.ndarray] | None = None,
    band: tuple[float, float] = DEFAULT_BAND,
    window: float = DEFAULT_WINDOW,
) -> PipelineResult:
    """Process one trace end to end.

    ``motion`` is an optional (t, yaw) stream; without one the gate is held
    open, i.e. the pipeline runs ungated.  Multi-channel traces are reduced
    by averaging the per-channel envelopes.  The gate thresholds and the
    gain are checked, before any filtering, whether or not a motion stream
    is given.
    """
    check_gate(gate_threshold, gate_hysteresis)
    check_gain(gain, hill=hill)
    filtered = envelope(rectify(bandpass(trace, *band)), window)
    env = np.mean([s for _, s in filtered.channels], axis=0)
    act = activation_series(env, hill, trace.fs)
    force = hill_force(act, hill)
    t = trace.times
    if motion is None:
        gate = np.ones(t.size, dtype=bool)
    else:
        yaw = zero_order_hold(t, motion[0], motion[1], initial=0.0)
        gate = gate_series(yaw, gate_threshold, gate_hysteresis)
    dxeq = map_to_equilibrium(force, gate, gain)
    return PipelineResult(
        t=t, envelope=env, activation=act, force=force, gate=gate, dxeq=dxeq
    )


# --- CSV interfaces -----------------------------------------------------------


def write_csv(path: str, header: list[str], rows: np.ndarray, flag: int | None = None):
    """Write a float table of one or more columns as CSV: every value as its
    shortest round-trip ``repr``, except column ``flag`` (if given),
    written as ``0``/``1``.

    Rows are formatted ``_CSV_BLOCK`` at a time, column by column.  Inside
    a block's column, a cell whose 64-bit pattern equals the cell above it
    reuses that cell's text (so 0.0 and -0.0 never share one), once the
    block has ``_CSV_SHARED`` such cells.  The bytes are those of
    formatting each row on its own.  Raises ValidationError, naming the
    path, when the file cannot be opened for writing."""
    bits = rows.view(np.uint64)
    n_blocks = -(-len(rows) // _CSV_BLOCK)
    shared = np.zeros(n_blocks * _CSV_BLOCK, dtype=np.intp)  # per row, cells equal to the one above
    same = bits[1:] == bits[:-1]
    if flag is not None:
        same[:, flag] = False
    shared[1 : len(rows)] = np.count_nonzero(same, axis=1)
    shared[::_CSV_BLOCK] = 0  # a block's first row is formatted whole
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from exc
    with fh:
        fh.write(",".join(header) + "\n")
        for start, n_shared in zip(range(0, len(rows), _CSV_BLOCK),
                                   shared.reshape(n_blocks, _CSV_BLOCK).sum(axis=1).tolist()):
            cols = rows[start : start + _CSV_BLOCK].T
            if n_shared < _CSV_SHARED:
                cells = [None if j == flag else list(map(repr, col))
                         for j, col in enumerate(cols.tolist())]
            else:
                col_bits = bits[start : start + _CSV_BLOCK].T
                fresh = np.ones(cols.shape, dtype=bool)  # the cell differs from the one above
                np.not_equal(col_bits[:, 1:], col_bits[:, :-1], out=fresh[:, 1:])
                texts = np.array(list(map(repr, cols[fresh].tolist())), dtype=object)
                cells = texts[np.cumsum(fresh).reshape(fresh.shape) - 1].tolist()
            if flag is not None:
                cells[flag] = ["1" if v else "0" for v in cols[flag].tolist()]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _read_csv(
    path: str, what: str, expected: str, header_ok, n_used: int | None = None
):
    """Header and numeric body of a CSV input file.

    The file must be UTF-8 text.  Blank lines are skipped; every other row
    must be as wide as the header and its first ``n_used`` cells (all of
    them by default) finite numbers.  Errors name the file and the 1-based
    line.
    """
    if not os.path.isfile(path):
        raise MissingFile(f"{what} file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or not header_ok(header):
                raise ValidationError(f"{path}: expected header '{expected}'")
            width = len(header)
            used = width if n_used is None else n_used
            values, lines = array("d"), []
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    raise ValidationError(
                        f"{path}, line {reader.line_num}: "
                        f"{len(row)} cells, the header has {width}"
                    )
                values.extend(map(float, row[:used]))
                lines.append(reader.line_num)
    except UnicodeDecodeError as exc:  # the file is decoded in chunks: find the line
        line = _first_line_not_utf8(path)
        raise ValidationError(f"{path}, line {line}: not UTF-8 text ({exc.reason})") from None
    except (csv.Error, ValueError) as exc:  # a NUL byte, an unclosed quote, a bad number
        raise ValidationError(f"{path}, line {reader.line_num}: {exc}") from None
    data = np.array(values).reshape(len(lines), used)
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        line = lines[int(np.argmax(bad))]
        raise ValidationError(f"{path}, line {line}: NaN or Inf cell")
    return header, data


def _first_line_not_utf8(path: str) -> int:
    """1-based number of the first line of a file that is not UTF-8 (0 if
    every line is)."""
    with open(path, "rb") as fh:
        for n, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return n
    return 0


def load_trace_csv(path: str) -> EmgTrace:
    """Read a trace CSV with header ``t,ch1[,ch2,...]``; the sampling rate
    is inferred from the (required uniform) time column."""
    header, data = _read_csv(
        path, "trace", "t,ch1[,ch2,...]",
        lambda h: h[0].strip() == "t" and len(h) >= 2,
    )
    if data.shape[0] < 2:
        raise ValidationError(f"{path}: need at least two samples")
    t = data[:, 0]
    dts = np.diff(t)
    dt = float(np.median(dts))
    if dt <= 0.0 or np.max(np.abs(dts - dt)) > 1e-6 * max(dt, 1e-12):
        raise ValidationError(f"{path}: time column must be uniformly increasing")
    names = [h.strip() for h in header[1:]]
    return EmgTrace(
        fs=1.0 / dt,
        channels=tuple((n, data[:, i + 1]) for i, n in enumerate(names)),
        t0=float(t[0]),
    )


def write_trace_csv(path: str, trace: EmgTrace):
    names, samples = zip(*trace.channels)
    write_csv(path, ["t", *names], np.column_stack((trace.times, *samples)))


def load_motion_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a motion CSV with header ``t,yaw_rad`` (further columns are
    ignored); time must be nondecreasing."""
    _, data = _read_csv(
        path, "motion", "t,yaw_rad",
        lambda h: [c.strip() for c in h[:2]] == ["t", "yaw_rad"], n_used=2,
    )
    if not data.size:
        raise ValidationError(f"{path}: empty motion stream")
    t, yaw = data[:, 0], data[:, 1]
    if np.any(np.diff(t) < 0.0):
        raise ValidationError(f"{path}: time column must be nondecreasing")
    return t, yaw


def write_pipeline_csv(path: str, result: PipelineResult):
    r = result
    write_csv(
        path,
        ["t", "envelope", "activation", "force_n", "gate", "dxeq_m"],
        np.column_stack((r.t, r.envelope, r.activation, r.force, r.gate, r.dxeq)),
        flag=4,
    )
