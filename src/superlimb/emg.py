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
import errno
import math
import os
import warnings
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
#: bytes that numpy's float converter strips around a cell and ``float`` does not
_INFO_SEPARATORS = b"\x1c\x1d\x1e\x1f"


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
    and holds its previous state in between.  A NaN yaw holds it too.

    The state at sample i is set by the latest sample <= i that is an on
    or an off event; before the first event the gate is off."""
    check_gate(threshold, hysteresis)
    mags = np.abs(np.asarray(yaws, dtype=float))
    on = mags >= threshold
    event = on | (mags <= threshold - hysteresis)
    last = np.maximum.accumulate(np.where(event, np.arange(mags.size), -1))
    return (last >= 0) & on[last]


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


def check_writable(path: str):
    """Raise the ValidationError ``write_csv`` raises for an output path it
    could not open, without creating a file: a missing parent directory, a
    path that is a directory, or a place this process may not write."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValidationError(f"cannot write {path}: {os.strerror(code)}")


def write_csv(path: str, header: list[str], rows: np.ndarray, flag: int | None = None):
    """Write a float table of one or more columns as CSV: every value as
    ``repr`` writes it, except column ``flag`` (if given), written as
    ``1``/``0`` by truthiness.

    One numpy kernel formats the body, with no Python object per cell:
    ``_shortest`` finds each value's shortest round-trip digits by exact
    integer arithmetic, ``_csv_text`` lays them out as ``float.__repr__``
    does in fixed 48-byte rows whose unused bytes are NUL, and
    ``_csv_chunks`` writes those rows as one byte string per chunk of at
    most ``_CSV_CELLS`` cells (whole rows), with the NUL bytes dropped.
    Only cells that differ (in their bits) from the one above them are
    formatted, ``_CSV_FRESH`` at most at a time; the others copy its text.
    The tests hold the bytes to one ``repr`` per cell.  Raises
    ValidationError, naming the path, when the file cannot be opened or
    written (a full disk, say)."""
    rows = np.asarray(rows, dtype=float)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            fh.flush()
            for text in _csv_chunks(rows, flag):
                fh.buffer.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from exc


# A value c * 2^q (c < 2^53, the hidden bit included) reads back from any
# decimal in its rounding interval [(4c - 2) 2^(q-2), (4c + 2) 2^(q-2)],
# whose ends belong to it when c is even (round half to even); just above a
# power of two the gap below is half the gap above, and the lower end is
# (4c - 1) 2^(q-2).  With 10^k <= width < 10^(k+1) the interval holds at
# most one multiple of 10^(k+1) and at least one of 10^k.  So the shortest
# decimal is that multiple of 10^(k+1), if there is one, with its trailing
# zeros stripped; otherwise it is s or s + 1 times 10^k for s = floor(v /
# 10^k), whichever lies in the interval, the nearer one if both do, the even
# one on a tie (Ryu, Adams 2018; Schubfach, Giulietti 2020).
#
# Every test compares x = m 2^q / 10^k with a multiple of 1/4, for m = 4c -
# 2, 4c - 1, 4c or 4c + 2 (all below 2^55).  x is formed in fixed point as m
# times ceil(2^(q + 124) / 10^k): exact but for an excess below m 2^-124 <
# 2^-69.  Over every binary exponent and every m <= 2^55, an x that is not an
# integer lies at least 2^-65.4 from one (the continued-fraction bound that
# the tests recompute).  So the product's integer part is floor(x), and x is
# an integer exactly when its 124-bit fraction is below 2^57 units (2^-67).

#: cells ``write_csv`` writes at a time, in whole rows, and the most of them
#: it formats at a time (the others repeat the cell above them).  A write's
#: allocations then peak near 3.5 MB (a test holds them to 4 MB); batches
#: twice as large hold twice that for at most 2 % of speed
_CSV_CELLS, _CSV_FRESH = 1 << 12, 1 << 13
_M32 = 0xFFFFFFFF
_POW10 = 10 ** np.arange(18, dtype=np.uint64)


#: the multiplier table, per binary exponent with 2048 added to the biased
#: exponent just above a power of two: the decimal exponent k =
#: floor(log10(width)) of the rounding interval, ceil(2^(q + 124) / 10^k) <
#: 2^128 as four 32-bit limbs, least significant first (4 x 4096), and
#: whether the row is filled yet
_TABLE = (np.zeros(4096, dtype=np.int64), np.zeros((4, 4096), dtype=np.uint64),
          np.zeros(4096, dtype=bool))


def _multipliers(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The multiplier table's k and limbs, with the ``rows`` given filled:
    each row is filled the first time it is asked for (a file uses a few
    dozen binary exponents) and kept."""
    ks, limbs, filled = _TABLE
    if not filled[rows].all():
        for row in set(rows[~filled[rows]].tolist()):  # np.unique would import numpy.ma
            q = max(row & 2047, 1) - 1075
            # floor(q log10 2), or floor(log10(3/4 2^q)) above a power of two
            k = (q * 661971961083 - (274743187321 if row >> 11 else 0)) >> 41
            num, den = (5**-k, 1) if k <= 0 else (1, 5**k)
            e2 = q + 124 - k
            num, den = (num << e2, den) if e2 >= 0 else (num, den << -e2)
            g = -(-num // den)
            ks[row] = k
            limbs[:, row] = [(g >> shift) & _M32 for shift in (0, 32, 64, 96)]
            filled[row] = True
    return ks, limbs


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest round-trip decimal ``d * 10**e`` of each finite nonzero
    magnitude, as uint64 ``d`` and int ``e``; cells of any other value give
    junk.  ``bits`` are float64 bit patterns (the sign is ignored)."""
    m1 = bits >> 52
    m1 &= 0x7FF  # the biased exponent
    c = bits & 0xFFFFFFFFFFFFF
    above = (c == 0) & (m1 > 1)  # just above a power of two
    row = m1.astype(np.intp)
    row += above * 2048
    np.minimum(m1, 1, out=m1)
    m1 <<= 52
    c |= m1  # the significand, the hidden bit included
    k, table = _multipliers(row)
    k = k[row]
    g = np.take(table, row, axis=1, mode="clip")  # limbs, least first
    del row  # here and below: freed before the next arrays, for a lower peak
    m0 = c << 2
    m0 &= _M32
    np.right_shift(c, 30, out=m1)  # 4c = m1 2^32 + m0
    x = np.empty((3, 4, len(bits)), dtype=np.uint64)  # the value's 4c g, then its ends
    np.multiply(m0, g, out=x[0])
    np.multiply(m1, g, out=x[1])  # at limb j + 1
    np.right_shift(x[0], 32, out=x[2])
    x[1] += x[2]  # at limb j + 1 too
    x[0] &= _M32
    x[0, 1:] += x[1, :-1]
    top = x[1, 3] << 4  # limb 4 and up, in units of 2^124
    g <<= 1
    np.add(x[0], g, out=x[1])  # (4c + 2) g: the upper end
    np.right_shift(g, above.view(np.uint8).astype(np.uint64), out=x[2])
    u = x.view(np.int64)
    np.subtract(u[0], u[2], out=u[2])  # (4c - 2) g, or (4c - 1) g above a power of two: the lower end
    for j in range(3):  # carry, the borrows of the lower end too
        u[:, j + 1] += u[:, j] >> 32
        u[:, j] &= _M32
    ends = u[:, 3] >> 28  # the lower end's last limb may borrow from the top
    ends += top.view(np.int64)
    xv, xw, xu = ends.view(np.uint64)  # floor(4v / 10^k) < 2^59, and the ends'
    frac = x[:, 3] & 0x0FFFFFFF  # the 124-bit fractions' top 67 bits
    frac |= x[:, 2]
    frac |= x[:, 1] >> 25
    near, exact_hi, exact_lo = frac == 0  # below 2^57 units: x is an integer
    even = (c & 1) == 0
    lo_in = (even & exact_lo).view(np.uint8)  # a lower end at 4N counts as below it
    hi_in = (even | ~exact_hi).view(np.uint8)  # an upper end at 4N counts as above it
    del g, x, u, c, top, frac
    s = xv >> 2
    s10 = s // 10
    n4 = s10 * 40
    short_lo = xu < n4 + lo_in  # 10 s10 is in the interval
    n4 += 40
    short_hi = xw + hi_in > n4  # 10 s10 + 10 is
    short = short_lo != short_hi
    np.left_shift(s, 2, out=n4)
    s_in = xu < n4 + lo_in
    n4 += 4
    t_in = xw + hi_in > n4
    nearer_s = (xv & 3) < 2 + (near & ((s & 1) == 0)).view(np.uint8)
    take_s = nearer_s ^ ((s_in ^ nearer_s) & (s_in ^ t_in))  # s_in where s_in != t_in, else nearer_s
    s10 += ~short_lo
    s += ~take_s
    return np.where(short, s10, s), k + short


# A cell's text row of 48 bytes, as twelve uint32 words: a sign, the first
# integer digit (or "0", "n", "i") and four words of 4 more (or ".000",
# "an", "nf"); the point, the "0" of an integer's fraction, the first
# fraction digit and four words of 4 more; "e" and the exponent's sign; 3
# exponent digits and the separator.  Both digit runs hold all 17 digits,
# the second with its trailing zeros NUL.
# The cell's shape code zeroes the bytes its text does not use, and the
# writer drops every NUL byte (ASCII text holds none).
_ROW = 48
_SIGN, _A, _POINT, _B, _EXP, _SEP = 0, 3, 20, 23, 40, 47
#: shape codes past fixed notation's (decpt + 3 for -4 < decpt <= 16):
#: exponent notation, a negative sign, nan and inf
_SCI, _NEG, _NAN, _INF = 20, 24, 48, 49
#: rows of ``_text_tables``'s word table past the 10^4 four-digit words
_TRIM, _DOT000, _FIRST_A, _FIRST_B = 10000, 20000, 20001, 20011
#: decimal exponents (decpt - 1) that the exponent table spells out
_EXPS = 999


@cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """``words``: uint32 words of ASCII in memory order: the four digits of
    each n < 10^4, the same with their trailing zeros NUL, ".000", "-" and
    each first integer digit, "." and each first fraction digit, then the
    same with "0" after the point;
    ``masks[code]``: 0xFF on the row bytes a cell of each shape code uses;
    ``exps[decpt + _EXPS - 1]``: the row's last 8 bytes, "e", the
    exponent's sign and its three digits; ``codes[decpt + _EXPS - 1]``, and
    ``codes[decpt + 3 * _EXPS]`` for a cell with more than one digit: the
    shape code; ``digits[e]``: the digits of 2^(e - 1023), for e the biased
    exponent of a float64 of at least 1.

    Exponent notation has code _SCI + 2 (for a 3-digit exponent) + 1 (for
    a point and more digits); _NEG adds a sign; then nan, inf and -inf."""
    n = np.arange(10000, dtype=np.int16)
    words = np.zeros((_FIRST_B + 20, 4), dtype=np.uint8)
    digits, trimmed = words[:_TRIM], words[_TRIM:_DOT000]
    for j in range(4):
        digits[:, 3 - j] = n // 10**j % 10
    digits += ord("0")
    for j in range(4):
        trimmed[:, 3 - j] = digits[:, 3 - j] * (n % 10 ** (j + 1) != 0)
    words[_DOT000] = list(b".000")
    words[_FIRST_A:, 3] = words[:30, 3]  # "0" to "9", three times
    words[_FIRST_A:_FIRST_B, 0] = ord("-")
    words[_FIRST_B:, 0] = ord(".")
    words[_FIRST_B + 10 :, 1] = ord("0")
    masks = np.zeros((_INF + 2, _ROW), dtype=bool)
    for code in range(_NEG):
        m = masks[code]
        if code < _SCI:
            decpt = code - 3
            if decpt <= 0:  # "0." and -decpt zeros in the integer bytes
                m[_A : _A + 2 - decpt] = m[_B : _B + 17] = True
            else:  # an integer's fraction is the "0" after the point
                m[_A : _A + decpt] = m[_POINT : _POINT + 2] = m[_B + decpt : _B + 17] = True
        else:
            three, point = divmod(code - _SCI, 2)
            m[_A] = m[_B + 1 : _B + 17] = m[_EXP : _EXP + 2] = m[_EXP + 5 - three : _EXP + 7] = True
            m[_POINT] = point
        masks[code + _NEG] = m
        masks[code + _NEG, _SIGN] = True
    masks[_NAN:, _A : _A + 3] = True
    masks[_INF + 1, _SIGN] = True
    x = np.arange(-_EXPS, _EXPS + 1)  # decpt - 1
    exps = np.zeros((x.size, 8), dtype=np.uint8)
    exps[:, 0] = ord("e")
    exps[:, 1] = np.where(x < 0, ord("-"), ord("+"))
    exps[:, 4:7] = digits[abs(x), 1:]
    fixed = (x >= -4) & (x < 16)
    codes = np.where(fixed, x + 4, _SCI + 2 * (abs(x) > 99))
    codes = np.concatenate((codes, codes + ~fixed))
    powers = (np.arange(1087) - 1023).clip(0)  # a float64 below 2^64 has e < 1087
    tables = (words.view(np.uint32).ravel(), (masks * np.uint8(0xFF)).view(np.uint32),
              exps.view(np.uint32).T.copy(), codes, (powers * 1233 >> 12) + 1)
    for table in tables:
        table.flags.writeable = False
    return tables


def _csv_chunks(rows: np.ndarray, flag: int | None):
    """Yield the CSV body of a float table as bytes, at most ``_CSV_CELLS``
    cells (whole rows) at a time.

    Only the cells that differ (in their bits) from the one above them are
    formatted, in batches of rows holding at most ``_CSV_FRESH`` of them,
    a batch's first row whole; every other cell copies the text row of the
    last formatted cell above it, and a cell of the flag column the text
    row of ``1`` or ``0`` by its truthiness.  The separators are written
    into the copies.  The buffers are reused from batch to batch."""
    bits = np.ascontiguousarray(rows).view(np.uint64)
    n_rows, width = bits.shape
    if not n_rows:
        return
    fresh = np.ones(bits.shape, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=fresh[1:])
    if flag is not None:
        fresh[1:, flag] = False
    counted = np.zeros(n_rows, dtype=np.intp)
    for column in fresh.T:  # faster than a reduction along the short axis
        counted += column
    np.cumsum(counted, out=counted)  # fresh cells through each row
    span = max(1, _CSV_CELLS // width)
    seps = np.full(width, ord(","), dtype=np.uint8)
    seps[-1] = ord("\n")
    text = np.zeros((max(width, min(_CSV_FRESH, int(counted[-1]) + width)) + 2, _ROW), dtype=np.uint8)
    text[-2:, _A] = list(b"01")  # the flag column's texts
    copies = np.empty((min(span, n_rows), width, _ROW), dtype=np.uint8)
    start = 0
    while start < n_rows:
        stop = max(start + 1, int(np.searchsorted(counted, counted[start] - width + _CSV_FRESH, "right")))
        fresh[start] = True
        pick = np.flatnonzero(fresh[start:stop])
        _csv_text(bits[start:stop].ravel()[pick], text[: pick.size])
        done = 0  # formatted cells in the batch's earlier chunks
        for top in range(start, stop, span):
            end = min(top + span, stop)
            # each cell copies the last formatted cell at or above it in its column
            upto = int(np.searchsorted(pick, (end - start) * width))
            last = np.full((end - top, width), -1)
            last.ravel()[pick[done:upto] - (top - start) * width] = np.arange(done, upto)
            done = upto
            if top > start:
                np.maximum(last[0], above, out=last[0])
            np.maximum.accumulate(last, axis=0, out=last)
            above = last[-1]
            if flag is not None:  # the row of "1" if the value is truthy, else of "0"
                last[:, flag] = (bits[top:end, flag] & 0x7FFFFFFFFFFFFFFF) != 0
                last[:, flag] += len(text) - 2
            cells = copies[: end - top]
            np.take(text, last, axis=0, out=cells, mode="clip")
            cells[..., _SEP] = seps
            yield cells.tobytes().translate(None, b"\0")
        start = stop


def _csv_text(bits: np.ndarray, text: np.ndarray):
    """Fill the text rows of cells (float64 bit patterns), n x _ROW bytes,
    with each cell as ``repr`` writes it and NUL in every other byte."""
    table, masks, exps, codes, pow2_digits = _text_tables()
    words = np.empty((_ROW // 4, len(bits)), dtype=np.uint32)  # by word, then cell
    d, e = _shortest(bits)
    mag = bits & 0x7FFFFFFFFFFFFFFF
    zero = mag == 0  # one digit, the point after it
    # d's digits: those of the power of two at or below it, or one more
    ndig = np.take(pow2_digits, d.astype(float).view(np.uint64) >> 52, mode="clip")
    ndig += d >= np.take(_POW10, ndig, mode="clip")
    d *= np.take(_POW10, 17 - ndig, mode="clip")  # 17 digits, the first nonzero
    d[zero] = 0
    d = d.view(np.int64)
    hi = d // 10**8
    lo = d - hi * 10**8
    first = hi // 10**8
    hi -= first * 10**8
    g1 = hi // 10**4
    g3 = lo // 10**4
    hi -= g1 * 10**4
    lo -= g3 * 10**4
    # the fraction run's words, trailing zeros NUL: all of a group after
    # which every group is zero
    np.take(table, lo + _TRIM, out=words[9], mode="clip")
    np.take(table, lo, out=words[4], mode="clip")
    trail = lo == 0
    for j, group in ((2, g3), (1, hi), (0, g1)):
        np.take(table, np.where(trail, group + _TRIM, group), out=words[6 + j], mode="clip")
        if j:
            np.take(table, group, out=words[1 + j], mode="clip")
        trail &= group == 0
    # decpt, the point's place after the first digit, as a row of the
    # exponent and code tables
    at = np.where(zero, 1, ndig + e)
    at += _EXPS - 1
    np.take(exps, at, axis=1, out=words[_EXP // 4 :], mode="clip")
    code = np.take(codes, at + ~trail * (2 * _EXPS + 1), mode="clip")
    lead = code <= 3  # "0." and zeros before the digits
    np.take(table, np.where(lead, _DOT000, g1), out=words[1], mode="clip")
    x = bits.view(np.float64)
    with np.errstate(invalid="ignore"):  # the floor of a signaling NaN
        whole = x == np.floor(x)  # below 10^16, exactly the values repr writes with fraction 0
    np.take(table, first + _FIRST_B + 10 * whole, out=words[5], mode="clip")
    first += _FIRST_A
    np.take(table, np.where(lead, _FIRST_A, first), out=words[0], mode="clip")
    text.view(np.uint32)[...] = words.T
    neg = (bits >> 63).astype(bool)
    code += neg * _NEG
    special = mag >= 0x7FF0000000000000  # nan, inf and -inf
    if special.any():
        nan = mag > 0x7FF0000000000000
        code[special] = np.where(nan, _NAN, _INF + neg)[special]
        text[special, _A : _A + 3] = np.where(nan[special, None], *np.frombuffer(b"naninf", np.uint8).reshape(2, 3))
    text.view(np.uint32)[...] &= np.take(masks, code, axis=0, mode="clip")


def _read_csv(
    path: str, what: str, expected: str, header_ok, n_used: int | None = None
):
    """Header and numeric body of a CSV input file.

    The file must be UTF-8 text.  Blank lines are skipped; every other row
    must be as wide as the header and its first ``n_used`` cells (all of
    them by default) finite numbers.  Errors name the file and the 1-based
    line.

    A file whose every column is read goes through numpy's tokenizer
    (``_load_numeric``); any other file, and any file that tokenizer
    rejects, is read by ``_scan_csv``, which raises every error.
    """
    if not os.path.isfile(path):
        raise MissingFile(f"{what} file not found: {path}")
    table = _load_numeric(path, header_ok, n_used)
    return _scan_csv(path, expected, header_ok, n_used) if table is None else table


def _load_numeric(path: str, header_ok, n_used: int | None):
    """``_read_csv``'s header and table through ``np.loadtxt``, or None
    where ``_scan_csv`` must read the file.

    numpy's converter and ``float`` both end in CPython's correctly rounded
    string-to-double, so a table numpy accepts has the scan's bits.  numpy
    reads less than ``float`` does (quoted cells, ``1_0``, non-ASCII
    digits); those files, an empty body, rows of another width, a cell
    that is not finite and text that is not UTF-8 go to the scan.  The one
    cell numpy reads and ``float`` refuses is a number next to an ASCII
    information separator (0x1C-0x1F): numpy strips these as whitespace,
    so a file holding one goes to the scan too."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if any(sep in raw for sep in _INFO_SEPARATORS):
        return None
    del raw
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            if not header or not header_ok(header) or n_used not in (None, len(header)):
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # numpy's "no data" on an empty body
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
    except (csv.Error, ValueError):  # UnicodeDecodeError is a ValueError
        return None
    if data.shape[1] != len(header) or not np.isfinite(data).all():
        return None
    return header, data


def _scan_csv(path: str, expected: str, header_ok, n_used: int | None):
    """``_read_csv`` row by row with ``csv.reader`` and ``float``: the
    reader of every file numpy's tokenizer does not take, and of every
    error message."""
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


def _median(x: np.ndarray) -> float:
    """``np.median`` of a nonempty 1-D float array without NaN, to the bit:
    the mean of the middle value or values, summed from 0.0 as np.mean sums
    (so a -0.0 middle gives 0.0).  It skips the ``numpy.ma`` import that
    np.median costs on its first call, and warns of no overflow."""
    half = x.size // 2
    if x.size % 2:
        return 0.0 + np.partition(x, half)[half].item()
    lo, hi = np.partition(x, (half - 1, half))[half - 1 : half + 1].tolist()
    return (0.0 + lo + hi) / 2


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
    dt = _median(dts)
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
