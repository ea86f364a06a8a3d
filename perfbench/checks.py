"""Output checks that feed `failed` / `fail_ratio`.

Each check compares the program's output with something the benchmark
computes on its own from the inputs it generated: closed forms, the
scripted motion, an independent moving RMS.  Each holds at the commit
that introduced the benchmark and stays true under any change that keeps
the physics (tolerances are stated next to each check).  A check returns a
list of failure messages; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import butter, filtfilt

from inputs import GRAVITY

#: triangle-sweep tracking: the velocity-level contact solve lets the
#: supported point drift (up to about 1.2 mm over a full 8 s sweep when
#: the benchmark was written); a drift fix only makes this smaller.
TRIANGLE_TOL_M = 3e-3
#: finite-difference stiffness assembly vs the closed-form eigenvalues
#: (observed about 1e-9 relative)
EIG_RTOL = 1e-6
#: bisection bracket of stabilizing_servo_stiffness is 1e-6
ALPHA_TOL = 1e-5
#: envelope vs the independent moving RMS, relative to its peak
ENVELOPE_RTOL = 1e-6


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _finite(data: np.ndarray) -> list[str]:
    return [] if np.all(np.isfinite(data)) else ["non-finite value in output"]


# --- simulator logs -----------------------------------------------------------


def check_sim_log(path: str, spec: dict) -> list[str]:
    """`spec` is the scenario dict the run was given, plus its template
    name under "template"."""
    header, data = read_csv(path)
    col = {name: data[:, i] for i, name in enumerate(header)}
    fails = _finite(data)
    dt = spec["sim"]["dt"]
    n_steps = int(round(spec["sim"]["duration"] / dt))
    if data.shape[0] != n_steps:
        fails.append(f"{data.shape[0]} log rows, expected {n_steps}")
        return fails
    if np.any((col["a"] < 0.0) | (col["a"] > 1.0)):
        fails.append("activation outside [0, 1]")
    kind = spec["template"]
    if kind in ("overhead_sweep", "press_friction"):
        fails += _check_triangle(col, spec["contact"]["motion"], dt)
    elif kind == "emg_step":
        fails += _check_gate_static(col, spec)
    elif kind == "overhead_inverse":
        fails += _check_inverse(col, spec)
    return fails


def _check_triangle(col, motion, dt) -> list[str]:
    """The supported point follows the scripted triangle path."""
    amp, speed = motion["amplitude"], motion["speed"]
    quarter = amp / speed
    phase = np.mod(col["t"], 4.0 * quarter)
    v = np.where((phase < quarter) | (phase >= 3.0 * quarter), speed, -speed)
    path = np.concatenate([[0.0], np.cumsum(v * dt)[:-1]])
    dev = float(np.max(np.abs(col["x_z"] - col["x_z"][0] - path)))
    if dev > TRIANGLE_TOL_M:
        return [f"contact point off its triangle path by {dev * 1e3:.3f} mm"]
    return []


def _check_gate_static(col, spec) -> list[str]:
    """Gate off: no equilibrium shift, and the static hold carries exactly
    the panel weight."""
    fails = []
    off = col["gate"] == 0
    for c in ("x_eq_x", "x_eq_z"):
        if np.any(col[c][off] != col[c][0]):
            fails.append(f"{c} moved while the gate was off")
    first_on = int(np.argmax(~off)) if np.any(~off) else off.size
    if first_on == 0:
        return fails + ["gate open from the first step"]
    weight = spec["controller"]["panel_mass"] * GRAVITY
    mean = float(np.mean(col["lambda_z"][:first_on]))
    if abs(mean - weight) > 1e-9 * weight:
        fails.append(f"static support force {mean!r} N, panel weight {weight!r} N")
    return fails


def _check_inverse(col, spec) -> list[str]:
    """Limb posture held exactly; the trunk needs m (g + z'') for the
    scripted sway."""
    fails = []
    for name, c in col.items():
        if name.startswith("q_s") and np.any(c != c[0]):
            fails.append(f"{name} moved in inverse-dynamics mode")
    mass = spec["plant"]["chains"][1]["joints"][0]["mass"]
    hm = spec["human_motion"]
    w = 2.0 * math.pi * hm["frequency"]
    zdd = -hm["amplitude"][0] * w * w * np.sin(w * col["t"] + hm["phase"])
    err = float(np.max(np.abs(col["tau_h0"] - mass * (GRAVITY + zdd))))
    if err > 1e-9 * mass * GRAVITY:
        fails.append(f"trunk force off m(g + z'') by {err:.3e} N")
    return fails


# --- sEMG pipeline ------------------------------------------------------------


def moving_rms_envelope(t: np.ndarray, channels: np.ndarray,
                        band=(20.0, 450.0), window=0.1) -> np.ndarray:
    """Channel-averaged causal moving-RMS envelope of the band-passed,
    rectified trace (partial windows at the start), by convolution."""
    fs = 1.0 / float(np.median(np.diff(t)))
    n = int(round(window * fs))
    b, a = butter(1, list(band), btype="bandpass", fs=fs)
    counts = np.minimum(np.arange(1, t.size + 1), n)
    envs = []
    for x in channels:
        sq = filtfilt(b, a, x) ** 2
        envs.append(np.sqrt(np.convolve(sq, np.ones(n))[: t.size] / counts))
    return np.mean(envs, axis=0)


def check_pipeline(path: str, trace_t: np.ndarray, trace_ch: np.ndarray,
                   f_max: float = 300.0, gain: float = 1e-4) -> list[str]:
    header, data = read_csv(path)
    expected = ["t", "envelope", "activation", "force_n", "gate", "dxeq_m"]
    if header != expected:
        return [f"pipeline header {header}"]
    fails = _finite(data)
    if data.shape[0] != trace_t.size:
        return fails + [f"{data.shape[0]} rows for {trace_t.size} samples"]
    t, env, act, force, gate, dxeq = data.T
    if np.max(np.abs(t - trace_t)) > 1e-9 * max(1.0, float(trace_t[-1])):
        fails.append("time column differs from the trace")
    if np.any((act < 0.0) | (act > 1.0)):
        fails.append("activation outside [0, 1]")
    if np.any(np.abs(force - act * f_max) > 1e-9 * f_max):
        fails.append("force is not activation x f_max")
    if not np.all((gate == 0.0) | (gate == 1.0)):
        fails.append("gate not boolean")
    if np.any(dxeq[gate == 0.0] != 0.0):
        fails.append("equilibrium shift while the gate was off")
    if np.any(np.abs(dxeq[gate == 1.0] - gain * force[gate == 1.0]) > 1e-12):
        fails.append("equilibrium shift is not gain x force")
    ref = moving_rms_envelope(trace_t, trace_ch)
    err = float(np.max(np.abs(env - ref)))
    if err > ENVELOPE_RTOL * max(float(np.max(ref)), 1e-12):
        fails.append(f"envelope off the independent moving RMS by {err:.3e}")
    return fails


# --- stability certificate ------------------------------------------------------


def closed_form(section: dict) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues of K_p, diagonal of the servo-free base stiffness) of a
    named posture at its equilibrium, where every named posture has J = I."""
    name = section["posture"]
    m, k, r, gamma = section["mass"], section["k"], section["r"], section["gamma"]
    mg = m * GRAVITY
    if name == "column":
        kp, base = [k, k, k, 0.2 * k, 0.2 * k, 0.2 * k], [0.0] * 6
    elif name == "hanging_panel":
        kp = [k, k, k, 1.0 + mg * r, 1.0 + mg * r, 1.0]
        base = [0.0, 0.0, 0.0, mg * r, mg * r, 0.0]
    elif name == "inverted_panel":
        kp = [k, k, k, -mg * r, -mg * r, 0.0]
        base = [0.0, 0.0, 0.0, -mg * r, -mg * r, 0.0]
    elif name == "cradle":
        curv = mg * 2.0 / r
        kp = [0.01 * k + curv] * 2 + [0.01 * k] * 4
        base = [curv, curv, 0.0, 0.0, 0.0, 0.0]
    elif name == "toggle_mount":
        kp = [k, k, k, 2.0 - 2.0 * gamma * mg, 2.0 - 2.0 * gamma * mg, 2.0]
        base = [0.0, 0.0, 0.0, -2.0 * gamma * mg, -2.0 * gamma * mg, 0.0]
    else:
        raise KeyError(name)
    return np.sort(kp), np.array(base)


def check_certificate(section: dict, margin: float, eigenvalues, is_stable: bool,
                      cert_margin: float, mismatch: bool, alpha: float) -> list[str]:
    fails = []
    kp, base = closed_form(section)
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    scale = max(1.0, float(np.max(np.abs(kp))))
    if ev.shape != kp.shape or np.max(np.abs(ev - kp)) > EIG_RTOL * scale:
        fails.append(f"eigenvalues {ev.tolist()} != closed form {kp.tolist()}")
    if abs(cert_margin - ev[0]) > EIG_RTOL * scale:
        fails.append("margin is not the smallest eigenvalue")
    if is_stable != bool(kp[0] >= -EIG_RTOL * scale):
        fails.append(f"is_stable={is_stable} for min eigenvalue {kp[0]!r}")
    if mismatch:
        fails.append("diagnostic mismatch at an exact equilibrium")
    reached = float(np.linalg.eigvalsh(np.diag(base) + alpha * np.eye(base.size))[0])
    if reached < margin - ALPHA_TOL * scale:
        fails.append(f"servo alpha {alpha!r} reaches margin {reached!r} < {margin!r}")
    minimal = margin - float(np.min(base))
    if abs(alpha - minimal) > ALPHA_TOL * max(1.0, minimal):
        fails.append(f"servo alpha {alpha!r} is not minimal ({minimal!r})")
    return fails


def parse_stability_stdout(text: str) -> dict:
    """key=value lines printed by `superlimb-sim analyze-stability`."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out
