"""Seeded input generators for the superlimb benchmark.

Everything the program receives is built here from the benchmark's own
templates, numpy RNG and numpy filters, so a change to the program cannot
change its inputs.  The same (seed, size) always gives byte-identical files.

Work per round is fixed by the size preset; the seed only varies values
that do not change how much work a unit is (stiffness level, sweep
amplitude and speed, panel mass, sEMG seed, posture offsets, signal
content).  That keeps runs with different seeds comparable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

GRAVITY = 9.81

WORKLOADS = ("sweep_study", "inverse_hold", "emg_replay", "stability_grid")

#: Size presets.  "full" is what the benchmark measures; "smoke" is a tiny
#: size that exercises every code path in seconds (used by selftest.py).
SIZES = {
    "full": {
        "time_scale": 0.125,    # multiplies template durations and EMG timing
        "inverse_scale": 0.25,  # multiplies the inverse template's 16 s horizon
        "emg_seconds": 10.0,    # length of each synthesized recording
        "sweep_rounds": 8,      # distinct rounds generated, cycled when measuring
        "inverse_units": 8,
        "stability_rounds": 32,
        "setup_reps": 5,        # fresh interpreters timed for setup_s
        "cli_reps": 3,          # fresh CLI processes timed for cli_wall_s
    },
    "smoke": {
        "time_scale": 0.05,
        "inverse_scale": 0.05,
        "emg_seconds": 2.0,
        "sweep_rounds": 1,
        "inverse_units": 1,
        "stability_rounds": 1,
        "setup_reps": 1,
        "cli_reps": 1,
    },
}

#: (channels, sampling rate) of the recordings in one emg_replay round.
#: Channel count moves work between per-channel filtering and the single
#: averaged activation loop; sampling rate moves the row count.
EMG_SLOTS = ((1, 1000.0), (2, 2000.0), (3, 1000.0), (4, 2000.0))

#: rng stream index of the short warm-up units (rounds are far fewer)
WARMUP_ROUND = 10_000

POSTURES = ("column", "hanging_panel", "inverted_panel", "cradle", "toggle_mount")

SIM_SECONDS = {
    "overhead_sweep": 8.0,
    "press_friction": 12.0,
    "emg_step": 8.0,
    "overhead_inverse": 16.0,
}


def rng_for(seed: int, workload: str, index: int) -> np.random.Generator:
    """Independent stream per (seed, workload, round)."""
    entropy = [seed & 0xFFFFFFFFFFFFFFFF, WORKLOADS.index(workload), index]
    return np.random.default_rng(np.random.SeedSequence(entropy))


# --- scenario templates (copies of the bundled forward/inverse scenarios) ------


def _desk_arm_plant() -> dict:
    return {
        "gravity": GRAVITY,
        "chains": [
            {
                "name": "arm", "role": "srl", "base": [0.0, 0.0], "heading": 1.0,
                "joints": [
                    {"kind": "revolute", "mass": 1.5, "length": 0.35, "com": 0.17,
                     "inertia": 0.015, "q0": 0.3},
                    {"kind": "revolute", "mass": 1.0, "length": 0.3, "com": 0.15,
                     "inertia": 0.008, "q0": -0.5},
                    {"kind": "revolute", "mass": 0.6, "length": 0.25, "com": 0.12,
                     "inertia": 0.004, "q0": 0.4},
                ],
            },
            _trunk(),
        ],
    }


def _trunk() -> dict:
    return {
        "name": "trunk", "role": "human", "base": [-0.3, 0.0],
        "heading": 1.5707963267948966,
        "joints": [{"kind": "prismatic", "mass": 55.0, "length": 0.0, "com": 0.0,
                    "q0": 0.0}],
    }


def _press_plant() -> dict:
    return {
        "gravity": GRAVITY,
        "chains": [
            {
                "name": "press", "role": "srl", "base": [0.0, 0.0], "heading": 0.0,
                "joints": [
                    {"kind": "prismatic", "mass": 2.0, "length": 0.0, "com": 0.0,
                     "axis": 0.0, "q0": 0.0},
                    {"kind": "prismatic", "mass": 1.5, "length": 0.0, "com": 0.0,
                     "axis": 1.5707963267948966, "q0": 0.4},
                ],
            },
            _trunk(),
        ],
    }


def template(name: str) -> dict:
    """A fresh copy of one scenario template."""
    static = {"chain": "arm", "directions": ["z"], "motion": {"type": "static"}}
    sweep = {"type": "triangle", "axis": "z", "amplitude": 0.02, "speed": 0.02}
    if name == "overhead_sweep":
        return {
            "plant": _desk_arm_plant(),
            "contact": {"chain": "arm", "directions": ["z"], "motion": sweep},
            "controller": {"level": 1, "panel_mass": 3.0, "damping": [40.0, 8.0]},
            "sim": {"dt": 0.005, "duration": 8.0, "seed": 1},
        }
    if name == "press_friction":
        return {
            "plant": _press_plant(),
            "contact": {"chain": "press", "directions": ["z"], "motion": sweep},
            "controller": {"level": 2, "panel_mass": 3.0,
                           "friction": {"coulomb": [0.6, 0.8], "viscous": 0.0}},
            "sim": {"dt": 0.005, "duration": 12.0, "seed": 1},
        }
    if name == "emg_step":
        return {
            "plant": _desk_arm_plant(),
            "contact": static,
            "controller": {"level": 3, "panel_mass": 3.0, "damping": [40.0, 8.0]},
            "emg": {
                "profile": {"fs": 1000.0, "duration": 8.0,
                            "steps": [[0.0, 0.0], [2.0, 1.0]]},
                "seed": 42, "gain": 0.0002, "hill": {"f_max": 300.0},
                "threshold": 0.3, "hysteresis": 0.05,
                "motion": {"steps": [[0.0, 0.0], [1.5, 0.35]]},
            },
            "sim": {"dt": 0.005, "duration": 8.0, "seed": 11},
        }
    if name == "overhead_inverse":
        return {
            "plant": _desk_arm_plant(),
            "contact": static,
            "controller": {"level": 2, "panel_mass": 3.0},
            "human_motion": {"type": "sine", "amplitude": [0.03], "frequency": 0.5},
            "sim": {"dt": 0.005, "duration": 16.0, "mode": "inverse-dynamics",
                    "seed": 0},
        }
    raise KeyError(name)


def _offset_posture(data: dict, rng: np.random.Generator):
    """Small seeded offsets of the limb's initial joint values."""
    for chain in data["plant"]["chains"]:
        if chain["role"] != "srl":
            continue
        for joint in chain["joints"]:
            span = 0.03 if joint["kind"] == "revolute" else 0.01
            joint["q0"] = joint.get("q0", 0.0) + float(rng.uniform(-span, span))


def sweep_variant(name: str, rng: np.random.Generator, time_scale: float) -> dict:
    """One seeded forward-mode run derived from a template."""
    data = template(name)
    ctrl = data["controller"]
    ctrl["level"] = int(rng.integers(1, 5))
    ctrl["panel_mass"] = float(rng.uniform(2.0, 4.0))
    _offset_posture(data, rng)
    duration = SIM_SECONDS[name] * time_scale
    data["sim"]["duration"] = duration
    if name in ("overhead_sweep", "press_friction"):
        motion = data["contact"]["motion"]
        motion["amplitude"] = float(rng.uniform(0.015, 0.025))
        motion["speed"] = float(rng.uniform(0.015, 0.025))
    if name == "emg_step":
        emg = data["emg"]
        emg["seed"] = int(rng.integers(0, 2**31))
        t_gate = float(rng.uniform(1.0, 2.0)) * time_scale
        t_act = float(rng.uniform(1.5, 3.0)) * time_scale
        emg["motion"] = {"steps": [[0.0, 0.0],
                                   [t_gate, float(rng.uniform(0.32, 0.45))]]}
        emg["profile"] = {"fs": 1000.0, "duration": duration,
                          "steps": [[0.0, 0.0], [t_act, float(rng.uniform(0.6, 1.0))]]}
    return data


def inverse_variant(rng: np.random.Generator, time_scale: float) -> dict:
    data = template("overhead_inverse")
    data["controller"]["level"] = int(rng.integers(1, 5))
    data["human_motion"] = {
        "type": "sine",
        "amplitude": [float(rng.uniform(0.02, 0.04))],
        "frequency": float(rng.uniform(0.3, 0.7)),
        "phase": float(rng.uniform(0.0, 2.0 * math.pi)),
    }
    data["sim"]["duration"] = SIM_SECONDS["overhead_inverse"] * time_scale
    return data


def posture_variant(name: str, rng: np.random.Generator) -> dict:
    """One grid point: posture parameters plus the requested servo margin."""
    return {
        "stability": {
            "posture": name,
            "mass": float(rng.uniform(2.0, 6.0)),
            "k": float(rng.uniform(200.0, 800.0)),
            "r": float(rng.uniform(0.1, 0.5)),
            "gamma": float(rng.uniform(0.2, 1.0)),
        },
        "servo_margin": float(rng.uniform(0.5, 5.0)),
    }


# --- synthetic sEMG (numpy only; independent of superlimb.generate_emg) --------


def _segments(rng, duration: float, lo: float, hi: float) -> np.ndarray:
    """Boundaries of consecutive segments with seeded lengths in [lo, hi)."""
    edges = [0.0]
    while edges[-1] < duration:
        edges.append(edges[-1] + float(rng.uniform(lo, hi)))
    return np.array(edges)


def emg_recording(rng, channels: int, fs: float, seconds: float):
    """Band-limited (20-450 Hz) noise, amplitude-modulated by a seeded
    piecewise-constant activation schedule; samples in millivolts."""
    n = int(round(seconds * fs))
    t = np.arange(n) / fs
    scale = seconds / 60.0
    edges = _segments(rng, seconds, 1.0 * scale, 4.0 * scale)
    levels = rng.uniform(0.0, 1.0, edges.size)
    level = levels[np.searchsorted(edges, t, side="right") - 1]
    white = rng.standard_normal((channels, n))
    spec = np.fft.rfft(white, axis=1)
    freq = np.fft.rfftfreq(n, 1.0 / fs)
    spec[:, (freq < 20.0) | (freq > 450.0)] = 0.0
    carrier = np.fft.irfft(spec, n=n, axis=1)
    carrier /= carrier.std(axis=1, keepdims=True)
    gains = rng.uniform(0.3, 1.2, channels)
    return t, carrier * level * gains[:, None]


def yaw_stream(rng, seconds: float, rate: float = 100.0):
    """Shank yaw at `rate` Hz alternating between rest (|yaw| <= 0.2 rad)
    and turned (|yaw| >= 0.35 rad), so the 0.3 rad gate opens and closes."""
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    scale = seconds / 60.0
    edges = _segments(rng, seconds, 2.0 * scale, 6.0 * scale)
    seg = np.searchsorted(edges, t, side="right") - 1
    base = np.where(
        np.arange(edges.size) % 2 == 0,
        rng.uniform(-0.15, 0.15, edges.size),
        rng.choice([-1.0, 1.0], edges.size) * rng.uniform(0.38, 0.6, edges.size),
    )
    yaw = base[seg] + rng.uniform(-0.02, 0.02, n)
    return t, yaw


def write_csv(path: str, header: str, columns, fmts):
    """Rows formatted with fixed printf formats, written in chunks."""
    fmt = ",".join(fmts) + "\n"
    rows = np.column_stack(columns).tolist()
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(rows), 8192):
            fh.write("".join(fmt % tuple(r) for r in rows[lo:lo + 8192]))


def write_json(path: str, data: dict):
    with open(path, "w", newline="") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")


def digest(paths) -> str:
    """SHA-256 over the names and bytes of the given files."""
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(os.path.basename(p).encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
