"""Scenario configuration: JSON schema, validation and defaults.

A scenario file is JSON with sections ``plant`` and ``sim`` (required) and
``contact``, ``controller``, ``emg``, ``human_motion`` (optional, defaults
applied).  Parsing is strict: an unknown key in any section is an error,
every error names the offending key with a dotted path, and files
referenced by a scenario are resolved relative to the scenario file and
loaded eagerly so missing inputs fail at load time, not mid-run.

It also builds the named support postures of ``stability.POSTURES`` from
a stability-analysis config section.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import ContactSpec
from .emg import (
    DEFAULT_BAND,
    DEFAULT_FS,
    DEFAULT_WINDOW,
    EmgTrace,
    HillParams,
    load_motion_csv,
    load_trace_csv,
)
from .errors import MissingFile, ParseError, SuperlimbError, ValidationError
from .plant import AXES, GRAVITY, Chain, Joint, PlantModel
from .stability import POSTURES, SupportPosture
from .stiffness import FrictionModel, default_stiffness_table

_REQUIRED = object()


def _get(section: dict, key: str, path: str, default=_REQUIRED, parse=None):
    """``section[key]``, checked by ``parse(value, dotted_path)`` if given;
    the default (taken as is) when the key is absent."""
    if key in section:
        return parse(section[key], f"{path}.{key}") if parse else section[key]
    if default is _REQUIRED:
        raise ParseError(f"{path}.{key}", "required key missing")
    return default


def _num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(path, f"must be a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ParseError(path, "must be finite")
    return v


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(path, f"must be an integer, got {value!r}")
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(path, f"must be true/false, got {value!r}")
    return value


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError(path, f"must be a string, got {value!r}")
    return value


def _dict(value, path: str, keys: tuple[str, ...]) -> dict:
    """``value`` checked to be an object that uses no key but ``keys``."""
    if not isinstance(value, dict):
        raise ParseError(path, f"must be an object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ParseError(f"{path}.{unknown[0]}", "unknown key")
    return value


def _num_list(value, path: str, length: int | None = None) -> np.ndarray:
    if not isinstance(value, list):
        raise ParseError(path, f"must be a list of numbers, got {value!r}")
    out = np.array([_num(v, f"{path}[{i}]") for i, v in enumerate(value)])
    if length is not None and out.size != length:
        raise ParseError(path, f"must have {length} entries, got {out.size}")
    return out


def _axes(value, path: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise ParseError(path, "must be a list")
    for i, a in enumerate(value):
        if a not in AXES:
            raise ParseError(f"{path}[{i}]", f"must be one of {AXES}")
    return tuple(value)


def _pairs(value, path: str) -> np.ndarray:
    """``(n, 2)`` array from a list of number pairs."""
    if not isinstance(value, list):
        raise ParseError(path, "must be a list")
    return np.array(
        [_num_list(s, f"{path}[{i}]", 2) for i, s in enumerate(value)]
    ).reshape(-1, 2)


# --- section dataclasses ------------------------------------------------------


@dataclass(frozen=True)
class SimParams:
    dt: float
    duration: float
    mode: str = "tracking"
    seed: int = 0

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


@dataclass(frozen=True)
class ContactMotion:
    """Scripted motion of the support point along one constrained axis.

    ``triangle`` sweeps the axis target at constant speed between
    -amplitude and +amplitude around the initial position (a slow sweep
    keeps the run quasi-static); ``static`` pins the point.
    """

    kind: str = "static"
    axis: str = "z"
    amplitude: float = 0.02
    speed: float = 0.02

    def velocity(self, t: float) -> float:
        """Signed axis target velocity at time t (starts rising)."""
        if self.kind == "static":
            return 0.0
        quarter = self.amplitude / self.speed
        phase = t % (4.0 * quarter)
        if phase < quarter or phase >= 3.0 * quarter:
            return self.speed
        return -self.speed


@dataclass(frozen=True)
class ContactConfig:
    spec: ContactSpec
    motion: ContactMotion = ContactMotion()


@dataclass(frozen=True)
class ControllerConfig:
    """Task-space stiffness controller setup for the SRL chain."""

    enabled: bool
    chain: str
    joint: int | None
    components: tuple[str, ...]
    table: tuple[np.ndarray, ...]
    level: int
    x_eq: np.ndarray | None  # None = take the initial task position
    f_gravity: np.ndarray
    damping: np.ndarray | None
    gravity_compensation: bool
    friction: FrictionModel | None


@dataclass(frozen=True)
class EmgConfig:
    enabled: bool
    trace: EmgTrace | None = None
    profile: "ActivationProfile | None" = None
    seed: int = 0
    hill: HillParams = field(default_factory=HillParams)
    threshold: float = 0.3
    hysteresis: float = 0.05
    gain: float = 1e-4
    motion: tuple[np.ndarray, np.ndarray] | None = None
    band: tuple[float, float] = DEFAULT_BAND
    window: float = DEFAULT_WINDOW


@dataclass(frozen=True)
class ActivationProfile:
    """Piecewise-constant activation schedule for synthetic sEMG."""

    fs: float
    duration: float
    steps: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not (0.0 < self.fs < math.inf):
            raise ValidationError(f"fs must be finite and positive, got {self.fs}")
        if not (0.0 < self.duration < math.inf):
            raise ValidationError(f"duration must be finite and positive, got {self.duration}")
        if not self.steps:
            raise ValidationError("steps must not be empty")
        prev = -math.inf
        for i, (t, level) in enumerate(self.steps):
            if t < prev:
                raise ValidationError(f"steps[{i}]: times must be nondecreasing")
            prev = t
            if not (0.0 <= level <= 1.0):
                raise ValidationError(
                    f"steps[{i}]: level must be in [0,1], got {level}"
                )

    def sample(self, t: np.ndarray) -> np.ndarray:
        times = np.array([s[0] for s in self.steps])
        levels = np.array([s[1] for s in self.steps])
        idx = np.searchsorted(times, t, side="right") - 1
        return np.where(idx >= 0, levels[np.clip(idx, 0, levels.size - 1)], 0.0)


@dataclass(frozen=True)
class HumanMotion:
    """Scripted joint trajectory of the position-driven human sub-chain."""

    kind: str = "static"
    amplitude: np.ndarray | None = None
    frequency: float = 0.5
    phase: float = 0.0

    def offsets(self, t: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dq, dqdot, dqddot) relative to the rest posture at time t."""
        if self.kind == "static" or self.amplitude is None:
            return np.zeros(n), np.zeros(n), np.zeros(n)
        w = 2.0 * math.pi * self.frequency
        s = math.sin(w * t + self.phase)
        c = math.cos(w * t + self.phase)
        a = self.amplitude
        return a * s, a * w * c, -a * w * w * s


@dataclass(frozen=True)
class Scenario:
    model: PlantModel
    sim: SimParams
    controller: ControllerConfig
    contact: ContactConfig | None = None
    emg: EmgConfig = field(default_factory=lambda: EmgConfig(enabled=False))
    human_motion: HumanMotion = field(default_factory=HumanMotion)


# --- parsing ------------------------------------------------------------------

_HILL_KEYS = tuple(f.name for f in fields(HillParams))


def _parse_joint(data, path: str) -> Joint:
    d = _dict(data, path, ("kind", "mass", "length", "com", "inertia", "rotor", "axis", "q0"))
    kind = _get(d, "kind", path)
    mass = _get(d, "mass", path, parse=_num)
    length = _get(d, "length", path, parse=_num)
    com = _get(d, "com", path, default=length / 2.0, parse=_num)
    inertia = _get(d, "inertia", path, default=0.0, parse=_num)
    rotor = _get(d, "rotor", path, default=0.0, parse=_num)
    axis = _get(d, "axis", path, default=0.0, parse=_num)
    q0 = _get(d, "q0", path, default=0.0, parse=_num)
    try:
        return Joint(
            kind=kind, mass=mass, length=length, com=com,
            inertia=inertia, rotor=rotor, axis=axis, q0=q0,
        )
    except SuperlimbError as exc:
        raise ParseError(path, str(exc)) from exc


def _parse_chain(data, path: str) -> Chain:
    d = _dict(data, path, ("name", "role", "base", "heading", "joints"))
    name = _get(d, "name", path, parse=_str)
    role = _get(d, "role", path, default="srl")
    base = _num_list(_get(d, "base", path, default=[0.0, 0.0]), f"{path}.base", 2)
    heading = _get(d, "heading", path, default=0.0, parse=_num)
    joints_raw = _get(d, "joints", path)
    if not isinstance(joints_raw, list):
        raise ParseError(f"{path}.joints", "must be a list")
    joints = tuple(
        _parse_joint(j, f"{path}.joints[{i}]") for i, j in enumerate(joints_raw)
    )
    try:
        return Chain(
            name=name, joints=joints, base=(base[0], base[1]),
            heading=heading, role=role,
        )
    except SuperlimbError as exc:
        raise ParseError(path, str(exc)) from exc


def _parse_plant(data, path: str = "plant") -> PlantModel:
    d = _dict(data, path, ("gravity", "chains"))
    gravity = _get(d, "gravity", path, default=GRAVITY, parse=_num)
    chains_raw = _get(d, "chains", path)
    if not isinstance(chains_raw, list):
        raise ParseError(f"{path}.chains", "must be a list")
    chains = tuple(
        _parse_chain(c, f"{path}.chains[{i}]") for i, c in enumerate(chains_raw)
    )
    try:
        return PlantModel(chains=chains, gravity=gravity)
    except SuperlimbError as exc:
        raise ParseError(path, str(exc)) from exc


def _parse_sim(data, path: str = "sim") -> SimParams:
    d = _dict(data, path, ("dt", "duration", "mode", "seed"))
    dt = _get(d, "dt", path, parse=_num)
    if dt <= 0.0:
        raise ParseError(f"{path}.dt", "must be positive")
    if dt > 0.01:
        raise ParseError(f"{path}.dt", "must be <= 0.01 s")
    duration = _get(d, "duration", path, parse=_num)
    if duration < 0.0:
        raise ParseError(f"{path}.duration", "must be >= 0")
    mode = _get(d, "mode", path, default="tracking", parse=_str)
    if mode not in ("tracking", "inverse-dynamics"):
        raise ParseError(f"{path}.mode", "must be 'tracking' or 'inverse-dynamics'")
    seed = _get(d, "seed", path, default=0, parse=_int)
    if seed < 0:
        raise ParseError(f"{path}.seed", "must be >= 0")
    return SimParams(dt=dt, duration=duration, mode=mode, seed=seed)


def _parse_contact(data, model: PlantModel, path: str = "contact") -> ContactConfig:
    d = _dict(data, path, ("chain", "joint", "directions", "motion"))
    chain = _get(d, "chain", path, parse=_str)
    if chain not in [c.name for c in model.chains]:
        raise ParseError(f"{path}.chain", f"unknown chain {chain!r}")
    joint = _get(d, "joint", path, default=None)
    if joint is not None:
        joint = _int(joint, f"{path}.joint")
    dirs = _get(d, "directions", path, default=("z",), parse=_axes)
    if len(set(dirs)) != len(dirs):
        raise ParseError(f"{path}.directions", "directions must be distinct")
    try:
        spec = ContactSpec(chain=chain, directions=dirs, joint=joint)
    except SuperlimbError as exc:
        raise ParseError(path, str(exc)) from exc
    motion = ContactMotion()
    if "motion" in d:
        m_path = f"{path}.motion"
        md = _dict(d["motion"], m_path, ("type", "axis", "amplitude", "speed"))
        kind = _get(md, "type", m_path, parse=_str)
        if kind not in ("static", "triangle"):
            raise ParseError(f"{m_path}.type", "must be 'static' or 'triangle'")
        if kind == "triangle":
            axis = _get(md, "axis", m_path, default="z", parse=_str)
            if axis not in spec.directions:
                raise ParseError(
                    f"{m_path}.axis",
                    f"must be one of the constrained directions {spec.directions}",
                )
            amplitude = _get(md, "amplitude", m_path, default=0.02, parse=_num)
            speed = _get(md, "speed", m_path, default=0.02, parse=_num)
            if amplitude <= 0.0:
                raise ParseError(f"{m_path}.amplitude", "must be positive")
            if speed <= 0.0:
                raise ParseError(f"{m_path}.speed", "must be positive")
            motion = ContactMotion(
                kind="triangle", axis=axis, amplitude=amplitude, speed=speed
            )
    return ContactConfig(spec=spec, motion=motion)


def _parse_controller(
    data, model: PlantModel, path: str = "controller"
) -> ControllerConfig:
    d = _dict(data, path, (
        "enabled", "chain", "joint", "components", "stiffness_table", "level", "x_eq",
        "f_gravity", "panel_mass", "damping", "gravity_compensation", "friction",
    ))
    enabled = _get(d, "enabled", path, default=True, parse=_bool)
    names = [c.name for c in model.chains]
    srl = [c.name for c in model.chains if c.role == "srl"]
    chain = _get(d, "chain", path, default=(srl or names)[0], parse=_str)
    if chain not in names:
        raise ParseError(f"{path}.chain", f"unknown chain {chain!r}")
    joint = _get(d, "joint", path, default=None)
    if joint is not None:
        joint = _int(joint, f"{path}.joint")
    comps = _get(d, "components", path, default=AXES, parse=_axes)
    if not comps:
        raise ParseError(f"{path}.components", "must not be empty")
    m = len(comps)

    if "stiffness_table" in d:
        tab_raw = d["stiffness_table"]
        if not isinstance(tab_raw, list) or len(tab_raw) != 4:
            raise ParseError(f"{path}.stiffness_table", "must list exactly 4 levels")
        entries = []
        for i, row in enumerate(tab_raw):
            row_path = f"{path}.stiffness_table[{i}]"
            if isinstance(row, list) and row and isinstance(row[0], list):
                # full matrix: list of rows
                k = np.array(
                    [list(_num_list(r, f"{row_path}[{j}]", m)) for j, r in enumerate(row)]
                )
                if k.shape != (m, m):
                    raise ParseError(row_path, f"matrix must be {m}x{m}")
            else:
                # per-direction diagonal entries
                k = np.diag(_num_list(row, row_path, m))
            entries.append(k)
        table = tuple(entries)
    else:
        table = default_stiffness_table(m)
    level = _get(d, "level", path, default=1, parse=_int)
    if level not in (1, 2, 3, 4):
        raise ParseError(f"{path}.level", "must be in 1..4")

    x_eq_raw = _get(d, "x_eq", path, default="auto")
    if isinstance(x_eq_raw, str):
        if x_eq_raw != "auto":
            raise ParseError(f"{path}.x_eq", "must be 'auto' or a list of numbers")
        x_eq = None
    else:
        x_eq = _num_list(x_eq_raw, f"{path}.x_eq", m)

    if "f_gravity" in d and "panel_mass" in d:
        raise ParseError(
            f"{path}.f_gravity", "give either f_gravity or panel_mass, not both"
        )
    if "panel_mass" in d:
        pm = _num(d["panel_mass"], f"{path}.panel_mass")
        if pm < 0.0:
            raise ParseError(f"{path}.panel_mass", "must be >= 0")
        f_gravity = np.zeros(m)
        if "z" not in comps:
            raise ParseError(
                f"{path}.panel_mass", "needs a 'z' task component to act on"
            )
        f_gravity[comps.index("z")] = pm * model.gravity
    elif "f_gravity" in d:
        f_gravity = _num_list(d["f_gravity"], f"{path}.f_gravity", m)
    else:
        f_gravity = np.zeros(m)

    damping = None
    if d.get("damping") is not None:
        damping = _num_list(d["damping"], f"{path}.damping", m)
        if np.any(damping < 0.0):
            raise ParseError(f"{path}.damping", "entries must be >= 0")

    gravity_comp = _get(d, "gravity_compensation", path, default=True, parse=_bool)

    friction = None
    if d.get("friction") is not None:
        fd = _dict(d["friction"], f"{path}.friction", ("coulomb", "viscous", "breakaway_ratio"))
        n_s = len(model.srl_indices)

        def per_joint(value, key_path):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return np.full(n_s, float(value))
            return _num_list(value, key_path, n_s)

        f_path = f"{path}.friction"
        coulomb = _get(fd, "coulomb", f_path, parse=per_joint)
        viscous = _get(fd, "viscous", f_path, default=np.zeros(n_s), parse=per_joint)
        ratio = _get(fd, "breakaway_ratio", f_path, default=1.0, parse=_num)
        try:
            friction = FrictionModel(
                coulomb=coulomb, viscous=viscous, stiction_breakaway_ratio=ratio
            )
        except SuperlimbError as exc:
            raise ParseError(f"{path}.friction", str(exc)) from exc

    return ControllerConfig(
        enabled=enabled,
        chain=chain,
        joint=joint,
        components=comps,
        table=table,
        level=level,
        x_eq=x_eq,
        f_gravity=f_gravity,
        damping=damping,
        gravity_compensation=gravity_comp,
        friction=friction,
    )


def parse_profile(data, path: str = "profile") -> ActivationProfile:
    d = _dict(data, path, ("fs", "duration", "steps"))
    fs = _get(d, "fs", path, default=DEFAULT_FS, parse=_num)
    duration = _get(d, "duration", path, parse=_num)
    steps = tuple(map(tuple, _get(d, "steps", path, parse=_pairs).tolist()))
    try:
        return ActivationProfile(fs=fs, duration=duration, steps=steps)
    except SuperlimbError as exc:
        raise ParseError(path, str(exc)) from exc


def _parse_emg(data, base_dir: str, default_seed: int, path: str = "emg") -> EmgConfig:
    d = _dict(data, path, (
        "enabled", "trace", "profile", "seed", "hill", "threshold", "hysteresis", "gain",
        "motion", "band", "window",
    ))
    enabled = _get(d, "enabled", path, default=True, parse=_bool)
    if not enabled:
        return EmgConfig(enabled=False)

    has_trace = d.get("trace") is not None
    has_profile = d.get("profile") is not None
    if has_trace == has_profile:
        raise ParseError(path, "give exactly one of 'trace' or 'profile'")
    trace = None
    profile = None
    if has_trace:
        rel = _str(d["trace"], f"{path}.trace")
        trace = load_trace_csv(os.path.join(base_dir, rel))
    else:
        profile = parse_profile(d["profile"], f"{path}.profile")

    seed = _get(d, "seed", path, default=default_seed, parse=_int)
    if seed < 0:
        raise ParseError(f"{path}.seed", "must be >= 0")

    hd = _dict(d.get("hill", {}), f"{path}.hill", _HILL_KEYS)
    hill_kwargs = {key: _num(v, f"{path}.hill.{key}") for key, v in hd.items()}
    try:
        hill = HillParams(**hill_kwargs)
    except SuperlimbError as exc:
        raise ParseError(f"{path}.hill", str(exc)) from exc

    threshold = _get(d, "threshold", path, default=0.3, parse=_num)
    hysteresis = _get(d, "hysteresis", path, default=0.05, parse=_num)
    if not (threshold > hysteresis >= 0.0):
        raise ParseError(f"{path}.threshold", "need threshold > hysteresis >= 0")
    gain = _get(d, "gain", path, default=1e-4, parse=_num)
    if gain < 0.0:
        raise ParseError(f"{path}.gain", "must be >= 0")

    motion = None
    if d.get("motion") is not None:
        md = _dict(d["motion"], f"{path}.motion", ("file", "steps"))
        has_file = md.get("file") is not None
        has_steps = md.get("steps") is not None
        if has_file == has_steps:
            raise ParseError(f"{path}.motion", "give exactly one of 'file' or 'steps'")
        if has_file:
            motion = load_motion_csv(
                os.path.join(base_dir, _str(md["file"], f"{path}.motion.file"))
            )
        else:
            pairs = _pairs(md["steps"], f"{path}.motion.steps")
            if not pairs.size:
                raise ParseError(f"{path}.motion.steps", "must not be empty")
            if np.any(np.diff(pairs[:, 0]) < 0.0):
                raise ParseError(f"{path}.motion.steps", "times must be nondecreasing")
            motion = (pairs[:, 0], pairs[:, 1])

    band = DEFAULT_BAND
    if "band" in d:
        b = _num_list(d["band"], f"{path}.band", 2)
        band = (float(b[0]), float(b[1]))
    window = _get(d, "window", path, default=DEFAULT_WINDOW, parse=_num)
    if window <= 0.0:
        raise ParseError(f"{path}.window", "must be positive")

    return EmgConfig(
        enabled=True,
        trace=trace,
        profile=profile,
        seed=seed,
        hill=hill,
        threshold=threshold,
        hysteresis=hysteresis,
        gain=gain,
        motion=motion,
        band=band,
        window=window,
    )


def _parse_human_motion(data, model: PlantModel, path: str = "human_motion") -> HumanMotion:
    d = _dict(data, path, ("type", "amplitude", "frequency", "phase"))
    kind = _get(d, "type", path, parse=_str)
    if kind not in ("static", "sine"):
        raise ParseError(f"{path}.type", "must be 'static' or 'sine'")
    if kind == "static":
        return HumanMotion()
    n_h = len(model.human_indices)
    if n_h == 0:
        raise ParseError(path, "plant has no human chain to drive")
    amplitude = _num_list(_get(d, "amplitude", path), f"{path}.amplitude", n_h)
    frequency = _get(d, "frequency", path, default=0.5, parse=_num)
    if frequency <= 0.0:
        raise ParseError(f"{path}.frequency", "must be positive")
    phase = _get(d, "phase", path, default=0.0, parse=_num)
    return HumanMotion(kind="sine", amplitude=amplitude, frequency=frequency, phase=phase)


def parse_scenario(data: dict, base_dir: str = ".") -> Scenario:
    """Validate a scenario dictionary and assemble the runtime objects."""
    if not isinstance(data, dict):
        raise ParseError("(root)", "scenario must be a JSON object")
    unknown = set(data) - {"plant", "sim", "contact", "controller", "emg", "human_motion"}
    if unknown:
        raise ParseError(sorted(unknown)[0], "unknown section")
    model = _parse_plant(_get(data, "plant", "(root)"))
    sim = _parse_sim(_get(data, "sim", "(root)"))
    controller = _parse_controller(data.get("controller", {}), model)
    contact = (
        _parse_contact(data["contact"], model) if data.get("contact") is not None else None
    )
    emg = (
        _parse_emg(data["emg"], base_dir, sim.seed)
        if data.get("emg") is not None
        else EmgConfig(enabled=False)
    )
    human_motion = (
        _parse_human_motion(data["human_motion"], model)
        if data.get("human_motion") is not None
        else HumanMotion()
    )

    if emg.enabled:
        if not controller.enabled:
            raise ParseError("emg.enabled", "needs an enabled controller to act on")
        if "z" not in controller.components:
            raise ParseError(
                "emg.enabled", "needs a 'z' task component for the equilibrium shift"
            )
    if sim.mode == "inverse-dynamics" and contact is not None:
        if contact.motion.kind != "static":
            raise ParseError(
                "sim.mode", "inverse-dynamics mode supports static contacts only"
            )
    return Scenario(
        model=model,
        sim=sim,
        controller=controller,
        contact=contact,
        emg=emg,
        human_motion=human_motion,
    )


def _load_json(path: str, what: str):
    """Decoded contents of a JSON file; ``what`` names it in MissingFile."""
    if not os.path.isfile(path):
        raise MissingFile(f"{what} file not found: {path}")
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError("(root)", f"invalid JSON: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    """Load and validate a scenario JSON file."""
    data = _load_json(path, "scenario")
    return parse_scenario(data, base_dir=os.path.dirname(os.path.abspath(path)))


def load_profile(path: str) -> ActivationProfile:
    """Load an activation-profile JSON file (for synthetic sEMG)."""
    return parse_profile(_load_json(path, "profile"), "profile")


# --- named support postures for stability analysis ----------------------------


def build_posture(data: dict, path: str = "stability") -> SupportPosture:
    """Build a named posture from a config section."""
    d = _dict(data, path, ("posture", "mass", "k", "r", "gamma"))
    name = _get(d, "posture", path, parse=_str)
    if name not in POSTURES:
        raise ParseError(
            f"{path}.posture", f"unknown posture; choose from {sorted(POSTURES)}"
        )
    mass = _get(d, "mass", path, default=4.0, parse=_num)
    k = _get(d, "k", path, default=400.0, parse=_num)
    if k < 0.0:
        raise ParseError(f"{path}.k", "must be >= 0")
    r = _get(d, "r", path, default=0.3, parse=_num)
    if r <= 0.0:
        raise ParseError(f"{path}.r", "must be positive")
    gamma = _get(d, "gamma", path, default=0.5, parse=_num)
    try:
        return POSTURES[name](mass, k, r, gamma)
    except SuperlimbError as exc:
        raise ParseError(path, str(exc)) from exc


def load_posture(path: str) -> tuple[SupportPosture, dict]:
    """Load a stability-analysis config file; returns the posture and its
    ``stability`` section.  Keys beside that section are ignored."""
    data = _load_json(path, "config")
    if not isinstance(data, dict) or "stability" not in data:
        raise ParseError("stability", "required section missing")
    section = data["stability"]
    return build_posture(section), section
