"""Scenario configuration: JSON schema, validation and defaults.

A scenario file is JSON with sections ``plant`` and ``sim`` (required) and
``contact``, ``controller``, ``emg``, ``human_motion`` (optional, defaults
applied).  Parsing is strict: an unknown key in any section is an error,
every error names the offending key with a dotted path, and files
referenced by a scenario are resolved relative to the scenario file and
loaded eagerly so missing inputs fail at load time, not mid-run.

Each section has one schema, a table from its JSON keys to parsers that
check JSON types only; its defaults and invariants belong to the dataclass
it builds.  Rules that span sections stay in the section readers.

It also builds the named support postures of ``stability.POSTURES`` from
a stability-analysis config section.
"""

from __future__ import annotations

import inspect
import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from functools import cache
from operator import mul

import numpy as np

from . import dynamics
from .dynamics import DEPENDENT_CONTACTS, ContactSpec, contact_jacobian
from .emg import (
    ActivationProfile,
    EmgConfig,
    HillParams,
    load_motion_csv,
    load_trace_csv,
)
from .errors import (BadModel, MissingFile, ParseError, RankDeficient, SuperlimbError,
                     ValidationError)
from .numerics import GRAM_PIVOT_RTOL, spd_solve
from .plant import AXES, REVOLUTE, Chain, Joint, PlantModel
from .stability import SupportPosture, named_posture
from .stiffness import (
    FrictionModel,
    check_level,
    check_table,
    check_vectors,
    default_stiffness_table,
)

# --- JSON type parsers: parse(value, dotted_path) -> value --------------------


def _num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(path, f"must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer past the float range
        v = math.inf
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


def _opt(parse):
    """``parse``, with JSON null read as None."""
    return lambda value, path: None if value is None else parse(value, path)


def _each(parse):
    """Parser of a list, each entry read by ``parse``, into a tuple."""

    def read(value, path: str) -> tuple:
        if not isinstance(value, list):
            raise ParseError(path, "must be a list")
        return tuple(parse(v, f"{path}[{i}]") for i, v in enumerate(value))

    return read


def _num_list(value, path: str, length: int | None = None) -> np.ndarray:
    if not isinstance(value, list):
        raise ParseError(path, f"must be a list of numbers, got {value!r}")
    out = np.array(_each(_num)(value, path))
    if length is not None and out.size != length:
        raise ParseError(path, f"must have {length} entries, got {out.size}")
    return out


def _pair(value, path: str) -> tuple[float, float]:
    return tuple(_num_list(value, path, 2).tolist())


def _axis(value, path: str) -> str:
    if value not in AXES:
        raise ParseError(path, f"must be one of {AXES}")
    return value


_axes = _each(_axis)


def _pairs(value, path: str) -> np.ndarray:
    """``(n, 2)`` array from a list of number pairs."""
    return np.array(_each(_pair)(value, path)).reshape(-1, 2)


# --- the reader ---------------------------------------------------------------
#
# A schema maps each JSON key of a section to its parser, or to
# ``(field, parser)`` where the field it fills is named differently.


def _entry(key: str, spec) -> tuple:
    return spec if isinstance(spec, tuple) else (key, spec)


def _fields(data, path: str, schema: dict) -> dict:
    """The keys present in the JSON object ``data``, each parsed by its
    schema entry, by field name; an unknown key is an error."""
    if not isinstance(data, dict):
        raise ParseError(path, f"must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(schema))
    if unknown:
        raise ParseError(f"{path}.{unknown[0]}", "unknown key")
    values = {}
    for key, value in data.items():
        name, parse = _entry(key, schema[key])
        values[name] = parse(value, f"{path}.{key}")
    return values


@cache
def _required(build) -> tuple[str, ...]:
    """Names of the arguments of ``build`` that have no default."""
    params = inspect.signature(build).parameters.values()
    return tuple(p.name for p in params if p.default is p.empty)


def _build(build, path: str, schema: dict, values: dict, required=()):
    """``build(**values)``, so that only the keys present override its
    defaults.  A missing argument without a default (or named in
    ``required``) is reported at its key; a ``ValidationError`` keyed by an
    argument (``"dt"``, ``"table[0]"``) is re-keyed to that key's dotted
    path, and any other error of ``build`` to the section's."""

    def key(name):  # the JSON key that fills the argument ``name``
        return next((k for k, spec in schema.items() if _entry(k, spec)[0] == name), name)

    for name in (*_required(build), *required):
        if name not in values:
            raise ParseError(f"{path}.{key(name)}", "required key missing")
    try:
        return build(**values)
    except SuperlimbError as exc:
        if getattr(exc, "key", None) is None:
            raise ParseError(path, str(exc)) from exc
        name, bracket, index = exc.key.partition("[")
        raise ParseError(f"{path}.{key(name)}{bracket}{index}", exc.reason) from exc


def _section(schema: dict, build, required=()):
    """Parser of a section: ``build`` of the keys it gives."""
    return lambda data, path: _build(build, path, schema, _fields(data, path, schema), required)


# --- section dataclasses ------------------------------------------------------


@dataclass(frozen=True)
class SimParams:
    """Step size, horizon, simulation mode and seed of one run."""

    dt: float
    duration: float
    mode: str = "tracking"
    seed: int = 0

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValidationError("must be positive", "dt")
        if not (self.dt <= 0.01):
            raise ValidationError("must be <= 0.01 s", "dt")
        if not (self.duration >= 0.0):
            raise ValidationError("must be >= 0", "duration")
        if not math.isfinite(self.duration / self.dt):
            raise ValidationError(f"gives no finite step count at dt={self.dt}", "duration")
        if self.mode not in ("tracking", "inverse-dynamics"):
            raise ValidationError("must be 'tracking' or 'inverse-dynamics'", "mode")
        if not (self.seed >= 0):
            raise ValidationError("must be >= 0", "seed")

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

    def __post_init__(self):
        if self.kind not in ("static", "triangle"):
            raise ValidationError("must be 'static' or 'triangle'", "kind")
        if self.axis not in AXES:
            raise ValidationError(f"must be one of {AXES}", "axis")
        for name in ("amplitude", "speed"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise ValidationError("must be finite and positive", name)
        if self.kind == "triangle" and not self.amplitude / self.speed > 0.0:
            raise ValidationError(f"the quarter period amplitude / speed underflows to 0 "
                                  f"at speed {self.speed:g}", "amplitude")

    def velocity(self, t) -> np.ndarray:
        """Signed axis target velocity at the times ``t``, an array (or a
        float, as a 0-d array) of the same shape; a sweep starts rising."""
        t = np.asarray(t, dtype=float)
        if self.kind == "static":
            return np.zeros(t.shape)
        quarter = self.amplitude / self.speed
        phase = np.mod(t, 4.0 * quarter)
        return np.where((phase < quarter) | (phase >= 3.0 * quarter), self.speed, -self.speed)


@dataclass(frozen=True)
class ContactConfig:
    spec: ContactSpec
    motion: ContactMotion = ContactMotion()


@dataclass(frozen=True)
class ControllerConfig:
    """Task-space stiffness controller setup for the SRL chain; ``table``
    holds the four stiffness levels and ``x_eq=None`` means the initial
    task position."""

    chain: str
    enabled: bool = True
    joint: int | None = None
    components: tuple[str, ...] = AXES
    table: tuple[np.ndarray, ...] | None = None
    level: int = 1
    x_eq: np.ndarray | None = None
    f_gravity: np.ndarray | None = None
    damping: np.ndarray | None = None
    friction: FrictionModel | None = None

    def __post_init__(self):
        m = len(self.components)
        if not m:
            raise ValidationError("must not be empty", "components")
        if len(set(self.components)) != m:
            raise ValidationError("must be distinct", "components")
        table = default_stiffness_table(m) if self.table is None else self.table
        object.__setattr__(self, "table", check_table(table, m))
        check_level(self.level)
        f_gravity = np.zeros(m) if self.f_gravity is None else self.f_gravity
        vectors = {"x_eq": self.x_eq, "f_gravity": f_gravity, "damping": self.damping}
        for name, v in zip(vectors, check_vectors(m, **vectors)):
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class HumanMotion:
    """Scripted joint trajectory of the position-driven human sub-chain."""

    kind: str = "static"
    amplitude: np.ndarray | None = None
    frequency: float = 0.5
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("static", "sine"):
            raise ValidationError("must be 'static' or 'sine'", "kind")
        if self.kind == "sine" and not (
            self.amplitude is not None and np.all(np.isfinite(self.amplitude))
        ):
            raise ValidationError("a sine needs finite amplitudes", "amplitude")
        if not (0.0 < self.frequency < math.inf):
            raise ValidationError("must be finite and positive", "frequency")
        if not math.isfinite(self.phase):
            raise ValidationError("must be finite", "phase")

    def offsets(self, t, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dq, dqdot, dqddot) relative to the rest posture of the ``n``
        joints at the times ``t``, an array (or a float, as a 0-d array):
        each of shape ``t.shape + (n,)``."""
        t = np.asarray(t, dtype=float)
        if self.kind == "static":
            return tuple(np.zeros(t.shape + (n,)) for _ in range(3))
        w = 2.0 * math.pi * self.frequency
        arg = (w * t + self.phase)[..., None]
        s, c = np.sin(arg), np.cos(arg)
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


# --- section schemas ----------------------------------------------------------

_JOINT = {
    "kind": _str, "mass": _num, "length": _num, "com": _num, "inertia": _num,
    "rotor": _num, "axis": _num, "q0": _num,
}
_CHAIN = {
    "name": _str, "role": _str, "base": _pair, "heading": _num,
    "joints": _each(_section(_JOINT, Joint)),
}
_PLANT = {"gravity": _num, "chains": _each(_section(_CHAIN, Chain))}
_SIM = {"dt": _num, "duration": _num, "mode": _str, "seed": _int}
_CONTACT = {
    "chain": _str, "joint": _opt(_int), "directions": _axes,
    "motion": _section(
        {"type": ("kind", _str), "axis": _str, "amplitude": _num, "speed": _num},
        ContactMotion, required=("kind",),
    ),
}
_HUMAN_MOTION = {
    "type": ("kind", _str), "amplitude": _num_list, "frequency": _num, "phase": _num,
}
_PROFILE = {
    "fs": _num, "duration": _num,
    "steps": lambda value, path: tuple(map(tuple, _pairs(value, path).tolist())),
}
_HILL = {f.name: _num for f in fields(HillParams)}
_STABILITY = {"posture": _str, "mass": _num, "k": _num, "r": _num, "gamma": _num}


# --- section readers ----------------------------------------------------------


def _stiffness_table(value, path: str) -> tuple[np.ndarray, ...]:
    """Stiffness levels, each a list of per-direction diagonal entries or a
    full matrix given as a list of equally long rows."""

    def level(row, row_path):
        if isinstance(row, list) and row and isinstance(row[0], list):
            return np.array(_each(lambda r, p: _num_list(r, p, len(row[0])))(row, row_path))
        return np.diag(_num_list(row, row_path))

    return _each(level)(value, path)


def _auto_or_list(value, path: str) -> np.ndarray | None:
    if isinstance(value, str):
        if value != "auto":
            raise ParseError(path, "must be 'auto' or a list of numbers")
        return None
    return _num_list(value, path)


def _check_link(model: PlantModel, chain: str, joint: int | None, path: str):
    """``chain`` is a chain of ``model`` and ``joint`` one of its joints."""
    if chain not in [c.name for c in model.chains]:
        raise ParseError(f"{path}.chain", f"unknown chain {chain!r}")
    try:
        model.link_index(chain, joint)
    except BadModel as exc:
        raise ParseError(f"{path}.joint", exc.reason) from exc


def _parse_contact(data, model: PlantModel, path: str = "contact") -> ContactConfig:
    values = _fields(data, path, _CONTACT)
    motion = values.pop("motion", ContactConfig.motion)
    spec = _build(ContactSpec, path, _CONTACT, values)
    _check_link(model, spec.chain, spec.joint, path)
    # chains have fixed bases: only the joints up to the contacted one move its point
    moving = model.link_index(spec.chain, spec.joint) - model.chain_slice(spec.chain).start + 1
    if len(spec.directions) > moving:
        raise ParseError(f"{path}.directions", f"{len(spec.directions)} directions, but only "
                         f"{moving} joint(s) move the contacted point")
    if motion.kind == "triangle" and motion.axis not in spec.directions:
        raise ParseError(
            f"{path}.motion.axis",
            f"must be one of the constrained directions {spec.directions}",
        )
    return ContactConfig(spec=spec, motion=motion)


def _check_contact_rows(model: PlantModel, spec: ContactSpec, mode: str):
    """Raise a ``contact.directions`` ParseError if the contact rows are not
    independent at q0 by the rule of the mode's contact solve: the split's
    QR rule in inverse dynamics, the Gram matrix J_f A_ff^-1 J_f^T's pivot
    rule over the limb's free joints in tracking.  The rows come from the
    compiled run kernel at step 0's state, and the rule runs the code step 0
    runs, so the load rejects what would stop that step, and only that."""
    n, m = model.n_dof, len(model.srl_indices)
    kin = model._kernel(model.q0.tolist(), [0.0] * n)
    try:
        j_c = contact_jacobian(kin.tip_jac[model.link_index(spec.chain, spec.joint)], spec)
        if mode == "inverse-dynamics":
            dynamics.decouple((kin.a, kin.h, j_c, [0.0] * n))
        else:  # the Gram matrix as harness._advance forms it
            u = spd_solve([row[:m] for row in kin.a[:m]], [row[:m] for row in j_c],
                          RankDeficient, "inertia of the free joints is not positive definite")
            gram = [[sum(map(mul, row[:m], uc)) for uc in u] for row in j_c]
            spd_solve(gram, [], RankDeficient, DEPENDENT_CONTACTS, GRAM_PIVOT_RTOL)
    except SuperlimbError as exc:  # any other error is step 0's to raise, as before
        if str(exc).startswith(DEPENDENT_CONTACTS):
            detail = str(exc)[len(DEPENDENT_CONTACTS):]
            raise ParseError("contact.directions", f"{' and '.join(spec.directions)} are not "
                             f"independent at q0{detail}") from exc


def _parse_controller(
    data, model: PlantModel, path: str = "controller"
) -> ControllerConfig:
    n_s = len(model.srl_indices)

    def per_joint(value, key_path):
        if isinstance(value, list):
            return _num_list(value, key_path, n_s)
        return np.full(n_s, _num(value, key_path))

    schema = {
        "enabled": _bool, "chain": _str, "joint": _opt(_int), "components": _axes,
        "stiffness_table": ("table", _stiffness_table), "level": _int,
        "x_eq": _auto_or_list, "f_gravity": _num_list, "panel_mass": _num,
        "damping": _opt(_num_list),
        "friction": _opt(_section(
            {"coulomb": per_joint, "viscous": per_joint,
             "breakaway_ratio": ("stiction_breakaway_ratio", _num)},
            FrictionModel,
        )),
    }
    values = _fields(data, path, schema)
    # limb chains come first, so the first chain is the limb if there is one
    chain = values.setdefault("chain", model.chains[0].name)
    _check_link(model, chain, values.get("joint"), path)
    panel_mass = values.pop("panel_mass", None)
    if panel_mass is not None and "f_gravity" in values:
        raise ParseError(
            f"{path}.f_gravity", "give either f_gravity or panel_mass, not both"
        )
    config = _build(ControllerConfig, path, schema, values)
    if config.enabled and chain not in model._srl_chains:
        raise ParseError(f"{path}.chain", f"{chain!r} is a human chain; the controller "
                         "drives a limb chain")
    if panel_mass is None:
        return config
    panel_path = f"{path}.panel_mass"
    if panel_mass < 0.0:
        raise ParseError(panel_path, "must be >= 0")
    if "z" not in config.components:
        raise ParseError(panel_path, "needs a 'z' task component to act on")
    weight = panel_mass * model.gravity
    if not math.isfinite(weight):
        raise ParseError(panel_path, f"weight {panel_mass:g} kg * {model.gravity:g} m/s^2 "
                         "is not finite")
    f_gravity = np.zeros(len(config.components))
    f_gravity[config.components.index("z")] = weight
    return replace(config, f_gravity=f_gravity)


def parse_profile(data, path: str = "profile") -> ActivationProfile:
    return _section(_PROFILE, ActivationProfile)(data, path)


def _emg_motion(value, path: str):
    """The ``emg.motion`` section: its file name, or ``(t, yaw)`` arrays
    from its steps."""
    d = _fields(value, path, {"file": _opt(_str), "steps": _opt(_pairs)})
    if (d.get("file") is None) == (d.get("steps") is None):
        raise ParseError(path, "give exactly one of 'file' or 'steps'")
    if d.get("file") is not None:
        return d["file"]
    pairs, steps_path = d["steps"], f"{path}.steps"
    if not pairs.size:
        raise ParseError(steps_path, "must not be empty")
    if np.any(np.diff(pairs[:, 0]) < 0.0):
        raise ParseError(steps_path, "times must be nondecreasing")
    return pairs[:, 0], pairs[:, 1]


_EMG = {
    "enabled": _bool, "trace": _opt(_str), "profile": _opt(parse_profile), "seed": _int,
    "hill": _section(_HILL, HillParams), "threshold": _num, "hysteresis": _num,
    "gain": _num, "motion": _opt(_emg_motion), "band": _pair, "window": _num,
}


def _parse_emg(data, base_dir: str, default_seed: int, path: str = "emg") -> EmgConfig:
    values = {"enabled": True, "seed": default_seed, **_fields(data, path, _EMG)}
    if not values["enabled"]:
        return EmgConfig(enabled=False)
    # files are read here, relative to the scenario; a trace given beside a
    # profile is left for EmgConfig to reject unread
    if values.get("trace") is not None and values.get("profile") is None:
        values["trace"] = load_trace_csv(os.path.join(base_dir, values["trace"]))
    if isinstance(values.get("motion"), str):
        values["motion"] = load_motion_csv(os.path.join(base_dir, values["motion"]))
    return _build(EmgConfig, path, _EMG, values)


def _parse_human_motion(data, model: PlantModel, path: str = "human_motion") -> HumanMotion:
    motion = _section(_HUMAN_MOTION, HumanMotion, required=("kind",))(data, path)
    if motion.kind == "sine":
        n_h = len(model.human_indices)
        if n_h == 0:
            raise ParseError(path, "plant has no human chain to drive")
        if motion.amplitude.size != n_h:
            raise ParseError(
                f"{path}.amplitude", f"must have {n_h} entries, got {motion.amplitude.size}"
            )
        # |sin| <= 1, so a finite |q0| + |amplitude| bounds every scripted angle
        for j, (q0, a) in enumerate(zip(model.q0[model.human_indices].tolist(),
                                        motion.amplitude.tolist())):
            if not math.isfinite(abs(q0) + abs(a)):
                raise ParseError(f"{path}.amplitude", f"{a:g} about q0 = {q0:g} takes human "
                                 f"joint {j} past the float range")
    return motion


def parse_scenario(data: dict, base_dir: str = ".") -> Scenario:
    """Validate a scenario dictionary and assemble the runtime objects."""
    if not isinstance(data, dict):
        raise ParseError("(root)", "scenario must be a JSON object")
    unknown = set(data) - {"plant", "sim", "controller", "contact", "emg", "human_motion"}
    if unknown:
        raise ParseError(sorted(unknown)[0], "unknown section")
    for name in ("plant", "sim"):
        if name not in data:
            raise ParseError(f"(root).{name}", "required key missing")
    model = _section(_PLANT, PlantModel)(data["plant"], "plant")
    sim = _section(_SIM, SimParams)(data["sim"], "sim")
    controller = _parse_controller(data.get("controller", {}), model)
    optional = {
        "contact": lambda d: _parse_contact(d, model),
        "emg": lambda d: _parse_emg(d, base_dir, sim.seed),
        "human_motion": lambda d: _parse_human_motion(d, model),
    }
    scenario = Scenario(model, sim, controller, **{
        name: read(data[name]) for name, read in optional.items() if data.get(name) is not None
    })

    if scenario.emg.enabled:
        if not controller.enabled:
            raise ParseError("emg.enabled", "needs an enabled controller to act on")
        if "z" not in controller.components:
            raise ParseError(
                "emg.enabled", "needs a 'z' task component for the equilibrium shift"
            )
    motion = scenario.human_motion
    # the kernels sum a chain's revolute angles before cos and sin; a finite
    # bound on the sums keeps the run from raising anything but its own errors
    sway = motion.amplitude.tolist() if motion.kind == "sine" else []
    sway = [0.0] * (model.n_dof - len(sway)) + sway  # human joints come last
    for ci, c in enumerate(model.chains):
        first, total = model.chain_slice(c.name).start, abs(c.heading)
        for j, joint in enumerate(c.joints, first):
            if joint.kind == REVOLUTE:
                total += abs(joint.q0) + abs(sway[j])
        if not math.isfinite(total):
            raise ParseError(f"plant.chains[{ci}].joints", "|heading| + the sum of |q0| + "
                             "|amplitude| over the revolute joints passes the float range")
    if motion.kind == "sine":
        w = 2.0 * math.pi * motion.frequency
        if not math.isfinite(w * (sim.n_steps * sim.dt) + motion.phase):
            raise ParseError(
                "human_motion.frequency", f"gives no finite phase within {sim.duration} s"
            )
        # HumanMotion.offsets scales the amplitudes by w and by w^2
        peak = float(np.abs(motion.amplitude).max())
        if not math.isfinite(peak * w * w):  # (peak * w) * w: covers the velocity too
            raise ParseError("human_motion.frequency", f"gives no finite scripted velocity "
                             f"or acceleration at amplitude {peak:g}")
    contact = scenario.contact
    if sim.mode == "inverse-dynamics" and contact is not None and contact.motion.kind != "static":
        raise ParseError("sim.mode", "inverse-dynamics mode supports static contacts only")
    if contact is not None and contact.spec.chain not in model._srl_chains:
        # the limb carries the support force: on a human chain the tracking
        # step has no free joint to solve it through, and inverse dynamics
        # would log the wearer's own weight as support
        raise ParseError("contact.chain", f"{contact.spec.chain!r} is a human chain; the "
                         "contact must be on a limb chain")
    if contact is not None and len(contact.spec.rows) > 1:
        # after the angle bound above: the kernel sums a chain's angles before cos
        _check_contact_rows(model, contact.spec, sim.mode)
    return scenario


def _load_json(path: str, what: str):
    """Decoded contents of a JSON file, read as UTF-8 whatever the locale;
    ``what`` names it in MissingFile."""
    if not os.path.isfile(path):
        raise MissingFile(f"{what} file not found: {path}")
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # bad JSON or UTF-8, or an integer past the digit limit
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
    return _section(_STABILITY, named_posture)(data, path)


def load_posture(path: str) -> tuple[SupportPosture, dict]:
    """Load a stability-analysis config file; returns the posture and its
    ``stability`` section.  Keys beside that section are ignored."""
    data = _load_json(path, "config")
    if not isinstance(data, dict) or "stability" not in data:
        raise ParseError("stability", "required section missing")
    section = data["stability"]
    return build_posture(section), section
