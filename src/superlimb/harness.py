"""Deterministic fixed-step simulator.

Runs a scenario end to end: synthetic or replayed sEMG feeds the motion
gate and equilibrium-point shift, the task-space stiffness controller
produces joint torques, joint friction is applied, and the coupled plant
is integrated with a semi-implicit Euler step.  A bilateral point contact
(the supported panel) is enforced by solving for the constraint force
that makes the post-step contact velocity match the scripted support
motion; for a static support with a clean initial state this is exactly
the zero-contact-acceleration condition, and it does not drift.  The step,
its two Cholesky solves and the scripted joints' torques run as
straight-line code that ``numerics``' emitters generate once per shape
(DoFs, free DoFs, contact rows), to the bit what a loop over Python float
lists computes.  One loop runs both modes a block of steps at a time:
the block's scripted inputs become float lists, and when it ends its rows
go into the log in one ``SimLog.append``, which fills their mount force,
sets the support force's sign and checks them.  Tracking steps one at a
time inside the block, in generated code that inlines the plant's run
kernel as well; in inverse-dynamics mode every step's state is
scripted, so the kinematics, the control law and the contact rows run
once per block, and only the force split stays per step.

Sign conventions: the constraint force returned by the dynamics layer
acts on the robot; logs report ``lambda`` as the force exerted on the
supported object (the negative, taken in ``SimLog.append``), so pressing
up against an overhead panel logs positive vertical support force.  ``f_mount`` is the force
the wearer feels at the harness mount (device weight plus transmitted
reaction), and ``tau_h`` the joint torques the scripted human sub-chain
must supply.

Everything is deterministic: a scenario plus a seed reproduces CSV logs
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from math import isfinite, nan
from operator import mul

import numpy as np

from . import dynamics
from .dynamics import DEPENDENT_CONTACTS, contact_jacobian
from .emg import (
    DEFAULT_BAND,
    DEFAULT_WINDOW,
    ActivationProfile,
    EmgTrace,
    _median,
    bandpass,
    check_samples,
    envelope,
    rectify,
    run_pipeline,
    write_csv,
    zero_order_hold,
)
from .errors import (
    NonFinite,
    NumericBlowup,
    ParseError,
    RankDeficient,
    SuperlimbError,
    ValidationError,
)
from .numerics import (GRAM_PIVOT_RTOL, QR_RANK_RTOL, _check_finite, _function, _live,
                       _spd_solve_source, _sum, _unpack)
from .plant import AXES, KernelSource, PlantModel
from .scenario import Scenario
# task_to_joint_torque and friction_torque stay module attributes, for the
# benchmark's tracer to wrap; the tracking block inlines them
from .stiffness import (V_EPS, check_vectors, control_force, friction_torque,  # noqa: F401
                        task_to_joint_torque)

BLOWUP_LIMIT = 1e9


# --- synthetic sEMG -----------------------------------------------------------


def generate_emg(
    profile: ActivationProfile,
    seed: int,
    mvc_reference: float = 1.0,
    band: tuple[float, float] = DEFAULT_BAND,
    window: float = DEFAULT_WINDOW,
    path: str = "profile",
) -> EmgTrace:
    """Synthesize a single-channel sEMG trace following an activation
    schedule.

    Band-limited zero-mean noise is amplitude-modulated by the profile and
    calibrated through the actual downstream chain (band-pass, rectify,
    moving RMS), so a fully-on segment lands its envelope at
    ``mvc_reference``.  Identical seeds give identical traces.  Errors of
    the sample count are keyed at ``path``'s duration, and those of the
    calibration at ``mvc_reference``, for the caller to re-key.
    """
    fs = profile.fs
    if not (0.0 < mvc_reference < np.inf):
        raise ValidationError(f"must be finite and > 0, got {mvc_reference}", "mvc_reference")
    n = profile.n_samples
    check_samples(n, f"{path}.duration")
    rng = np.random.default_rng(seed)
    try:
        t = np.arange(n) / fs
        noise = rng.standard_normal(n)
    except (MemoryError, ValueError) as exc:  # more samples than numpy can allocate
        raise ParseError(f"{path}.duration", f"{n:.4g} samples do not fit in memory") from exc
    levels = profile.sample(t)
    white = EmgTrace(fs=fs, channels=(("noise", noise),))
    carrier = bandpass(white, *band).channels[0][1]
    rms = float(np.sqrt(np.mean(carrier * carrier)))
    if rms <= 0.0:
        raise ValidationError("degenerate noise carrier")
    carrier = carrier / rms
    # calibrate against the processing the consumer will actually apply
    unit = EmgTrace(fs=fs, channels=(("cal", carrier),))
    env = envelope(rectify(bandpass(unit, *band)), window).channels[0][1]
    settle = min(int(round(window * fs)), n - 1)
    kappa = _median(env[settle:])
    if kappa <= 0.0:
        raise ValidationError("envelope calibration failed")
    with np.errstate(over="ignore"):
        samples = levels * carrier * (mvc_reference / kappa)
    if not np.all(np.isfinite(samples)):
        raise ValidationError(f"{mvc_reference:g} calibrates sEMG samples past the float "
                              "range", "mvc_reference")
    return EmgTrace(fs=fs, channels=(("ch1", samples),))


# --- integration --------------------------------------------------------------


@dataclass(frozen=True)
class StepResult:
    """State after one integration step plus the step's accelerations and
    the constraint force (on the robot; empty without contact)."""

    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray
    lam: np.ndarray


def _blowup(values):
    """Raise NumericBlowup naming the largest of |``values``| (NaN if any)."""
    mags = [abs(v) for v in values]
    peak = nan if any(x != x for x in mags) else max(mags)
    raise NumericBlowup(f"state magnitude exceeded {BLOWUP_LIMIT:g} (max {peak:.3e})")


def _solve_source(body: list[str], n: int, m: int, k: int, c, a, h):
    """Append the contact solve of n DoFs, the first m free, and k contact
    rows as straight-line source over named floats (the code-generation
    approach of RobCoGen, Frigerio et al., JOSER 2016).  It reads the names
    ``q``, ``qd`` (the state), ``dd`` (the accelerations), ``qn``, ``vn``
    (the end of step, scripted entries set), ``t`` (the free joints'
    torque), ``vt`` (the contact targets) and ``dt``, row r's entry i of
    the contact Jacobian as ``c(r, i)``, and entry (i, j) of the inertia
    matrix and entry i of the bias as ``a[i][j]`` and ``h[i]``, names or
    float literals; it fills the lists ``qdd``, ``qd_next`` and ``q_next``
    from entry m on and leaves the force on the robot in ``lam<r>`` and the
    scripted joints' torques in ``th<j>``.  Every operation keeps the order
    of the list-and-``sum()`` loop it unrolls, so the result is the same to
    the bit."""
    free, scripted, rows = range(m), range(m, n), range(k)
    if m:
        _check_finite(body, [f"t{i}" for i in free], "tau_total")
        for i in free:  # tau - h - A_fs qdd_s, then A_ff^-1 of it and of each J_f row
            s = _sum(body, [f"{a[i][j]} * dd{j}" for j in scripted])
            body.append(f"r{i} = t{i} - {h[i]}{s}")
        solves = [("ac", [f"r{i}" for i in free])]
        solves += [(f"u{r}_", [c(r, i) for i in free]) for r in rows]
        _spd_solve_source(body, lambda j, col: a[j][col], m, solves,
                          "a", RankDeficient, "inertia of the free joints is not positive definite")
        if k:
            for r in rows:  # the Gram matrix's factored triangle
                for col in range(r, k):
                    _sum(body, [f"{c(r, i)} * u{col}_{i}" for i in free], f"G{r}_{col}")
            body += [f"pv{i} = qd{i} + dt * ac{i}" for i in free]
            for r in rows:  # the contact velocity's residual, over dt
                s = _sum(body, [f"{c(r, j)} * vn{j}" for j in scripted])
                body.append(f"e{r} = vt{r}{s}")
                s = _sum(body, [f"{c(r, i)} * pv{i}" for i in free])
                body.append(f"e{r} = (e{r}{s}) / dt")
            _spd_solve_source(body, lambda j, col: f"G{j}_{col}", k,
                              [("lam", [f"e{r}" for r in rows])],
                              "g", RankDeficient, DEPENDENT_CONTACTS, GRAM_PIVOT_RTOL)
            for i in free:
                _sum(body, [f"u{r}_{i} * lam{r}" for r in rows])
                body.append(f"ac{i} = ac{i} + s")
        for i in free:
            body += [f"vn{i} = qd{i} + dt * ac{i}", f"qn{i} = q{i} + dt * vn{i}"]
        for name, out in (("ac", "qdd"), ("vn", "qd_next"), ("qn", "q_next")):
            body.append(f"{out}[:{m}] = {', '.join(f'{name}{i}' for i in free)},")
    else:  # nothing free: the force is left to the caller, zero here
        body += [f"lam{r} = 0.0" for r in rows]
    within = " and ".join(f"-{BLOWUP_LIMIT!r} <= {v}{i} <= {BLOWUP_LIMIT!r}"
                          for v in ("qn", "vn") for i in range(n))
    body += [f"if not ({within}):  # NaN fails the comparison", "    _blowup(q_next + qd_next)"]
    for j in scripted:  # tau_h: A qdd + h - J_c^T lam, as two sum()s over the rows
        _sum(body, [f"{a[j][i]} * {'ac' if i < m else 'dd'}{i}" for i in range(n)], f"th{j}")
        s = _sum(body, [f"{c(r, j)} * lam{r}" for r in rows])
        body.append(f"th{j} = th{j} + {h[j]}{s}")


def _unpack_state(body: list[str], n: int):
    """Append the unpacking of the names ``_solve_source`` reads of the
    lists ``q``, ``qd``, ``qdd``, ``q_next`` and ``qd_next``; ``q<i>`` and
    ``qd<i>`` are also the names the plant's step kernel lines read."""
    for name, src in ("q", "q"), ("qd", "qd"), ("dd", "qdd"), ("qn", "q_next"), ("vn", "qd_next"):
        _unpack(body, name, src, n)


@cache
def _contact_step(n: int, m: int, k: int):
    """Generate ``_advance`` for n DoFs, the first m free, and k contact
    rows: ``_solve_source`` over its arguments' entries, compiled once per
    shape."""
    body = []
    _unpack_state(body, n)
    _unpack(body, "h", "h", n)
    for i in range(n):
        _unpack(body, f"a{i}_", f"a[{i}]", n)
    for r in range(k):
        _unpack(body, f"c{r}_", f"j_c[{r}]", n)
    if m:
        _unpack(body, "t", "tau_total", m)
    if k:
        _unpack(body, "vt", "v_target", k)
    _solve_source(body, n, m, k, lambda r, i: f"c{r}_{i}",
                  [[f"a{i}_{j}" for j in range(n)] for i in range(n)], [f"h{i}" for i in range(n)])
    body.append(f"return [{', '.join(f'lam{r}' for r in range(k))}], "
                f"[{', '.join(f'th{j}' for j in range(m, n))}]")
    return _function("step(q, qd, a, h, tau_total, dt, j_c, v_target, q_next, qd_next, qdd)",
                     body, f"contact solve: n={n}, m={m}, k={k}", _blowup=_blowup)


def _max_abs(names: tuple[str, ...]) -> str:
    """``max(map(abs, row))`` of a row given by its entries' names: the same
    builtins over the same order, so a NaN's place decides as it does."""
    terms = ", ".join(f"abs({v})" for v in names)
    return f"max({terms})" if len(names) > 1 else terms


#: tracking blocks kept: one per plant and shape, and a parameter study over
#: link masses or lengths makes a new plant per run
TRACKING_BLOCKS = 32


@lru_cache(maxsize=TRACKING_BLOCKS)
def _tracking_block(source: KernelSource, n: int, m: int, task: int, rows: tuple[int, ...],
                    contact: int | None, directions: tuple[str, ...], enabled: bool,
                    damped: bool, friction: bool):
    """Generate the tracking loop over a block of steps for one plant's run
    kernel, given as ``source``, and one shape: n DoFs, the first m the
    limb's; the task point at link ``task``'s tip with the controller's
    components on ``rows`` of it; the contact at link ``contact``'s tip on
    ``directions`` (none without contact); the control law on or off, with
    or without damping, and friction on or off.

    ``block(kernel, q, qd, x_eqs, v_targets, q_ends, qd_ends, qdds, k_task,
    f_gravity, damping, friction, dt, out, mount)`` steps from the state
    lists ``q``, ``qd`` once per entry of the per-step lists.  Each step is
    straight-line code: the run kernel's lines, then what
    ``contact_jacobian``, ``control_force``, ``task_to_joint_torque`` (J^T f
    on the limb's joints, plus their gravity load), ``friction_torque`` and
    ``_advance``'s ``_solve_source`` compute, reading the kernel's values by
    the names of ``source.names``, with the same builtins in the same order,
    so every value and error is the same to the bit.  ``numerics._live``
    drops the kernel's lines that nothing in the step reads.  Each step
    appends its log row to ``out`` and its ``Kinematics.mount`` to
    ``mount``, so the steps before one that raises are kept; the block
    returns the state lists its last step ends at.  The controller's and
    friction's values are arguments, read once per block, and the kernel's
    lines hold no ``q0``, so the variants of one scenario share one block.
    ``kernel``, the plant's run kernel, is what a source whose lines call it
    calls: the seam where a test puts in kernel outputs of its own."""
    names, comps, k = source.names, range(len(rows)), len(directions)
    body, step = [], []
    if enabled:
        for c in comps:
            _unpack(body, f"k{c}_", f"k_task[{c}]", len(rows))
        _unpack(body, "fg", "f_gravity", len(rows))
        if damped:
            _unpack(body, "kd", "damping", len(rows))
    if friction:  # friction_torque's constants: -c, and the breakaway band +-ratio c
        _unpack(body, "cc", "friction[0]", m)
        _unpack(body, "cv", "friction[1]", m)
        body.append("ratio = friction[2]")
        for i in range(m):
            body += [f"nc{i} = -cc{i}", f"bk{i} = ratio * cc{i}", f"nb{i} = -bk{i}"]
    body += ["row = out.append", "keep = mount.append",
             "for xeq, vts, q_next, qd_next, qdd in zip(x_eqs, v_targets, q_ends, qd_ends, qdds):"]

    _unpack_state(step, n)
    step += source.lines[:-1]  # all but the kernel's return
    if contact is not None:  # contact_jacobian: every row against the floor of the largest
        for axis, jac_row in enumerate(names.tip_jac[contact]):
            step.append(f"sz{axis} = {_max_abs(jac_row)}")
        sizes = ", ".join(f"sz{axis}" for axis in range(len(AXES)))
        step.append(f"floor = {QR_RANK_RTOL!r} * max({sizes})")
        for d in directions:
            text = f"contact Jacobian lost rank: direction {d!r} vanishes at this posture"
            step += [f"if sz{AXES.index(d)} < floor:", f"    raise RankDeficient({text!r})"]
    tip = [names.tip[task][r] for r in rows]
    force = ["0.0"] * len(rows)
    if enabled:  # control_force, then J^T f on the limb's joints and their gravity load
        force = [f"f{c}" for c in comps]
        _unpack(step, "xe", "xeq", len(rows))
        step += [f"er{c} = xe{c} - {x}" for c, x in zip(comps, tip)]
        for c in comps:
            _sum(step, [f"k{c}_{col} * er{col}" for col in comps], f"f{c}")
            step.append(f"f{c} = f{c} + fg{c}")
        if damped:
            vel = names.tip_vel[task]
            step += [f"f{c} = f{c} - kd{c} * {vel[r]}" for c, r in zip(comps, rows)]
        jac = names.tip_jac[task]
        for i in range(m):
            _sum(step, [f"{jac[r][i]} * f{c}" for c, r in zip(comps, rows)], f"t{i}")
            step.append(f"t{i} = t{i} + {names.g[i]}")
    else:
        step += [f"t{i} = 0.0" for i in range(m)]
    if friction:  # friction_torque of the velocity and the torque so far, added
        for i in range(m):
            step += [f"if abs(qd{i}) > {V_EPS!r}:",
                     f"    t{i} = t{i} + ((nc{i} if qd{i} > 0.0 else cc{i}) - cv{i} * qd{i})",
                     "else:",
                     f"    t{i} = t{i} + -min(max(t{i}, nb{i}), bk{i})"]
    if k:
        _unpack(step, "vt", "vts", k)
    contact_rows = [names.tip_jac[contact][AXES.index(d)] for d in directions]
    _solve_source(step, n, m, k, lambda r, i: contact_rows[r][i], names.a, names.h)
    cells = ([f"q{i}" for i in range(m)] + [f"qd{i}" for i in range(m)] + tip + force
             + [f"lam{r}" for r in range(k)]
             + ["0.0", "0.0"]  # f_mount, filled by SimLog.append
             + [f"t{i}" for i in range(m)] + [f"th{j}" for j in range(m, n)])
    step += [f"row([{', '.join(cells)}])", f"keep(({''.join(f'{v}, ' for v in names.mount)}))"]
    body += [f"    {line}" for line in _live(step) + ["q, qd = q_next, qd_next"]]
    body.append("return q, qd")
    label = (f"tracking block: n={n}, m={m}, task={task}{list(rows)}, contact={contact}"
             f"{list(directions)}, law={enabled}, damping={damped}, friction={friction}")
    return _function("block(kernel, q, qd, x_eqs, v_targets, q_ends, qd_ends, qdds, k_task, "
                     "f_gravity, damping, friction, dt, out, mount)",
                     body, label, _blowup=_blowup)


def _advance(
    q, qd, a, h, tau_total, dt: float, m: int, j_c, v_target, q_next, qd_next, qdd
) -> tuple[list[float], list[float]]:
    """Semi-implicit Euler step of the first ``m`` (free) DoFs with optional
    bilateral contact, on Python float lists; returns the constraint force
    on the robot (one entry per row of ``j_c``) and the torques the other,
    scripted joints need, A qdd + h - J_c^T lam on their rows.

    ``a`` (rows) and ``h`` are the state's inertia matrix and bias, and
    ``tau_total`` the applied torque on the free DoFs.  ``q_next``,
    ``qd_next`` and ``qdd`` are full-length lists whose scripted entries
    (from ``m`` on) already hold the end-of-step position and velocity and
    the acceleration; the free entries are filled in place.  ``j_c`` holds
    the contact Jacobian's rows (none without contact) and ``v_target`` the
    contact point's target velocity along them.  ``q`` and ``qd`` are finite:
    a ``PlantState`` checked them, or the last step's blow-up bound did.
    With nothing free the split of a contact force is left to the caller,
    and the force is zero.  The step runs in the code ``_contact_step``
    generates for its shape."""
    return _contact_step(len(q), m, len(j_c))(
        q, qd, a, h, tau_total, dt, j_c, v_target, q_next, qd_next, qdd)


def integrate_step(
    model: PlantModel,
    q: np.ndarray,
    qd: np.ndarray,
    tau_total: np.ndarray,
    dt: float,
    contact=None,
    v_target: np.ndarray | None = None,
) -> StepResult:
    """One semi-implicit Euler step with every DoF free.

    ``tau_total`` is the complete applied generalized force (controller
    plus friction); if ``contact`` (a ContactSpec) is given, the
    constraint force that keeps the contact point on its target velocity
    (default zero) is solved for and applied on top.
    """
    if not (dt > 0.0):
        raise ValidationError(f"dt must be > 0, got {dt}")
    state = model.state(q, qd)
    n = model.n_dof
    (tau,) = check_vectors(n, tau_total=tau_total)
    j_c, vt = [], []
    if contact:
        link = model.link_index(contact.chain, contact.joint)
        j_c = contact_jacobian(state.kin.tip_jac[link], contact)
        k = len(j_c)
        (vt,) = check_vectors(k, v_target=np.zeros(k) if v_target is None else v_target)
        vt = vt.tolist()
    q_next, qd_next, qdd = [0.0] * n, [0.0] * n, [0.0] * n
    lam, _ = _advance(state.q.tolist(), state.qd.tolist(), state.kin.a, state.kin.h,
                      tau.tolist(), dt, n, j_c, vt, q_next, qd_next, qdd)
    return StepResult(*map(np.array, (q_next, qd_next, qdd, lam)))


# --- logging ------------------------------------------------------------------


class SimLog:
    """Step log as one preallocated ``(n_steps, n_cols)`` float array plus
    the CSV column layout: time, SRL state, task-space quantities, the
    contact force on the supported object, mount reaction on the wearer,
    applied/required torques and the sEMG-derived command channel.

    The columns that do not depend on the plant state (``t``, ``a``,
    ``gate`` kept as 0.0/1.0, ``x_eq_*``) are given whole at construction;
    ``append`` logs the rest a block of rows at a time."""

    def __init__(self, scenario: Scenario, t, a, gate, x_eq):
        model = scenario.model
        n_s = len(model.srl_indices)
        n_h = len(model.human_indices)
        components = scenario.controller.components
        directions = scenario.contact.spec.directions if scenario.contact else ()
        cols = ["t"]
        cols += [f"q_s{i}" for i in range(n_s)]
        cols += [f"qdot_s{i}" for i in range(n_s)]
        cols += [f"x_{c}" for c in components]
        cols += [f"f_cmd_{c}" for c in components]
        cols += [f"lambda_{d}" for d in directions]
        self._lambda = slice(len(cols) - len(directions), len(cols))
        cols += ["f_mount_x", "f_mount_z"]
        self._mount = slice(len(cols) - 2, len(cols))
        cols += [f"tau_s{i}" for i in range(n_s)]
        cols += [f"tau_h{i}" for i in range(n_h)]
        self._state_end = len(cols)
        cols += ["a", "gate"]
        cols += [f"x_eq_{c}" for c in components]
        self.columns = cols
        self._scenario = scenario
        self._data = np.empty((scenario.sim.n_steps, len(cols)))
        self._data[:, 0] = t
        self._data[:, self._state_end:] = np.column_stack((a, gate, x_eq))
        self._n = 0

    def append(self, rows, mount, qdd):
        """Log a block of steps: ``rows`` holds each step's values ``q_s``
        through ``tau_h`` in column order, with the constraint force on the
        robot in the ``lambda`` cells and any placeholder in the ``f_mount``
        cells, as float lists or one 2-D array; ``mount`` and ``qdd`` hold
        the steps' ``Kinematics.mount`` and accelerations from the block's
        first step on (entries past the last row are not read).  One
        ``_mount_force`` product fills the ``f_mount`` cells, the ``lambda``
        cells are negated to the force on the supported object, and the rows
        are checked whole: NonFinite is raised, with its step, at the first
        row that holds a NaN or Inf, naming its first such column."""
        lo, data, end = self._n, self._data, self._state_end
        steps = len(rows)
        hi = self._n = lo + steps
        data[lo:hi, 1:end] = np.reshape(rows, (-1, end - 1))
        lam = data[lo:hi, self._lambda]
        qdd = np.array(qdd[:steps], dtype=float).reshape(steps, self._scenario.model.n_dof)
        data[lo:hi, self._mount] = _mount_force(self._scenario, mount[:steps], qdd, lam)
        np.negative(lam, out=lam)
        bad = np.flatnonzero(~np.isfinite(data[lo:hi, 1:end]).all(axis=1))
        if bad.size:
            i = lo + int(bad[0])
            for col, v in zip(self.columns[1:], data[i, 1:end].tolist()):
                if not isfinite(v):
                    raise _at_step(NonFinite(f"{col} is {v}"), i, data[i, 0])

    def __len__(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        """Copy of one named column across all steps (``gate`` as bool)."""
        if name not in self.columns:
            raise KeyError(name)
        values = self._data[: self._n, self.columns.index(name)]
        return values.astype(bool) if name == "gate" else values.copy()

    def to_csv(self, path: str):
        gate = self.columns.index("gate")
        write_csv(path, self.columns, self._data[: self._n], flag=gate)


# --- scenario loop ------------------------------------------------------------


def _emg_channel(scenario: Scenario, t_sim: np.ndarray):
    """Precompute (activation, gate, dxeq) sampled at the sim timestamps.

    The sEMG stream is independent of plant state (the gate reads the
    instrumented-shank yaw, not the plant), so the whole pipeline runs up
    front and the loop samples it with zero-order hold.
    """
    emg = scenario.emg
    if not emg.enabled or t_sim.size == 0:
        z = np.zeros(t_sim.size)
        return z, np.zeros(t_sim.size, dtype=bool), z.copy()
    trace = emg.trace
    if trace is None:
        try:
            trace = generate_emg(emg.profile, emg.seed, mvc_reference=emg.hill.mvc_reference,
                                 band=emg.band, window=emg.window, path="emg.profile")
        except ValidationError as exc:
            if exc.key != "mvc_reference":
                raise
            raise ParseError("emg.hill.mvc_reference", exc.reason) from exc
    pipe = run_pipeline(
        trace,
        emg.hill,
        emg.threshold,
        emg.hysteresis,
        emg.gain,
        motion=emg.motion,
        band=emg.band,
        window=emg.window,
    )
    act = zero_order_hold(t_sim, pipe.t, pipe.activation)
    gate = zero_order_hold(t_sim, pipe.t, pipe.gate.astype(float)) > 0.5
    dxeq = zero_order_hold(t_sim, pipe.t, pipe.dxeq)
    return act, gate, dxeq


def _mount_force(scenario: Scenario, mount: list, qdd: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Force on the wearer at the harness mount (world x, z) at each of a
    block of steps, ``(steps, 2)``.

    Newton over the SRL links: the mount supplies whatever the contact
    force and gravity do not, so a resting unloaded device weighs on the
    wearer and pressing upward adds the transmitted reaction.  ``mount``
    holds each step's ``Kinematics.mount``, and ``qdd`` ``(steps, n)`` and
    ``lam`` ``(steps, k)`` the accelerations and the constraint force on
    the robot.
    """
    model = scenario.model
    links = model._srl_links
    steps, n = qdd.shape
    fx = fz = cx = cz = np.zeros(steps)
    if links and steps:
        rows = np.array(mount)
        cut = 2 * len(links) * n
        # one stacked matmul gives each link's J_l qdd exactly as the
        # array-valued point(at="com") path rounds it, step by step
        jqdd = np.matmul(rows[:, :cut].reshape(steps, len(links), 2, n), qdd[:, None, :, None])
        for l, (_, mass) in enumerate(links):  # the Newton sum in link order
            fx = fx + mass * (jqdd[:, l, 0, 0] + rows[:, cut + 2 * l])
            fz = fz + mass * (jqdd[:, l, 1, 0] + rows[:, cut + 2 * l + 1] + model.gravity)
    contact = scenario.contact
    if contact is not None and contact.spec.chain in model._srl_chains:
        for row, col in zip(contact.spec.rows, lam.T):
            if row:
                cz = cz + col
            else:
                cx = cx + col
    return np.column_stack((cx - fx, cz - fz))


def _at_step(exc: SuperlimbError, i: int, t: float) -> SuperlimbError:
    """Prefix an error's message with the step and time it arose at."""
    first = str(exc.args[0]) if exc.args else str(exc)
    exc.args = (f"[step {i}, t={t:.6g}s] {first}",)
    return exc


def _equilibrium_points(scenario: Scenario, task: int, rows: list[int], dxeq: np.ndarray):
    """Equilibrium point of every step, ``(n_steps, m)``: the configured
    point (for "auto" the tip of link ``task`` at ``q0``) with the gated
    sEMG shift added on ``z`` wherever it is nonzero."""
    cfg = scenario.controller
    x_eq0 = cfg.x_eq
    if x_eq0 is None:
        model = scenario.model
        tip = model._kernel(model.q0.tolist(), [0.0] * model.n_dof).tip[task]
        x_eq0 = [tip[r] for r in rows]
    x_eq = np.tile(x_eq0, (dxeq.size, 1))
    if "z" in cfg.components:
        shifted = dxeq != 0.0
        x_eq[shifted, cfg.components.index("z")] += dxeq[shifted]
    return x_eq


def _scripted_motion(scenario: Scenario, t_sim: np.ndarray):
    """Full-length ``(n_steps, n)`` arrays of the position and velocity at
    the end of each step and the acceleration during it: the human joints
    follow their scripted trajectory, the limb joints stay at rest at
    ``q0`` (the integrator fills them in tracking mode)."""
    model, dt = scenario.model, scenario.sim.dt
    human = model.human_indices
    q0 = model.q0
    q_end = np.tile(q0, (t_sim.size, 1))
    qd_end = np.zeros(q_end.shape)
    qdd = np.zeros(q_end.shape)
    if human.size:
        offsets = scenario.human_motion.offsets
        qdd[:, human] = offsets(t_sim, human.size)[2]
        dq, qd_end[:, human], _ = offsets(t_sim + dt, human.size)
        q_end[:, human] = q0[human] + dq
    return q_end, qd_end, qdd


def _contact_velocity(scenario: Scenario, t_sim: np.ndarray) -> np.ndarray:
    """Target velocity of the contact point along its constrained rows at
    every step, ``(n_steps, k)``: zero except on the swept axis."""
    contact = scenario.contact
    v = np.zeros((t_sim.size, len(contact.spec.directions) if contact else 0))
    if contact is not None and contact.motion.kind == "triangle":
        motion = contact.motion
        axis = contact.spec.directions.index(motion.axis)
        v[:, axis] = motion.velocity(t_sim)
    return v


#: steps per block of a run, in either mode: the block's scripted rows become
#: float lists, and its mount force is one product; in inverse dynamics its
#: kinematics are one batch-kernel call.  Enough that a block's numpy calls
#: cost little per step, few enough that its lists stay small however long
#: the run
RUN_BLOCK = 512


def _columns(values, size: int) -> np.ndarray:
    """``values``, each a float or an array of ``size`` per-step values, as
    the columns of one ``(size, len(values))`` array."""
    out = np.empty((size, len(values)))
    for j, v in enumerate(values):
        out[:, j] = v
    return out


def run_scenario(scenario: Scenario) -> SimLog:
    """Run one scenario to completion and return the log.

    Everything that does not depend on the plant state is computed once,
    before the loop, as whole-run arrays: the step times, the sEMG
    activation and gate, the equilibrium point with the gated shift, the
    scripted human trajectory and the contact target velocity; the
    controller was checked at load.  Vectors split at ``m``: limb joints
    come first, then the position-driven human joints, whose required
    torques are reported, not applied.

    Both modes walk the run in blocks of ``RUN_BLOCK`` steps: the block's
    rows of those arrays become float lists, and when the block ends its
    rows go into the log in one ``append``, which fills their ``f_mount``
    cells, sets the support force's sign and checks them whole, so what
    the run holds beside the log is bounded by a block.  In
    tracking mode a block is one call of the code ``_tracking_block``
    generates for the plant's run-kernel source and the run's shape,
    compiled on the first run of that shape: per step, inline, the run
    kernel's lines, the contact rows and their floor, the control law, J^T
    f, gravity load and friction on the limb's joints, and the contact
    solve that advances them and gives the human joints' torques; the
    block is passed the run kernel too, which only a test's source calls.
    In inverse dynamics the SRL posture is held and every
    state is scripted, so one batch-kernel call and one ``control_force``
    call on per-component arrays give a block's kinematics and commanded
    force, to the bit what the run kernel and the law give step by step,
    and the block's contact rows come from one array (a step whose
    Jacobian is not finite, or fails ``contact_jacobian``'s floor, calls
    it); per step only the split of the required force (``decouple``)
    remains, and without contact nothing does.  Each error is raised at its
    step with its message, after the first NaN or Inf of an earlier row
    (mount cells filled).  Steps past such a row run on to the block's end,
    where only a ``SuperlimbError`` can stop them: load rules keep every
    angle that reaches ``cos`` finite.
    """
    model, sim, ctrl_cfg = scenario.model, scenario.sim, scenario.controller
    n, m = model.n_dof, len(model.srl_indices)
    spec = scenario.contact.spec if scenario.contact else None

    try:
        t_sim = np.arange(sim.n_steps) * sim.dt
    except (MemoryError, ValueError) as exc:  # more steps than numpy can allocate
        raise ParseError("sim.duration", f"{sim.n_steps:.4g} steps do not fit in memory") from exc
    act, gate, dxeq = _emg_channel(scenario, t_sim)
    rows = [AXES.index(c) for c in ctrl_cfg.components]
    task = model.link_index(ctrl_cfg.chain, ctrl_cfg.joint)
    x_eq = _equilibrium_points(scenario, task, rows, dxeq)
    q_end, qd_end, qdd_in = _scripted_motion(scenario, t_sim)
    v_target = _contact_velocity(scenario, t_sim)
    log = SimLog(scenario, t_sim, act, gate, x_eq)

    # the control law and friction as float lists, once per run
    k_task, f_gravity, damping = (None if v is None else np.asarray(v, dtype=float).tolist()
                                  for v in (ctrl_cfg.table[ctrl_cfg.level - 1],
                                            ctrl_cfg.f_gravity, ctrl_cfg.damping))
    fr = ctrl_cfg.friction
    friction = fr and (fr.coulomb.tolist(), fr.viscous.tolist(), fr.stiction_breakaway_ratio)
    inverse = sim.mode == "inverse-dynamics"
    contact_link = model.link_index(spec.chain, spec.joint) if spec else None
    if inverse:
        kernel = model._batch_kernel
    else:
        track = _tracking_block(model._kernel_source, n, m, task, tuple(rows), contact_link,
                                spec.directions if spec else (), ctrl_cfg.enabled,
                                damping is not None, friction is not None)

    q, qd = model.q0.tolist(), [0.0] * n  # the state the next step starts from
    for lo in range(0, sim.n_steps, RUN_BLOCK):
        hi = min(lo + RUN_BLOCK, sim.n_steps)
        size, qdd, error = hi - lo, qdd_in[lo:hi].tolist(), None
        block, mount = [], []  # in tracking, each step's row and Kinematics.mount
        if inverse:
            # the block's starting states, a joint per row: where the last
            # step ended, then the script's ends of the block's steps
            q, qd = (np.vstack((start, end[lo : hi - 1])).T.copy()
                     for start, end in ((q, q_end), (qd, qd_end)))
            # the scalar step overflows to Inf and NaN without a warning, too
            with np.errstate(over="ignore", invalid="ignore"):
                kin = kernel(q, qd)
                tip = kin.tip[task]
                x = [tip[r] for r in rows]
                if ctrl_cfg.enabled:
                    vel = kin.tip_vel[task]
                    f_cmd = control_force(k_task, f_gravity, damping, x_eq[lo:hi].T, x,
                                          [vel[r] for r in rows])
                else:
                    f_cmd = [0.0] * len(rows)
                if spec is None:  # nothing to split: the joints need A qdd + h
                    tau = _columns([sum(map(mul, row, qdd_in[lo:hi].T)) + hj
                                    for row, hj in zip(kin.a, kin.h)], size)
                    lam = np.empty((size, 0))
                else:
                    jx, jz = kin.tip_jac[contact_link]
                    jac = _columns(jx + jz, size).reshape(size, 2, n)
                    # a step whose entries are finite and whose rows pass contact_jacobian's
                    # floor takes its rows from one tolist; any other step calls it, in turn
                    peak = np.abs(jac).max(axis=2)
                    floor = QR_RANK_RTOL * peak.max(axis=1, keepdims=True)
                    clean = np.isfinite(jac).all(axis=(1, 2)) & (peak[:, spec.rows] >= floor).all(1)
                    j_cs = [r if ok else None for r, ok in zip(jac[:, spec.rows].tolist(), clean)]
                    a_rows = _columns([v for row in kin.a for v in row], size)
                    a_rows = a_rows.reshape(size, n, n).tolist()
                    h_rows = _columns(kin.h, size).tolist()
            heads = _columns([*q[:m], *qd[:m], *x, *f_cmd], size)
            mount = _columns(kin.mount, size)
            q, qd = q_end[hi - 1], qd_end[hi - 1]
        else:
            x_eqs, v_targets, q_ends, qd_ends = (
                v[lo:hi].tolist() for v in (x_eq, v_target, q_end, qd_end))
        try:
            if not inverse:
                q, qd = track(model._kernel, q, qd, x_eqs, v_targets, q_ends, qd_ends, qdd,
                              k_task, f_gravity, damping, friction, sim.dt, block, mount)
            elif spec is not None:  # per step, only the split
                split = []
                for j, (a_j, h_j, j_c, dd) in enumerate(zip(a_rows, h_rows, j_cs, qdd)):
                    split.append(dynamics.decouple(
                        (a_j, h_j, j_c or contact_jacobian(jac[j].tolist(), spec), dd)))
        except SuperlimbError as exc:
            error = exc
        if inverse:
            if spec is not None:
                size = len(split)  # the steps before an error
                tau, lam = (np.reshape([s[i] for s in split], (size, w))
                            for i, w in ((0, n), (1, len(spec.rows))))
            block = np.hstack((heads[:size], lam, np.zeros((size, 2)), tau))
        # a NaN or Inf in a row before a step's own error is the first error
        log.append(block, mount, qdd)
        if error is not None:
            raise _at_step(error, len(log), t_sim[len(log)])
    return log
