"""Deterministic fixed-step simulator.

Runs a scenario end to end: synthetic or replayed sEMG feeds the motion
gate and equilibrium-point shift, the task-space stiffness controller
produces joint torques, joint friction is applied, and the coupled plant
is integrated with a semi-implicit Euler step.  A bilateral point contact
(the supported panel) is enforced by solving for the constraint force
that makes the post-step contact velocity match the scripted support
motion; for a static support with a clean initial state this is exactly
the zero-contact-acceleration condition, and it does not drift.

Sign conventions: the constraint force returned by the dynamics layer
acts on the robot; logs report ``lambda`` as the force exerted on the
supported object (the negative), so pressing up against an overhead
panel logs positive vertical support force.  ``f_mount`` is the force
the wearer feels at the harness mount (device weight plus transmitted
reaction), and ``tau_h`` the joint torques the scripted human sub-chain
must supply.

Everything is deterministic: a scenario plus a seed reproduces CSV logs
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import butter, filtfilt

from .dynamics import contact_jacobian
from .emg import (
    DEFAULT_BAND,
    DEFAULT_WINDOW,
    EmgTrace,
    bandpass,
    envelope,
    rectify,
    run_pipeline,
    write_csv,
    zero_order_hold,
)
from .errors import (
    DimensionMismatch,
    NonFinite,
    NumericBlowup,
    RankDeficient,
    SuperlimbError,
    ValidationError,
)
from .numerics import cholesky, cholesky_solve
from .plant import AXES, PlantModel, PlantState
from .scenario import ActivationProfile, Scenario
from .stiffness import (
    TaskSpaceController,
    control_force,
    friction_torque,
    task_to_joint_torque,
)

BLOWUP_LIMIT = 1e9


# --- synthetic sEMG -----------------------------------------------------------


def generate_emg(
    profile: ActivationProfile,
    fs: float,
    seed: int,
    mvc_reference: float = 1.0,
    band: tuple[float, float] = DEFAULT_BAND,
    window: float = DEFAULT_WINDOW,
) -> EmgTrace:
    """Synthesize a single-channel sEMG trace following an activation
    schedule.

    Band-limited zero-mean noise is amplitude-modulated by the profile and
    calibrated through the actual downstream chain (band-pass, rectify,
    moving RMS), so a fully-on segment lands its envelope at
    ``mvc_reference``.  Identical seeds give identical traces.
    """
    if not (fs > 0.0):
        raise ValidationError(f"fs must be positive, got {fs}")
    if not (0.0 < mvc_reference < np.inf):
        raise ValidationError(f"mvc_reference must be finite and > 0, got {mvc_reference}")
    n = int(round(profile.duration * fs))
    if n < 2:
        raise ValidationError("profile duration too short at this sample rate")
    t = np.arange(n) / fs
    levels = profile.sample(t)
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(n)
    b, a = butter(1, list(band), btype="bandpass", fs=fs)
    carrier = filtfilt(b, a, white)
    rms = float(np.sqrt(np.mean(carrier * carrier)))
    if rms <= 0.0:
        raise ValidationError("degenerate noise carrier")
    carrier = carrier / rms
    # calibrate against the processing the consumer will actually apply
    unit = EmgTrace(fs=fs, channels=(("cal", carrier),))
    env = envelope(rectify(bandpass(unit, *band)), window).channels[0][1]
    settle = min(int(round(window * fs)), n - 1)
    kappa = float(np.median(env[settle:]))
    if kappa <= 0.0:
        raise ValidationError("envelope calibration failed")
    samples = levels * carrier * (mvc_reference / kappa)
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


def _advance(
    state: PlantState,
    a: np.ndarray,
    h: np.ndarray,
    tau_total: np.ndarray,
    dt: float,
    free: np.ndarray,
    scripted: np.ndarray,
    j_c: np.ndarray | None,
    v_target: np.ndarray,
    q_next: np.ndarray,
    qd_next: np.ndarray,
    qdd: np.ndarray,
) -> StepResult:
    """Semi-implicit Euler step of the free DoFs with optional bilateral
    contact.

    ``a`` and ``h`` are the state's inertia matrix and bias; ``free`` and
    ``scripted`` partition the DoFs.  ``q_next``, ``qd_next`` and ``qdd``
    are full-length arrays whose scripted entries already hold the
    position and velocity at the end of the step and the acceleration
    during it; the free entries are filled in place.  ``v_target`` is the
    contact point's target velocity along the rows of ``j_c``."""
    q, qd = state.q, state.qd
    for name, arr in (("q", q), ("qd", qd), ("tau_total", tau_total)):
        if not np.isfinite(arr).all():
            raise NonFinite(f"{name} contains NaN or Inf")

    # with nothing free the split of a contact force is left to the caller
    lam = np.zeros(0 if j_c is None else j_c.shape[0])
    if free.size:
        a_f = a[free]
        rhs = tau_total[free] - h[free] - a_f[:, scripted] @ qdd[scripted]
        cho = cholesky(
            a_f[:, free], RankDeficient, "inertia of the free joints is not positive definite"
        )
        qdd_free = cholesky_solve(cho, rhs)
        if j_c is not None:
            j_f = j_c[:, free]
            minv_jt = cholesky_solve(cho, j_f.T)
            gram = j_f @ minv_jt
            qd_free_pred = qd[free] + dt * qdd_free
            resid = v_target - j_c[:, scripted] @ qd_next[scripted] - j_f @ qd_free_pred
            gram_cho = cholesky(
                gram, RankDeficient, "contact directions are not independent at this posture"
            )
            lam = cholesky_solve(gram_cho, resid / dt)
            qdd_free = qdd_free + minv_jt @ lam
        qdd[free] = qdd_free
        qd_next[free] = qd[free] + dt * qdd[free]
        q_next[free] = q[free] + dt * qd_next[free]

    # NaN-aware: np.maximum propagates NaN, and NaN fails the comparison
    peak = np.maximum(np.max(np.abs(q_next)), np.max(np.abs(qd_next)))
    if not peak <= BLOWUP_LIMIT:
        raise NumericBlowup(
            f"state magnitude exceeded {BLOWUP_LIMIT:g} (max {peak:.3e})"
        )
    return StepResult(q=q_next, qd=qd_next, qdd=qdd, lam=lam)


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
    tau = np.atleast_1d(np.asarray(tau_total, dtype=float))
    if tau.shape != (n,):
        raise DimensionMismatch(f"tau_total must have shape ({n},), got {tau.shape}")
    j_c, vt = None, np.zeros(0)
    if contact:
        j_c = contact_jacobian(model, state.q, contact, state=state)
        k = j_c.shape[0]
        vt = np.zeros(k) if v_target is None else np.asarray(v_target, dtype=float)
        if vt.shape != (k,):
            raise DimensionMismatch(f"v_target must have shape ({k},), got {vt.shape}")
    return _advance(
        state, state.mass_matrix(), state.bias(), tau, dt,
        free=np.arange(n), scripted=np.zeros(0, dtype=int), j_c=j_c, v_target=vt,
        q_next=np.zeros(n), qd_next=np.zeros(n), qdd=np.zeros(n),
    )


# --- logging ------------------------------------------------------------------


class SimLog:
    """Step log as one preallocated ``(n_steps, n_cols)`` float array plus
    the CSV column layout: time, SRL state, task-space quantities, the
    contact force on the supported object, mount reaction on the wearer,
    applied/required torques and the sEMG-derived command channel.

    The columns that do not depend on the plant state (``t``, ``a``,
    ``gate`` kept as 0.0/1.0, ``x_eq_*``) are given whole at construction;
    ``append`` fills the rest of one row."""

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
        cols += ["f_mount_x", "f_mount_z"]
        cols += [f"tau_s{i}" for i in range(n_s)]
        cols += [f"tau_h{i}" for i in range(n_h)]
        self._state_end = len(cols)
        cols += ["a", "gate"]
        cols += [f"x_eq_{c}" for c in components]
        self.columns = cols
        self._data = np.empty((scenario.sim.n_steps, len(cols)))
        self._data[:, 0] = t
        self._data[:, self._state_end:] = np.column_stack((a, gate, x_eq))
        self._n = 0

    def append(self, q_s, qdot_s, x, f_cmd, lam, f_mount, tau_s, tau_h):
        """Store one step's state-dependent values in column order."""
        self._data[self._n, 1 : self._state_end] = np.hstack(
            (q_s, qdot_s, x, f_cmd, lam, f_mount, tau_s, tau_h)
        )
        self._n += 1

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
        trace = generate_emg(
            emg.profile,
            emg.profile.fs,
            emg.seed,
            mvc_reference=emg.hill.mvc_reference,
            band=emg.band,
            window=emg.window,
        )
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


def _mount_force(
    state: PlantState, qdd: np.ndarray, lam_robot: np.ndarray, scenario: Scenario
) -> np.ndarray:
    """Force on the wearer at the harness mount (world x, z).

    Newton over the SRL links: the mount supplies whatever the contact
    force and gravity do not, so a resting unloaded device weighs on the
    wearer and pressing upward adds the transmitted reaction.
    """
    model = state.model
    g_vec = np.array([0.0, -model.gravity])
    jac, acc_bias = state._jac_com, state._com_acc
    total = np.zeros(2)
    for lk, mass in model._srl_links:
        acc = jac[lk] @ qdd + acc_bias[lk]
        total += mass * (acc - g_vec)
    f_contact = np.zeros(2)
    contact = scenario.contact
    if contact is not None and lam_robot.size and contact.spec.chain in model._srl_chains:
        for row, lam in zip(contact.spec.rows, lam_robot):
            f_contact[row] += lam
    return f_contact - total


def _equilibrium_points(scenario: Scenario, rows: list[int], dxeq: np.ndarray) -> np.ndarray:
    """Equilibrium point of every step, ``(n_steps, m)``: the configured
    point (for "auto" the task point at ``q0``) with the gated sEMG shift
    added on ``z`` wherever it is nonzero."""
    cfg = scenario.controller
    x_eq0 = cfg.x_eq
    if x_eq0 is None:
        st = scenario.model.state(scenario.model.q0)
        x_eq0 = st._tip[st._link_index(cfg.chain, cfg.joint)][rows]
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
        offsets, q_h0 = scenario.human_motion.offsets, q0[human]
        for i, t in enumerate(t_sim.tolist()):
            qdd[i, human] = offsets(t, human.size)[2]
            dq, qd_end[i, human], _ = offsets(t + dt, human.size)
            q_end[i, human] = q_h0 + dq
    return q_end, qd_end, qdd


def _contact_velocity(scenario: Scenario, t_sim: np.ndarray) -> np.ndarray:
    """Target velocity of the contact point along its constrained rows at
    every step, ``(n_steps, k)``: zero except on the swept axis."""
    contact = scenario.contact
    v = np.zeros((t_sim.size, len(contact.spec.directions) if contact else 0))
    if contact is not None and contact.motion.kind == "triangle":
        motion = contact.motion
        axis = contact.spec.directions.index(motion.axis)
        v[:, axis] = [motion.velocity(t) for t in t_sim.tolist()]
    return v


def run_scenario(scenario: Scenario) -> SimLog:
    """Run one scenario to completion and return the log.

    Everything that does not depend on the plant state is computed once,
    before the loop: the step times, the sEMG activation and gate, the
    equilibrium point with the gated shift, the scripted human trajectory
    and the contact target velocity.  Per step the loop evaluates the
    plant, the task-space controller, joint torques and friction, solves
    the contact force and advances the plant.  Scripted (human) joints are
    position-driven and their required torques are reported, not applied.
    """
    model = scenario.model
    sim = scenario.sim
    ctrl_cfg = scenario.controller
    n = model.n_dof
    srl = model.srl_indices
    human = model.human_indices
    spec = scenario.contact.spec if scenario.contact else None

    t_sim = np.arange(sim.n_steps) * sim.dt
    act, gate, dxeq = _emg_channel(scenario, t_sim)
    rows = [AXES.index(c) for c in ctrl_cfg.components]
    x_eq = _equilibrium_points(scenario, rows, dxeq)
    q_end, qd_end, qdd_in = _scripted_motion(scenario, t_sim)
    v_target = _contact_velocity(scenario, t_sim)
    log = SimLog(scenario, t_sim, act, gate, x_eq)

    ctrl = TaskSpaceController(
        k_task=ctrl_cfg.table[ctrl_cfg.level - 1],
        x_eq=np.zeros(len(rows)),
        f_gravity=ctrl_cfg.f_gravity,
        level=ctrl_cfg.level,
        damping=ctrl_cfg.damping,
    )
    inverse_mode = sim.mode == "inverse-dynamics"
    if inverse_mode:
        from .dynamics import DynamicsSnapshot, decouple

    q, qd = model.q0, np.zeros(n)
    for i in range(sim.n_steps):
        try:
            state = model.state(q, qd)
            a_mat = state.mass_matrix()
            h_vec = state.bias()

            # task point and control law
            pk = state.point(ctrl_cfg.chain, joint=ctrl_cfg.joint, at="tip")
            x = pk.pos[rows]
            if ctrl_cfg.enabled:
                f_cmd = control_force(ctrl, x, pk.vel[rows], x_eq=x_eq[i])
                tau_task = task_to_joint_torque(pk.jac[rows, :], f_cmd)
            else:
                f_cmd = np.zeros(len(rows))
                tau_task = np.zeros(n)
            tau_applied = np.zeros(n)
            tau_applied[srl] = tau_task[srl]
            if ctrl_cfg.enabled and ctrl_cfg.gravity_compensation and srl.size:
                tau_applied[srl] += state.gravity_vector()[srl]
            if ctrl_cfg.friction is not None and srl.size:
                tau_applied[srl] += friction_torque(
                    ctrl_cfg.friction, qd[srl], tau_applied[srl]
                )

            j_c = contact_jacobian(model, q, spec, state=state) if spec else None
            q_next, qd_next, qdd = q_end[i], qd_end[i], qdd_in[i]
            if inverse_mode:
                # hold the SRL posture, drive the human: required torques
                # and the force split come from inverse dynamics
                if j_c is None:
                    tau_req, lam_robot = a_mat @ qdd + h_vec, np.zeros(0)
                else:
                    snap = DynamicsSnapshot(a=a_mat, h_bias=h_vec, j_c=j_c, qdd=qdd)
                    sol = decouple(snap)
                    tau_req, lam_robot = sol.tau, sol.lam
                tau_s = tau_req[srl]
            else:
                lam_robot = _advance(
                    state, a_mat, h_vec, tau_applied, sim.dt, srl, human,
                    j_c, v_target[i], q_next, qd_next, qdd,
                ).lam
                tau_req = a_mat @ qdd + h_vec
                if j_c is not None:
                    tau_req = tau_req - j_c.T @ lam_robot
                tau_s = tau_applied[srl]

            f_mount = _mount_force(state, qdd, lam_robot, scenario)
            log.append(
                q[srl], qd[srl], x, f_cmd,
                -lam_robot,  # force on the supported object
                f_mount, tau_s, tau_req[human],
            )
            q, qd = q_next, qd_next
        except SuperlimbError as exc:
            first = str(exc.args[0]) if exc.args else str(exc)
            exc.args = (f"[step {i}, t={t_sim[i]:.6g}s] {first}",)
            raise
    return log
