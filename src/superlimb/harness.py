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
    HillParams,
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
from .plant import PlantModel, PlantState
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
    v_target: np.ndarray | None,
    scripted_next: tuple[np.ndarray, np.ndarray] | None,
    qdd_scripted: np.ndarray | None,
) -> StepResult:
    """Semi-implicit Euler step of the free DoFs with optional bilateral
    contact and optional position-driven (scripted) DoFs.

    ``a`` and ``h`` are the state's inertia matrix and bias; ``free`` and
    ``scripted`` partition the DoFs."""
    q, qd = state.q, state.qd
    for name, arr in (("q", q), ("qd", qd), ("tau_total", tau_total)):
        if not np.isfinite(arr).all():
            raise NonFinite(f"{name} contains NaN or Inf")

    qdd = np.zeros(q.size)
    if scripted.size:
        qdd[scripted] = qdd_scripted
    qd_next = qd.copy()
    q_next = q.copy()
    if scripted.size:
        q_next[scripted], qd_next[scripted] = scripted_next

    lam = np.zeros(0)
    if free.size:
        a_f = a[free]
        a_ff = a_f[:, free]
        rhs = tau_total[free] - h[free]
        if scripted.size:
            rhs = rhs - a_f[:, scripted] @ qdd[scripted]
        cho = cholesky(
            a_ff, RankDeficient, "inertia of the free joints is not positive definite"
        )
        qdd_free = cholesky_solve(cho, rhs)
        if j_c is not None:
            j_f = j_c[:, free]
            k = j_c.shape[0]
            vt = np.zeros(k) if v_target is None else np.asarray(v_target, dtype=float)
            if vt.shape != (k,):
                raise DimensionMismatch(
                    f"v_target must have shape ({k},), got {vt.shape}"
                )
            minv_jt = cholesky_solve(cho, j_f.T)
            gram = j_f @ minv_jt
            qd_free_pred = qd[free] + dt * qdd_free
            resid = vt - j_c[:, scripted] @ qd_next[scripted] - j_f @ qd_free_pred
            gram_cho = cholesky(
                gram, RankDeficient, "contact directions are not independent at this posture"
            )
            lam = cholesky_solve(gram_cho, resid / dt)
            qdd_free = qdd_free + minv_jt @ lam
        qdd[free] = qdd_free
        qd_next[free] = qd[free] + dt * qdd[free]
        q_next[free] = q[free] + dt * qd_next[free]
    elif j_c is not None:
        # fully scripted motion against a contact: force split is handled
        # by the caller through the decoupling path
        lam = np.zeros(j_c.shape[0])

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
    is solved for and applied on top.
    """
    if not (dt > 0.0):
        raise ValidationError(f"dt must be > 0, got {dt}")
    state = model.state(q, qd)
    tau = np.atleast_1d(np.asarray(tau_total, dtype=float))
    if tau.shape != (model.n_dof,):
        raise DimensionMismatch(
            f"tau_total must have shape ({model.n_dof},), got {tau.shape}"
        )
    j_c = contact_jacobian(model, state.q, contact, state=state) if contact else None
    return _advance(
        state,
        state.mass_matrix(),
        state.bias(),
        tau,
        dt,
        free=np.arange(model.n_dof),
        scripted=np.zeros(0, dtype=int),
        j_c=j_c,
        v_target=v_target,
        scripted_next=None,
        qdd_scripted=None,
    )


# --- logging ------------------------------------------------------------------


class SimLog:
    """Step log as one preallocated ``(n_steps, n_cols)`` float array plus
    the CSV column layout: time, SRL state, task-space quantities, the
    contact force on the supported object, mount reaction on the wearer,
    applied/required torques and the sEMG-derived command channel."""

    def __init__(self, scenario: Scenario):
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
        cols += ["a", "gate"]
        cols += [f"x_eq_{c}" for c in components]
        self.columns = cols
        self._data = np.empty((scenario.sim.n_steps, len(cols)))
        self._n = 0

    def append(
        self, t, q_s, qdot_s, x, f_cmd, lam, f_mount, tau_s, tau_h, a, gate, x_eq
    ):
        """Store one step's values in column order; ``gate`` is kept as
        0.0/1.0."""
        self._data[self._n] = np.hstack(
            (t, q_s, qdot_s, x, f_cmd, lam, f_mount, tau_s, tau_h, a, gate, x_eq)
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
        for i, d in enumerate(contact.spec.directions):
            f_contact[0 if d == "x" else 1] += lam_robot[i]
    return f_contact - total


def run_scenario(scenario: Scenario) -> SimLog:
    """Run one scenario to completion and return the log.

    Per step: sample the sEMG channel, apply the gated equilibrium-point
    shift, evaluate the task-space controller, map to joint torques, add
    friction, solve the contact force, and advance the plant.  Scripted
    (human) joints are position-driven and their required torques are
    reported, not applied.
    """
    model = scenario.model
    sim = scenario.sim
    ctrl_cfg = scenario.controller
    n = model.n_dof
    srl = np.array(model.srl_indices, dtype=int)
    human = np.array(model.human_indices, dtype=int)

    n_steps = sim.n_steps
    t_sim = np.arange(n_steps) * sim.dt
    act_arr, gate_arr, dxeq_arr = _emg_channel(scenario, t_sim)

    comps = ctrl_cfg.components
    comp_rows = np.array([0 if c == "x" else 1 for c in comps], dtype=int)
    m = len(comps)
    z_slot = comps.index("z") if "z" in comps else None

    ctrl = TaskSpaceController(
        k_task=ctrl_cfg.table[ctrl_cfg.level - 1],
        x_eq=np.zeros(m),
        f_gravity=ctrl_cfg.f_gravity,
        level=ctrl_cfg.level,
        damping=ctrl_cfg.damping,
    )

    q = model.q0.copy()
    qd = np.zeros(n)
    q_h0 = q[human]

    log = SimLog(scenario)
    x_eq0: np.ndarray | None = (
        None if ctrl_cfg.x_eq is None else ctrl_cfg.x_eq.copy()
    )

    inverse_mode = sim.mode == "inverse-dynamics"
    if inverse_mode:
        from .dynamics import DynamicsSnapshot, decouple

    for i in range(n_steps):
        t = float(i * sim.dt)
        try:
            state = model.state(q, qd)
            a_mat = state.mass_matrix()
            h_vec = state.bias()

            # task-point kinematics
            pk = state.point(ctrl_cfg.chain, joint=ctrl_cfg.joint, at="tip")
            x = pk.pos[comp_rows]
            xd = pk.vel[comp_rows]
            j_task = pk.jac[comp_rows, :]
            if x_eq0 is None:
                x_eq0 = x.copy()

            # sEMG channel -> equilibrium shift (exactly zero when ungated)
            dxeq = float(dxeq_arr[i])
            if dxeq != 0.0 and z_slot is not None:
                x_eq_t = x_eq0.copy()
                x_eq_t[z_slot] += dxeq
            else:
                x_eq_t = x_eq0

            # controller
            if ctrl_cfg.enabled:
                f_cmd = control_force(ctrl, x, xd, x_eq=x_eq_t)
                tau_task = task_to_joint_torque(j_task, f_cmd)
            else:
                f_cmd = np.zeros(m)
                tau_task = np.zeros(n)
            tau_applied = np.zeros(n)
            tau_applied[srl] = tau_task[srl]
            if ctrl_cfg.enabled and ctrl_cfg.gravity_compensation and srl.size:
                tau_applied[srl] += state.gravity_vector()[srl]
            if ctrl_cfg.friction is not None and srl.size:
                tau_applied[srl] += friction_torque(
                    ctrl_cfg.friction, qd[srl], tau_applied[srl]
                )

            # scripted human trajectory
            if human.size:
                dq_now, _, qdd_h = scenario.human_motion.offsets(t, human.size)
                dq_next, dv_next, _ = scenario.human_motion.offsets(
                    t + sim.dt, human.size
                )
                scripted_next = (q_h0 + dq_next, dv_next)
            else:
                qdd_h = np.zeros(0)
                scripted_next = (np.zeros(0), np.zeros(0))

            # contact
            j_c = None
            v_target = None
            if scenario.contact is not None:
                j_c = contact_jacobian(
                    model, q, scenario.contact.spec, state=state
                )
                k = j_c.shape[0]
                v_target = np.zeros(k)
                motion = scenario.contact.motion
                if motion.kind == "triangle":
                    axis_row = scenario.contact.spec.directions.index(motion.axis)
                    v_target[axis_row] = motion.velocity(t)

            if inverse_mode:
                # hold the SRL posture, drive the human: required torques
                # and the force split come from inverse dynamics
                qdd_full = np.zeros(n)
                qdd_full[human] = qdd_h
                if j_c is not None:
                    snap = DynamicsSnapshot(
                        a=a_mat, h_bias=h_vec, j_c=j_c, qdd=qdd_full
                    )
                    sol = decouple(snap)
                    tau_req, lam_robot = sol.tau, sol.lam
                else:
                    tau_req = a_mat @ qdd_full + h_vec
                    lam_robot = np.zeros(0)
                tau_s_out = tau_req[srl]
                tau_h_out = tau_req[human]
                qdd = qdd_full
                q_next, qd_next = q.copy(), qd.copy()
                q_next[human], qd_next[human] = scripted_next
            else:
                step = _advance(
                    state,
                    a_mat,
                    h_vec,
                    tau_applied,
                    sim.dt,
                    free=srl,
                    scripted=human,
                    j_c=j_c,
                    v_target=v_target,
                    scripted_next=scripted_next if human.size else None,
                    qdd_scripted=qdd_h if human.size else None,
                )
                q_next, qd_next, qdd, lam_robot = step.q, step.qd, step.qdd, step.lam
                tau_s_out = tau_applied[srl]
                if human.size:
                    gen = a_mat @ qdd + h_vec
                    if j_c is not None and lam_robot.size:
                        gen = gen - j_c.T @ lam_robot
                    tau_h_out = gen[human]
                else:
                    tau_h_out = np.zeros(0)

            f_mount = _mount_force(state, qdd, lam_robot, scenario)
            log.append(
                t, q[srl], qd[srl], x, f_cmd,
                -lam_robot,  # force on the supported object
                f_mount, tau_s_out, tau_h_out, act_arr[i], gate_arr[i], x_eq_t,
            )
            q, qd = q_next, qd_next
        except SuperlimbError as exc:
            first = str(exc.args[0]) if exc.args else str(exc)
            exc.args = (f"[step {i}, t={t:.6g}s] {first}",)
            raise
    return log
