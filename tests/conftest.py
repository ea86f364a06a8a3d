"""Shared fixtures: the two reference plants used across the test suite,
the reference loop step kernel and a batch kernel built from it row by row,
the reference loop Cholesky solve, the reference list-based contact solve,
Gram-Schmidt QR and inverse-dynamics split, the step-by-step
inverse-dynamics run, the reference CSV writer and its multiplier table, a
reference finite-difference stencil, and the stability certificate's
cross-check evaluated one pose at a time."""

import csv
import math
import os
from array import array
from functools import reduce
from itertools import chain
from math import cos, hypot, isfinite, nan, sin, sqrt
from operator import add, mul

import numpy as np
import pytest

from superlimb import dynamics, harness, stability
from superlimb.dynamics import contact_jacobian
from superlimb.emg import _first_line_not_utf8, check_gate
from superlimb.errors import (
    DimensionMismatch,
    MissingFile,
    NonFinite,
    NumericBlowup,
    RankDeficient,
    SingularWeight,
    SuperlimbError,
    ValidationError,
)
from superlimb.harness import BLOWUP_LIMIT
from superlimb.numerics import GRAM_PIVOT_RTOL, _as_array, check_rank, default_fd_step
from superlimb.plant import AXES, REVOLUTE, Chain, Joint, Kinematics, PlantModel
from superlimb.stiffness import control_force, friction_torque, task_to_joint_torque

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def left_sum(terms):
    """``sum(terms)`` as one left-to-right fold from 0: the order in which the
    generated code adds.  The reference loops add with it, so that they do
    not depend on the interpreter's ``sum()``, which Python 3.12 compensates
    for floats."""
    return reduce(add, terms, 0)


def scenario_path(name: str) -> str:
    return os.path.abspath(os.path.join(SCENARIO_DIR, name))


def desk_arm_dict() -> dict:
    """Desk-scale plant: 3-revolute overhead limb + 1-DoF vertical trunk sway."""
    return {
        "gravity": 9.81,
        "chains": [
            {
                "name": "arm", "role": "srl", "base": [0.0, 0.0], "heading": 1.0,
                "joints": [
                    {"kind": "revolute", "mass": 1.5, "length": 0.35,
                     "com": 0.17, "inertia": 0.015, "q0": 0.3},
                    {"kind": "revolute", "mass": 1.0, "length": 0.3,
                     "com": 0.15, "inertia": 0.008, "q0": -0.5},
                    {"kind": "revolute", "mass": 0.6, "length": 0.25,
                     "com": 0.12, "inertia": 0.004, "q0": 0.4},
                ],
            },
            {
                "name": "trunk", "role": "human", "base": [-0.3, 0.0],
                "heading": math.pi / 2.0,
                "joints": [
                    {"kind": "prismatic", "mass": 55.0, "length": 0.0,
                     "com": 0.0, "q0": 0.0},
                ],
            },
        ],
    }


def desk_arm_model() -> PlantModel:
    return PlantModel(
        chains=(
            Chain(
                name="arm", role="srl", base=(0.0, 0.0), heading=1.0,
                joints=(
                    Joint(kind="revolute", mass=1.5, length=0.35, com=0.17,
                          inertia=0.015, q0=0.3),
                    Joint(kind="revolute", mass=1.0, length=0.3, com=0.15,
                          inertia=0.008, q0=-0.5),
                    Joint(kind="revolute", mass=0.6, length=0.25, com=0.12,
                          inertia=0.004, q0=0.4),
                ),
            ),
            Chain(
                name="trunk", role="human", base=(-0.3, 0.0),
                heading=math.pi / 2.0,
                joints=(Joint(kind="prismatic", mass=55.0, length=0.0, com=0.0),),
            ),
        ),
        gravity=9.81,
    )


def reference_fd_jacobian(f, p0) -> np.ndarray:
    """``numerics.finite_diff_jacobian`` as a plain loop that builds each
    offset from zeros: the reference its stencil must match bit for bit."""
    p = _as_array(p0, "p0", 1)
    h = default_fd_step(p)
    f0 = np.atleast_1d(np.asarray(f(p), dtype=float))
    jac = np.zeros((f0.size, p.size))
    for i in range(p.size):
        dp = np.zeros_like(p)
        dp[i] = h[i]
        fp = np.atleast_1d(np.asarray(f(p + dp), dtype=float))
        fm = np.atleast_1d(np.asarray(f(p - dp), dtype=float))
        jac[:, i] = (fp - fm) / (2.0 * h[i])
    if not np.all(np.isfinite(jac)):
        raise NonFinite("map returned NaN/Inf during differentiation")
    return jac


def reference_fd_hessian(f, p0) -> np.ndarray:
    """``numerics.finite_diff_hessian`` as a plain loop that builds each
    offset from zeros: the reference its stencil must match bit for bit."""
    p = _as_array(p0, "p0", 1)
    m = p.size
    h = default_fd_step(p)

    def ev(dp):
        v = float(f(p + dp))
        if not np.isfinite(v):
            raise NonFinite("function returned NaN/Inf during differentiation")
        return v

    hess = np.zeros((m, m))
    f0 = ev(np.zeros_like(p))
    for i in range(m):
        ei = np.zeros_like(p)
        ei[i] = h[i]
        hess[i, i] = (ev(ei) - 2.0 * f0 + ev(-ei)) / (h[i] * h[i])
        for j in range(i + 1, m):
            ej = np.zeros_like(p)
            ej[j] = h[j]
            val = (ev(ei + ej) - ev(ei - ej) - ev(-ei + ej) + ev(-ei - ej)) / (
                4.0 * h[i] * h[j]
            )
            hess[i, j] = val
            hess[j, i] = val
    return hess


def reference_potential(posture, p) -> float:
    """``stability.potential`` of one pose, as it was before it took stacks
    of poses: the reference its stacked form must match bit for bit."""
    pv = np.array(p, dtype=float, ndmin=1, copy=None)
    if pv.shape != (posture.n_pose,):
        raise DimensionMismatch(f"p must have shape ({posture.n_pose},), got {pv.shape}")
    dq = stability._ik(posture, pv) - posture.q_bar
    return float(
        posture.mass * stability.GRAVITY * stability._z(posture, pv)
        - posture.tau_bar @ dq
        + 0.5 * dq @ posture.k_q @ dq
    )


def _reference_stiffness_matrix_kp(posture):
    res, z_max = stability._residual(posture)
    res_inf = float(np.max(np.abs(res))) if res.size else 0.0
    weight = posture.mass * stability.GRAVITY
    h_min = float(np.min(default_fd_step(posture.p_bar)))
    bound = stability.RESIDUAL_TOL * max(1.0, weight) + weight * stability.EPS * z_max / h_min
    if res_inf > bound:
        raise ValidationError(
            f"posture is not an equilibrium (residual {res_inf:.3e} N, bound {bound:.3e} N)"
        )
    base, j = stability._base_stiffness(posture)
    k_p = base + j.T @ posture.k_q @ j
    k_p = 0.5 * k_p + 0.5 * k_p.T
    fd = reference_fd_hessian(lambda pp: reference_potential(posture, pp), posture.p_bar)
    denom = max(np.max(np.abs(k_p)), np.max(np.abs(fd)), 1e-30)
    rel_err = float(np.max(np.abs(k_p - fd)) / denom)
    mismatch = denom > 1e-9 and rel_err > stability.CROSSCHECK_RTOL
    return stability.StabilityReport(k_p, mismatch, rel_err, res_inf)


# its numeric errors name the function it stands in for
_reference_stiffness_matrix_kp.__name__ = "stiffness_matrix_kp"
#: ``stability.stiffness_matrix_kp`` with the cross-check's Hessian taken one
#: pose at a time, by ``reference_fd_hessian`` over ``reference_potential``
#: (no DiagnosticMismatch warning): the reference the certificate's report
#: and its first error must match
reference_stiffness_matrix_kp = stability._overflow_is_numeric(_reference_stiffness_matrix_kp)


def _upper(idx: tuple) -> tuple:
    """(r, (c >= r ...)) pairs of an index set: one triangle of its block."""
    return tuple((r, idx[k:]) for k, r in enumerate(idx))


def reference_step_kernel(model: PlantModel):
    """``model``'s step kernel as the loop over a tuple layout that the
    generated straight-line kernel unrolls: the reference it must match bit
    for bit.  A point at distance r along a joint's unit axis e (turning at
    the link rate phid, r changing at rate rd) moves at rd e + r phid
    perp(e) with acceleration bias 2 rd phid perp(e) - r phid^2 e relative
    to the joint's origin.  A, g = sum_l m_l g J_l,z and h = g + sum_l m_l
    J_l^T acc_l are accumulated link by link over each link's ancestors.
    A point's Jacobian column of a revolute ancestor is the lever arm from
    its pivot turned by +90 degrees, of a prismatic one the sliding axis."""
    n, gravity = model.n_dof, model.gravity
    revolute = [j.kind == REVOLUTE for c in model.chains for j in c.joints]
    layout, links, ancestors, off = [], [], [], 0
    for c in model.chains:
        joints = []
        for i, joint in enumerate(c.joints, off):
            ancestors.append(tuple(range(off, i + 1)))
            joints.append((i, revolute[i], joint.length, joint.com, joint.axis))
            spin = tuple(j for j in ancestors[i] if revolute[j])
            links.append((i, ancestors[i], _upper(ancestors[i]), joint.mass,
                          joint.mass * gravity, joint.inertia, _upper(spin), joint.rotor))
        layout.append((c.base, c.heading, joints))
        off += len(c.joints)
    upper = tuple((r, c) for r in range(n) for c in range(r + 1, n))

    def point_jacobian(point, anc, pivot, direction):
        px, pz = point
        jx, jz = [0.0] * n, [0.0] * n
        for j in anc:
            if revolute[j]:
                bx, bz = pivot[j]
                jx[j], jz[j] = bz - pz, px - bx
            else:
                jx[j], jz[j] = direction[j]
        return jx, jz

    def kernel(q: list, qd: list) -> Kinematics:
        pivot, direction, com, com_vel, com_acc = [], [], [], [], []
        tip, tip_vel, tip_acc, ang_vel, jcom, tip_jac = [], [], [], [], [], []
        for (ox, oz), phi, joints in layout:
            vox = voz = aox = aoz = phid = 0.0
            for i, is_rev, length, c, axis in joints:
                pivot.append((ox, oz))
                if is_rev:
                    phi += q[i]
                    phid += qd[i]
                    ex, ez = cos(phi), sin(phi)
                    direction.append((0.0, 0.0))
                    rate, r_com, r_tip = 0.0, c, length
                else:
                    ex, ez = cos(phi + axis), sin(phi + axis)
                    direction.append((ex, ez))
                    rate, r_com, r_tip = qd[i], c + q[i], length + q[i]
                px, pz = -ez, ex  # perp(e)
                com.append((ox + r_com * ex, oz + r_com * ez))
                com_vel.append((vox + rate * ex + r_com * phid * px,
                                voz + rate * ez + r_com * phid * pz))
                com_acc.append((aox + 2.0 * rate * phid * px - r_com * phid * phid * ex,
                                aoz + 2.0 * rate * phid * pz - r_com * phid * phid * ez))
                ox, oz = ox + r_tip * ex, oz + r_tip * ez
                vox, voz = (vox + rate * ex + r_tip * phid * px,
                            voz + rate * ez + r_tip * phid * pz)
                aox, aoz = (aox + 2.0 * rate * phid * px - r_tip * phid * phid * ex,
                            aoz + 2.0 * rate * phid * pz - r_tip * phid * phid * ez)
                tip.append((ox, oz))
                tip_vel.append((vox, voz))
                tip_acc.append((aox, aoz))
                ang_vel.append(phid)
                jcom.append(point_jacobian(com[i], ancestors[i], pivot, direction))
                tip_jac.append(point_jacobian(tip[i], ancestors[i], pivot, direction))

        a = [[0.0] * n for _ in range(n)]
        g = [0.0] * n
        for lk, _, pairs, mass, weight, inertia, spin, rotor in links:
            jx, jz = jcom[lk]
            for r, cols in pairs:
                xr, zr = jx[r], jz[r]
                row = a[r]
                for c in cols:
                    row[c] += mass * (xr * jx[c] + zr * jz[c])
                g[r] += weight * zr
            if inertia:
                for r, cols in spin:
                    row = a[r]
                    for c in cols:
                        row[c] += inertia
            if rotor:
                a[lk][lk] += rotor
        for r, c in upper:
            a[c][r] = a[r][c]
        h = g[:]
        for lk, anc, _, mass, *_ in links:
            jx, jz = jcom[lk]
            ax, az = com_acc[lk]
            for c in anc:
                h[c] += mass * (jx[c] * ax + jz[c] * az)
        limb = range(len(model._srl_links))
        mount = tuple(chain([v for i in limb for row in jcom[i] for v in row],
                            *(com_acc[i] for i in limb)))
        return Kinematics(com, com_vel, com_acc, tip, tip_vel, tip_acc, ang_vel, jcom,
                          tip_jac, a, g, h, mount)

    return kernel


def kernel_rows(kin, size: int) -> list:
    """A batch kernel's result as the ``size`` per-step results it holds, in
    the same containers, each array entry replaced by its step's float and
    each float entry kept."""
    def row(v, i: int):
        if isinstance(v, np.ndarray):
            return v[i].item()
        if isinstance(v, float):
            return v
        items = [row(x, i) for x in v]
        return type(v)(*items) if hasattr(v, "_fields") else type(v)(items)

    return [row(kin, i) for i in range(size)]


def stacked_kernel(rows: list):
    """Per-step kernel results as one batch result, every entry an array."""
    first = rows[0]
    if isinstance(first, float):
        return np.array(rows)
    items = [stacked_kernel([r[j] for r in rows]) for j in range(len(first))]
    return type(first)(*items) if hasattr(first, "_fields") else type(first)(items)


def reference_batch_kernel(model: PlantModel):
    """A batch kernel built row by row from ``reference_step_kernel``."""
    kernel = reference_step_kernel(model)

    def batch(q, qd):
        return stacked_kernel([kernel(*pair) for pair in zip(q.T.tolist(), qd.T.tolist())])

    return batch


def reference_spd_solve(m, rhs, error, reason: str, rtol: float = 0.0) -> list[list[float]]:
    """``numerics.spd_solve`` as the loop over float lists that its
    generated straight-line code must match bit for bit, errors included:
    LAPACK's unblocked ``dpotf2``, then the column order of BLAS ``dtrsm``
    kernels, which multiply by reciprocal pivots."""
    n = len(m)
    cols = [[] for _ in range(n)]  # cols[k][i] is the factor's entry (i, k)
    inv = []
    for j, mj in enumerate(m):
        cj = cols[j]
        d = mj[j] - left_sum(map(mul, cj, cj))
        if not d > 0.0 or d < rtol * mj[j]:  # NaN fails too
            raise error(f"{reason} (leading minor {j + 1} is {d:.3e})")
        d = sqrt(d)
        inv.append(1.0 / d)
        for k in range(j + 1, n):
            cols[k].append((mj[k] - left_sum(map(mul, cj, cols[k]))) * inv[j])
        cj.append(d)
    out = []
    for b in rhs:
        x = list(b)
        for i in range(n):  # u^T y = b
            xi = x[i] = x[i] * inv[i]
            for k in range(i + 1, n):
                x[k] -= xi * cols[k][i]
        for i in range(n - 1, -1, -1):  # u x = y
            xi = x[i] = x[i] * inv[i]
            ci = cols[i]
            for k in range(i):
                x[k] -= xi * ci[k]
        out.append(x)
    return out


def reference_advance(
    q, qd, a, h, tau_total, dt: float, m: int, j_c, v_target, q_next, qd_next, qdd
) -> tuple[list[float], list[float]]:
    """``harness._advance`` as list comprehensions, ``left_sum`` and two
    ``reference_spd_solve`` calls: the loop its generated straight-line
    solve must match bit for bit, errors included.  The scripted joints'
    torques are the back-out ``run_scenario`` computed after the solve."""
    if not all(map(isfinite, tau_total)):
        raise NonFinite("tau_total contains NaN or Inf")

    # with nothing free the split of a contact force is left to the caller
    lam = [0.0] * len(j_c)
    if m:
        qdd_s = qdd[m:]
        rhs = [t - hi - left_sum(map(mul, row[m:], qdd_s)) for t, hi, row in zip(tau_total, h, a)]
        j_f = [row[:m] for row in j_c]
        # A_ff^-1 rhs, then the columns of A_ff^-1 J_f^T (one per contact row)
        qdd_free, *minv_jt = reference_spd_solve(
            [row[:m] for row in a[:m]], [rhs] + j_f,
            RankDeficient, "inertia of the free joints is not positive definite",
        )
        if j_c:
            gram = [[left_sum(map(mul, row, col)) for col in minv_jt] for row in j_f]
            qd_free_pred = [v + dt * x for v, x in zip(qd, qdd_free)]
            qd_s = qd_next[m:]
            resid = [
                vt - left_sum(map(mul, row[m:], qd_s)) - left_sum(map(mul, rf, qd_free_pred))
                for vt, row, rf in zip(v_target, j_c, j_f)
            ]
            (lam,) = reference_spd_solve(
                gram, [[r / dt for r in resid]],
                RankDeficient, "contact directions are not independent at this posture",
                GRAM_PIVOT_RTOL,
            )
            qdd_free = [x + left_sum(map(mul, col, lam)) for x, col in zip(qdd_free, zip(*minv_jt))]
        for i, x in enumerate(qdd_free):
            qdd[i] = x
            v = qd_next[i] = qd[i] + dt * x
            q_next[i] = q[i] + dt * v

    mags = [abs(v) for v in q_next + qd_next]
    if not all(x <= BLOWUP_LIMIT for x in mags):  # NaN fails the comparison
        peak = nan if any(x != x for x in mags) else max(mags)
        raise NumericBlowup(f"state magnitude exceeded {BLOWUP_LIMIT:g} (max {peak:.3e})")
    tau_h = [
        left_sum(map(mul, a[j], qdd)) + h[j] - left_sum(row[j] * lk for row, lk in zip(j_c, lam))
        for j in range(m, len(q))
    ]
    return lam, tau_h


def _contact_qr(j_c, reason: str = "") -> tuple[list[list[float]], list[list[float]]]:
    """J_c^T = Q1 R in Python floats, ``j_c`` given as its k rows: the k
    orthonormal columns of Q1 (as rows) and the k-by-k upper-triangular R
    with a non-negative diagonal, the factorization ``qr_full`` returns.

    Classical Gram-Schmidt with one reorthogonalization, which keeps Q1
    orthonormal to roundoff even for nearly parallel rows: the loop that
    ``dynamics._split`` unrolls.  Raises RankDeficient by ``qr_full``'s rank
    rule (``check_rank``, with ``reason``)."""
    k = len(j_c)
    q1, r = [], [[0.0] * k for _ in range(k)]
    for j, v in enumerate(j_c):
        if q1:
            for _ in range(2):
                c = [left_sum(map(mul, qi, v)) for qi in q1]
                v = [x - left_sum(map(mul, c, col)) for x, col in zip(v, zip(*q1))]
                for i, ci in enumerate(c):
                    r[i][j] += ci
        d = r[j][j] = hypot(*v)
        q1.append([x / d for x in v] if d > 0.0 else v)
    check_rank([r[i][i] for i in range(k)], reason)
    return q1, r


def _back_substitute(r, y) -> list[float]:
    """x with R x = y, R upper triangular with a nonzero diagonal."""
    x = list(y)
    for i in range(len(x) - 1, -1, -1):
        x[i] = (x[i] - left_sum(map(mul, r[i][i + 1:], x[i + 1:]))) / r[i][i]
    return x


def reference_decouple(rows, projector: bool = False):
    """``dynamics.decouple`` on the step kernel's float lists ``(a, h, j_c,
    qdd)`` as the loop over lists, ``left_sum`` and ``reference_spd_solve``
    that its generated split must match bit for bit, errors included: the
    value rules, ``_contact_qr``, one k-by-k solve and ``_back_substitute``.
    Returns ``(tau, lam)``, and with ``projector`` the rows of ``n_kc``
    too."""
    a, h, j_c, qdd = rows
    for name, values in (("a", chain(*a)), ("h_bias", h), ("j_c", chain(*j_c)), ("qdd", qdd)):
        if not all(map(isfinite, values)):
            raise NonFinite(f"{name} contains NaN or Inf")
    reference_spd_solve(a, (), SingularWeight, "a is not positive definite")
    q1, r = _contact_qr(j_c, "contact directions are not independent at this posture")
    n = len(a)
    b = [left_sum(map(mul, row, qdd)) + hi for row, hi in zip(a, h)]
    if len(q1) == n:
        tau = [0.0] * n
        y = [left_sum(map(mul, qi, b)) for qi in q1]
        n_kc = [[float(i == j) for j in range(n)] for i in range(n)]
    else:
        aq = [[left_sum(map(mul, row, qi)) for row in a] for qi in q1]  # rows of Q1^T A
        # Q1^T A b, then the columns of Q1^T A for (Q1^T A Q1)^-1 Q1^T A
        rhs = [[left_sum(map(mul, aqi, b)) for aqi in aq]] + [list(col) for col in zip(*aq)]
        y, *g = reference_spd_solve([[left_sum(map(mul, aqi, qj)) for qj in q1] for aqi in aq], rhs,
                                    SingularWeight, "q1^T a q1 is not positive definite")
        q1_rows = list(zip(*q1))
        tau = [bi - left_sum(map(mul, qrow, y)) for bi, qrow in zip(b, q1_rows)]
        n_kc = [[left_sum(map(mul, qrow, gc)) for gc in g] for qrow in q1_rows]
    lam = _back_substitute(r, y)
    return (tau, lam, n_kc) if projector else (tau, lam)


def reference_inverse_run(scenario) -> harness.SimLog:
    """``harness.run_scenario`` in inverse-dynamics mode as the loop that
    evaluates the run kernel, the contact rows, the control law and the split
    step by step, logging each step as a block of one: the oracle that its
    block-wise branch must match byte for byte, errors included."""
    model, sim, ctrl_cfg = scenario.model, scenario.sim, scenario.controller
    n, m = model.n_dof, len(model.srl_indices)
    spec = scenario.contact.spec if scenario.contact else None
    t_sim = np.arange(sim.n_steps) * sim.dt
    act, gate, dxeq = harness._emg_channel(scenario, t_sim)
    rows = [AXES.index(c) for c in ctrl_cfg.components]
    task = model.link_index(ctrl_cfg.chain, ctrl_cfg.joint)
    x_eq = harness._equilibrium_points(scenario, task, rows, dxeq)
    q_end, qd_end, qdd_in = harness._scripted_motion(scenario, t_sim)
    log = harness.SimLog(scenario, t_sim, act, gate, x_eq)
    x_eq, q_end, qd_end, qdd_in = (v.tolist() for v in (x_eq, q_end, qd_end, qdd_in))
    k_task, f_gravity, damping = (None if v is None else np.asarray(v, dtype=float).tolist()
                                  for v in (ctrl_cfg.table[ctrl_cfg.level - 1],
                                            ctrl_cfg.f_gravity, ctrl_cfg.damping))
    contact_link = model.link_index(spec.chain, spec.joint) if spec else None
    q, qd = model.q0.tolist(), [0.0] * n
    for i in range(sim.n_steps):
        try:
            kin = model._kernel(q, qd)
            j_c = contact_jacobian(kin.tip_jac[contact_link], spec) if spec else []
            tip = kin.tip[task]
            x = [tip[r] for r in rows]
            if ctrl_cfg.enabled:
                vel = kin.tip_vel[task]
                f_cmd = control_force(k_task, f_gravity, damping, x_eq[i], x,
                                      [vel[r] for r in rows])
            else:
                f_cmd = [0.0] * len(rows)
            qdd = qdd_in[i]
            if spec is None:
                tau_req = [left_sum(map(mul, row, qdd)) + hj for row, hj in zip(kin.a, kin.h)]
                lam_robot = []
            else:
                tau_req, lam_robot = dynamics.decouple((kin.a, kin.h, j_c, qdd))
        except SuperlimbError as exc:
            raise harness._at_step(exc, i, t_sim[i])
        log.append([q[:m] + qd[:m] + x + f_cmd + lam_robot + [0.0, 0.0] + tau_req],
                   [kin.mount], [qdd])
        q, qd = q_end[i], qd_end[i]
    return log


def reference_tracking_run(scenario) -> harness.SimLog:
    """``harness.run_scenario`` in tracking mode as the loop that steps the
    whole run at once, holding the run's scripted rows as float lists, and
    logs each step as a block of one: the oracle that its block loop must
    match byte for byte, errors included."""
    model = scenario.model
    sim = scenario.sim
    ctrl_cfg = scenario.controller
    n, m = model.n_dof, len(model.srl_indices)
    spec = scenario.contact.spec if scenario.contact else None
    t_sim = np.arange(sim.n_steps) * sim.dt
    act, gate, dxeq = harness._emg_channel(scenario, t_sim)
    rows = [AXES.index(c) for c in ctrl_cfg.components]
    task = model.link_index(ctrl_cfg.chain, ctrl_cfg.joint)
    x_eq = harness._equilibrium_points(scenario, task, rows, dxeq)
    q_end, qd_end, qdd_in = harness._scripted_motion(scenario, t_sim)
    v_target = harness._contact_velocity(scenario, t_sim)
    log = harness.SimLog(scenario, t_sim, act, gate, x_eq)
    k_task, f_gravity, damping = (None if v is None else np.asarray(v, dtype=float).tolist()
                                  for v in (ctrl_cfg.table[ctrl_cfg.level - 1],
                                            ctrl_cfg.f_gravity, ctrl_cfg.damping))
    x_eq, v_target = x_eq.tolist(), v_target.tolist()
    q_end, qd_end, qdd_in = q_end.tolist(), qd_end.tolist(), qdd_in.tolist()
    fr = ctrl_cfg.friction
    friction = fr and (fr.coulomb.tolist(), fr.viscous.tolist(), fr.stiction_breakaway_ratio)
    kernel = model._kernel
    contact_link = model.link_index(spec.chain, spec.joint) if spec else None

    q, qd = model.q0.tolist(), [0.0] * n
    for i in range(sim.n_steps):
        try:
            kin = kernel(q, qd)
            j_c = contact_jacobian(kin.tip_jac[contact_link], spec) if spec else []

            # task point and control law
            tip = kin.tip[task]
            x = [tip[r] for r in rows]
            if ctrl_cfg.enabled:
                vel = kin.tip_vel[task]
                f_cmd = control_force(k_task, f_gravity, damping, x_eq[i], x,
                                      [vel[r] for r in rows])
            else:
                f_cmd = [0.0] * len(rows)

            # the limb's torque: J^T f on its joints, its gravity load, friction
            tau_s = [0.0] * m
            if ctrl_cfg.enabled:
                jac = kin.tip_jac[task]
                tau_task = task_to_joint_torque(zip(*[jac[r][:m] for r in rows]), f_cmd)
                tau_s = list(map(add, tau_task, kin.g))
            if friction is not None:
                tau_s = list(map(add, tau_s, friction_torque(*friction, qd[:m], tau_s)))
            q_next, qd_next = q_end[i], qd_end[i]
            lam_robot, tau_h = harness._advance(
                q, qd, kin.a, kin.h, tau_s, sim.dt, m,
                j_c, v_target[i], q_next, qd_next, qdd_in[i],
            )
        except SuperlimbError as exc:
            raise harness._at_step(exc, i, t_sim[i])
        log.append([q[:m] + qd[:m] + x + f_cmd + lam_robot + [0.0, 0.0] + tau_s + tau_h],
                   [kin.mount], [qdd_in[i]])
        q, qd = q_next, qd_next
    return log


def reference_write_csv(path: str, header: list[str], rows: np.ndarray, flag: int | None = None):
    """``emg.write_csv`` as a row-by-row loop with one ``repr`` per cell:
    the oracle for the formatting kernel's bytes."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows.tolist():
            cells = list(map(repr, row))
            if flag is not None:
                cells[flag] = "1" if row[flag] else "0"
            fh.write(",".join(cells) + "\n")


def reference_multipliers() -> tuple[np.ndarray, np.ndarray]:
    """``emg._multipliers``'s whole table, built at once as it was before it
    filled rows on first use: the reference each filled row must match."""
    ks = np.empty(4096, dtype=np.int64)
    raw = bytearray()
    for row in range(4096):
        q = max(row & 2047, 1) - 1075
        # floor(q log10 2), or floor(log10(3/4 2^q)) above a power of two
        k = (q * 661971961083 - (274743187321 if row >> 11 else 0)) >> 41
        num, den = (5**-k, 1) if k <= 0 else (1, 5**k)
        e2 = q + 124 - k
        num, den = (num << e2, den) if e2 >= 0 else (num, den << -e2)
        ks[row] = k
        raw += (-(-num // den)).to_bytes(16, "little")
    limbs = np.ascontiguousarray(np.frombuffer(raw, dtype="<u4").reshape(4096, 4).T, dtype=np.uint64)
    return ks, limbs


def reference_read_csv(
    path: str, what: str, expected: str, header_ok, n_used: int | None = None
):
    """``emg._read_csv`` as the line-by-line ``csv.reader`` scan it ran for
    every file: the oracle for numpy's tokenizer in front of it, tables
    and error messages alike."""
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
    except UnicodeDecodeError as exc:
        line = _first_line_not_utf8(path)
        raise ValidationError(f"{path}, line {line}: not UTF-8 text ({exc.reason})") from None
    except (csv.Error, ValueError) as exc:
        raise ValidationError(f"{path}, line {reader.line_num}: {exc}") from None
    data = np.array(values).reshape(len(lines), used)
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        line = lines[int(np.argmax(bad))]
        raise ValidationError(f"{path}, line {line}: NaN or Inf cell")
    return header, data


def reference_gate_series(yaws, threshold: float, hysteresis: float) -> np.ndarray:
    """``emg.gate_series`` as the per-sample Schmitt-trigger loop: the
    oracle for its event-index form."""
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


@pytest.fixture
def desk_model() -> PlantModel:
    return desk_arm_model()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def trace_csv(tmp_path) -> str:
    """A 0.4 s single-channel 80 Hz sine trace CSV at 1 kHz."""
    t = np.arange(400) / 1000.0
    x = np.sin(2 * np.pi * 80.0 * t)
    path = tmp_path / "trace.csv"
    path.write_text(
        "t,ch1\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), x.tolist()))
    )
    return str(path)
