"""Acceptance gate: one test per release criterion.

Each test prints a ``[criterion NN] label: PASS|FAIL`` verdict line (run
``pytest tests/test_acceptance.py -s`` to see them all); tolerances and
time budgets are pinned in the assertions.
"""

import contextlib
import copy
import json
import math
import time

import numpy as np
from conftest import desk_arm_model, scenario_path

from superlimb.dynamics import (
    DynamicsSnapshot,
    decouple,
    null_projection,
    selection_matrices,
)
from superlimb.emg import (
    DEFAULT_BAND,
    DEFAULT_WINDOW,
    EmgTrace,
    HillParams,
    activation_series,
    bandpass,
    envelope,
    hill_force,
    rectify,
)
from superlimb.harness import integrate_step, run_scenario
from superlimb.kinematics import (
    CoupledJacobian,
    PlantEndpointMap,
    desired_joint_rates,
)
from superlimb.numerics import (
    dyn_consistent_pinv,
    finite_diff_hessian,
    finite_diff_jacobian,
    qr_full,
    svd_pinv,
)
from superlimb.plant import Chain, Joint, PlantModel
from superlimb.scenario import (
    build_posture,
    load_scenario,
    parse_scenario,
)
from superlimb.stability import POSTURES, potential, stiffness_matrix_kp


@contextlib.contextmanager
def verdict(num: int, label: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'}")


def load_json(name: str) -> dict:
    with open(scenario_path(name)) as fh:
        return json.load(fh)


def decoupling_instances(count: int = 500, seed: int = 0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(3, n - 1) + 1))
        g = rng.standard_normal((n, n))
        yield DynamicsSnapshot(
            a=g @ g.T + n * np.eye(n),
            h_bias=rng.standard_normal(n),
            j_c=rng.standard_normal((k, n)),
            qdd=rng.standard_normal(n),
        )


def test_criterion_01_decoupling_residual():
    with verdict(1, "torque/support-force decoupling residual"):
        t0 = time.perf_counter()
        for snap in decoupling_instances():
            sol = decouple(snap)
            b = snap.a @ snap.qdd + snap.h_bias
            resid = b - sol.tau - snap.j_c.T @ sol.lam
            assert np.max(np.abs(resid)) <= 1e-8 * (1.0 + np.max(np.abs(b)))
        assert time.perf_counter() - t0 < 5.0


def test_criterion_02_pseudo_inverse_identities():
    with verdict(2, "pseudo-inverse identities"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)

        def fixed_rank(m, n, r):
            if r == 0:
                return np.zeros((m, n))
            u, _ = np.linalg.qr(rng.standard_normal((m, m)))
            v, _ = np.linalg.qr(rng.standard_normal((n, n)))
            s = rng.uniform(0.5, 2.0, r)
            return u[:, :r] @ (s[:, None] * v[:, :r].T)

        for _ in range(500):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            r = int(rng.integers(0, min(m, n) + 1))
            a = fixed_rank(m, n, r)
            p = svd_pinv(a)
            sa = 1e-9 * (1.0 + np.max(np.abs(a)))
            sp = 1e-9 * (1.0 + np.max(np.abs(p)))
            assert np.max(np.abs(a @ p @ a - a)) <= sa
            assert np.max(np.abs(p @ a @ p - p)) <= sp
            assert np.max(np.abs((a @ p).T - a @ p)) <= sa
            assert np.max(np.abs((p @ a).T - p @ a)) <= sp

        for _ in range(500):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            w = fixed_rank(k, n, k)
            g = rng.standard_normal((n, n))
            a = g @ g.T + n * np.eye(n)
            wdag = dyn_consistent_pinv(w, a)
            assert np.max(np.abs(w @ wdag - np.eye(k))) <= 1e-9
        assert time.perf_counter() - t0 < 5.0


def test_criterion_03_null_projection():
    with verdict(3, "support-consistent null projection"):
        for snap in decoupling_instances():
            k, n = snap.j_c.shape
            fact = qr_full(snap.j_c.T)
            _, s_kc = selection_matrices(k, n)
            w = s_kc @ fact.q.T
            n_kc = null_projection(w, snap.a)
            assert np.max(np.abs(n_kc @ n_kc - n_kc)) <= 1e-9
            assert np.max(np.abs(w @ n_kc)) <= 1e-9


def test_criterion_04_rate_tracking():
    with verdict(4, "augmented-limb rate tracking"):
        rng = np.random.default_rng(2)

        def well_conditioned(m, n):
            u, _ = np.linalg.qr(rng.standard_normal((m, m)))
            v, _ = np.linalg.qr(rng.standard_normal((n, n)))
            r = min(m, n)
            core = np.zeros((m, n))
            core[:r, :r] = np.diag(rng.uniform(0.5, 2.0, r))
            return u @ core @ v.T

        for i in range(200):
            h1 = int(rng.integers(1, 4))
            s1 = h1 if i % 2 == 0 else h1 + int(rng.integers(1, 3))
            h2 = int(rng.integers(0, 3))
            j_hat = well_conditioned(h1, s1)
            k_c = (
                np.diag(rng.uniform(0.5, 2.0, h2)) if h2 else np.zeros((0, 0))
            )
            j = CoupledJacobian(j_hat=j_hat, k_couple=k_c)
            qdot_h = rng.standard_normal(h1 + h2)
            rates = desired_joint_rates(j, qdot_h)
            assert np.max(np.abs(j.block @ rates - qdot_h)) <= 1e-9

        emap = PlantEndpointMap(desk_arm_model(), "arm")
        for _ in range(5):
            qc = rng.uniform(-0.8, 0.8, 3)
            assert np.max(
                np.abs(emap.jacobian(qc) - finite_diff_jacobian(emap, qc))
            ) <= 1e-6


def test_criterion_05_stiffness_slopes_and_friction_loop():
    with verdict(5, "stiffness-level slopes + Coulomb loop area"):
        t0 = time.perf_counter()
        base = load_json("overhead_sweep.json")
        for level, k_zz in zip((1, 2, 3, 4), (100.0, 200.0, 400.0, 800.0)):
            data = copy.deepcopy(base)
            data["controller"]["level"] = level
            log = run_scenario(parse_scenario(data))
            f = log.column("f_cmd_z")[-800:]
            e = (log.column("x_eq_z") - log.column("x_z"))[-800:]
            slope = float(np.polyfit(e, f, 1)[0])
            assert abs(slope - k_zz) / k_zz <= 0.01

        log = run_scenario(load_scenario(scenario_path("press_friction.json")))
        cycle = slice(1600, 2400)  # one settled sweep cycle
        lam = log.column("lambda_z")[cycle]
        xz = log.column("x_z")[cycle]
        area = float(np.trapezoid(lam, xz))
        area += 0.5 * (lam[0] + lam[-1]) * (xz[0] - xz[-1])  # close the loop
        qx = log.column("q_s0")[cycle]
        qz = log.column("q_s1")[cycle]
        assert qx.max() - qx.min() < 1e-12  # cross slide never breaks away
        predicted = 2.0 * 0.6 * (qx.max() - qx.min()) + 2.0 * 0.8 * (
            qz.max() - qz.min()
        )
        assert abs(abs(area) - predicted) / predicted <= 0.05
        assert time.perf_counter() - t0 < 30.0


def test_criterion_06_emg_gated_support_step():
    with verdict(6, "sEMG-gated support-force step"):
        t0 = time.perf_counter()
        base = load_json("emg_step.json")

        gated = run_scenario(parse_scenario(copy.deepcopy(base)))
        t = gated.column("t")
        lam = gated.column("lambda_z")
        act = gated.column("a")
        pre = (t > 0.5) & (t < 1.4)
        post = t > 6.0
        d_lam = float(lam[post].mean() - lam[pre].mean())
        f_bar = float(act[post].mean()) * 300.0
        predicted = 400.0 * 2e-4 * f_bar  # level-3 stiffness x shift gain
        assert abs(d_lam - predicted) / predicted <= 0.02

        never = copy.deepcopy(base)
        never["emg"]["motion"] = {"steps": [[0.0, 0.0]]}
        ungated = run_scenario(parse_scenario(never))
        plain = copy.deepcopy(base)
        del plain["emg"]
        baseline = run_scenario(parse_scenario(plain))
        assert np.array_equal(
            ungated.column("lambda_z"), baseline.column("lambda_z")
        )
        assert np.array_equal(ungated.column("x_eq_z"), baseline.column("x_eq_z"))
        assert time.perf_counter() - t0 < 30.0


def test_criterion_07_posture_certification():
    with verdict(7, "posture stability certification"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        assert len(POSTURES) >= 5
        for name in sorted(POSTURES):
            posture = build_posture({"posture": name})
            rep = stiffness_matrix_kp(posture)
            fd = finite_diff_hessian(
                lambda pp: potential(posture, pp), posture.p_bar
            )
            denom = max(np.max(np.abs(rep.k_p)), np.max(np.abs(fd)))
            assert np.max(np.abs(rep.k_p - fd)) / denom <= 1e-3

            dirs = rng.standard_normal((1000, posture.n_pose))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            # eigenvector directions are the deterministic witnesses of
            # any negative curvature the random probes might miss
            dirs = np.vstack([dirs, np.linalg.eigh(rep.k_p)[1].T])
            h = 1e-3
            u0 = potential(posture, posture.p_bar)
            curv = np.array(
                [
                    (
                        potential(posture, posture.p_bar + h * v)
                        - 2.0 * u0
                        + potential(posture, posture.p_bar - h * v)
                    )
                    / h**2
                    for v in dirs
                ]
            )
            tol = 1e-6 * max(float(np.max(np.abs(curv))), 1.0)
            if rep.is_stable:
                assert float(np.min(curv)) >= -tol
            else:
                assert float(np.min(curv)) < -tol
        assert time.perf_counter() - t0 < 10.0


def pendulum_model(q0: float) -> PlantModel:
    length, mass = 0.5, 1.2
    return PlantModel(
        chains=(
            Chain(
                name="rod",
                role="srl",
                base=(0.0, 0.0),
                heading=-math.pi / 2.0,
                joints=(
                    Joint(
                        kind="revolute",
                        mass=mass,
                        length=length,
                        com=length / 2.0,
                        inertia=mass * length * length / 12.0,
                        q0=q0,
                    ),
                ),
            ),
        ),
    )


def test_criterion_08_integrator_accuracy():
    with verdict(8, "integrator accuracy (pendulum)"):
        dt = 1e-4
        model = pendulum_model(0.02)
        q, qd = model.q0.copy(), np.zeros(1)
        n = 30000
        qs = np.empty(n)
        for i in range(n):
            step = integrate_step(model, q, qd, np.zeros(1), dt)
            q, qd = step.q, step.qd
            qs[i] = q[0]
        ts = np.arange(1, n + 1) * dt
        idx = np.where((qs[:-1] < 0.0) & (qs[1:] >= 0.0))[0]
        frac = -qs[idx] / (qs[idx + 1] - qs[idx])
        crossings = ts[idx] + frac * dt
        period = float(np.diff(crossings).mean())
        l_eff = 2.0 * 0.5 / 3.0  # uniform rod about its end
        expected = 2.0 * math.pi * math.sqrt(l_eff / 9.81)
        assert abs(period - expected) / expected <= 0.01

        model = pendulum_model(0.3)
        q, qd = model.q0.copy(), np.zeros(1)
        state = model.state(q, qd)
        e0 = state.kinetic_energy() + state.potential_energy()
        worst = 0.0
        for _ in range(10000):
            step = integrate_step(model, q, qd, np.zeros(1), dt)
            q, qd = step.q, step.qd
            state = model.state(q, qd)
            e = state.kinetic_energy() + state.potential_energy()
            worst = max(worst, abs(e - e0))
        assert worst <= 1e-3 * abs(e0)


def test_criterion_09_deterministic_replay(tmp_path):
    with verdict(9, "seeded runs replay byte-identically"):
        blobs = []
        for name in ("a.csv", "b.csv"):
            log = run_scenario(load_scenario(scenario_path("emg_step.json")))
            path = tmp_path / name
            log.to_csv(str(path))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


def test_criterion_10_emg_chain():
    with verdict(10, "sEMG chain verification"):
        fs = 1000.0
        dc = EmgTrace(fs=fs, channels=(("ch1", np.full(2000, 3.5)),))
        out = bandpass(dc, *DEFAULT_BAND).channels[0][1]
        assert np.max(np.abs(out)) / 3.5 < 1e-6

        t = np.arange(2000) / fs
        sine = EmgTrace(
            fs=fs, channels=(("ch1", np.sin(2.0 * math.pi * 180.0 * t)),)
        )
        env = envelope(rectify(bandpass(sine, *DEFAULT_BAND)), DEFAULT_WINDOW)
        interior = env.channels[0][1][200:-200]
        target = 1.0 / math.sqrt(2.0)
        assert np.max(np.abs(interior - target)) / target < 0.02

        rng = np.random.default_rng(10)
        params = HillParams()
        for _ in range(100):
            raw = rng.standard_normal(400) * rng.uniform(0.1, 5.0)
            trace = EmgTrace(fs=fs, channels=(("ch1", raw),))
            e = envelope(
                rectify(bandpass(trace, *DEFAULT_BAND)), DEFAULT_WINDOW
            ).channels[0][1]
            act = activation_series(e, params, fs)
            assert np.all(act >= 0.0) and np.all(act <= 1.0)

        assert hill_force(0.0, HillParams()) == 0.0
