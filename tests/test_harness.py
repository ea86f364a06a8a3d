"""Tests for the deterministic simulator: synthetic sEMG, the integrator,
logging, and whole-scenario runs."""

import dataclasses
import json
import math
from functools import cache

import numpy as np
import pytest
from conftest import desk_arm_dict, reference_advance, reference_step_kernel, scenario_path
from hypothesis import given, settings
from hypothesis import strategies as st

from superlimb import dynamics, harness
from superlimb.cli import main
from superlimb.emg import bandpass, envelope, rectify
from superlimb.errors import (
    DimensionMismatch,
    NonFinite,
    NumericBlowup,
    RankDeficient,
    SuperlimbError,
    ValidationError,
)
from superlimb.harness import _mount_force, generate_emg, integrate_step, run_scenario
from superlimb.plant import Chain, Joint, PlantModel, PlantState
from superlimb.scenario import (
    ActivationProfile,
    ContactMotion,
    HumanMotion,
    load_scenario,
    parse_scenario,
)
from superlimb.stiffness import TaskSpaceController


def single_slider(mass=3.0, heading=math.pi / 2.0, q0=0.4):
    """One prismatic joint; heading pi/2 slides vertically."""
    return PlantModel(
        chains=(
            Chain(
                name="rail", role="srl", base=(0.0, 0.0), heading=heading,
                joints=(Joint(kind="prismatic", mass=mass, length=0.0,
                              com=0.0, q0=q0),),
            ),
        ),
    )


# --- synthetic sEMG -------------------------------------------------------------


FULL_ON = ActivationProfile(fs=1000.0, duration=4.0, steps=((0.0, 1.0),))


def test_generate_emg_deterministic():
    a = generate_emg(FULL_ON, seed=7)
    b = generate_emg(FULL_ON, seed=7)
    np.testing.assert_array_equal(a.channels[0][1], b.channels[0][1])
    c = generate_emg(FULL_ON, seed=8)
    assert not np.array_equal(a.channels[0][1], c.channels[0][1])


@pytest.mark.parametrize("mvc", [1.0, 0.8])
def test_generate_emg_calibration(mvc):
    # a fully-on trace pushed through the same downstream chain must land
    # its median envelope at the reference level
    trace = generate_emg(FULL_ON, seed=3, mvc_reference=mvc)
    env = envelope(rectify(bandpass(trace, 20.0, 450.0)), 0.1).channels[0][1]
    settle = 100
    assert float(np.median(env[settle:])) == pytest.approx(mvc, rel=1e-9)


@pytest.mark.parametrize("fs, duration", [(math.inf, 1.0), (1000.0, math.inf)])
def test_generate_emg_needs_a_finite_profile(fs, duration):
    # the generator takes its sample rate and length from the profile
    with pytest.raises(ValidationError, match="finite"):
        generate_emg(ActivationProfile(fs=fs, duration=duration, steps=((0.0, 1.0),)), seed=0)


@pytest.mark.parametrize("mvc, reason", [
    (0.0, "must be finite and > 0"),
    (1e308, "1e+308 calibrates sEMG samples past the float range"),
])
def test_generate_emg_keys_mvc_reference(mvc, reason):
    # keyed by the argument, so each caller can name its own key or flag
    with pytest.raises(ValidationError) as exc:
        generate_emg(FULL_ON, seed=3, mvc_reference=mvc)
    assert exc.value.key == "mvc_reference"
    assert exc.value.reason.startswith(reason)


def test_generate_emg_validation():
    short = ActivationProfile(fs=1000.0, duration=0.001, steps=((0.0, 1.0),))
    with pytest.raises(ValidationError):
        generate_emg(short, seed=0)


# --- single-step integration ----------------------------------------------------


def test_integrate_step_validation():
    model = single_slider()
    with pytest.raises(ValidationError):
        integrate_step(model, model.q0, np.zeros(1), np.zeros(1), 0.0)
    with pytest.raises(DimensionMismatch):
        integrate_step(model, model.q0, np.zeros(1), np.zeros(2), 0.01)


def test_integrate_step_constant_force():
    # horizontal slider, no gravity component: exact Euler arithmetic
    model = single_slider(mass=2.0, heading=0.0, q0=0.0)
    step = integrate_step(model, model.q0, np.zeros(1), np.array([4.0]), 0.1)
    np.testing.assert_allclose(step.qdd, [2.0], atol=1e-13)
    np.testing.assert_allclose(step.qd, [0.2], atol=1e-14)
    np.testing.assert_allclose(step.q, [0.02], atol=1e-15)


def test_integrate_step_contact_holds_weight():
    from superlimb.dynamics import ContactSpec

    model = single_slider(mass=3.0)
    spec = ContactSpec(chain="rail", directions=("z",))
    step = integrate_step(
        model, model.q0, np.zeros(1), np.zeros(1), 0.005,
        contact=spec, v_target=np.zeros(1),
    )
    assert step.lam[0] == pytest.approx(3.0 * 9.81, abs=1e-10)
    np.testing.assert_allclose(step.qdd, [0.0], atol=1e-10)
    np.testing.assert_allclose(step.q, model.q0, atol=1e-12)


def test_integrate_step_blowup():
    model = single_slider(mass=1.0, heading=0.0)
    with pytest.raises(NumericBlowup):
        integrate_step(model, model.q0, np.zeros(1), np.array([1e13]), 0.01)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_integrate_step_non_finite_inputs(bad):
    model = single_slider(mass=1.0, heading=0.0)
    with pytest.raises(NonFinite, match="tau_total"):
        integrate_step(model, model.q0, np.zeros(1), np.array([bad]), 0.01)
    with pytest.raises(NonFinite, match="qd"):
        integrate_step(model, model.q0, np.array([bad]), np.zeros(1), 0.01)
    with pytest.raises(NonFinite, match="q "):
        integrate_step(model, np.array([bad]), np.zeros(1), np.zeros(1), 0.01)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_integrate_step_non_finite_angle(bad):
    # a revolute angle reaches cos/sin in the step kernel: still NonFinite
    model = PlantModel(chains=(Chain(name="rod", joints=(
        Joint(kind="revolute", mass=1.0, length=0.3, com=0.15, inertia=0.01),)),))
    with pytest.raises(NonFinite, match="q "):
        integrate_step(model, np.array([bad]), np.zeros(1), np.zeros(1), 0.01)


def test_integrate_step_singular_inertia():
    # a point mass on its own pivot with no rotational inertia: A = 0
    model = PlantModel(chains=(Chain(name="rod", joints=(
        Joint(kind="revolute", mass=1.0, length=0.3, com=0.0),)),))
    with pytest.raises(RankDeficient):
        integrate_step(model, model.q0, np.zeros(1), np.zeros(1), 0.01)


def test_blowup_guard_catches_nan():
    # a NaN contact target makes the post-step velocity NaN; the magnitude
    # guard must not let it through (NaN compares false against the limit)
    from superlimb.dynamics import ContactSpec

    model = single_slider(mass=3.0)
    spec = ContactSpec(chain="rail", directions=("z",))
    with pytest.raises(NumericBlowup):
        integrate_step(
            model, model.q0, np.zeros(1), np.zeros(1), 0.005,
            contact=spec, v_target=np.array([math.nan]),
        )


def test_cli_run_non_finite_torque_exit_code(tmp_path, capsys):
    # a stiffness of 1e307 N/m over a 100 m offset overflows the commanded
    # force to inf at the first step
    data = {
        "plant": desk_arm_dict(),
        "sim": {"dt": 0.01, "duration": 0.5, "seed": 0},
        "controller": {"stiffness_table": [[1e307, 1e307]] * 4, "level": 1,
                       "x_eq": [0.0, -100.0]},
    }
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(data))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numeric error: [step 0, t=0s] tau_total contains NaN or Inf")


# --- generated contact solve ----------------------------------------------------


def advance_outcome(advance, args):
    """What one ``_advance``-shaped call does to fresh copies of ``args``:
    the result and the three filled lists as ``float.hex``, or the error's
    class and message."""
    q, qd, a, h, tau, dt, m, j_c, vt, q_next, qd_next, qdd = args
    q_next, qd_next, qdd = list(q_next), list(qd_next), list(qdd)
    try:
        lam = advance(list(q), list(qd), [list(r) for r in a], list(h), list(tau), dt, m,
                      [list(r) for r in j_c], list(vt), q_next, qd_next, qdd)
    except SuperlimbError as exc:
        return type(exc), str(exc)
    return tuple([float.hex(x) for x in v] for v in (lam, qdd, qd_next, q_next))


def assert_same_advance(args):
    got = advance_outcome(harness._advance, args)
    assert got == advance_outcome(reference_advance, args)
    return got


# every value reaches the solve with either sign of zero
signed = st.sampled_from([0.0, -0.0]) | st.floats(-8.0, 8.0)


@st.composite
def advance_args(draw):
    m, n_s, k = draw(st.integers(0, 5)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    n = max(m + n_s, 1)

    def vec(size):
        return draw(st.lists(signed, min_size=size, max_size=size))

    # symmetric and diagonally dominant, hence positive definite
    off = [vec(n) for _ in range(n)]
    a = [[off[min(r, c)][max(r, c)] for c in range(n)] for r in range(n)]
    for r in range(n):
        a[r][r] = sum(abs(x) for c, x in enumerate(a[r]) if c != r) + draw(st.floats(0.05, 4.0))
    free_zeros = [0.0] * m
    return (vec(n), vec(n), a, vec(n), vec(m), draw(st.floats(1e-4, 1e-2)), m,
            [vec(n) for _ in range(k)], vec(k),
            free_zeros + vec(n - m), free_zeros + vec(n - m), free_zeros + vec(n - m))


@settings(max_examples=400, deadline=None)
@given(advance_args())
def test_generated_advance_matches_reference(args):
    # lam, qdd, qd_next and q_next to the bit for every (n, m, k) shape with
    # m = 0-5 free DoFs, up to 2 scripted ones and 0-2 contact rows, or the
    # same error class and message
    assert_same_advance(args)


def test_builtin_float_sum_rounds_left_to_right():
    # the step laws' sum(map(mul, ...)), the oracles and the bundled CSV bytes
    # assume it; from Python 3.12 on, sum() of floats is compensated
    assert sum([0.1] * 10) == 0.9999999999999999, (
        "sum() of floats is compensated on this Python; pyproject.toml caps "
        "requires-python at <3.12 for this reason")


def identity(n):
    return [[float(r == c) for c in range(n)] for r in range(n)]


def advance_case(a, m, j_c=(), tau=None, vt=None, scripted=(), dt=0.01):
    n = len(a)
    tau = [1.0] * m if tau is None else tau
    vt = [0.0] * len(j_c) if vt is None else vt
    tail = list(scripted) + [0.0] * (n - m - len(scripted))
    q_next = [0.0] * m + tail
    return ([0.1] * n, [0.0] * n, a, [0.5] * n, tau, dt, m, list(j_c), vt,
            q_next, [0.0] * n, [0.0] * n)


@pytest.mark.parametrize("args, error, message", [
    pytest.param(advance_case([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 3),
                 RankDeficient, "positive definite (leading minor 1 is -1.000e+00)",
                 id="minor-1"),
    pytest.param(advance_case([[1.0, 2.0, 0.0, 0.5], [2.0, 1.0, 0.0, 0.0],
                               [0.0, 0.0, 1.0, 0.0], [0.5, 0.0, 0.0, 9.0]], 3),
                 RankDeficient, "positive definite (leading minor 2 is -3.000e+00)",
                 id="minor-2"),
    pytest.param(advance_case([[4.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], 3),
                 RankDeficient, "positive definite (leading minor 3 is 0.000e+00)",
                 id="minor-3"),
    pytest.param(advance_case(identity(3), 2, j_c=[[1.0, 0.0, 3.0], [1.0, -0.0, -1.0]]),
                 RankDeficient, "contact directions are not independent at this posture "
                 "(leading minor 2 is 0.000e+00)", id="rank-1-gram"),
    pytest.param(advance_case(identity(3), 3, tau=[1.0, math.nan, 1.0]),
                 NonFinite, "tau_total contains NaN or Inf", id="nan-tau"),
    pytest.param(advance_case(identity(2), 2, tau=[-math.inf, 1.0], j_c=[[1.0, 0.0]]),
                 NonFinite, "tau_total contains NaN or Inf", id="inf-tau"),
    pytest.param(advance_case(identity(2), 2, tau=[1e13, 0.0]),
                 NumericBlowup, "exceeded 1e+09 (max 1.000e+11)", id="blowup"),
    pytest.param(advance_case(identity(2), 1, j_c=[[1.0, 0.0]], vt=[math.nan]),
                 NumericBlowup, "(max nan)", id="blowup-nan"),
    pytest.param(advance_case(identity(2), 0, j_c=[[0.0, 1.0]], scripted=[-2e9]),
                 NumericBlowup, "(max 2.000e+09)", id="blowup-scripted"),
])
def test_generated_advance_raises_as_reference(args, error, message):
    # each of the solve's errors: the same class and text as the loop's
    got = assert_same_advance(args)
    assert got[0] is error and message in got[1], got


# --- log container --------------------------------------------------------------


def test_simlog_columns_and_csv(tmp_path):
    sc = load_scenario(scenario_path("static_hold.json"))
    log = run_scenario(sc)
    assert log.columns[:1] == ["t"]
    assert "lambda_z" in log.columns
    assert "f_mount_x" in log.columns and "f_mount_z" in log.columns
    assert log.columns[-2:] == ["x_eq_x", "x_eq_z"]
    with pytest.raises(KeyError):
        log.column("nope")
    path = tmp_path / "log.csv"
    log.to_csv(str(path))
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(log.columns)
    assert len(lines) == len(log) + 1
    gate_idx = log.columns.index("gate")
    assert lines[1].split(",")[gate_idx] in ("0", "1")
    assert "\r" not in text


def test_zero_duration_gives_empty_log():
    data = {"plant": desk_arm_dict(), "sim": {"dt": 0.005, "duration": 0.0}}
    log = run_scenario(parse_scenario(data))
    assert len(log) == 0


# --- static hold: exact force bookkeeping --------------------------------------


@pytest.fixture(scope="module")
def static_log():
    return run_scenario(load_scenario(scenario_path("static_hold.json")))


def test_static_hold_support_force(static_log):
    lam = static_log.column("lambda_z")
    np.testing.assert_allclose(lam, 3.0 * 9.81, atol=1e-9)


def test_static_hold_no_drift(static_log):
    x = static_log.column("x_z")
    assert np.all(x == x[0])  # bitwise: the contact solve cannot drift
    qd = np.abs(static_log.column("qdot_s0"))
    assert np.max(qd) < 1e-12


def test_static_hold_mount_force(static_log):
    # wearer carries device weight (3.1 kg) plus the transmitted panel load
    f_z = static_log.column("f_mount_z")
    expected = -(3.1 * 9.81 + 3.0 * 9.81)
    np.testing.assert_allclose(f_z, expected, atol=1e-6)
    f_x = static_log.column("f_mount_x")
    np.testing.assert_allclose(f_x, 0.0, atol=1e-9)


def test_static_hold_human_torque(static_log):
    tau_h = static_log.column("tau_h0")
    np.testing.assert_allclose(tau_h, 55.0 * 9.81, atol=1e-6)


# --- determinism ----------------------------------------------------------------


def emg_scenario(seed):
    data = {
        "plant": desk_arm_dict(),
        "sim": {"dt": 0.005, "duration": 1.0, "seed": 1},
        "contact": {"chain": "arm", "directions": ["z"]},
        "controller": {"level": 2, "panel_mass": 3.0},
        "emg": {
            "profile": {"duration": 1.0, "steps": [[0.0, 0.0], [0.3, 1.0]]},
            "seed": seed,
            "motion": {"steps": [[0.0, 0.0], [0.2, 0.4]]},
        },
    }
    return parse_scenario(data)


def run_to_bytes(scenario, tmp_path, name):
    log = run_scenario(scenario)
    path = tmp_path / name
    log.to_csv(str(path))
    return path.read_bytes()


def test_same_seed_reproduces_csv(tmp_path):
    a = run_to_bytes(emg_scenario(5), tmp_path, "a.csv")
    b = run_to_bytes(emg_scenario(5), tmp_path, "b.csv")
    assert a == b


def test_different_seed_changes_csv(tmp_path):
    a = run_to_bytes(emg_scenario(5), tmp_path, "a.csv")
    b = run_to_bytes(emg_scenario(6), tmp_path, "b.csv")
    assert a != b


def count_calls(monkeypatch, cls, name) -> list[int]:
    """Count calls of ``cls.name`` for the rest of the test."""
    original = vars(cls)[name]
    cell = [0]

    def counted(*args, **kwargs):
        cell[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return cell


def count_kernel_calls(model: PlantModel) -> list[int]:
    """Count calls of ``model``'s step kernel from now on."""
    original, cell = model._kernel, [0]

    def counted(q, qd):
        cell[0] += 1
        return original(q, qd)

    object.__setattr__(model, "_kernel", counted)
    return cell


def short_emg_step(seed, onset):
    """emg_step shortened to 0.5 s; ``onset=None`` keeps the gate shut."""
    with open(scenario_path("emg_step.json")) as fh:
        data = json.load(fh)
    data["sim"]["duration"] = 0.5
    data["emg"]["seed"] = seed
    data["emg"]["profile"]["duration"] = 0.5
    data["emg"]["profile"]["steps"] = [[0.0, 0.0], [0.05, 1.0]]
    data["emg"]["motion"]["steps"] = (
        [[0.0, 0.0]] if onset is None else [[0.0, 0.0], [onset, 0.35]]
    )
    return parse_scenario(data)


def test_step_kernel_call_counts(monkeypatch):
    # per run: no controller is built (its rules ran at load), and the
    # inertia matrix and bias are evaluated at most once per step whether or
    # not the gate opens
    runs = [(3, 0.1), (8, 0.3), (3, None)]
    scenarios = [short_emg_step(seed, onset) for seed, onset in runs]
    counters = {
        "controller": count_calls(monkeypatch, TaskSpaceController, "__post_init__"),
        "mass_matrix": count_calls(monkeypatch, PlantState, "mass_matrix"),
        "bias": count_calls(monkeypatch, PlantState, "bias"),
    }
    profiles = []
    for (seed, onset), sc in zip(runs, scenarios):
        for cell in counters.values():
            cell[0] = 0
        log = run_scenario(sc)
        shifted = np.ptp(log.column("x_eq_z")) > 0.0
        assert log.column("gate").any() == shifted == (onset is not None)
        counts = {k: cell[0] for k, cell in counters.items()}
        assert counts["controller"] == 0
        assert counts["mass_matrix"] <= len(log)
        assert counts["bias"] <= len(log)
        profiles.append(counts)
    assert profiles[0] == profiles[1] == profiles[2]


SIM_SCENARIOS = [
    "overhead_sweep.json", "press_friction.json", "emg_step.json",
    "static_hold.json", "overhead_inverse.json",
]


def reference_mount_force(state, qdd, lam_robot, scenario):
    """Newton over the SRL links through one point(at="com") per link."""
    model = state.model
    g_vec = np.array([0.0, -model.gravity])
    total = np.zeros(2)
    for chain in model.chains:
        if chain.role != "srl":
            continue
        for j in range(len(chain.joints)):
            pk = state.point(chain.name, joint=j, at="com")
            acc = pk.jac @ qdd + pk.acc_bias
            total += chain.joints[j].mass * (acc - g_vec)
    f_contact = np.zeros(2)
    spec = scenario.contact.spec if scenario.contact else None
    if spec is not None and lam_robot.size:
        if {c.name: c.role for c in model.chains}[spec.chain] == "srl":
            for i, d in enumerate(spec.directions):
                f_contact[0 if d == "x" else 1] += lam_robot[i]
    return f_contact - total


@pytest.mark.parametrize("name", SIM_SCENARIOS)
def test_mount_force_matches_point_newton_sum(rng, name):
    sc = load_scenario(scenario_path(name))
    n = sc.model.n_dof
    k = len(sc.contact.spec.directions) if sc.contact else 0
    for _ in range(20):
        state = sc.model.state(
            sc.model.q0 + rng.uniform(-0.5, 0.5, n), rng.standard_normal(n)
        )
        qdd = rng.standard_normal(n)
        lam = rng.standard_normal(k)
        got = _mount_force(state.kin, qdd, lam, sc)
        ref = reference_mount_force(state, qdd, lam, sc)
        assert np.array_equal(got, ref)


def test_inverse_step_call_counts(monkeypatch):
    # one plant evaluation and one decoupling per step, on the kernel's
    # float lists: no array-valued snapshot and no LAPACK QR in the loop
    sc = load_scenario(scenario_path("overhead_inverse.json"))
    sc = dataclasses.replace(sc, sim=dataclasses.replace(sc.sim, duration=0.25))
    assert sc.controller.x_eq is None  # "auto": one more kernel call, at q0
    counters = {
        "snapshot": count_calls(monkeypatch, dynamics.DynamicsSnapshot, "__post_init__"),
        "kernel": count_kernel_calls(sc.model),
        "decouple": count_calls(monkeypatch, dynamics, "decouple"),
        "qr_full": count_calls(monkeypatch, dynamics, "qr_full"),
    }
    log = run_scenario(sc)
    steps = len(log)
    assert steps == sc.sim.n_steps == 50
    counts = {name: cell[0] for name, cell in counters.items()}
    assert counts == {"snapshot": 0, "kernel": steps + 1, "decouple": steps, "qr_full": 0}


@pytest.mark.parametrize("name, per_step", [
    ("press_friction.json", [1, 1, 1, 1, 1]),
    # nothing is applied: no J^T f, no friction, and decouple replaces the step
    ("overhead_inverse.json", [1, 0, 0, 1, 0]),
])
def test_step_law_call_counts(monkeypatch, name, per_step):
    # the loop calls each step law and the contact solve by its name in
    # harness, once per step where it applies
    sc = load_scenario(scenario_path(name))
    sc = dataclasses.replace(sc, sim=dataclasses.replace(sc.sim, duration=0.25))
    laws = ["control_force", "task_to_joint_torque", "friction_torque", "contact_jacobian",
            "_advance"]
    cells = [count_calls(monkeypatch, harness, law) for law in laws]
    steps = len(run_scenario(sc))
    assert steps == sc.sim.n_steps == 50
    assert [cell[0] for cell in cells] == [k * steps for k in per_step]


@pytest.mark.parametrize("name", SIM_SCENARIOS)
def test_run_evaluates_the_plant_only_on_the_step_kernel(monkeypatch, name):
    # both sim modes: one kernel call per step, plus one at q0 for an
    # "auto" equilibrium point, and no array-valued PlantState at all
    sc = load_scenario(scenario_path(name))
    sc = dataclasses.replace(sc, sim=dataclasses.replace(sc.sim, duration=0.5))
    states = count_calls(monkeypatch, PlantState, "__init__")
    kernel = count_kernel_calls(sc.model)
    log = run_scenario(sc)
    assert len(log) == sc.sim.n_steps == 100
    assert states[0] == 0
    assert kernel[0] == len(log) + (sc.controller.x_eq is None)


@pytest.mark.parametrize("name", SIM_SCENARIOS)
def test_run_on_reference_kernel_logs_the_same_bytes(name):
    # the generated step kernel against the loop it unrolls, through a whole
    # run in either sim mode: every logged value is the same to the bit
    logs = []
    for use_reference in (False, True):
        sc = load_scenario(scenario_path(name))
        sc = dataclasses.replace(sc, sim=dataclasses.replace(sc.sim, duration=0.5))
        if use_reference:
            object.__setattr__(sc.model, "_kernel", reference_step_kernel(sc.model))
        logs.append(run_scenario(sc))
    assert logs[0].columns == logs[1].columns
    assert logs[0]._data.tobytes() == logs[1]._data.tobytes()


@cache
def full_run(name: str) -> harness.SimLog:
    """The log of one bundled scenario run at its own settings."""
    return run_scenario(load_scenario(scenario_path(name)))


@pytest.mark.parametrize("name", SIM_SCENARIOS)
def test_run_on_reference_advance_logs_the_same_bytes(monkeypatch, name):
    # the generated contact solve against the list-based loop, through a
    # whole bundled run: every logged value is the same to the bit
    monkeypatch.setattr(harness, "_advance", reference_advance)
    log = run_scenario(load_scenario(scenario_path(name)))
    assert log.columns == full_run(name).columns
    assert log._data.tobytes() == full_run(name)._data.tobytes()


def test_contact_solve_is_generated_once_per_shape():
    step = harness._contact_step(4, 3, 1)
    assert harness._contact_step(4, 3, 1) is step
    assert step.__code__.co_filename == "<contact solve: n=4, m=3, k=1>"


# --- physics regression guards --------------------------------------------------


@pytest.mark.parametrize("name", SIM_SCENARIOS[:4])
def test_support_force_pushes_at_the_default_step(name):
    # the bilateral contact never pulls the panel down in a bundled tracking
    # run (minima 20.1, 22.2, 29.4 and 29.4 N)
    assert full_run(name).column("lambda_z").min() >= 0.0


def test_overhead_sweep_contact_stays_near_its_path_over_32_s():
    # the velocity-level constraint lets the supported point drift from its
    # scripted triangle (7.65 mm by 32 s); the bound catches a faster drift
    with open(scenario_path("overhead_sweep.json")) as fh:
        data = json.load(fh)
    data["sim"]["duration"] = 32.0
    sc = parse_scenario(data)
    log = run_scenario(sc)
    motion, dt = sc.contact.motion, sc.sim.dt
    t, x_z = log.column("t"), log.column("x_z")
    quarter = motion.amplitude / motion.speed
    phase = np.mod(t, 4.0 * quarter)
    v = np.where((phase < quarter) | (phase >= 3.0 * quarter), motion.speed, -motion.speed)
    path = np.concatenate([[0.0], np.cumsum(v * dt)[:-1]])
    assert np.max(np.abs(x_z - x_z[0] - path)) <= 0.010


def test_ungated_run_matches_no_emg_baseline():
    data = {
        "plant": desk_arm_dict(),
        "sim": {"dt": 0.005, "duration": 1.0, "seed": 1},
        "contact": {"chain": "arm", "directions": ["z"]},
        "controller": {"level": 2, "panel_mass": 3.0},
    }
    baseline = run_scenario(parse_scenario(data))
    data["emg"] = {
        "profile": {"duration": 1.0, "steps": [[0.0, 1.0]]},
        "seed": 4,
        "motion": {"steps": [[0.0, 0.0]]},  # shank never moves: gate stays shut
    }
    gated = run_scenario(parse_scenario(data))
    assert np.array_equal(gated.column("lambda_z"), baseline.column("lambda_z"))
    assert np.array_equal(gated.column("x_eq_z"), baseline.column("x_eq_z"))
    assert not gated.column("gate").any()
    assert gated.column("a").max() > 0.5  # muscle active, command still ungated


# --- scripted human motion ------------------------------------------------------


def test_inverse_dynamics_holds_srl_posture():
    log = run_scenario(load_scenario(scenario_path("overhead_inverse.json")))
    q0 = log.column("q_s0")
    assert np.all(q0 == q0[0])
    tau_h = log.column("tau_h0")
    mean = float(np.mean(tau_h))
    assert mean == pytest.approx(55.0 * 9.81, rel=1e-3)
    w = 2.0 * math.pi * 0.5
    expected_amp = 55.0 * 0.03 * w * w
    assert np.max(tau_h) - mean == pytest.approx(expected_amp, rel=0.01)


@pytest.mark.parametrize("duration", [0.05, 0.5])
def test_scripted_signals_are_computed_once_per_run(monkeypatch, duration):
    # the sway is evaluated at the step times and at their ends, the sweep
    # at the step times: two and one array calls, whatever the step count
    with open(scenario_path("overhead_sweep.json")) as fh:
        data = json.load(fh)
    data["sim"]["duration"] = duration
    data["human_motion"] = {"type": "sine", "amplitude": [0.03], "frequency": 0.5}
    sc = parse_scenario(data)
    offsets = count_calls(monkeypatch, HumanMotion, "offsets")
    velocity = count_calls(monkeypatch, ContactMotion, "velocity")
    log = run_scenario(sc)
    assert len(log) == sc.sim.n_steps == round(duration / 0.005)
    assert offsets[0] <= 2
    assert velocity[0] <= 1


def test_human_sine_in_tracking_mode():
    data = {
        "plant": desk_arm_dict(),
        "sim": {"dt": 0.005, "duration": 1.0, "seed": 0},
        "contact": {"chain": "arm", "directions": ["z"]},
        "controller": {"level": 2, "panel_mass": 3.0},
        "human_motion": {"type": "sine", "amplitude": [0.03], "frequency": 0.5},
    }
    log = run_scenario(parse_scenario(data))
    tau_h = log.column("tau_h0")
    assert np.max(tau_h) - np.min(tau_h) > 1.0  # the sway actually loads the trunk


# --- failure annotation ---------------------------------------------------------


def test_blowup_reports_step():
    data = {
        "plant": desk_arm_dict(),
        "sim": {"dt": 0.01, "duration": 0.5, "seed": 0},
        "controller": {
            "stiffness_table": [[1e14, 1e14]] * 4,
            "level": 4,
            "x_eq": [0.0, -5.0],
        },
    }
    with pytest.raises(NumericBlowup) as exc:
        run_scenario(parse_scenario(data))
    assert str(exc.value).startswith("[step ")


def test_dependent_contact_directions_report_step():
    data = {
        "plant": {
            "chains": [
                {
                    "name": "rod", "role": "srl", "base": [0.0, 0.0],
                    "heading": 0.0,
                    "joints": [
                        {"kind": "revolute", "mass": 1.0, "length": 0.3,
                         "com": 0.15, "inertia": 0.01, "q0": 0.5},
                    ],
                },
            ],
        },
        "sim": {"dt": 0.005, "duration": 0.5, "seed": 0},
        "contact": {"chain": "rod", "directions": ["x", "z"]},
        "controller": {"enabled": False},
    }
    with pytest.raises(RankDeficient) as exc:
        run_scenario(parse_scenario(data))
    assert str(exc.value).startswith("[step 0")


# --- columnar log ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["emg_step.json", "overhead_inverse.json"])
def test_log_columns_match_csv(tmp_path, name):
    sc = load_scenario(scenario_path(name))
    log = run_scenario(sc)
    assert len(log) == sc.sim.n_steps
    path = tmp_path / "log.csv"
    log.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == log.columns
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    for i, c in enumerate(log.columns):
        col = log.column(c)
        assert col.shape == (sc.sim.n_steps,)
        if c == "gate":
            assert col.dtype == bool
            np.testing.assert_array_equal(col, table[:, i] == 1.0)
        else:
            np.testing.assert_array_equal(col, table[:, i])


def test_log_column_is_a_copy(tmp_path):
    log = run_scenario(load_scenario(scenario_path("static_hold.json")))
    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    log.to_csv(str(before))
    log.column("lambda_z")[:] = -1.0
    log.column("gate")[:] = True
    log.to_csv(str(after))
    assert before.read_bytes() == after.read_bytes()
