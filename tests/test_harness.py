"""Tests for the deterministic simulator: synthetic sEMG, the integrator,
logging, and whole-scenario runs."""

import builtins
import dataclasses
import hashlib
import json
import math
import sys
import tracemalloc
from functools import cache

import numpy as np
import pytest
from conftest import (
    called_kernel_source,
    desk_arm_dict,
    poison_kernel,
    reference_advance,
    reference_batch_kernel,
    reference_decouple,
    reference_inverse_run,
    reference_step_kernel,
    reference_tracking_run,
    reference_tracking_step,
    scenario_path,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superlimb import dynamics, harness, plant
from superlimb.cli import main
from superlimb.emg import bandpass, envelope, rectify
from superlimb.errors import (
    DimensionMismatch,
    NonFinite,
    NumericBlowup,
    ParseError,
    RankDeficient,
    SuperlimbError,
    ValidationError,
)
from superlimb.harness import _mount_force, generate_emg, integrate_step, run_scenario
from superlimb.numerics import QR_RANK_RTOL
from superlimb.stiffness import V_EPS
from superlimb.dynamics import ContactSpec
from superlimb.plant import AXES, Chain, Joint, PlantModel, PlantState
from superlimb.scenario import (
    ActivationProfile,
    ContactConfig,
    ContactMotion,
    ControllerConfig,
    HumanMotion,
    Scenario,
    SimParams,
    load_scenario,
    parse_scenario,
)
from superlimb.stiffness import FrictionModel, TaskSpaceController


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


@pytest.mark.parametrize("profile", [
    FULL_ON, ActivationProfile(fs=1000.0, duration=1.5, steps=((0.0, 0.0), (0.5, 0.7)))])
@pytest.mark.parametrize("seed", [0, 42])
def test_generate_emg_calibrates_on_numpys_median(monkeypatch, profile, seed):
    # the calibration median is emg._median, np.median's value to the bit
    trace = generate_emg(profile, seed=seed).channels[0][1]
    monkeypatch.setattr(harness, "_median", lambda x: float(np.median(x)))
    assert trace.tobytes() == generate_emg(profile, seed=seed).channels[0][1].tobytes()


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
    the two results and the three filled lists as ``float.hex``, or the
    error's class and message."""
    q, qd, a, h, tau, dt, m, j_c, vt, q_next, qd_next, qdd = args
    q_next, qd_next, qdd = list(q_next), list(qd_next), list(qdd)
    try:
        lam, tau_h = advance(list(q), list(qd), [list(r) for r in a], list(h), list(tau), dt,
                             m, [list(r) for r in j_c], list(vt), q_next, qd_next, qdd)
    except SuperlimbError as exc:
        return type(exc), str(exc)
    return tuple([float.hex(x) for x in v] for v in (lam, tau_h, qdd, qd_next, q_next))


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
# every term of a scripted joint's A qdd and its bias are -0.0, so its
# tau_h is 0.0 only from sum()'s 0 start
@example(([0.0, 0.0], [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [0.0, -0.0], [-1.0], 0.01, 1,
          [], [], [0.0, 0.0], [0.0, 0.0], [0.0, -0.0]))
def test_generated_advance_matches_reference(args):
    # lam, tau_h, qdd, qd_next and q_next to the bit for every (n, m, k)
    # shape with m = 0-5 free DoFs, up to 2 scripted ones and 0-2 contact
    # rows, or the same error class and message
    assert_same_advance(args)


def test_generated_code_parity_holds_under_a_compensated_sum(monkeypatch):
    # the generated step kernels, contact solve, split and SPD solve match
    # their reference loops to the bit under Python 3.12's compensated float
    # sum() too: the loops add with conftest.left_sum, the generated code
    # adds left to right, and what src still sums with sum() has two terms
    import test_dynamics
    import test_numerics
    import test_plant

    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1, 0.2, 0.3]) == 0.6  # patched
    for parity in (test_generated_advance_matches_reference, test_dynamics.test_generated_split_matches_reference,
                   test_numerics.test_generated_spd_solve_matches_reference,
                   test_plant.test_generated_kernel_matches_reference_loop,
                   test_plant.test_run_kernel_matches_reference_loop):
        parity()


def compensated_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 computes it: ints add plainly until the first
    item of another type; from there, while the total is a float, a float
    item adds with Neumaier's compensation and an int plainly, and the
    compensation, if nonzero and finite, is added at the end or before the
    first item of another type, after which every item adds plainly."""
    mode = {int: "int", float: "float"}.get(type(start), "plain")
    total, c = start, 0.0
    for x in iterable:
        if mode == "int":
            total = total + x
            if not isinstance(x, int):
                mode = "float" if type(total) is float else "plain"
        elif mode == "float" and type(x) is float:
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        elif mode == "float" and isinstance(x, int):
            total += float(x)
        else:
            if mode == "float" and c and math.isfinite(c):
                total += c
            mode, total = "plain", total + x
    if mode == "float" and c and math.isfinite(c):
        total += c
    return total


def test_task_space_has_two_axes():
    # a task-space force has one entry per axis, so control_force's and
    # task_to_joint_torque's sum()s over float lists add two terms, where a
    # compensated sum rounds as the plain one does
    assert len(plant.AXES) == 2


def test_bundled_logs_do_not_depend_on_a_compensated_sum(monkeypatch, tmp_path):
    # the five bundled runs write the same bytes under Python 3.12's
    # compensated float sum() as under this one's left-to-right sum()
    assert compensated_sum([0.1, 0.2, 0.3]) == 0.6 != sum([0.1, 0.2, 0.3])

    def digests(tag: str) -> dict:
        out = {}
        for name in SIM_SCENARIOS:
            path = tmp_path / f"{tag}-{name}.csv"
            assert main(["run", "--config", scenario_path(name), "--out", str(path)]) == 0
            out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return out

    plain = digests("plain")
    calls, floats = [0], [0]

    def counted(iterable, /, start=0):
        total = compensated_sum(iterable, start)
        calls[0] += 1
        floats[0] += type(total) is float
        return total

    monkeypatch.setattr(builtins, "sum", counted)
    compensated = digests("compensated")
    monkeypatch.undo()
    # the runs reached it, in the inverse-dynamics control law over arrays;
    # the generated code adds floats left to right, so no sum() of the runs
    # totals a float
    assert calls[0] > 0 and floats[0] == 0
    assert compensated == plain


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


def count_kernel_calls(model: PlantModel, name: str = "_kernel") -> list[int]:
    """Count calls of ``model``'s step kernel, or of the kernel called
    ``name`` (``_batch_kernel``, which this builds), from now on."""
    original, cell = getattr(model, name), [0]

    def counted(q, qd):
        cell[0] += 1
        return original(q, qd)

    object.__setattr__(model, name, counted)
    return cell


def blocks(steps: int) -> int:
    """Batch-kernel calls of an inverse-dynamics run of ``steps`` steps."""
    return -(-steps // harness.RUN_BLOCK)


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
    # one product over a batch of steps, each row to the bit what the
    # point(at="com") path gives for its own step; zero terms included
    sc = load_scenario(scenario_path(name))
    n = sc.model.n_dof
    k = len(sc.contact.spec.directions) if sc.contact else 0
    for steps in (1, 2, 37):
        states = [
            sc.model.state(sc.model.q0 + rng.uniform(-0.5, 0.5, n), rng.standard_normal(n))
            for _ in range(steps)
        ]
        qdd = rng.standard_normal((steps, n))
        qdd[::3, 0] = -0.0
        lam = rng.standard_normal((steps, k))
        got = _mount_force(sc, [state.kin.mount for state in states], qdd, lam)
        assert got.shape == (steps, 2)
        for state, q_dd, lam_robot, row in zip(states, qdd, lam, got):
            ref = reference_mount_force(state, q_dd, lam_robot, sc)
            assert row.tobytes() == ref.tobytes()


def test_inverse_step_call_counts(monkeypatch):
    # one batch-kernel call per block of steps and one decoupling per step,
    # on the kernel's float lists: no array-valued snapshot and no LAPACK QR
    # in the loop
    for duration, steps in [(0.25, 50), (2.6, 520)]:
        sc = load_scenario(scenario_path("overhead_inverse.json"))
        sc = dataclasses.replace(sc, sim=dataclasses.replace(sc.sim, duration=duration))
        assert sc.controller.x_eq is None  # "auto": one scalar kernel call, at q0
        counters = {
            "snapshot": count_calls(monkeypatch, dynamics.DynamicsSnapshot, "__post_init__"),
            "kernel": count_kernel_calls(sc.model),
            "batch": count_kernel_calls(sc.model, "_batch_kernel"),
            "decouple": count_calls(monkeypatch, dynamics, "decouple"),
            "qr_full": count_calls(monkeypatch, dynamics, "qr_full"),
        }
        log = run_scenario(sc)
        assert len(log) == sc.sim.n_steps == steps
        counts = {name: cell[0] for name, cell in counters.items()}
        assert counts == {"snapshot": 0, "kernel": 1, "batch": blocks(steps),
                          "decouple": steps, "qr_full": 0}
        monkeypatch.undo()


@pytest.mark.parametrize("name, per_step", [
    # the tracking block inlines all five, and the run kernel too
    ("press_friction.json", [0, 0, 0, 0, 0]),
    # nothing is applied: no J^T f, no friction, and decouple replaces the
    # step; the control law runs once per block of steps, and the contact
    # rows come from the block's arrays wherever they are finite and above
    # the floor
    ("overhead_inverse.json", ["block", 0, 0, 0, 0]),
])
def test_step_law_call_counts(monkeypatch, name, per_step):
    # the loop calls each step law and the contact solve by its name in
    # harness once per block where it applies (inverse dynamics), or not at
    # all (tracking, where the generated block inlines them); neither mode
    # calls the run kernel but for an "auto" equilibrium point
    sc = load_scenario(scenario_path(name))
    sc = dataclasses.replace(sc, sim=dataclasses.replace(sc.sim, duration=0.25))
    laws = ["control_force", "task_to_joint_torque", "friction_torque", "contact_jacobian",
            "_advance"]
    cells = [count_calls(monkeypatch, harness, law) for law in laws]
    kernel = count_kernel_calls(sc.model)
    steps = len(run_scenario(sc))
    assert steps == sc.sim.n_steps == 50
    assert [cell[0] for cell in cells] == [blocks(steps) if k == "block" else k * steps
                                           for k in per_step]
    assert kernel[0] == (sc.controller.x_eq is None)


@pytest.mark.parametrize("name", SIM_SCENARIOS)
def test_run_evaluates_the_plant_only_on_the_step_kernel(monkeypatch, name):
    # tracking: no run-kernel call (the tracking block inlines its lines);
    # inverse dynamics: one batch-kernel call per block; either plus one
    # run-kernel call at q0 for an "auto" equilibrium point, and no
    # array-valued PlantState at all
    sc = load_scenario(scenario_path(name))
    sc = dataclasses.replace(sc, sim=dataclasses.replace(sc.sim, duration=0.5))
    inverse = sc.sim.mode == "inverse-dynamics"
    states = count_calls(monkeypatch, PlantState, "__init__")
    kernel = count_kernel_calls(sc.model)
    batch = count_kernel_calls(sc.model, "_batch_kernel") if inverse else [0]
    log = run_scenario(sc)
    assert len(log) == sc.sim.n_steps == 100
    assert states[0] == 0
    assert kernel[0] == (sc.controller.x_eq is None)
    assert batch[0] == (blocks(len(log)) if inverse else 0)


@pytest.mark.parametrize("name", SIM_SCENARIOS)
def test_load_and_run_compile_only_the_run_kernel(monkeypatch, name):
    # a scenario's plant compiles one step kernel at load, the run kernel;
    # an inverse-dynamics run adds the batch kernel, and no run builds the
    # full Kinematics that PlantState reads
    labels, compile_body = [], plant._function

    def record(signature, body, label, **names):
        labels.append(label)
        return compile_body(signature, body, label, **names)

    monkeypatch.setattr(plant, "_function", record)
    sc = load_scenario(scenario_path(name))
    sc = dataclasses.replace(sc, sim=dataclasses.replace(sc.sim, duration=0.25))
    chains = ", ".join(c.name for c in sc.model.chains)
    assert labels == [f"step kernel: {chains}"]
    assert "_batch_kernel" not in vars(sc.model)
    assert len(run_scenario(sc)) == 50
    if sc.sim.mode == "inverse-dynamics":
        assert labels == [f"step kernel: {chains}", f"batch kernel: {chains}"]
    else:
        assert labels == [f"step kernel: {chains}"]
        assert "_batch_kernel" not in vars(sc.model)
    assert "_full_kernel" not in vars(sc.model)


@pytest.mark.parametrize("name", SIM_SCENARIOS)
def test_run_on_reference_kernel_logs_the_same_bytes(name):
    # the generated step kernel against the loop it unrolls (in inverse
    # dynamics, a batch of it built row by row; in tracking, stepped through
    # the kernel source's seam), through a whole run in either sim mode:
    # every logged value is the same to the bit
    logs = []
    for use_reference in (False, True):
        sc = load_scenario(scenario_path(name))
        sc = dataclasses.replace(sc, sim=dataclasses.replace(sc.sim, duration=0.5))
        if use_reference:
            model = sc.model
            object.__setattr__(model, "_kernel", reference_step_kernel(model))
            object.__setattr__(model, "_batch_kernel", reference_batch_kernel(model))
            object.__setattr__(model, "_kernel_source", called_kernel_source(model._kernel_source))
        logs.append(run_scenario(sc))
    assert logs[0].columns == logs[1].columns
    assert logs[0]._data.tobytes() == logs[1]._data.tobytes()


@cache
def full_run(name: str) -> harness.SimLog:
    """The log of one bundled scenario run at its own settings."""
    return run_scenario(load_scenario(scenario_path(name)))


@pytest.mark.parametrize("name", SIM_SCENARIOS + ["overhead_inverse.json xz"])
def test_run_on_reference_tracking_run_logs_the_same_bytes(name):
    # the generated tracking block against the list-form chain of step laws
    # and the contact solve, through a whole bundled run at its own length
    # (the inverse-dynamics one in tracking mode, also with x and z contact
    # rows, a block shape no bundled file has): every logged value is the
    # same to the bit
    file, _, edit = name.partition(" ")
    sc = load_scenario(scenario_path(file))
    if edit == "xz":  # loaded in tracking mode, as the contact-row check reads the mode
        with open(scenario_path(file)) as fh:
            data = json.load(fh)
        data["sim"]["mode"] = "tracking"
        data["contact"]["directions"] = ["x", "z"]
        sc = parse_scenario(data)
        log = run_scenario(sc)
    elif sc.sim.mode != "tracking":
        sc = dataclasses.replace(sc, sim=dataclasses.replace(sc.sim, mode="tracking"))
        log = run_scenario(sc)
    else:
        log = full_run(file)
    reference = reference_tracking_run(sc)
    assert log.columns == reference.columns
    assert len(log) == len(reference) == sc.sim.n_steps
    assert log._data.tobytes() == reference._data.tobytes()


def test_contact_solve_is_generated_once_per_shape():
    step = harness._contact_step(4, 3, 1)
    assert harness._contact_step(4, 3, 1) is step
    assert step.__code__.co_filename == "<contact solve: n=4, m=3, k=1>"


def test_tracking_block_is_generated_once_per_shape(monkeypatch):
    # loading compiles the run kernel and nothing else; the first run of a
    # shape compiles its tracking block, and a variant of the same template
    # with other gains, damping, friction, step and limb q0 shares it: the
    # kernel's lines hold no q0
    labels, compile_body = [], harness._function

    def record(signature, body, label, **names):
        labels.append(label)
        return compile_body(signature, body, label, **names)

    for module in (harness, plant, dynamics):
        monkeypatch.setattr(module, "_function", record)
    harness._tracking_block.cache_clear()
    variants = []
    for level, damping, coulomb, dt, dq in ((2, [3.0, 1.0], 0.4, 0.005, 0.0),
                                            (4, [0.5, 7.0], 1.5, 0.004, 0.02)):
        with open(scenario_path("press_friction.json")) as fh:
            data = json.load(fh)
        ctrl = data["controller"]
        ctrl.update(level=level, damping=damping)
        ctrl["friction"]["coulomb"] = coulomb
        for joint in data["plant"]["chains"][0]["joints"]:
            joint["q0"] = joint.get("q0", 0.0) + dq
        data["sim"].update(duration=50 * dt, dt=dt)
        variants.append(parse_scenario(data))
    assert variants[0].model.q0.tolist() != variants[1].model.q0.tolist()
    chains = ", ".join(c.name for c in variants[0].model.chains)
    assert labels == [f"step kernel: {chains}"] * 2
    blocks_compiled = []
    for sc in variants:
        del labels[:]
        assert len(run_scenario(sc)) == 50
        blocks_compiled.append(labels[:])
    assert len(blocks_compiled[0]) == 1
    assert blocks_compiled[0][0].startswith("tracking block: n=")
    assert blocks_compiled[1] == []
    assert harness._tracking_block.cache_info().currsize == 1


@cache
def bundled_model(name: str) -> PlantModel:
    return load_scenario(scenario_path(name)).model


#: values a drawn kernel output may take in place of an entry
SPECIAL = st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf])
#: a joint velocity on either side of friction's deadband, or at it
NEAR_V_EPS = st.sampled_from([V_EPS, -V_EPS, math.nextafter(V_EPS, 0.0),
                              math.nextafter(V_EPS, 1.0), -math.nextafter(V_EPS, 0.0), 0.0, -0.0])


def scatter(data, values: list) -> list:
    """``values`` with a few entries drawn over by ``SPECIAL``."""
    values = list(values)
    for i in data.draw(st.lists(st.integers(0, len(values) - 1), max_size=2)):
        values[i] = data.draw(SPECIAL)
    return values


def step_outcome(run):
    """What one step does: ``run()``'s row and the three filled lists as
    ``float.hex``, or its error's type and message."""
    try:
        return [[float.hex(v) for v in out] for out in run()]
    except SuperlimbError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_tracking_block_step_matches_the_list_form_chain(data):
    # one step of the generated tracking block against the chain the oracle
    # run steps with (contact_jacobian, control_force, task_to_joint_torque,
    # friction_torque, _advance), on a bundled plant's kernel output with
    # -0.0, NaN and Inf scattered in, which the block reads through the
    # kernel source's seam: the row, the next state and the accelerations
    # to the bit, or the same error
    model = bundled_model(data.draw(st.sampled_from(SIM_SCENARIOS)))
    n, m = model.n_dof, len(model.srl_indices)
    directions = data.draw(st.sampled_from([(), ("z",), ("x",), ("x", "z"), ("z", "x")]))
    rows = [AXES.index(c) for c in data.draw(st.sampled_from([("x", "z"), ("z",), ("z", "x")]))]
    limb = st.integers(0, len(model.chains[0].joints) - 1)  # links of the first, limb chain
    task, contact = data.draw(limb), data.draw(limb)
    spec = ContactSpec(chain=model.chains[0].name, directions=directions, joint=contact) \
        if directions else None
    enabled = data.draw(st.booleans())
    value = st.floats(-5.0, 5.0) | st.sampled_from([0.0, -0.0])

    def vec(size):
        return data.draw(st.lists(value, min_size=size, max_size=size))

    damping = vec(len(rows)) if data.draw(st.booleans()) else None
    friction = data.draw(st.none() | st.tuples(
        st.lists(st.floats(0.0, 2.0), min_size=m, max_size=m),
        st.lists(st.floats(0.0, 2.0), min_size=m, max_size=m), st.floats(1.0, 3.0)))
    q = (model.q0 + np.array(vec(n)) * 0.1).tolist()
    qd = [data.draw(NEAR_V_EPS | value) for _ in range(n)]
    kin = model._kernel(q, qd)
    jac = [list(map(list, pair)) for pair in kin.tip_jac]
    if spec is not None and data.draw(st.booleans()):  # a constrained row at the floor
        axis = spec.rows[data.draw(st.integers(0, len(spec.rows) - 1))]
        floor = QR_RANK_RTOL * max(map(abs, jac[contact][1 - axis]))
        z = floor if data.draw(st.booleans()) else math.nextafter(floor, 0.0)
        jac[contact][axis] = [z] + [0.0] * (n - 1)
    for link in {task, contact}:
        jac[link] = [scatter(data, r) for r in jac[link]]
    kin = kin._replace(
        tip=[tuple(scatter(data, p)) for p in kin.tip],
        tip_vel=[tuple(scatter(data, p)) for p in kin.tip_vel],
        tip_jac=[tuple(r) for r in jac], a=[scatter(data, r) for r in kin.a],
        g=scatter(data, kin.g), h=scatter(data, kin.h))
    k_task = [vec(len(rows)) for _ in rows]
    f_gravity, x_eq, v_target = vec(len(rows)), vec(len(rows)), vec(len(directions))
    scripted = [vec(n) for _ in range(3)]
    dt = data.draw(st.sampled_from([0.005, 0.001]))
    link = model.link_index(model.chains[0].name, contact)
    law = (m, task, rows, spec, link, enabled, k_task, f_gravity, damping, friction, dt)
    block = harness._tracking_block(called_kernel_source(model._kernel_source), n, m, task,
                                    tuple(rows), link if spec else None, directions, enabled,
                                    damping is not None, friction is not None)

    def generated():
        q_next, qd_next, qdd = (list(v) for v in scripted)
        out, mount = [], []
        block(lambda *_: kin, list(q), list(qd), [x_eq], [v_target], [q_next], [qd_next],
              [qdd], k_task, f_gravity, damping, friction, dt, out, mount)
        assert mount == [kin.mount]
        return out[0], q_next, qd_next, qdd

    def chain():
        q_next, qd_next, qdd = (list(v) for v in scripted)
        row = reference_tracking_step(kin, law, list(q), list(qd), x_eq, v_target, q_next,
                                      qd_next, qdd)
        return row, q_next, qd_next, qdd

    assert step_outcome(generated) == step_outcome(chain)


@st.composite
def drawn_tracking_run(draw) -> Scenario:
    """A short tracking run of a drawn plant: 1-2 chains of 1-4 revolute or
    prismatic joints with zero or nonzero inertias and rotors, the first
    chain the limb; the control law, damping and friction each on or off;
    0-2 contact rows at a link of the limb."""
    extra = st.sampled_from([0.0]) | st.floats(1e-3, 0.5)
    chains = []
    for k in range(draw(st.integers(1, 2))):
        joints = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["revolute", "prismatic"]))
            joints.append(Joint(
                kind=kind, mass=draw(st.floats(0.1, 10.0)),
                length=draw(st.floats(0.05 if kind == "revolute" else 0.0, 1.0)),
                com=draw(st.floats(-0.5, 1.0)), inertia=draw(extra), rotor=draw(extra),
                axis=draw(st.floats(-3.2, 3.2)), q0=draw(st.floats(-1.0, 1.0))))
        role = "srl" if k == 0 else draw(st.sampled_from(["srl", "human"]))
        chains.append(Chain(name=f"c{k}", role=role, joints=tuple(joints),
                            base=(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))),
                            heading=draw(st.floats(-3.2, 3.2))))
    model = PlantModel(chains=tuple(chains), gravity=draw(st.sampled_from([0.0, 9.81])))
    m, links = len(model.srl_indices), range(len(chains[0].joints))
    components = draw(st.sampled_from([("x", "z"), ("z",), ("x",), ("z", "x")]))
    value = st.floats(-5.0, 5.0)

    def vec(size):
        return draw(st.lists(value, min_size=size, max_size=size))

    friction = draw(st.none() | st.builds(
        FrictionModel, st.lists(st.floats(0.0, 2.0), min_size=m, max_size=m),
        st.lists(st.floats(0.0, 2.0), min_size=m, max_size=m), st.floats(1.0, 3.0)))
    controller = ControllerConfig(
        chain="c0", enabled=draw(st.booleans()), joint=draw(st.sampled_from(links)),
        components=components, level=draw(st.integers(1, 4)),
        x_eq=draw(st.none() | st.just(vec(len(components)))), f_gravity=vec(len(components)),
        damping=draw(st.none() | st.just([abs(v) for v in vec(len(components))])),
        friction=friction)
    directions = draw(st.sampled_from([(), ("z",), ("x",), ("x", "z"), ("z", "x")]))
    contact = ContactConfig(ContactSpec("c0", directions, draw(st.sampled_from(links)))) \
        if directions else None
    sim = SimParams(dt=0.005, duration=0.005 * draw(st.integers(1, 12)))
    return Scenario(model, sim, controller, contact)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sc=drawn_tracking_run())
def test_fused_tracking_run_matches_the_run_kernel_oracle(sc):
    # the tracking block with the run kernel's lines inlined against the
    # whole-run oracle that calls model._kernel each step, on drawn plants
    # and controllers: every logged value to the bit, or the same error
    def outcome(run):
        try:
            log = run(sc)
        except SuperlimbError as exc:
            return type(exc), str(exc)
        return log.columns, log_bits(log)

    assert outcome(run_scenario) == outcome(reference_tracking_run)


@pytest.mark.parametrize("directions", [["z"], ["x", "z"]])
def test_inverse_run_on_reference_decouple_logs_the_same_bytes(monkeypatch, directions):
    # the generated split against the list-based loop, through the bundled
    # inverse-dynamics run and its k = 2 edit: every logged value is the
    # same to the bit
    with open(scenario_path("overhead_inverse.json")) as fh:
        data = json.load(fh)
    data["contact"]["directions"] = directions
    generated = run_scenario(parse_scenario(data))
    monkeypatch.setattr(dynamics, "decouple", reference_decouple)
    reference = run_scenario(parse_scenario(data))
    assert reference.columns == generated.columns
    assert reference._data.tobytes() == generated._data.tobytes()


def inverse_variant(edit: str, steps: int, sway: dict, level: int) -> dict:
    """overhead_inverse with one edit, run for ``steps`` steps."""
    with open(scenario_path("overhead_inverse.json")) as fh:
        data = json.load(fh)
    if edit == "none":
        del data["contact"]
    elif edit in ("x", "z", "xz"):
        data["contact"]["directions"] = list(edit)
    elif edit == "off":
        data["controller"]["enabled"] = False
    elif edit == "damped":
        data["controller"]["damping"] = [2.0, 3.0]
    elif edit == "hinged":  # a turning trunk: its state moves its own A, h and tau_h
        data["plant"]["chains"][1]["joints"][0].update(kind="revolute", length=0.4, com=0.2)
    data["controller"]["level"] = level
    data["human_motion"].update(sway)
    data["sim"]["duration"] = steps * data["sim"]["dt"]
    return data


def log_bits(log: harness.SimLog) -> list[list[str]]:
    """Every logged value as ``float.hex``, row by row."""
    return [[v.hex() for v in row] for row in log._data[: len(log)].tolist()]


BLOCK = harness.RUN_BLOCK


@pytest.mark.parametrize("steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("edit", ["z", "xz", "none", "off", "damped", "hinged"])
@settings(max_examples=3, deadline=None)
@given(sway=st.fixed_dictionaries({"amplitude": st.lists(st.floats(0.0, 0.05), min_size=1,
                                                         max_size=1),
                                   "frequency": st.floats(0.1, 3.0),
                                   "phase": st.floats(-3.2, 3.2)}),
       level=st.integers(1, 4))
def test_inverse_run_logs_the_step_by_step_bytes(edit, steps, sway, level):
    # blocks of steps through the batch kernel and one control-law call each
    # log what the step-by-step loop logs, on either side of a block's end
    data = inverse_variant(edit, steps, sway, level)
    log, reference = run_scenario(parse_scenario(data)), reference_inverse_run(parse_scenario(data))
    assert len(log) == len(reference) == steps
    assert log.columns == reference.columns
    assert log_bits(log) == log_bits(reference)


def tracking_variant(name: str, steps: int, level: int, damping, sway: float,
                     stiffness) -> dict:
    """A bundled tracking scenario run for ``steps`` steps, with the trunk
    on a sway of ``sway`` m: "sweep" is overhead_sweep's swept contact,
    "friction" press_friction, "gated" emg_step's sEMG-gated shift and
    "off" overhead_sweep with no controller.  ``damping`` (when given) and
    a ``stiffness`` on every level (when given; large ones blow the run
    up) replace the controller's."""
    file = {"sweep": "overhead_sweep", "off": "overhead_sweep",
            "friction": "press_friction", "gated": "emg_step"}[name]
    with open(scenario_path(f"{file}.json")) as fh:
        data = json.load(fh)
    ctrl = data["controller"]
    if name == "off":
        ctrl["enabled"] = False
    else:
        ctrl["level"] = level
        if damping is not None:
            ctrl["damping"] = damping
        if stiffness is not None:
            ctrl["stiffness_table"] = [[stiffness, stiffness]] * 4
    data["human_motion"] = {"type": "sine", "amplitude": [sway], "frequency": 0.5}
    data["sim"]["duration"] = steps * data["sim"]["dt"]
    return data


def outcome(run, data: dict, edits: dict | None = None):
    """The columns and ``log_bits`` of ``run``'s log of ``data``, or the
    type and message of the error it raised; with ``edits``, on kernels
    that ``poison_kernel`` edits with them."""
    sc = parse_scenario(data)
    if edits:
        poison_kernel(sc.model, edits, int(sc.controller.x_eq is None))
    try:
        log = run(sc)
    except SuperlimbError as exc:
        return type(exc).__name__, str(exc)
    return log.columns, log_bits(log)


@pytest.mark.parametrize("steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("name", ["sweep", "friction", "gated", "off"])
@settings(max_examples=3, deadline=None)
@given(level=st.integers(1, 4),
       damping=st.none() | st.lists(st.floats(0.0, 50.0), min_size=2, max_size=2),
       sway=st.floats(0.0, 0.05),
       stiffness=st.none() | st.floats(1e4, 1e7))
@example(level=2, damping=None, sway=0.01, stiffness=47200.0)  # "gated" blows up at step 544
def test_tracking_run_logs_the_whole_run_loop_bytes(name, steps, level, damping, sway,
                                                    stiffness):
    # the loop over blocks logs what the loop over the whole run logs, on either
    # side of a block's end, and raises the same first error
    data = tracking_variant(name, steps, level, damping, sway, stiffness)
    assert outcome(run_scenario, data) == outcome(reference_tracking_run, data)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["inverse-dynamics", "tracking"])
@pytest.mark.parametrize("q0, sway", [
    (1.79e308, {"amplitude": [1e307]}),
    (sys.float_info.max, {"amplitude": [1e303], "frequency": 50.0}),
])
def test_an_infinite_scripted_angle_exits_1_at_load(tmp_path, capsys, q0, sway, mode):
    # a scripted angle past the float range is a fault of the file: it is
    # rejected before the sway is evaluated, with no overflow warning, no
    # traceback and no log
    data = inverse_variant("hinged", 10, sway, 2)
    data["plant"]["chains"][1]["joints"][0]["q0"] = q0
    data["sim"]["mode"] = mode
    cfg, out = tmp_path / "sway.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps(data))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: human_motion.amplitude: {sway['amplitude'][0]:g} about q0 = {q0:g} takes "
        "human joint 0 past the float range\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["inverse-dynamics", "tracking"])
@pytest.mark.parametrize("chain", [0, 1])
@pytest.mark.parametrize("directions", ["z", "xz"])
def test_an_infinite_chain_angle_exits_1_at_load(tmp_path, capsys, chain, mode, directions):
    # two revolute joints at 1e308 on one chain (the arm's first two, or a
    # trunk of two with no sway): each angle is finite, but the kernel sums
    # them before cos, which would raise on the first call (two directions
    # have the load evaluate the kernel for its contact-row check)
    data = inverse_variant(directions, 10, {}, 2)
    joints = data["plant"]["chains"][chain]["joints"]
    if chain == 1:
        joints[:] = [dict(joints[0], kind="revolute", length=0.4, com=0.2) for _ in range(2)]
        del data["human_motion"]
    for joint in joints[:2]:
        joint["q0"] = 1e308
    data["sim"]["mode"] = mode
    cfg, out = tmp_path / "chain.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps(data))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: plant.chains[{chain}].joints: |heading| + the sum of |q0| + |amplitude| over "
        "the revolute joints passes the float range\n")
    assert not out.exists()


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


def stretched_rod(kin):
    """The rod's tip Jacobian turned into that of the rod stretched at angle
    0.5: both joints move the tip across it, so its x and z rows are
    dependent."""
    across = (-math.sin(0.5), math.cos(0.5))
    rows = [[0.6 * a, 0.3 * a] for a in across]
    return kin._replace(tip_jac=[*kin.tip_jac[:-1], rows])


def rod_scenario(mode: str, q0: tuple[float, float]) -> dict:
    link = {"kind": "revolute", "mass": 1.0, "length": 0.3, "com": 0.15, "inertia": 0.01}
    return {
        "plant": {
            "chains": [
                {
                    "name": "rod", "role": "srl", "base": [0.0, 0.0],
                    "heading": 0.0,
                    "joints": [{**link, "q0": q0[0]}, {**link, "q0": q0[1]}],
                },
            ],
        },
        "sim": {"dt": 0.005, "duration": 0.05, "seed": 0, "mode": mode},
        "contact": {"chain": "rod", "directions": ["x", "z"]},
        "controller": {"enabled": False},
    }


@pytest.mark.parametrize("mode, detail", [
    ("inverse-dynamics", "(|r_ii| range [0.000e+00, 3.216e-01])"),
    ("tracking", "(leading minor 2 is 8.882e-16)"),
])
def test_dependent_contact_directions_at_q0_fail_at_load(mode, detail):
    # a stretched 2-joint rod: both joints move its tip across the rod, so x
    # and z are dependent at q0 (a 1-joint rod fails the joint count first);
    # the load applies the rule of the mode's contact solve, with its detail
    with pytest.raises(ParseError) as exc:
        parse_scenario(rod_scenario(mode, (0.5, 0.0)))
    assert exc.value.key == "contact.directions"
    assert str(exc.value) == f"contact.directions: x and z are not independent at q0 {detail}"


@pytest.mark.parametrize("mode, dependent", [
    # the rod's x row is about -(0.6, 0.3) and its z row about -0.3 d (1, 1):
    # not parallel, so the Gram pivot (sin^2 of their angle, about 0.1)
    # passes, but |r_22| / |r_11| is about 0.2 d, under the QR rule's 1e-10
    ("tracking", False),
    ("inverse-dynamics", True),
])
def test_the_load_applies_the_contact_rule_of_its_mode(mode, dependent):
    # at q0 = (pi/2, d) with d = 3e-10, step 0 of each mode decides as the load does
    data = rod_scenario(mode, (math.pi / 2, 3e-10))
    if dependent:
        with pytest.raises(ParseError, match=r"x and z are not independent at q0 \(\|r_ii\|"):
            parse_scenario(data)
    else:
        assert len(run_scenario(parse_scenario(data))) == 10


@pytest.mark.parametrize("mode, detail", [
    ("inverse-dynamics", "(|r_ii| range ["),
    # the contact Gram matrix's second pivot rounds to a few ulps of its
    # diagonal entry, which only a relative floor rejects
    ("tracking", "(leading minor 2 is "),
])
def test_dependent_contact_directions_report_step(mode, detail):
    # a bent rod passes the load; its contact rows turn dependent at step 3
    sc = parse_scenario(rod_scenario(mode, (0.5, 0.4)))
    poison_kernel(sc.model, {3: stretched_rod}, int(sc.controller.x_eq is None))
    with pytest.raises(RankDeficient) as exc:
        run_scenario(sc)
    assert str(exc.value).startswith(
        "[step 3, t=0.015s] contact directions are not independent at this posture " + detail)


def inf_mount(kin):
    """The last limb link's CoM acceleration (x) made infinite in the mount
    force's input only: f_mount_x is -inf, every other logged value finite."""
    return kin._replace(mount=kin.mount[:-2] + (math.inf, kin.mount[-1]))


def inf_trunk_bias(kin):
    """The trunk joint's bias made infinite: in tracking mode the logged
    ``tau_h0`` (after f_mount) is inf; in inverse dynamics ``decouple``
    rejects it before anything is logged."""
    return kin._replace(h=kin.h[:-1] + [math.inf])


def nan_tip_vel(kin):
    """Every link tip's velocity at NaN: the commanded force's damping term
    is NaN, so the logged f_cmd_x, before f_mount, is nan in inverse
    dynamics, and the tracking step rejects the torque it applies."""
    return kin._replace(tip_vel=[(math.nan, math.nan)] * len(kin.tip_vel))


def both(*edits):
    """The edits applied in turn."""
    def edit(kin):
        for e in edits:
            kin = e(kin)
        return kin
    return edit


@pytest.mark.parametrize("mode, edits, message", [
    # the mount force alone, at step 3 of either mode
    ("tracking", {3: inf_mount}, "[step 3, t=0.015s] f_mount_x is -inf"),
    ("inverse-dynamics", {3: inf_mount}, "[step 3, t=0.015s] f_mount_x is -inf"),
    # before a later step's error, in the loop or in the log
    ("inverse-dynamics", {2: inf_mount, 5: inf_trunk_bias},
     "[step 2, t=0.01s] f_mount_x is -inf"),
    ("tracking", {2: inf_mount, 5: inf_trunk_bias}, "[step 2, t=0.01s] f_mount_x is -inf"),
    ("tracking", {2: inf_mount, 3: nan_tip_vel}, "[step 2, t=0.01s] f_mount_x is -inf"),
    # before a later column of the same step
    ("tracking", {2: both(inf_mount, inf_trunk_bias)}, "[step 2, t=0.01s] f_mount_x is -inf"),
    # but after an error earlier in the same step: in the loop or in the log
    ("inverse-dynamics", {2: both(inf_mount, inf_trunk_bias)},
     "[step 2, t=0.01s] h_bias contains NaN or Inf"),
    ("inverse-dynamics", {2: both(inf_mount, nan_tip_vel)}, "[step 2, t=0.01s] f_cmd_x is nan"),
    # the controls: each other error alone
    ("inverse-dynamics", {5: inf_trunk_bias}, "[step 5, t=0.025s] h_bias contains NaN or Inf"),
    ("tracking", {5: inf_trunk_bias}, "[step 5, t=0.025s] tau_h0 is inf"),
    ("inverse-dynamics", {3: nan_tip_vel}, "[step 3, t=0.015s] f_cmd_x is nan"),
    ("tracking", {3: nan_tip_vel}, "[step 3, t=0.015s] tau_total contains NaN or Inf"),
    # across a block's end: a block's error is found when the block ends,
    # before a later block's
    ("tracking", {3: inf_mount, BLOCK + 5: inf_trunk_bias}, "[step 3, t=0.015s] f_mount_x is -inf"),
    ("inverse-dynamics", {3: inf_mount, BLOCK + 5: inf_trunk_bias},
     "[step 3, t=0.015s] f_mount_x is -inf"),
    # and a later block's at its own step
    ("tracking", {BLOCK + 2: inf_mount}, f"[step {BLOCK + 2}, t=2.57s] f_mount_x is -inf"),
    ("inverse-dynamics", {BLOCK + 2: inf_mount}, f"[step {BLOCK + 2}, t=2.57s] f_mount_x is -inf"),
])
def test_deferred_mount_force_reports_the_first_error(mode, edits, message):
    # the mount force is computed once per block, when the block ends, but a
    # NaN or Inf in it is reported at its own step and column, as a row
    # check would have
    with open(scenario_path("overhead_inverse.json")) as fh:
        data = json.load(fh)
    data["sim"].update(mode=mode, duration=0.005 * max(10, max(edits) + 10))
    data["controller"]["damping"] = [2.0, 2.0]
    sc = parse_scenario(data)
    poison_kernel(sc.model, edits, int(sc.controller.x_eq is None))
    with pytest.raises(NonFinite) as exc:
        run_scenario(sc)
    assert str(exc.value) == message


def nan_tip(kin):
    """Every link tip's position at NaN: the logged x, and the commanded
    force from it, are NaN.  Inverse dynamics logs the row; the tracking
    step rejects the torque it applies."""
    return kin._replace(tip=[(math.nan, math.nan)] * len(kin.tip))


def nan_limb_bias(kin):
    """The first limb joint's bias at NaN: the step's own error in either
    mode with contact (the tracking state blows up, ``decouple`` rejects
    ``h_bias``), a NaN ``tau_s0`` in inverse dynamics without contact."""
    return kin._replace(h=[math.nan] + kin.h[1:])


#: a fault a step logs in its row without an error of its own, per mode
ROW_FAULT = {"tracking": inf_trunk_bias, "inverse-dynamics": nan_tip}


def block_steps(data, steps: int) -> tuple[int, int]:
    """Two steps, in order, drawn from one block of a ``steps``-step run
    (the same step when the block has one)."""
    lo = data.draw(st.sampled_from(range(0, steps, BLOCK)))
    hi = min(lo + BLOCK, steps)
    return tuple(sorted(data.draw(st.lists(st.integers(lo, hi - 1), min_size=2, max_size=2))))


def faults_at(first: int, second: int, early, late) -> dict:
    """``poison_kernel``'s edits: ``early`` at step ``first`` and ``late``
    at step ``second``, both in turn where the steps are one."""
    return {first: both(early, late)} if first == second else {first: early, second: late}


@pytest.mark.parametrize("steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("mode, contact", [("tracking", "z"), ("inverse-dynamics", "z"),
                                           ("inverse-dynamics", "none")])
@pytest.mark.parametrize("case", ["row, then a step's error", "mount, then a row"])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_a_blocks_first_fault_is_the_step_by_step_runs(case, mode, contact, steps, data):
    # a block's rows are written and checked when the block ends, but the
    # first NaN or Inf row, the mount cells filled, still wins over a later
    # step's error or row in the same block, at its step and column: the
    # step-by-step loop, which checks each row at its step, says the same
    first, second = block_steps(data, steps)
    early, late = {"row, then a step's error": (ROW_FAULT[mode], nan_limb_bias),
                   "mount, then a row": (inf_mount, ROW_FAULT[mode])}[case]
    edits = faults_at(first, second, early, late)
    variant = inverse_variant("damped", steps, {}, 2)
    if contact == "none":
        del variant["contact"]
    variant["sim"]["mode"] = mode
    reference = {"tracking": reference_tracking_run,
                 "inverse-dynamics": reference_inverse_run}[mode]
    assert outcome(run_scenario, variant, edits) == outcome(reference, variant, edits)


def contact_jacobian_edit(fix):
    """The contact link's (overhead_inverse's arm tip, link 2) Jacobian
    rows replaced by ``fix(jx, jz)``."""
    def edit(kin):
        tip_jac = list(kin.tip_jac)
        tip_jac[2] = tuple(map(list, fix(*tip_jac[2])))
        return kin._replace(tip_jac=tip_jac)
    return edit


def entry(row: int, col: int, value: float):
    """Entry ``col`` of Jacobian row ``row`` (0: x, 1: z) set to ``value``."""
    def fix(*rows):
        rows = [list(r) for r in rows]
        rows[row][col] = value
        return rows
    return fix


def floor_z(below: bool):
    """The z row cut to one entry at ``QR_RANK_RTOL`` times the x row's
    largest magnitude, the floor itself, or the float just below it."""
    def fix(jx, jz):
        floor = QR_RANK_RTOL * max(map(abs, jx))
        z = math.nextafter(floor, 0.0) if below else floor
        return jx, [z] + [0.0] * (len(jz) - 1)
    return fix


JACOBIAN_FAULTS = st.one_of(
    st.builds(entry, st.integers(0, 1), st.integers(0, 3),
              st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1e-300])),
    st.builds(floor_z, st.booleans()),
    st.sampled_from([lambda jx, jz: (jx, [0.0] * len(jz)),  # z vanishes
                     lambda jx, jz: ([0.0] * len(jx), jz)]),  # x vanishes
).map(contact_jacobian_edit)


@pytest.mark.parametrize("steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("directions", ["z", "xz"])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_inverse_contact_rows_fall_back_to_contact_jacobian(directions, steps, data):
    # a step whose contact Jacobian holds a NaN or Inf, or whose row falls
    # under the floor, takes its rows from contact_jacobian itself: the same
    # error at the same step where it raises, the same bytes where it passes
    # (a NaN in the x row of a z contact, a row exactly at the floor)
    edits = data.draw(st.dictionaries(st.integers(0, steps - 1), JACOBIAN_FAULTS,
                                      min_size=1, max_size=3))
    variant = inverse_variant(directions, steps, {}, 2)
    assert (outcome(run_scenario, variant, edits)
            == outcome(reference_inverse_run, variant, edits))


@pytest.mark.parametrize("name", ["overhead_sweep.json", "overhead_inverse.json"])
def test_run_memory_grows_with_the_log(name):
    # beside the log, a run holds its whole-run scripted arrays and one
    # block's lists: from 1,024 to 4,096 steps its peak traced memory grows
    # by at most 2.5 log rows per step (a run that kept every step's
    # kinematics grew by 6.7 to 12)
    def peak(steps):
        with open(scenario_path(name)) as fh:
            data = json.load(fh)
        data["sim"]["duration"] = steps * data["sim"]["dt"]
        sc = parse_scenario(data)
        tracemalloc.start()
        try:
            log = run_scenario(sc)
            return tracemalloc.get_traced_memory()[1], log._data[0].nbytes
        finally:
            tracemalloc.stop()

    (short, row), (long, _) = peak(1024), peak(4096)
    assert (long - short) / 3072 <= 2.5 * row


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
