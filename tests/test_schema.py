"""Scenario schemas: defaults and invariants owned by the section types,
the sEMG settings and chain links checked against their source at load,
parse- and run-level fuzz tests over the bundled scenarios, and a fuzz of
the stability-analysis section."""

import copy
import json
import math
import os
import warnings

import numpy as np
import pytest
from conftest import desk_arm_dict, scenario_path

from superlimb.errors import NumericError, ParseError, SuperlimbError, ValidationError
from superlimb.harness import run_scenario
from superlimb.plant import Joint
from superlimb.scenario import (
    ActivationProfile,
    ContactMotion,
    ControllerConfig,
    EmgConfig,
    HumanMotion,
    SimParams,
    build_posture,
    parse_scenario,
)
from superlimb.stability import (
    POSTURES,
    DiagnosticMismatch,
    stabilizing_servo_stiffness,
    stiffness_matrix_kp,
)
from superlimb.stiffness import TaskSpaceController


def base_scenario() -> dict:
    return {
        "plant": desk_arm_dict(),
        "sim": {"dt": 0.005, "duration": 1.0, "seed": 1},
        "contact": {"chain": "arm", "directions": ["z"]},
        "controller": {"level": 2, "panel_mass": 3.0},
    }


def good_profile() -> dict:
    return {"duration": 2.0, "steps": [[0.0, 0.5]]}


def expect_key(data: dict, key: str, reason_part: str = "", base_dir: str = ".") -> ParseError:
    with pytest.raises(ParseError) as exc:
        parse_scenario(data, base_dir)
    assert exc.value.key == key
    assert reason_part in exc.value.reason
    return exc.value


# --- library types reject bad values at construction ----------------------------


LIBRARY_CASES = {
    "sim-dt": (lambda: SimParams(dt=0.0, duration=1.0), "dt"),
    "sim-mode": (lambda: SimParams(dt=0.001, duration=1.0, mode="forward"), "mode"),
    "sim-steps": (lambda: SimParams(dt=0.005, duration=1e308), "duration"),
    "contact-speed": (lambda: ContactMotion(kind="triangle", speed=0.0), "speed"),
    "human-frequency": (
        lambda: HumanMotion(kind="sine", amplitude=np.ones(1), frequency=0.0), "frequency"),
    "human-amplitude": (lambda: HumanMotion(kind="sine"), "amplitude"),
    "emg-gate": (
        lambda: EmgConfig(enabled=True, profile=ActivationProfile(duration=2.0, steps=((0.0, 0.5),)),
                          threshold=0.05, hysteresis=0.1),
        "threshold"),
    "emg-source": (lambda: EmgConfig(enabled=True), None),
    "controller-level": (lambda: ControllerConfig(chain="arm", level=0), "level"),
    "controller-table": (lambda: ControllerConfig(chain="arm", table=(np.eye(2),) * 3), "table"),
    # one vector check serves both controller types: shape (m,), keyed by field
    "controller-damping-shape": (
        lambda: ControllerConfig(chain="arm", damping=np.ones((2, 1))), "damping"),
    "task-controller-x-eq": (
        lambda: TaskSpaceController(k_task=np.eye(2), x_eq=np.zeros(3), f_gravity=np.zeros(2)),
        "x_eq"),
}


@pytest.mark.parametrize("case", LIBRARY_CASES)
def test_library_types_validate_at_construction(case):
    make, key = LIBRARY_CASES[case]
    with pytest.raises(ValidationError) as exc:
        make()
    assert exc.value.key == key


def test_joint_com_defaults_to_link_midpoint():
    assert Joint(kind="revolute", mass=1.0, length=0.3).com == 0.15
    data = base_scenario()
    del data["plant"]["chains"][0]["joints"][0]["com"]
    joint = parse_scenario(data).model.chains[0].joints[0]
    assert joint.com == joint.length / 2.0


@pytest.mark.parametrize("key, value", [
    ("band", [500.0, 600.0]),
    ("band", [450.0, 20.0]),
    ("window", 0.001),
    ("window", 1e308),  # window * fs, its sample count, is not finite
])
def test_emg_band_and_window_checked_against_source_rate(key, value):
    with open(scenario_path("emg_step.json")) as fh:
        data = json.load(fh)
    data["emg"][key] = value
    err = expect_key(data, f"emg.{key}")
    assert "fs=1000.0" in err.reason


def test_emg_trace_band_checked_against_trace_rate(tmp_path):
    (tmp_path / "trace.csv").write_text("t,ch1\n" + "".join(
        f"{i / 2000.0},{0.1 * i}\n" for i in range(20)))
    data = base_scenario()
    data["emg"] = {"trace": "trace.csv", "band": [20.0, 900.0]}
    parse_scenario(data, base_dir=str(tmp_path))
    data["emg"]["band"] = [20.0, 1200.0]  # above the trace's Nyquist rate
    expect_key(data, "emg.band", "fs=2000.0", str(tmp_path))


# --- parse-level fuzz: only the package's own errors escape ---------------------

FUZZ_VALUES = [None, True, 0, -1, 2**70, 1e308, -1e308, 1e-300, math.nan, math.inf,
               -math.inf, "", "z", [], [0], [[]], {}]


def json_paths(node, prefix=()):
    """Path of every value below ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for k, v in items:
        yield prefix + (k,)
        yield from json_paths(v, prefix + (k,))


@pytest.mark.parametrize("name", ["overhead_sweep", "press_friction", "emg_step",
                                  "static_hold", "overhead_inverse"])
def test_parse_fuzz_raises_only_superlimb_errors(name):
    path = scenario_path(f"{name}.json")
    with open(path) as fh:
        original = json.load(fh)
    base_dir = os.path.dirname(path)
    for where in json_paths(original):
        for value in FUZZ_VALUES:
            data = copy.deepcopy(original)
            node = data
            for k in where[:-1]:
                node = node[k]
            node[where[-1]] = value
            try:
                parse_scenario(data, base_dir).sim.n_steps
            except SuperlimbError:
                pass
            except Exception as exc:  # noqa: BLE001 - the escape under test
                pytest.fail(f"{where} = {value!r}: {type(exc).__name__}: {exc}")


# --- run-level fuzz: a parsed scenario runs or fails with the package's errors --

# values that fail, if at all, without allocating: no count like 1e6, which
# could reserve gigabytes on a host that overcommits memory
RUN_FUZZ_VALUES = [2**70, 1e308, -1e308, 1e-300, 0, -1]


@pytest.mark.parametrize("name", ["overhead_sweep", "press_friction", "emg_step",
                                  "static_hold", "overhead_inverse"])
def test_run_fuzz_raises_only_superlimb_errors(name):
    path = scenario_path(f"{name}.json")
    with open(path) as fh:
        original = json.load(fh)
    original["sim"]["duration"] = 0.05
    base_dir = os.path.dirname(path)
    numeric = [where for where in json_paths(original) if where != ("sim", "duration")
               and type(_at(original, where)) in (int, float)]
    for where in numeric:
        for value in RUN_FUZZ_VALUES:
            data = copy.deepcopy(original)
            node = _at(data, where[:-1])
            node[where[-1]] = value
            try:
                run_scenario(parse_scenario(data, base_dir))
            except SuperlimbError:
                pass
            except Exception as exc:  # noqa: BLE001 - the escape under test
                pytest.fail(f"{where} = {value!r}: {type(exc).__name__}: {exc}")


def _at(node, where):
    for k in where:
        node = node[k]
    return node


# --- controller components and chain links are checked at load ------------------


def static_hold() -> dict:
    with open(scenario_path("static_hold.json")) as fh:
        return json.load(fh)


def test_gravity_compensation_is_an_unknown_key():
    # the limb always carries its own gravity load; there is no switch
    data = static_hold()
    data["controller"]["gravity_compensation"] = False
    expect_key(data, "controller.gravity_compensation", "unknown key")


def test_controller_components_must_be_distinct():
    with pytest.raises(ValidationError) as exc:
        ControllerConfig(chain="arm", components=("z", "z"))
    assert exc.value.key == "components"
    data = static_hold()
    data["controller"]["components"] = ["z", "z"]
    expect_key(data, "controller.components", "must be distinct")


@pytest.mark.parametrize("joint", [7, 3, -1])
@pytest.mark.parametrize("section", ["contact", "controller"])
def test_link_joint_checked_against_chain(section, joint):
    data = static_hold()  # its arm has joints 0..2
    data[section]["joint"] = joint
    expect_key(data, f"{section}.joint", f"no joint index {joint}")
    data[section]["joint"] = 2  # the arm's last joint parses
    scenario = parse_scenario(data)
    parsed = scenario.contact.spec if section == "contact" else scenario.controller
    assert parsed.joint == 2


# --- every stiffness level is checked at load, symmetric and PSD -----------------


@pytest.mark.parametrize("matrix, reason", [
    ([[100.0, 50.0], [0.0, 100.0]], "symmetric"),
    ([[100.0, 0.0], [0.0, -1.0]], "PSD"),
])
@pytest.mark.parametrize("i", [0, 1, 3])  # static_hold selects level 2
def test_every_stiffness_level_checked_at_load(i, matrix, reason):
    data = static_hold()
    table = [[[k, 0.0], [0.0, k]] for k in (100.0, 200.0, 400.0, 800.0)]
    table[i] = matrix
    data["controller"]["stiffness_table"] = table
    expect_key(data, f"controller.stiffness_table[{i}]", reason)
    with pytest.raises(ValidationError) as exc:
        ControllerConfig(chain="arm", table=tuple(np.array(k) for k in table))
    assert exc.value.key == f"table[{i}]"


# --- sEMG sources: long enough to filter, a sample count that fits ---------------


def test_emg_profile_too_short_to_filter_fails_at_load():
    data = base_scenario()
    data["emg"] = {"profile": {"fs": 1000.0, "duration": 0.008, "steps": [[0.0, 0.5]]}}
    expect_key(data, "emg.profile.duration", "too short to filter (8 samples)")
    data["emg"]["profile"]["duration"] = 0.01  # 10 samples outlast the padding
    parse_scenario(data)


def test_emg_trace_too_short_to_filter_fails_at_load(tmp_path):
    def write(n):
        (tmp_path / "trace.csv").write_text("t,ch1\n" + "".join(
            f"{i / 1000.0},{0.1 * i}\n" for i in range(n)))

    data = base_scenario()
    data["emg"] = {"trace": "trace.csv"}
    write(8)
    expect_key(data, "emg.trace", "too short to filter (8 samples)", str(tmp_path))
    write(10)
    parse_scenario(data, base_dir=str(tmp_path))


def emg_step() -> dict:
    with open(scenario_path("emg_step.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("key", ["fs", "duration"])
def test_emg_profile_without_finite_sample_count_fails_at_load(key):
    data = emg_step()
    data["emg"]["profile"][key] = 1e308
    expect_key(data, "emg.profile.duration", "no finite sample count")


@pytest.mark.parametrize("key", ["fs", "duration"])
def test_emg_profile_unallocatable_sample_count_fails_keyed(key):
    data = emg_step()
    data["sim"]["duration"] = 0.05
    data["emg"]["profile"][key] = 2**70
    scenario = parse_scenario(data, os.path.dirname(scenario_path("emg_step.json")))
    with pytest.raises(ParseError) as exc:
        run_scenario(scenario)
    assert exc.value.key == "emg.profile.duration"
    assert "samples do not fit in memory" in exc.value.reason


def test_human_motion_phase_must_stay_finite_within_the_run():
    with open(scenario_path("overhead_inverse.json")) as fh:
        data = json.load(fh)
    data["human_motion"]["frequency"] = 1e308
    expect_key(data, "human_motion.frequency", "no finite phase")
    # the same frequency overflows only over a longer run; a still trunk
    # keeps its scripted velocity and acceleration finite at any frequency
    data["human_motion"]["amplitude"] = [0.0]
    data["human_motion"]["frequency"] = 1e307
    data["sim"]["duration"] = 1.0
    parse_scenario(data)
    data["sim"]["duration"] = 3.0
    expect_key(data, "human_motion.frequency", "no finite phase")


# --- stability-section fuzz: parameter errors are keyed, overflow is numeric -----

STABILITY_FUZZ_VALUES = [1e308, -1e308, 1e200, 1e-320, 0.0]


def test_stability_fuzz_keys_parameter_errors_and_never_warns():
    # a parameter whose derived weight, stiffness or coupling is not finite
    # fails at load, keyed to it; any other failure is the certificate's
    # own, and no floating-point warning escapes either way
    rng = np.random.default_rng(17)
    for name in sorted(POSTURES):
        for key in ("mass", "k", "r", "gamma"):
            drawn = rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-320.0, 308.0, 4)
            for value in STABILITY_FUZZ_VALUES + drawn.tolist():
                section = {"posture": name, key: value}
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    warnings.simplefilter("ignore", DiagnosticMismatch)
                    try:
                        posture = build_posture(section)
                    except ParseError as exc:
                        assert exc.key == f"stability.{key}", f"{section}: {exc}"
                        continue
                    try:
                        stiffness_matrix_kp(posture)
                        stabilizing_servo_stiffness(posture, margin=1.0)
                    except (NumericError, ValidationError):
                        pass
                    except Exception as exc:  # noqa: BLE001 - the escape under test
                        pytest.fail(f"{section}: {type(exc).__name__}: {exc}")
