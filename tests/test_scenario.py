"""Tests for scenario/config parsing and the named support postures."""

import dataclasses
import json
import math

import numpy as np
import pytest
from conftest import desk_arm_dict, scenario_path

from superlimb.errors import MissingFile, ParseError
from superlimb.scenario import (
    ActivationProfile,
    ContactMotion,
    HumanMotion,
    load_posture,
    load_profile,
    load_scenario,
    parse_profile,
    parse_scenario,
)


def base_scenario() -> dict:
    return {
        "plant": desk_arm_dict(),
        "sim": {"dt": 0.005, "duration": 1.0, "seed": 1},
        "contact": {"chain": "arm", "directions": ["z"]},
        "controller": {"level": 2, "panel_mass": 3.0},
    }


def parse_with(section: str, override) -> None:
    data = base_scenario()
    data[section] = override
    parse_scenario(data)


def expect_key(data: dict, key: str, reason_part: str = ""):
    with pytest.raises(ParseError) as exc:
        parse_scenario(data)
    assert exc.value.key == key
    if reason_part:
        assert reason_part in exc.value.reason
    return exc.value


# --- happy paths ----------------------------------------------------------------


def test_parse_defaults():
    sc = parse_scenario(base_scenario())
    assert sc.sim.n_steps == 200
    assert sc.sim.mode == "tracking"
    assert sc.controller.enabled
    assert sc.controller.level == 2
    assert sc.controller.components == ("x", "z")
    np.testing.assert_allclose(sc.controller.f_gravity, [0.0, 3.0 * 9.81])
    assert sc.contact.spec.chain == "arm"
    assert sc.contact.motion.kind == "static"
    assert not sc.emg.enabled
    assert sc.human_motion.kind == "static"


def test_parse_minimal():
    sc = parse_scenario({"plant": desk_arm_dict(),
                         "sim": {"dt": 0.005, "duration": 0.0}})
    assert sc.contact is None
    assert sc.controller.enabled
    assert sc.sim.n_steps == 0


def test_parse_stiffness_table_diagonal():
    data = base_scenario()
    data["controller"] = {
        "stiffness_table": [[100.0, 50.0]] * 4,
        "level": 1,
    }
    sc = parse_scenario(data)
    np.testing.assert_array_equal(sc.controller.table[0], np.diag([100.0, 50.0]))


def test_parse_stiffness_table_full_matrix():
    data = base_scenario()
    row = [[100.0, 10.0], [10.0, 50.0]]
    data["controller"] = {"stiffness_table": [row] * 4}
    sc = parse_scenario(data)
    np.testing.assert_array_equal(sc.controller.table[2], np.array(row))


def test_parse_friction_broadcast():
    data = base_scenario()
    data["controller"]["friction"] = {"coulomb": 0.5}
    sc = parse_scenario(data)
    np.testing.assert_array_equal(sc.controller.friction.coulomb, [0.5] * 3)
    np.testing.assert_array_equal(sc.controller.friction.viscous, [0.0] * 3)


def test_parse_emg_profile_and_seed_default():
    data = base_scenario()
    data["sim"]["seed"] = 11
    data["emg"] = {"profile": {"duration": 2.0, "steps": [[0.0, 0.0], [1.0, 1.0]]}}
    sc = parse_scenario(data)
    assert sc.emg.enabled
    assert sc.emg.seed == 11  # inherits the sim seed
    assert sc.emg.profile.fs == 1000.0
    assert sc.emg.trace is None


def test_parse_emg_trace_file(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("t,ch1\n" + "".join(
        f"{i / 1000.0},{0.1 * i}\n" for i in range(10)))
    data = base_scenario()
    data["emg"] = {"trace": "trace.csv",
                   "motion": {"steps": [[0.0, 0.0], [1.0, 0.4]]}}
    sc = parse_scenario(data, base_dir=str(tmp_path))
    assert sc.emg.trace.n_samples == 10
    np.testing.assert_array_equal(sc.emg.motion[1], [0.0, 0.4])


def test_load_scenario_files_parse():
    for name in ["overhead_sweep.json", "press_friction.json", "emg_step.json",
                 "static_hold.json", "overhead_inverse.json"]:
        sc = load_scenario(scenario_path(name))
        assert sc.sim.dt <= 0.01


# --- validation: sim ------------------------------------------------------------


def test_sim_dt_bounds():
    data = base_scenario()
    data["sim"]["dt"] = 0.0
    expect_key(data, "sim.dt", "positive")
    data["sim"]["dt"] = 0.02
    expect_key(data, "sim.dt", "<= 0.01")
    data["sim"]["dt"] = "fast"
    expect_key(data, "sim.dt")


def test_sim_duration_and_seed():
    data = base_scenario()
    data["sim"]["duration"] = -1.0
    expect_key(data, "sim.duration", ">= 0")
    data = base_scenario()
    data["sim"]["seed"] = -3
    expect_key(data, "sim.seed")


def test_sim_mode():
    data = base_scenario()
    data["sim"]["mode"] = "forward"
    expect_key(data, "sim.mode")


def test_inverse_dynamics_requires_static_contact():
    data = base_scenario()
    data["sim"]["mode"] = "inverse-dynamics"
    data["contact"]["motion"] = {"type": "triangle"}
    err = expect_key(data, "sim.mode", "static contacts only")
    assert "inverse-dynamics" in err.reason


def test_contact_on_human_chain_is_rejected_in_both_modes():
    # the limb carries the support force in both sim modes
    data = base_scenario()
    data["contact"]["chain"] = "trunk"
    for mode in ("tracking", "inverse-dynamics"):
        data["sim"]["mode"] = mode
        expect_key(data, "contact.chain", "'trunk' is a human chain; the contact must be on a limb")


def test_unknown_section():
    data = base_scenario()
    data["extras"] = {}
    expect_key(data, "extras", "unknown section")


# --- validation: contact --------------------------------------------------------


def test_contact_validation():
    data = base_scenario()
    data["contact"]["chain"] = "leg"
    expect_key(data, "contact.chain")

    data = base_scenario()
    data["contact"]["directions"] = ["y"]
    expect_key(data, "contact.directions[0]")

    data = base_scenario()
    data["contact"]["directions"] = ["z", "z"]
    expect_key(data, "contact.directions", "distinct")

    data = base_scenario()
    data["contact"]["motion"] = {"type": "spiral"}
    expect_key(data, "contact.motion.type")

    data = base_scenario()
    data["contact"]["directions"] = ["z"]
    data["contact"]["motion"] = {"type": "triangle", "axis": "x"}
    expect_key(data, "contact.motion.axis")

    data = base_scenario()
    data["contact"]["motion"] = {"type": "triangle", "amplitude": -0.01}
    expect_key(data, "contact.motion.amplitude")

    # a quarter period amplitude / speed that underflows to 0 has no sweep
    data = base_scenario()
    data["contact"]["motion"] = {"type": "triangle", "amplitude": 1e-300, "speed": 1e300}
    expect_key(data, "contact.motion.amplitude", "underflows to 0")


# --- validation: controller -----------------------------------------------------


def test_controller_validation():
    data = base_scenario()
    data["controller"]["level"] = 5
    expect_key(data, "controller.level")

    data = base_scenario()
    data["controller"]["stiffness_table"] = [[100.0, 50.0]] * 3
    expect_key(data, "controller.stiffness_table", "4 levels")

    data = base_scenario()
    data["controller"]["stiffness_table"] = [[[1.0, 0.0]]] * 4
    expect_key(data, "controller.stiffness_table[0]")

    data = base_scenario()
    data["controller"]["x_eq"] = "center"
    expect_key(data, "controller.x_eq")

    data = base_scenario()
    data["controller"]["f_gravity"] = [0.0, 29.43]
    expect_key(data, "controller.f_gravity", "not both")

    data = base_scenario()
    data["controller"] = {"components": ["x"], "panel_mass": 3.0}
    expect_key(data, "controller.panel_mass", "'z'")

    data = base_scenario()
    data["controller"]["damping"] = [40.0]
    expect_key(data, "controller.damping")

    data = base_scenario()
    data["controller"]["damping"] = [40.0, -1.0]
    expect_key(data, "controller.damping", ">= 0")

    data = base_scenario()
    data["controller"]["friction"] = {"coulomb": -0.5}
    expect_key(data, "controller.friction")

    data = base_scenario()
    data["controller"]["chain"] = "leg"
    expect_key(data, "controller.chain")


# --- validation: emg ------------------------------------------------------------


def good_profile():
    return {"duration": 2.0, "steps": [[0.0, 0.5]]}


def test_emg_source_exclusivity():
    data = base_scenario()
    data["emg"] = {"trace": "t.csv", "profile": good_profile()}
    expect_key(data, "emg", "exactly one")
    data["emg"] = {}
    expect_key(data, "emg", "exactly one")


def test_emg_hill_unknown_key():
    data = base_scenario()
    data["emg"] = {"profile": good_profile(), "hill": {"f_max": 300.0, "foo": 1.0}}
    expect_key(data, "emg.hill.foo", "unknown")


def every_section_scenario() -> dict:
    data = base_scenario()
    data["contact"]["motion"] = {"type": "static"}
    data["controller"]["friction"] = {"coulomb": 0.1}
    data["emg"] = {"profile": good_profile(), "hill": {}, "motion": {"steps": [[0.0, 0.0]]}}
    data["human_motion"] = {"type": "static"}
    return data


SECTIONS = {
    "plant": lambda d: d["plant"],
    "plant.chains[0]": lambda d: d["plant"]["chains"][0],
    "plant.chains[0].joints[0]": lambda d: d["plant"]["chains"][0]["joints"][0],
    "sim": lambda d: d["sim"],
    "contact": lambda d: d["contact"],
    "contact.motion": lambda d: d["contact"]["motion"],
    "controller": lambda d: d["controller"],
    "controller.friction": lambda d: d["controller"]["friction"],
    "emg": lambda d: d["emg"],
    "emg.profile": lambda d: d["emg"]["profile"],
    "emg.hill": lambda d: d["emg"]["hill"],
    "emg.motion": lambda d: d["emg"]["motion"],
    "human_motion": lambda d: d["human_motion"],
}


@pytest.mark.parametrize("path", SECTIONS)
def test_unknown_key_in_any_section(path):
    data = every_section_scenario()
    parse_scenario(data)
    SECTIONS[path](data)["levle"] = 3
    expect_key(data, f"{path}.levle", "unknown key")


def test_emg_gate_params():
    data = base_scenario()
    data["emg"] = {"profile": good_profile(), "threshold": 0.05, "hysteresis": 0.1}
    expect_key(data, "emg.threshold")
    data["emg"] = {"profile": good_profile(), "gain": -1.0}
    expect_key(data, "emg.gain")


def test_emg_motion_exclusivity():
    data = base_scenario()
    data["emg"] = {"profile": good_profile(),
                   "motion": {"file": "m.csv", "steps": [[0.0, 0.0]]}}
    expect_key(data, "emg.motion", "exactly one")


def test_emg_needs_enabled_controller():
    data = base_scenario()
    data["controller"] = {"enabled": False}
    data["emg"] = {"profile": good_profile()}
    expect_key(data, "emg.enabled", "controller")


def test_emg_needs_vertical_component():
    data = base_scenario()
    data["controller"] = {"components": ["x"]}
    data["emg"] = {"profile": good_profile()}
    expect_key(data, "emg.enabled", "'z'")


# --- validation: human motion ---------------------------------------------------


def test_human_motion_validation():
    data = base_scenario()
    data["human_motion"] = {"type": "hop"}
    expect_key(data, "human_motion.type")

    data = base_scenario()
    data["human_motion"] = {"type": "sine", "amplitude": [0.1, 0.1]}
    expect_key(data, "human_motion.amplitude")

    data = base_scenario()
    data["human_motion"] = {"type": "sine", "amplitude": [0.1], "frequency": 0.0}
    expect_key(data, "human_motion.frequency")


def test_human_motion_offsets():
    hm = HumanMotion(kind="sine", amplitude=np.array([0.03]), frequency=0.5)
    dq, dqd, dqdd = hm.offsets(0.5, 1)
    w = 2 * math.pi * 0.5
    assert dq[0] == pytest.approx(0.03 * math.sin(w * 0.5), abs=1e-15)
    assert dqd[0] == pytest.approx(0.03 * w * math.cos(w * 0.5), abs=1e-15)
    assert dqdd[0] == pytest.approx(-0.03 * w * w * math.sin(w * 0.5), abs=1e-15)
    static = HumanMotion()
    for arr in static.offsets(1.0, 2):
        np.testing.assert_array_equal(arr, np.zeros(2))


def test_human_motion_offsets_match_scalar_formulas():
    # one array call equals the per-time formula with math.sin/math.cos
    # bit for bit, so the scripted CSV columns do not depend on the form
    amp = [0.03, -0.02]
    hm = HumanMotion(kind="sine", amplitude=np.array(amp), frequency=0.7, phase=0.4)
    t = np.arange(1601) * 0.005
    dq, dqd, dqdd = hm.offsets(t, 2)
    assert dq.shape == dqd.shape == dqdd.shape == (t.size, 2)
    w = 2.0 * math.pi * 0.7
    for i, ti in enumerate(t.tolist()):
        s, c = math.sin(w * ti + 0.4), math.cos(w * ti + 0.4)
        assert dq[i].tolist() == [a * s for a in amp]
        assert dqd[i].tolist() == [a * w * c for a in amp]
        assert dqdd[i].tolist() == [-a * w * w * s for a in amp]
    for arr in HumanMotion().offsets(t, 3):
        np.testing.assert_array_equal(arr, np.zeros((t.size, 3)))


# --- file loading ---------------------------------------------------------------


def test_load_scenario_missing(tmp_path):
    with pytest.raises(MissingFile):
        load_scenario(str(tmp_path / "nope.json"))


def test_load_scenario_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError) as exc:
        load_scenario(str(p))
    assert exc.value.key == "(root)"
    assert "invalid JSON" in exc.value.reason


def test_load_profile_round_trip(tmp_path):
    p = tmp_path / "profile.json"
    p.write_text(json.dumps({"fs": 2000.0, "duration": 1.0,
                             "steps": [[0.0, 0.0], [0.5, 1.0]]}))
    prof = load_profile(str(p))
    assert prof.fs == 2000.0
    assert prof.steps == ((0.0, 0.0), (0.5, 1.0))


def test_profile_validation():
    with pytest.raises(ParseError):
        parse_profile({"duration": 1.0, "steps": []})
    with pytest.raises(ParseError):
        parse_profile({"duration": 1.0, "steps": [[0.0, 1.5]]})
    with pytest.raises(ParseError):
        parse_profile({"duration": 1.0, "steps": [[1.0, 0.5], [0.5, 0.5]]})
    with pytest.raises(ParseError):
        parse_profile({"duration": -1.0, "steps": [[0.0, 0.5]]})
    with pytest.raises(ParseError):
        parse_profile({"fs": 0.0, "duration": 1.0, "steps": [[0.0, 0.5]]})


def test_profile_sample_holds_levels():
    prof = ActivationProfile(fs=1000.0, duration=3.0,
                             steps=((0.5, 0.2), (1.0, 0.8)))
    out = prof.sample(np.array([0.0, 0.5, 0.9, 1.0, 2.5]))
    np.testing.assert_array_equal(out, [0.0, 0.2, 0.2, 0.8, 0.8])


# --- contact motion shape -------------------------------------------------------


def test_triangle_velocity_schedule():
    m = ContactMotion(kind="triangle", amplitude=0.02, speed=0.02)
    assert m.velocity(0.0) == 0.02
    assert m.velocity(0.99) == 0.02
    assert m.velocity(1.0) == -0.02
    assert m.velocity(2.99) == -0.02
    assert m.velocity(3.0) == 0.02
    assert m.velocity(4.5) == 0.02  # wraps to the next cycle
    # closed cycle: net displacement zero
    ts = np.arange(0, 4.0, 0.001)
    assert abs(sum(m.velocity(float(t)) * 0.001 for t in ts)) < 1e-9


def test_static_motion_velocity():
    assert ContactMotion().velocity(1.23) == 0.0
    np.testing.assert_array_equal(ContactMotion().velocity(np.arange(5.0)), np.zeros(5))


@pytest.mark.parametrize("amplitude, speed", [(0.02, 0.02), (0.03, 0.02), (0.015, 0.01)])
def test_triangle_velocity_matches_scalar_formula(amplitude, speed):
    # one array call equals the per-time schedule bit for bit, on the step
    # times and on each turnaround and its neighbouring floats
    m = ContactMotion(kind="triangle", amplitude=amplitude, speed=speed)
    quarter = amplitude / speed
    turns = np.array([k * quarter for k in range(9)])
    t = np.concatenate([np.arange(1601) * 0.005, turns,
                        np.nextafter(turns, -np.inf), np.nextafter(turns, np.inf)])
    t = t[t >= 0.0]
    v = m.velocity(t)
    assert v.shape == t.shape
    for ti, vi in zip(t.tolist(), v.tolist()):
        phase = ti % (4.0 * quarter)
        assert vi == (speed if phase < quarter or phase >= 3.0 * quarter else -speed)


# --- posture configs ------------------------------------------------------------


def test_load_posture_file():
    posture, section = load_posture(scenario_path("posture_hanging.json"))
    assert posture.mass == 4.0
    assert section["posture"] == "hanging_panel"


def test_load_posture_missing_section(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"mass": 4.0}))
    with pytest.raises(ParseError) as exc:
        load_posture(str(p))
    assert exc.value.key == "stability"
    with pytest.raises(MissingFile):
        load_posture(str(tmp_path / "nope.json"))


def test_posture_section_is_strict_top_level_is_not(tmp_path):
    p = tmp_path / "posture.json"
    section = {"posture": "hanging_panel", "mass": 4.0, "k": 400.0, "r": 0.3, "gamma": 0.5}
    p.write_text(json.dumps({"stability": section, "servo_margin": 1.0}))
    assert load_posture(str(p))[0].mass == 4.0
    p.write_text(json.dumps({"stability": dict(section, masss=5.0)}))
    with pytest.raises(ParseError) as exc:
        load_posture(str(p))
    assert exc.value.key == "stability.masss"
    assert exc.value.reason == "unknown key"


# --- validation owned by the dataclasses ----------------------------------------


def test_joint_invariants_reported_at_the_joint():
    data = base_scenario()
    data["plant"]["chains"][0]["joints"][0]["mass"] = -1
    expect_key(data, "plant.chains[0].joints[0]", "mass")


def test_chain_role_reported_at_the_chain():
    data = base_scenario()
    data["plant"]["chains"][0]["role"] = "robot"
    expect_key(data, "plant.chains[0]")


def test_emg_profile_invariants_reported_under_the_profile():
    data = base_scenario()
    data["emg"] = {"profile": {"fs": 0, "duration": 2.0, "steps": [[0.0, 0.5]]}}
    with pytest.raises(ParseError) as exc:
        parse_scenario(data)
    assert exc.value.key.startswith("emg.profile")


def test_omitted_controller_equals_empty_section():
    data = base_scenario()
    del data["controller"]
    omitted = parse_scenario(data).controller
    data["controller"] = {}
    empty = parse_scenario(data).controller
    for f in dataclasses.fields(omitted):
        a, b = getattr(omitted, f.name), getattr(empty, f.name)
        if f.name == "table":
            assert len(a) == len(b)
            for ka, kb in zip(a, b):
                np.testing.assert_array_equal(ka, kb)
        elif isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b, f.name


@pytest.mark.parametrize("loader", [load_scenario, load_profile, load_posture])
@pytest.mark.parametrize("body", [b"{not json", b"\xff\xfe{}"])
def test_loaders_reject_undecodable_files(tmp_path, loader, body):
    p = tmp_path / "bad.json"
    p.write_bytes(body)
    with pytest.raises(ParseError) as exc:
        loader(str(p))
    assert exc.value.key == "(root)"
    assert "invalid JSON" in exc.value.reason
