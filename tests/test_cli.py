"""End-to-end tests of the command-line interface (via main(argv))."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import poison_kernel, scenario_path

from superlimb import cli
from superlimb.cli import main
from superlimb.plant import PlantModel

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- run ------------------------------------------------------------------------


def test_run_writes_log(tmp_path, capsys):
    out = tmp_path / "log.csv"
    code, _, err = run_cli(
        ["run", "--config", scenario_path("static_hold.json"), "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert err == ""
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,q_s0")
    assert len(lines) == 401  # header + 2 s at dt=0.005


def test_run_missing_config(tmp_path, capsys):
    code, _, err = run_cli(
        ["run", "--config", str(tmp_path / "nope.json"),
         "--out", str(tmp_path / "o.csv")],
        capsys,
    )
    assert code == 1
    assert err.startswith("error:")


def test_run_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{oops")
    code, _, err = run_cli(
        ["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")], capsys
    )
    assert code == 1
    assert "invalid JSON" in err


#: per command: a bundled input file, the command's arguments (``{cfg}`` the
#: file's edited copy, ``{out}`` the output), and one of the file's numbers as
#: JSON text and by its key
JSON_INPUTS = {
    "run": ("static_hold.json", "run --config {cfg} --out {out}", '"duration": 2.0',
            "sim.duration"),
    "analyze-stability": ("posture_hanging.json", "analyze-stability --config {cfg}",
                          '"mass": 4.0', "stability.mass"),
    "gen-emg": ("emg_profile_step.json", "gen-emg --profile {cfg} --seed 1 --out {out}",
                '"duration": 3.0', "profile.duration"),
}


def _edited_argv(tmp_path, command: str, old: str, new: str) -> list[str]:
    """``command``'s arguments on a copy of its bundled input file with
    ``old`` replaced by ``new``, its output at ``tmp_path/out.csv``."""
    name, args = JSON_INPUTS[command][:2]
    with open(scenario_path(name), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    cfg = tmp_path / name
    cfg.write_bytes(text.replace(old, new).encode("utf-8"))
    return [a.format(cfg=cfg, out=tmp_path / "out.csv") for a in args.split()]


@pytest.mark.parametrize("command", sorted(JSON_INPUTS))
@pytest.mark.parametrize("digits, error", [
    (5000, "(root): invalid JSON: Exceeds the limit (4300 digits)"),  # json's int-digit limit
    (400, "{key}: must be finite"),  # an integer past the float range
], ids=["int-digits", "int-overflow"])
def test_json_integer_too_long_exits_1(tmp_path, capsys, command, digits, error):
    number, key = JSON_INPUTS[command][2:]
    long = f"{number.split(':')[0]}: 1{'0' * digits}"
    code, _, err = run_cli(_edited_argv(tmp_path, command, number, long), capsys)
    assert code == 1
    assert err.startswith(f"error: {error.format(key=key)}")
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", sorted(JSON_INPUTS))
def test_json_nested_past_the_recursion_limit_exits_1(tmp_path, capsys, command):
    cfg = tmp_path / "nested.json"
    cfg.write_text("[" * 100_000 + "]" * 100_000)
    args = JSON_INPUTS[command][1]
    code, out, err = run_cli([a.format(cfg=cfg, out=tmp_path / "out.csv") for a in args.split()],
                             capsys)
    assert code == 1
    assert err.startswith("error: (root): invalid JSON: maximum recursion depth exceeded")
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command, old, new", [
    # a chain renamed: the log holds no names, so it has the bundled bytes
    ("run", '"arm"', '"bräs"'),
    # a key beside the stability section, where any key is ignored
    ("analyze-stability", '"stability"', '"note": "coté", "stability"'),
], ids=["chain-name", "ignored-key"])
def test_non_ascii_json_reads_as_utf8_whatever_the_locale(tmp_path, command, old, new):
    argv = _edited_argv(tmp_path, command, old, new)
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHONUTF8"))}
    env.update(PYTHONPATH=SRC, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONIOENCODING="utf-8")
    child = ("import locale, sys; from superlimb.cli import main; "
             "print(locale.getpreferredencoding(False)); sys.stdout.flush(); sys.exit(main())")
    outcomes = []
    for utf8 in (0, 1):  # the C locale's own text encoding, then UTF-8 mode
        proc = subprocess.run([sys.executable, "-X", f"utf8={utf8}", "-c", child, *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        encoding, _, stdout = proc.stdout.partition("\n")
        log = tmp_path / "out.csv"
        outcomes.append((encoding, proc.returncode, stdout, proc.stderr,
                         log.read_bytes() if log.exists() else None))
        log.unlink(missing_ok=True)
    (locale_encoding, *c_locale), (_, *utf8_mode) = outcomes
    if locale_encoding.lower().replace("-", "") == "utf8":
        pytest.skip("the C locale's text encoding is UTF-8 on this platform")
    assert c_locale == utf8_mode
    code, stdout, err, log = c_locale
    assert (code, err) == (0, "")
    if command == "run":
        expected = tmp_path / "bundled.csv"
        assert main(["run", "--config", scenario_path("static_hold.json"),
                     "--out", str(expected)]) == 0
        assert log == expected.read_bytes()
    else:
        assert stdout.startswith("posture=")


def test_run_unknown_key_exit_code(tmp_path, capsys):
    with open(scenario_path("static_hold.json")) as fh:
        data = json.load(fh)
    data["controller"]["levle"] = 3
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps(data))
    code, _, err = run_cli(
        ["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")], capsys
    )
    assert code == 1
    assert err.startswith("error: controller.levle")
    assert "Traceback" not in err


def test_run_numeric_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "blowup.json"
    cfg.write_text(json.dumps({
        "plant": {
            "chains": [
                {"name": "arm", "role": "srl", "base": [0.0, 0.0], "heading": 1.0,
                 "joints": [
                     {"kind": "revolute", "mass": 1.5, "length": 0.35,
                      "com": 0.17, "inertia": 0.015, "q0": 0.3},
                     {"kind": "revolute", "mass": 1.0, "length": 0.3,
                      "com": 0.15, "inertia": 0.008, "q0": -0.5},
                 ]},
            ],
        },
        "sim": {"dt": 0.01, "duration": 0.5, "seed": 0},
        "controller": {"stiffness_table": [[1e14, 1e14]] * 4, "level": 4,
                       "x_eq": [0.0, -5.0]},
    }))
    code, _, err = run_cli(
        ["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")], capsys
    )
    assert code == 2
    assert err.startswith("numeric error: [step ")


def test_run_inverse_dynamics_vanishing_contact_row_exit_code(tmp_path, capsys):
    # a horizontal, fully stretched arm cannot move its tip along x, so the
    # x row of the contact Jacobian is exactly zero at q0
    with open(scenario_path("overhead_inverse.json")) as fh:
        data = json.load(fh)
    arm = data["plant"]["chains"][0]
    arm["heading"] = 0.0
    for joint in arm["joints"]:
        joint["q0"] = 0.0
    data["contact"]["directions"] = ["x"]
    cfg = tmp_path / "vanishing.json"
    cfg.write_text(json.dumps(data))
    code, _, err = run_cli(
        ["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")], capsys
    )
    assert code == 2
    assert err.startswith("numeric error: [step 0, t=0s] ")
    assert "rank" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["inverse-dynamics", "tracking"])
def test_run_vanishing_contact_direction_exit_code(tmp_path, capsys, mode):
    # an upright arm cannot move its tip vertically: the z row of the
    # contact Jacobian is ~1e-16 (roundoff), not exactly zero
    with open(scenario_path("overhead_inverse.json")) as fh:
        data = json.load(fh)
    arm = data["plant"]["chains"][0]
    arm["heading"] = math.pi / 2.0
    for joint in arm["joints"]:
        joint["q0"] = 0.0
    data["contact"]["directions"] = ["z"]
    data["sim"]["mode"] = mode
    cfg = tmp_path / "upright.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    code, _, err = run_cli(["run", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("numeric error: [step 0, t=0s] ")
    assert "rank" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["tracking", "inverse-dynamics"])
def test_run_contact_directions_beyond_the_moving_joints_exit_code(tmp_path, capsys, mode):
    # a 1-joint arm held along x and z: an input error at load in either
    # mode, not a rank failure at step 0
    with open(scenario_path("overhead_inverse.json")) as fh:
        data = json.load(fh)
    arm = data["plant"]["chains"][0]
    arm["joints"] = arm["joints"][:1]
    data["contact"]["directions"] = ["x", "z"]
    data["sim"]["mode"] = mode
    cfg = tmp_path / "one_joint.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    code, _, err = run_cli(["run", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 1
    assert err == ("error: contact.directions: 2 directions, but only 1 joint(s) move "
                   "the contacted point\n")
    assert not out.exists()


@pytest.mark.parametrize("mode, detail", [
    # the contact Gram matrix's second pivot is positive only by rounding
    ("tracking", "(leading minor 2 is 1.110e-16)"),
    ("inverse-dynamics", "(|r_ii| range [2.520e-17, 6.024e-01])"),
])
def test_run_dependent_contact_directions_at_q0_exit_1(tmp_path, capsys, mode, detail):
    # the arm's first two links stretched in line and held along x and z:
    # the directions are dependent at q0, which the load rejects in either
    # mode before a step runs, by the rule and with the detail of the mode's
    # contact solve
    def stretched(data):
        arm = data["plant"]["chains"][0]
        arm["joints"] = arm["joints"][:2]
        arm["joints"][0]["q0"] = arm["joints"][1]["q0"] = 0.0
        data["contact"]["directions"] = ["x", "z"]
        data["sim"]["mode"] = mode

    code, err, wrote = _run_edited(tmp_path, capsys, "overhead_inverse", stretched)
    assert (code, wrote) == (1, False)
    assert err == f"error: contact.directions: x and z are not independent at q0 {detail}\n"


def test_run_inverse_dynamics_massless_tip_exit_code(tmp_path, capsys):
    # a chain-end revolute link with its CoM on its pivot and no inertia or
    # rotor adds a zero row and column to A: the inverse step's positive
    # definiteness check is what catches it
    with open(scenario_path("overhead_inverse.json")) as fh:
        data = json.load(fh)
    tip = data["plant"]["chains"][0]["joints"][-1]
    tip["com"], tip["inertia"] = 0.0, 0.0
    data["sim"]["duration"] = 0.05
    cfg = tmp_path / "massless_tip.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    code, _, err = run_cli(["run", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert err == ("numeric error: [step 0, t=0s] a is not positive definite "
                   "(leading minor 3 is 0.000e+00)\n")
    assert not out.exists()


@pytest.mark.parametrize("amplitude, speed, code", [
    (1e-300, 1e300, 1),  # the quarter period amplitude / speed underflows to 0
    (1e300, 1e-300, 0),  # it overflows: one rising ramp for the whole run
])
def test_run_extreme_triangle_sweep(tmp_path, capsys, amplitude, speed, code):
    with open(scenario_path("overhead_sweep.json")) as fh:
        data = json.load(fh)
    data["contact"]["motion"].update(amplitude=amplitude, speed=speed)
    data["sim"]["duration"] = 0.05
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    got, _, err = run_cli(["run", "--config", str(cfg), "--out", str(out)], capsys)
    assert got == code
    if code:
        assert err.startswith("error: contact.motion.amplitude: ")
        assert not out.exists()
    else:
        assert err == ""
        assert out.exists()


def test_run_deterministic_bytes(tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code, _, _ = run_cli(
            ["run", "--config", scenario_path("emg_step.json"), "--out", str(out)],
            capsys,
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# --- gen-emg + emg-pipeline -----------------------------------------------------


def test_gen_emg_and_pipeline_round_trip(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        ["gen-emg", "--profile", scenario_path("emg_profile_step.json"),
         "--seed", "42", "--out", str(trace)],
        capsys,
    )
    assert code == 0
    header = trace.read_text().splitlines()[0]
    assert header == "t,ch1"

    # identical seed, identical bytes
    trace2 = tmp_path / "trace2.csv"
    run_cli(
        ["gen-emg", "--profile", scenario_path("emg_profile_step.json"),
         "--seed", "42", "--out", str(trace2)],
        capsys,
    )
    assert trace.read_bytes() == trace2.read_bytes()

    motion = tmp_path / "motion.csv"
    motion.write_text("t,yaw_rad\n0.0,0.0\n1.5,0.4\n")
    out = tmp_path / "pipe.csv"
    code, _, _ = run_cli(
        ["emg-pipeline", "--in", str(trace), "--motion", str(motion),
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,envelope,activation,force_n,gate,dxeq_m"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    t, gate, dxeq = data[:, 0], data[:, 4], data[:, 5]
    assert np.all(dxeq[gate == 0] == 0.0)
    assert np.all(gate[t < 1.5] == 0)
    assert gate[-1] == 1  # yaw event opened the gate
    assert dxeq[-1] > 0.0  # active muscle now commands a lift


def test_gen_emg_negative_seed(tmp_path, capsys):
    code, _, err = run_cli(
        ["gen-emg", "--profile", scenario_path("emg_profile_step.json"),
         "--seed", "-1", "--out", str(tmp_path / "t.csv")],
        capsys,
    )
    assert code == 1
    assert "seed" in err


def test_emg_pipeline_missing_trace(tmp_path, capsys):
    code, _, err = run_cli(
        ["emg-pipeline", "--in", str(tmp_path / "nope.csv"),
         "--out", str(tmp_path / "o.csv")],
        capsys,
    )
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["run", "emg-pipeline", "gen-emg"])
@pytest.mark.parametrize("target", ["missing-dir", "dir", "read-only-dir"])
def test_unwritable_out_exits_1(tmp_path, monkeypatch, capsys, trace_csv, command, target):
    # the path is checked before any work, with the message the CSV writer
    # gives when it cannot open the file, and nothing is created
    for name in ("run_scenario", "run_pipeline", "generate_emg"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("ran before --out was checked"))
    out = {
        "missing-dir": tmp_path / "no-such-dir" / "x.csv",
        "dir": tmp_path,
        "read-only-dir": tmp_path / "ro" / "x.csv",
    }[target]
    if target == "read-only-dir":
        out.parent.mkdir(mode=0o555)
        if os.access(out.parent, os.W_OK):
            pytest.skip("this process may write a mode 0555 directory (it runs as root)")
    argv = {
        "run": ["run", "--config", scenario_path("static_hold.json")],
        "emg-pipeline": ["emg-pipeline", "--in", trace_csv],
        "gen-emg": ["gen-emg", "--profile", scenario_path("emg_profile_step.json"),
                    "--seed", "1"],
    }[command]
    before = sorted(tmp_path.rglob("*"))
    code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
    reason = {"missing-dir": "No such file or directory", "dir": "Is a directory",
              "read-only-dir": "Permission denied"}[target]
    assert (code, stdout, err) == (1, "", f"error: cannot write {out}: {reason}\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("command", ["run", "emg-pipeline", "gen-emg"])
def test_out_on_a_full_device_exits_1(capsys, trace_csv, command):
    # /dev/full opens for writing but fails every write: the error comes
    # from a write, flush or close after the open, and still exits 1 with
    # the writer's one-line message
    argv = {
        "run": ["run", "--config", scenario_path("static_hold.json")],
        "emg-pipeline": ["emg-pipeline", "--in", trace_csv],
        "gen-emg": ["gen-emg", "--profile", scenario_path("emg_profile_step.json"),
                    "--seed", "1"],
    }[command]
    code, stdout, err = run_cli(argv + ["--out", "/dev/full"], capsys)
    assert (code, stdout, err) == (1, "", "error: cannot write /dev/full: No space left on device\n")


# --- analyze-stability ----------------------------------------------------------


def parse_kv(out: str) -> dict:
    return dict(line.split("=", 1) for line in out.strip().splitlines())


def test_analyze_stability_stable_posture(capsys):
    code, out, _ = run_cli(
        ["analyze-stability", "--config", scenario_path("posture_hanging.json")],
        capsys,
    )
    assert code == 0
    kv = parse_kv(out)
    assert kv["posture"] == "hanging_panel"
    assert kv["is_stable"] == "true"
    assert kv["diagnostic_mismatch"] == "false"
    assert float(kv["margin"]) == pytest.approx(1.0, rel=1e-6)
    eigs = [float(kv[f"eig{i}"]) for i in range(6)]
    assert eigs == sorted(eigs)
    assert "servo_alpha" not in kv


def test_analyze_stability_rescue(capsys):
    code, out, _ = run_cli(
        ["analyze-stability", "--config", scenario_path("posture_inverted.json"),
         "--servo-margin", "1.0"],
        capsys,
    )
    assert code == 0
    kv = parse_kv(out)
    assert kv["is_stable"] == "false"
    assert float(kv["margin"]) == pytest.approx(-4.0 * 9.81 * 0.3, rel=1e-6)
    assert float(kv["servo_alpha"]) == pytest.approx(4.0 * 9.81 * 0.3 + 1.0, abs=2e-6)


def test_analyze_stability_reports_crosscheck_and_residual(capsys):
    code, out, _ = run_cli(
        ["analyze-stability", "--config", scenario_path("posture_inverted.json"),
         "--servo-margin", "1.0"],
        capsys,
    )
    assert code == 0
    keys = [line.split("=", 1)[0] for line in out.splitlines()]
    at = keys.index("diagnostic_mismatch")
    assert keys[at + 1:at + 3] == ["crosscheck_rel_err", "equilibrium_residual"]
    assert keys[:at + 1] == ["posture", "mass", "is_stable", "margin", "diagnostic_mismatch"]
    assert keys[at + 3:] == [f"eig{i}" for i in range(6)] + ["servo_alpha"]
    kv = parse_kv(out)
    assert 0.0 <= float(kv["crosscheck_rel_err"]) < 1e-3
    assert 0.0 <= float(kv["equilibrium_residual"]) < 1e-6
    # the margin and the rescue are closed forms, not approximations
    assert float(kv["margin"]) == pytest.approx(-4.0 * 9.81 * 0.3, rel=1e-12)
    assert float(kv["servo_alpha"]) == pytest.approx(4.0 * 9.81 * 0.3 + 1.0, rel=1e-12)


def test_analyze_stability_missing_section(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"posture": "column"}))
    code, _, err = run_cli(["analyze-stability", "--config", str(cfg)], capsys)
    assert code == 1
    assert "stability" in err


@pytest.mark.parametrize("name, key, value, code, prefix", [
    ("toggle_mount", "gamma", 1e308, 1, "error: stability.gamma: "),
    ("cradle", "mass", 1e308, 1, "error: stability.mass: "),
    ("cradle", "r", 1e-308, 1, "error: stability.r: "),  # 2 m g / r overflows
    ("inverted_panel", "r", 1e308, 1, "error: stability.r: "),
    # the FD cross-check overflows: the whole line
    ("toggle_mount", "gamma", 1e200, 2,
     "numeric error: stiffness_matrix_kp: overflow encountered in matmul\n"),
    ("column", "k", 1e308, 0, ""),
])
def test_analyze_stability_extreme_parameter_exit_codes(tmp_path, capsys, name, key, value,
                                                        code, prefix):
    # a parameter whose derived weight, stiffness or coupling is not finite
    # is a keyed config error; overflow inside the certificate is numeric
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stability": {"posture": name, key: value}}))
    got, _, err = run_cli(["analyze-stability", "--config", str(cfg),
                           "--servo-margin", "1.0"], capsys)
    assert got == code
    assert err.startswith(prefix) if prefix else err == ""
    assert "Traceback" not in err


# --- argument handling ----------------------------------------------------------


def test_missing_required_argument(capsys):
    code, _, err = run_cli(["run", "--out", "x.csv"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(["teleport"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_no_subcommand(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1


def test_log_env_diagnostics(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SUPERLIMB_LOG", "info")
    out = tmp_path / "log.csv"
    code, stdout, err = run_cli(
        ["run", "--config", scenario_path("static_hold.json"), "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "INFO superlimb:" in err
    assert stdout == ""  # diagnostics never mix with data


def test_log_lines_print_once_however_often_main_runs(tmp_path, capsys, monkeypatch, trace_csv):
    # each main() call in one process used to add one more stderr handler,
    # so its n-th call printed every INFO line n times
    monkeypatch.setenv("SUPERLIMB_LOG", "info")
    for _ in range(2):
        code, _, err = run_cli(["emg-pipeline", "--in", trace_csv,
                                "--out", str(tmp_path / "pipeline.csv")], capsys)
        assert code == 0
        assert err.count("INFO superlimb: wrote 400 samples") == 1, err


@pytest.mark.parametrize(
    "trace_body, motion_body, bad_file",
    [
        ("0,1\n0.001,abc\n", None, "trace.csv"),  # non-numeric cell
        ("0,1\n0.001\n", None, "trace.csv"),  # ragged row
        ("0,1\n0.001,nan\n", None, "trace.csv"),  # NaN trace cell is bad input
        (None, "0.0,0.0\nnan,0.4\n", "motion.csv"),  # NaN motion time
        (None, "0.0,0.0\n1.5,nan\n", "motion.csv"),  # NaN motion yaw
    ],
)
def test_emg_pipeline_bad_csv_exits_1(tmp_path, capsys, trace_body, motion_body, bad_file):
    trace = tmp_path / "trace.csv"
    if trace_body is None:
        t = np.arange(400) / 1000.0
        x = np.sin(2 * np.pi * 80.0 * t)
        trace_body = "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), x.tolist()))
    trace.write_text("t,ch1\n" + trace_body)
    argv = ["emg-pipeline", "--in", str(trace), "--out", str(tmp_path / "o.csv")]
    if motion_body is not None:
        motion = tmp_path / "motion.csv"
        motion.write_text("t,yaw_rad\n" + motion_body)
        argv += ["--motion", str(motion)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith(f"error: {tmp_path / bad_file}, line 3:")
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "o.csv").exists()  # checking --out first created nothing
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("bad_file", ["trace.csv", "motion.csv"])
def test_emg_pipeline_non_utf8_csv_exits_1(tmp_path, capsys, bad_file):
    t = np.arange(400) / 1000.0
    (tmp_path / "trace.csv").write_text("t,ch1\n" + "".join(
        f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), np.sin(80.0 * t).tolist())))
    (tmp_path / "motion.csv").write_text("t,yaw_rad\n0.0,0.0\n1.5,0.4\n")
    path = tmp_path / bad_file
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:3] + b"\xff" + lines[2][3:]
    path.write_bytes(b"\n".join(lines))
    argv = ["emg-pipeline", "--in", str(tmp_path / "trace.csv"),
            "--motion", str(tmp_path / "motion.csv"), "--out", str(tmp_path / "o.csv")]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith(f"error: {path}, line 3: not UTF-8 text")
    assert out == ""
    assert not (tmp_path / "o.csv").exists()


def test_run_non_utf8_motion_file_exits_1(tmp_path, capsys):
    with open(scenario_path("emg_step.json")) as fh:
        data = json.load(fh)
    data["emg"]["motion"] = {"file": "motion.csv"}
    (tmp_path / "motion.csv").write_bytes(b"t,yaw_rad\n0.0,0.0\n1.5,0.\xff4\n")
    cfg = tmp_path / "emg.json"
    cfg.write_text(json.dumps(data))
    code, _, err = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")],
                           capsys)
    assert code == 1
    assert err.startswith(f"error: {tmp_path / 'motion.csv'}, line 3: not UTF-8 text")


def test_emg_pipeline_overflowing_sample_is_numeric(tmp_path, capsys, trace_csv):
    # a finite sample whose square overflows: the envelope reports it, and
    # no floating-point warning is printed on the way
    trace = tmp_path / "trace.csv"
    lines = trace.read_text().splitlines()
    lines[101] = lines[101].split(",")[0] + ",1e200"
    trace.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o.csv"
    code, _, err = run_cli(["emg-pipeline", "--in", trace_csv, "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("numeric error: envelope: the sum of squared samples overflows")
    assert not out.exists()


# --- numeric flags --------------------------------------------------------------


@pytest.mark.parametrize(
    "command, flags",
    [
        ("emg-pipeline", ["--window", "nan"]),
        ("emg-pipeline", ["--window", "inf"]),
        ("emg-pipeline", ["--gain", "-1"]),
        ("emg-pipeline", ["--gain", "nan"]),
        ("emg-pipeline", ["--threshold", "0.05", "--hysteresis", "0.1"]),
        ("analyze-stability", ["--servo-margin", "nan"]),
        ("gen-emg", ["--mvc", "nan"]),
        ("gen-emg", ["--mvc", "0"]),
        ("emg-pipeline", ["--f-max", "inf"]),
        ("emg-pipeline", ["--mvc", "inf"]),
        ("emg-pipeline", ["--window", "1e308"]),  # window * fs is not finite
        ("gen-emg", ["--mvc", "1e308"]),  # the calibrated samples overflow
    ],
)
def test_bad_numeric_flag_exits_1(tmp_path, capsys, trace_csv, command, flags):
    out = tmp_path / "o.csv"
    argv = {
        "emg-pipeline": ["emg-pipeline", "--in", trace_csv, "--out", str(out)],
        "analyze-stability": [
            "analyze-stability", "--config", scenario_path("posture_inverted.json"),
        ],
        "gen-emg": [
            "gen-emg", "--profile", scenario_path("emg_profile_step.json"),
            "--seed", "1", "--out", str(out),
        ],
    }[command]
    code, stdout, err = run_cli(argv + flags, capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("duration", 1e308),  # no finite step count
    ("duration", 1e12),  # 2e14 steps: beyond the address space
    ("dt", 1e-300),  # 2e300 steps
])
def test_run_unallocatable_step_count_exits_1(tmp_path, capsys, key, value):
    with open(scenario_path("static_hold.json")) as fh:
        data = json.load(fh)
    data["sim"][key] = value
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    code, _, err = run_cli(["run", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: sim.")
    assert "Traceback" not in err
    assert not out.exists()


def test_run_overflowing_human_motion_exits_1(tmp_path, capsys):
    # the phase stays finite, but a * (2 pi f)^2 overflows: a config error
    with open(scenario_path("overhead_inverse.json")) as fh:
        data = json.load(fh)
    data["human_motion"]["frequency"] = 1e155
    data["sim"]["duration"] = 0.05
    cfg = tmp_path / "fast.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    code, _, err = run_cli(["run", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: human_motion.frequency")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key,value,error", [
    # gain * f_max overflows, so the gated equilibrium shift would: a config
    # error at load, not a numeric failure once the gate opens
    ("gain", 1e308, "error: emg.gain: gain 1e+308 gives no finite equilibrium shift"),
    # f_max * fl_factor overflows: the Hill parameters are at fault, not the gain
    ("hill", {"f_max": 1.5e308, "fl_factor": 1.5}, "error: emg.hill: full-activation force"),
])
def test_run_overflowing_emg_force_exits_1(tmp_path, capsys, key, value, error):
    with open(scenario_path("emg_step.json")) as fh:
        data = json.load(fh)
    data["emg"][key] = value
    cfg = tmp_path / "emg.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    code, _, err = run_cli(["run", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith(error)
    assert "Traceback" not in err
    assert not out.exists()


def test_run_overflowing_mvc_reference_exits_1(tmp_path, capsys):
    # the synthetic trace's calibration overflows: the scenario key is named
    with open(scenario_path("emg_step.json")) as fh:
        data = json.load(fh)
    data["sim"]["duration"] = 0.05
    data["emg"]["hill"]["mvc_reference"] = 1e308
    cfg = tmp_path / "mvc.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    code, _, err = run_cli(["run", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 1
    assert err == ("error: emg.hill.mvc_reference: 1e+308 calibrates sEMG samples "
                   "past the float range\n")
    assert not out.exists()


@pytest.mark.parametrize("mvc, error", [
    ("1e308", "error: --mvc 1e+308 calibrates sEMG samples past the float range\n"),
    ("nan", "error: --mvc must be finite and > 0, got nan\n"),
])
def test_gen_emg_bad_mvc_names_the_flag(tmp_path, capsys, mvc, error):
    out = tmp_path / "t.csv"
    code, _, err = run_cli(
        ["gen-emg", "--profile", scenario_path("emg_profile_step.json"), "--seed", "1",
         "--out", str(out), "--mvc", mvc], capsys)
    assert code == 1
    assert err == error
    assert not out.exists()


def test_emg_pipeline_overflowing_gain_exits_1(tmp_path, capsys, trace_csv):
    # the same rule as a scenario's emg.gain, checked before any filtering
    out = tmp_path / "o.csv"
    argv = ["emg-pipeline", "--in", trace_csv, "--out", str(out), "--gain", "1e308"]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("error: gain 1e+308 gives no finite equilibrium shift")
    assert "Traceback" not in err
    assert not out.exists()


def test_run_repeated_controller_component_exits_1(tmp_path, capsys):
    with open(scenario_path("static_hold.json")) as fh:
        data = json.load(fh)
    data["controller"]["components"] = ["z", "z"]
    cfg = tmp_path / "twice.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    code, _, err = run_cli(["run", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: controller.components: must be distinct")
    assert "Traceback" not in err
    assert not out.exists()


def _level_table(i: int, matrix) -> list:
    """The default diagonal stiffness table with level ``i + 1`` replaced."""
    table = [[[k, 0.0], [0.0, k]] for k in (100.0, 200.0, 400.0, 800.0)]
    table[i] = matrix
    return table


@pytest.mark.parametrize("i, matrix", [
    (1, [[200.0, 50.0], [0.0, 200.0]]),  # the selected level, asymmetric
    (1, [[200.0, 0.0], [0.0, -5.0]]),  # the selected level, not PSD
    (0, [[100.0, 50.0], [0.0, 100.0]]),  # a level not selected, asymmetric
    (3, [[800.0, 0.0], [0.0, -1.0]]),  # a level not selected, not PSD
])
def test_run_bad_stiffness_level_exits_1(tmp_path, capsys, i, matrix):
    with open(scenario_path("static_hold.json")) as fh:
        data = json.load(fh)  # selects level 2
    data["controller"]["stiffness_table"] = _level_table(i, matrix)
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    code, _, err = run_cli(["run", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith(f"error: controller.stiffness_table[{i}]: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("fs", 1e308),  # no finite sample count
    ("duration", 1e308),
    ("duration", 2**70),  # more samples than numpy can allocate
    ("duration", 0.008),  # 8 samples: too short to filter
])
def test_gen_emg_bad_sample_count_exits_1(tmp_path, capsys, key, value):
    with open(scenario_path("emg_profile_step.json")) as fh:
        data = json.load(fh)
    data[key] = value
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(data))
    out = tmp_path / "t.csv"
    code, _, err = run_cli(
        ["gen-emg", "--profile", str(profile), "--seed", "1", "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: profile.duration: ")
    assert "Traceback" not in err
    assert not out.exists()


def _run_edited(tmp_path, capsys, name: str, edit) -> tuple[int, str, bool]:
    """Run a bundled scenario after ``edit`` changed its JSON in place;
    returns the exit code, stderr and whether a log was written."""
    with open(scenario_path(f"{name}.json")) as fh:
        data = json.load(fh)
    edit(data)
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    code, _, err = run_cli(["run", "--config", str(cfg), "--out", str(out)], capsys)
    return code, err, out.exists()


def test_run_controller_on_human_chain_exits_1(tmp_path, capsys):
    # the controller's J^T f acts on limb joints only: on the trunk it
    # would log a commanded force that no joint applies
    code, err, wrote = _run_edited(
        tmp_path, capsys, "static_hold", lambda d: d["controller"].update(chain="trunk"))
    assert (code, wrote) == (1, False)
    assert err == ("error: controller.chain: 'trunk' is a human chain; the controller "
                   "drives a limb chain\n")


def test_run_default_controller_chain_of_a_plant_without_limb_exits_1(tmp_path, capsys):
    def human_only(data):
        data["plant"]["chains"] = data["plant"]["chains"][1:]
        del data["contact"]

    code, err, wrote = _run_edited(tmp_path, capsys, "static_hold", human_only)
    assert (code, wrote) == (1, False)
    assert err == ("error: controller.chain: 'trunk' is a human chain; the controller "
                   "drives a limb chain\n")


@pytest.mark.parametrize("limb", [True, False], ids=["with-limb", "human-only"])
def test_run_contact_on_human_chain_in_tracking_mode_exits_1(tmp_path, capsys, limb):
    # with a limb the trunk's contact row has no free part (its Gram matrix
    # is 0); without one nothing is free and the force would log as 0
    def on_trunk(data):
        data["contact"]["chain"] = "trunk"
        if not limb:
            data["plant"]["chains"] = data["plant"]["chains"][1:]
            data["controller"]["enabled"] = False

    code, err, wrote = _run_edited(tmp_path, capsys, "overhead_sweep", on_trunk)
    assert (code, wrote) == (1, False)
    assert err == ("error: contact.chain: 'trunk' is a human chain; the contact must be on "
                   "a limb chain\n")


def test_run_contact_on_human_chain_in_inverse_dynamics_exits_1(tmp_path, capsys):
    # the split would let the panel hold the wearer up: lambda_z would log
    # the 55 kg trunk's weight, -539.55 N
    def on_trunk(data):
        data["contact"]["chain"] = "trunk"
        data["sim"]["duration"] = 0.05

    code, err, wrote = _run_edited(tmp_path, capsys, "overhead_inverse", on_trunk)
    assert (code, wrote) == (1, False)
    assert err == ("error: contact.chain: 'trunk' is a human chain; the contact must be on "
                   "a limb chain\n")


def test_run_disabled_controller_may_name_a_human_chain(tmp_path, capsys):
    code, err, wrote = _run_edited(
        tmp_path, capsys, "static_hold",
        lambda d: d["controller"].update(chain="trunk", enabled=False))
    assert (code, err, wrote) == (0, "", True)


@pytest.mark.parametrize("name", ["static_hold", "overhead_inverse"])
def test_run_overflowing_panel_weight_exits_1(tmp_path, capsys, name):
    def heavy_panel(data):
        data["controller"]["panel_mass"] = 1e308
        data["sim"]["duration"] = 0.05

    code, err, wrote = _run_edited(tmp_path, capsys, name, heavy_panel)
    assert (code, wrote) == (1, False)
    assert err == "error: controller.panel_mass: weight 1e+308 kg * 9.81 m/s^2 is not finite\n"


def test_run_overflowing_joint_weight_exits_1(tmp_path, capsys):
    code, err, wrote = _run_edited(
        tmp_path, capsys, "static_hold",
        lambda d: d["plant"]["chains"][0]["joints"][2].update(mass=1e308))
    assert (code, wrote) == (1, False)
    assert err == ("error: plant.chains[0].joints[2].mass: weight 1e+308 kg * 9.81 m/s^2 "
                   "is not finite\n")


def test_run_inverse_dynamics_non_finite_commanded_force_exits_2(tmp_path, capsys):
    # the inverse step logs the commanded force without applying it: the
    # logged row's check names it
    def stiff(data):
        data["controller"].update(stiffness_table=[[1e308, 1e308]] * 4, x_eq=[0.0, -5.0])
        data["sim"]["duration"] = 0.05

    code, err, wrote = _run_edited(tmp_path, capsys, "overhead_inverse", stiff)
    assert (code, wrote) == (2, False)
    assert err == "numeric error: [step 0, t=0s] f_cmd_z is -inf\n"


@pytest.mark.parametrize("mode", ["inverse-dynamics", "tracking"])
def test_run_non_finite_mount_force_exits_2(tmp_path, capsys, monkeypatch, mode):
    # the mount force of a whole run is one product after the loop; an Inf
    # in it still exits 2 and is named at its step, and no log is written
    derive = PlantModel._derive_structure

    def inf_mount(kin):
        return kin._replace(mount=kin.mount[:-2] + (math.inf, kin.mount[-1]))

    def poisoned(model):  # the run kernel's first call is the "auto" equilibrium point
        derive(model)
        poison_kernel(model, {3: inf_mount}, skip=1)

    monkeypatch.setattr(PlantModel, "_derive_structure", poisoned)
    code, err, wrote = _run_edited(tmp_path, capsys, "overhead_inverse",
                                   lambda d: d["sim"].update(duration=0.05, mode=mode))
    assert (code, wrote) == (2, False)
    assert err == "numeric error: [step 3, t=0.015s] f_mount_x is -inf\n"


def heavy_trunk(mode):
    """overhead_inverse with a finite 1e307 kg trunk swaying at 50 Hz, run
    in ``mode``: its weight and inertial force leave the float range."""
    def edit(data):
        data["plant"]["chains"][1]["joints"][0]["mass"] = 1e307
        data["human_motion"]["frequency"] = 50.0
        data["sim"].update(duration=0.05, mode=mode)
    return edit


@pytest.mark.parametrize("mode, column", [
    ("inverse-dynamics", "lambda_z is nan"),
    ("tracking", "tau_h0 is -inf"),
])
def test_run_non_finite_logged_value_exits_2(tmp_path, capsys, mode, column):
    code, err, wrote = _run_edited(tmp_path, capsys, "overhead_inverse", heavy_trunk(mode))
    assert (code, wrote) == (2, False)
    assert err == f"numeric error: [step 1, t=0.005s] {column}\n"
