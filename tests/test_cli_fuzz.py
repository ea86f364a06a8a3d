"""Seeded in-process fuzz of the CLI's file and flag inputs: mutated trace
and motion CSV bytes, extreme values of the numeric flags of
``emg-pipeline``, ``gen-emg`` and ``analyze-stability``, and structurally
mutated posture JSON.  Every case must exit 0, 1 (``error:``) or 2
(``numeric error:``), with no exception and no floating-point warning
escaping."""

import itertools
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import scenario_path
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

from superlimb.cli import main
from superlimb.stability import POSTURES, DiagnosticMismatch

FLAG_VALUES = ["0", "-0", "1e-320", "-1", "1e308", "-1e308", "inf", "-inf", "nan"]


def check_exit(argv, capsys, allow=()) -> int:
    """Run ``main(argv)`` and return its exit code; fail on an escaping
    exception or warning (but the warning categories in ``allow``) and on an
    exit code without its stderr prefix."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for category in allow:
            warnings.simplefilter("ignore", category)
        try:
            code = main(argv)
        except BaseException as exc:  # noqa: BLE001 - the escape under test
            pytest.fail(f"{argv}: {type(exc).__name__}: {exc}")
    err = capsys.readouterr().err
    prefix = {0: "", 1: "error: ", 2: "numeric error: "}.get(code)
    assert prefix is not None and err.startswith(prefix), (argv, code, err)
    assert "Traceback" not in err, argv
    return code


def csv_bytes(header: str, columns) -> bytes:
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return (header + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows)).encode()


def trace_bytes(n: int = 200) -> bytes:
    t = np.arange(n) / 1000.0
    return csv_bytes("t,ch1", (t, np.random.default_rng(1).standard_normal(n)))


def motion_bytes(n: int = 30) -> bytes:
    t = np.arange(n) * 0.01
    return csv_bytes("t,yaw_rad", (t, 0.5 * np.sin(t)))


def mutate(data: bytes, rng) -> bytes:
    """One to three byte replacements, insertions or deletions."""
    b = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        i, byte = int(rng.integers(0, len(b))), int(rng.integers(0, 256))
        op = int(rng.integers(0, 3))
        if op == 0:
            b[i] = byte
        elif op == 1:
            b.insert(i, byte)
        else:
            del b[i]
    return bytes(b)


def with_sample(data: bytes, row: int, value: str) -> bytes:
    """``data`` with the first channel of body row ``row`` set to ``value``."""
    lines = data.decode().splitlines()
    lines[row + 1] = lines[row + 1].split(",")[0] + "," + value
    return ("\n".join(lines) + "\n").encode()


def test_csv_byte_fuzz_exits_cleanly(tmp_path, capsys):
    rng = np.random.default_rng(23)
    trace, motion = trace_bytes(), motion_bytes()
    cases = [
        (trace[:40] + b"\xff" + trace[41:], motion),  # not UTF-8
        (trace, motion[:50] + b"\xfe\xff" + motion[50:]),
        (trace[:40] + b"\x00" + trace[41:], motion),
        (trace[:40] + b'"' + trace[41:], motion),  # a quote left open to the end
        (with_sample(trace, 100, "1e200"), motion),  # its square overflows
        (with_sample(trace, 0, "1e308"), motion),  # the filter's edge padding overflows
    ]
    for i in range(240):
        cases.append((mutate(trace, rng), motion) if i % 2 else (trace, mutate(motion, rng)))
    trace_path, motion_path = tmp_path / "trace.csv", tmp_path / "motion.csv"
    argv = ["emg-pipeline", "--in", str(trace_path), "--motion", str(motion_path),
            "--out", str(tmp_path / "out.csv")]
    codes = set()
    for trace_data, motion_data in cases:
        trace_path.write_bytes(trace_data)
        motion_path.write_bytes(motion_data)
        codes.add(check_exit(argv, capsys))
    assert codes == {0, 1, 2}


def test_numeric_flag_fuzz_exits_cleanly(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_bytes(trace_bytes())
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"duration": 0.2, "steps": [[0.0, 0.0], [0.05, 1.0]]}))
    out = str(tmp_path / "out.csv")
    pipeline = ["emg-pipeline", "--in", str(trace), "--out", out]
    gen = ["gen-emg", "--profile", str(profile), "--seed", "1", "--out", out]
    cases = [
        pipeline + [flag, v] for flag, v in itertools.product(
            ["--gain", "--threshold", "--hysteresis", "--f-max", "--mvc", "--window"],
            FLAG_VALUES)
    ]
    cases += [pipeline + ["--band", lo, hi]
              for lo, hi in itertools.product(FLAG_VALUES + ["20", "450"], repeat=2)]
    cases += [gen + ["--mvc", v] for v in FLAG_VALUES]
    cases += [gen[:4] + ["--seed", v, "--out", out] for v in ("0", "-1", str(2**70))]
    cases += [["analyze-stability", "--config", scenario_path(f"{name}.json"),
               "--servo-margin", v]
              for name in ("posture_hanging", "posture_inverted") for v in FLAG_VALUES]
    codes = {check_exit(argv, capsys) for argv in cases}
    assert codes == {0, 1, 2}


#: JSON text of a numeric leaf: FLAG_VALUES, magnitudes whose squares or
#: weights underflow or overflow, an integer past the float range and one
#: past the decoder's 4,300-digit limit
NUMBERS = [json.dumps(float(v)) for v in FLAG_VALUES] + [
    "1e-300", "1e-160", "1e200", "1e300", "1" + "0" * 400, "1" + "0" * 5000]
NAMES = [json.dumps(name) for name in sorted(POSTURES)]
#: any leaf: a number, a value of the wrong type or a posture's name
LEAVES = NUMBERS + NAMES + ["null", "true", '"4.0"', "[]", "{}", "[4.0]", '"Column"']
NON_ASCII_KEYS = ["masse\u0301", "\u03ba", "r\u00e9", "\U0001f600"]
#: each posture file's stability section as (key, JSON text) pairs
POSTURE_PAIRS = [
    [(key, json.dumps(value)) for key, value in
     json.loads(Path(scenario_path(f"{name}.json")).read_text())["stability"].items()]
    for name in ("posture_hanging", "posture_inverted")
]


def posture_json(pairs) -> bytes:
    """A config whose stability section has ``pairs``, duplicates kept."""
    body = ", ".join(f"{json.dumps(key, ensure_ascii=False)}: {text}" for key, text in pairs)
    return ('{"stability": {' + body + "}}").encode()


@hs.composite
def posture_config(draw) -> bytes:
    """A posture file with one structural mutation."""
    pairs = list(draw(hs.sampled_from(POSTURE_PAIRS)))
    at = hs.integers(0, len(pairs) - 1)
    kind = draw(hs.sampled_from(
        ["leaf", "two leaves", "remove", "duplicate", "add", "nest", "truncate", "not utf-8"]))
    if kind == "leaf":
        i = draw(at)
        pairs[i] = (pairs[i][0], draw(hs.sampled_from(LEAVES)))
    elif kind == "two leaves":  # on any posture, gamma included
        section = dict(pairs, posture=draw(hs.sampled_from(NAMES)))
        for key in draw(hs.lists(hs.sampled_from(["mass", "k", "r", "gamma"]),
                                 min_size=2, max_size=2, unique=True)):
            section[key] = draw(hs.sampled_from(NUMBERS))
        pairs = list(section.items())
    elif kind == "remove":
        del pairs[draw(at)]
    elif kind == "duplicate":  # the key again, later or earlier in the text
        key = pairs[draw(at)][0]
        pairs.insert(draw(hs.integers(0, len(pairs))), (key, draw(hs.sampled_from(LEAVES))))
    elif kind == "add":
        pairs.append((draw(hs.sampled_from(NON_ASCII_KEYS)), draw(hs.sampled_from(LEAVES))))
    elif kind == "nest":  # the section nested past the recursion limit
        depth = draw(hs.sampled_from([sys.getrecursionlimit() + 1, 100_000]))
        return b'{"stability": ' + b"[" * depth + b"]" * depth + b"}"
    data = posture_json(pairs)
    if kind == "truncate":
        return data[: draw(hs.integers(0, len(data) - 1))]
    if kind == "not utf-8":
        i = draw(hs.integers(0, len(data)))
        return data[:i] + draw(hs.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])) + data[i:]
    return data


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(posture_config())
def test_posture_json_fuzz_exits_cleanly(tmp_path, capsys, data):
    # the certificate's DiagnosticMismatch is its documented warning; any
    # other warning is an error
    cfg = tmp_path / "posture.json"
    cfg.write_bytes(data)
    argv = ["analyze-stability", "--config", str(cfg)]
    for margin in ([], ["--servo-margin", "1.0"], ["--servo-margin", "1e300"]):
        check_exit(argv + margin, capsys, allow=(DiagnosticMismatch,))
