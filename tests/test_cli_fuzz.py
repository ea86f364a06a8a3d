"""Seeded in-process fuzz of the CLI's file and flag inputs: mutated trace
and motion CSV bytes, extreme values of the numeric flags of
``emg-pipeline``, ``gen-emg`` and ``analyze-stability``, and structurally
mutated posture, scenario and activation-profile JSON.  Every case must
exit 0, 1 (``error:``) or 2 (``numeric error:``), with no exception and no
floating-point warning escaping."""

import copy
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


#: the bundled scenario files the scenario fuzz mutates
SIM_FILES = ["overhead_sweep", "press_friction", "emg_step", "static_hold", "overhead_inverse"]
#: the fuzz's run length, short enough for a case to cost milliseconds
FUZZ_DURATION = 0.05


class Pairs(list):
    """A JSON object as its (key, value) pairs, so that a key can repeat."""


class Text(str):
    """A leaf given as its JSON text."""


def as_pairs(value):
    """``value`` parsed from JSON with each object as ``Pairs``."""
    if isinstance(value, dict):
        return Pairs((key, as_pairs(v)) for key, v in value.items())
    if isinstance(value, list):
        return [as_pairs(v) for v in value]
    return value


def dump(value) -> str:
    """The JSON text of an ``as_pairs`` tree, duplicate keys kept."""
    if isinstance(value, Text):
        return value
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(k, ensure_ascii=False)}: {dump(v)}"
                               for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dump, value)) + "]"
    return json.dumps(value)


def nodes(value, path=()):
    """Every (path, node) of an ``as_pairs`` tree, the root first; a path
    holds list indices and, into ``Pairs``, pair indices."""
    yield path, value
    if isinstance(value, Pairs):
        for i, (_, v) in enumerate(value):
            yield from nodes(v, path + (i,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from nodes(v, path + (i,))


def replace(tree, path, new):
    """Set the node at ``path`` of ``tree`` to ``new``, in place."""
    *head, last = path
    for i in head:
        tree = tree[i][1] if isinstance(tree, Pairs) else tree[i]
    if isinstance(tree, Pairs):
        tree[last] = (tree[last][0], new)
    else:
        tree[last] = new


def sim_tree(name: str):
    """A bundled scenario, run for ``FUZZ_DURATION``, as an ``as_pairs`` tree."""
    data = json.loads(Path(scenario_path(f"{name}.json")).read_text())
    data["sim"]["duration"] = FUZZ_DURATION
    return as_pairs(data)


SIM_TREES = {name: sim_tree(name) for name in SIM_FILES}


#: the bundled profile the profile fuzz mutates, at a duration (not
#: mutated) short enough for a case to cost milliseconds
PROFILE_TREE = as_pairs(dict(json.loads(Path(scenario_path("emg_profile_step.json")).read_text()),
                             duration=0.1))


def key_path(tree, keys) -> tuple:
    """The ``nodes`` path of the object member at ``keys`` of ``tree``."""
    path = ()
    for key in keys:
        i = next(i for i, (k, _) in enumerate(tree) if k == key)
        path, tree = path + (i,), tree[i][1]
    return path


@hs.composite
def mutated_config(draw, trees: list, held: tuple[str, ...]) -> bytes:
    """One of the config files ``trees`` with one structural mutation; the
    leaf at the keys ``held`` (its duration) is kept."""
    tree = copy.deepcopy(draw(hs.sampled_from(trees)))
    hold = key_path(tree, held)
    leaves = [(p, v) for p, v in nodes(tree) if not isinstance(v, list) and p != hold]
    numeric = [p for p, v in leaves if type(v) in (int, float)]
    objects = [p for p, v in nodes(tree) if isinstance(v, Pairs) and v]
    kind = draw(hs.sampled_from(
        ["leaf", "two leaves", "remove", "duplicate", "add", "nest", "truncate", "not utf-8"]))
    leaf = hs.sampled_from(LEAVES).map(Text)

    def object_at(path):
        node = tree
        for i in path:
            node = node[i][1] if isinstance(node, Pairs) else node[i]
        return node

    if kind == "leaf":
        replace(tree, draw(hs.sampled_from([p for p, _ in leaves])), draw(leaf))
    elif kind == "two leaves":
        for path in draw(hs.lists(hs.sampled_from(numeric), min_size=2, max_size=2,
                                  unique=True)):
            replace(tree, path, Text(draw(hs.sampled_from(NUMBERS))))
    elif kind in ("remove", "duplicate", "add", "nest"):
        node = object_at(draw(hs.sampled_from(objects)))
        at = draw(hs.integers(0, len(node) - 1))
        if kind == "remove":
            del node[at]
        elif kind == "duplicate":  # the key again, later or earlier in the text
            node.insert(draw(hs.integers(0, len(node))), (node[at][0], draw(leaf)))
        elif kind == "add":
            node.append((draw(hs.sampled_from(NON_ASCII_KEYS)), draw(leaf)))
        else:  # a value nested past the recursion limit
            depth = draw(hs.sampled_from([sys.getrecursionlimit() + 1, 100_000]))
            node[at] = (node[at][0], Text("[" * depth + "]" * depth))
    data = dump(tree).encode()
    if kind == "truncate":
        return data[: draw(hs.integers(0, len(data) - 1))]
    if kind == "not utf-8":
        i = draw(hs.integers(0, len(data)))
        bad = draw(hs.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]))
        return data[:i] + bad + data[i:]
    return data


def test_scenario_trees_round_trip():
    # the fuzz's unmutated files are the bundled ones at FUZZ_DURATION
    for name, tree in SIM_TREES.items():
        data = json.loads(Path(scenario_path(f"{name}.json")).read_text())
        data["sim"]["duration"] = FUZZ_DURATION
        assert json.loads(dump(tree)) == data


@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_config([SIM_TREES[name] for name in SIM_FILES], ("sim", "duration")))
def test_scenario_json_fuzz_exits_cleanly(tmp_path, capsys, data):
    # a mutated scenario file runs, or exits 1 or 2 with its message, and
    # never escapes with a traceback or a floating-point warning
    cfg = tmp_path / "scenario.json"
    cfg.write_bytes(data)
    check_exit(["run", "--config", str(cfg), "--out", str(tmp_path / "out.csv")], capsys)


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_config([PROFILE_TREE], ("duration",)))
def test_profile_json_fuzz_exits_cleanly(tmp_path, capsys, data):
    # a mutated activation profile synthesizes its trace, or exits 1 or 2
    # with its message, and never escapes with a traceback or a
    # floating-point warning
    cfg = tmp_path / "profile.json"
    cfg.write_bytes(data)
    check_exit(["gen-emg", "--profile", str(cfg), "--seed", "42",
                "--out", str(tmp_path / "trace.csv")], capsys)
