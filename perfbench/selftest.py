"""Self-tests of the benchmark, at the tiny "smoke" input size.

    python3 -m pytest -q perfbench/selftest.py

They run every workload untraced and traced, check that every metric in
BENCHMARK.json is printed with its unit, that call counts repeat exactly,
that the tracer sees the profile the roadmap measured on overhead_sweep,
that generated inputs are reproducible, that the output checks reject
wrong outputs, and that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from superlimb import harness, scenario  # noqa: E402

RUN = os.path.join(HERE, "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SMOKE = inputs.SIZES["smoke"]


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def result_of(proc) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    return json.loads(last), "\n".join(lines)


@pytest.fixture(scope="module")
def traced():
    """Two traced smoke runs of every workload with one seed, one with another."""
    out = {}
    for name in inputs.WORKLOADS:
        out[name] = [
            result_of(bench("--workload", name, "--seed", str(seed), "--seconds", "0.3",
                            "--trace", "1", "--size", "smoke"))[0]
            for seed in (7, 7, 8)
        ]
    return out


def test_every_workload_prints_every_end_to_end_metric():
    proc = bench("--workload", "all", "--seed", "3", "--seconds", "0.3",
                 "--trace", "0", "--size", "smoke")
    result, text = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for name in inputs.WORKLOADS:
        for metric in SPEC["end_to_end"]:
            got = result["metrics"][f"{name}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert got["value"] > 0.0
    printed = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] + [
        ("cli_wall_s", "s"), ("unit_ms_p50", "ms"), ("fail_ratio", "1")]
    for name, unit in printed:
        pattern = rf"^  {re.escape(name)} +[0-9.e+-]+ {re.escape(unit)}\b"
        assert len(re.findall(pattern, text, re.M)) == len(inputs.WORKLOADS), name
    assert len(re.findall(r"^  fail_ratio +0 1 ", text, re.M)) == len(inputs.WORKLOADS)
    for name, unit in [("sim_steps_per_s", "steps/s"), ("emg_samples_per_s", "rows/s"),
                       ("certs_per_s", "postures/s")]:
        assert re.search(rf"^  {name} +[0-9.]+ {re.escape(unit)}", text, re.M), name


def test_traced_runs_print_every_per_layer_metric(traced):
    for name, runs in traced.items():
        for result in runs:
            assert result["correct"] is True, name
            assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
            for metric in SPEC["per_layer"]:
                assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def _counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if ".calls_per_" in k or k.endswith("bytes_per_unit")}


def test_call_counts_repeat_exactly(traced):
    for name, (first, second, other_seed) in traced.items():
        assert _counts(first) == _counts(second), name
        calls = {k: v for k, v in _counts(first).items() if ".calls_per_" in k}
        assert calls == {k: v for k, v in _counts(other_seed).items() if ".calls_per_" in k}


def test_layers_read_zero_where_they_do_not_run(traced):
    emg_run = traced["emg_replay"][0]["metrics"]
    assert emg_run["plant.bias.calls_per_step"]["value"] == 0.0
    assert emg_run["emg.activation_series.calls_per_unit"]["value"] == 1.0
    inverse = traced["inverse_hold"][0]["metrics"]
    assert inverse["harness.advance.calls_per_step"]["value"] == 0.0
    assert inverse["dynamics.decouple.calls_per_step"]["value"] == 1.0
    sweep = traced["sweep_study"][0]["metrics"]
    assert sweep["dynamics.decouple.calls_per_step"]["value"] == 0.0
    grid = traced["stability_grid"][0]["metrics"]
    assert grid["stability.fd_eval.calls_per_unit"]["value"] > 0.0
    assert grid["plant.state.calls_per_step"]["value"] == 0.0


def test_overhead_sweep_profile_matches_roadmap(tmp_path):
    """bias twice, gravity_vector three times and one controller rebuild
    per step (plus the controller built once per run)."""
    data = inputs.sweep_variant("overhead_sweep", inputs.rng_for(1, "sweep_study", 0), 0.1)
    path = tmp_path / "sweep.json"
    inputs.write_json(str(path), data)
    sc = scenario.load_scenario(str(path))
    tr = tracer.Tracer()
    with tracer.installed(tr):
        log = harness.run_scenario(sc)
    steps = len(log)
    calls = {k: c for k, (c, _) in tr.totals().items()}
    assert steps == 160
    assert calls["plant.bias"] == 2 * steps
    assert calls["plant.gravity_vector"] == 3 * steps
    assert calls["stiffness.controller_build"] == steps + 1
    # wrappers are removed again
    assert harness.run_scenario.__module__ == "superlimb.harness"
    assert not hasattr(harness.run_scenario, "__wrapped__")


def test_same_seed_same_input_bytes(tmp_path):
    digests = {}
    for name, cls in workloads.WORKLOADS.items():
        a = cls(5, SMOKE, str(tmp_path / f"{name}-a"))
        b = cls(5, SMOKE, str(tmp_path / f"{name}-b"))
        c = cls(6, SMOKE, str(tmp_path / f"{name}-c"))
        digests[name] = inputs.digest(a.input_files())
        assert digests[name] == inputs.digest(b.input_files())
        assert digests[name] != inputs.digest(c.input_files())


def test_checks_reject_wrong_outputs(tmp_path):
    wl = workloads.EmgReplay(2, SMOKE, str(tmp_path / "emg"))
    wl.load()
    unit = wl.rounds[0][1]
    assert wl.run(unit).failures == []
    header, data = checks.read_csv(wl.out)
    bad = data.copy()
    off = np.flatnonzero(bad[:, 4] == 0.0)[0]
    bad[off, 5] = 1e-6                       # shift while the gate is off
    bad[:, 1] *= 1.001                       # envelope off the moving RMS
    np.savetxt(wl.out, bad, delimiter=",", header=",".join(header), comments="")
    fails = checks.check_pipeline(wl.out, unit.spec["t"], unit.spec["channels"])
    assert any("gate was off" in f for f in fails)
    assert any("moving RMS" in f for f in fails)

    section = {"posture": "inverted_panel", "mass": 4.0, "k": 400.0, "r": 0.3,
               "gamma": 0.5}
    kp, base = checks.closed_form(section)
    good_alpha = 1.0 - base.min()
    assert checks.check_certificate(section, 1.0, kp, False, kp[0], False, good_alpha) == []
    assert checks.check_certificate(section, 1.0, kp, False, kp[0], False, good_alpha - 0.1)
    assert checks.check_certificate(section, 1.0, kp * 1.01, False, kp[0], False, good_alpha)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
