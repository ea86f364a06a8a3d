"""Benchmark of the superlimb simulator and analysis stack.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  Inputs are generated from the seed into ``.perfbench-out/``
(removed at exit) and handed to the program; every output is checked.

With ``--trace 0`` the run measures, with tracing off:

* setup_s          median over fresh interpreters of the time from
                   process start until ``import superlimb`` and the
                   workload's loader have finished;
* items_per_ref    warm in-process throughput in items per probe time:
                   wall-clock items per second times the mean duration
                   of a fixed probe (see probe_seconds) run after every
                   unit, so that the probe samples the host's speed at
                   the same moments as the units.  Items are sim steps
                   (sweep_study, inverse_hold), EMG rows (emg_replay) or
                   certified postures (stability_grid);
* peak_rss_mb      maximum RSS of the measuring process.

These are the metrics BENCHMARK.json gates.  On a shared host the speed
of the CPU drifts by 15-50 % between runs of the same code; the probe
slows down with it, so the ratio holds still while the wall-clock figures
do not.  The run also prints, by name and with their units, the wall-clock
throughput (sim_steps_per_s, emg_samples_per_s or certs_per_s),
cli_wall_s (median wall time of fresh ``superlimb-sim`` processes on one
generated input), unit_ms_p50, unit_ms_tail and fail_ratio.

With ``--trace 1`` it measures the same units untraced and then traced,
and reports per-layer calls and self times from spans recorded around
calls into each superlimb module (see tracer.py), plus the tracing
overhead.  Spans are written to ``.perfbench-out/spans-<workload>.npz``.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads; children inherit it
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: (name, unit) of the end-to-end metrics, in print order
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_ref", "items/ref"),
    ("peak_rss_mb", "MB"),
)

#: layers whose figures are per simulated step; the others are per unit
STEP_SPANS = (
    "plant.state", "plant.mass_matrix", "plant.bias", "plant.gravity_vector",
    "plant.point", "harness.advance", "harness.mount_force", "harness.log_append",
    "harness.to_csv", "harness.glue", "stiffness.controller_build",
    "stiffness.control_force", "stiffness.task_to_joint_torque",
    "stiffness.friction_torque", "dynamics.contact_jacobian", "dynamics.decouple",
)
UNIT_SPANS = (
    "harness.emg_channel", "numerics.qr_full", "numerics.dyn_consistent_pinv",
    "numerics.psd_check", "numerics.finite_diff_hessian",
    "numerics.finite_diff_jacobian", "emg.bandpass", "emg.envelope",
    "emg.activation_series", "emg.gate_series", "emg.load_trace_csv",
    "emg.load_motion_csv", "emg.write_pipeline_csv", "stability.stiffness_matrix_kp",
    "stability.stabilizing_servo_stiffness", "stability.hessian_ez",
    "stability.hessian_qi", "stability.potential",
)

SUBPROCESS_TIMEOUT_S = 150

SETUP_CHILD = """\
import sys, time
import superlimb
{body}T_LOAD = time.perf_counter()
sys.stdout.write(repr(T_IMPORT) + " " + repr(T_LOAD) + "\\n")
"""


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for span in STEP_SPANS:
        out += [(f"{span}.calls_per_step", "calls/step", "lower"),
                (f"{span}.self_us_per_step", "us/step", "lower")]
    out.append(("plant.n_dof.calls_per_step", "calls/step", "lower"))
    out.append(("harness.to_csv.bytes_per_unit", "B/unit", "lower"))
    for span in UNIT_SPANS:
        out += [(f"{span}.calls_per_unit", "calls/unit", "lower"),
                (f"{span}.self_ms_per_unit", "ms/unit", "lower")]
    out += [
        ("emg.activation_series.samples_per_s", "samples/s", "higher"),
        ("stability.fd_eval.calls_per_unit", "calls/unit", "lower"),
        ("setup.import_ms", "ms", "lower"),
        ("setup.load_ms", "ms", "lower"),
        ("trace.overhead_ratio", "1", "lower"),
    ]
    return out


# --- fresh processes -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("SUPERLIMB_LOG", None)
    return env


def _child_failures(proc) -> list[str]:
    fails = []
    if proc.returncode != 0:
        fails.append(f"exit code {proc.returncode}")
    if "Traceback" in proc.stderr:
        fails.append("Traceback on stderr")
    return fails


def fresh_setup(wl) -> tuple[float, float, list[str]]:
    """(import seconds, setup seconds, failures) of one fresh interpreter."""
    code = SETUP_CHILD.format(body=wl.setup_child())
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    fails = _child_failures(proc)
    try:
        t_import, t_load = map(float, proc.stdout.split())
    except ValueError:
        return 0.0, 0.0, fails + ["setup child printed no timestamps"]
    return t_import - t0, t_load - t0, fails


def fresh_cli(wl, out: str) -> tuple[float, list[str]]:
    """(wall seconds, failures) of one superlimb-sim process."""
    if os.path.exists(out):
        os.remove(out)
    argv = [sys.executable, "-m", "superlimb.cli", *wl.cli(out)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S)
    wall = time.perf_counter() - t0
    fails = _child_failures(proc)
    if not fails:
        fails = wl.check_cli(out, proc.stdout)
    return wall, fails


# --- warm in-process measurement ---------------------------------------------------


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, what: str, failures: list[str]):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages += [f"{what}: {m}" for m in failures[:3]]


def measure(wl, tally: Tally, seconds: float | None = None, rounds: int | None = None,
            on_round=None):
    """Run whole rounds of units, with a probe after each unit.  With
    `seconds`, stop once the timed units have run that long (stopping
    early when the next round would overshoot by more than half); with
    `rounds`, run exactly that many.  Returns (unit, result, probe
    seconds) per unit, and the number of rounds."""
    results, timed, r = [], 0.0, 0
    while True:
        if rounds is not None and r >= rounds:
            break
        if rounds is None and r > 0 and timed + 0.5 * timed / r >= seconds:
            break
        for unit in wl.rounds[r % len(wl.rounds)]:
            res = wl.run(unit)
            tally.add(unit.label, res.failures)
            results.append((unit, res, probe_seconds()))
            timed += res.seconds
        r += 1
        if on_round is not None:
            on_round()
    return results, r


#: 4x4 operand of the probe's matrix products
PROBE_MATRIX = np.eye(4) * 0.5


def probe_seconds() -> float:
    """Wall time of a fixed mix of the work the program spends its time
    on: float arithmetic, float formatting and parsing, and small numpy
    matrix products (about 2.5 ms on a 2 GHz Xeon).  It allocates no
    GC-tracked objects, so it never triggers a collection of the
    program's garbage, and nothing in the program can change it."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(10_000):
        acc += i * 0.5
    for i in range(1_500):
        acc += float(repr(i * 0.37)) * 0.5
    for i in range(400):
        acc += float((PROBE_MATRIX @ PROBE_MATRIX)[0, 0]) + i * 0.5
    return time.perf_counter() - t0


def _probe_time(results) -> float:
    """Total unit time divided by the mean probe time around the units."""
    return (sum(res.seconds for _, res, _ in results)
            / statistics.fmean(ref for *_, ref in results))


def tail(ms: list[float]) -> tuple[str, float | None]:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    fit = [p for p in (50.0, 90.0, 99.0, 99.9) if len(ms) * (1.0 - p / 100.0) >= 10.0]
    if not fit:
        return "n/a", None
    qs = statistics.quantiles(ms, n=1000, method="inclusive")
    return f"p{fit[-1]:g}", qs[int(round(fit[-1] * 10)) - 1]


# --- one workload ----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, size_name: str):
    import inputs
    import workloads

    size = inputs.SIZES[size_name]
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        lines = [f"workload {name}  seed {seed}  size {size_name}  "
                 f"trace {int(trace)}  seconds {seconds:g}"]
        tally = Tally()
        correct = True

        wl = workloads.WORKLOADS[name](seed, size, os.path.join(tmp, "a"))
        again = workloads.WORKLOADS[name](seed, size, os.path.join(tmp, "b"))
        digest_a = inputs.digest(wl.input_files())
        if digest_a != inputs.digest(again.input_files()):
            correct = False
            tally.messages.append("inputs differ between two generations from one seed")
        shutil.rmtree(again.dir)
        del again
        lines.append(f"inputs sha256 {digest_a}")

        # bytecode caches exist for an installed package; write them up front
        compileall.compile_dir(SRC, quiet=1)
        imports, setups = [], []
        for _ in range(size["setup_reps"]):
            t_import, t_setup, fails = fresh_setup(wl)
            tally.add("setup", fails)
            imports.append(t_import)
            setups.append(t_setup)

        metrics = {}
        if not trace:
            walls = []
            for i in range(size["cli_reps"]):
                wall, fails = fresh_cli(wl, os.path.join(wl.dir, "cli-out.csv"))
                tally.add(f"cli#{i}", fails)
                walls.append(wall)

            wl.load()
            for unit in wl.warmup:
                tally.add(unit.label, wl.run(unit).failures)
            results, n_rounds = measure(wl, tally, seconds=seconds)
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ms = [res.seconds * 1e3 for _, res, _ in results]
            items = sum(u.items for u, _, _ in results)
            total = sum(res.seconds for _, res, _ in results)
            values = {
                "setup_s": statistics.median(setups),
                "items_per_ref": items / _probe_time(results),
                "peak_rss_mb": peak_rss,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
            item_name, item_unit = wl.item_name
            tail_p, tail_ms = tail(ms)
            lines += [
                f"  setup_s          {values['setup_s']:.4f} s   (median of {len(setups)} fresh interpreters)",
                f"  items_per_ref    {values['items_per_ref']:.4f} items/ref   ({item_unit.split('/')[0]} per probe time; probe mean "
                f"{statistics.fmean(ref for *_, ref in results) * 1e3:.3f} ms)",
                f"  peak_rss_mb      {values['peak_rss_mb']:.2f} MB",
                "  not gated:",
                f"  {item_name:16s} {items / total:.2f} {item_unit}   ({items} items in {total:.2f} s)",
                f"  cli_wall_s       {statistics.median(walls):.4f} s   (median of {len(walls)} superlimb-sim {wl.cli('')[0]} processes)",
                f"  unit_ms_p50      {statistics.median(ms):.3f} ms   (n={len(ms)} units, {n_rounds} rounds)",
                "  unit_ms_tail     " + (f"{tail_ms:.3f} ms   ({tail_p}, n={len(ms)})" if tail_ms is not None
                                         else f"n/a   (n={len(ms)}: fewer than 20 units)"),
            ]
        else:
            metrics, traced_ok, traced_lines = traced_run(
                name, wl, tally, seconds, imports, setups)
            correct = correct and traced_ok
            lines += traced_lines

        fail_ratio = tally.failed / max(tally.attempted, 1)
        lines.append(f"  fail_ratio       {fail_ratio:g} 1   ({tally.failed} of {tally.attempted} attempted)")
        lines += [f"  FAIL {m}" for m in tally.messages[:20]]
        result = {
            "correct": bool(correct and tally.failed == 0),
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }
        return result, lines
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def traced_run(name, wl, tally, seconds, imports, setups):
    """Untraced pass, then a traced pass over exactly the same units."""
    import tracer as tracing

    wl.load()
    for unit in wl.warmup:
        tally.add(unit.label, wl.run(unit).failures)
    plain, n_rounds = measure(wl, tally, seconds=seconds / 2.0)

    tr = tracing.Tracer()
    marks = [0]
    per_round = []

    def on_round():
        per_round.append(dict(tr.counts(marks[-1], tr.mark()),
                              **{k: c[0] for k, c in tr.counters.items()}))
        marks.append(tr.mark())

    with tracing.installed(tr):
        traced, _ = measure(wl, tally, rounds=n_rounds, on_round=on_round)
    # counters are cumulative: turn them into per-round increments
    for key in tr.counters:
        prev = 0
        for row in per_round:
            row[key], prev = row[key] - prev, row[key]

    correct, lines = True, []
    mismatched = [u.label for (u, a, _), (_, b, _) in zip(plain, traced)
                  if a.sha256 != b.sha256]
    if mismatched:
        correct = False
        lines.append(f"  FAIL traced output differs from untraced: {mismatched[:5]}")
    # every round runs the same mix of work, so call counts must repeat exactly
    if any(row != per_round[0] for row in per_round):
        correct = False
        lines.append("  FAIL call counts differ between rounds")

    totals = tr.totals()
    units = len(traced)
    steps = sum(u.items for u, _, _ in traced) if name in ("sweep_study", "inverse_hold") else 0
    values = {}
    for span in STEP_SPANS:
        calls, own = totals.get(span, (0, 0.0))
        values[f"{span}.calls_per_step"] = calls / steps if steps else 0.0
        values[f"{span}.self_us_per_step"] = own * 1e6 / steps if steps else 0.0
    values["plant.n_dof.calls_per_step"] = (
        tr.counters[tracing.N_DOF][0] / steps if steps else 0.0
    )
    values["harness.to_csv.bytes_per_unit"] = (
        sum(r.out_bytes for _, r, _ in traced) / units if steps else 0.0
    )
    for span in UNIT_SPANS:
        calls, own = totals.get(span, (0, 0.0))
        values[f"{span}.calls_per_unit"] = calls / units
        values[f"{span}.self_ms_per_unit"] = own * 1e3 / units
    act_s = totals.get("emg.activation_series", (0, 0.0))[1]
    samples = tr.counters.get("emg.activation_series.samples", [0])[0]
    values["emg.activation_series.samples_per_s"] = samples / act_s if act_s else 0.0
    values["stability.fd_eval.calls_per_unit"] = (
        tr.counters.get("stability.fd_eval", [0])[0] / units
    )
    values["setup.import_ms"] = statistics.median(imports) * 1e3
    values["setup.load_ms"] = statistics.median(
        [s - i for s, i in zip(setups, imports)]) * 1e3
    # same units in both passes; each pass in units of its own probe time
    values["trace.overhead_ratio"] = _probe_time(traced) / _probe_time(plain)

    tr.save(os.path.join(OUT_DIR, f"spans-{name}.npz"))
    metrics = {n: {"value": values[n], "unit": u} for n, u, _ in per_layer_names()}
    lines.append(f"  traced {units} units in {n_rounds} rounds, {steps} sim steps, "
                 f"{len(tr.name_id)} spans")
    for n, u, _ in per_layer_names():
        if values[n]:
            lines.append(f"  {n:48s} {values[n]:.6g} {u}")
    return metrics, correct, lines


def main(argv=None) -> int:
    import inputs

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(inputs.SIZES), default="full",
                        help="input size preset (smoke: tiny inputs for self-tests)")
    args = parser.parse_args(argv)

    if args.workload != "all":
        result, lines = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), args.size)
        print("\n".join(lines))
        print(json.dumps(result))
        return 0

    # every workload in its own process, so peak_rss_mb is per workload
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in inputs.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def _check_checkout() -> str | None:
    if not os.path.isfile(os.path.join(SRC, "superlimb", "__init__.py")):
        return f"no superlimb sources under {SRC}: run from a source checkout"
    return None


if __name__ == "__main__":
    problem = _check_checkout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.exit(main())
