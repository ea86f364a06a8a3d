"""The four benchmark workloads.

A workload generates its inputs into a directory, pre-loads them, and
runs one unit of work at a time (closed loop, one client).  Units come in
rounds; a round holds the same mix of work whatever the seed, and
measuring always stops at a round boundary, so runs with different seeds
and lengths measure the same mix.

Why these four:

* sweep_study - seeded variations of the three forward-mode templates, one
  short run (1-1.5 simulated seconds) per unit: how users produce
  stiffness and hysteresis curves.  Every forward-step layer (plant, controller rebuild, friction,
  the Cholesky contact solve in `_advance`, mount force, log) runs on every
  step, and many medium-length runs expose per-run overhead.
* inverse_hold - the inverse-dynamics template over 4 simulated seconds.
  Same plant and controller per step, but `decouple` (QR +
  dyn_consistent_pinv) replaces `_advance`: a contact-solve optimisation
  reads zero here and a `decouple` one shows only here.
* emg_replay - the sEMG pipeline on 10-second synthesized recordings
  (1-4 channels at 1-2 kHz) plus a shank-yaw stream that crosses the gate
  threshold.  No plant at all: the cost is the per-sample Python loops and
  CSV parsing and formatting.
* stability_grid - all five named postures over a seeded grid of mass, k,
  r, gamma and servo margin.  The only workload that reaches the
  finite-difference certificate and the servo bisection; its cost is
  closure evaluations, not linear algebra.
"""

from __future__ import annotations

import hashlib
import os
import time
import warnings
from dataclasses import dataclass, field

import checks
import inputs

from superlimb import emg, harness, scenario, stability


@dataclass
class Unit:
    label: str
    kind: str                       # template, EMG slot or posture
    files: dict[str, str]
    items: int                      # sim steps, EMG rows or 1 certificate
    spec: dict = field(default_factory=dict)


@dataclass
class UnitResult:
    seconds: float
    sha256: str
    failures: list[str]
    out_bytes: int = 0


def _output(path: str) -> tuple[str, int]:
    """(SHA-256, size) of an output file."""
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), len(data)


class Workload:
    """Inputs and unit runner of one workload."""

    #: (name printed for items_per_s, unit of one item)
    item_name = ("items_per_s", "items/s")

    def __init__(self, seed: int, size: dict, workdir: str):
        self.seed = seed
        self.size = size
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.rounds: list[list[Unit]] = []
        self.warmup: list[Unit] = []
        self.out = os.path.join(workdir, "unit-out.csv")
        self.generate()

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def input_files(self) -> list[str]:
        return sorted(
            os.path.join(self.dir, f) for f in os.listdir(self.dir) if f != "unit-out.csv"
        )

    # overridden per workload --------------------------------------------------

    def generate(self):
        raise NotImplementedError

    def load(self):
        """Pre-load inputs for the warm phase (not timed)."""

    def run(self, unit: Unit) -> UnitResult:
        raise NotImplementedError

    def setup_child(self) -> str:
        """Code a fresh interpreter runs: import superlimb and the
        workload's loader, then load one input."""
        raise NotImplementedError

    def cli(self, out: str) -> list[str]:
        """superlimb-sim arguments that process one generated input."""
        raise NotImplementedError

    def check_cli(self, out: str, stdout: str) -> list[str]:
        raise NotImplementedError


# --- simulator workloads ---------------------------------------------------------


class _SimWorkload(Workload):
    item_name = ("sim_steps_per_s", "steps/s")

    def add_unit(self, label: str, data: dict, template: str) -> Unit:
        path = self.path(f"{label}.json")
        inputs.write_json(path, data)
        steps = int(round(data["sim"]["duration"] / data["sim"]["dt"]))
        return Unit(label, template, {"config": path}, steps, dict(data, template=template))

    def load(self):
        self.loaded = {
            u.label: scenario.load_scenario(u.files["config"])
            for u in self.warmup + [u for r in self.rounds for u in r]
        }

    def run(self, unit: Unit) -> UnitResult:
        sc = self.loaded[unit.label]
        t0 = time.perf_counter()
        log = harness.run_scenario(sc)
        log.to_csv(self.out)
        seconds = time.perf_counter() - t0
        del log
        sha, size = _output(self.out)
        return UnitResult(seconds, sha, checks.check_sim_log(self.out, unit.spec), size)

    def _cli_unit(self) -> Unit:
        return self.rounds[0][0]

    def setup_child(self) -> str:
        return (
            "from superlimb.scenario import load_scenario\n"
            "T_IMPORT = time.perf_counter()\n"
            f"load_scenario({self._cli_unit().files['config']!r})\n"
        )

    def cli(self, out: str) -> list[str]:
        return ["run", "--config", self._cli_unit().files["config"], "--out", out]

    def check_cli(self, out: str, stdout: str) -> list[str]:
        return checks.check_sim_log(out, self._cli_unit().spec)


class SweepStudy(_SimWorkload):
    TEMPLATES = ("overhead_sweep", "press_friction", "emg_step")

    def generate(self):
        scale = self.size["time_scale"]
        for r in range(self.size["sweep_rounds"]):
            rng = inputs.rng_for(self.seed, "sweep_study", r)
            self.rounds.append([
                self.add_unit(f"sweep-r{r}-{name}",
                              inputs.sweep_variant(name, rng, scale), name)
                for name in self.TEMPLATES
            ])
        rng = inputs.rng_for(self.seed, "sweep_study", inputs.WARMUP_ROUND)
        for name in self.TEMPLATES:
            short = 0.25 / inputs.SIM_SECONDS[name]
            self.warmup.append(
                self.add_unit(f"warm-{name}", inputs.sweep_variant(name, rng, short), name)
            )


class InverseHold(_SimWorkload):
    def generate(self):
        scale = self.size["inverse_scale"]
        for r in range(self.size["inverse_units"]):
            rng = inputs.rng_for(self.seed, "inverse_hold", r)
            self.rounds.append([self.add_unit(
                f"inverse-r{r}", inputs.inverse_variant(rng, scale), "overhead_inverse")])
        rng = inputs.rng_for(self.seed, "inverse_hold", inputs.WARMUP_ROUND)
        short = 0.25 / inputs.SIM_SECONDS["overhead_inverse"]
        self.warmup.append(self.add_unit(
            "warm-inverse", inputs.inverse_variant(rng, short), "overhead_inverse"))


# --- sEMG replay -------------------------------------------------------------------


#: pipeline settings: the superlimb-sim emg-pipeline defaults
HILL_F_MAX = 300.0
GATE = {"gate_threshold": 0.3, "gate_hysteresis": 0.05, "gain": 1e-4}


class EmgReplay(Workload):
    item_name = ("emg_samples_per_s", "rows/s")

    def _recording(self, label: str, rng, channels: int, fs: float, seconds: float) -> Unit:
        t, samples = inputs.emg_recording(rng, channels, fs, seconds)
        trace = self.path(f"{label}.csv")
        inputs.write_csv(trace, "t," + ",".join(f"ch{i + 1}" for i in range(channels)),
                         [t, *samples], ["%.6f"] + ["%.6g"] * channels)
        ty, yaw = inputs.yaw_stream(rng, seconds)
        motion = self.path(f"{label}-yaw.csv")
        inputs.write_csv(motion, "t,yaw_rad", [ty, yaw], ["%.2f", "%.6f"])
        # the checks compare against the values the program parses
        _, data = checks.read_csv(trace)
        return Unit(label, f"{channels}ch@{fs:g}Hz", {"trace": trace, "motion": motion}, t.size,
                    {"t": data[:, 0], "channels": data[:, 1:].T.copy()})

    def generate(self):
        seconds = self.size["emg_seconds"]
        rng = inputs.rng_for(self.seed, "emg_replay", 0)
        self.rounds.append([
            self._recording(f"emg-{i}", rng, ch, fs, seconds)
            for i, (ch, fs) in enumerate(inputs.EMG_SLOTS)
        ])
        rng = inputs.rng_for(self.seed, "emg_replay", inputs.WARMUP_ROUND)
        self.warmup.append(self._recording("warm-emg", rng, 2, 2000.0, 2.0))

    def run(self, unit: Unit) -> UnitResult:
        t0 = time.perf_counter()
        trace = emg.load_trace_csv(unit.files["trace"])
        motion = emg.load_motion_csv(unit.files["motion"])
        result = emg.run_pipeline(
            trace, emg.HillParams(f_max=HILL_F_MAX, mvc_reference=1.0),
            motion=motion, band=(20.0, 450.0), window=0.1, **GATE,
        )
        emg.write_pipeline_csv(self.out, result)
        seconds = time.perf_counter() - t0
        del trace, motion, result
        fails = checks.check_pipeline(self.out, unit.spec["t"], unit.spec["channels"])
        sha, size = _output(self.out)
        return UnitResult(seconds, sha, fails, size)

    def setup_child(self) -> str:
        files = self.rounds[0][0].files
        return (
            "from superlimb.emg import load_motion_csv, load_trace_csv\n"
            "T_IMPORT = time.perf_counter()\n"
            f"load_trace_csv({files['trace']!r})\n"
            f"load_motion_csv({files['motion']!r})\n"
        )

    def _cli_unit(self) -> Unit:
        return self.rounds[0][1]

    def cli(self, out: str) -> list[str]:
        files = self._cli_unit().files
        return ["emg-pipeline", "--in", files["trace"], "--motion", files["motion"],
                "--out", out]

    def check_cli(self, out: str, stdout: str) -> list[str]:
        spec = self._cli_unit().spec
        return checks.check_pipeline(out, spec["t"], spec["channels"])


# --- stability grid ----------------------------------------------------------------


class StabilityGrid(Workload):
    item_name = ("certs_per_s", "postures/s")

    def generate(self):
        for r in range(self.size["stability_rounds"]):
            rng = inputs.rng_for(self.seed, "stability_grid", r)
            units = []
            for name in inputs.POSTURES:
                point = inputs.posture_variant(name, rng)
                path = self.path(f"posture-r{r}-{name}.json")
                inputs.write_json(path, {"stability": point["stability"]})
                units.append(Unit(f"posture-r{r}-{name}", name, {"config": path}, 1, point))
            self.rounds.append(units)
        self.warmup = list(self.rounds[0])

    def load(self):
        warnings.simplefilter("ignore", stability.DiagnosticMismatch)
        self.loaded = {
            u.label: scenario.load_posture(u.files["config"])[0]
            for r in self.rounds for u in r
        }

    def run(self, unit: Unit) -> UnitResult:
        posture = self.loaded[unit.label]
        margin = unit.spec["servo_margin"]
        t0 = time.perf_counter()
        report = stability.stiffness_matrix_kp(posture)
        alpha = stability.stabilizing_servo_stiffness(posture, margin=margin)
        seconds = time.perf_counter() - t0
        record = [list(map(float, report.eigenvalues)), float(report.margin),
                  bool(report.is_stable), bool(report.diagnostic_mismatch), float(alpha)]
        fails = checks.check_certificate(
            unit.spec["stability"], margin, report.eigenvalues, report.is_stable,
            report.margin, report.diagnostic_mismatch, alpha,
        )
        return UnitResult(seconds, hashlib.sha256(repr(record).encode()).hexdigest(), fails)

    def _cli_unit(self) -> Unit:
        return self.rounds[0][inputs.POSTURES.index("inverted_panel")]

    def setup_child(self) -> str:
        return (
            "from superlimb.scenario import load_posture\n"
            "T_IMPORT = time.perf_counter()\n"
            f"load_posture({self._cli_unit().files['config']!r})\n"
        )

    def cli(self, out: str) -> list[str]:
        unit = self._cli_unit()
        return ["analyze-stability", "--config", unit.files["config"],
                "--servo-margin", repr(unit.spec["servo_margin"])]

    def check_cli(self, out: str, stdout: str) -> list[str]:
        unit = self._cli_unit()
        kv = checks.parse_stability_stdout(stdout)
        try:
            eigs = [float(kv[f"eig{i}"]) for i in range(6)]
            fails = checks.check_certificate(
                unit.spec["stability"], unit.spec["servo_margin"], eigs,
                kv["is_stable"] == "true", float(kv["margin"]),
                kv["diagnostic_mismatch"] == "true", float(kv["servo_alpha"]),
            )
        except (KeyError, ValueError) as exc:
            return [f"analyze-stability output incomplete: {exc!r}"]
        return fails


WORKLOADS = {
    "sweep_study": SweepStudy,
    "inverse_hold": InverseHold,
    "emg_replay": EmgReplay,
    "stability_grid": StabilityGrid,
}
