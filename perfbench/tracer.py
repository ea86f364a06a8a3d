"""In-process span tracer for the benchmark's traced runs.

Spans are recorded by wrappers that the benchmark installs around calls
into each superlimb module, at the name the caller looks up (a module
global of the calling module, or a class attribute).  The program itself
is not modified, and only the benchmark's own process is traced: no
machine-wide tracing.

Each span stores its name, its parent span and its start and end times in
flat arrays kept in memory; they are written out when the run ends.  A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

#: span name -> install sites (module or class path inside superlimb, attribute)
SITES = {
    "plant.state": [("plant.PlantState", "__init__")],
    "plant.mass_matrix": [("plant.PlantState", "mass_matrix")],
    "plant.bias": [("plant.PlantState", "bias")],
    "plant.gravity_vector": [("plant.PlantState", "gravity_vector")],
    "plant.point": [("plant.PlantState", "point")],
    "harness.advance": [("harness", "_advance")],
    "harness.mount_force": [("harness", "_mount_force")],
    "harness.emg_channel": [("harness", "_emg_channel")],
    "harness.log_append": [("harness.SimLog", "append")],
    "harness.to_csv": [("harness.SimLog", "to_csv")],
    "harness.glue": [("harness", "run_scenario")],
    "stiffness.controller_build": [("stiffness.TaskSpaceController", "__post_init__")],
    "stiffness.control_force": [("harness", "control_force")],
    "stiffness.task_to_joint_torque": [("harness", "task_to_joint_torque")],
    "stiffness.friction_torque": [("harness", "friction_torque")],
    "dynamics.contact_jacobian": [("harness", "contact_jacobian")],
    # run_scenario imports decouple from the module at call time
    "dynamics.decouple": [("dynamics", "decouple")],
    "numerics.qr_full": [("dynamics", "qr_full")],
    "numerics.dyn_consistent_pinv": [("dynamics", "dyn_consistent_pinv")],
    "numerics.psd_check": [("stiffness", "psd_check"), ("stability", "psd_check")],
    "numerics.finite_diff_hessian": [("stability", "finite_diff_hessian")],
    "numerics.finite_diff_jacobian": [("stability", "finite_diff_jacobian")],
    "emg.bandpass": [("emg", "bandpass"), ("harness", "bandpass")],
    "emg.envelope": [("emg", "envelope"), ("harness", "envelope")],
    "emg.activation_series": [("emg", "activation_series")],
    "emg.gate_series": [("emg", "gate_series")],
    "emg.load_trace_csv": [("emg", "load_trace_csv")],
    "emg.load_motion_csv": [("emg", "load_motion_csv")],
    "emg.write_pipeline_csv": [("emg", "write_pipeline_csv")],
    "stability.stiffness_matrix_kp": [("stability", "stiffness_matrix_kp")],
    "stability.stabilizing_servo_stiffness": [("stability", "stabilizing_servo_stiffness")],
    "stability.hessian_ez": [("stability", "hessian_ez")],
    "stability.hessian_qi": [("stability", "hessian_qi")],
    "stability.potential": [("stability", "potential")],
}

#: spans whose first argument is a closure evaluated by finite differences
FD_SPANS = ("numerics.finite_diff_hessian", "numerics.finite_diff_jacobian")
#: spans whose first argument's length is their work size
SIZED_SPANS = ("emg.activation_series",)
#: counted, not timed: PlantModel.n_dof runs tens of thousands of times a run
N_DOF = "plant.n_dof"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, list[int]] = {}

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def counter(self, name: str) -> list[int]:
        return self.counters.setdefault(name, [0])

    def span(self, name: str, fn):
        """Wrap `fn` so every call records one span named `name`."""
        nid = self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def mark(self) -> int:
        """Index of the next span, to delimit a round."""
        return len(self.name_id)

    def counts(self, lo: int, hi: int) -> dict[str, int]:
        ids = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        calls = np.bincount(ids, minlength=len(self.names))
        return {n: int(calls[i]) for i, n in enumerate(self.names)}

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over every recorded span."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=ids.size)
        own = dur - child
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def save(self, path: str):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _resolve(path: str):
    import importlib

    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"superlimb.{module}")
    return getattr(owner, cls) if cls else owner


def _count_evals(fn, cell: list[int]):
    """Pass finite-difference routines a closure that counts evaluations."""

    def wrapper(f, *args, **kwargs):
        def counted(p):
            cell[0] += 1
            return f(p)

        return fn(counted, *args, **kwargs)

    return functools.update_wrapper(wrapper, fn)


def _count_size(fn, cell: list[int]):
    def wrapper(values, *args, **kwargs):
        cell[0] += len(values)
        return fn(values, *args, **kwargs)

    return functools.update_wrapper(wrapper, fn)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore
    the original attributes."""
    saved = []
    try:
        for name, sites in SITES.items():
            for path, attr in sites:
                owner = _resolve(path)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                fn = original
                if name in FD_SPANS:
                    fn = _count_evals(fn, tracer.counter("stability.fd_eval"))
                if name in SIZED_SPANS:
                    fn = _count_size(fn, tracer.counter(f"{name}.samples"))
                setattr(owner, attr, tracer.span(name, fn))
        model = _resolve("plant.PlantModel")
        n_dof = vars(model)["n_dof"]
        saved.append((model, "n_dof", n_dof))
        cell = tracer.counter(N_DOF)

        def counted_n_dof(self):
            cell[0] += 1
            return n_dof.fget(self)

        model.n_dof = property(counted_n_dof)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
