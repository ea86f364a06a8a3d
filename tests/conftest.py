"""Shared fixtures: the two reference plants used across the test suite,
and a reference finite-difference stencil."""

import math
import os

import numpy as np
import pytest

from superlimb.errors import NonFinite
from superlimb.numerics import _as_array, default_fd_step
from superlimb.plant import Chain, Joint, PlantModel

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def scenario_path(name: str) -> str:
    return os.path.abspath(os.path.join(SCENARIO_DIR, name))


def desk_arm_dict() -> dict:
    """Desk-scale plant: 3-revolute overhead limb + 1-DoF vertical trunk sway."""
    return {
        "gravity": 9.81,
        "chains": [
            {
                "name": "arm", "role": "srl", "base": [0.0, 0.0], "heading": 1.0,
                "joints": [
                    {"kind": "revolute", "mass": 1.5, "length": 0.35,
                     "com": 0.17, "inertia": 0.015, "q0": 0.3},
                    {"kind": "revolute", "mass": 1.0, "length": 0.3,
                     "com": 0.15, "inertia": 0.008, "q0": -0.5},
                    {"kind": "revolute", "mass": 0.6, "length": 0.25,
                     "com": 0.12, "inertia": 0.004, "q0": 0.4},
                ],
            },
            {
                "name": "trunk", "role": "human", "base": [-0.3, 0.0],
                "heading": math.pi / 2.0,
                "joints": [
                    {"kind": "prismatic", "mass": 55.0, "length": 0.0,
                     "com": 0.0, "q0": 0.0},
                ],
            },
        ],
    }


def desk_arm_model() -> PlantModel:
    return PlantModel(
        chains=(
            Chain(
                name="arm", role="srl", base=(0.0, 0.0), heading=1.0,
                joints=(
                    Joint(kind="revolute", mass=1.5, length=0.35, com=0.17,
                          inertia=0.015, q0=0.3),
                    Joint(kind="revolute", mass=1.0, length=0.3, com=0.15,
                          inertia=0.008, q0=-0.5),
                    Joint(kind="revolute", mass=0.6, length=0.25, com=0.12,
                          inertia=0.004, q0=0.4),
                ),
            ),
            Chain(
                name="trunk", role="human", base=(-0.3, 0.0),
                heading=math.pi / 2.0,
                joints=(Joint(kind="prismatic", mass=55.0, length=0.0, com=0.0),),
            ),
        ),
        gravity=9.81,
    )


def reference_fd_jacobian(f, p0) -> np.ndarray:
    """``numerics.finite_diff_jacobian`` as a plain loop that builds each
    offset from zeros: the reference its stencil must match bit for bit."""
    p = _as_array(p0, "p0", 1)
    h = default_fd_step(p)
    f0 = np.atleast_1d(np.asarray(f(p), dtype=float))
    jac = np.zeros((f0.size, p.size))
    for i in range(p.size):
        dp = np.zeros_like(p)
        dp[i] = h[i]
        fp = np.atleast_1d(np.asarray(f(p + dp), dtype=float))
        fm = np.atleast_1d(np.asarray(f(p - dp), dtype=float))
        jac[:, i] = (fp - fm) / (2.0 * h[i])
    if not np.all(np.isfinite(jac)):
        raise NonFinite("map returned NaN/Inf during differentiation")
    return jac


def reference_fd_hessian(f, p0) -> np.ndarray:
    """``numerics.finite_diff_hessian`` as a plain loop that builds each
    offset from zeros: the reference its stencil must match bit for bit."""
    p = _as_array(p0, "p0", 1)
    m = p.size
    h = default_fd_step(p)

    def ev(dp):
        v = float(f(p + dp))
        if not np.isfinite(v):
            raise NonFinite("function returned NaN/Inf during differentiation")
        return v

    hess = np.zeros((m, m))
    f0 = ev(np.zeros_like(p))
    for i in range(m):
        ei = np.zeros_like(p)
        ei[i] = h[i]
        hess[i, i] = (ev(ei) - 2.0 * f0 + ev(-ei)) / (h[i] * h[i])
        for j in range(i + 1, m):
            ej = np.zeros_like(p)
            ej[j] = h[j]
            val = (ev(ei + ej) - ev(ei - ej) - ev(-ei + ej) + ev(-ei - ej)) / (
                4.0 * h[i] * h[j]
            )
            hess[i, j] = val
            hess[j, i] = val
    return hess


@pytest.fixture
def desk_model() -> PlantModel:
    return desk_arm_model()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def trace_csv(tmp_path) -> str:
    """A 0.4 s single-channel 80 Hz sine trace CSV at 1 kHz."""
    t = np.arange(400) / 1000.0
    x = np.sin(2 * np.pi * 80.0 * t)
    path = tmp_path / "trace.csv"
    path.write_text(
        "t,ch1\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), x.tolist()))
    )
    return str(path)
