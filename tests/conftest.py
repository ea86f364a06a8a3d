"""Shared fixtures: the two reference plants used across the test suite."""

import math
import os

import numpy as np
import pytest

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
