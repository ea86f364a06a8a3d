"""SciPy is imported only by the calls that use it: ``emg.bandpass``
(``scipy.signal``) and ``stability.stabilizing_servo_stiffness``
(``scipy.linalg``).  Each case runs in a fresh interpreter, since this
suite's own process has long since loaded SciPy."""

import os
import subprocess
import sys

from conftest import SCENARIO_DIR, scenario_path

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

# argv[1] is an output directory, argv[2:] one CLI call that may load SciPy;
# the SciPy modules loaded in the end go to scipy.txt in that directory
CHILD = """\
import glob, os, pkgutil, sys

import superlimb
from superlimb import cli, scenario


def scipy_modules():
    return sorted(k for k in sys.modules if k.startswith("scipy"))


out, call = sys.argv[1], sys.argv[2:]
for info in pkgutil.iter_modules(superlimb.__path__):
    __import__("superlimb." + info.name)
for path in sorted(glob.glob(os.path.join({scenarios!r}, "*.json"))):
    name = os.path.basename(path)
    if name.startswith("posture_"):
        scenario.load_posture(path)
    elif name.startswith("emg_profile_"):
        scenario.load_profile(path)
    else:
        scenario.load_scenario(path)
for name in ("overhead_sweep", "static_hold", "overhead_inverse"):
    path = os.path.join({scenarios!r}, name + ".json")
    assert cli.main(["run", "--config", path, "--out", os.path.join(out, name + ".csv")]) == 0
for name in ("posture_hanging", "posture_inverted"):
    path = os.path.join({scenarios!r}, name + ".json")
    assert cli.main(["analyze-stability", "--config", path]) == 0
assert not scipy_modules(), scipy_modules()[:3]
if call:
    assert cli.main(call) == 0
with open(os.path.join(out, "scipy.txt"), "w") as fh:
    fh.write(" ".join(scipy_modules()))
"""


def run_child(out_dir, call=()):
    """The SciPy modules loaded after the SciPy-free work of ``CHILD`` and
    then ``call``, in a fresh interpreter."""
    code = CHILD.format(scenarios=os.path.abspath(SCENARIO_DIR))
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, str(out_dir), *call], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return (out_dir / "scipy.txt").read_text().split()


def test_no_scipy_without_filtering_or_servo_rescue(tmp_path):
    assert run_child(tmp_path) == []


def test_filtering_loads_scipy_signal(tmp_path, trace_csv):
    # the rule above must not hold only because nothing is ever filtered
    loaded = run_child(tmp_path, ["emg-pipeline", "--in", trace_csv,
                                  "--out", str(tmp_path / "pipeline.csv")])
    assert "scipy.signal" in loaded


def test_servo_rescue_loads_scipy_linalg(tmp_path):
    loaded = run_child(tmp_path, ["analyze-stability", "--config",
                                  scenario_path("posture_inverted.json"),
                                  "--servo-margin", "1.0"])
    assert "scipy.linalg" in loaded
    assert "scipy.signal" not in loaded
