"""Each demo script runs to completion in a fresh interpreter.

The demos call the public API the way a reader would, so a change to that
API or to the numbers behind it breaks them, and they import no scipy.  They
run in a temporary directory because some write files next to themselves.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from conftest import imported_modules

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"05_monte_carlo_study.py"}


def test_demos_found():
    # an empty glob would leave the parametrized test below with no cases
    names = {p.name for p in DEMOS}
    assert names and SLOW <= names


@pytest.mark.parametrize("script", [
    pytest.param(p, id=p.name, marks=[pytest.mark.slow] if p.name in SLOW else [])
    for p in DEMOS
])
def test_demo_runs(script, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    # -X importtime lists every imported module on stderr: a demo needs
    # numpy alone, the package's one run-time dependency
    proc = subprocess.run([sys.executable, "-X", "importtime", str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    imported = imported_modules(proc.stderr)
    assert "snowlink" in imported
    assert not [name for name in imported if name.partition(".")[0] == "scipy"]
