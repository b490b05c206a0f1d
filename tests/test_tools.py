"""The command-line tools under ``tools/`` refuse input they cannot use with
a message, not a traceback."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_ab_time_refuses_a_package_directory_for_a_source_tree():
    # the package directory in place of the 'src' directory that holds it
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_time.py"), str(ROOT / "src" / "snowlink"),
         str(ROOT / "src"), "--rounds", "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "give the 'src' directory" in proc.stderr
    assert "Traceback" not in proc.stderr
