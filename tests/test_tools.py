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


def test_fingerprint_refuses_a_package_directory_for_a_source_tree():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fingerprint.py"), str(ROOT / "src" / "snowlink")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "give the 'src' directory" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_code_lines_refuses_a_directory_that_is_no_package(tmp_path):
    # a mistyped path must not read as a package of 0 code lines
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path / "missing")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "give a package directory" in proc.stderr
    assert "total" not in proc.stdout
