"""The command-line tools under ``tools/`` refuse input they cannot use with
a message, not a traceback, and print the rows they document."""

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


def test_ab_time_pairs_each_replicate_of_a_round():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_time.py"), src, src, "--rounds", "1"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()
            if line.startswith("replicate CPU s (A/B)")]
    assert len(rows) == 1
    q1, median, q3, better = rows[0][4:]
    assert 0.0 < float(q1) <= float(median) <= float(q3)
    # one round of the default workload: one pair per replicate
    assert better.split("/")[1] == "10"
