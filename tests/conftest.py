"""Shared fixtures.

The expensive piece is the full verification battery (every valid
(kind, n <= 24, s, q) instance checked against the brute-force oracle).
It takes about 8 s on two cores (7.4 to 8.2 s over three runs), so it
runs once per session and every test that wants battery-wide evidence
reads the same result object.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wedderburn
from wedderburn.battery import battery_instances, run_battery


@pytest.fixture(scope="session")
def battery_result():
    return run_battery()


@pytest.fixture(scope="session")
def battery_keys():
    return battery_instances()


def under_python_O(code):
    """What the child process `python -O -c code` prints, stripped.
    python -O strips assert statements, so a check meant to hold there
    must raise by itself."""
    src = str(Path(wedderburn.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()
