"""Run a snippet under ``python -O``, which strips assert statements."""

import os
import subprocess
import sys

import qjt


def error_under_O(code: str) -> str:
    """Last stderr line of ``python -O -c code`` with qjt importable; the run
    must fail."""
    src = os.path.dirname(os.path.dirname(qjt.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode != 0, proc.stdout
    return proc.stderr.strip().splitlines()[-1]
