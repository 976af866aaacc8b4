"""The benchmark's own self-test, run as part of the suite: a library change
that breaks the harness, or changes a pinned output, fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_test_passes():
    # tiny seeded case lists of every workload, their fingerprints checked
    # against perfbench/pins.json
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
