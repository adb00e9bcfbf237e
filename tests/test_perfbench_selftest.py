"""The benchmark's self-test: every workload at a tiny size, timed and
traced.  It fails when a layer entry point the tracer binds by name is
renamed or moved, or when an instance no longer verifies."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
