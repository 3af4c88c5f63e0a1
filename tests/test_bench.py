"""The benchmark's tiny-config self-test passes from a source checkout.

It also counts the closed-form-free decomposition checks whose residual
exceeds 1e-12; with an exact numeric inverse gradient that count is 0, and a
regression of the inverse shows here.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout
    assert "note: 0 of 54 closed-form-free decomposition checks" in proc.stdout
