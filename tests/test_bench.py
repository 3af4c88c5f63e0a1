"""The benchmark's tiny-config self-test passes from a source checkout.

It also counts the closed-form-free decomposition checks whose residual
exceeds 1e-12; with an exact numeric inverse gradient that count is 0, and a
regression of the inverse shows here.

bench/spans.py wraps src/ names by string; a traced oracle run and a traced
reproduce run check that the counters of the wrapped names still move.
"""

import json
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


def _traced_metrics(workload: str) -> dict:
    """Metrics of one traced operation of workload, which must be correct."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    return result["metrics"]


# Counters of bench/spans.py that a traced oracle_battery run must move; a
# renamed or bypassed src/ name leaves its counter at 0 while the run stays correct.
ORACLE_COUNTERS = [
    "generators.newton_points.negentropy",
    "generators.newton_points.neglog",
    "generators.invert_points",
    "generators.gradient_points",
    "estimators.estimate_rows",
    "discrete_oracle.outcomes",
    "discrete_oracle.expectations",
]

# The same for mc_reproduce_exp, whose unbiasedness checks and paired
# comparison run through risk_lab and whose report goes through reporting.
REPRODUCE_COUNTERS = [
    "estimators.estimate_rows",
    "generators.gradient_points",
    "reporting.bytes",
]


def test_traced_oracle_battery_moves_every_span_counter():
    metrics = _traced_metrics("oracle_battery")
    assert [name for name in ORACLE_COUNTERS if not metrics[name]["value"] > 0] == []


def test_traced_reproduce_moves_every_span_counter():
    metrics = _traced_metrics("mc_reproduce_exp")
    assert [name for name in REPRODUCE_COUNTERS if not metrics[name]["value"] > 0] == []
