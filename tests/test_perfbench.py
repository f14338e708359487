"""Smoke run of the benchmark: its oracles must accept every op."""

import json
import subprocess
import sys

from conftest import REPO


def test_wide_mc_pass_is_correct():
    # wide_mc ends with the Metropolis estimate checked against the exact curve
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide_mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
