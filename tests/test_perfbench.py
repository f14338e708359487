"""Smoke run of the benchmark: its oracles must accept every op."""

import json
import subprocess
import sys

import pytest

from conftest import REPO


@pytest.mark.parametrize("workload", ["triangle_pipeline", "wide_mc", "exact_band"])
def test_pass_is_correct(workload):
    # every op is checked by an oracle: wide_mc ends with the Metropolis estimate
    # against the exact curve, exact_band balances the torus loop equations
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
