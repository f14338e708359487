"""Smoke run of the benchmark: its oracles must accept every op."""

import json
import subprocess
import sys

import pytest

from conftest import REPO


@pytest.mark.parametrize(
    "workload, trace",
    [("triangle_pipeline", "0"), ("wide_mc", "0"), ("exact_band", "0"), ("exact_band", "1")],
    ids=["triangle_pipeline", "wide_mc", "exact_band", "exact_band-traced"],
)
def test_pass_is_correct(workload, trace):
    # every op is checked by an oracle: wide_mc ends with the Metropolis estimate
    # against the exact curve, exact_band balances the torus loop equations; the
    # traced pass also replays the layers through the package's public calls
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True

