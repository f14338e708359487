"""The study scripts in scripts/ run end to end and write what they promise."""

import json
import runpy
import sys

import pytest

from conftest import REPO


def script_main(name: str):
    return runpy.run_path(str(REPO / "scripts" / name))["main"]


def test_triangle_pipeline_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert script_main("run_triangle_pipeline.py")() == 0
    out = tmp_path / "out" / "triangle"
    assert "artifacts in out/triangle/" in capsys.readouterr().out

    scan = (out / "feasibility.csv").read_text().splitlines()
    assert scan[0] == "x,y,max_feasible_order,first_failing_order"
    assert len(scan) == 1 + 150 * 150
    svg = (out / "feasibility.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert len((out / "exact_curve.csv").read_text().splitlines()) == 1 + 301

    summary = json.loads((out / "summary.json").read_text())
    assert summary["dim"] == 4 and summary["coupling"] == 0.2
    counts = [summary["feasible_cells"][str(k)] for k in range(2, 8)]
    assert all(a >= b for a, b in zip(counts, counts[1:])) and counts[-1] > 0
    pull = summary["mc_first_moment"] - summary["exact_first_moment"]
    assert abs(pull) <= 4 * summary["mc_stderr"]
    assert summary["residual"] <= 5 * summary["residual_stderr"]


def test_compare_mc_exact_table(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["compare_mc_exact.py", "2", "500"])
    assert script_main("compare_mc_exact.py")() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "N=2, 500 reweighted samples per coupling"
    rows = [line.split() for line in lines[2:]]
    assert [float(r[0]) for r in rows] == [-0.4, -0.2, -0.1, 0.1, 0.2, 0.4]
    for x, mc, stderr, exact, pull, ess in rows:
        assert float(stderr) > 0 and 0 < float(ess) <= 500
        assert float(pull) == pytest.approx((float(mc) - float(exact)) / float(stderr), abs=0.05)
        assert abs(float(pull)) <= 4
