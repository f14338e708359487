"""Exact CLI outputs, byte for byte, against committed golden files.

The files under ``tests/data/golden/`` are the stdout (or, for a refused
request, the stderr) of ``quivergauge validate``, ``expand`` and ``loopeq``
on the shipped jobs, and the stdout, CSV and moment table of a small
``bootstrap`` scan; for the large CSV and SVG of scans on the default grid,
``bootstrap_triangle_default_grid.sha256`` holds their SHA-256 in
``sha256sum`` format.  ``validate`` prints integers, block layouts and edge
names; ``expand`` and ``loopeq`` print exact rationals and words; the
moment table holds exact integer coefficients, and the scan's CSV holds
orders at grid points that ``numpy.linspace`` fixes.  Any change to them is
a change of meaning, not of rounding.
"""

import hashlib
import json

import pytest

from quivergauge.cli import run

from conftest import REPO

GOLDEN = REPO / "tests" / "data" / "golden"
TRIANGLE = str(REPO / "jobs" / "triangle.json")
TWO_SITE = str(REPO / "jobs" / "two_site.json")
TRIANGLE_EQ = ["loopeq", TRIANGLE, "--loop", "e1+ e2+ e3+", "--root", "e1"]
TWO_SITE_EQ = ["loopeq", TWO_SITE, "--loop", "ov+ ov+ e+ ow+ ow+ e-", "--root", "e"]
CASES = {
    "validate_triangle.txt": ["validate", TRIANGLE],
    "validate_two_site.txt": ["validate", TWO_SITE],
    "validate_builtin_triangle_5.txt": ["validate", "builtin:triangle@5"],
    "expand_triangle.json": ["expand", TRIANGLE],
    "expand_two_site.json": ["expand", TWO_SITE],
    "loopeq_triangle.json": TRIANGLE_EQ,
    "loopeq_triangle_large_n.json": TRIANGLE_EQ + ["--large-n"],
    "loopeq_two_site.json": TWO_SITE_EQ,
}


@pytest.mark.parametrize("golden, argv", CASES.items(), ids=list(CASES))
def test_stdout_matches_golden(capsys, golden, argv):
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / golden).read_bytes()


def test_two_site_large_n_refusal_matches_golden(capsys):
    # the two-site loop mixes two generators, so it has no factorised form
    assert run(TWO_SITE_EQ + ["--large-n"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.encode() == (GOLDEN / "loopeq_two_site_large_n.stderr").read_bytes()


def assert_bootstrap_matches_golden(job, capsys, tmp_path):
    csv, moments = tmp_path / "scan.csv", tmp_path / "moments.json"
    argv = ["bootstrap", job, "--max-order", "7", "--xres", "5", "--yres", "5",
            "--out", str(csv), "--moments", str(moments)]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / "bootstrap_triangle_5x5.txt").read_bytes()
    assert csv.read_bytes() == (GOLDEN / "bootstrap_triangle_5x5.csv").read_bytes()
    assert moments.read_bytes() == (GOLDEN / "bootstrap_triangle_5x5_moments.json").read_bytes()


def test_bootstrap_scan_and_moments_match_golden(capsys, tmp_path):
    assert_bootstrap_matches_golden("builtin:triangle", capsys, tmp_path)


def test_conjugated_loop_matches_triangle_golden(capsys, tmp_path):
    # a pendant edge x: v4 -> v1 conjugates the triangle's loop; the trace sees
    # only its cyclic reduction, so the scan and moments are the triangle's
    job = json.loads((REPO / "jobs" / "triangle.json").read_text())
    job["quiver"]["vertices"].append("v4")
    job["quiver"]["edges"].append({"id": "x", "src": "v4", "dst": "v1"})
    net = job["network"]
    net["l"]["v4"], net["n"]["v4"], net["r"]["v4"], net["C"]["x"] = 1, [4], [1], [[1]]
    job["loops"] = ["x+ e1+ e2+ e3+ x-"]
    path = tmp_path / "pendant.json"
    path.write_text(json.dumps(job))
    assert_bootstrap_matches_golden(str(path), capsys, tmp_path)


def default_grid_digests():
    lines = (GOLDEN / "bootstrap_triangle_default_grid.sha256").read_text().splitlines()
    return dict(reversed(line.split("  ")) for line in lines)


@pytest.mark.parametrize("order", [7, 15, 30])
def test_default_grid_scan_matches_golden_digests(capsys, tmp_path, order):
    # 90,000 cells span many scan slices, so these files cross the slice seams
    csv = tmp_path / f"bootstrap_triangle_order{order}.csv"
    svg = csv.with_suffix(".svg")
    argv = ["bootstrap", "builtin:triangle", "--max-order", str(order),
            "--out", str(csv), "--svg", str(svg)]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
    digests = default_grid_digests()
    for path in (csv, svg):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digests[path.name], path.name
