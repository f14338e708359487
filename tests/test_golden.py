"""Exact-rational CLI outputs, byte for byte, against committed golden files.

The files under ``tests/data/golden/`` are the stdout (or, for a refused
request, the stderr) of ``quivergauge expand`` and ``quivergauge loopeq`` on
the shipped jobs.  These outputs are exact rationals and words, so any change
to them is a change of meaning, not of rounding.
"""

import pytest

from quivergauge.cli import run

from conftest import REPO

GOLDEN = REPO / "tests" / "data" / "golden"
TRIANGLE = str(REPO / "jobs" / "triangle.json")
TWO_SITE = str(REPO / "jobs" / "two_site.json")
TRIANGLE_EQ = ["loopeq", TRIANGLE, "--loop", "e1+ e2+ e3+", "--root", "e1"]
TWO_SITE_EQ = ["loopeq", TWO_SITE, "--loop", "ov+ ov+ e+ ow+ ow+ e-", "--root", "e"]
CASES = {
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
