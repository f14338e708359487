import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quivergauge import bootstrap as bs
from quivergauge.cli import RHAT_LIMIT, run
from quivergauge.quiver import CyclicWord, EdgeWord

from conftest import REPO

TRIANGLE = str(REPO / "jobs" / "triangle.json")
TWO_SITE = str(REPO / "jobs" / "two_site.json")
SOURCE_ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}


def single_block_job(vertices, edges):
    """The quiver and U(2)-per-vertex network sections of a job file."""
    return {
        "quiver": {"vertices": vertices,
                   "edges": [{"id": e, "src": s, "dst": d} for e, s, d in edges]},
        "network": {"l": {v: 1 for v in vertices}, "n": {v: [2] for v in vertices},
                    "r": {v: [1] for v in vertices}, "C": {e: [[1]] for e, _, _ in edges}},
    }


ONE_SITE = single_block_job(["v"], [("o", "v", "v")])
TWO_CYCLE = single_block_job(["v", "w"], [("a", "v", "w"), ("b", "w", "v")])


class TestValidate:
    def test_two_site(self, capsys):
        assert run(["validate", TWO_SITE]) == 0
        out = capsys.readouterr().out
        assert "N=16" in out
        assert "U(3) (mult 4) x U(2) (mult 2)" in out
        assert "U(8) (mult 2)" in out
        assert "gauge-fixed edges: e (1 of 3)\n" in out

    def test_builtin(self, capsys):
        assert run(["validate", "builtin:triangle"]) == 0
        out = capsys.readouterr().out
        assert "N=4" in out
        assert "gauge-fixed edges: e1 e2 (2 of 3)\n" in out

    @pytest.mark.parametrize("n", ["x", "", "0"], ids=["letter", "empty", "zero"])
    def test_bad_builtin_dimension_is_domain_error(self, capsys, n):
        assert run(["validate", f"builtin:triangle@{n}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: builtin:triangle@N needs N a positive integer, got {n!r}\n"

    def test_malformed_job_is_domain_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{")
        assert run(["validate", str(p)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_loops_of_wrong_type_is_domain_error(self, tmp_path, capsys):
        data = json.loads(Path(TRIANGLE).read_text())
        data["loops"] = [5]
        p = tmp_path / "job.json"
        p.write_text(json.dumps(data))
        assert run(["validate", str(p)]) == 1
        assert capsys.readouterr().err == "error: loops[0] must be a string, got int\n"

    @pytest.mark.parametrize("eid", ["", "e 1"], ids=["empty", "whitespace"])
    def test_edge_id_no_word_can_name_is_domain_error(self, tmp_path, capsys, eid):
        # expand would print words such as '+ e2+ e3+' or 'e 1+ e2+ e3+', which do not parse
        p = tmp_path / "job.json"
        p.write_text(json.dumps({
            **single_block_job(["v1", "v2", "v3"],
                               [(eid, "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v1")]),
            "action": {"f": [0, 0, 0, "1/15"]},
        }))
        assert run(["validate", str(p)]) == 1
        assert capsys.readouterr().err == (
            f"error: edge id {eid!r} is empty or holds whitespace: no word can name it\n"
        )

    def test_quiver_without_vertices_is_domain_error(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({
            "quiver": {"vertices": [], "edges": []},
            "network": {"l": {}, "n": {}, "r": {}, "C": {}},
            "action": {"f": [0, 0, 0, "1/15"]},
        }))
        proc = subprocess.run(
            [sys.executable, "-m", "quivergauge", "validate", str(p)],
            capture_output=True, text=True, env=SOURCE_ENV,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: quiver has no vertices\n"


class TestExpand:
    def test_two_site_table(self, tmp_path):
        out = tmp_path / "table.json"
        assert run(["expand", TWO_SITE, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        entries = {e["word"]: e["coeff"] for e in data["entries"]}
        assert entries["e+ ow+ e- ov+"] == "4"  # canonical rotation of ov+ e+ ow+ e-
        assert entries["ov+ ov+ ov+ ov+"] == "1"
        assert data["constant_coeff"] == "30"

    @pytest.mark.parametrize("job", [TRIANGLE, TWO_SITE], ids=["triangle", "two_site"])
    def test_words_parse_back_to_their_class(self, tmp_path, job):
        out = tmp_path / "table.json"
        assert run(["expand", job, "--out", str(out)]) == 0
        words = [entry["word"] for entry in json.loads(out.read_text())["entries"]]
        assert words
        for word in words:
            assert str(CyclicWord.of(EdgeWord.from_string(word).steps)) == word

    def test_zero_denominator_is_domain_error(self, tmp_path, capsys):
        data = json.loads(Path(TRIANGLE).read_text())
        data["action"]["f"] = [0, 0, 0, "1/0"]
        p = tmp_path / "job.json"
        p.write_text(json.dumps(data))
        assert run(["expand", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad action coefficient: zero denominator in '1/0'\n"


class TestLoopeq:
    def test_finite_mode(self, tmp_path):
        out = tmp_path / "eq.json"
        code = run(
            ["loopeq", TRIANGLE, "--loop", "e1+ e2+ e3+", "--root", "e1", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["mode"] == "finite"
        assert data["lhs"] == [
            {"coefficient": 1, "words": ["<const>", "e1+ e2+ e3+"]}
        ]
        coeffs = {(e["plaquette"], e["word"]): e["coefficient"] for e in data["rhs"]}
        assert coeffs[("e1+ e2+ e3+", "e1+ e2+ e3+ e1+ e2+ e3+")] == "1/5"
        assert coeffs[("e1- e3- e2-", "<const>")] == "-1/5"

    def test_large_n_factorization(self, tmp_path):
        out = tmp_path / "eq.json"
        code = run(
            ["loopeq", TRIANGLE, "--loop", "e1+ e2+ e3+ e1+ e2+ e3+",
             "--root", "e1", "--large-n", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        fact = data["factorized"]
        assert fact["generator"] == "e1+ e2+ e3+"
        assert sorted((t["i"], t["j"]) for t in fact["lhs"]) == [(0, 2), (1, 1)]
        assert sorted(t["k"] for t in fact["rhs"]) == [1, 3]

    def test_self_loop_root_is_domain_error(self, capsys):
        assert run(["loopeq", TWO_SITE, "--loop", "ov+", "--root", "ov"]) == 1
        assert "self-loop" in capsys.readouterr().err

    def test_unknown_root_is_domain_error(self, capsys):
        assert run(["loopeq", "builtin:triangle", "--loop", "e1+ e2+ e3+", "--root", "nope"]) == 1
        assert capsys.readouterr().err == "error: unknown edge 'nope'\n"


class TestBootstrap:
    def test_small_scan(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        svg = tmp_path / "scan.svg"
        code = run(
            ["bootstrap", "builtin:triangle", "--max-order", "2",
             "--xres", "12", "--yres", "13", "--out", str(out), "--svg", str(svg)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,max_feasible_order,first_failing_order"
        assert len(lines) == 1 + 12 * 13
        # order-2 feasibility is exactly the |y| <= 1 stripe
        for line in lines[1:]:
            x, y, mo, ff = line.split(",")
            assert (int(mo) >= 2) == (abs(float(y)) <= 1.0)
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize(
        "base, edit, message",
        [
            # the two-site loop equations do not close on one moment sequence
            (TWO_SITE, {}, "not a power of the common generator"),
            (TRIANGLE, {"loops": []}, "needs a job with a loop"),
            # a coupling on the doubled triangle adds the plaquette beta**2, so the
            # equation for beta fixes m_3, not m_2
            (TRIANGLE, {"action": {"f": [0, 0, 0, "1/15", 0, 0, "1/10"]}},
             "has highest moment m_3 where m_2 is expected"),
            # one vertex with a self-loop: nothing to root the equations at
            (TRIANGLE, {**ONE_SITE, "loops": ["o+"]}, "loop o+ has no non-self-loop edge"),
            # the loop is the square of a 2-cycle, so m_2 appears as m_1 m_1
            (TRIANGLE, {**TWO_CYCLE, "action": {"f": [0, 0, 0, 1]},
                        "loops": ["a+ b+ a+ b+"]}, "has m_2 on its double-trace side"),
        ],
        ids=["two_site", "no_loop", "sextic_triangle", "self_loop_only", "squared_loop"],
    )
    def test_job_off_the_recursion_is_domain_error(self, tmp_path, capsys, base, edit, message):
        job = tmp_path / "job.json"
        with open(base) as fh:
            job.write_text(json.dumps({**json.load(fh), **edit}))
        out = tmp_path / "scan.csv"
        # at x = 0 every cell is undefined and none is folded, yet the job is refused
        for window in ([], ["--xmin", "0", "--xmax", "0"]):
            code = run(
                ["bootstrap", str(job), "--max-order", "3", "--xres", "5", "--yres", "5",
                 *window, "--out", str(out)]
            )
            assert code == 1
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_job_scan_folds_its_own_equations(self, tmp_path, monkeypatch):
        # the library's triangle scan and moment table, then every CLI run with
        # the triangle's memoised equations out of reach
        xs, ys = np.linspace(-3, 3, 9), np.linspace(-1.2, 1.2, 11)
        want = tmp_path / "want.csv"
        bs.scan_region(xs, ys, 9).to_csv(str(want))
        table = bs.dump_moment_table(bs._TRIANGLE, 8)

        def unreachable(n):
            raise AssertionError("the scan folded the triangle's equations")

        monkeypatch.setattr(bs, "_TRIANGLE", unreachable)
        with open(TRIANGLE) as fh:
            triangle = json.load(fh)
        reversed_loop = tmp_path / "reversed.json"
        reversed_loop.write_text(json.dumps({**triangle, "loops": ["e3- e2- e1-"]}))
        grid = ["--max-order", "9", "--xres", "9", "--yres", "11"]
        for job in (TRIANGLE, str(reversed_loop)):
            got, moments = tmp_path / "got.csv", tmp_path / "moments.json"
            assert run(["bootstrap", job, *grid, "--out", str(got), "--moments", str(moments)]) == 0
            assert got.read_bytes() == want.read_bytes()
            assert json.loads(moments.read_text()) == table

    def test_triangle_job_matches_builtin(self, tmp_path):
        # the reversed loop gives the triangle's equations negated, at negative indices
        with open(TRIANGLE) as fh:
            triangle = json.load(fh)
        reversed_loop = tmp_path / "reversed.json"
        reversed_loop.write_text(json.dumps({**triangle, "loops": ["e3- e2- e1-"]}))
        # other vertex and edge names, the edges declared in another order
        relabelled = tmp_path / "relabelled.json"
        relabelled.write_text(json.dumps({
            **single_block_job(["a", "b", "c"], [("r", "c", "a"), ("p", "a", "b"), ("q", "b", "c")]),
            "action": triangle["action"],
            "loops": ["q+ r+ p+"],
        }))
        # a 4-cycle with only a quartic coupling has the triangle's loop equations
        square = tmp_path / "square.json"
        verts = ["v1", "v2", "v3", "v4"]
        edges = [
            {"id": f"e{k + 1}", "src": verts[k], "dst": verts[(k + 1) % 4]} for k in range(4)
        ]
        square.write_text(json.dumps({
            "quiver": {"vertices": verts, "edges": edges},
            "network": {
                "l": {v: 1 for v in verts}, "n": {v: [4] for v in verts},
                "r": {v: [1] for v in verts}, "C": {e["id"]: [[1]] for e in edges},
            },
            "action": {"f": [0, 0, 0, 0, "1/20"]},
            "loops": ["e1+ e2+ e3+ e4+"],
        }))
        grid = ["--max-order", "7", "--xres", "9", "--yres", "11"]
        b = tmp_path / "builtin.csv"
        assert run(["bootstrap", "builtin:triangle", *grid, "--out", str(b)]) == 0
        for job in (TRIANGLE, str(reversed_loop), str(relabelled), str(square)):
            a = tmp_path / "job.csv"
            assert run(["bootstrap", job, *grid, "--out", str(a)]) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_summary_counts_overflow_cells(self, tmp_path, capsys):
        # at x = 1e-200 the moments overflow by order 3 wherever y != 0
        grid = ["--xmin", "1e-200", "--xmax", "1e-200", "--xres", "1",
                "--ymin", "-0.5", "--ymax", "0.5", "--yres", "4", "--max-order", "3"]
        assert run(["bootstrap", *grid, "--out", str(tmp_path / "scan.csv")]) == 0
        assert capsys.readouterr().out.endswith("3:0; overflow cells: 4\n")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tol", "-1"], "tol must be >= 0"),
            (["--tol", "nan"], "tol must be >= 0"),
            (["--tol", "inf"], "tol must be >= 0"),
            (["--max-order", "0"], "max_order must be >= 1"),
            # checked before any equation is generated: below order 3 none would be
            (["--max-order", "-3"], "max_order must be >= 1"),
            (["--xres", "0"], "xres must be >= 1"),
            (["--xres", "-1"], "xres must be >= 1"),
            (["--yres", "0"], "yres must be >= 1"),
            (["--yres", "-1"], "yres must be >= 1"),
            (["--xmax", "inf"], "xmax must be finite"),
            (["--xmin=-inf"], "xmin must be finite"),
            (["--ymin", "nan"], "ymin must be finite"),
            (["--ymax", "inf"], "ymax must be finite"),
            (["--ymin=-1e308", "--ymax", "1e308"], "ymax - ymin must be finite"),
        ],
        ids=["negative_tol", "nan_tol", "inf_tol", "zero_order", "negative_order",
             "zero_xres", "negative_xres", "zero_yres", "negative_yres",
             "inf_xmax", "inf_xmin", "nan_ymin", "inf_ymax", "overflowing_y_window"],
    )
    def test_bad_scan_arguments_are_domain_errors(self, tmp_path, capsys, flags, message):
        out = tmp_path / "scan.csv"
        code = run(["bootstrap", "--xres", "5", "--yres", "5", *flags, "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestGww:
    def test_degenerate_single_row(self, tmp_path):
        out = tmp_path / "gww.csv"
        code = run(
            ["gww", "--dim", "1", "--points", "3", "--xmin", "0", "--xmax", "0",
             "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 2
        x, z, y = rows[1].split(",")
        assert float(z) == pytest.approx(1.0, abs=1e-12)
        assert float(y) == pytest.approx(0.0, abs=1e-12)

    def test_zero_dimension_is_domain_error(self, tmp_path, capsys):
        out = tmp_path / "gww.csv"
        assert run(["gww", "--dim", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: N must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "window, message",
        [(["--xmin", "nan"], "xmin must be finite"), (["--xmax", "inf"], "xmax must be finite"),
         (["--xmin=-1e308", "--xmax", "1e308"], "xmax - xmin must be finite")],
    )
    def test_non_finite_window_is_domain_error(self, tmp_path, capsys, window, message):
        # refused before np.linspace, which would warn and spread NaN over the grid
        out = tmp_path / "gww.csv"
        assert run(["gww", "--dim", "3", *window, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_empty_grid_is_domain_error(self, tmp_path, capsys, points):
        out = tmp_path / "gww.csv"
        assert run(["gww", "--dim", "3", "--points", points, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: points must be >= 1\n"
        assert not out.exists()

    def test_curve_file(self, tmp_path):
        out = tmp_path / "gww.csv"
        assert run(["gww", "--dim", "3", "--points", "21", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 22

    def test_out_of_range_point_is_flagged(self, tmp_path, capsys):
        out = tmp_path / "gww.csv"
        args = ["gww", "--dim", "12", "--xmin", "-2.73", "--xmax", "-2.73", "--out", str(out)]
        assert run(args) == 0
        assert capsys.readouterr().out == "wrote 1 samples for N=12 (1 flagged)\n"
        assert out.read_text().splitlines()[1].endswith(",nan")


class TestMc:
    def test_estimate_output(self, tmp_path):
        out = tmp_path / "mc.json"
        code = run(
            ["mc", "builtin:triangle@3", "--loop", "e1+ e2+ e3+",
             "--samples", "2000", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["samples"] == 2000
        assert data["dim"] == 3
        assert data["method"] == "reweight"
        assert "rhat" not in data
        assert data["stderr"] == pytest.approx(math.hypot(data["stderr_re"], data["stderr_im"]))
        assert abs(data["mean_re"] + 0.2) < 0.05

    def test_check_eq_output(self, tmp_path):
        out = tmp_path / "eqcheck.json"
        code = run(
            ["mc", "builtin:triangle@3", "--loop", "e1+ e2+ e3+", "--check-eq",
             "--root", "e1", "--samples", "2000", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert abs(data["residual_re"]) <= 5 * data["stderr"]

    def test_check_eq_requires_root(self, capsys):
        code = run(
            ["mc", "builtin:triangle@3", "--loop", "e1+ e2+ e3+", "--check-eq",
             "--samples", "10", "--seed", "1"]
        )
        assert code == 1
        assert "--root" in capsys.readouterr().err

    def test_root_requires_check_eq(self, capsys):
        # a Wilson-loop estimate has no root: --root alone is refused, not ignored
        code = run(
            ["mc", "builtin:triangle@3", "--loop", "e1+ e2+ e3+", "--root", "e1",
             "--samples", "10", "--seed", "1"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --root needs --check-eq\n"

    @pytest.mark.parametrize("flag", ["--burnin", "--thin"])
    def test_chain_settings_require_metropolis(self, capsys, flag):
        # reweighting runs no chains: --burnin and --thin alone are refused, not ignored
        code = run(["mc", "builtin:triangle@3", "--loop", "e1+ e2+ e3+", flag, "5",
                    "--samples", "10", "--seed", "1"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {flag} needs --method metropolis\n"

    def test_check_eq_unknown_root_is_domain_error(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        code = run(
            ["mc", "builtin:triangle", "--loop", "e1+ e2+ e3+", "--check-eq",
             "--root", "nope", "--samples", "100", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: unknown edge 'nope'\n"
        assert not out.exists()

    def test_check_eq_by_metropolis(self, tmp_path, capsys):
        # the same equation checked on the chains: a residual within 5 sigma
        # from chains that agree, with the chains' health in the JSON
        out = tmp_path / "eqcheck.json"
        code = run(
            ["mc", "builtin:triangle@3", "--loop", "e1+ e2+ e3+", "--check-eq",
             "--root", "e1", "--method", "metropolis", "--samples", "1000", "--burnin", "400",
             "--thin", "5", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert abs(complex(data["residual_re"], data["residual_im"])) <= 5 * data["stderr"]
        assert data["rhat"] <= RHAT_LIMIT and 0.05 <= data["acceptance"] <= 0.95
        assert 0 < data["effective_samples"] and data["samples"] == 1000
        assert capsys.readouterr().out == (
            f"wrote {out}: effective samples {data['effective_samples']:.1f}, "
            f"acceptance {data['acceptance']:.1%}\n"
        )

    def test_metropolis_needs_a_sample_per_batch(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        code = run(
            ["mc", "builtin:triangle@3", "--loop", "e1+ e2+ e3+", "--method", "metropolis",
             "--samples", "5", "--burnin", "10", "--thin", "1", "--seed", "7", "--out", str(out)]
        )
        assert code == 1
        assert "batch means" in capsys.readouterr().err
        assert not out.exists()

    def test_metropolis_tunes_a_strongly_coupled_job(self, tmp_path, capsys):
        # the shipped two-site coupling rejects nearly every step at eps 0.5;
        # burn-in must shrink eps far enough within its two windows
        out = tmp_path / "mc.json"
        args = ["mc", TWO_SITE, "--loop", "ov+ ov+ e+ ow+ ow+ e-", "--method", "metropolis",
                "--samples", "200", "--burnin", "200", "--thin", "2", "--seed", "3", "--out", str(out)]
        code = run(args)
        assert code == 0
        data = json.loads(out.read_text())
        assert 0.05 <= data["acceptance"] <= 0.95
        # these short chains disagree, and the confirmation line says so
        assert data["rhat"] > RHAT_LIMIT
        assert capsys.readouterr().out.endswith(
            f", R-hat {data['rhat']:.3g} above {RHAT_LIMIT}: chains disagree\n"
        )
        # without --out the JSON alone goes to stdout, and the warning to stderr
        assert run(args[:-2]) == 0
        captured = capsys.readouterr()
        assert captured.out == out.read_text() + "\n"
        assert captured.err == (
            f"effective samples {data['effective_samples']:.1f}, acceptance {data['acceptance']:.1%}"
            f", R-hat {data['rhat']:.3g} above {RHAT_LIMIT}: chains disagree\n"
        )

    @pytest.mark.parametrize(
        "args, name",
        [(["--samples", "0"], "samples"), (["--samples", "-2"], "samples"),
         (["--method", "metropolis", "--samples", "100", "--thin", "0"], "thin"),
         (["--method", "metropolis", "--samples", "100", "--burnin", "-3"], "burnin"),
         (["--check-eq", "--root", "e1", "--samples", "0"], "samples"),
         (["--seed", "-5"], "seed"),
         (["--check-eq", "--root", "e1", "--seed", "-5"], "seed"),
         (["--method", "metropolis", "--samples", "100", "--seed", "-5"], "seed")],
    )
    def test_bad_counts_exit_1(self, tmp_path, capsys, args, name):
        out = tmp_path / "mc.json"
        code = run(["mc", "builtin:triangle@3", "--loop", "e1+ e2+ e3+", "--seed", "7",
                    "--out", str(out)] + args)
        assert code == 1
        assert f"{name} must be at least" in capsys.readouterr().err
        assert not out.exists()

    def test_metropolis_on_a_tree_measures_one(self, tmp_path, capsys):
        # one edge between two vertices is all gauge tree: nothing is
        # proposed, no acceptance bound applies and every measurement is 1
        p = tmp_path / "tree.json"
        p.write_text(json.dumps({**single_block_job(["v", "w"], [("e", "v", "w")]),
                                 "action": {"f": [0, 0, 1]}}))
        out = tmp_path / "mc.json"
        code = run(["mc", str(p), "--loop", "e+ e-", "--method", "metropolis", "--burnin", "100",
                    "--thin", "2", "--samples", "200", "--seed", "1", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        data = json.loads(out.read_text())
        assert (data["mean_re"], data["mean_im"], data["stderr"]) == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "check",
        [[], ["--check-eq", "--root", "e1"], ["--method", "metropolis"]],
        ids=["mean", "check", "metropolis"],
    )
    def test_overflowing_log_weights_exit_1(self, tmp_path, capsys, check):
        # 10^400 is beyond a float itself: refused by the same rule, not by its conversion
        data = json.loads(Path(TRIANGLE).read_text())
        p, out = tmp_path / "job.json", tmp_path / "mc.json"
        for f3 in (10**307, 10**400):
            data["action"]["f"] = [0, 0, 0, str(f3)]
            p.write_text(json.dumps(data))
            code = run(["mc", str(p), "--loop", "e1+ e2+ e3+", "--samples", "2000", "--seed", "1",
                        "--out", str(out)] + check)
            assert code == 1
            assert capsys.readouterr().err == (
                "error: log weights -N S overflow float arithmetic; weaken the coupling\n"
            )
            assert not out.exists()

    def test_metropolis_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["mc", "builtin:triangle@3", "--loop", "e1+ e2+ e3+", "--method", "metropolis",
                "--samples", "200", "--burnin", "100", "--thin", "2", "--seed", "42"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert 0.9 < json.loads(a.read_text())["rhat"] < 1.1
        assert "chains disagree" not in capsys.readouterr().out

    def test_metropolis_rhat_undefined_is_null(self, tmp_path):
        # 15 samples leave the last chains one measurement each: no R-hat
        out = tmp_path / "mc.json"
        code = run(["mc", "builtin:triangle@3", "--loop", "e1+ e2+ e3+", "--method", "metropolis",
                    "--samples", "15", "--burnin", "100", "--thin", "1", "--seed", "7",
                    "--out", str(out)])
        assert code == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        assert json.loads(out.read_text(), parse_constant=reject)["rhat"] is None

    def test_out_reports_sampling_health(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        base = ["mc", "builtin:triangle@3", "--loop", "e1+ e2+ e3+", "--seed", "5"]
        assert run(base + ["--samples", "2000", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        line = capsys.readouterr().out
        assert line.startswith(
            f"wrote {out}: effective samples {data['effective_samples']:.1f}, largest weight share "
        )
        # the largest of n weights holds at least 1/n of their sum
        assert 1 / 2000 <= float(line.split()[-1]) < 1
        assert run(base + ["--samples", "100", "--method", "metropolis", "--burnin", "100",
                           "--thin", "1", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert capsys.readouterr().out == (
            f"wrote {out}: effective samples {data['effective_samples']:.1f}, "
            f"acceptance {data['acceptance']:.1%}\n"
        )
        # without --out, stdout is the JSON alone and the line goes to stderr
        assert run(base + ["--samples", "2000"]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert captured.err.startswith("effective samples ")

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["mc", "builtin:triangle@3", "--loop", "e1+ e2+ e3+",
                "--samples", "1000", "--seed", "42"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestUsage:
    def test_module_runs_from_a_source_checkout(self, tmp_path, capsys):
        argv = ["bootstrap", "--max-order", "3", "--xres", "3", "--yres", "3"]
        assert run([*argv, "--out", str(tmp_path / "run.csv")]) == 0
        expected = capsys.readouterr().out
        proc = subprocess.run(
            [sys.executable, "-m", "quivergauge", *argv, "--out", str(tmp_path / "module.csv")],
            capture_output=True, text=True, env=SOURCE_ENV,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == expected

    def test_unknown_subcommand_exits_2(self):
        assert run(["frobnicate"]) == 2

    def test_no_args_exits_2(self):
        assert run([]) == 2

    def test_help_exits_0(self):
        assert run(["--help"]) == 0

    def test_subcommand_help_mentions_flags(self, capsys):
        assert run(["bootstrap", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--max-order", "--xmin", "--tol", "--svg"):
            assert flag in out
