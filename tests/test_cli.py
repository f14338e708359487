import json
import os
import subprocess
import sys

import pytest

from quivergauge.cli import RHAT_LIMIT, run

from conftest import REPO

TRIANGLE = str(REPO / "jobs" / "triangle.json")
TWO_SITE = str(REPO / "jobs" / "two_site.json")
SOURCE_ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}


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
            # a coupling on the doubled triangle adds terms the recursion lacks
            (TRIANGLE, {"action": {"f": [0, 0, 0, "1/15", 0, 0, "1/10"]}},
             "not the triangle moment recursion"),
        ],
        ids=["two_site", "no_loop", "sextic_triangle"],
    )
    def test_job_off_the_recursion_is_domain_error(self, tmp_path, capsys, base, edit, message):
        job = tmp_path / "job.json"
        with open(base) as fh:
            job.write_text(json.dumps({**json.load(fh), **edit}))
        out = tmp_path / "scan.csv"
        code = run(
            ["bootstrap", str(job), "--max-order", "3", "--xres", "5", "--yres", "5",
             "--out", str(out)]
        )
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_triangle_job_matches_builtin(self, tmp_path):
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
        for job in (TRIANGLE, str(square)):
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
        [(["--tol", "-1"], "tol must be >= 0"), (["--max-order", "0"], "max_order must be >= 1")],
        ids=["negative_tol", "zero_order"],
    )
    def test_bad_scan_arguments_are_domain_errors(self, tmp_path, capsys, flags, message):
        out = tmp_path / "scan.csv"
        code = run(["bootstrap", *flags, "--xres", "5", "--yres", "5", "--out", str(out)])
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

    def test_curve_file(self, tmp_path):
        out = tmp_path / "gww.csv"
        assert run(["gww", "--dim", "3", "--points", "21", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 22


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

    def test_check_eq_unknown_root_is_domain_error(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        code = run(
            ["mc", "builtin:triangle", "--loop", "e1+ e2+ e3+", "--check-eq",
             "--root", "nope", "--samples", "100", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: unknown edge 'nope'\n"
        assert not out.exists()

    def test_check_eq_rejects_metropolis(self, tmp_path, capsys):
        out = tmp_path / "eqcheck.json"
        code = run(
            ["mc", "builtin:triangle@3", "--loop", "e1+ e2+ e3+", "--check-eq",
             "--root", "e1", "--method", "metropolis", "--samples", "10", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 1
        assert "--method reweight" in capsys.readouterr().err
        assert not out.exists()

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
        code = run(
            ["mc", TWO_SITE, "--loop", "ov+ ov+ e+ ow+ ow+ e-", "--method", "metropolis",
             "--samples", "200", "--burnin", "200", "--thin", "2", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert 0.05 <= data["acceptance"] <= 0.95
        # these short chains disagree, and the confirmation line says so
        assert data["rhat"] > RHAT_LIMIT
        assert capsys.readouterr().out.endswith(
            f", R-hat {data['rhat']:.3g} above {RHAT_LIMIT}: chains disagree\n"
        )

    @pytest.mark.parametrize(
        "args, name",
        [(["--samples", "0"], "samples"), (["--samples", "-2"], "samples"),
         (["--method", "metropolis", "--samples", "100", "--thin", "0"], "thin"),
         (["--method", "metropolis", "--samples", "100", "--burnin", "-3"], "burnin"),
         (["--check-eq", "--root", "e1", "--samples", "0"], "samples")],
    )
    def test_bad_counts_exit_1(self, tmp_path, capsys, args, name):
        out = tmp_path / "mc.json"
        code = run(["mc", "builtin:triangle@3", "--loop", "e1+ e2+ e3+", "--seed", "7",
                    "--out", str(out)] + args)
        assert code == 1
        assert f"{name} must be at least" in capsys.readouterr().err
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
        # without --out, stdout is the JSON alone
        assert run(base + ["--samples", "2000"]) == 0
        json.loads(capsys.readouterr().out)

    def test_dim_override(self, tmp_path):
        out = tmp_path / "mc.json"
        code = run(
            ["mc", TRIANGLE, "--loop", "e1+ e2+ e3+", "--dim-override", "2",
             "--samples", "500", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["dim"] == 2

    def test_zero_dim_override_is_domain_error(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        code = run(
            ["mc", TRIANGLE, "--loop", "e1+ e2+ e3+", "--dim-override", "0",
             "--samples", "500", "--seed", "2", "--out", str(out)]
        )
        assert code == 1
        assert "dimension override must be >= 1" in capsys.readouterr().err
        assert not out.exists()

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
