import json

import pytest

import quivergauge as qg
from quivergauge.jobfile import (
    JobError,
    load_job,
    parse_job_dict,
)

from conftest import REPO


class TestLoadJob:
    def test_repo_triangle_job(self):
        job = load_job(str(REPO / "jobs" / "triangle.json"))
        assert job.network.dim == 4
        assert [str(w) for w in job.loops] == ["e1+ e2+ e3+"]
        assert job.action.degree == 3

    def test_repo_two_site_job(self):
        job = load_job(str(REPO / "jobs" / "two_site.json"))
        assert job.network.dim == 16
        assert job.action.degree == 4

    def test_builtin_triangle(self):
        job = load_job("builtin:triangle")
        assert job.network.dim == 4
        table = qg.expand_action(job.quiver, job.action)
        zeta = qg.cyclic_canonical(job.quiver, job.loops[0])
        assert float(table.coupling(zeta)) == pytest.approx(0.2)

    def test_builtin_with_dimension(self):
        assert load_job("builtin:triangle@7").network.dim == 7

    def test_unknown_builtin(self):
        with pytest.raises(JobError, match="unknown builtin"):
            load_job("builtin:square")

    def test_missing_file(self):
        with pytest.raises(JobError, match="cannot read"):
            load_job("/nonexistent/job.json")

    def test_syntax_error_has_location(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n  "quiver": [,]\n}\n')
        with pytest.raises(JobError, match=r"bad\.json:2:"):
            load_job(str(p))

    def test_missing_network_section(self, tmp_path):
        p = tmp_path / "job.json"
        p.write_text(
            json.dumps(
                {
                    "quiver": {
                        "vertices": ["a"],
                        "edges": [{"id": "o", "src": "a", "dst": "a"}],
                    },
                    "action": {"f": [0]},
                }
            )
        )
        with pytest.raises(JobError, match="network"):
            load_job(str(p))

    def test_unclosed_loop_rejected(self, tmp_path):
        data = json.loads((REPO / "jobs" / "triangle.json").read_text())
        data["loops"] = ["e1+ e2+"]
        p = tmp_path / "job.json"
        p.write_text(json.dumps(data))
        with pytest.raises(JobError, match="not closed"):
            load_job(str(p))

    @pytest.mark.parametrize(
        "section, value, message",
        [("quiver", {"vertices": ["v1"]}, "bad or missing 'quiver' section"),
         ("quiver", {"vertices": ["v1"], "edges": ["e1"]}, "bad or missing 'quiver' section"),
         ("action", {"g": [0]}, "bad or missing 'action' section"),
         ("action", [0], "bad or missing 'action' section")],
        ids=["quiver_no_edges", "quiver_edge_not_object", "action_no_f", "action_not_object"],
    )
    def test_bad_section(self, section, value, message):
        data = json.loads((REPO / "jobs" / "triangle.json").read_text())
        data[section] = value
        with pytest.raises(JobError, match=message):
            parse_job_dict(data)

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda d: d.update(loops=[5]), r"loops\[0\] must be a string, got int"),
         (lambda d: d.update(loops="e1+ e2+ e3+"), "loops must be a list of strings, got str"),
         (lambda d: d["quiver"].update(vertices=5),
          "quiver.vertices must be a list of strings, got int"),
         (lambda d: d["quiver"].update(vertices=["v1", 2, "v3"]),
          r"quiver.vertices\[1\] must be a string, got int"),
         (lambda d: d["quiver"]["edges"][1].update(src=["v2"]),
          r"quiver.edges\[1\].src must be a string, got list"),
         # neither is read as f = (0, 0, 0, 3) or f = (3,)
         (lambda d: d["action"].update(f="0003"), "action.f must be a list, got str"),
         (lambda d: d["action"].update(f={"3": 1}), "action.f must be a list, got dict")],
        ids=["loop_not_string", "loops_not_list", "vertices_not_list", "vertex_not_string",
             "edge_field_not_string", "f_not_list_string", "f_not_list_object"],
    )
    def test_field_of_wrong_type(self, edit, message):
        # each is a JobError naming the field, never an AttributeError or
        # TypeError from deeper in, nor a string read as its characters
        data = json.loads((REPO / "jobs" / "triangle.json").read_text())
        edit(data)
        with pytest.raises(JobError, match=f"^{message}$"):
            parse_job_dict(data)

    def test_loop_not_composable(self):
        data = json.loads((REPO / "jobs" / "triangle.json").read_text())
        data["loops"] = ["e1+ e3+"]
        with pytest.raises(qg.QuiverError, match="not composable at step 1"):
            parse_job_dict(data)

    def test_bad_rational(self, tmp_path):
        data = json.loads((REPO / "jobs" / "triangle.json").read_text())
        data["action"]["f"] = [0.25]
        p = tmp_path / "job.json"
        p.write_text(json.dumps(data))
        with pytest.raises(JobError, match="coefficient"):
            load_job(str(p))
