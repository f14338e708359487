"""JSON job files binding a quiver, its block structure, the action and loops.

Layout::

    {
      "quiver":  {"vertices": ["v1", ...],
                  "edges": [{"id": "e", "src": "v1", "dst": "v2"}, ...]},
      "network": {"l": {"v1": 1, ...}, "n": {"v1": [4], ...},
                  "r": {"v1": [1], ...}, "C": {"e": [[1]], ...}},
      "action":  {"f": [0, 0, 0, "1/15"]},
      "loops":   ["e1+ e2+ e3+", ...]          # optional
    }

Rationals are integers or "p/q" strings.  ``builtin:triangle`` resolves to
the bundled three-vertex cycle with one full unitary block per vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .action import ActionSpec
from .bratteli import BratteliNetwork, validate_network
from .quiver import EdgeWord, Quiver


class JobError(ValueError):
    """Malformed job file."""


@dataclass
class Job:
    quiver: Quiver
    network: BratteliNetwork
    action: ActionSpec
    loops: list[EdgeWord] = field(default_factory=list)


def triangle_job(dim: int = 4, f3: Fraction | str | int = Fraction(1, 15)) -> Job:
    """Three-vertex directed cycle, one U(dim) block per edge.

    The cubic coupling turns into a plaquette weight 3*f3 on each
    orientation of the 3-cycle; the default gives coupling 1/5.
    """
    q = Quiver(
        ["v1", "v2", "v3"],
        [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v1")],
    )
    action = ActionSpec.from_list([0, 0, 0, f3])
    loops = [EdgeWord.from_string("e1+ e2+ e3+")]
    return Job(quiver=q, network=_single_block_network(q, dim), action=action, loops=loops)


def _single_block_network(q: Quiver, dim: int) -> BratteliNetwork:
    """One multiplicity-one U(dim) block per vertex, identity transitions on every edge."""
    return validate_network(q, {
        "l": {v: 1 for v in q.vertices}, "n": {v: [dim] for v in q.vertices},
        "r": {v: [1] for v in q.vertices}, "C": {e: [[1]] for e in q.edge_ids},
    })


def parse_job_dict(data: dict) -> Job:
    try:
        qsec = data["quiver"]
        vertices = qsec["vertices"]
        edges = [(e["id"], e["src"], e["dst"]) for e in qsec["edges"]]
    except (KeyError, TypeError) as exc:
        raise JobError(f"bad or missing 'quiver' section: {exc}") from None
    quiver = Quiver(vertices, edges)
    if "network" not in data:
        raise JobError("missing 'network' section")
    network = validate_network(quiver, data["network"])
    try:
        action = ActionSpec.from_list(data["action"]["f"])
    except (KeyError, TypeError) as exc:
        raise JobError(f"bad or missing 'action' section: {exc}") from None
    except ValueError as exc:
        raise JobError(f"bad action coefficient: {exc}") from None
    loops = []
    for k, text in enumerate(data.get("loops", [])):
        w = EdgeWord.from_string(text)
        quiver.word_vertices(w)
        if not quiver.is_closed(w):
            raise JobError(f"loops[{k}] = {text!r} is not closed")
        loops.append(w)
    return Job(quiver=quiver, network=network, action=action, loops=loops)


def load_job(path: str) -> Job:
    """Load a job file; ``builtin:triangle`` and ``builtin:triangle@N`` are bundled."""
    if path.startswith("builtin:"):
        name = path[len("builtin:") :]
        if name == "triangle":
            return triangle_job()
        if name.startswith("triangle@"):
            text = name.split("@", 1)[1]
            if not (text.isdecimal() and int(text) > 0):
                raise JobError(f"builtin:triangle@N needs N a positive integer, got {text!r}")
            return triangle_job(dim=int(text))
        raise JobError(f"unknown builtin job {name!r}")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise JobError(f"cannot read job file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise JobError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    return parse_job_dict(data)


def override_dimension(job: Job, dim: int) -> Job:
    """Rebuild a single-block-per-vertex network at a different block size."""
    if dim < 1:
        raise JobError(f"dimension override must be >= 1, got {dim}")
    if any(r != (1,) for r in job.network.r.values()):
        raise JobError("dimension override requires one multiplicity-one block per vertex")
    new_net = _single_block_network(job.quiver, dim)
    return Job(quiver=job.quiver, network=new_net, action=job.action, loops=job.loops)
