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

Rationals are integers or "p/q" strings; block data are JSON integers.
``builtin:triangle`` resolves to the bundled three-vertex cycle with one
U(4) block per vertex, and ``builtin:triangle@N`` to the same at U(N).
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
    network = validate_network(q, {
        "l": {v: 1 for v in q.vertices}, "n": {v: [dim] for v in q.vertices},
        "r": {v: [1] for v in q.vertices}, "C": {e: [[1]] for e in q.edge_ids},
    })
    loops = [EdgeWord.from_string("e1+ e2+ e3+")]
    return Job(quiver=q, network=network, action=action, loops=loops)


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise JobError(f"{name} must be a string, got {type(value).__name__}")
    return value


def _strings(value, name: str) -> list[str]:
    if not isinstance(value, list):
        raise JobError(f"{name} must be a list of strings, got {type(value).__name__}")
    return [_string(v, f"{name}[{k}]") for k, v in enumerate(value)]


def parse_job_dict(data: dict) -> Job:
    try:
        qsec = data["quiver"]
        vertices = _strings(qsec["vertices"], "quiver.vertices")
        edges = [
            tuple(_string(e[f], f"quiver.edges[{k}].{f}") for f in ("id", "src", "dst"))
            for k, e in enumerate(qsec["edges"])
        ]
    except (KeyError, TypeError) as exc:
        raise JobError(f"bad or missing 'quiver' section: {exc}") from None
    quiver = Quiver(vertices, edges)
    if "network" not in data:
        raise JobError("missing 'network' section")
    network = validate_network(quiver, data["network"])
    try:
        f = data["action"]["f"]
    except (KeyError, TypeError) as exc:
        raise JobError(f"bad or missing 'action' section: {exc}") from None
    if not isinstance(f, list):  # a string or an object would be read as its characters or keys
        raise JobError(f"action.f must be a list, got {type(f).__name__}")
    try:
        action = ActionSpec.from_list(f)
    except ValueError as exc:
        raise JobError(f"bad action coefficient: {exc}") from None
    loops = []
    for k, text in enumerate(_strings(data.get("loops", []), "loops")):
        w = EdgeWord.from_string(text)
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
