from pathlib import Path

import numpy as np
import pytest

import quivergauge as qg

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def triangle_quiver():
    return qg.Quiver(
        ["v1", "v2", "v3"],
        [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v1")],
    )


def triangle_network(q, dim):
    return qg.validate_network(
        q,
        {
            "l": {v: 1 for v in q.vertices},
            "n": {v: [dim] for v in q.vertices},
            "r": {v: [1] for v in q.vertices},
            "C": {e: [[1]] for e in q.edge_ids},
        },
    )


def torus_quiver(size):
    verts = [f"v{i}{j}" for i in range(size) for j in range(size)]
    edges = []
    for i in range(size):
        for j in range(size):
            edges.append((f"h{i}{j}", f"v{i}{j}", f"v{(i + 1) % size}{j}"))
            edges.append((f"u{i}{j}", f"v{i}{j}", f"v{i}{(j + 1) % size}"))
    return qg.Quiver(verts, edges)


TWO_SITE_DATA = {
    "l": {"v": 2, "w": 1},
    "n": {"v": [3, 2], "w": [8]},
    "r": {"v": [4, 2], "w": [2]},
    "C": {"ov": [[1, 0], [0, 1]], "e": [[2], [1]], "ow": [[1]]},
}


@pytest.fixture(scope="session")
def two_site_quiver():
    return qg.Quiver(
        ["v", "w"], [("ov", "v", "v"), ("e", "v", "w"), ("ow", "w", "w")]
    )


@pytest.fixture(scope="session")
def two_site_network(two_site_quiver):
    return qg.validate_network(two_site_quiver, TWO_SITE_DATA)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240901)


def random_unitary(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
