from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

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


def layout_network(vertices, edges, layouts, c):
    """Network with one block per vertex: layouts[v] = (n, r), C_e = [[c[e]]]."""
    q = qg.Quiver(vertices, edges)
    return qg.validate_network(q, {
        "l": {v: 1 for v in vertices},
        "n": {v: [layouts[v][0]] for v in vertices},
        "r": {v: [layouts[v][1]] for v in vertices},
        "C": {e: [[c.get(e, 1)]] for e, _, _ in edges},
    })


def fork_network(edge_ids=("xy", "xw", "yw")):
    """The chosen edges of x -> y with the identity, x -> w and y -> w with
    C = [[2], [1]]: x and y carry the two-site job's v layout, w its w layout."""
    edges = {"xy": ("x", "y"), "xw": ("x", "w"), "yw": ("y", "w")}
    q = qg.Quiver(["x", "y", "w"], [(e, *edges[e]) for e in edge_ids])
    v_n, v_r = TWO_SITE_DATA["n"]["v"], TWO_SITE_DATA["r"]["v"]
    return qg.validate_network(q, {
        "l": {"x": 2, "y": 2, "w": 1},
        "n": {"x": v_n, "y": v_n, "w": [8]},
        "r": {"x": v_r, "y": v_r, "w": [2]},
        "C": {"xy": [[1, 0], [0, 1]], "xw": [[2], [1]], "yw": [[2], [1]]},
    })


@st.composite
def two_vertex_data(draw, max_entry=3, max_size=5, permutation=False):
    """Network data of one edge e: a -> b, drawn from C, n_a and r_b, which
    fix n_b = C^T n_a and r_a = C r_b; ``permutation`` draws C as a
    permutation matrix, so that b's layout reorders a's."""
    l_src = draw(st.integers(1, 3))
    if permutation:
        perm = draw(st.permutations(range(l_src)))
        l_tgt, c = l_src, [[int(perm[i] == j) for j in range(l_src)] for i in range(l_src)]
    else:
        l_tgt = draw(st.integers(1, 3))
        row = st.lists(st.integers(0, max_entry), min_size=l_tgt, max_size=l_tgt)
        c = draw(st.lists(row, min_size=l_src, max_size=l_src))
    n_src = draw(st.lists(st.integers(1, max_size), min_size=l_src, max_size=l_src))
    r_tgt = draw(st.lists(st.integers(1, max_size), min_size=l_tgt, max_size=l_tgt))
    n_tgt = [sum(c[i][j] * n_src[i] for i in range(l_src)) for j in range(l_tgt)]
    r_src = [sum(c[i][j] * r_tgt[j] for j in range(l_tgt)) for i in range(l_src)]
    assume(all(n_tgt) and all(r_src))  # no zero row or column in C
    return {
        "l": {"a": l_src, "b": l_tgt},
        "n": {"a": n_src, "b": n_tgt},
        "r": {"a": r_src, "b": r_tgt},
        "C": {"e": c},
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(20240901)


def random_unitary(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
