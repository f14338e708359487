"""Independent reference computations that only the tests call.

Each one recomputes a quantity the package derives another way: the
holonomy of a word as a plain product, the Dirac operator whose eigenvalues
give the spectral action, the validated action value of one configuration,
the maximal-tree gauge transform of a configuration and the distance of a
unitary from its block group, the dense Toeplitz moment matrix, the
one-pass positivity scan at full order, and the Bessel derivative by its
recurrence.
"""

import numpy as np

from quivergauge.action import PlaquetteTable, action_plan, plan_sum
from quivergauge.bootstrap import _first_failure, _toeplitz, leading_minors, moment
from quivergauge.bratteli import BratteliNetwork
from quivergauge.gww import bessel_i
from quivergauge.monte_carlo import DiracSample, _embed_blocks

from conftest import random_unitary


def holonomy(assignment, steps, dim: int) -> np.ndarray:
    """Ordered product of edge unitaries along a word, first step leftmost,
    one matrix at a time: U_e forward, its adjoint backward; the empty word
    gives the identity."""
    out = np.eye(dim, dtype=complex)
    for e, o in steps:
        u = assignment[e]
        out = out @ (u if o > 0 else u.conj().T)
    return out


def assemble_dirac(net: BratteliNetwork, sample: DiracSample) -> np.ndarray:
    """Self-adjoint block matrix: block (v, w) sums U_e over edges v -> w
    and U_e-dagger over edges w -> v."""
    q = net.quiver
    n_v = len(q.vertices)
    dim = net.dim
    d = np.zeros((n_v * dim, n_v * dim), dtype=complex)
    for eid, src, dst in q.edges:
        i, j = q.vertex_index(src), q.vertex_index(dst)
        u = sample.unitaries[eid]
        d[i * dim : (i + 1) * dim, j * dim : (j + 1) * dim] += u
        d[j * dim : (j + 1) * dim, i * dim : (i + 1) * dim] += u.conj().T
    return d


def evaluate_action(
    table: PlaquetteTable,
    assignment,
    dim: int | None = None,
    unitarity_tol: float = 1e-8,
) -> float:
    """Numeric action value for one unitary assignment of the edges, through
    the table's action plan.  Real f gives a table closed under word reversal
    with equal couplings; each pair is traced once, as twice its real part.
    """
    needed = {e for w in table.entries for e, _ in w.steps}
    missing = needed - set(assignment)
    if missing:
        raise ValueError(f"assignment missing edges: {sorted(missing)}")
    if dim is None:
        probe = next(iter(assignment.values()))
        dim = probe.shape[0]
    for eid, u in assignment.items():
        if u.shape != (dim, dim):
            raise ValueError(f"edge {eid!r}: matrix shape {u.shape} != ({dim}, {dim})")
        dev = np.abs(u @ u.conj().T - np.eye(dim)).max()
        if dev > unitarity_tol:
            raise ValueError(f"edge {eid!r}: matrix is not unitary (deviation {dev:.2e})")
    return plan_sum(action_plan(table), assignment, dim) + float(table.constant_coeff) * dim


def tree_gauge(net: BratteliNetwork, tree, rng, root=None) -> tuple[dict, dict]:
    """A configuration drawn in every edge's block ensemble (random blocks
    embedded by the edge's layout) and its transform U'_e = P_src U_e
    P_tgt^-1, with P_v the product of the unitaries along the tree path from
    ``root`` (default the first vertex) to v (1 where no path leads)."""
    q = net.quiver
    us = {}
    for e in q.edge_ids:
        layout = net.blocks(e)
        us[e] = _embed_blocks([random_unitary(rng, n) for n, _ in layout], layout)
    p = {q.vertices[0] if root is None else root: np.eye(net.dim)}
    for _ in tree:  # each pass reaches at least one more vertex of the root's tree
        for e in tree:
            src, tgt = q.source[e], q.target[e]
            if src in p and tgt not in p:
                p[tgt] = p[src] @ us[e]
            elif tgt in p and src not in p:
                p[src] = p[tgt] @ us[e].conj().T
    one = np.eye(net.dim)
    fixed = {
        e: p.get(q.source[e], one) @ u @ p.get(q.target[e], one).conj().T for e, u in us.items()
    }
    return us, fixed


def block_deviation(layout, u: np.ndarray) -> float:
    """Distance of ``u`` from the block group of ``layout``: the largest
    entry outside its diagonal blocks, or difference between a copy of a
    block and the summand's first copy."""
    inside = np.zeros(u.shape, dtype=bool)
    dev, pos = 0.0, 0
    for n, r in layout:
        first = u[pos : pos + n, pos : pos + n]
        for _ in range(r):
            dev = max(dev, float(np.abs(u[pos : pos + n, pos : pos + n] - first).max()))
            inside[pos : pos + n, pos : pos + n] = True
            pos += n
    return max(dev, float(np.abs(u[~inside]).max(initial=0.0)))


def moment_matrix(order: int, x: float, y: float) -> np.ndarray:
    """Symmetric Toeplitz matrix with (i, j) entry m_{|i-j|}(x, y)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if x == 0:
        raise ValueError("moments are singular at x = 0")
    return _toeplitz(np.array([moment(k).evaluate(x, y) for k in range(order)]), order)


def scan_first_failing(xs, ys, order: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """First failing order of every cell (0 = none, and 0 on x = 0 columns),
    and whether that failing minor is non-finite, from one pass: every moment
    on the whole grid, then every leading minor up to ``order``."""
    X, Y = np.asarray(xs, dtype=float)[:, None], np.asarray(ys, dtype=float)[None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mvals = np.stack([moment(k).evaluate_grid(X, Y) for k in range(order)], axis=-1)
    minors = leading_minors(mvals, order)
    first = np.where(X == 0, 0, _first_failure(minors, tol))
    at_first = np.take_along_axis(minors, np.maximum(first - 1, 0)[..., None], axis=-1)[..., 0]
    return first, (first > 0) & ~np.isfinite(at_first)


def bessel_i_derivative(q: int, z):
    """d/dz I_q(z) = (I_{q-1}(z) + I_{q+1}(z)) / 2."""
    return 0.5 * (bessel_i(q - 1, z) + bessel_i(q + 1, z))
