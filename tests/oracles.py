"""Independent reference computations that only the tests call.

Each one recomputes a quantity the package derives another way: the
holonomy of a word as a plain product, the traced class of a word by its
definition, the Dirac operator whose eigenvalues
give the spectral action, the validated action value of one configuration,
the maximal-tree gauge transform of a configuration and the distance of a
unitary from its block group, the dense Toeplitz moment matrix, the
one-pass positivity scan at full order, the Metropolis chains run one
proposal at a time, and the large-N one-plaquette moment in closed form.  One helper is not independent: ``action_sum`` sums
an action plan through the package's own trace kernel.
"""

import math

import numpy as np
from scipy.linalg import block_diag

from quivergauge.action import PlaquetteTable, TracePlan, action_plan, loop_trace, weighted_sum
from quivergauge.bootstrap import moment
from quivergauge.bratteli import BratteliNetwork
from quivergauge.haar import DiracSample, _ginibre, _haar_from_ginibre
from quivergauge.metropolis import _CHAINS, _stream
from quivergauge.quiver import _step_key
from quivergauge.toeplitz import _toeplitz, leading_minors

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


def cyclic_class(steps) -> tuple:
    """The canonical steps of a closed word's traced class by definition:
    free reduction on a stack, matching end steps peeled one pair at a
    time, then the least of all rotations under the step order."""
    stack = []
    for e, o in steps:
        if stack and stack[-1] == (e, -o):
            stack.pop()
        else:
            stack.append((e, o))
    while len(stack) >= 2 and stack[0] == (stack[-1][0], -stack[-1][1]):
        stack = stack[1:-1]
    rotations = [tuple(stack[k:] + stack[:k]) for k in range(len(stack))]
    return min(rotations, key=lambda r: [_step_key(s) for s in r], default=())


def action_sum(plan, assignment, dim: int):
    """``sum weight * Re Tr hol(word)`` over an :func:`action_plan`, its words
    traced by one :class:`TracePlan`: a float, or one per sample for batched
    matrices."""
    return weighted_sum(plan[1], TracePlan(plan[0], dim).traces(assignment))


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
    return action_sum(action_plan(table), assignment, dim) + float(table.constant_coeff) * dim


def tree_gauge(net: BratteliNetwork, tree, rng, root=None) -> tuple[dict, dict]:
    """A configuration drawn in every edge's block ensemble (random blocks
    embedded by the edge's layout) and its transform U'_e = P_src U_e
    P_tgt^-1, with P_v the product of the unitaries along the tree path from
    ``root`` (default the first vertex) to v (1 where no path leads)."""
    q = net.quiver
    us = {}
    for e in q.edge_ids:
        blocks = [(random_unitary(rng, n), r) for n, r in net.blocks(e)]
        us[e] = block_diag(*(u for u, r in blocks for _ in range(r)))
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


def gww_large_n(x: float) -> float:
    """The large-N first moment y(x) of the weight exp(-N x Tr(U + U^dagger))
    in closed form (Gross-Witten 1980; Wadia 1980): -x for |x| <= 1/2, and
    -sign(x) (1 - 1/(4|x|)) beyond."""
    return -x if abs(x) <= 0.5 else -math.copysign(1 - 1 / (4 * abs(x)), x)


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
    first = np.zeros(minors.shape[:-1], dtype=np.int64)
    for k in range(order, 0, -1):  # downwards, so the lowest failing order is written last
        minor = minors[..., k - 1]
        first[(minor < -tol) | ~np.isfinite(minor)] = k
    first = np.where(X == 0, 0, first)
    at_first = np.take_along_axis(minors, np.maximum(first - 1, 0)[..., None], axis=-1)[..., 0]
    return first, (first > 0) & ~np.isfinite(at_first)


class OneAtATimeChains:
    """All ``_CHAINS`` Metropolis chains making one proposal at a time: each
    chain reads the uniforms of one proposal, 2n^2 + 2n + 1 of them, from the
    keyed stream of its (chain, site), then the chains are stacked.  The
    estimators' ``setup`` gives the action plan and the rewritten words."""

    def __init__(self, net: BratteliNetwork, setup: tuple, seed: int):
        q = net.quiver
        self.dim = net.dim
        tree = net.tree
        self.plan, self.words, _, _ = setup
        self.layouts = {eid: net.blocks(eid) for eid in q.edge_ids if eid not in tree}
        self.sites = [(e, bi) for e, layout in self.layouts.items() for bi in range(len(layout))]
        self.streams = {
            (e, bi): [_stream(seed, c, q.edge_ids.index(e), bi) for c in range(_CHAINS)]
            for e, bi in self.sites
        }
        n_blocks = sum(len(net.blocks(eid)) for eid in q.edge_ids)
        self.sweep = [self.sites[k % len(self.sites)] for k in range(n_blocks)] if self.sites else []
        self.eps = {b: np.full(_CHAINS, 0.5) for b in self.sites}
        identity = np.eye(self.dim, dtype=complex)
        self.assignment = {eid: np.tile(identity, (_CHAINS, 1, 1)) for eid in self.layouts}
        self.s = action_sum(self.plan, self.assignment, self.dim)

    def propose(self, eid: str, bi: int) -> np.ndarray:
        """Propose U <- V diag(exp(i eps theta)) V^-1 U on one block of every
        chain, written into each of the block's copies; returns which chains
        accepted."""
        edge, layout = self.assignment[eid], self.layouts[eid]
        (n, r), pos = layout[bi], sum(m * k for m, k in layout[:bi])
        old = edge[:, pos : pos + n, pos : pos + n]
        u = np.stack([gen.random(2 * n * n + 2 * n + 1) for gen in self.streams[eid, bi]])
        z = _ginibre(u[:, :-1].reshape(_CHAINS, n * n + n, 2))
        v = _haar_from_ginibre(z[:, : n * n].reshape(_CHAINS, n, n))
        theta = math.sqrt(2 * n) * z[:, n * n :].real
        phases = np.exp(1j * (self.eps[(eid, bi)][:, None] * theta))[:, None, :]
        new = (v * phases) @ v.conj().swapaxes(-1, -2) @ old
        trial = new if n == self.dim else edge.copy()
        if n < self.dim:
            for at in range(pos, pos + n * r, n):
                trial[:, at : at + n, at : at + n] = new
        s_new = action_sum(self.plan, {**self.assignment, eid: trial}, self.dim)
        accept = u[:, -1] < np.exp(np.minimum(0.0, -self.dim * (s_new - self.s)))
        self.assignment[eid] = np.where(accept[:, None, None], trial, edge)
        self.s = np.where(accept, s_new, self.s)
        return accept


def metropolis_chains(net, setup, seed, burnin, sweeps, thin):
    """The Metropolis run one proposal at a time: ``burnin`` sweeps tuning
    each chain's step per block over 100-sweep windows, then ``sweeps``
    sweeps measuring every ``thin`` the normalised trace of the one word of
    ``setup``, the set-up of a one-term polynomial (1, word, None).
    Returns the measurements (_CHAINS, sweeps // thin) and the proposals
    accepted and made after burn-in."""
    chains = OneAtATimeChains(net, setup, seed)
    assert setup[2] == [[(1.0, 0, None)]]
    (word,) = chains.words
    window = dict.fromkeys(chains.sites, 0)
    for sweep in range(burnin):
        for b in chains.sweep:
            window[b] += chains.propose(*b)
        if (sweep + 1) % 100 == 0:
            for b in chains.sites:
                rate, eps = window[b] / (100 * chains.sweep.count(b)), chains.eps[b]
                shrunk = np.where(rate < 0.3, eps * np.maximum(rate / 0.4, 0.1), eps)
                chains.eps[b] = np.where(rate > 0.5, np.minimum(eps * 1.3, math.pi), shrunk)
                window[b] = 0
    values = np.empty((_CHAINS, sweeps // thin), dtype=complex)
    accepted = 0
    for k in range(sweeps // thin):
        for _ in range(thin):
            for b in chains.sweep:
                accepted += int(chains.propose(*b).sum())
        values[:, k] = [complex(t.real / chains.dim, t.imag / chains.dim)
                        for t in loop_trace(chains.assignment, word, chains.dim)]
    return values, accepted, sweeps * len(chains.sweep) * _CHAINS
