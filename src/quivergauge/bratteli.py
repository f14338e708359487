"""Block-structure data on a quiver and the induced unitary ensemble.

Every vertex carries a finite-dimensional multi-matrix algebra
``⊕_j M(n_j)`` acting on ``⊕_j C^{r_j} ⊗ C^{n_j}``; every edge carries a
nonnegative integer transition matrix ``C_e`` that records how source
summands embed into target summands.  Consistency of the embeddings along
every edge forces

    r_src = C_e @ r_tgt      and      n_tgt = C_e.T @ n_src,

which in turn makes ``<n_v, r_v>`` a single integer ``N`` on a connected
quiver: the dimension every vertex Hilbert space shares.  The gauge degrees
of freedom are, per edge, one independent unitary block ``u_{e,j}`` of size
``n_{t(e),j}`` repeated ``r_{t(e),j}`` times along the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .quiver import Quiver


class NetworkError(ValueError):
    """Inconsistent block-structure data."""


@dataclass(frozen=True)
class BratteliNetwork:
    """Validated per-vertex (n, r) tuples and per-edge transition matrices."""

    quiver: Quiver
    n: dict[str, tuple[int, ...]]
    r: dict[str, tuple[int, ...]]
    C: dict[str, tuple[tuple[int, ...], ...]]
    dim: int  # the shared Hilbert-space dimension N = <n_v, r_v>

    def blocks(self, eid: str) -> tuple[tuple[int, int], ...]:
        """The (block size, multiplicity) pairs of edge ``eid``'s unitary, in
        target-summand order: U(n_{t(e),j}) repeated r_{t(e),j} times."""
        tgt = self.quiver.target[eid]
        return tuple(zip(self.n[tgt], self.r[tgt]))


def _as_int_tuple(name: str, seq: Sequence) -> tuple[int, ...]:
    try:
        out = tuple(int(v) for v in seq)
    except (TypeError, ValueError):
        raise NetworkError(f"{name} must be a sequence of integers") from None
    return out


def validate_network(q: Quiver, data: Mapping) -> BratteliNetwork:
    """Check the two transition equations on every edge.

    They give every edge <n_tgt, r_tgt> = <C^T n_src, r_tgt> = <n_src, r_src>,
    so on the connected quiver ``dim`` is <n, r> of the first vertex.
    ``data`` uses the job-file layout: ``l``/``n``/``r`` keyed by vertex,
    ``C`` keyed by edge with row-major rows indexed by source summands.
    """
    if not q.vertices:
        raise NetworkError("quiver has no vertices")
    if not q.connected:
        raise NetworkError("quiver is disconnected; block data requires a connected quiver")
    try:
        l_raw, n_raw, r_raw, c_raw = data["l"], data["n"], data["r"], data["C"]
    except KeyError as exc:
        raise NetworkError(f"network data missing section {exc}") from None

    l: dict[str, int] = {}
    n: dict[str, tuple[int, ...]] = {}
    r: dict[str, tuple[int, ...]] = {}
    for v in q.vertices:
        for section, store in (("l", l_raw), ("n", n_raw), ("r", r_raw)):
            if v not in store:
                raise NetworkError(f"network section {section!r} missing vertex {v!r}")
        l[v] = int(l_raw[v])
        if l[v] <= 0:
            raise NetworkError(f"l[{v!r}] must be positive")
        n[v] = _as_int_tuple(f"n[{v!r}]", n_raw[v])
        r[v] = _as_int_tuple(f"r[{v!r}]", r_raw[v])
        if len(n[v]) != l[v] or len(r[v]) != l[v]:
            raise NetworkError(
                f"vertex {v!r}: n and r must have l[{v!r}]={l[v]} entries, "
                f"got {len(n[v])} and {len(r[v])}"
            )
        if any(x <= 0 for x in n[v]) or any(x <= 0 for x in r[v]):
            raise NetworkError(f"vertex {v!r}: entries of n and r must be positive")

    C: dict[str, tuple[tuple[int, ...], ...]] = {}
    for eid in q.edge_ids:
        if eid not in c_raw:
            raise NetworkError(f"network section 'C' missing edge {eid!r}")
        src, tgt = q.source[eid], q.target[eid]
        rows = [_as_int_tuple(f"C[{eid!r}] row", row) for row in c_raw[eid]]
        if len(rows) != l[src] or any(len(row) != l[tgt] for row in rows):
            raise NetworkError(
                f"C[{eid!r}] must be {l[src]}x{l[tgt]} (source x target summands)"
            )
        if any(x < 0 for row in rows for x in row):
            raise NetworkError(f"C[{eid!r}] entries must be nonnegative")
        C[eid] = tuple(rows)

        # r_src = C_e r_tgt
        lhs = tuple(sum(C[eid][i][j] * r[tgt][j] for j in range(l[tgt])) for i in range(l[src]))
        if lhs != r[src]:
            raise NetworkError(
                f"edge {eid!r} violates r[{src!r}] = C @ r[{tgt!r}]: "
                f"C @ r gives {lhs}, expected {r[src]}"
            )
        # n_tgt = C_e^T n_src
        rhs = tuple(sum(C[eid][i][j] * n[src][i] for i in range(l[src])) for j in range(l[tgt]))
        if rhs != n[tgt]:
            raise NetworkError(
                f"edge {eid!r} violates n[{tgt!r}] = C^T @ n[{src!r}]: "
                f"C^T @ n gives {rhs}, expected {n[tgt]}"
            )

    v0 = q.vertices[0]
    return BratteliNetwork(quiver=q, n=n, r=r, C=C, dim=sum(a * b for a, b in zip(n[v0], r[v0])))


def _is_identity(c: tuple[tuple[int, ...], ...]) -> bool:
    return all(row == tuple(int(i == j) for j in range(len(c))) for i, row in enumerate(c))


def gauge_tree(b: BratteliNetwork) -> tuple[str, ...]:
    """Edges of the maximal tree whose unitaries a vertex gauge transform sets
    to 1, in declaration order.

    The tree grows from the first vertex over non-self-loop edges whose C_e
    is the identity (validation then gives both ends one (n, r) layout):
    passes over the edges in declaration order take each edge that reaches a
    new vertex, until a pass takes none.  Transforming each reached vertex by
    its tree-path product keeps every other edge in its Haar block ensemble
    unless an edge leaves the reached region, so then the tree is empty.
    """
    q = b.quiver
    eligible = [eid for eid, src, dst in q.edges if src != dst and _is_identity(b.C[eid])]
    region, tree = {q.vertices[0]}, set()
    grown = True
    while grown:
        grown = False
        for eid in eligible:
            ends = {q.source[eid], q.target[eid]}
            if len(ends & region) == 1:
                region |= ends
                tree.add(eid)
                grown = True
    if any(src in region and dst not in region for _, src, dst in q.edges):
        return ()
    return tuple(e for e in q.edge_ids if e in tree)
