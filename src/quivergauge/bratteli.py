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

# (block size, multiplicity) pairs of a block group, in summand order
Layout = tuple[tuple[int, int], ...]


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

    def layout(self, v: str) -> Layout:
        """The (block size, multiplicity) pairs of vertex ``v``'s block group,
        in summand order: U(n_{v,j}) repeated r_{v,j} times."""
        return tuple(zip(self.n[v], self.r[v]))

    def blocks(self, eid: str) -> Layout:
        """The (block size, multiplicity) pairs of edge ``eid``'s unitary: the
        layout of its target's block group."""
        return self.layout(self.quiver.target[eid])


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


def _contained(inner: Layout | None, outer: Layout) -> bool:
    """Whether the block group of layout ``inner`` (None: the trivial group)
    lies in that of ``outer``; both are :meth:`BratteliNetwork.layout` pairs
    of one dimension.

    It does when every outer block boundary is an inner one and, within each
    outer summand, every copy holds the same sequence of inner summands: U(2)
    twice lies in U(4), U(2) four times in U(4) twice, but two independent
    U(2) blocks, each twice, do not lie in U(4) twice.
    """
    if inner is None:
        return True
    cells = iter([(j, n) for j, (n, r) in enumerate(inner) for _ in range(r)])
    for n, r in outer:
        copies = set()
        for _ in range(r):
            seq, size = [], 0
            while size < n:
                j, m = next(cells)
                seq.append(j)
                size += m
            if size != n:
                return False
            copies.add(tuple(seq))
        if len(copies) > 1:
            return False
    return True


def gauge_tree(b: BratteliNetwork) -> tuple[str, ...]:
    """Edges of the maximal tree whose unitaries a vertex gauge transform sets
    to 1, in declaration order.

    Each edge f: s -> t carries U_f in the block group G_t of its target,
    and the transform U_f -> P_s U_f P_t^-1 keeps it Haar on G_t when P_s
    and P_t lie in G_t.  The tree grows from the first vertex, whose P is
    1: passes over the edges in declaration order take each non-self-loop
    edge e with a reached end u and a new end w when P_u's group lies in
    G_t(e) and G_t(e) lies in G_w, until a pass takes none; w's P then lies
    in G_t(e).  If afterwards some other edge f has P_s outside G_t, the
    tree is empty.  The tree depends on the order of the vertices.
    """
    q = b.quiver
    # reached vertex -> layout of the group that holds its P; None where P = 1
    held = {q.vertices[0]: None}
    tree = set()
    grown = True
    while grown:
        grown = False
        for eid, src, dst in q.edges:
            if src == dst or (src in held) == (dst in held):
                continue
            u, w = (src, dst) if src in held else (dst, src)
            if _contained(held[u], b.blocks(eid)) and _contained(b.blocks(eid), b.layout(w)):
                held[w] = b.blocks(eid)
                tree.add(eid)
                grown = True
    # an unreached vertex keeps P = 1, like the first
    if not all(_contained(held.get(s), b.blocks(e)) for e, s, _ in q.edges if e not in tree):
        return ()
    return tuple(e for e in q.edge_ids if e in tree)
