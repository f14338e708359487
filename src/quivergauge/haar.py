"""Keyed Haar sampling of block unitaries: the configurations of reweighted
Monte Carlo.

:class:`KeyedSampler` keys every Haar site of :attr:`BratteliNetwork.sites`
by (master seed, edge index, block index), and draw i owns a fixed span of
that Philox stream, so estimates do not depend on the chunking or worker
partition.  A block is the Q of a Ginibre QR with a positive diagonal on R
(Mezzadri 2007), formed for a whole stack without LAPACK by :func:`_haar_from_ginibre`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bratteli import BratteliNetwork


def _haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a complex Ginibre stack (..., n, n): the Q of its QR
    factorisation with a positive diagonal on R, which makes the factors unique.

    One classical Gram-Schmidt over the whole stack, column by column: two
    projection passes, which keep Q orthogonal to working precision, then a
    normalisation, whose norm is R's real positive diagonal.  A column left
    with at most 1e-8 of its norm by the projections is refused.  Every einsum
    iterates in C order, its summed index innermost, so each matrix's Q has the
    same bits in a stack of any size.
    """
    shape, n = z.shape, z.shape[-1]
    z = z.reshape(-1, n, n)
    q, qc = np.empty_like(z), np.empty_like(z)  # Q and its conjugate
    before = np.einsum("kij,kij->kj", z.conj(), z, order="C").real
    for j in range(n):
        v = z[:, :, j]
        for _ in range(2 if j else 0):
            c = np.einsum("kij,ki->kj", qc[:, :, :j], v, order="C")
            v = v - np.einsum("kij,kj->ki", q[:, :, :j], c, order="C")
        r2 = np.einsum("ki,ki->k", v.conj(), v, order="C").real
        if not np.all(r2 > 1e-16 * before[:, j]):  # also refuses NaN
            raise np.linalg.LinAlgError(f"Ginibre column {j} depends on the columns before it")
        r = np.sqrt(r2)[:, None]
        np.divide(v.real, r, out=q[:, :, j].real)  # parts apart, each one rounding
        np.divide(v.imag, r, out=q[:, :, j].imag)
        np.conjugate(q[:, :, j], out=qc[:, :, j])
    return q.reshape(shape)


def _ginibre(u: np.ndarray) -> np.ndarray:
    """Complex Ginibre entries, E|z|^2 = 1, from uniform pairs u[..., :2] by
    polar Box-Muller: sqrt(-log1p(-u0)) exp(2 pi i u1), elementwise, so each
    entry has the same bits in an array of any shape."""
    # exp(2 pi i u1) = ((1 - w^2) + 2iw) / (1 + w^2) from w = tan(pi u1): one
    # tan, which numpy vectorises, where cos and sin are two scalar libm calls
    w = np.tan(np.pi * u[..., 1])
    w2 = w * w
    r = np.sqrt(-np.log1p(-u[..., 0])) / (1 + w2)
    z = np.empty(r.shape, complex)
    z.real = r * (1 - w2)
    z.imag = r * (2 * w)
    return z


def _philox(entropy: list[int]) -> np.random.Philox:
    """Every keyed stream's bit generator: Philox at counter 0 keyed by SeedSequence(entropy)."""
    return np.random.Philox(key=np.random.SeedSequence(entropy).generate_state(2, np.uint64))


@dataclass
class DiracSample:
    """One gauge configuration: a block-diagonal unitary per edge."""

    unitaries: dict[str, np.ndarray]


class KeyedSampler:
    """Reproducible per-sample gauge configurations from a master seed, in the
    network's maximal-tree gauge: the edges of :attr:`BratteliNetwork.tree` are 1.

    Each off-tree (edge, block) of :attr:`BratteliNetwork.sites` owns a Philox
    stream keyed by (seed, edge index, block); draw i of an n x n block spans
    B = ceil(n**2 / 2) counter blocks of 4 uniforms from counter
    (i*B, 0, 0, 0), the last 2 unused for odd n, so a chunk is one ``random``
    call per block.  Uniform pairs give polar Box-Muller Ginibre entries
    (:func:`_ginibre`); each block is written into its copies' slices.
    """

    def __init__(self, net: BratteliNetwork, seed: int):
        self.net = net
        self._streams: dict[tuple[str, int], tuple] = {}
        for eid, ei, bi, _, _ in net.sites:
            bitgen = _philox([int(seed), ei, bi])
            # the fresh state at counter 0; a chunk rewrites only counter[0]
            self._streams[(eid, bi)] = (bitgen, np.random.Generator(bitgen), bitgen.state)

    def sample_chunk(self, start: int, stop: int) -> dict[str, np.ndarray]:
        """Draws start..stop-1 as one (stop - start, dim, dim) stack per edge, in
        edge order, read-only identities on tree edges and a lone N x N block's
        own stack elsewhere; row k equals ``sample(start + k)`` bit for bit."""
        if not 0 <= start <= stop:
            raise ValueError(f"sample range [{start}, {stop}) needs 0 <= start <= stop")
        dim = self.net.dim
        identity = np.broadcast_to(np.eye(dim, dtype=complex), (stop - start, dim, dim))
        unitaries = dict.fromkeys(self.net.quiver.edge_ids, identity)
        for eid, _, bi, n, copies in self.net.sites:
            bitgen, gen, state = self._streams[(eid, bi)]
            span = (n * n + 1) // 2
            state["state"]["counter"][0] = start * span
            bitgen.state = state
            u = gen.random((stop - start, 4 * span))[:, : 2 * n * n].reshape(-1, n, n, 2)
            block = _haar_from_ginibre(_ginibre(u))
            if n == dim:
                unitaries[eid] = block
                continue
            if unitaries[eid] is identity:
                unitaries[eid] = np.zeros((stop - start, dim, dim), dtype=complex)
            for at in copies:
                unitaries[eid][:, at, at] = block
        return unitaries

    def sample(self, index: int) -> DiracSample:
        chunk = self.sample_chunk(index, index + 1)
        return DiracSample(unitaries={e: u[0] for e, u in chunk.items()})
