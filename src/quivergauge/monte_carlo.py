"""Haar sampling of block unitaries, Dirac assembly and Wilson-loop estimators.

Sampling is counter-based and reproducible: :class:`KeyedSampler` keys
every Haar block draw by (master seed, edge index, block index) with the
sample index as the Philox counter, so streams are identical for any worker
partition.  It is the only source of configurations.

Two estimators are provided for Boltzmann-weighted expectations:

* ``reweight`` - plain Haar draws reweighted by exp(-N S); exact in
  expectation at any sample size, efficient while N|S| stays moderate.
  Wilson loops and loop-equation residuals share one sampling loop and one
  weighted reduction.
* ``metropolis`` - a multiplicative random walk U <- exp(i eps H) U per
  block with step size tuned to 30-50% acceptance during burn-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .action import PlaquetteTable, loop_trace, plaquette_sum
from .bratteli import BratteliNetwork
from .loop_equations import LoopEquation
from .quiver import EdgeWord


def sample_haar(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary: QR of a complex Ginibre matrix with
    the diagonal phase correction that removes the factorization ambiguity."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@dataclass
class DiracSample:
    """One gauge configuration: a block-diagonal unitary per edge."""

    unitaries: dict[str, np.ndarray]
    dim: int


def _embed_blocks(blocks: Sequence[np.ndarray], mults: Sequence[int], dim: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=complex)
    pos = 0
    for u, r in zip(blocks, mults):
        n = u.shape[0]
        for _ in range(r):
            out[pos : pos + n, pos : pos + n] = u
            pos += n
    assert pos == dim
    return out


class KeyedSampler:
    """Reproducible per-sample gauge configurations from a master seed.

    Each Haar block draw i is Philox keyed by (seed, edge, block) at counter
    (0, 0, i, 0), independent of chunking or worker partition.  One bit
    generator per block is reused by resetting its counter state, which is
    stream-identical to constructing it fresh.
    """

    def __init__(self, net: BratteliNetwork, seed: int):
        self.net = net
        self.seed = int(seed)
        self._streams: dict[tuple[str, int], tuple] = {}
        for ei, eid in enumerate(net.quiver.edge_ids):
            tgt = net.quiver.target[eid]
            for bi in range(len(net.n[tgt])):
                key = np.random.SeedSequence([self.seed, ei, bi]).generate_state(2, np.uint64)
                bitgen = np.random.Philox(key=key)
                template = bitgen.state
                self._streams[(eid, bi)] = (key, bitgen, np.random.Generator(bitgen), template)

    def _rng_at(self, eid: str, bi: int, index: int) -> np.random.Generator:
        key, bitgen, gen, template = self._streams[(eid, bi)]
        state = dict(template)
        state["state"] = {
            "counter": np.array([0, 0, index, 0], dtype=np.uint64),
            "key": key,
        }
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        bitgen.state = state
        return gen

    def sample(self, index: int) -> DiracSample:
        unitaries = {}
        for eid in self.net.quiver.edge_ids:
            tgt = self.net.quiver.target[eid]
            blocks = [
                sample_haar(n, self._rng_at(eid, bi, index))
                for bi, n in enumerate(self.net.n[tgt])
            ]
            unitaries[eid] = _embed_blocks(blocks, self.net.r[tgt], self.net.dim)
        return DiracSample(unitaries=unitaries, dim=self.net.dim)


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


@dataclass
class EstimatorResult:
    """Normalised Wilson-loop estimate E[(1/N) Tr hol beta]."""

    mean: complex
    stderr: float
    samples: int
    effective_samples: float
    method: str
    acceptance: float | None = None


@dataclass
class ResidualResult:
    """Loop-equation residual lhs - rhs with its statistical error."""

    residual: complex
    stderr: float
    samples: int
    effective_samples: float


def _reweighted_traces(
    net: BratteliNetwork,
    table: PlaquetteTable,
    words: Sequence[tuple],
    samples: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Log weights -N S and normalised traces on keyed draws 0..samples-1.

    Returns ``logs`` of shape (samples,) and ``traces`` of shape
    (len(words), samples); the constant part of S shifts every log weight
    equally and is left out.
    """
    sampler = KeyedSampler(net, seed)
    dim = net.dim
    logs = np.empty(samples)
    traces = np.empty((len(words), samples), dtype=complex)
    for i in range(samples):
        u = sampler.sample(i).unitaries
        logs[i] = -dim * plaquette_sum(table, u, dim)
        for k, w in enumerate(words):
            traces[k, i] = loop_trace(u, w, dim) / dim
    return logs, traces


def _weighted_mean(
    logs: np.ndarray, values: np.ndarray, min_effective: float
) -> tuple[complex, float, float]:
    """Ratio estimate sum(w v)/sum(w) with w = exp(logs - max logs).

    Returns the mean, its delta-method error sqrt(sum w^2 |v - mean|^2)/sum(w)
    and the effective sample size (sum w)^2/sum w^2.  Sums run over real
    arrays, real and imaginary parts apart, so a constant observable gives
    its value and a zero error exactly.
    """
    w = np.exp(logs - logs.max())
    w_sum = w.sum()
    ess = float(w_sum * w_sum / (w * w).sum())
    if ess < min_effective:
        raise RuntimeError(
            f"effective sample size {ess:.1f} below threshold {min_effective}; "
            "increase samples or weaken the coupling"
        )
    re = (w * values.real).sum() / w_sum
    im = (w * values.imag).sum() / w_sum
    dev2 = (values.real - re) ** 2 + (values.imag - im) ** 2
    stderr = math.sqrt((w * w * dev2).sum()) / w_sum
    return complex(re, im), float(stderr), ess


def estimate_wilson(
    net: BratteliNetwork,
    table: PlaquetteTable,
    beta: EdgeWord,
    samples: int,
    seed: int,
    method: str = "reweight",
    burnin: int = 1000,
    thin: int = 10,
    min_effective: float = 100.0,
) -> EstimatorResult:
    """Boltzmann-weighted expectation of the normalised traced holonomy."""
    if net.quiver.is_closed(beta) is False:
        raise ValueError(f"Wilson word {beta} is not closed")
    if method == "reweight":
        logs, traces = _reweighted_traces(net, table, [beta.steps], samples, seed)
        mean, stderr, ess = _weighted_mean(logs, traces[0], min_effective)
        return EstimatorResult(
            mean=mean, stderr=stderr, samples=samples, effective_samples=ess, method="reweight"
        )
    if method == "metropolis":
        return _estimate_metropolis(net, table, beta.steps, samples, seed, burnin, thin)
    raise ValueError(f"unknown method {method!r}")


def _estimate_metropolis(
    net: BratteliNetwork,
    table: PlaquetteTable,
    word: tuple,
    samples: int,
    seed: int,
    burnin: int,
    thin: int,
) -> EstimatorResult:
    # batch means absorb residual autocorrelation
    n_batches = max(10, min(50, samples // 20))
    if samples < n_batches:
        raise ValueError(f"metropolis needs at least {n_batches} samples for its batch means")
    q = net.quiver
    dim = net.dim
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x4D43]))
    # initial configuration: identity blocks (cold start)
    state = {eid: [np.eye(n, dtype=complex) for n in net.n[q.target[eid]]] for eid in q.edge_ids}
    blocks = [(eid, bi) for eid in q.edge_ids for bi in range(len(state[eid]))]
    eps = dict.fromkeys(blocks, 0.5)

    def embedded(eid: str) -> np.ndarray:
        return _embed_blocks(state[eid], net.r[q.target[eid]], dim)

    assignment = {eid: embedded(eid) for eid in q.edge_ids}
    # S without its constant part, which cancels in every difference
    s_cur = plaquette_sum(table, assignment, dim)

    def propose(eid: str, bi: int) -> bool:
        nonlocal s_cur
        n = net.n[q.target[eid]][bi]
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (a + a.conj().T) / 2.0
        evals, vecs = np.linalg.eigh(h)
        v = (vecs * np.exp(1j * eps[(eid, bi)] * evals)) @ vecs.conj().T
        old_block = state[eid][bi]
        old_u = assignment[eid]
        state[eid][bi] = v @ old_block
        assignment[eid] = embedded(eid)
        s_new = plaquette_sum(table, assignment, dim)
        if rng.random() < math.exp(min(0.0, -dim * (s_new - s_cur))):
            s_cur = s_new
            return True
        state[eid][bi] = old_block
        assignment[eid] = old_u
        return False

    # burn-in with step-size tuning toward 30-50% acceptance over 100-sweep windows
    window = dict.fromkeys(blocks, 0)
    for sweep in range(burnin):
        for b in blocks:
            window[b] += propose(*b)
        if (sweep + 1) % 100 == 0:
            for b in blocks:
                rate = window[b] / 100
                if rate > 0.5:
                    eps[b] = min(eps[b] * 1.3, math.pi)
                elif rate < 0.3:
                    eps[b] /= 1.3
                window[b] = 0
    accepted = 0
    values = []
    for k in range(samples):
        for _ in range(thin):
            for b in blocks:
                accepted += propose(*b)
        values.append(loop_trace(assignment, word, dim) / dim)
    attempted = samples * thin * len(blocks)
    rate = accepted / attempted if attempted else 0.0
    if not 0.05 <= rate <= 0.95:
        raise RuntimeError(
            f"metropolis acceptance rate {rate:.1%} outside [5%, 95%] after tuning"
        )
    values = np.asarray(values)
    means = np.array([b.mean() for b in np.array_split(values, n_batches)])
    mean = complex(values.mean())
    stderr = float(
        np.sqrt((np.abs(means - mean) ** 2).sum() / (len(means) * (len(means) - 1)))
    )
    # the sample count whose independent draws would give the same stderr
    spread = float((np.abs(values - mean) ** 2).mean())
    return EstimatorResult(
        mean=mean,
        stderr=stderr,
        samples=samples,
        effective_samples=spread / stderr**2 if stderr > 0 else float(samples),
        method="metropolis",
        acceptance=rate,
    )


def check_loop_equation(
    net: BratteliNetwork,
    table: PlaquetteTable,
    eq: LoopEquation,
    samples: int,
    seed: int,
    min_effective: float = 100.0,
) -> ResidualResult:
    """Estimate lhs - rhs of a finite-N loop equation on one shared sample
    stream; correlated terms cancel most of the variance."""
    if eq.mode != "finite":
        raise ValueError("finite-N mode equation required")
    if not eq.lhs and not eq.rhs:
        # both sides structurally empty; nothing to estimate
        return ResidualResult(residual=0.0, stderr=0.0, samples=0, effective_samples=0.0)
    # distinct words appearing anywhere in the equation, traced once per draw
    steps = [w.steps for t in eq.lhs for w in t.words] + [t.word.steps for t in eq.rhs]
    words = list(dict.fromkeys(steps))
    row = {w: k for k, w in enumerate(words)}
    logs, traces = _reweighted_traces(net, table, words, samples, seed)
    residuals = np.zeros(samples, dtype=complex)
    for t in eq.lhs:
        residuals += t.coeff * traces[row[t.words[0].steps]] * traces[row[t.words[1].steps]]
    for t in eq.rhs:
        residuals -= float(eq.rhs_coefficient(table, t)) * traces[row[t.word.steps]]
    mean, stderr, ess = _weighted_mean(logs, residuals, min_effective)
    return ResidualResult(residual=mean, stderr=stderr, samples=samples, effective_samples=ess)
