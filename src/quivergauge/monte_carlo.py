"""Haar sampling of block unitaries and Wilson-loop estimators.

Every configuration is in the maximal-tree gauge: the edges of
:func:`~quivergauge.bratteli.gauge_tree` carry 1, which changes no closed
word's trace by Haar invariance, so only the other edges are drawn and the
action and the observables are traced as rewritten words in those edges
(:func:`~quivergauge.action.gauge_fixed_table`,
:func:`~quivergauge.quiver.gauge_fixed_steps`).  On the triangle this leaves
one unitary, e3, and the plaquettes e3+ and e3-.

Sampling is counter-based and reproducible: :class:`KeyedSampler` keys
every Haar block by (master seed, edge index, block index), and draw i owns
a fixed span of that Philox stream, so estimates do not depend on the
chunking or worker partition.  It is the only source of configurations.
Reweighting builds one :class:`~quivergauge.action.TracePlan` per estimate,
the action's words first, then the observable's, and runs it on trace
slices of max(1, 4096 // N**2) draws.  Draws come in spans of whole slices
whose off-tree blocks hold about 4096 entries (48 draws on the two-site
job, one slice on the triangle): per span and off-tree block one ``random``
call and one stacked QR, whose slices are traced as views.  The spans go
round-robin to the workers of :mod:`~quivergauge.forked`, one ``os.fork()``
child per CPU in the process's affinity mask, each pinned to its CPU, which
write their rows into arrays on anonymous shared maps.  The weighted
reduction runs in the caller over whole arrays in sample order, so every
result is bit-identical for any chunking or worker count; ``taskset -c 0``
runs it serially in the caller, as does a platform without
``os.sched_getaffinity``.

Two estimators are provided for Boltzmann-weighted expectations:

* ``reweight`` - plain Haar draws reweighted by exp(-N S); exact in
  expectation at any sample size, efficient while N|S| stays moderate.
  Wilson loops and loop-equation residuals share one sampling loop and one
  weighted reduction, which also reports the effective sample size and the
  largest weight's share of the total.
* ``metropolis`` - a multiplicative random walk U <- exp(i eps H) U per
  off-tree block, run as 10 independent chains on the same workers, with
  batch-means errors and R-hat across the chains; it lives in
  :mod:`~quivergauge.metropolis`, which is imported on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import forked
from .action import PlaquetteTable, TracePlan, action_plan, gauge_fixed_table, weighted_sum
from .bratteli import BratteliNetwork, gauge_tree
from .loop_equations import LoopEquation
from .quiver import EdgeWord, gauge_fixed_steps

# complex entries per chunk of dim x dim draws: enough to amortise numpy's
# per-call cost, few enough to add well under a megabyte to peak memory
_CHUNK_ENTRIES = 4096
# fewest effective samples a reweighted estimate may rest on
_MIN_EFFECTIVE = 100.0


def _haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a complex Ginibre stack (..., n, n): QR with the
    phase fix that makes the factors unique."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


@dataclass
class DiracSample:
    """One gauge configuration: a block-diagonal unitary per edge."""

    unitaries: dict[str, np.ndarray]


def _embed_blocks(blocks: Sequence[np.ndarray], layout: Sequence[tuple[int, int]]) -> np.ndarray:
    """Block-diagonal matrix of r copies of each n x n block, per leading batch
    index, for the (n, r) pairs of ``layout`` (:meth:`BratteliNetwork.blocks`)."""
    if len(layout) == 1 and layout[0][1] == 1:
        return blocks[0]  # a lone block is its own embedding, uncopied
    dim = sum(n * r for n, r in layout)
    out = np.zeros(blocks[0].shape[:-2] + (dim, dim), dtype=complex)
    pos = 0
    for u, (n, r) in zip(blocks, layout):
        for _ in range(r):
            out[..., pos : pos + n, pos : pos + n] = u
            pos += n
    return out


class KeyedSampler:
    """Reproducible per-sample gauge configurations from a master seed, in the
    maximal-tree gauge: the edges of ``tree`` (:func:`gauge_tree`) are 1.

    Each off-tree (edge, block) owns a Philox stream keyed by (seed, edge
    index, block), the edge's index among all edges; draw i of an n x n block
    spans B = ceil(n**2 / 2) counter blocks of 4 uniforms from counter
    (i*B, 0, 0, 0), the last 2 unused for odd n, so a chunk is one ``random``
    call per block.  Uniform pairs (u0, u1) give polar Box-Muller Ginibre
    entries sqrt(-log1p(-u0)) exp(2 pi i u1), E|z|^2 = 1.
    """

    def __init__(self, net: BratteliNetwork, seed: int):
        self.net = net
        self.tree = gauge_tree(net)
        self._streams: dict[tuple[str, int], tuple] = {}
        for ei, eid in enumerate(net.quiver.edge_ids):
            if eid in self.tree:
                continue
            for bi in range(len(net.blocks(eid))):
                key = np.random.SeedSequence([int(seed), ei, bi]).generate_state(2, np.uint64)
                bitgen = np.random.Philox(key=key)
                # the fresh state at counter 0; a chunk rewrites only counter[0]
                self._streams[(eid, bi)] = (bitgen, np.random.Generator(bitgen), bitgen.state)

    def sample_chunk(self, start: int, stop: int) -> dict[str, np.ndarray]:
        """Draws start..stop-1 as one (stop - start, dim, dim) stack per edge,
        a read-only identity stack on tree edges; row k equals
        ``sample(start + k)`` bit for bit."""
        if not 0 <= start <= stop:
            raise ValueError(f"sample range [{start}, {stop}) needs 0 <= start <= stop")
        dim = self.net.dim
        identity = np.broadcast_to(np.eye(dim, dtype=complex), (stop - start, dim, dim))
        unitaries = {}
        for eid in self.net.quiver.edge_ids:
            if eid in self.tree:
                unitaries[eid] = identity
                continue
            layout = self.net.blocks(eid)
            blocks = []
            for bi, (n, _) in enumerate(layout):
                bitgen, gen, state = self._streams[(eid, bi)]
                span = (n * n + 1) // 2
                state["state"]["counter"][0] = start * span
                bitgen.state = state
                u = gen.random((stop - start, 4 * span))[:, : 2 * n * n].reshape(-1, n, n, 2)
                z = np.sqrt(-np.log1p(-u[..., 0])) * np.exp(2j * np.pi * u[..., 1])
                blocks.append(_haar_from_ginibre(z))
            unitaries[eid] = _embed_blocks(blocks, layout)
        return unitaries

    def sample(self, index: int) -> DiracSample:
        chunk = self.sample_chunk(index, index + 1)
        return DiracSample(unitaries={e: u[0] for e, u in chunk.items()})


@dataclass
class EstimatorResult:
    """Normalised Wilson-loop estimate E[(1/N) Tr hol beta].

    ``stderr`` is the error of the complex ``mean``, with stderr**2 =
    stderr_re**2 + stderr_im**2; ``stderr_re`` and ``stderr_im`` are the
    errors of ``mean.real`` and ``mean.imag`` alone.
    """

    mean: complex
    stderr: float
    stderr_re: float
    stderr_im: float
    samples: int
    effective_samples: float
    method: str
    acceptance: float | None = None
    max_weight_share: float | None = None
    rhat: float | None = None


@dataclass
class ResidualResult:
    """Loop-equation residual lhs - rhs with its statistical error, which
    is that of the complex residual, as in :class:`EstimatorResult`."""

    residual: complex
    stderr: float
    samples: int
    effective_samples: float
    max_weight_share: float | None = None


def _gauge_fixed(tree: Sequence[str], table: PlaquetteTable, words: Sequence[tuple]) -> tuple:
    """The action plan of ``table`` and the ``words``, both rewritten for
    configurations whose ``tree`` edges (:func:`gauge_tree`) carry 1."""
    plan = action_plan(gauge_fixed_table(table, tree))
    return plan, [gauge_fixed_steps(w, tree) for w in words]


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
    equally and is left out.  The action and the words are traced as
    rewritten in the sampler's off-tree edges, by one :class:`TracePlan`
    whose action words come first.  Worker p of :func:`forked.workers` fills
    spans p, p + workers, ... in place, a trace slice at a time.
    """
    sampler = KeyedSampler(net, seed)
    (action, weights), words = _gauge_fixed(sampler.tree, table, words)
    dim = net.dim
    plan = TracePlan(action + words, dim)
    # traced in slices of dim x dim draws holding about _CHUNK_ENTRIES entries,
    # drawn in spans of whole slices whose off-tree blocks hold about as many
    size = max(1, _CHUNK_ENTRIES // dim**2)
    off_tree = (e for e in net.quiver.edge_ids if e not in sampler.tree)
    drawn = sum(n * n for e in off_tree for n, _ in net.blocks(e))
    span = size * max(1, _CHUNK_ENTRIES // (drawn * size)) if drawn else size
    starts = range(0, samples, span)
    workers = forked.workers(len(starts))
    # two maps, so that the caller can free the traces before the logs
    logs = forked.shared_array((samples,), float)
    traces = forked.shared_array((len(words), samples), complex)

    def fill(part: int) -> None:
        for a in starts[part::workers]:
            stop = min(a + span, samples)
            chunk = sampler.sample_chunk(a, stop)
            for s in range(a, stop, size):
                b = min(s + size, stop)
                t = plan.traces({e: u[s - a : b - a] for e, u in chunk.items()})
                with np.errstate(over="ignore", invalid="ignore"):  # refused in the caller
                    logs[s:b] = -dim * weighted_sum(weights, t)
                for k, tr in enumerate(t[len(action) :]):
                    # parts apart: numpy divides a complex array by the reciprocal of dim
                    traces[k, s:b].real = tr.real / dim
                    traces[k, s:b].imag = tr.imag / dim

    forked.run(fill, workers)
    return logs, traces


def _weighted_mean(
    logs: np.ndarray, values: np.ndarray
) -> tuple[complex, tuple[float, float, float], float, float]:
    """Ratio estimate sum(w v)/sum(w) with w = exp(logs - max logs).

    Returns the mean; its delta-method errors sqrt(sum w^2 |v - mean|^2)/sum(w)
    of the complex mean, and the same with the real and with the imaginary
    part of v - mean alone; the effective sample size (sum w)^2/sum w^2; and
    the largest weight's share max(w)/sum(w).  Sums run over real arrays,
    real and imaginary parts apart, so a constant observable gives its value
    and zero errors exactly.  Log weights that overflowed are refused.
    """
    top = logs.max()
    if not (math.isfinite(top) and math.isfinite(logs.min())):  # any NaN or inf
        raise OverflowError("log weights -N S overflow float arithmetic; weaken the coupling")
    with np.errstate(over="ignore"):  # a spread beyond float range is a weight of 0
        w = np.exp(logs - top)
    w_sum = w.sum()
    ess = float(w_sum * w_sum / (w * w).sum())
    if ess < _MIN_EFFECTIVE:
        raise RuntimeError(
            f"effective sample size {ess:.1f} below threshold {_MIN_EFFECTIVE}; "
            "increase samples or weaken the coupling"
        )
    re = (w * values.real).sum() / w_sum
    im = (w * values.imag).sum() / w_sum

    def error(dev2: np.ndarray) -> float:
        return float(math.sqrt((w * w * dev2).sum()) / w_sum)

    # squared deviations are built per error, so no two are held at once
    errors = (
        error((values.real - re) ** 2 + (values.imag - im) ** 2),
        error((values.real - re) ** 2),
        error((values.imag - im) ** 2),
    )
    return complex(re, im), errors, ess, float(w.max() / w_sum)


def _check_count(name: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def estimate_wilson(
    net: BratteliNetwork,
    table: PlaquetteTable,
    beta: EdgeWord,
    samples: int,
    seed: int,
    method: str = "reweight",
    burnin: int = 1000,
    thin: int = 10,
) -> EstimatorResult:
    """Boltzmann-weighted expectation of the normalised traced holonomy."""
    if net.quiver.is_closed(beta) is False:
        raise ValueError(f"Wilson word {beta} is not closed")
    _check_count("samples", samples, 1)
    _check_count("seed", seed, 0)
    _check_count("burnin", burnin, 0)
    _check_count("thin", thin, 1)
    if method == "reweight":
        logs, traces = _reweighted_traces(net, table, [beta.steps], samples, seed)
        mean, (stderr, stderr_re, stderr_im), ess, share = _weighted_mean(logs, traces[0])
        return EstimatorResult(
            mean=mean, stderr=stderr, stderr_re=stderr_re, stderr_im=stderr_im, samples=samples,
            effective_samples=ess, method="reweight", max_weight_share=share,
        )
    if method == "metropolis":
        # imported on first use, since it imports this module; runs that
        # only reweight never compile it
        from . import metropolis

        return metropolis.estimate(net, table, beta.steps, samples, seed, burnin, thin)
    raise ValueError(f"unknown method {method!r}")


def check_loop_equation(
    net: BratteliNetwork,
    table: PlaquetteTable,
    eq: LoopEquation,
    samples: int,
    seed: int,
) -> ResidualResult:
    """Estimate lhs - rhs of a finite-N loop equation on one shared sample
    stream; correlated terms cancel most of the variance."""
    if eq.mode != "finite":
        raise ValueError("finite-N mode equation required")
    _check_count("samples", samples, 1)
    _check_count("seed", seed, 0)
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
    del traces  # freed before the weighted reduction allocates, which lowers peak memory
    mean, (stderr, _, _), ess, share = _weighted_mean(logs, residuals)
    return ResidualResult(mean, stderr, samples, ess, max_weight_share=share)
