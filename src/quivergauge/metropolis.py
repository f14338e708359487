"""Metropolis estimates of trace polynomials, a Wilson loop's or a loop
equation's lhs - rhs alike, in the maximal-tree gauge of
:mod:`~quivergauge.monte_carlo`: 10 chains of random walks U <- R U on the
sites of :meth:`~quivergauge.bratteli.BratteliNetwork.sites`, R = V diag(exp(i
eps theta)) V^-1 with V Haar and theta normal, each (chain, site) drawing
from its own keyed stream.  Proposals are prepared whole sweeps at a time.
Trial actions and end-of-sweep measurements run prebuilt
:class:`~quivergauge.action.TracePlan`s, and the polynomials share
reweighting's evaluator.  The chains go round-robin to the workers of
:mod:`~quivergauge.forked`; every result is bit-identical for any batch size
or worker count.  Each chain tunes its own steps in burn-in, up to pi; the
error comes from batch means inside each chain, with the R-hat across them.
The caller's one set-up (:func:`~quivergauge.monte_carlo._gauge_fixed`) refuses
an action whose differences could overflow a float; the workers build none.
"""

from __future__ import annotations

import math

import numpy as np

from . import forked
from .action import TracePlan, weighted_sum
from .bratteli import BratteliNetwork
from .haar import _ginibre, _haar_from_ginibre, _philox
from .monte_carlo import _CHUNK_ENTRIES, EstimatorResult, _evaluate

# independent Metropolis chains, stacked on a leading axis
_CHAINS = 10


def _stream(seed: int, chain: int, edge: int, block: int) -> np.random.Generator:
    """The Philox stream of one chain's proposals on one site, keyed by
    (seed, chain, edge index, block) as
    :class:`~quivergauge.haar.KeyedSampler` keys its blocks; the tag 0x4D43
    sets the chains' keys apart from the sampler's."""
    return np.random.Generator(_philox([int(seed), 0x4D43, chain, edge, block]))


def _rhat(chains: np.ndarray) -> float | None:
    """Gelman-Rubin potential scale reduction of draws (chains, n).

    Deviations enter as |.|^2, so a complex observable counts both parts.
    None when it is undefined: a chain with fewer than two draws, or no
    spread within the chains.
    """
    m, n = chains.shape
    if n < 2:
        return None
    means = chains.mean(axis=1)
    within = (np.abs(chains - means[:, None]) ** 2).sum() / (m * (n - 1))
    if within == 0:
        return None
    between_n = (np.abs(means - means.mean()) ** 2).sum() / (m - 1)  # B / n
    return math.sqrt(((n - 1) / n * within + between_n) / within)


def _rotation(v: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """V diag(exp(i angles)) V^-1 for a unitary stack V (..., n, n)."""
    return (v * np.exp(1j * angles)[..., None, :]) @ v.conj().swapaxes(-1, -2)


class _Chains:
    """The ``rows`` slice of the ``_CHAINS`` Metropolis chains, ``count`` of
    them, stacked on a leading axis.

    ``assignment`` is the chains' one state: a stack per off-tree edge (the
    tree edges stay 1), cold-started at the identity; one proposal rotates one
    block in every chain and writes it into each copy.  A ``sweep`` still
    makes one proposal per block of the whole network: the tree blocks' turns
    go round the off-tree blocks, so burn-in and thinning keep their meaning
    (on the triangle, a proposal on e1 or e2 moved the holonomy by a step of
    the same law as one on e3).  ``s`` is the batched ``weighted_sum`` of the
    gauge-fixed table: the action without its constant part, which cancels
    in every difference, run through the prebuilt plan ``action``.  The
    caller's ``setup`` (:func:`~quivergauge.monte_carlo._gauge_fixed`) gives
    ``plan``, the sites, whose block sizes and copy slices ``copies`` holds
    by (edge, block), and ``words``, the distinct words of the measured
    polynomials, traced on ``assignment`` by the one plan ``measure``;
    ``terms`` index them.

    A proposal on an n x n site is R = V diag(exp(i eps theta)) V^-1: V is
    Haar, and theta_k are independent normals of variance n, the mean
    squared eigenvalue of the Hermitian (A + A^dagger) / 2 for a Ginibre A
    with E|a|^2 = 2, so eps has the scale of a step exp(i eps H).  The same
    V with -theta gives R^-1, so the proposal is symmetric.  Each proposal
    reads 2n^2 + 2n + 1 uniforms in turn from the stream of its (chain,
    site) in ``streams`` (:func:`_stream`): n^2 Box-Muller pairs for V's
    Ginibre matrix, n pairs whose real parts give theta, then the accept
    uniform.  A chain moves the same whichever chains share its copy.
    """

    def __init__(self, net: BratteliNetwork, setup: tuple, seed: int, rows=slice(None)):
        self.dim = net.dim
        self.plan, self.words, self.terms, sites = setup
        self.action = TracePlan(self.plan[0], self.dim)
        self.measure = TracePlan(self.words, self.dim)
        self.rows, self.count = rows, len(range(_CHAINS)[rows])
        self.copies = {(eid, bi): (n, copies) for eid, _, bi, n, copies in sites}
        self.sites = list(self.copies)
        self.streams = {
            (eid, bi): [_stream(seed, c, ei, bi) for c in range(_CHAINS)[rows]]
            for eid, ei, bi, _, _ in sites
        }
        n_blocks = sum(len(net.blocks(eid)) for eid in net.quiver.edge_ids)
        self.sweep = [self.sites[k % len(self.sites)] for k in range(n_blocks)] if self.sites else []
        self.eps = {b: np.full(self.count, 0.5) for b in self.sites}
        identity = np.tile(np.eye(self.dim, dtype=complex), (self.count, 1, 1))
        self.assignment = {eid: identity.copy() for eid, bi in self.sites if bi == 0}
        self.s = weighted_sum(self.plan[1], self.action.traces(self.assignment))

    def _prepare(self, sweeps: int) -> dict:
        """Per site, an iterator over its proposals' rotations and accept
        uniforms in ``sweeps`` sweeps, for this copy's chains: per site, one
        ``random`` call per chain, one Gram-Schmidt and one product."""
        prepared = {}
        for b in self.sites:
            n, m = self.copies[b][0], sweeps * self.sweep.count(b)
            u = np.stack([gen.random((m, 2 * n * n + 2 * n + 1)) for gen in self.streams[b]])
            z = _ginibre(u[..., :-1].reshape(self.count, m, n * n + n, 2))
            v = _haar_from_ginibre(z[..., : n * n].reshape(self.count, m, n, n))
            theta = math.sqrt(2 * n) * z[..., n * n :].real
            r = _rotation(v, self.eps[b][:, None, None] * theta)
            prepared[b] = zip(r.swapaxes(0, 1), u[..., -1].T)
        return prepared

    def burn_in(self, sweeps: int) -> None:
        """Make ``sweeps`` sweeps, tuning eps per chain and block toward 30-50%
        acceptance after each 100-sweep window; a low rate shrinks eps in
        proportion, so a strong coupling tunes in a few windows."""
        for _ in range(sweeps // 100):
            window = self.run(100)[0]
            for b in self.sites:
                rate, eps = window[b] / (100 * self.sweep.count(b)), self.eps[b]
                shrunk = np.where(rate < 0.3, eps * np.maximum(rate / 0.4, 0.1), eps)
                self.eps[b] = np.where(rate > 0.5, np.minimum(eps * 1.3, math.pi), shrunk)
        self.run(sweeps % 100)

    def run(self, sweeps: int, thin: int = 0) -> tuple[dict, np.ndarray]:
        """Make ``sweeps`` sweeps at the current step sizes, preparing proposals
        for as many whole sweeps at a time as about ``_CHUNK_ENTRIES`` complex
        entries of this copy's draws hold, at least one.  Returns each site's
        accepted proposals per chain and each polynomial on the chains at
        the end of every ``thin``-th sweep, (len(terms), count, sweeps // thin)."""
        entries = self.count * sum(self.copies[b][0] ** 2 for b in self.sweep)  # per sweep
        dim, batch = self.dim, max(1, _CHUNK_ENTRIES // max(entries, 1))  # sweeps per batch
        accepted = dict.fromkeys(self.sites, 0)
        values = np.empty((len(self.terms), self.count, sweeps // thin if thin else 0), complex)
        for start in range(0, sweeps, batch):
            prepared = self._prepare(min(batch, sweeps - start))
            for done in range(start + 1, min(start + batch, sweeps) + 1):
                for eid, bi in self.sweep:
                    rot, uniform = next(prepared[eid, bi])
                    edge, (n, copies) = self.assignment[eid], self.copies[eid, bi]
                    new = rot @ edge[:, copies[0], copies[0]]
                    trial = new if n == dim else edge.copy()
                    if n < dim:
                        for at in copies:
                            trial[:, at, at] = new
                    trial_state = {**self.assignment, eid: trial}
                    s_new = weighted_sum(self.plan[1], self.action.traces(trial_state))
                    accept = uniform < np.exp(np.minimum(0.0, -dim * (s_new - self.s)))
                    self.assignment[eid] = np.where(accept[:, None, None], trial, edge)
                    self.s = np.where(accept, s_new, self.s)
                    accepted[eid, bi] += accept
                if thin and done % thin == 0:
                    traces = self.measure.traces(self.assignment)
                    _evaluate(self.terms, traces, dim, values[..., done // thin - 1])
        return accepted, values


def _run_chains(
    net: BratteliNetwork, setup: tuple, seed: int, burnin: int, sweeps: int, thin: int
) -> tuple[np.ndarray, int, int]:
    """Burn in, then measure the one polynomial of the caller's ``setup``
    (:func:`~quivergauge.monte_carlo._gauge_fixed`) every ``thin`` of ``sweeps`` sweeps.
    Returns the measurements, (_CHAINS, sweeps // thin), and the proposals
    accepted and made after burn-in, whose rate tuning must leave in [5%, 95%].
    Worker p of :func:`forked.workers` runs chains p, p + workers, ... and
    writes their rows in place."""
    workers = forked.workers(_CHAINS)
    values = forked.shared_array((_CHAINS, sweeps // thin), complex)
    tally = forked.shared_array((3, _CHAINS), np.int64)  # accepted, made, some step below pi

    def work(part: int) -> None:
        rows = slice(part, _CHAINS, workers)
        chains = _Chains(net, setup, seed, rows)
        chains.burn_in(burnin)
        tally[2, rows] = np.any([eps < math.pi for eps in chains.eps.values()], axis=0)
        accepted, (values[rows],) = chains.run(sweeps, thin)  # the one polynomial's series
        tally[0, rows] = sum(accepted.values())
        tally[1, rows] = sweeps * len(chains.sweep)

    forked.run(work, workers)
    accepted, made = int(tally[0].sum()), int(tally[1].sum())
    # no proposal made (no off-tree block) leaves no rate to bound; once every
    # step is tuned up to its cap pi, a rate above 95% is a weak coupling's
    if made and not 0.05 <= accepted / made <= (0.95 if tally[2].any() else 1.0):
        raise RuntimeError(
            f"metropolis acceptance rate {accepted / made:.1%} outside [5%, 95%] after tuning"
        )
    return values, accepted, made


def estimate(
    net: BratteliNetwork, setup: tuple, samples: int, seed: int, burnin: int, thin: int
) -> EstimatorResult:
    """The Metropolis estimate of the one polynomial of the caller's ``setup``
    (:func:`~quivergauge.monte_carlo._gauge_fixed`): the body of either
    estimator's ``method="metropolis"``."""
    # batch means absorb residual autocorrelation; no batch spans two chains
    n_batches = max(10, min(50, samples // 20))
    if samples < n_batches:
        raise ValueError(f"metropolis needs at least {n_batches} samples for its batch means")
    # chain c keeps the first counts[c] of its measurements, samples in all
    counts = [len(c) for c in np.array_split(range(samples), _CHAINS)]
    sweeps = counts[0] * thin
    values, accepted, attempted = _run_chains(net, setup, seed, burnin, sweeps, thin)
    # no off-tree block: nothing moves, as when every proposal is accepted
    rate = accepted / attempted if attempted else 1.0
    runs = [values[c, :m] for c, m in enumerate(counts)]
    per_run = [len(c) for c in np.array_split(range(n_batches), _CHAINS)]
    means = np.array([b.mean() for run, nb in zip(runs, per_run) for b in np.array_split(run, nb)])
    flat = np.concatenate(runs)
    mean = complex(flat.mean())
    stderr, stderr_re, stderr_im = (
        float(np.sqrt((d**2).sum() / (len(means) * (len(means) - 1))))
        for d in (np.abs(means - mean), means.real - mean.real, means.imag - mean.imag)
    )
    # the sample count whose independent draws would give the same stderr
    spread = float((np.abs(flat - mean) ** 2).mean())
    return EstimatorResult(
        mean=mean, stderr=stderr, stderr_re=stderr_re, stderr_im=stderr_im, samples=samples,
        effective_samples=spread / stderr**2 if stderr > 0 else float(samples),
        method="metropolis", acceptance=rate, rhat=_rhat(values[:, : counts[-1]]),
    )
