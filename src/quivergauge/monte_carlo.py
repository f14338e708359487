"""Boltzmann-weighted expectations of trace polynomials on keyed Haar draws.

A Wilson loop and a loop equation's lhs - rhs are both polynomials in
normalised traces, terms (c, w1, w2 or None) meaning the sum of
c (1/N)Tr w1 (1/N)Tr w2; either method sets them up by :func:`_gauge_fixed`
and evaluates them by :func:`_evaluate`.  ``estimate_wilson`` and
``check_loop_equation`` call one estimator body, by either method:

* ``reweight`` - plain Haar draws reweighted by exp(-N S); exact in
  expectation at any sample size, efficient while N|S| stays moderate; one
  weighted reduction also reports the effective sample size and the
  largest weight's share of the total.
* ``metropolis`` - 10 chains of random walks U <- R U per off-tree block,
  with batch-means errors and R-hat across the chains, in
  :mod:`~quivergauge.metropolis`, which is imported on first use.

Both return an :class:`EstimatorResult`, whose ``residual`` names a loop
equation's lhs - rhs.  Each estimator call builds one set-up in the caller,
before any draw or fork (:func:`_gauge_fixed`), which refuses an action whose
log weights could leave the float range; forked workers build none.

Every configuration is in the maximal-tree gauge: the edges of
:func:`~quivergauge.bratteli.gauge_tree` carry 1, which changes no closed
word's trace by Haar invariance, so only the other edges are drawn and the
action and the words are traced rewritten in those edges
(:func:`~quivergauge.action.gauge_fixed_table`,
:func:`~quivergauge.quiver.gauge_fixed_steps`).

Reweighting draws from :class:`~quivergauge.haar.KeyedSampler`, whose draw i
does not depend on which other draws are made, and runs one
:class:`~quivergauge.action.TracePlan` (the action's words, then the
polynomials') on trace slices of max(1, 4096 // N**2) draws, evaluating the
polynomials where each slice is traced.  Draws come in spans of whole slices
whose off-tree blocks hold about 4 x 4096 entries: per span and block one
``random`` call and one batched Gram-Schmidt.  The spans go round-robin to
the workers of :mod:`~quivergauge.forked`, one ``os.fork()`` child per CPU in
the affinity mask, which write their rows into shared arrays; the weighted
reduction runs in the caller in sample order, so every result is
bit-identical for any chunking or worker count, and ``taskset -c 0`` runs
it serially in the caller.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import forked
from .action import PlaquetteTable, TracePlan, action_plan, gauge_fixed_table, weighted_sum
from .bratteli import BratteliNetwork, gauge_tree
from .haar import KeyedSampler
from .loop_equations import LoopEquation
from .quiver import EdgeWord, gauge_fixed_steps

# complex entries per chunk of dim x dim draws: enough to amortise numpy's
# per-call cost, few enough to add well under a megabyte to peak memory
_CHUNK_ENTRIES = 4096
# fewest effective samples a reweighted estimate may rest on
_MIN_EFFECTIVE = 100.0
# the refusal of an action that float arithmetic cannot weigh, by either estimator
_OVERFLOW = "log weights -N S overflow float arithmetic; weaken the coupling"


@dataclass
class EstimatorResult:
    """Estimate of a trace polynomial's Boltzmann-weighted expectation, a
    Wilson loop's E[(1/N) Tr hol beta] or a loop equation's lhs - rhs.

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

    @property
    def residual(self) -> complex:
        """The ``mean``, read as a loop equation's lhs - rhs."""
        return self.mean


def _gauge_fixed(net: BratteliNetwork, table: PlaquetteTable, polys: Sequence[tuple]) -> tuple:
    """Either estimator's one set-up, built in the caller before any draw or
    fork, where the :func:`~quivergauge.bratteli.gauge_tree` edges carry 1:
    the gauge-fixed ``table``'s action plan, the distinct words of ``polys``
    in order of appearance rewritten for that tree, each polynomial's terms
    (c, w1, w2 or None) with float c and word rows, and ``net.sites(tree)``.
    It refuses an action float arithmetic cannot weigh: |Re Tr U| <= N, so no
    log weight -N S, spread of two or N times an action difference exceeds
    2 N^2 sum |g| over the gauge-fixed table, summed here in exact fractions."""
    tree = gauge_tree(net)
    fixed = gauge_fixed_table(table, tree)
    if 2 * net.dim**2 * sum(abs(g) for g in fixed.entries.values()) > sys.float_info.max:
        raise OverflowError(_OVERFLOW)
    words = list(dict.fromkeys(w for p in polys for _, a, b in p for w in (a, b) if w is not None))
    row = {w: k for k, w in enumerate(words)} | {None: None}
    terms = [[(float(c), row[a], row[b]) for c, a, b in p] for p in polys]
    return action_plan(fixed), [gauge_fixed_steps(w, tree) for w in words], terms, net.sites(tree)


def _evaluate(terms: list, raw: Sequence[np.ndarray], dim: int, out: np.ndarray) -> None:
    """Write each polynomial's indexed ``terms`` into its row of ``out``,
    summed from zero in term order, on its words' raw traces ``raw`` divided
    by N part by part (numpy would multiply a complex array by 1 / N); a 0-d
    trace, as an all-tree network gives, fills its row."""
    raw = np.array(raw)
    traces = np.empty(raw.shape, complex)
    traces.real, traces.imag = raw.real / dim, raw.imag / dim
    for row, p in zip(out, terms):
        row[...] = 0
        for c, a, b in p:
            row += c * traces[a] if b is None else c * traces[a] * traces[b]


def _reweighted_traces(
    net: BratteliNetwork, setup: tuple, samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Log weights -N S and the polynomials of the set-up ``setup``
    (:func:`_gauge_fixed`) on keyed draws 0..samples-1.

    Returns ``logs`` of shape (samples,) and ``values`` of shape
    (polynomials, samples).  Each slice's values are formed where it is
    traced, so only they are shared and read by the caller.  The constant
    part of S shifts every log weight equally and is left out.  The action
    and the distinct words are traced as rewritten in the sampler's
    off-tree edges, by one :class:`TracePlan` whose action words come first.
    Worker p of :func:`forked.workers` fills spans p, p + workers, ... in
    place, a trace slice at a time.
    """
    sampler = KeyedSampler(net, seed)
    (action, weights), words, terms, sites = setup
    dim = net.dim
    plan = TracePlan(action + words, dim)
    # traced in slices of dim x dim draws holding about _CHUNK_ENTRIES entries,
    # drawn in spans of whole slices whose off-tree blocks hold about four
    # times as many, since the Haar kernel's numpy calls are per column
    size = max(1, _CHUNK_ENTRIES // dim**2)
    drawn = sum(n * n for _, _, _, n, _ in sites)
    span = size * max(1, 4 * _CHUNK_ENTRIES // (drawn * size)) if drawn else size
    starts = range(0, samples, span)
    workers = forked.workers(len(starts))
    logs = forked.shared_array((samples,), float)
    values = forked.shared_array((len(terms), samples), complex)

    def fill(part: int) -> None:
        for a in starts[part::workers]:
            stop = min(a + span, samples)
            chunk = sampler.sample_chunk(a, stop)
            for s in range(a, stop, size):
                b = min(s + size, stop)
                t = plan.traces({e: u[s - a : b - a] for e, u in chunk.items()})
                logs[s:b] = -dim * weighted_sum(weights, t)
                _evaluate(terms, t[len(action) :], dim, values[:, s:b])

    forked.run(fill, workers)
    return logs, values


def _weighted_mean(
    logs: np.ndarray, values: np.ndarray
) -> tuple[complex, tuple[float, float, float], float, float]:
    """Ratio estimate sum(w v)/sum(w) with w = exp(logs - max logs).

    Returns the mean; its delta-method errors sqrt(sum w^2 |v - mean|^2)/sum(w)
    of the complex mean, and the same with the real and with the imaginary
    part of v - mean alone; the effective sample size (sum w)^2/sum w^2; and
    the largest weight's share max(w)/sum(w).  Sums run over real arrays,
    real and imaginary parts apart, so a constant observable gives its value
    and zero errors exactly.
    """
    w = np.exp(logs - logs.max())
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


def _check_args(samples: int, seed: int, burnin: int, thin: int, method: str) -> None:
    for name, value, least in (
        ("samples", samples, 1), ("seed", seed, 0), ("burnin", burnin, 0), ("thin", thin, 1)
    ):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    if method not in ("reweight", "metropolis"):
        raise ValueError(f"unknown method {method!r}")


def _estimate(
    net: BratteliNetwork, table: PlaquetteTable, poly: tuple, samples: int, seed: int,
    method: str, burnin: int, thin: int,
) -> EstimatorResult:
    """The one estimator body: the Boltzmann-weighted expectation of the
    polynomial ``poly`` in normalised traces, set up once (:func:`_gauge_fixed`)
    after the argument checks; one with no terms is 0, with nothing drawn."""
    _check_args(samples, seed, burnin, thin, method)
    setup = _gauge_fixed(net, table, [poly])
    if not poly:
        return EstimatorResult(mean=0j, stderr=0.0, stderr_re=0.0, stderr_im=0.0, samples=0,
                               effective_samples=0.0, method=method)
    if method == "metropolis":
        # imported on first use, since it imports this module; runs that
        # only reweight never compile it
        from . import metropolis

        return metropolis.estimate(net, setup, samples, seed, burnin, thin)
    logs, values = _reweighted_traces(net, setup, samples, seed)
    mean, (stderr, stderr_re, stderr_im), ess, share = _weighted_mean(logs, values[0])
    return EstimatorResult(
        mean=mean, stderr=stderr, stderr_re=stderr_re, stderr_im=stderr_im, samples=samples,
        effective_samples=ess, method="reweight", max_weight_share=share,
    )


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
    return _estimate(net, table, ((1, beta.steps, None),), samples, seed, method, burnin, thin)


def check_loop_equation(
    net: BratteliNetwork,
    table: PlaquetteTable,
    eq: LoopEquation,
    samples: int,
    seed: int,
    method: str = "reweight",
    burnin: int = 1000,
    thin: int = 10,
) -> EstimatorResult:
    """Estimate lhs - rhs of a finite-N loop equation, read as the result's
    ``residual``: one polynomial in the traces of one sample stream;
    correlated terms cancel most of the variance."""
    if eq.mode != "finite":
        raise ValueError("finite-N mode equation required")
    return _estimate(net, table, eq.polynomial(table), samples, seed, method, burnin, thin)
