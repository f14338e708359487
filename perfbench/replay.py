"""Per-layer timings read from outside the program by replaying its steps.

A layer that the program calls from inside another (walk enumeration
inside ``expand_action``, Bessel series inside ``first_moment_curve``,
Haar sampling and holonomy traces inside the Monte Carlo estimators) is
timed by calling the same public functions again, in the same order and
on the same inputs, right after the real call.  The Monte Carlo replay
also redoes the estimator's reduction over the replayed draws, so the
distance of its mean to the program's own estimate proves that the timed
draws are the ones the estimator used.
"""

from __future__ import annotations

import time

import numpy as np

from quivergauge import bootstrap, gww
from quivergauge.action import loop_trace
from quivergauge.monte_carlo import KeyedSampler
from quivergauge.quiver import cyclic_canonical, enumerate_closed_walks

from tracing import PassContext


def walks(ctx: PassContext, q, f) -> int:
    """Enumerate and canonicalise every closed walk ``expand_action`` visits."""
    total = 0
    for k in range(1, f.degree + 1):
        if f[k] == 0:
            continue
        for v in q.vertices:
            with ctx.span("quiver.enumerate_closed_walks"):
                found = enumerate_closed_walks(q, v, k)
            with ctx.span("quiver.cyclic_canonical"):
                for w in found:
                    cyclic_canonical(q, w)
            total += len(found)
    return total


def scan(ctx: PassContext, xs, ys, max_order: int) -> None:
    """Moment evaluation on the grid, then the stacked leading minors."""
    X = np.asarray(xs, dtype=float)[:, None]
    Y = np.asarray(ys, dtype=float)[None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        with ctx.span("laurent.evaluate_grid"):
            mvals = np.stack(
                [bootstrap.moment(k).evaluate_grid(X, Y) for k in range(max_order)], axis=-1
            )
        with ctx.span("bootstrap.leading_minors"):
            bootstrap.leading_minors(mvals, max_order)


def curve(ctx: PassContext, N: int, xs) -> None:
    """The Bessel entries and the determinant behind every curve point."""
    for x in np.asarray(xs, dtype=float):
        z = -2.0 * x * N
        with ctx.span("gww.bessel_i"):
            for q in range(N):
                gww.bessel_i(q, z)
        with ctx.span("gww.partition_function"):
            gww.partition_function(N, x)


def reweighted(ctx: PassContext, net, table, seed: int, samples: int, words, combine) -> dict:
    """Replay a reweighting estimator: draw i, action weight, observable traces.

    ``words`` are the traced words; ``combine`` maps their normalised traces
    to the observable exactly as the estimator does.  Returns the replayed
    weighted mean and the weight health numbers.
    """
    dim = net.dim
    plaquettes = [(float(g), w.steps) for w, g in table.entries.items()]
    with ctx.span("monte_carlo.sampler_init"):
        sampler = KeyedSampler(net, seed)
    logs = np.empty(samples)
    values = np.empty(samples, dtype=complex)
    clock = time.perf_counter
    for i in range(samples):
        t0 = clock()
        s = sampler.sample(i)
        t1 = clock()
        total = 0.0
        for g, steps in plaquettes:
            total += g * loop_trace(s.unitaries, steps, dim).real
        logs[i] = -dim * total
        t2 = clock()
        values[i] = combine([loop_trace(s.unitaries, w, dim) / dim for w in words])
        t3 = clock()
        ctx.add_span("monte_carlo.sample", t0, t1)
        ctx.add_span("action.weight_trace", t1, t2)
        ctx.add_span("action.wilson_trace", t2, t3)
    ctx.count("monte_carlo.samples", samples)
    ctx.count("action.trace_calls", samples * (len(plaquettes) + len(words)))
    # the estimator's reduction: exponentiate, then the five single-pass sums
    # its accumulator keeps (two feed only its stderr), so the span times the same work
    with ctx.span("monte_carlo.reduce"):
        weights = np.exp(logs - logs.max())
        w_sum = w2_sum = w2v2_sum = 0.0
        wv_sum = w2v_sum = 0.0 + 0.0j
        for i in range(samples):
            w, v = weights[i], complex(values[i])
            w_sum += w
            w2_sum += w * w
            wv_sum += w * v
            w2v_sum += w * w * v
            w2v2_sum += w * w * (v.real**2 + v.imag**2)
    return {
        "mean": complex(wv_sum / w_sum),
        "ess": float(w_sum * w_sum / w2_sum),
        "max_weight_share": float(weights.max() / w_sum),
    }


def rel_dev(replayed: complex, program: complex) -> float:
    scale = abs(program)
    return abs(replayed - program) / scale if scale > 0 else abs(replayed - program)
