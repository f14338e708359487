"""The three benchmark workloads, written as public quivergauge calls.

Every op is checked against an oracle that does not share code with the
call it checks: adjacency-matrix powers for the plaquette expansion, the
bootstrap moment recursion for the loop equations, the exact one-matrix
curve for Monte Carlo means, and structural properties (oddness, the
order-2 stripe, monotone feasible counts) for the exact stages.

``triangle_pipeline`` mirrors ``scripts/run_triangle_pipeline.py``: small
exact stages, then 4x4-block Monte Carlo whose cost is per-sample
interpreter work.  ``wide_mc`` is Monte Carlo whose cost is BLAS/LAPACK on
8x8 blocks embedded in 16x16 matrices, plus a sequential Metropolis chain.
``exact_band`` does no sampling and exercises every exact layer.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import quivergauge as qg
from quivergauge import bootstrap
from quivergauge.bootstrap import default_grid
from quivergauge.laurent import YXPoly

import replay
from tracing import PassContext

SIGMA = 5.0
X_MC = 0.2  # plaquette coupling 3 * f3 of the triangle jobs

# c01: exact m_1..m_6 as {(power of y, power of 1/x): coefficient}
MOMENT_TABLE = {
    1: {(1, 0): 1},
    2: {(1, 1): 1, (0, 0): 1},
    3: {(1, 0): 1, (2, 1): 1, (0, 1): 1, (1, 2): 1},
    4: {(1, 1): 4, (2, 2): 3, (0, 2): 1, (1, 3): 1, (0, 0): 1},
    5: {(1, 0): 1, (2, 1): 3, (3, 2): 2, (0, 1): 3, (1, 2): 9, (2, 3): 6, (0, 3): 1, (1, 4): 1},
    6: {(1, 1): 9, (2, 2): 18, (3, 3): 10, (0, 2): 6, (1, 3): 16, (2, 4): 10, (0, 4): 1,
        (1, 5): 1, (0, 0): 1},
}


def load_jobs(ctx: PassContext, specs: dict[str, dict]) -> dict:
    """Load every job file of the workload; part of set-up."""
    jobs = {}
    for name, spec in specs.items():
        with ctx.span("jobfile.load_job"):
            jobs[name] = qg.load_job(spec["path"])
        if ctx.traced:
            with ctx.span("bratteli.validate_network"):
                qg.validate_network(jobs[name].quiver, spec["network"])
    return jobs


# ---------------------------------------------------------------- oracles


def closed_walk_counts(q, degree: int) -> list[int]:
    """tr A^k for k = 0..degree in exact integers: closed walks of length k."""
    a = q.adjacency().astype(object)
    power = np.identity(len(q.vertices), dtype=object)
    counts = []
    for _ in range(degree + 1):
        counts.append(int(sum(power.diagonal())))
        power = power.dot(a)
    return counts


def oddness(curve) -> float:
    return float(np.abs(curve.y + curve.y[::-1]).max())


def exact_y(N: int) -> float:
    return float(qg.first_moment_curve(N, np.array([X_MC])).y[0])


def orientation_balance(steps, root: str) -> int:
    return sum(o for e, o in steps if e == root)


def within(dev: float, stderr: float) -> bool:
    return abs(dev) <= SIGMA * stderr


# ---------------------------------------------------------------- shared ops


def expand(ctx: PassContext, name: str, job):
    with ctx.op("expand_" + name):
        with ctx.span("action.expand_action"):
            table = qg.expand_action(job.quiver, job.action)
        ctx.count("action.plaquette_classes", len(table.entries))
        f = job.action
        counts = closed_walk_counts(job.quiver, f.degree)
        total = table.constant_coeff + sum(table.entries.values(), Fraction(0))
        expected = sum(f[k] * n for k, n in enumerate(counts))
        ctx.check(total == expected, f"constant + sum g = {total}, sum f_k tr A^k = {expected}")
        if ctx.traced:
            walks = replay.walks(ctx, job.quiver, f)
            ctx.count("quiver.closed_walks", walks)
            expected_walks = sum(n for k, n in enumerate(counts) if k and f[k])
            ctx.check(walks == expected_walks, f"{walks} walks, sum tr A^k = {expected_walks}")
        return table


def generate(ctx: PassContext, q, table, word, root: str, mode: str):
    with ctx.span("loop_equations.generate"):
        eq = qg.generate_loop_equation(q, table, word, root, mode=mode)
    ctx.count("loop_equations.equations")
    ctx.count("loop_equations.terms", len(eq.lhs) + len(eq.rhs))
    return eq


def large_n_relations(ctx: PassContext, job, table, powers: range) -> None:
    """Large-N equations for zeta^n; c02: each factorised relation is the moment recursion."""
    for n in powers:
        with ctx.op(f"large_n_zeta{n}"):
            eq = generate(ctx, job.quiver, table, job.loops[0] ** n, "e1", "large")
            with ctx.span("loop_equations.factorize"):
                meq = qg.factorize_large_N(eq)
            residual = meq.residual_polynomial(lambda k: qg.moment(abs(k)), lambda p: YXPoly.x())
            ctx.check(residual.is_zero, f"n={n} residual polynomial {residual}")


def scan(ctx: PassContext, xs, ys, order: int):
    """Positivity scan; c09 stripe at order 2 and non-increasing feasible counts."""
    with ctx.span("bootstrap.scan_region"):
        fmap = qg.scan_region(xs, ys, order)
    ctx.count("bootstrap.cells", fmap.max_feasible.size)
    ctx.count("bootstrap.overflow_cells", int(fmap.overflow.sum()))
    if ctx.traced:
        replay.scan(ctx, xs, ys, order)
    stripe = np.broadcast_to(np.abs(ys)[None, :] <= 1.0, fmap.max_feasible.shape)
    counts = [fmap.feasible_cell_count(k) for k in range(2, order + 1)]
    ok = bool(((fmap.max_feasible >= 2) == stripe).all())
    ok = ok and all(a >= b for a, b in zip(counts, counts[1:]))
    ctx.check(ok, f"order {order} feasible counts {counts}")
    return fmap


def first_moment_curve(ctx: PassContext, N: int, xs):
    """Exact curve; for N <= 6 c06 oddness and Z_N(0) = 1."""
    with ctx.span("gww.first_moment_curve"):
        curve = qg.first_moment_curve(N, xs)
    flags = curve.flags
    ctx.count("gww.curve_points", len(flags))
    ctx.count("gww.flagged_points", sum(1 for f in flags if f))
    ctx.count("gww.near_singular_points", flags.count("near-singular"))
    ctx.count("gww.fd_fallback_points", flags.count("fd-fallback"))
    if ctx.traced:
        replay.curve(ctx, N, xs)
    odd, z0 = oddness(curve), qg.partition_function(N, 0.0)
    ok = N > 6 or (odd <= 1e-9 and abs(z0 - 1.0) <= 1e-12)  # c06 holds up to N = 6
    ctx.check(ok, f"N={N} oddness {odd:.2e}, Z(0)={z0!r}")
    return curve


def reweight(ctx: PassContext, job, table, word, samples: int, seed: int):
    with ctx.span("monte_carlo.estimate"):
        est = qg.estimate_wilson(job.network, table, word, samples=samples, seed=seed)
    ctx.count("monte_carlo.reweight_samples", samples)
    if ctx.traced:
        got = replay.reweighted(ctx, job.network, table, seed, samples, [word.steps], lambda tr: tr[0])
        health(ctx, got, est.mean)
    return est


def residual(ctx: PassContext, job, table, eq, samples: int, seed: int):
    with ctx.span("monte_carlo.check"):
        res = qg.check_loop_equation(job.network, table, eq, samples=samples, seed=seed)
    ctx.count("monte_carlo.residual_samples", samples)
    if ctx.traced:
        words: list[tuple] = []
        for t in eq.lhs:
            words += [t.words[0].steps, t.words[1].steps]
        words += [t.word.steps for t in eq.rhs]
        words = list(dict.fromkeys(words))
        pos = {w: k for k, w in enumerate(words)}
        lhs = [(t.coeff, pos[t.words[0].steps], pos[t.words[1].steps]) for t in eq.lhs]
        rhs = [(float(eq.rhs_coefficient(table, t)), pos[t.word.steps]) for t in eq.rhs]

        def combine(tr):
            r = 0.0 + 0.0j
            for c, a, b in lhs:
                r += c * tr[a] * tr[b]
            for c, k in rhs:
                r -= c * tr[k]
            return r

        got = replay.reweighted(ctx, job.network, table, seed, samples, words, combine)
        health(ctx, got, res.residual)
    return res


def health(ctx: PassContext, got: dict, program_mean: complex) -> None:
    """ESS and largest weight share (worst over estimators) and replay fidelity."""
    dev = replay.rel_dev(got["mean"], program_mean)
    ctx.counts["monte_carlo.ess"] = min(ctx.counts.get("monte_carlo.ess", np.inf), got["ess"])
    ctx.counts["monte_carlo.max_weight_share"] = max(
        ctx.counts.get("monte_carlo.max_weight_share", 0.0), got["max_weight_share"]
    )
    ctx.counts["monte_carlo.replay_rel_dev"] = max(
        ctx.counts.get("monte_carlo.replay_rel_dev", 0.0), dev
    )
    ctx.check(dev <= 1e-9, f"replayed mean deviates by {dev:.2e} (relative)")


# ---------------------------------------------------------------- workloads


def triangle_pipeline(ctx: PassContext, jobs: dict, inputs: dict) -> None:
    """scripts/run_triangle_pipeline.py: N=4 triangle, every stage once."""
    job = jobs["triangle"]
    zeta = job.loops[0]
    out = inputs["workdir"]
    table = expand(ctx, "triangle", job)
    large_n_relations(ctx, job, table, range(1, 5))
    with ctx.op("scan_150x150_order7"):
        fmap = scan(ctx, np.linspace(-3, 3, 150), np.linspace(-1.2, 1.2, 150), 7)
    with ctx.op("scan_artifacts"):
        with ctx.span("bootstrap.artifact_write"):
            fmap.to_csv(f"{out}/feasibility.csv")
            fmap.to_svg(f"{out}/feasibility.svg")
        with open(f"{out}/feasibility.csv") as fh:
            rows = sum(1 for _ in fh)
        with open(f"{out}/feasibility.svg") as fh:
            svg = fh.read()
        ok = rows == 150 * 150 + 1 and svg.startswith("<svg") and svg.endswith("</svg>\n")
        ctx.check(ok, f"{rows} csv rows, {len(svg)} svg bytes")
    with ctx.op("curve_N4"):
        curve = first_moment_curve(ctx, 4, np.linspace(-3, 3, 301))
        curve.to_csv(f"{out}/exact_curve.csv")
    seeds = inputs["mc_seeds"]
    with ctx.op("reweight_zeta"):
        est = reweight(ctx, job, table, zeta, 20000, seeds["reweight"])
        y4 = exact_y(4)
        ctx.check(
            within(est.mean.real - y4, est.stderr),
            f"mean {est.mean!r} stderr {est.stderr!r} exact {y4!r}",
        )
    with ctx.op("residual_zeta_e1"):
        eq = generate(ctx, job.quiver, table, zeta, "e1", "finite")
        res = residual(ctx, job, table, eq, 20000, seeds["residual"])
        ctx.check(within(abs(res.residual), res.stderr), f"residual {res.residual!r} stderr {res.stderr!r}")


def wide_mc(ctx: PassContext, jobs: dict, inputs: dict) -> None:
    """Two-site N=16 reweighting and equation check, then a triangle Metropolis chain."""
    job = jobs["two_site"]
    loop = job.loops[0]
    seeds = inputs["mc_seeds"]
    table = expand(ctx, "two_site", job)
    with ctx.op("reweight_two_site"):
        est = reweight(ctx, job, table, loop, 5000, seeds["reweight"])
        # charge conjugation maps the loop's trace to its conjugate: real mean
        ctx.check(within(est.mean.imag, est.stderr), f"mean {est.mean!r} stderr {est.stderr!r}")
    with ctx.op("residual_two_site_e"):
        eq = generate(ctx, job.quiver, table, loop, "e", "finite")
        res = residual(ctx, job, table, eq, 5000, seeds["residual"])
        ctx.check(within(abs(res.residual), res.stderr), f"residual {res.residual!r} stderr {res.stderr!r}")
    tri = jobs["triangle"]
    tri_table = expand(ctx, "triangle", tri)
    with ctx.op("metropolis_zeta"):
        burnin, thin, samples = 500, 10, 1000
        with ctx.span("monte_carlo.metropolis"):
            est = qg.estimate_wilson(
                tri.network, tri_table, tri.loops[0], samples=samples, seed=seeds["metropolis"],
                method="metropolis", burnin=burnin, thin=thin,
            )
        ctx.count("monte_carlo.metropolis_sweeps", burnin + thin * samples)
        net = tri.network
        blocks = sum(len(net.n[net.quiver.target[e]]) for e in net.quiver.edge_ids)
        ctx.count("monte_carlo.metropolis_proposals", (burnin + thin * samples) * blocks)
        ctx.counts["monte_carlo.metropolis_acceptance"] = est.acceptance
        y3 = exact_y(3)
        ctx.check(
            within(est.mean.real - y3, est.stderr),
            f"mean {est.mean!r} stderr {est.stderr!r} acceptance {est.acceptance!r} exact {y3!r}",
        )


def exact_band(ctx: PassContext, jobs: dict, inputs: dict) -> None:
    """Moments, both scans, curves N=1..8, c09 containment, expansions, loop equations."""
    with ctx.op("moment_recursion"):
        with ctx.span("bootstrap.moment"):
            bootstrap.moment(14)
        expected = {
            n: YXPoly(tuple((a, b, c) for (a, b), c in sorted(t.items())))
            for n, t in MOMENT_TABLE.items()
        }
        ctx.check(all(qg.moment(n) == p for n, p in expected.items()), "c01 table m_1..m_6")
    xs, ys = default_grid()
    with ctx.op("scan_order7"):
        fmap7 = scan(ctx, xs, ys, 7)
    with ctx.op("scan_order15"):
        fmap15 = scan(ctx, xs, ys, 15)
        same = bool((np.minimum(fmap15.max_feasible, 7) == fmap7.max_feasible).all())
        ctx.check(same, "order-15 depth capped at 7 equals the order-7 depth")
    grid = np.linspace(-3, 3, 601)
    curves = {}
    for N in range(1, 9):
        with ctx.op(f"curve_N{N}"):
            curves[N] = first_moment_curve(ctx, N, grid)
    c5 = curves[5]
    for x, z, y in zip(c5.x.tolist(), c5.z.tolist(), c5.y.tolist()):
        if x == 0.0 or z <= 0.0:
            continue  # moments are singular at zero coupling
        with ctx.op("curve_N5_inside_order7"):
            with ctx.span("bootstrap.feasible"):
                ok, first = qg.feasible(x, y, 7, tol=1e-8)
            ctx.count("bootstrap.feasible_calls")
            ctx.check(ok, f"x={x!r} y={y!r} first failing order {first}")
    expand(ctx, "two_site_deg10", jobs["two_site"])
    torus = jobs["torus"]
    torus_table = expand(ctx, "torus_deg6", torus)
    # each side's coefficients sum to the root's forward minus backward steps:
    # in the loop on the double-trace side, over all plaquettes on the other
    roots = {r: sum(orientation_balance(g.steps, r) for g in torus_table.entries) for r in ("h00", "u00")}
    for cls in torus_table.entries:
        if "v00" not in torus.quiver.word_vertices(cls.word()):
            continue  # equations exist only for loops through the roots' source
        for root, plaquette_balance in roots.items():
            with ctx.op("torus_equation"):
                eq = generate(ctx, torus.quiver, torus_table, cls.word(), root, "finite")
                lhs = sum(t.coeff for t in eq.lhs)
                rhs = sum(t.multiplicity for t in eq.rhs)
                ok = lhs == orientation_balance(cls.steps, root) and rhs == plaquette_balance
                ctx.check(ok, f"{cls} at {root}: lhs sum {lhs}, rhs sum {rhs}")
    tri = jobs["triangle"]
    tri_table = expand(ctx, "triangle", tri)
    large_n_relations(ctx, tri, tri_table, range(1, 13))


WORKLOADS = {
    "triangle_pipeline": triangle_pipeline,
    "wide_mc": wide_mc,
    "exact_band": exact_band,
}
