"""Command-line pipeline: validate -> expand -> loopeq -> bootstrap -> gww -> mc.

Exit codes: 0 success, 1 domain error (bad data, infeasible request),
2 usage error.  Given identical inputs and seeds every subcommand writes
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bootstrap as bs
from . import gww
from .action import expand_action
from .bratteli import gauge_tree
from .jobfile import JobError, load_job
from .loop_equations import factorize_large_N, generate_loop_equation
from .monte_carlo import check_loop_equation, estimate_wilson
from .quiver import EdgeWord

RHAT_LIMIT = 1.1  # Metropolis chains whose R-hat exceeds this disagree


def _build_parser() -> argparse.ArgumentParser:
    fmt = {"formatter_class": argparse.ArgumentDefaultsHelpFormatter}
    p = argparse.ArgumentParser(
        prog="quivergauge",
        description="Unitary gauge ensembles on quivers: plaquette expansion, "
        "loop equations, moment bootstrap, exact one-matrix checks, Monte Carlo.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a job file; print N, ensemble, gauge tree", **fmt)
    v.add_argument("job", help="job file path or builtin:triangle")

    e = sub.add_parser("expand", help="expand the action into a plaquette table (JSON)", **fmt)
    e.add_argument("job")
    e.add_argument("--out", default=None, help="output path (default stdout)")

    le = sub.add_parser("loopeq", help="generate the loop equation for a Wilson word", **fmt)
    le.add_argument("job")
    le.add_argument("--loop", required=True, help="word, e.g. 'e1+ e2+ e3+'")
    le.add_argument("--root", required=True, help="rooted edge id (not a self-loop)")
    le.add_argument("--large-n", action="store_true", help="large-N mode + factorised form")
    le.add_argument("--out", default=None, help="output path (default stdout)")

    b = sub.add_parser("bootstrap", help="scan moment-matrix positivity over (x, y)", **fmt)
    b.add_argument("job", nargs="?", default="builtin:triangle")
    b.add_argument("--max-order", type=int, default=7, help="deepest principal minor tested")
    b.add_argument("--xmin", type=float, default=bs.GRID["xmin"], help="coupling range")
    b.add_argument("--xmax", type=float, default=bs.GRID["xmax"], help="coupling range")
    b.add_argument("--ymin", type=float, default=bs.GRID["ymin"], help="first-moment range")
    b.add_argument("--ymax", type=float, default=bs.GRID["ymax"], help="first-moment range")
    b.add_argument("--xres", type=int, default=bs.GRID["xres"], help="grid columns")
    b.add_argument("--yres", type=int, default=bs.GRID["yres"], help="grid rows")
    b.add_argument("--tol", type=float, default=1e-10, help="minors >= -tol count as feasible")
    b.add_argument("--out", required=True, help="CSV output path")
    b.add_argument("--svg", default=None, help="optional SVG heat-map path")
    b.add_argument("--moments", default=None, help="optional JSON dump of the moment table")

    g = sub.add_parser("gww", help="exact one-matrix partition function and moment curve", **fmt)
    g.add_argument("--dim", type=int, required=True, help="unitary matrix size N")
    g.add_argument("--xmin", type=float, default=gww.WINDOW["xmin"], help="coupling range")
    g.add_argument("--xmax", type=float, default=gww.WINDOW["xmax"], help="coupling range")
    g.add_argument("--points", type=int, default=gww.WINDOW["points"], help="grid size (one row when xmin == xmax)")
    g.add_argument("--out", required=True, help="CSV output path")

    m = sub.add_parser("mc", help="Monte Carlo Wilson-loop estimate / equation check", **fmt)
    m.add_argument("job")
    m.add_argument("--loop", required=True, help="closed word, e.g. 'e1+ e2+ e3+'")
    m.add_argument("--samples", type=int, default=100000, help="measurement count")
    m.add_argument("--seed", type=int, default=1, help="master seed for the keyed streams")
    m.add_argument("--method", choices=["reweight", "metropolis"], default="reweight", help="estimator")
    m.add_argument("--burnin", type=int, default=argparse.SUPPRESS, help="metropolis warm-up sweeps (default: 1000)")
    m.add_argument("--thin", type=int, default=argparse.SUPPRESS,
                   help="metropolis sweeps between measurements (default: 10)")
    m.add_argument("--check-eq", action="store_true",
                   help="estimate the loop equation's lhs - rhs instead, by either method")
    m.add_argument("--root", default=None, help="rooted edge for --check-eq")
    m.add_argument("--out", default=None, help="output path (default stdout)")
    return p


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _check_grid(args, sizes: tuple[str, ...], windows: tuple[tuple[str, str], ...]) -> None:
    """Refuse a grid count below 1, which would write an empty grid, and a
    window whose bounds or width are not finite, before ``np.linspace``
    spreads it over the grid."""
    for name in sizes:
        if getattr(args, name) < 1:
            raise ValueError(f"{name} must be >= 1")
    for lo, hi in windows:
        for name in (lo, hi):
            if not np.isfinite(getattr(args, name)):
                raise ValueError(f"{name} must be finite")
        if not np.isfinite(getattr(args, hi) - getattr(args, lo)):
            raise ValueError(f"{hi} - {lo} must be finite")


def _cmd_validate(args) -> int:
    job = load_job(args.job)
    print(f"N={job.network.dim}")
    for eid in job.quiver.edge_ids:
        parts = (f"U({n})" if r == 1 else f"U({n}) (mult {r})" for n, r in job.network.blocks(eid))
        print(f"{eid}: " + " x ".join(parts))
    tree = gauge_tree(job.network)
    fixed = f"{' '.join(tree)} ({len(tree)} of {len(job.quiver.edge_ids)})" if tree else "none"
    print(f"gauge-fixed edges: {fixed}")
    if job.loops:
        print("loops: " + "; ".join(str(w) for w in job.loops))
    return 0


def _cmd_expand(args) -> int:
    job = load_job(args.job)
    table = expand_action(job.quiver, job.action)
    payload = {
        "constant_coeff": str(table.constant_coeff),
        "entries": [
            {"word": str(w), "coeff": str(g)}
            for w, g in sorted(table.entries.items(), key=lambda kv: (len(kv[0].steps), str(kv[0])))
        ],
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_loopeq(args) -> int:
    job = load_job(args.job)
    table = expand_action(job.quiver, job.action)
    word = EdgeWord.from_string(args.loop)
    job.quiver.word_vertices(word)
    mode = "large" if args.large_n else "finite"
    eq = generate_loop_equation(job.quiver, table, word, args.root, mode=mode)
    payload = eq.to_json_dict(table)
    payload["rendered"] = eq.render(table)
    if args.large_n:
        meq = factorize_large_N(eq)
        payload["factorized"] = {
            "generator": str(meq.generator),
            "lhs": [{"coeff": c, "i": i, "j": j} for c, i, j in meq.lhs],
            "rhs": [
                {"multiplicity": m, "plaquette": str(p), "k": k} for m, p, k in meq.rhs
            ],
            "rendered": meq.render(),
        }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_bootstrap(args) -> int:
    _check_grid(args, ("xres", "yres"), (("xmin", "xmax"), ("ymin", "ymax")))
    xs = np.linspace(args.xmin, args.xmax, args.xres)
    ys = np.linspace(args.ymin, args.ymax, args.yres)
    equations = bs._equations(load_job(args.job))
    fmap = bs._scan(equations, xs, ys, args.max_order, args.tol)
    fmap.to_csv(args.out)
    if args.svg:
        fmap.to_svg(args.svg)
    if args.moments:
        with open(args.moments, "w") as fh:
            json.dump(bs.dump_moment_table(equations, args.max_order - 1), fh, indent=2)
    counts = {k: fmap.feasible_cell_count(k) for k in range(1, args.max_order + 1)}
    print(
        f"scanned {len(xs)}x{len(ys)} cells, feasible per order: "
        + ", ".join(f"{k}:{v}" for k, v in counts.items())
        + f"; overflow cells: {int(fmap.overflow.sum())}"
    )
    return 0


def _cmd_gww(args) -> int:
    _check_grid(args, ("points",), (("xmin", "xmax"),))
    grid = gww.curve_grid(args.xmin, args.xmax, args.points)
    curve = gww.first_moment_curve(args.dim, grid)
    curve.to_csv(args.out)
    flagged = sum(1 for f in curve.flags if f)
    print(f"wrote {len(grid)} samples for N={args.dim}" + (f" ({flagged} flagged)" if flagged else ""))
    return 0


def _cmd_mc(args) -> int:
    job = load_job(args.job)
    table = expand_action(job.quiver, job.action)
    word = EdgeWord.from_string(args.loop)
    job.quiver.word_vertices(word)
    if bool(args.root) != args.check_eq:
        raise JobError("--check-eq needs --root" if args.check_eq else "--root needs --check-eq")
    chain = {k: getattr(args, k) for k in ("burnin", "thin") if hasattr(args, k)}
    if chain and args.method != "metropolis":
        raise JobError(f"--{next(iter(chain))} needs --method metropolis")
    estimator, target = estimate_wilson, word
    if args.check_eq:
        eq = generate_loop_equation(job.quiver, table, word, args.root, mode="finite")
        estimator, target = check_loop_equation, eq
    est = estimator(job.network, table, target, samples=args.samples, seed=args.seed,
                    method=args.method, **chain)
    if args.check_eq:
        payload = {"equation": eq.to_json_dict(table), "residual_re": est.residual.real,
                   "residual_im": est.residual.imag}
    else:
        payload = {
            "loop": str(word),
            "mean_re": est.mean.real,
            "mean_im": est.mean.imag,
            "stderr_re": est.stderr_re,
            "stderr_im": est.stderr_im,
            "acceptance": est.acceptance,
            "method": est.method,
            "dim": job.network.dim,
        }
    payload.update(stderr=est.stderr, samples=est.samples,
                   effective_samples=est.effective_samples, seed=args.seed)
    if not est.samples:
        detail = "no draws"
    elif args.method == "metropolis":
        payload.update(acceptance=est.acceptance, rhat=est.rhat)
        detail = f"acceptance {est.acceptance:.1%}"
        if est.rhat is not None and est.rhat > RHAT_LIMIT:
            detail += f", R-hat {est.rhat:.3g} above {RHAT_LIMIT}: chains disagree"
    else:
        detail = f"largest weight share {est.max_weight_share:.3g}"
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    # with the JSON on stdout, the health line (an R-hat warning among
    # others) goes to stderr, so stdout stays the JSON alone
    if args.out is None:
        print(f"effective samples {est.effective_samples:.1f}, {detail}", file=sys.stderr)
    else:
        print(f"wrote {args.out}: effective samples {est.effective_samples:.1f}, {detail}")
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "expand": _cmd_expand,
    "loopeq": _cmd_loopeq,
    "bootstrap": _cmd_bootstrap,
    "gww": _cmd_gww,
    "mc": _cmd_mc,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, RuntimeError, OverflowError) as exc:  # JobError etc. are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
