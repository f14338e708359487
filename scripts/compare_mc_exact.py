#!/usr/bin/env python3
"""Reweighted Monte Carlo vs the exact first-moment curve across couplings.

Usage: compare_mc_exact.py [dim] [samples]
"""

import sys
from fractions import Fraction

import numpy as np

import quivergauge as qg
from quivergauge.monte_carlo import estimate_wilson


def main() -> int:
    dim = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    samples = int(sys.argv[2]) if len(sys.argv) > 2 else 20000
    couplings = [Fraction(-2, 5), Fraction(-1, 5), Fraction(-1, 10),
                 Fraction(1, 10), Fraction(1, 5), Fraction(2, 5)]
    print(f"N={dim}, {samples} reweighted samples per coupling")
    print(f"{'x':>6} {'mc':>10} {'stderr_re':>9} {'exact':>10} {'pull':>6} {'ess':>8}")
    for coupling in couplings:
        x = float(coupling)
        job = qg.triangle_job(dim=dim, f3=coupling / 3)
        table = qg.expand_action(job.quiver, job.action)
        est = estimate_wilson(job.network, table, job.loops[0], samples=samples, seed=17)
        exact = float(qg.first_moment_curve(dim, np.array([x])).y[0])
        pull = (est.mean.real - exact) / est.stderr_re
        print(
            f"{x:6.2f} {est.mean.real:10.5f} {est.stderr_re:9.5f} "
            f"{exact:10.5f} {pull:6.2f} {est.effective_samples:8.0f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
