"""Exact one-unitary-matrix reference: Bessel Toeplitz determinant and moment curve.

Integrating the triangle weight over two of its three unitaries leaves the
single-matrix integral over U(N) with weight exp(-N x Tr(U + U*)).  Its
partition function is the N x N Toeplitz determinant of modified Bessel
functions I_{k-m} evaluated at z = -2 x N.  By Heine's identity
E[det(z - U)] is the monic orthogonal polynomial of degree N on the unit
circle, z^N - a_1 z^(N-1) - ..., so E[Tr U] = a_1, the first coefficient
of the order-N predictor.  Both come from one Levinson-Durbin pass of
:mod:`quivergauge.toeplitz`, run in longdouble on (I_0, ..., I_N): Z_N is
the product of the prediction errors E_0 .. E_{N-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .toeplitz import levinson

_Z_GUARD = 700.0  # exp-scale overflow guard on the Bessel argument


def bessel_i(q: int, z):
    """Modified Bessel function of the first kind, integer order.

    Power series sum_k (z/2)^(2k+|q|) / (k! (k+|q|)!); all terms share one
    sign for real z, so the sum is stable.  Works elementwise on arrays and
    in the dtype of ``z``: a float gives a float64, a longdouble a longdouble.
    """
    q = abs(int(q))
    half = np.asarray(z) / 2
    big = float(np.abs(half).max(initial=0))
    if big > _Z_GUARD / 2:
        raise OverflowError(f"bessel_i argument |z|={2 * big:.3g} beyond guard {_Z_GUARD}")
    term = np.ones_like(half)[()]  # (z/2)^q / q!
    for j in range(1, q + 1):
        term = term * (half / j)
    total, ratio = term, half * half
    # the term ratios (z/2)^2 / (k (k + q)) fall below 1/4 once k > |z|, so
    # 40 more terms leave a tail below 4^-40 of the sum in any float dtype
    for k in range(1, 2 * int(big) + 42):
        term = term * (ratio / (k * (k + q)))
        total = total + term
    return total


def _levinson_pass(N: int, xs) -> tuple[np.ndarray, np.ndarray]:
    """Levinson errors E_0 .. E_N and order-N predictor of r = (I_0, ..., I_N)(-2 x N),
    in longdouble."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not np.isfinite(xs).all():
        raise ValueError("coupling x must be finite")
    z = np.asarray(xs, dtype=np.longdouble) * (-2 * N)
    return levinson(np.stack([bessel_i(q, z) for q in range(N + 1)], axis=-1))


def partition_function(N: int, x: float) -> float:
    """det of the N x N Toeplitz matrix [I_{k-m}(-2 x N)]: the curve's Z at the
    one coupling x (:func:`first_moment_curve`), inf where it overflows."""
    return float(first_moment_curve(N, [x]).z[0])


@dataclass
class GwwCurve:
    """Sampled exact solution: partition function and first moment on an x grid."""

    x: np.ndarray
    z: np.ndarray  # partition-function values
    y: np.ndarray  # first moment, NaN where flagged
    # per-sample: "" | "near-singular" (some E_k <= 0 or a value non-finite)
    # | "out-of-range" (|y| > 1)
    flags: list[str]

    def to_csv(self, path: str) -> None:
        """Header ``x,Z,y``, then a line per sample in grid order: ``repr`` of the float
        x, Z and y (``inf`` where Z overflowed, ``nan`` where y is flagged), each
        ended by ``\\r\\n``.  The whole curve is written as one string."""
        rows = zip(*(map(float, column) for column in (self.x, self.z, self.y)))
        with open(path, "w", newline="") as fh:
            fh.write("x,Z,y\r\n" + "".join(map("%r,%r,%r\r\n".__mod__, rows)))


def first_moment_curve(N: int, x_grid: np.ndarray) -> GwwCurve:
    """y_N(x) = E[Tr U] / N = -(1 / (2 N^2)) d log Z_N/dx on a grid.

    Z_N and y_N = a_1 / N come from one longdouble Levinson pass.  The
    exact Toeplitz matrices are positive definite at every real x, so
    points where some prediction error E_0 .. E_N is <= 0 or a value is
    non-finite get y = NaN and the flag "near-singular"; a normalised
    trace has |y| <= 1, so other points beyond it, where the longdouble
    pass has lost its digits, get y = NaN and the flag "out-of-range".
    """
    xs = np.asarray(x_grid, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        E, a = _levinson_pass(N, xs)
        zs = np.prod(E[..., :N], axis=-1).astype(float)
        ys = (a[..., 0] / N).astype(float)
    bad = ~(E > 0).all(axis=-1) | ~np.isfinite(zs) | ~np.isfinite(ys)
    beyond = ~bad & (np.abs(ys) > 1)
    ys[bad | beyond] = np.nan
    flags = ["near-singular" if b else "out-of-range" if o else "" for b, o in zip(bad, beyond)]
    return GwwCurve(x=xs, z=zs, y=ys, flags=flags)


# the coupling window of the gww subcommand's defaults
WINDOW = {"xmin": -3.0, "xmax": 3.0, "points": 601}


def curve_grid(xmin: float, xmax: float, points: int) -> np.ndarray:
    return np.linspace(xmin, xmax, 1 if xmin == xmax else points)
