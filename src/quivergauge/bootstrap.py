"""Moments from the large-N loop equations, Toeplitz moment matrix and positivity scans.

The factorised large-N loop equation for the n-th power of a job's loop,
every plaquette coupling set to x, fixes ``m_{n+1}`` from the lower moments
``m_j = lim <(1/N) Tr hol beta^j>``, with ``m_0 = 1`` and ``m_1 = y`` free.
For the triangle it reads m_{n+1} = m_{n-1} + (1/x) sum_{l<n} m_l m_{n-l}.

Reality (``m_{-j} = m_j``) arranges the moments into a symmetric Toeplitz
matrix whose positive semidefiniteness carves out the admissible (x, y)
region; scanning leading principal minors over a grid reproduces it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import count
from typing import Iterator

import numpy as np

from .action import expand_action
from .jobfile import Job, triangle_job
from .laurent import YXPoly
from .loop_equations import factorize_large_N, generate_loop_equation


def derive_moments(job: Job) -> Iterator[YXPoly]:
    """Yield m_0, m_1, ... of the job's first loop ``beta``, rooted at its first
    non-self-loop edge, solving the equation for ``beta**n`` for m_{n+1}.

    Raises ValueError, naming the word, n and the reason, where that fails.
    """
    if not job.loops:
        raise ValueError("bootstrap needs a job with a loop to derive the moments from")
    beta = job.loops[0]
    root = next((e for e, _ in beta.steps if not job.quiver.is_self_loop(e)), None)
    if root is None:
        raise ValueError(f"loop {beta} has no non-self-loop edge to root at")
    table = expand_action(job.quiver, job.action)
    m = [YXPoly.one(), YXPoly.y()]
    yield from m
    for n in count(1):
        where = f"the large-N loop equation for ({beta})^{n} at root {root}"
        eq = generate_loop_equation(job.quiver, table, beta**n, root, mode="large")
        try:
            meq = factorize_large_N(eq)
        except ValueError as exc:
            raise ValueError(f"{where} does not close on one moment: {exc}") from None
        paired = {abs(k) for _, i, j in meq.lhs for k in (i, j)}
        highest = max(paired | {abs(k) for _, _, k in meq.rhs}, default=0)
        if highest != n + 1:
            raise ValueError(f"{where} has highest moment m_{highest} where m_{n + 1} is expected")
        if n + 1 in paired:
            raise ValueError(f"{where} has m_{n + 1} on its double-trace side")
        coeff = sum(mult for mult, _, k in meq.rhs if abs(k) == n + 1)
        # with m_{n+1} = 0, lhs - rhs is the rest that coeff * x * m_{n+1} must equal
        m.append(YXPoly.zero())
        rest = meq.residual_polynomial(lambda k: m[abs(k)], lambda p: YXPoly.x()) * YXPoly.inv_x()
        if coeff == 0 or any(c % coeff for _, _, c in rest.terms):
            raise ValueError(f"{where} has coefficient {coeff} on m_{n + 1}, not dividing the rest")
        m[-1] = YXPoly(tuple((a, b, c // coeff) for a, b, c in rest.terms))
        yield m[-1]


_TRIANGLE, _MOMENTS = derive_moments(triangle_job()), []


def moment(n: int) -> YXPoly:
    """Exact m_n(x, y) of the triangle job (loop e1+ e2+ e3+ at e1); memoized.  m_{-n} = m_n."""
    n = abs(int(n))
    while len(_MOMENTS) <= n:
        _MOMENTS.append(next(_TRIANGLE))
    return _MOMENTS[n]


def _toeplitz(r: np.ndarray, order: int) -> np.ndarray:
    """Batched Toeplitz assembly: first rows (..., order) -> matrices (..., order, order)."""
    idx = np.arange(order)
    return r[..., np.abs(idx[:, None] - idx[None, :])]


def levinson(
    r: np.ndarray, dr: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Levinson-Durbin prediction errors of symmetric Toeplitz matrices.

    ``r`` holds first rows, shape (..., n), in any float dtype; the
    recursion runs in that dtype.  Returns ``E`` of the same shape with
    ``det T_k = E_0 E_1 ... E_{k-1}`` for the k x k leading block, so the
    leading minors are running products of ``E`` and the reflection
    coefficients are ``kappa_k = acc_k / E_{k-1}`` (Szego-Verblunsky).
    Given ``dr = dr/dx``, also returns ``dE/dx`` by forward-mode
    differentiation of the same recursion, else ``None``.

    The recursion is stable on positive-definite matrices (Cybenko 1980).
    On indefinite ones a small ``E_j`` costs digits in the later entries,
    and an exactly zero one (a singular leading block) leaves them
    non-finite; :func:`leading_minors` shows one repair.
    """
    n = r.shape[-1]
    E = np.empty_like(r)
    E[..., 0] = r[..., 0]
    a = np.zeros_like(r)  # a[..., i] is predictor coefficient a_{i+1}
    if dr is not None:
        dE = np.empty_like(r)
        dE[..., 0] = dr[..., 0]
        da = np.zeros_like(r)
    for k in range(1, n):
        ak, rev = a[..., : k - 1], r[..., k - 1 : 0 : -1]  # rev[i - 1] = r_{k-i}
        acc = r[..., k] - (ak * rev).sum(axis=-1)
        kappa = acc / E[..., k - 1]
        if dr is not None:
            dak = da[..., : k - 1]
            dacc = dr[..., k] - (dak * rev + ak * dr[..., k - 1 : 0 : -1]).sum(axis=-1)
            dkappa = (dacc - kappa * dE[..., k - 1]) / E[..., k - 1]
            da[..., : k - 1] = (
                dak - dkappa[..., None] * ak[..., ::-1] - kappa[..., None] * dak[..., ::-1]
            )
            da[..., k - 1] = dkappa
            dE[..., k] = dE[..., k - 1] - dkappa * acc - kappa * dacc
        a[..., : k - 1] = ak - kappa[..., None] * ak[..., ::-1]
        a[..., k - 1] = kappa
        E[..., k] = E[..., k - 1] - kappa * acc
    return E, (dE if dr is not None else None)


# On an indefinite matrix, a prediction error that drops below this fraction
# of the one before it (a nearly singular leading block) makes the later
# Levinson steps lose digits; an exactly singular block breaks them down.
# Against exact rational minors of triangle moment matrices of orders 6 and 9,
# later minors stayed within 5e-11 relative of exact (or of the dense
# determinant's own error) above this fraction, and lost up to 5e-9 at 1e-3.
_PIVOT_DROP = 1e-2


def leading_minors(mvals: np.ndarray, max_order: int) -> np.ndarray:
    """det M_1 .. det M_n for Toeplitz matrices built from m-values.

    ``mvals`` has shape (..., max_order); the result has shape
    (..., max_order).  Minors are running products of the float64
    Levinson prediction errors.  Matrices whose recursion passes a nearly
    or exactly singular leading block fall back to a dense pivoted
    determinant per leading block; that is judged over the ``max_order``
    orders given, in :func:`scan_region` over the deciding stage's orders.
    Minor k is not finite when one of m_0 .. m_{k-1} is not: the recursion
    carries a non-finite value on by itself, and the fallback, whose
    determinant need not show it, sets such minors to NaN.
    """
    r = np.asarray(mvals, dtype=float)[..., :max_order]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        E, _ = levinson(r)
        minors = np.cumprod(E, axis=-1)
        piv = np.abs(E[..., :-1])  # the last error feeds no later minor
        # comparisons written so that NaN errors count as unsteady too
        steady = (piv[..., :1] > 0).all(axis=-1) & (
            piv[..., 1:] > _PIVOT_DROP * piv[..., :-1]
        ).all(axis=-1)
        if not steady.all():
            rows = r[~steady]
            mats = _toeplitz(rows, max_order)
            dense = np.stack(
                [np.linalg.det(mats[:, :k, :k]) for k in range(1, max_order + 1)], axis=-1
            )
            dense[np.logical_or.accumulate(~np.isfinite(rows), axis=-1)] = np.nan
            minors[~steady] = dense
    return minors


def _first_failure(minors: np.ndarray, tol: float) -> np.ndarray:
    """First order whose minor drops below -tol or is non-finite; 0 if none."""
    bad = (minors < -tol) | ~np.isfinite(minors)
    any_bad = bad.any(axis=-1)
    first = bad.argmax(axis=-1) + 1
    return np.where(any_bad, first, 0)


def _check_scan_args(max_order: int, tol: float) -> None:
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if tol < 0:
        raise ValueError("tol must be >= 0")


def feasible(x: float, y: float, max_order: int, tol: float = 1e-10) -> tuple[bool, int | None]:
    """Whether all leading principal minors up to ``max_order`` stay >= -tol.

    Returns (feasible, first failing order or None).  Non-finite minors
    (overflow at extreme couplings) count as failures.
    """
    if x == 0:
        raise ValueError("moments are singular at x = 0")
    _check_scan_args(max_order, tol)
    mvals = np.array([moment(k).evaluate(x, y) for k in range(max_order)])
    minors = leading_minors(mvals, max_order)
    first = int(_first_failure(minors, tol))
    return (first == 0), (first or None)


@dataclass
class FeasibilityMap:
    """Per-cell positivity depth over an (x, y) grid.

    ``max_feasible[i, j]`` is the highest order n such that minors 1..n all
    pass (0 if even order 1 fails, -1 for undefined cells at x = 0);
    ``first_failing[i, j]`` is the first failing order (0 = none);
    ``overflow[i, j]`` marks a verdict that rests on an overflow: the first
    failing minor is non-finite.
    """

    xs: np.ndarray
    ys: np.ndarray
    max_order: int
    max_feasible: np.ndarray
    first_failing: np.ndarray
    undefined: np.ndarray
    overflow: np.ndarray

    def feasible_cell_count(self, order: int) -> int:
        return int((self.max_feasible >= order).sum())

    def to_csv(self, path: str) -> None:
        ys = [repr(float(y)) for y in self.ys]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "max_feasible_order", "first_failing_order"])
            for i, x in enumerate(self.xs):
                feasible, failing = self.max_feasible[i].tolist(), self.first_failing[i].tolist()
                writer.writerows(zip([repr(float(x))] * len(ys), ys, feasible, failing))

    def to_svg(self, path: str) -> None:
        """Compact heat map: one run-length-merged rect per row segment."""
        cell = 2.0  # pixels per grid cell
        colors = _order_palette(self.max_order)
        rows = []
        for i in range(len(self.xs)):
            j = 0
            while j < len(self.ys):
                v = self.max_feasible[i, j]
                j2 = j
                while j2 + 1 < len(self.ys) and self.max_feasible[i, j2 + 1] == v:
                    j2 += 1
                color = "#888888" if v < 0 else colors[int(v)]
                rows.append(
                    f'<rect x="{i * cell:.1f}" y="{(len(self.ys) - 1 - j2) * cell:.1f}" '
                    f'width="{cell:.1f}" height="{(j2 - j + 1) * cell:.1f}" fill="{color}"/>'
                )
                j = j2 + 1
        w = len(self.xs) * cell
        h = len(self.ys) * cell
        with open(path, "w") as fh:
            fh.write(
                f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
                f'viewBox="0 0 {w:.0f} {h:.0f}">\n'
            )
            fh.write("\n".join(rows))
            fh.write("\n</svg>\n")


def _order_palette(max_order: int) -> list[str]:
    # light-to-dark ramp: deeper positivity = darker
    palette = []
    for k in range(max_order + 1):
        t = k / max_order if max_order else 0.0
        g = int(240 - 200 * t)
        palette.append(f"#{g:02x}{g:02x}{255 - int(120 * t):02x}")
    return palette


# order of the first scan_region stage; each later stage doubles it, up to max_order
_FIRST_STAGE = 3


def scan_region(
    xs: np.ndarray,
    ys: np.ndarray,
    max_order: int,
    tol: float = 1e-10,
) -> FeasibilityMap:
    """Positivity depth of every grid cell; x = 0 columns are undefined.

    Stages of orders 3, 6, 12, ... (capped at ``max_order``) each evaluate the
    moments, and the minors from order 1, on the cells no stage has seen fail,
    so a cell's float operations up to its verdict (the first failing order
    of the stage that decided it) are those of one pass at full order.
    """
    _check_scan_args(max_order, tol)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    undefined = np.broadcast_to(xs[:, None] == 0, (len(xs), len(ys))).copy()
    first = np.zeros(undefined.shape, dtype=np.int64)
    overflow = np.zeros(undefined.shape, dtype=bool)
    order, cells, X, Y = min(_FIRST_STAGE, max_order), ..., xs[:, None], ys[None, :]
    while True:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            mvals = np.stack([moment(k).evaluate_grid(X, Y) for k in range(order)], axis=-1)
        minors = leading_minors(mvals, order)
        stage = _first_failure(minors, tol)
        first[cells] = stage
        # with tol = inf only a non-finite minor fails: is the first failing one non-finite?
        overflow[cells] = (stage > 0) & (_first_failure(minors, np.inf) == stage)
        i, j = np.nonzero((first == 0) & ~undefined)
        if order == max_order or not len(i):
            break
        order, cells, X, Y = min(2 * order, max_order), (i, j), xs[i], ys[j]
    first[undefined], overflow[undefined] = 0, False
    return FeasibilityMap(
        xs=xs,
        ys=ys,
        max_order=max_order,
        max_feasible=np.where(undefined, -1, np.where(first == 0, max_order, first - 1)),
        first_failing=first,
        undefined=undefined,
        overflow=overflow,
    )


# the scan window of default_grid() and of the bootstrap subcommand's defaults
GRID = {"xmin": -3.0, "xmax": 3.0, "ymin": -1.2, "ymax": 1.2, "xres": 300, "yres": 300}


def default_grid() -> tuple[np.ndarray, np.ndarray]:
    g = GRID
    return np.linspace(g["xmin"], g["xmax"], g["xres"]), np.linspace(g["ymin"], g["ymax"], g["yres"])


def dump_moment_table(n_max: int) -> list[dict]:
    """JSON-ready moment table: [{n, terms: [{c, a, b}]}]."""
    return [
        {"n": n, "terms": [{"c": c, "a": a, "b": b} for a, b, c in moment(n).terms]}
        for n in range(n_max + 1)
    ]
