"""Moments from the large-N loop equations, Toeplitz moment matrix and positivity scans.

The factorised large-N loop equation for the n-th power of a job's loop,
every plaquette coupling set to x, fixes ``m_{n+1}`` from the lower moments
``m_j = lim <(1/N) Tr hol beta^j>``, with ``m_0 = 1`` and ``m_1 = y`` free.
For the triangle it reads m_{n+1} = m_{n-1} + (1/x) sum_{l<n} m_l m_{n-l}.
One fold solves these equations, exactly or in float64 at the scan's cells.

Reality (``m_{-j} = m_j``) arranges the moments into a symmetric Toeplitz
matrix whose positive semidefiniteness carves out the admissible (x, y)
region; scanning leading principal minors over a grid reproduces it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import groupby
from typing import Callable, Iterable, Iterator

import numpy as np

from .action import expand_action
from .jobfile import Job, triangle_job
from .laurent import YXPoly
from .loop_equations import MomentEquation, factorize_large_N, generate_loop_equation
from .quiver import EdgeWord, _cyclic_reduce
from .toeplitz import leading_minors


def _equations(job: Job) -> Callable[[int], tuple[int, MomentEquation, int]]:
    """n -> ``(n + 1, equation, sign)``: the large-N loop equation for ``beta**n``, with
    ``beta`` the job's first loop cyclically reduced and rooted at its first non-self-loop
    edge, and the sign of its m_{n+1} term.  Raises ValueError naming the word, n and why.
    """
    if not job.loops:
        raise ValueError("bootstrap needs a job with a loop to derive the moments from")
    beta = EdgeWord(_cyclic_reduce(job.loops[0].steps))
    root = next((e for e, _ in beta.steps if not job.quiver.is_self_loop(e)), None)
    if root is None:
        raise ValueError(f"loop {beta} has no non-self-loop edge to root at")
    table = expand_action(job.quiver, job.action)

    def solvable(n: int) -> tuple[int, MomentEquation, int]:
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
        # m_{n+1} comes only from beta spliced at its one root step, so the sign
        # is +1 or -1, its own inverse: a matching splice keeps its plaquette
        # whole, so the checks above leave only beta and its reverse at the root
        return n + 1, meq, sum(mult for mult, _, k in meq.rhs if abs(k) == n + 1)

    return solvable


def _fold(m, x, equations: Iterable[tuple[int, MomentEquation, int]]) -> None:
    """Solve each ``(k, meq, sign)`` for ``m[k]``, in the arithmetic of ``m`` and ``x``."""
    for k, meq, sign in equations:
        # with m_k = 0, lhs - rhs is the rest that sign * x * m_k must equal
        rest = meq.residual_polynomial(lambda j: m[abs(j)] if abs(j) < k else 0, lambda p: x)
        rest /= x
        m[k] = rest if sign > 0 else -rest


def _fold_key(k: int, meq: MomentEquation, sign: int) -> tuple[int, Counter]:
    """What :func:`_fold` reads of an equation: k, and its terms times sign by absolute index."""
    terms = Counter()
    for c, i, j in meq.lhs:
        terms[tuple(sorted((abs(i), abs(j))))] += sign * c
    for mult, _, j in meq.rhs:
        terms[abs(j),] += sign * mult
    return k, terms


_TRIANGLE, _MOMENTS = cache(_equations(triangle_job())), {0: YXPoly.one(), 1: YXPoly.y()}


def moment(n: int) -> YXPoly:
    """Exact m_n(x, y) of the triangle job (loop e1+ e2+ e3+ at e1); memoized.  m_{-n} = m_n."""
    n = abs(int(n))
    _fold(_MOMENTS, YXPoly.x(), map(_TRIANGLE, range(len(_MOMENTS) - 1, n)))
    return _MOMENTS[n]


def _check_scan_args(x, y, max_order: int, tol: float) -> None:
    if not (np.isfinite(x).all() and np.isfinite(y).all()):  # a NaN cell would get a verdict
        raise ValueError("couplings x and y must be finite")
    if isinstance(max_order, bool) or not isinstance(max_order, (int, np.integer)):
        raise ValueError("max_order must be an integer")
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if not 0 <= tol < np.inf:  # a NaN tol would pass every minor
        raise ValueError("tol must be >= 0 and finite")


def feasible(x: float, y: float, max_order: int, tol: float = 1e-10) -> tuple[bool, int | None]:
    """Whether all leading principal minors up to ``max_order`` stay >= -tol.

    Returns (feasible, first failing order or None).  Non-finite minors
    (overflow at extreme couplings) count as failures.  This is the verdict
    :func:`scan_region` gives the cell at (x, y), from the same code.
    """
    if x == 0:
        raise ValueError("moments are singular at x = 0")
    _check_scan_args(x, y, max_order, tol)
    first = int(_verdicts(np.float64(x), np.float64(y), max_order, tol)[0])
    return first == 0, first or None


@dataclass
class FeasibilityMap:
    """Per-cell positivity depth over an (x, y) grid.

    ``max_feasible[i, j]`` is the highest order n such that minors 1..n all
    pass (0 if even order 1 fails, -1 for undefined cells at x = 0), and
    ``overflow[i, j]`` marks a verdict that rests on an overflow: the first
    failing minor is non-finite.  These two (len(xs), len(ys)) arrays, int64
    orders and bool flags at 9 bytes a cell, are the only grid-size memory
    of :func:`scan_region`, which fills them in place; ``first_failing`` is
    derived from ``max_feasible``.
    """

    xs: np.ndarray
    ys: np.ndarray
    max_order: int
    max_feasible: np.ndarray
    overflow: np.ndarray

    @property
    def first_failing(self) -> np.ndarray:
        """First failing order of every cell (0 = none, and 0 at x = 0), made
        from ``max_feasible`` on each access: index the array, not the property."""
        return self._first_failing(self.max_feasible)

    def _first_failing(self, max_feasible: np.ndarray) -> np.ndarray:
        # the order after the highest passing one, unless that is max_order or -1
        return np.where((max_feasible >= 0) & (max_feasible < self.max_order), max_feasible + 1, 0)

    def feasible_cell_count(self, order: int) -> int:
        return int((self.max_feasible >= order).sum())

    def to_csv(self, path: str) -> None:
        """Header ``x,y,max_feasible_order,first_failing_order``, then a line per
        cell, x-major (every y of one x, then the next x): ``repr`` of the float
        x and y, the orders as integers, each ended by ``\\r\\n``.  A row is one string."""
        ys = [repr(float(y)) + "," for y in self.ys]
        # one "a,b\r\n" tail per max_feasible value a, which decides the first failing order b
        values = np.arange(-1, self.max_order + 1)
        firsts = self._first_failing(values)
        tails = {a: f"{a},{b}\r\n" for a, b in zip(values.tolist(), firsts.tolist())}
        with open(path, "w", newline="") as fh:
            fh.write("x,y,max_feasible_order,first_failing_order\r\n")
            if not ys:  # no cells: a join over an empty row would still write x
                return
            for x, feasible in zip(self.xs, self.max_feasible):
                row = repr(float(x)) + ","
                cells = map(str.__add__, ys, map(tails.__getitem__, feasible.tolist()))
                fh.write(row + row.join(cells))

    def to_svg(self, path: str) -> None:
        """Compact heat map: one run-length-merged rect per row segment."""
        cell = 2.0  # pixels per grid cell
        colors = _order_palette(self.max_order) + ["#888888"]  # at -1: undefined cells
        rows = []
        for i, column in enumerate(self.max_feasible.tolist()):
            j = 0
            for v, run in groupby(column):
                n = len(list(run))
                rows.append(
                    f'<rect x="{i * cell:.1f}" y="{(len(self.ys) - j - n) * cell:.1f}" '
                    f'width="{cell:.1f}" height="{n * cell:.1f}" fill="{colors[v]}"/>'
                )
                j += n
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
# most cells scan_region evaluates at once: a slice's moment stack, Levinson
# arrays and minors take about 50 bytes per cell and order
_BLOCK_CELLS = 8192


def _pending(max_feasible: np.ndarray, max_order: int) -> Iterator[np.ndarray]:
    """Indices of the flat ``max_feasible`` cells still at ``max_order``, in
    grid order, gathered across the grid into slices of ``_BLOCK_CELLS``.

    Windows of the grid are read once each, in order, so the caller may
    write the cells of a slice before it takes the next.
    """
    cells = np.empty(0, dtype=np.intp)
    for s in range(0, max_feasible.size, _BLOCK_CELLS):
        cells = np.append(cells, np.flatnonzero(max_feasible[s : s + _BLOCK_CELLS] == max_order) + s)
        if len(cells) >= _BLOCK_CELLS:  # a window adds at most one slice's worth
            yield cells[:_BLOCK_CELLS]
            cells = cells[_BLOCK_CELLS:]
    if len(cells):
        yield cells


def _verdicts(X: np.ndarray, Y: np.ndarray, order: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """First order whose minor drops below -tol or is not finite (0 if none),
    and whether that minor is not finite, at couplings ``X``, ``Y``: the
    cells of two equal-length vectors, or one point as two scalars."""
    mvals = np.empty(np.shape(X) + (max(order, 2),))
    mvals.T[0], mvals.T[1] = 1.0, Y  # .T[k] is a view of m_k at every cell
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a tiny x overflows
        _fold(mvals.T, X, map(_TRIANGLE, range(1, order - 1)))
    minors = leading_minors(mvals, order)
    lost = ~np.isfinite(minors)
    bad = (minors < -tol) | lost
    first = np.where(bad.any(axis=-1), bad.argmax(axis=-1) + 1, 0)
    # non-finite minors are all bad: the first bad one is non-finite if it is the first non-finite
    return first, lost.any(axis=-1) & (lost.argmax(axis=-1) + 1 == first)


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
    of the stage that decided it) are those of one pass at full order.  Each
    stage takes those cells in grid order, at most ``_BLOCK_CELLS`` at a time,
    so beside the returned arrays memory is bounded by that slice, not by the
    grid.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    _check_scan_args(xs, ys, max_order, tol)
    # the map's arrays, which the stages fill through flat views; max_order
    # marks a cell that no stage has seen fail, and x = 0 cells are never evaluated
    max_feasible = np.full((len(xs), len(ys)), max_order, dtype=np.int64)
    max_feasible[xs == 0] = -1
    overflow = np.zeros(max_feasible.shape, dtype=bool)
    flat, flags = max_feasible.reshape(-1), overflow.reshape(-1)
    order = 0
    while order < max_order:
        order = min(2 * order or _FIRST_STAGE, max_order)
        for cells in _pending(flat, max_order):
            first, flags[cells] = _verdicts(xs[cells // len(ys)], ys[cells % len(ys)], order, tol)
            flat[cells] = np.where(first > 0, first - 1, max_order)
    return FeasibilityMap(xs, ys, max_order, max_feasible, overflow)


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
