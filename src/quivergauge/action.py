"""Plaquette expansion of the gauge action Tr f(D) and its numeric evaluation.

For a polynomial f, the trace of f(D) over the total Hilbert space expands
into a sum over closed walks on the underlying graph: length-k walks carry
weight f_k on the trace of their holonomy.  Grouping walks by the traced
class of their cyclic reduction yields a table of plaquette couplings; walks
that reduce to the constant path accumulate into a single coefficient of N.

A walk's class depends only on its free reduction, so walks are not listed
one by one: they are counted per freely reduced word
(:func:`~quivergauge.quiver.reduced_closed_walk_counts`), and each distinct
word is canonicalised once.  Those counts key every word at the first walk,
in depth-first order, that reduces to it, so table entries come in the order
in which a walk-by-walk expansion (lengths outer, base vertices inner)
first meets their classes; float sums over the table (:func:`weighted_sum`)
and the loop equations built from it depend on that order.

Every numeric trace goes through one kernel, :class:`TracePlan`: the
schedule of a word list, built once and run on any number of configurations.
It traces each word from its two halves, whose partial products are shared
across the plan, multiplied once and released after their last use.  Action
weights trace each class once with its equal-coupling reverse
(:func:`action_plan`, summed by :func:`weighted_sum`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .quiver import (
    CyclicWord,
    Quiver,
    QuiverError,
    Step,
    _min_rotation,
    gauge_fixed_steps,
    reduced_closed_walk_counts,
)


def parse_rational(value) -> Fraction:
    """Exact rational from an int or a 'p/q' string; q = 0 is a ValueError."""
    if isinstance(value, (int, str, Fraction)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"expected integer or 'p/q' string, got {value!r}")


@dataclass(frozen=True)
class ActionSpec:
    """Polynomial coefficients f_0..f_d, exact rationals."""

    coefficients: tuple[Fraction, ...]

    @classmethod
    def from_list(cls, values: Sequence) -> "ActionSpec":
        coeffs = tuple(parse_rational(v) for v in values)
        # strip trailing zeros so degree reflects the last nonzero coefficient
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        return cls(coeffs if coeffs else (Fraction(0),))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coefficients[k] if k < len(self.coefficients) else Fraction(0)


@dataclass
class PlaquetteTable:
    """Couplings g on traced-loop classes, plus the identity-trace weight.

    The action equals ``constant_coeff * N + sum_g g * Tr hol(class)``.
    Every key is nonempty and cyclically reduced; coefficients are exact
    rationals, linear in the f_k.
    """

    entries: dict[CyclicWord, Fraction] = field(default_factory=dict)
    constant_coeff: Fraction = Fraction(0)
    _occurrences: dict | None = field(default=None, init=False, repr=False, compare=False)

    def coupling(self, w: CyclicWord) -> Fraction:
        return self.entries.get(w, Fraction(0))

    def add(self, w: CyclicWord, g: Fraction) -> None:
        """Add g to the coupling of w; the empty class traces N, so it adds to
        ``constant_coeff``."""
        if w.is_empty:
            self.constant_coeff += g
        else:
            self.entries[w] = self.coupling(w) + g
            self._occurrences = None

    def drop_zeros(self) -> "PlaquetteTable":
        self.entries = {w: g for w, g in self.entries.items() if g != 0}
        self._occurrences = None
        return self

    def occurrences(self, edge: str) -> list[tuple[CyclicWord, int, int]]:
        """(class, position, orientation) of every step on ``edge``, in table
        order, then word order; indexed on first use after ``add``/``drop_zeros``."""
        if self._occurrences is None:
            self._occurrences = {}
            for w in self.entries:
                for i, (e, o) in enumerate(w.steps):
                    self._occurrences.setdefault(e, []).append((w, i, o))
        return self._occurrences.get(edge, [])


def expand_action(q: Quiver, f: ActionSpec) -> PlaquetteTable:
    """Accumulate f_k over all length-k closed walks into traced-class couplings.

    Walks whose cyclic reduction is empty contribute ``f_k * N`` each (the
    trace of the identity on the basepoint's Hilbert space); the degree-0
    term contributes ``f_0 * N`` per vertex.  Each class gets ``f_k`` times
    its walk count at once, in the walk-by-walk order the module describes.
    """
    if not q.connected:
        raise QuiverError("action expansion requires a connected quiver")
    table = PlaquetteTable()
    table.constant_coeff = f[0] * len(q.vertices)
    walks = [reduced_closed_walk_counts(q, v, f.degree) for v in q.vertices]
    classes: dict[tuple[Step, ...], CyclicWord] = {}
    for k in range(1, f.degree + 1):
        fk = f[k]
        if fk == 0:
            continue
        counts: dict[CyclicWord, int] = {}
        for by_word in walks:
            for word, n in by_word[k].items():
                cls = classes.get(word)
                if cls is None:
                    cls = classes[word] = CyclicWord.of(word)
                counts[cls] = counts.get(cls, 0) + n
        for cls, n in counts.items():
            table.add(cls, fk * n)
    return table.drop_zeros()


def gauge_fixed_table(table: PlaquetteTable, tree) -> PlaquetteTable:
    """The same action where the ``tree`` edges carry 1: each class rewritten
    by :func:`~quivergauge.quiver.gauge_fixed_steps`.  Classes that coincide
    merge at the first one's place, and a class that empties moves into
    ``constant_coeff``; an empty tree gives an equal table, in equal order."""
    fixed = PlaquetteTable(constant_coeff=table.constant_coeff)
    for w, g in table.entries.items():
        fixed.add(CyclicWord.of(gauge_fixed_steps(w.steps, tree)), g)
    return fixed.drop_zeros()


class TracePlan:
    """The traces of a fixed list of closed words, scheduled once and run on
    any assignment of edge matrices, 2-D or stacked on leading sample axes.

    Each distinct nonempty word is traced at its least rotation as
    sum_ij L_ij R_ji of its two halves, its first ceil(len / 2) steps and
    the rest, each half the left fold of its steps.  Every partial fold is
    memoised by its step tuple across the plan, so a run multiplies it once,
    and is released after its last use.  A word's trace is the same bits
    whatever other words share the plan; the empty word gives N.
    """

    def __init__(self, words: Sequence[tuple], dim: int):
        rotated = [_min_rotation(tuple(w)) for w in words]
        distinct = sorted(set(rotated) - {()})
        self.dim = dim
        self.steps = {s for w in distinct for s in w}
        # (fold formed, or None for a trace; its two operands) in run order
        ops, formed = [], set()
        for w in distinct:
            h = (len(w) + 1) // 2
            for half in (w[:h], w[h:]):
                for k in range(2, len(half) + 1):
                    if half[:k] not in formed:
                        formed.add(half[:k])
                        ops.append((half[:k], half[: k - 1], half[k - 1 : k]))
            ops.append((None, w[:h], w[h:]))
        last = {key: i for i, (_, a, b) in enumerate(ops) for key in (a, b)}
        # each op with the folds and steps it is the last to read
        self.schedule = [
            (key, a, b, {x for x in (a, b) if x and last[x] == i})
            for i, (key, a, b) in enumerate(ops)
        ]
        # position of each word's trace in a run's list; the empty word's comes last
        slot = {w: k for k, w in enumerate(distinct)}
        self.slots = [slot.get(w, len(distinct)) for w in rotated]
        self.empty = () in rotated

    def traces(self, assignment: Mapping[str, np.ndarray]) -> list:
        """The words' traces on ``assignment``, in the order they were given."""
        memo = {
            ((e, o),): assignment[e] if o > 0 else assignment[e].conj().swapaxes(-1, -2)
            for e, o in self.steps
        }
        out = []
        for key, a, b, done in self.schedule:
            if key:
                memo[key] = memo[a] @ memo[b]
            elif b:
                out.append(np.einsum("...ij,...ji->...", memo[a], memo[b]))
            else:
                out.append(memo[a].trace(axis1=-2, axis2=-1))
            for x in done:
                del memo[x]
        if self.empty:
            batch = next(iter(assignment.values())).shape[:-2] if assignment else ()
            out.append(np.full(batch, complex(self.dim)))
        return [out[k] for k in self.slots]


def loop_trace(assignment: Mapping[str, np.ndarray], steps, dim: int) -> complex | np.ndarray:
    """Trace of the holonomy of a closed word: a one-word :class:`TracePlan`."""
    tr = TracePlan([tuple(steps)], dim).traces(assignment)[0]
    return tr if tr.ndim else complex(tr)


def action_plan(table: PlaquetteTable) -> tuple[list[tuple[Step, ...]], list[float]]:
    """Words and float weights whose ``sum weight * Re Tr hol(word)`` is the
    plaquette sum: as Re Tr hol(w^-1) = Re Tr hol(w), a class whose reverse has
    an equal coupling (all, for real f) takes weight 2g in the reverse's place."""
    plan: dict[tuple[Step, ...], Fraction] = {}
    for w, g in table.entries.items():
        r = w.reverse().steps  # r can be in plan only unpaired: its one reverse is w
        if r in plan and plan[r] == g:
            plan[r] = 2 * g
        else:
            plan[w.steps] = g
    return list(plan), [float(g) for g in plan.values()]


def weighted_sum(weights: Sequence[float], traces: Sequence) -> float | np.ndarray:
    """``sum weight * Re trace`` over the leading ``len(weights)`` traces, in order."""
    total = 0.0
    for g, tr in zip(weights, traces):
        total += g * tr.real
    return total
