"""Plaquette expansion of the gauge action Tr f(D) and its numeric evaluation.

For a polynomial f, the trace of f(D) over the total Hilbert space expands
into a sum over closed walks on the underlying graph: length-k walks carry
weight f_k on the trace of their holonomy.  Grouping walks by the traced
class of their cyclic reduction yields a table of plaquette couplings; walks
that reduce to the constant path accumulate into a single coefficient of N.
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
    cyclic_canonical,
    enumerate_closed_walks,
)


def parse_rational(value) -> Fraction:
    """Exact rational from an int or a 'p/q' string."""
    if isinstance(value, (int, str, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(f"expected integer or 'p/q' string, got {value!r}")


def format_rational(x: Fraction) -> str:
    return str(x)


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

    def coupling(self, w: CyclicWord) -> Fraction:
        return self.entries.get(w, Fraction(0))

    def edge_ids(self) -> set[str]:
        return {e for w in self.entries for e, _ in w.steps}


def expand_action(q: Quiver, f: ActionSpec) -> PlaquetteTable:
    """Accumulate f_k over all length-k closed walks into traced-class couplings.

    Walks whose cyclic reduction is empty contribute ``f_k * N`` each (the
    trace of the identity on the basepoint's Hilbert space); the degree-0
    term contributes ``f_0 * N`` per vertex.
    """
    if not q.connected:
        raise QuiverError("action expansion requires a connected quiver")
    table = PlaquetteTable()
    table.constant_coeff = f[0] * len(q.vertices)
    for k in range(1, f.degree + 1):
        fk = f[k]
        if fk == 0:
            continue
        for v in q.vertices:
            for walk in enumerate_closed_walks(q, v, k):
                cls = cyclic_canonical(q, walk)
                if cls.is_empty:
                    table.constant_coeff += fk
                else:
                    table.entries[cls] = table.coupling(cls) + fk
    table.entries = {w: g for w, g in table.entries.items() if g != 0}
    return table


def holonomy(assignment: Mapping[str, np.ndarray], steps, dim: int) -> np.ndarray:
    """Ordered product of edge unitaries along a word (first step leftmost)."""
    m = np.eye(dim, dtype=complex)
    for eid, o in steps:
        u = assignment[eid]
        m = m @ (u if o > 0 else u.conj().T)
    return m


def loop_trace(assignment: Mapping[str, np.ndarray], steps, dim: int) -> complex:
    """Trace of the holonomy of a closed word; the empty word gives N."""
    if not steps:
        return complex(dim)
    return complex(np.trace(holonomy(assignment, steps, dim)))


def plaquette_sum(table: PlaquetteTable, assignment: Mapping[str, np.ndarray], dim: int) -> float:
    """``sum_g g * Re Tr hol(class)``: the action without its constant part.

    Unchecked: the assignment must hold a dim x dim unitary for every edge
    the table uses.
    """
    total = 0.0
    for w, g in table.entries.items():
        total += float(g) * loop_trace(assignment, w.steps, dim).real
    return total


def evaluate_action(
    table: PlaquetteTable,
    assignment: Mapping[str, np.ndarray],
    dim: int | None = None,
    unitarity_tol: float = 1e-8,
) -> float:
    """Numeric action value for one unitary assignment of the edges.

    The result is real for real f: the table is closed under word reversal
    with equal couplings, pairing each trace with its conjugate.
    """
    needed = table.edge_ids()
    missing = needed - set(assignment)
    if missing:
        raise ValueError(f"assignment missing edges: {sorted(missing)}")
    if dim is None:
        probe = next(iter(assignment.values()))
        dim = probe.shape[0]
    for eid, u in assignment.items():
        if u.shape != (dim, dim):
            raise ValueError(f"edge {eid!r}: matrix shape {u.shape} != ({dim}, {dim})")
        dev = np.abs(u @ u.conj().T - np.eye(dim)).max()
        if dev > unitarity_tol:
            raise ValueError(f"edge {eid!r}: matrix is not unitary (deviation {dev:.2e})")
    return plaquette_sum(table, assignment, dim) + float(table.constant_coeff) * dim
