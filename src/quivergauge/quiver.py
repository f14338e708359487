"""Directed multigraphs, holonomy words and closed-walk enumeration.

A quiver is a directed multigraph.  Gauge words live on the *underlying*
graph: each step traverses an edge either forward (orientation ``+1``,
unitary ``U_e``) or backward (``-1``, unitary ``U_e``-dagger).  Traced
observables only see words up to free reduction and rotation, so cyclic
classes carry a canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class QuiverError(ValueError):
    """Malformed quiver data or an ill-formed word on a quiver."""


Step = tuple[str, int]


def _format_steps(steps: Sequence[Step]) -> str:
    return " ".join(f"{e}{'+' if o > 0 else '-'}" for e, o in steps)


def _parse_steps(text: str) -> tuple[Step, ...]:
    steps = []
    for pos, token in enumerate(text.split()):
        if len(token) < 2 or token[-1] not in "+-":
            raise QuiverError(
                f"bad word token {token!r} at position {pos}: expected '<edge>+' or '<edge>-'"
            )
        steps.append((token[:-1], 1 if token[-1] == "+" else -1))
    return tuple(steps)


@dataclass(frozen=True)
class EdgeWord:
    """A based word: an ordered sequence of (edge id, orientation) steps.

    The empty word is the constant path.  Holonomy is the matrix product
    of the step unitaries in word order (first step leftmost).
    """

    steps: tuple[Step, ...] = ()

    @classmethod
    def from_string(cls, text: str) -> "EdgeWord":
        return cls(_parse_steps(text))

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return _format_steps(self.steps)

    def reverse(self) -> "EdgeWord":
        return EdgeWord(tuple((e, -o) for e, o in reversed(self.steps)))

    def rotate(self, k: int) -> "EdgeWord":
        if not self.steps:
            return self
        k %= len(self.steps)
        return EdgeWord(self.steps[k:] + self.steps[:k])

    def __mul__(self, other: "EdgeWord") -> "EdgeWord":
        return EdgeWord(self.steps + other.steps)

    def __pow__(self, n: int) -> "EdgeWord":
        if n >= 0:
            return EdgeWord(self.steps * n)
        return EdgeWord(self.reverse().steps * (-n))


@dataclass(frozen=True)
class CyclicWord:
    """A traced-loop class: cyclically reduced, minimal-rotation word.

    Two based closed words with the same traced holonomy for every unitary
    assignment share one ``CyclicWord``.  Construct via
    :func:`cyclic_canonical`, never directly.
    """

    steps: tuple[Step, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return _format_steps(self.steps) if self.steps else "<const>"

    @property
    def is_empty(self) -> bool:
        return not self.steps

    def word(self) -> EdgeWord:
        return EdgeWord(self.steps)

    def reverse(self) -> "CyclicWord":
        return CyclicWord(_min_rotation(tuple((e, -o) for e, o in reversed(self.steps))))


class Quiver:
    """Vertices, edges with source/target maps, and underlying-graph moves."""

    def __init__(self, vertices: Sequence[str], edges: Sequence[tuple[str, str, str]]):
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex id")
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        self.edges = []
        self.source: dict[str, str] = {}
        self.target: dict[str, str] = {}
        for eid, src, dst in edges:
            if eid in self.source:
                raise QuiverError(f"duplicate edge id {eid!r}")
            if src not in self._vindex:
                raise QuiverError(f"edge {eid!r}: unknown source vertex {src!r}")
            if dst not in self._vindex:
                raise QuiverError(f"edge {eid!r}: unknown target vertex {dst!r}")
            self.edges.append((eid, src, dst))
            self.source[eid] = src
            self.target[eid] = dst
        self.edge_ids = [e for e, _, _ in self.edges]
        # moves[v] = steps available on the underlying graph from v
        self._moves: dict[str, list[tuple[Step, str]]] = {v: [] for v in self.vertices}
        for eid, src, dst in self.edges:
            self._moves[src].append(((eid, 1), dst))
            self._moves[dst].append(((eid, -1), src))
        self.connected = self._compute_connected()

    def _compute_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for _, w in self._moves[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def is_self_loop(self, eid: str) -> bool:
        return self.source[eid] == self.target[eid]

    def step_endpoints(self, step: Step) -> tuple[str, str]:
        """Departure and arrival vertex of one oriented step."""
        eid, o = step
        if eid not in self.source:
            raise QuiverError(f"unknown edge {eid!r}")
        if o > 0:
            return self.source[eid], self.target[eid]
        return self.target[eid], self.source[eid]

    def word_vertices(self, w: EdgeWord) -> list[str]:
        """Visited vertices of a composable word (length ``len(w)+1``)."""
        if not w.steps:
            return []
        verts = [self.step_endpoints(w.steps[0])[0]]
        for k, step in enumerate(w.steps):
            dep, arr = self.step_endpoints(step)
            if dep != verts[-1]:
                raise QuiverError(
                    f"word not composable at step {k}: arrives at {verts[-1]!r} "
                    f"but step {_format_steps([step])!r} departs from {dep!r}"
                )
            verts.append(arr)
        return verts

    def is_closed(self, w: EdgeWord) -> bool:
        verts = self.word_vertices(w)
        return not verts or verts[0] == verts[-1]

    def adjacency(self) -> np.ndarray:
        """Underlying-graph adjacency matrix; a self-loop counts twice."""
        n = len(self.vertices)
        a = np.zeros((n, n), dtype=np.int64)
        for eid, src, dst in self.edges:
            a[self._vindex[src], self._vindex[dst]] += 1
            a[self._vindex[dst], self._vindex[src]] += 1
        return a

    def vertex_index(self, v: str) -> int:
        try:
            return self._vindex[v]
        except KeyError:
            raise QuiverError(f"unknown vertex {v!r}") from None


def build_quiver(vertices: Sequence[str], edges: Sequence[tuple[str, str, str]]) -> Quiver:
    """Validate and construct a quiver from vertex ids and (id, src, dst) triples."""
    return Quiver(vertices, edges)


def _free_reduce(steps: Sequence[Step]) -> tuple[Step, ...]:
    out: list[Step] = []
    for s in steps:
        if out and out[-1][0] == s[0] and out[-1][1] == -s[1]:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def reduce_word(w: EdgeWord) -> EdgeWord:
    """Free reduction: delete adjacent (e,+)(e,-) / (e,-)(e,+) pairs until none remain.

    Same endpoints, same holonomy under any unitary assignment.
    """
    return EdgeWord(_free_reduce(w.steps))


def is_reduced(w: EdgeWord) -> bool:
    return _free_reduce(w.steps) == w.steps


def _cyclic_reduce(steps: Sequence[Step]) -> tuple[Step, ...]:
    cur = _free_reduce(steps)
    while len(cur) >= 2 and cur[0][0] == cur[-1][0] and cur[0][1] == -cur[-1][1]:
        cur = _free_reduce(cur[1:-1])
    return tuple(cur)


def _step_key(step: Step) -> tuple[str, int]:
    return (step[0], 0 if step[1] > 0 else 1)


def _min_rotation(steps: tuple[Step, ...]) -> tuple[Step, ...]:
    if not steps:
        return steps
    keys = [_step_key(s) for s in steps] * 2
    best = min(range(len(steps)), key=lambda k: keys[k : k + len(steps)])
    return steps[best:] + steps[:best]


def cyclic_canonical(q: Quiver, w: EdgeWord) -> CyclicWord:
    """Traced-loop class of a closed word: cyclic reduction, then minimal rotation."""
    if w.steps and not q.is_closed(w):
        raise QuiverError(f"word {w} is not closed")
    return CyclicWord(_min_rotation(_cyclic_reduce(w.steps)))


def enumerate_closed_walks(q: Quiver, v: str, k: int) -> list[EdgeWord]:
    """All length-``k`` closed walks on the underlying graph based at ``v``.

    Each step traverses an edge forward or backward; a self-loop offers both
    orientations.  Depth-first with an explicit stack; deterministic order.
    """
    if k < 0:
        raise QuiverError("walk length must be >= 0")
    q.vertex_index(v)
    if k == 0:
        return [EdgeWord()]
    walks: list[EdgeWord] = []
    # stack holds (current vertex, partial steps)
    stack: list[tuple[str, tuple[Step, ...]]] = [(v, ())]
    while stack:
        cur, steps = stack.pop()
        if len(steps) == k:
            if cur == v:
                walks.append(EdgeWord(steps))
            continue
        # push in reverse so declaration order is explored first
        for step, nxt in reversed(q._moves[cur]):
            stack.append((nxt, steps + (step,)))
    return walks
