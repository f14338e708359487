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

    def __pow__(self, n: int) -> "EdgeWord":
        if n >= 0:
            return EdgeWord(self.steps * n)
        return EdgeWord(self.reverse().steps * (-n))


@dataclass(frozen=True)
class CyclicWord:
    """A traced-loop class: cyclically reduced, minimal-rotation word.

    Two based closed words with the same traced holonomy for every unitary
    assignment share one ``CyclicWord``.  Construct via :meth:`of` or
    :func:`cyclic_canonical`, never directly.
    """

    steps: tuple[Step, ...] = ()

    def __post_init__(self) -> None:
        # the generated __hash__'s value, once per word: no dict or set order moves
        object.__setattr__(self, "_hash", hash((self.steps,)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, steps: Sequence[Step]) -> "CyclicWord":
        """The class of a closed word's steps: cyclic reduction, then minimal rotation."""
        return cls(_min_rotation(_cyclic_reduce(steps)))

    @classmethod
    def splice(cls, u: tuple[Step, ...], v: tuple[Step, ...]) -> "CyclicWord":
        """The class of u + v, both cyclically reduced: cancel where they meet, peel the ends."""
        k, n = 0, min(len(u), len(v))
        while k < n and u[-1 - k][0] == v[k][0] and u[-1 - k][1] == -v[k][1]:
            k += 1
        return cls(_min_rotation(_peel(u[: len(u) - k] + v[k:])))

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
        return CyclicWord.of(tuple((e, -o) for e, o in reversed(self.steps)))


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
            if eid.split() != [eid]:  # a word is whitespace-separated '<edge>+' tokens
                raise QuiverError(f"edge id {eid!r} is empty or holds whitespace: no word can name it")
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
        if eid not in self.source:
            raise QuiverError(f"unknown edge {eid!r}")
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


def _free_reduce(steps: Sequence[Step]) -> tuple[Step, ...]:
    out: list[Step] = []
    for s in steps:
        if out and out[-1][0] == s[0] and out[-1][1] == -s[1]:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def is_reduced(w: EdgeWord) -> bool:
    return _free_reduce(w.steps) == w.steps


def _peel(cur: tuple[Step, ...]) -> tuple[Step, ...]:
    # a freely reduced word stays reduced once matching ends are peeled off
    i, j = 0, len(cur)
    while j - i >= 2 and cur[i][0] == cur[j - 1][0] and cur[i][1] == -cur[j - 1][1]:
        i, j = i + 1, j - 1
    return cur[i:j]


def _cyclic_reduce(steps: Sequence[Step]) -> tuple[Step, ...]:
    return _peel(_free_reduce(steps))


def gauge_fixed_steps(steps: Sequence[Step], tree) -> tuple[Step, ...]:
    """A closed word as traced where the ``tree`` edges carry 1: its tree
    steps deleted, then cyclically reduced.  An empty tree leaves a
    cyclically reduced word as it is."""
    return _cyclic_reduce([s for s in steps if s[0] not in tree])


def _step_key(step: Step) -> tuple[str, int]:
    return (step[0], 0 if step[1] > 0 else 1)


def _min_rotation(steps: tuple[Step, ...]) -> tuple[Step, ...]:
    # the least rotation starts at the least step; only a repeated one needs comparisons
    if not steps:
        return steps
    e = min(steps)[0]
    first = (e, 1) if (e, 1) in steps else (e, -1)
    best = steps.index(first)
    if steps.count(first) > 1:
        keys = [_step_key(s) for s in steps]
        best = min((k for k, s in enumerate(steps) if s == first), key=lambda k: keys[k:] + keys[:k])
    return steps[best:] + steps[:best]


def cyclic_canonical(q: Quiver, w: EdgeWord) -> CyclicWord:
    """Traced-loop class of a closed word: cyclic reduction, then minimal rotation."""
    if w.steps and not q.is_closed(w):
        raise QuiverError(f"word {w} is not closed")
    return CyclicWord.of(w.steps)


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


def reduced_closed_walk_counts(
    q: Quiver, v: str, max_len: int
) -> list[dict[tuple[Step, ...], int]]:
    """Closed walks based at ``v`` counted by their free reduction.

    Entry ``k`` (0..``max_len``) maps the free reduction of every length-``k``
    closed walk at ``v`` to the number of such walks; its counts sum to the
    ``v`` diagonal entry of the k-th adjacency power.  Counts advance level by
    level over (vertex, freely reduced prefix) states: a step that inverts the
    prefix's last step pops it, any other step appends.  States are advanced,
    and moves taken, in the order :func:`enumerate_closed_walks` explores
    them, and each level keeps insertion order, so every word is keyed at the
    lexicographically first walk reducing to it: the keys come in the order
    in which that enumeration first produces their words.
    """
    if max_len < 0:
        raise QuiverError("walk length must be >= 0")
    q.vertex_index(v)
    counts: list[dict[tuple[Step, ...], int]] = [{(): 1}]
    level: dict[tuple[str, tuple[Step, ...]], int] = {(v, ()): 1}
    for _ in range(max_len):
        nxt: dict[tuple[str, tuple[Step, ...]], int] = {}
        for (cur, prefix), n in level.items():
            last = prefix[-1] if prefix else None
            for step, to in q._moves[cur]:
                if last is not None and last[0] == step[0] and last[1] == -step[1]:
                    key = (to, prefix[:-1])
                else:
                    key = (to, prefix + (step,))
                nxt[key] = nxt.get(key, 0) + n
        level = nxt
        counts.append({prefix: n for (cur, prefix), n in level.items() if cur == v})
    return counts
