"""Exact finite-N loop equations for Wilson loops rooted at an edge.

Left-translation invariance of the Haar measure at a rooted non-self-loop
edge turns into an exact relation: a signed sum of double-trace terms, one
per cut of the Wilson word at a root step, equals a signed sum of
single-trace terms in which each action plaquette containing the root is
spliced into the Wilson word.  All traces carry a 1/N normalisation.

Conventions (fixed here, verified against Monte Carlo at finite N):

* Holonomy is the matrix product in word order.
* The cyclically reduced word is rotated once: to its first forward root
  step if it has one (left translation), else to its first backward one
  (right translation).  Both forms are exact; the choice only keeps every
  emitted term a closed word.
* One cut rule serves both sides.  A root step at position ``i`` with
  orientation ``o`` is cut at ``c = i`` when ``o`` matches the translation
  (forward for left, backward for right) and at ``c = i + 1`` otherwise.
  It gives the double-trace term ``o * tr(rot[:c]) tr(rot[c:])``, and a
  plaquette's root step gives ``o * g * tr(rot + plaquette rotated to c)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from .action import PlaquetteTable
from .quiver import (
    CyclicWord,
    EdgeWord,
    Quiver,
    QuiverError,
    _cyclic_reduce,
    _step_key,
    is_reduced,
)


@dataclass(frozen=True)
class DoubleTraceTerm:
    coeff: int
    words: tuple[CyclicWord, CyclicWord]  # sorted pair; traces commute


@dataclass(frozen=True)
class SingleTraceTerm:
    multiplicity: int  # signed; coefficient is multiplicity * g(plaquette)
    plaquette: CyclicWord
    word: CyclicWord


@dataclass(frozen=True)
class LoopEquation:
    """lhs: double-trace terms (1/N^2 Tr Tr); rhs: plaquette-coupled single traces (1/N Tr)."""

    mode: str  # "finite" or "large"
    root: str
    loop: CyclicWord
    lhs: tuple[DoubleTraceTerm, ...]
    rhs: tuple[SingleTraceTerm, ...]

    def rhs_coefficient(self, table: PlaquetteTable, term: SingleTraceTerm) -> Fraction:
        return term.multiplicity * table.coupling(term.plaquette)

    def polynomial(self, table: PlaquetteTable) -> tuple:
        """lhs - rhs as terms (c, w1, w2 or None), c (1/N)Tr w1 (1/N)Tr w2 of
        the words' steps, lhs first; rhs coefficients enter negated, exact."""
        return tuple((t.coeff, t.words[0].steps, t.words[1].steps) for t in self.lhs) + tuple(
            (-self.rhs_coefficient(table, t), t.word.steps, None) for t in self.rhs
        )

    def to_json_dict(self, table: PlaquetteTable) -> dict:
        return {
            "mode": self.mode,
            "root": self.root,
            "loop": str(self.loop),
            "lhs": [
                {"coefficient": t.coeff, "words": [str(t.words[0]), str(t.words[1])]}
                for t in self.lhs
            ],
            "rhs": [
                {
                    "multiplicity": t.multiplicity,
                    "plaquette": str(t.plaquette),
                    "word": str(t.word),
                    "coefficient": str(self.rhs_coefficient(table, t)),
                }
                for t in self.rhs
            ],
        }

    def render(self, table: PlaquetteTable) -> str:
        left = " + ".join(
            (f"{t.coeff}*" if t.coeff != 1 else "") + f"tr({t.words[0]})tr({t.words[1]})"
            for t in self.lhs
        ) or "0"
        right = " + ".join(
            f"({self.rhs_coefficient(table, t)!s})*tr({t.word})" for t in self.rhs
        ) or "0"
        return f"< {left} > = < {right} >   [{self.mode}-N, root {self.root}]"


@dataclass(frozen=True)
class MomentEquation:
    """Large-N factorised relation among moments of powers of one generator.

    ``m_k`` denotes the limit of the normalised trace of the k-th power of
    the generator; ``k < 0`` means the reversed generator.
    """

    generator: CyclicWord
    lhs: tuple[tuple[int, int, int], ...]  # (coeff, i, j) -> coeff * m_i * m_j
    rhs: tuple[tuple[int, CyclicWord, int], ...]  # (multiplicity, plaquette, k)

    def render(self) -> str:
        left = " + ".join(f"{c}*m[{i}]*m[{j}]" if c != 1 else f"m[{i}]*m[{j}]" for c, i, j in self.lhs) or "0"
        right = " + ".join(f"{m}*g[{p}]*m[{k}]" if m != 1 else f"g[{p}]*m[{k}]" for m, p, k in self.rhs) or "0"
        return f"{left} = {right}"

    def residual_polynomial(
        self,
        moment_fn: Callable[[int], Any],
        coupling_fn: Callable[[CyclicWord], Any],
    ) -> Any:
        """lhs - rhs in the arithmetic, exact or float, of the moments and couplings."""
        acc = moment_fn(0) * 0
        for c, i, j in self.lhs:
            acc = acc + moment_fn(i) * moment_fn(j) * c
        for mult, plaq, k in self.rhs:
            acc = acc - coupling_fn(plaq) * moment_fn(k) * mult
        return acc


def _sorted_pair(a: CyclicWord, b: CyclicWord) -> tuple[CyclicWord, CyclicWord]:
    return (a, b) if (len(a), a.steps) <= (len(b), b.steps) else (b, a)


def _merge(terms: list[tuple[int, tuple]]) -> list[tuple[int, tuple]]:
    """Sum integer coefficients per key in first-seen order; drop zero sums."""
    acc: dict[tuple, int] = {}
    for c, key in terms:
        acc[key] = acc.get(key, 0) + c
    return [(c, key) for key, c in acc.items() if c != 0]


def generate_loop_equation(
    q: Quiver,
    table: PlaquetteTable,
    beta: EdgeWord,
    root: str,
    mode: str = "finite",
) -> LoopEquation:
    """Emit the exact loop equation for a reduced closed word at a rooted edge.

    Any rotation of ``beta`` produces the same equation.  With no root
    occurrence the double-trace side is empty; plaquettes not meeting the
    root contribute nothing to the single-trace side.
    """
    if mode not in ("finite", "large"):
        raise ValueError(f"mode must be 'finite' or 'large', got {mode!r}")
    if q.is_self_loop(root):
        raise QuiverError(f"rooted edge {root!r} is a self-loop")
    if not is_reduced(beta):
        raise QuiverError("Wilson word must be reduced")
    if beta.steps and not q.is_closed(beta):
        raise QuiverError(f"word {beta} is not closed")
    # the trace only sees the cyclic reduction; normalise before cutting
    beta = EdgeWord(_cyclic_reduce(beta.steps))
    # rotate to the first forward root step (left translation, U -> exp(iY) U),
    # else to the first backward one (right translation, U -> U exp(iY))
    at = [i for i, (e, _) in enumerate(beta.steps) if e == root]
    at_fwd = [i for i in at if beta.steps[i][1] > 0]
    forward = bool(at_fwd) or not at
    rot = beta.rotate((at_fwd or at or [0])[0]).steps
    if not at and rot:
        # splices depart from the root's source; rebase the loop there
        verts = q.word_vertices(beta)
        anchor = q.source[root]
        if anchor in verts:
            rot = beta.rotate(verts.index(anchor)).steps
        elif any(e == root for w in table.entries for e, _ in w.steps):
            raise QuiverError(
                f"loop {beta} does not visit the source of rooted edge {root!r}; "
                "the spliced terms are not expressible as closed words"
            )

    def cut(i: int, o: int) -> int:
        # the cut falls before a root step whose orientation matches the
        # translation, after one that opposes it
        return i if (o > 0) == forward else i + 1

    # every cut falls at the vertex where rot starts, so the pieces and the
    # splices are closed words like beta: no term needs a closedness walk
    lhs_raw = [
        (o, _sorted_pair(CyclicWord.of(rot[:c]), CyclicWord.of(rot[c:])))
        for i, (e, o) in enumerate(rot) if e == root
        for c in (cut(i, o),)
    ]
    rhs_raw = [
        (o, (gamma, CyclicWord.splice(rot, gamma.steps[c:] + gamma.steps[:c])))
        for gamma, i, o in table.occurrences(root)
        for c in (cut(i, o),)
    ]

    return LoopEquation(
        mode=mode,
        root=root,
        loop=CyclicWord.of(beta.steps),
        lhs=tuple(DoubleTraceTerm(coeff=c, words=pair) for c, pair in _merge(lhs_raw)),
        rhs=tuple(
            SingleTraceTerm(multiplicity=m, plaquette=plaq, word=w)
            for m, (plaq, w) in _merge(rhs_raw)
        ),
    )


def _primitive_root(w: CyclicWord) -> tuple[tuple, int]:
    """Smallest-period subword of a non-empty word and the power it is raised
    to; the full period always matches, so the loop returns."""
    steps = w.steps
    n = len(steps)
    for period in range(1, n + 1):
        if n % period == 0 and steps[period:] + steps[:period] == steps:
            return steps[:period], n // period


def factorize_large_N(eq: LoopEquation) -> MomentEquation:
    """Replace double-trace expectations by moment products, indexing every
    word as a signed power of one common primitive generator.

    The generator orientation is fixed to contain the rooted edge forward,
    so moment indices do not flip with the Wilson word's orientation.
    """
    if eq.mode != "large":
        raise ValueError("equation must be generated in large-N mode")

    generator: CyclicWord | None = None

    def orient(prim: CyclicWord) -> CyclicWord:
        prim_rev = prim.reverse()
        fwd = any(e == eq.root and o > 0 for e, o in prim.steps)
        rev_fwd = any(e == eq.root and o > 0 for e, o in prim_rev.steps)
        if fwd and not rev_fwd:
            return prim
        if rev_fwd and not fwd:
            return prim_rev
        return min(prim, prim_rev, key=lambda c: tuple(_step_key(s) for s in c.steps))

    def index_of(w: CyclicWord) -> int:
        nonlocal generator
        if w.is_empty:
            return 0
        prim_steps, power = _primitive_root(w)
        prim = CyclicWord.of(prim_steps)
        if generator is None:
            generator = orient(prim)
        if prim == generator:
            return power
        if prim.reverse() == generator:
            return -power
        raise ValueError(f"word {w} is not a power of the common generator {generator}")

    lhs = tuple((t.coeff, index_of(t.words[0]), index_of(t.words[1])) for t in eq.lhs)
    rhs = tuple((t.multiplicity, t.plaquette, index_of(t.word)) for t in eq.rhs)
    if generator is None:
        generator = CyclicWord()
    return MomentEquation(generator=generator, lhs=lhs, rhs=rhs)
