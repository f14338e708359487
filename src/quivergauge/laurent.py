"""Exact bivariate polynomials in y and 1/x with big-integer coefficients.

A term ``(a, b) -> c`` stands for ``c * y**a * x**(-b)``.  Moments of the
triangle model live in ``a >= 0, b >= 0``; intermediate algebra (multiplying
back by x) may use negative ``b``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class YXPoly:
    terms: tuple[tuple[int, int, int], ...]  # sorted (a, b, coeff), coeff != 0

    @staticmethod
    def _from_dict(d: dict[tuple[int, int], int]) -> "YXPoly":
        return YXPoly(tuple((a, b, c) for (a, b), c in sorted(d.items()) if c != 0))

    @classmethod
    def zero(cls) -> "YXPoly":
        return cls(())

    @classmethod
    def one(cls) -> "YXPoly":
        return cls(((0, 0, 1),))

    @classmethod
    def y(cls) -> "YXPoly":
        return cls(((1, 0, 1),))

    @classmethod
    def x(cls) -> "YXPoly":
        """The coupling itself: y^0 * x^(+1)."""
        return cls(((0, -1, 1),))

    def _dict(self) -> dict[tuple[int, int], int]:
        return {(a, b): c for a, b, c in self.terms}

    def __add__(self, other: "YXPoly") -> "YXPoly":
        d = self._dict()
        for a, b, c in other.terms:
            d[(a, b)] = d.get((a, b), 0) + c
        return YXPoly._from_dict(d)

    def __sub__(self, other: "YXPoly") -> "YXPoly":
        return self + (-other)

    def __neg__(self) -> "YXPoly":
        return YXPoly(tuple((a, b, -c) for a, b, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return YXPoly.zero()
            return YXPoly(tuple((a, b, c * other) for a, b, c in self.terms))
        d: dict[tuple[int, int], int] = {}
        for a1, b1, c1 in self.terms:
            for a2, b2, c2 in other.terms:
                k = (a1 + a2, b1 + b2)
                d[k] = d.get(k, 0) + c1 * c2
        return YXPoly._from_dict(d)

    __rmul__ = __mul__

    def __truediv__(self, other: "YXPoly") -> "YXPoly":
        if other != YXPoly.x():  # the one divisor the moment recursion takes
            raise ValueError(f"a YXPoly divides only by x, not by {other}")
        return YXPoly(tuple((a, b + 1, c) for a, b, c in self.terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, x: float | np.ndarray, y: float | np.ndarray) -> float | np.ndarray:
        """At floats or arrays, in one order of float operations; a reference, not the scan."""
        out = 0.0 if np.isscalar(x) and np.isscalar(y) else np.zeros(np.broadcast(x, y).shape)
        ys, xs = [1.0], [1.0]
        for a, b, c in self.terms:
            while len(ys) <= a:
                ys.append(ys[-1] * y)
            while len(xs) <= abs(b):
                xs.append(xs[-1] * x)
            out += float(c) * ys[a] / xs[b] if b >= 0 else float(c) * ys[a] * xs[-b]
        return out

    evaluate_grid = evaluate
