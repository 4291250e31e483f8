"""Sparse multivariate polynomials over exact rationals.

Terms are stored as a map from exponent tuples to nonzero Fractions.  Only the
operations the fundamental invariants need are provided: ring arithmetic and
evaluation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.nvars = nvars
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {e: Fraction(1)})

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def evaluate(self, point) -> Fraction:
        vals = [Fraction(p) for p in point]
        assert len(vals) == self.nvars
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(vals, e):
                if k:
                    term *= v ** k
            total += term
        return total


def elementary_symmetric(nvars: int, k: int) -> Poly:
    """e_k(t_1, ..., t_nvars)."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for comb in itertools.combinations(range(nvars), k):
        e = tuple(1 if i in comb else 0 for i in range(nvars))
        terms[e] = Fraction(1)
    return Poly(nvars, terms)
