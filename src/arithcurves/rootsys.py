"""Split root systems of types A1-A4, B2-B4, C2-C4, D3-D4 and G2 with integer roots.

Roots are tuples of ints in the standard ambient realizations; the pairing is
the standard dot product except for family B, where it is twice the dot product
so that short roots have squared length 2 in every supported type.  The one
division, by (b,b) in `cartan_integer` and `reflect`, is exact and gives an int
when the quotient is integral (a Fraction when it is not, say for a reflection
of a rational vector).  The records are NamedTuples, so every value in a built
RootSystem is immutable (its two dicts aside) and every operation here is pure.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .cartan import ROOT_COUNT, CartanType, _supported
from .errors import DimensionMismatch, NotARoot, ProportionalRoots, UnsupportedType
from .jsonutil import rat_str

Vector = tuple[int | Fraction, ...]

WEYL_ORDER = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120,
    ("B", 2): 8, ("B", 3): 48, ("B", 4): 384,
    ("C", 2): 8, ("C", 3): 48, ("C", 4): 384,
    ("D", 3): 24, ("D", 4): 192,
    ("G", 2): 12,
}


def _unit(n: int, i: int, scale: int = 1) -> Vector:
    return tuple(scale if j == i else 0 for j in range(n))


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def vscale(c: int | Fraction, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def dot(u: Vector, v: Vector) -> int | Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"lengths {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def _ambient_roots(t: CartanType) -> tuple[list[Vector], list[Vector]]:
    """All roots and the simple roots of the standard ambient realization."""
    f, r = t.family, t.rank
    roots: list[Vector] = []
    if f == "A":
        n = r + 1
        roots = [vsub(_unit(n, i), _unit(n, j)) for i in range(n) for j in range(n) if i != j]
        simple = [vsub(_unit(n, i), _unit(n, i + 1)) for i in range(r)]
    elif f in ("B", "C", "D"):
        for i, j in itertools.combinations(range(r), 2):
            for si in (1, -1):
                for sj in (1, -1):
                    roots.append(vadd(_unit(r, i, si), _unit(r, j, sj)))
        if f == "B":
            roots += [_unit(r, i, s) for i in range(r) for s in (1, -1)]
        elif f == "C":
            roots += [_unit(r, i, 2 * s) for i in range(r) for s in (1, -1)]
        simple = [vsub(_unit(r, i), _unit(r, i + 1)) for i in range(r - 1)]
        if f == "B":
            simple.append(_unit(r, r - 1))
        elif f == "C":
            simple.append(_unit(r, r - 1, 2))
        else:
            simple.append(vadd(_unit(r, r - 2), _unit(r, r - 1)))
    elif f == "G":
        roots = [vsub(_unit(3, i), _unit(3, j)) for i in range(3) for j in range(3) if i != j]
        for i in range(3):
            j, k = [m for m in range(3) if m != i]
            long = vsub(vsub(_unit(3, i, 2), _unit(3, j)), _unit(3, k))
            roots += [long, vneg(long)]
        simple = [vsub(_unit(3, 0), _unit(3, 1)), (-2, 1, 1)]
    else:  # pragma: no cover - CartanType already validated
        raise UnsupportedType(str(t))
    return roots, simple


class RootSystem(NamedTuple):
    cartan_type: CartanType
    simple: tuple[Vector, ...]
    positive: tuple[Vector, ...]          # sorted by (height, colex coefficient tuple)
    roots: tuple[Vector, ...]             # positive followed by their negatives
    ip_scale: int                         # pairing = ip_scale * dot
    index: dict[Vector, int]              # root -> position in roots
    coeffs: dict[Vector, tuple[int, ...]]  # root -> simple-root coordinates

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    @property
    def gram(self) -> list[list[int]]:
        return [[inner(self, a, b) for b in self.simple] for a in self.simple]

    def is_root(self, v: Vector) -> bool:
        return tuple(v) in self.index

    def height(self, a: Vector) -> int:
        return sum(self.coeffs[tuple(a)])


def inner(rs: RootSystem, u: Vector, v: Vector) -> int | Fraction:
    return rs.ip_scale * dot(u, v)


def build_root_system(t: CartanType | str) -> RootSystem:
    """Construct the standard realization of the given type and validate it."""
    t = CartanType.parse(t) if isinstance(t, str) else _supported(t)
    roots, simple = _ambient_roots(t)
    scale = 2 if t.family == "B" else 1

    # Simple-root coordinates by walking up the root poset: a positive root of
    # height > 1 is b + a_i for a positive root b one step lower.
    root_set = set(roots)
    coeffs = {a: _unit(t.rank, i) for i, a in enumerate(simple)}
    layer = list(simple)
    while layer:
        above = []
        for b in layer:
            for i, a in enumerate(simple):
                c = vadd(b, a)
                if c in root_set and c not in coeffs:
                    coeffs[c] = vadd(coeffs[b], _unit(t.rank, i))
                    above.append(c)
        layer = above
    positive = sorted(coeffs, key=lambda a: (sum(coeffs[a]), tuple(reversed(coeffs[a]))))
    coeffs.update([(vneg(a), vneg(coeffs[a])) for a in positive])
    if set(coeffs) != root_set:
        raise NotARoot(f"walking up from the simple roots of {t} misses a root")
    ordered = tuple(positive) + tuple(vneg(a) for a in positive)
    index = {a: i for i, a in enumerate(ordered)}

    rs = RootSystem(cartan_type=t, simple=tuple(simple), positive=tuple(positive),
                    roots=ordered, ip_scale=scale, index=index, coeffs=coeffs)

    # Build-time sanity: counts, +/- partition, closure under simple reflections.
    assert len(ordered) == ROOT_COUNT[(t.family, t.rank)]
    assert 2 * len(positive) == len(ordered)
    for a in simple:
        for b in ordered:
            if not rs.is_root(reflect(rs, b, a)):
                raise NotARoot(f"root system not closed under reflection in {a}")
    return rs


def cartan_integer(rs: RootSystem, a: Vector, b: Vector) -> int | Fraction:
    """<a, b> = 2 (a,b) / (b,b); an int whenever the quotient is integral."""
    b = tuple(b)
    if not rs.is_root(b):
        raise NotARoot(f"{b} is not a root")
    q = Fraction(2 * inner(rs, tuple(a), b), inner(rs, b, b))
    return q.numerator if q.denominator == 1 else q


def reflect(rs: RootSystem, v: Vector, a: Vector) -> Vector:
    """Reflection v - <v, a> a of v in the hyperplane orthogonal to the root a."""
    return vsub(tuple(v), vscale(cartan_integer(rs, v, a), tuple(a)))


def root_string(rs: RootSystem, a: Vector, b: Vector) -> tuple[int, int]:
    """(l, k) with b - l·a, ..., b + k·a the full a-string of roots through b."""
    a, b = tuple(a), tuple(b)
    if not rs.is_root(a) or not rs.is_root(b):
        raise NotARoot("root-string endpoints must be roots")
    if b == a or b == vneg(a):
        raise ProportionalRoots("no root string through +-a in direction a")
    low = next(k for k in itertools.count() if not rs.is_root(vsub(b, vscale(k + 1, a))))
    up = next(k for k in itertools.count() if not rs.is_root(vadd(b, vscale(k + 1, a))))
    return low, up


class WeylElement(NamedTuple):
    word: tuple[int, ...]                 # indices of simple reflections, leftmost acts last
    perm: tuple[int, ...]                 # image index of each root


def _simple_reflection_perm(rs: RootSystem, i: int) -> tuple[int, ...]:
    return tuple(rs.index[reflect(rs, a, rs.simple[i])] for a in rs.roots)


def compose(w1: WeylElement, w2: WeylElement) -> WeylElement:
    """w1 after w2 as root permutations."""
    return WeylElement(word=w1.word + w2.word,
                       perm=tuple(w1.perm[j] for j in w2.perm))


def weyl_group(rs: RootSystem) -> list[WeylElement]:
    """Full Weyl group by breadth-first closure over the simple reflections."""
    gens = [WeylElement(word=(i,), perm=_simple_reflection_perm(rs, i))
            for i in range(rs.rank)]
    ident = WeylElement(word=(), perm=tuple(range(len(rs.roots))))
    seen = {ident.perm: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                c = compose(g, w)
                if c.perm not in seen:
                    seen[c.perm] = c
                    nxt.append(c)
        frontier = nxt
    elements = sorted(seen.values(), key=lambda w: (len(w.word), w.word))
    assert len(elements) == WEYL_ORDER[(rs.cartan_type.family, rs.rank)]
    return elements


def root_system_json(rs: RootSystem) -> dict:
    """Serializable view with exact rationals as "p/q" strings."""
    return {
        "type": str(rs.cartan_type),
        "simple": [[rat_str(x) for x in a] for a in rs.simple],
        "positive": [[rat_str(x) for x in a] for a in rs.positive],
        "gram": [[rat_str(x) for x in row] for row in rs.gram],
    }
