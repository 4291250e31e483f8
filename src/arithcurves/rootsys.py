"""Split root systems of types A1-A4, B2-B4, C2-C4, D3-D4 and G2 with integer roots.

Roots are tuples of ints in the standard ambient realizations; the pairing is
the standard dot product except for family B, where it is twice the dot product
so that short roots have squared length 2 in every supported type.  A built
RootSystem carries its `RootIndex`, the roots by position, on which the Weyl
closure and the Chevalley layer run in ints; Cartan integers are exact `divmod`s.
The records are NamedTuples, so every value in a built RootSystem is immutable
(its dicts aside) and every operation here is pure.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .cartan import ROOT_COUNT, CartanType, _supported
from .errors import ArithCurvesError, DimensionMismatch, NotARoot, UnsupportedType
from .jsonutil import rat_str

if TYPE_CHECKING:
    from fractions import Fraction

Vector = tuple[int, ...]

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


class RootIndex(NamedTuple):
    """Root i is `RootSystem.roots[i]`: simple root k is root k, and root i's negative
    is root (i + npos) % n.  Its weight, the int sum c_t 64^t of its simple-root
    coordinates c, is additive and one-to-one while |c_t| < 32; roots have |c_t| <= 3,
    so a sum, difference or string step formed here is a root iff its weight is in `at`."""
    weight: tuple[int, ...]
    at: dict[int, int]                        # weight -> root index
    norm: tuple[int, ...]                     # (a, a) of each root
    cartan: tuple[tuple[int, ...], ...]       # cartan[k][i] = <root i, simple root k>
    reflection: tuple[tuple[int, ...], ...]   # s_k as the image index of each root

    def string(self, b: int, a: int, step: int) -> int:
        """How many of b + step·a, b + 2 step·a, ... are roots, for step 1 or -1."""
        at, d = self.at, step * self.weight[a]
        w, count = self.weight[b] + d, 0
        while w in at:
            w, count = w + d, count + 1
        return count


class RootSystem(NamedTuple):
    cartan_type: CartanType
    simple: tuple[Vector, ...]
    positive: tuple[Vector, ...]          # sorted by (height, colex coefficient tuple)
    roots: tuple[Vector, ...]             # positive followed by their negatives
    ip_scale: int                         # pairing = ip_scale * dot
    index: dict[Vector, int]              # root -> position in roots
    coeffs: dict[Vector, tuple[int, ...]]  # root -> simple-root coordinates
    view: RootIndex

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    def is_root(self, v: Vector) -> bool:
        return tuple(v) in self.index


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
    # Build-time sanity: the count, the +/- partition (no root listed twice), and
    # closure under the simple reflections, read off the index view.
    if len(ordered) != ROOT_COUNT[(t.family, t.rank)] or len(index) != len(ordered):
        raise ArithCurvesError(f"{t} built {len(index)} distinct of {len(ordered)} roots")
    weight = tuple(sum(c * 64 ** k for k, c in enumerate(coeffs[a])) for a in ordered)
    at = {w: i for i, w in enumerate(weight)}
    cartan, reflection = [], []
    for k, s in enumerate(simple):
        # <a, s> = 2 (a,s) / (s,s): the pairing's scale cancels
        quot = [divmod(2 * dot(a, s), dot(s, s)) for a in positive]
        row = [q for q, _ in quot] + [-q for q, _ in quot]
        image = tuple(at.get(w - q * 64 ** k) for w, q in zip(weight, row))
        if any(r for _, r in quot) or None in image:
            raise NotARoot(f"root system not closed under reflection in {s}")
        cartan.append(tuple(row))
        reflection.append(image)
    view = RootIndex(weight=weight, at=at, norm=tuple(scale * dot(a, a) for a in ordered),
                     cartan=tuple(cartan), reflection=tuple(reflection))
    return RootSystem(cartan_type=t, simple=tuple(simple), positive=tuple(positive),
                      roots=ordered, ip_scale=scale, index=index, coeffs=coeffs, view=view)


def cartan_integer(rs: RootSystem, a: Vector, b: Vector) -> int | Fraction:
    """<a, b> = 2 (a,b) / (b,b); an int whenever the quotient is integral."""
    b = tuple(b)
    if not rs.is_root(b):
        raise NotARoot(f"{b} is not a root")
    num, den = 2 * inner(rs, tuple(a), b), inner(rs, b, b)
    q, r = divmod(num, den)
    if r:
        from fractions import Fraction      # a rational vector's pairing; no verb reaches it
        return Fraction(num, den)
    return q


class WeylElement(NamedTuple):
    word: tuple[int, ...]                 # indices of simple reflections, leftmost acts last
    perm: tuple[int, ...]                 # image index of each root


def weyl_group(rs: RootSystem) -> list[WeylElement]:
    """Full Weyl group by breadth-first closure over the simple reflections, on
    root permutations: s_i after w is itemgetter(*w)(s_i), with word (i,) + w's."""
    gens = tuple(enumerate(rs.view.reflection))
    ident = tuple(range(len(rs.roots)))
    seen = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            after, word = itemgetter(*w), seen[w]
            for i, g in gens:
                c = after(g)
                if c not in seen:
                    seen[c] = (i,) + word
                    nxt.append(c)
        frontier = nxt
    expected = WEYL_ORDER[(rs.cartan_type.family, rs.rank)]
    if len(seen) != expected:
        raise ArithCurvesError(f"the Weyl group of {rs.cartan_type} closed on {len(seen)} "
                               f"elements, not {expected}")
    return [WeylElement(word=word, perm=perm)
            for perm, word in sorted(seen.items(), key=lambda e: (len(e[1]), e[1]))]


def root_system_json(rs: RootSystem) -> dict:
    """Serializable view with exact rationals as "p/q" strings."""
    return {
        "type": str(rs.cartan_type),
        "simple": [[rat_str(x) for x in a] for a in rs.simple],
        "positive": [[rat_str(x) for x in a] for a in rs.positive],
        "gram": [[rat_str(inner(rs, a, b)) for b in rs.simple] for a in rs.simple],
    }
