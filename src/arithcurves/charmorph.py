"""The characteristic morphism chi: g -> t//W through fundamental W-invariants.

Supported torus realizations:

* ``"gl<n>"`` (n <= 5): coordinates are the n diagonal entries, W is the
  symmetric group, and the invariants are e_1, ..., e_n, so chi matches the
  coefficient tuple of the characteristic polynomial.
* Cartan types A1-A4: the rank+1 ambient coordinates with invariants
  e_2, ..., e_{rank+1} (degrees 2..rank+1).
* B2-B4 and C2-C4: e_k of the squared coordinates (degrees 2, 4, ..., 2 rank).
* D3-D4: e_k of the squares for k < rank plus the coordinate product.
* G2: intrinsic coordinates (c1, c2) on the plane spanned by b1 = (1,-1,0)
  and b2 = (1,1,-2); invariants of degrees 2 and 6.

chi on all of gl_n is the characteristic polynomial map, `linalg.chi_gl`,
computed exactly and without division by Berkowitz's algorithm on integer
pairs.

The invariants are written down per type, and `chi_torus` only evaluates them,
so no element of W is enumerated.  Their W-invariance is checked in the tests,
on W's simple reflections and on every element of W.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .cartan import CartanType
from .errors import DimensionMismatch, UnsupportedType
from .poly import Poly, elementary_symmetric

CharPoint = tuple[Fraction, ...]

GL_MAX = 5


class TorusRealization(NamedTuple):
    token: str
    nvars: int
    invariants: list                    # of Poly
    weyl_type: CartanType | None        # W's type; A_{n-1} for gl_n, None for gl1


def _normalize_token(t) -> str:
    if isinstance(t, CartanType):
        return str(t)
    s = str(t).strip().replace("_", "")
    if s.lower().startswith("gl"):
        return "gl" + s[2:]
    return s.upper()


@lru_cache(maxsize=None)
def realization(token_or_type) -> TorusRealization:
    token = _normalize_token(token_or_type)
    if token.startswith("gl"):
        try:
            n = int(token[2:])
        except ValueError:
            raise UnsupportedType(f"unsupported torus {token!r}")
        if not 1 <= n <= GL_MAX:
            raise UnsupportedType(f"gl_{n} outside the supported range 1..{GL_MAX}")
        return TorusRealization(token, n, [elementary_symmetric(n, k) for k in range(1, n + 1)],
                                CartanType("A", n - 1) if n > 1 else None)

    t = CartanType.parse(token)

    if t.family == "A":
        n = t.rank + 1
        inv = [elementary_symmetric(n, k) for k in range(2, n + 1)]
        return TorusRealization(token, n, inv, t)

    if t.family in ("B", "C", "D"):
        r = t.rank

        def e_of_squares(k: int) -> Poly:
            ek = elementary_symmetric(r, k)
            return Poly(r, {tuple(2 * x for x in e): c for e, c in ek.terms.items()})

        if t.family == "D":
            inv = [e_of_squares(k) for k in range(1, r)] + [elementary_symmetric(r, r)]
        else:
            inv = [e_of_squares(k) for k in range(1, r + 1)]
        return TorusRealization(token, r, inv, t)

    # G2: intrinsic coordinates on the plane basis b1, b2.
    c1 = Poly.variable(2, 0)
    c2 = Poly.variable(2, 1)
    i2 = c1 * c1 * Fraction(2) + c2 * c2 * Fraction(6)          # squared length on the plane
    odd = (c1 * c1 * c2 - c2 * c2 * c2) * Fraction(2)           # coordinate product, restricted
    i6 = odd * odd
    return TorusRealization(token, 2, [i2, i6], t)


def fundamental_invariants(t) -> list[Poly]:
    """Algebraically independent generators of the W-invariant ring."""
    return list(realization(t).invariants)


def chi_torus(t, point) -> CharPoint:
    """Evaluate the fundamental invariants; constant on W-orbits."""
    real = realization(t)
    vals = [Fraction(x) for x in point]
    if len(vals) != real.nvars:
        raise DimensionMismatch(f"expected {real.nvars} coordinates, got {len(vals)}")
    return tuple(p.evaluate(vals) for p in real.invariants)
