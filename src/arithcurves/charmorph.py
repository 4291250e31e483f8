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

chi on all of gl_n is the characteristic polynomial map, computed exactly and
without division by Berkowitz's algorithm on integer pairs (linalg.char_poly),
over Q and over the quadratic fields of the curve layer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, partial

from .errors import DimensionMismatch, NonSquare, UnsupportedType
from .linalg import char_poly, solve
from .poly import Poly, elementary_symmetric
from .rootsys import CartanType, build_root_system, weyl_matrices

CharPoint = tuple[Fraction, ...]

GL_MAX = 5


class TorusRealization:
    def __init__(self, token: str, nvars: int, invariants, build_weyl_matrices):
        self.token = token
        self.nvars = nvars
        self.invariants = invariants              # list of Poly
        self._build_weyl_matrices = build_weyl_matrices

    # Built on first use: only is_invariant and reynolds_symmetrize need them,
    # while chi_torus evaluates the invariants and never enumerates W.
    @cached_property
    def weyl_matrices(self) -> list:
        """nvars x nvars exact (int or Fraction) matrices of W."""
        return self._build_weyl_matrices()

    @property
    def rank(self) -> int:
        return len(self.invariants)


def _normalize_token(t) -> str:
    if isinstance(t, CartanType):
        return str(t)
    s = str(t).strip().replace("_", "")
    if s.lower().startswith("gl"):
        return "gl" + s[2:]
    return s.upper()


def _weyl_matrices(t: CartanType | None) -> list:
    """W's matrices on a realization's coordinates; t is None for gl1 (W trivial)."""
    if t is None:
        return [[[Fraction(1)]]]
    ambient = weyl_matrices(build_root_system(t))
    if t.family != "G":
        return ambient
    # G2: restrict the ambient action to the plane basis b1, b2.
    b1 = (Fraction(1), Fraction(-1), Fraction(0))
    b2 = (Fraction(1), Fraction(1), Fraction(-2))
    plane_columns = list(zip(b1, b2))
    plane_mats = []
    for m in ambient:
        cols = []
        for b in (b1, b2):
            img = tuple(sum((m[i][j] * b[j] for j in range(3)), Fraction(0)) for i in range(3))
            cols.append(solve(plane_columns, img))
        plane_mats.append([[cols[j][i] for j in range(2)] for i in range(2)])
    return plane_mats


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
        weyl = partial(_weyl_matrices, CartanType("A", n - 1) if n > 1 else None)
        return TorusRealization(token, n,
                                [elementary_symmetric(n, k) for k in range(1, n + 1)], weyl)

    t = CartanType.parse(token)
    weyl = partial(_weyl_matrices, t)

    if t.family == "A":
        n = t.rank + 1
        inv = [elementary_symmetric(n, k) for k in range(2, n + 1)]
        return TorusRealization(token, n, inv, weyl)

    if t.family in ("B", "C", "D"):
        r = t.rank

        def e_of_squares(k: int) -> Poly:
            ek = elementary_symmetric(r, k)
            return Poly(r, {tuple(2 * x for x in e): c for e, c in ek.terms.items()})

        if t.family == "D":
            inv = [e_of_squares(k) for k in range(1, r)] + [elementary_symmetric(r, r)]
        else:
            inv = [e_of_squares(k) for k in range(1, r + 1)]
        return TorusRealization(token, r, inv, weyl)

    # G2: intrinsic coordinates on the plane basis b1, b2.
    c1 = Poly.variable(2, 0)
    c2 = Poly.variable(2, 1)
    i2 = c1 * c1 * Fraction(2) + c2 * c2 * Fraction(6)          # squared length on the plane
    odd = (c1 * c1 * c2 - c2 * c2 * c2) * Fraction(2)           # coordinate product, restricted
    i6 = odd * odd
    return TorusRealization(token, 2, [i2, i6], weyl)


def fundamental_invariants(t) -> list[Poly]:
    """Algebraically independent generators of the W-invariant ring."""
    return list(realization(t).invariants)


def is_invariant(t, p: Poly) -> bool:
    """Exact check of p(w t) = p(t) over the whole Weyl group."""
    real = realization(t)
    return all(p.substitute_linear(m) == p for m in real.weyl_matrices)


def chi_torus(t, point) -> CharPoint:
    """Evaluate the fundamental invariants; constant on W-orbits."""
    real = realization(t)
    vals = [Fraction(x) for x in point]
    if len(vals) != real.nvars:
        raise DimensionMismatch(f"expected {real.nvars} coordinates, got {len(vals)}")
    return tuple(p.evaluate(vals) for p in real.invariants)


def reynolds_symmetrize(t, exponents) -> Poly:
    """Average of a monomial over the Weyl group; always W-invariant."""
    real = realization(t)
    e = tuple(int(k) for k in exponents)
    if len(e) != real.nvars:
        raise DimensionMismatch(f"expected {real.nvars} exponents, got {len(e)}")
    mono = Poly.monomial(e)
    total = Poly.zero(real.nvars)
    for m in real.weyl_matrices:
        total = total + mono.substitute_linear(m)
    return total.scale(Fraction(1, len(real.weyl_matrices)))


# ---------------------------------------------------------------------------
# chi on gl_n: characteristic polynomial coefficients

def char_coeffs(a):
    """Monic characteristic polynomial det(li - A) = l^n + a_1 l^{n-1} + ... + a_n.

    Returns [a_1, ..., a_n] over Q (Fractions) or a quadratic field
    (FieldElements), from the division-free Berkowitz routine in linalg.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise NonSquare("characteristic polynomial needs a square matrix")
    return char_poly(a)


def chi_gl(a) -> CharPoint:
    """chi of a rational matrix: (c_1, ..., c_n) with c_k = e_k(eigenvalues).

    The characteristic polynomial is l^n - c_1 l^{n-1} + c_2 l^{n-2} - ...
    + (-1)^n c_n.
    """
    mat = [[Fraction(x) for x in row] for row in a]
    if any(len(row) != len(mat) for row in mat):
        raise NonSquare("matrix is not square")
    acs = char_coeffs(mat)
    return tuple(-ak if k % 2 == 0 else ak for k, ak in enumerate(acs))


# ---------------------------------------------------------------------------
# Newton identities

def power_sums_from_elementary(e) -> list[Fraction]:
    """p_1..p_n from e_1..e_n."""
    e = [Fraction(x) for x in e]
    p: list[Fraction] = []
    for k in range(1, len(e) + 1):
        acc = Fraction(0)
        for i in range(1, k):
            acc += (-1) ** (i - 1) * e[i - 1] * p[k - i - 1]
        acc += (-1) ** (k - 1) * k * e[k - 1]
        p.append(acc)
    return p


def elementary_from_power_sums(p) -> list[Fraction]:
    """e_1..e_n from p_1..p_n (k e_k = sum (-1)^{i-1} e_{k-i} p_i, e_0 = 1)."""
    p = [Fraction(x) for x in p]
    e: list[Fraction] = []
    for k in range(1, len(p) + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * (e[k - i - 1] if i < k else Fraction(1)) * p[i - 1]
        e.append(acc / k)
    return e
