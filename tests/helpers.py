"""Test-side references shared by several test modules: ideal powers, integral
characteristic polynomials, W-invariance and Reynolds symmetrization from W's
simple reflections, and Chevalley brackets with the gl_n realization."""

import math
from fractions import Fraction

from arithcurves.arakelov import FractionalIdeal
from arithcurves.charmorph import realization
from arithcurves.chevalley import build_chevalley_basis
from arithcurves.errors import DimensionMismatch
from arithcurves.poly import Poly
from arithcurves.rootsys import CartanType, build_root_system, reflect


def ideal_power(ideal, k):
    """ideal^k as k successive ideal products; the ring of integers for k = 0."""
    assert k >= 0
    out = FractionalIdeal.ring_of_integers(ideal.field)
    for _ in range(k):
        out = out * ideal
    return out


def integral_pairs(poly):
    """(g, D) for a monic poly of FieldElements (highest degree first): D the lcm of
    the coefficient denominators and g(y) = D^n p(y / D) as integer pairs, the
    arguments `curve.poly_discriminant` takes before K."""
    den = math.lcm(*(c.denominator for x in poly for c in (x.a, x.b)))
    return [(int(x.a * den ** k), int(x.b * den ** k)) for k, x in enumerate(poly)], den


# ---------------------------------------------------------------------------
# invariant theory: W enters only through its simple reflections, as matrices on
# a realization's coordinates.  W is generated by them, so invariance under them
# is invariance under W, and the mean of a monomial over W is its mean over the
# orbit that they close, by orbit-stabilizer.

def monomial(exponents, c=1) -> Poly:
    e = tuple(int(x) for x in exponents)
    return Poly(len(e), {e: Fraction(c)})


def substitute_linear(p: Poly, matrix) -> Poly:
    """p(M x): replace variable i by the linear form sum_j M[i][j] x_j."""
    n = p.nvars
    forms = [Poly(n, {tuple(1 if k == j else 0 for k in range(n)): Fraction(matrix[i][j])
                      for j in range(n) if matrix[i][j] != 0})
             for i in range(n)]
    out = Poly.zero(n)
    for e, c in p.terms.items():
        term = Poly.constant(n, c)
        for i, k in enumerate(e):
            for _ in range(k):
                term = term * forms[i]
        out = out + term
    return out


def simple_reflections(real) -> list:
    """W's simple reflections as matrices on the coordinates, columns the images."""
    t = real.weyl_type
    if t is None:
        return []
    if t.family == "G":
        # On the plane basis b1, b2: a1 = b1 and a2 = -(3 b1 + b2) / 2.
        half = Fraction(1, 2)
        return [[[-1, 0], [0, 1]], [[-half, -3 * half], [-half, half]]]
    rs = build_root_system(t)
    n = rs.ambient_dim
    # an orthogonal reflection is a symmetric matrix: row j is the image of e_j
    return [[reflect(rs, tuple(int(i == j) for i in range(n)), a) for j in range(n)]
            for a in rs.simple]


def is_invariant(t, p: Poly) -> bool:
    """Exact check of p(w t) = p(t) for every w in W, on W's generators."""
    return all(substitute_linear(p, m) == p for m in simple_reflections(realization(t)))


def reynolds_symmetrize(t, exponents) -> Poly:
    """Average of a monomial over the Weyl group, taken over its orbit; always W-invariant."""
    real = realization(t)
    e = tuple(int(k) for k in exponents)
    if len(e) != real.nvars:
        raise DimensionMismatch(f"expected {real.nvars} exponents, got {len(e)}")
    gens = simple_reflections(real)

    def key(p):
        return frozenset(p.terms.items())

    start = monomial(e)
    orbit = {key(start): start}
    frontier = [start]
    while frontier:
        images = {key(q): q for q in (substitute_linear(p, m) for p in frontier for m in gens)
                  if key(q) not in orbit}
        orbit.update(images)
        frontier = list(images.values())
    total = Poly.zero(real.nvars)
    for p in orbit.values():
        total = total + p
    return total.scale(Fraction(1, len(orbit)))


# ---------------------------------------------------------------------------
# Chevalley brackets in basis coordinates, and the gl_n realization

def _check_coords(L, x) -> tuple:
    x = tuple(Fraction(c) for c in x)
    if len(x) != L.dim:
        raise DimensionMismatch(f"expected {L.dim} coordinates, got {len(x)}")
    return x


def bracket(L, x, y) -> tuple:
    """[x, y] in basis coordinates; integer inputs give integer outputs."""
    x, y = _check_coords(L, x), _check_coords(L, y)
    out = [Fraction(0)] * L.dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            for k, c in L.table.get((i, j), ()):
                out[k] += xi * yj * c
    return tuple(out)


def adjoint_matrix(L, x) -> list:
    """Matrix of ad(x) on the Chevalley lattice; column j holds [x, basis_j].

    chi_gl of it is the characteristic morphism of g read through the adjoint
    representation, with integer entries for an integral x."""
    x = _check_coords(L, x)
    cols = []
    for j in range(L.dim):
        col = [Fraction(0)] * L.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for k, c in L.table.get((i, j), ()):
                col[k] += xi * c
        cols.append(col)
    return [[cols[j][i] for j in range(L.dim)] for i in range(L.dim)]


def principal_nilpotent(L) -> tuple:
    """e = sum of the simple root vectors: ad(e) is nilpotent, so e lies in the
    fiber of the characteristic morphism over 0 (chi(ad e) = 0)."""
    simple_idx = {L.rs.index[a] for a in L.rs.simple}
    return tuple(Fraction(1) if i in simple_idx else Fraction(0) for i in range(L.dim))


def gl_realization(n: int) -> tuple:
    """gl_n as A_{n-1} plus a rank-1 center, with matching elementary matrices.

    Returns the abstract algebra and one n x n matrix per basis vector:
    x_{e_i - e_j} -> E_ij, h_k -> E_kk - E_{k+1,k+1}, z -> identity.  With the
    extraspecial-pair ordering of `chevalley`, the bracket table agrees with
    matrix commutators entry for entry.
    """
    rs = build_root_system(CartanType("A", n - 1))
    L = build_chevalley_basis(rs, center_rank=1)
    mats = []
    for b in L.basis:
        m = [[Fraction(0)] * n for _ in range(n)]
        if b.kind == "x":
            a = rs.roots[b.index]
            i = next(k for k, c in enumerate(a) if c == 1)
            j = next(k for k, c in enumerate(a) if c == -1)
            m[i][j] = Fraction(1)
        elif b.kind == "h":
            m[b.index][b.index] = Fraction(1)
            m[b.index + 1][b.index + 1] = Fraction(-1)
        else:
            for i in range(n):
                m[i][i] = Fraction(1)
        mats.append(tuple(tuple(row) for row in m))
    return L, mats
