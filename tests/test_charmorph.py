import random
from fractions import Fraction

import pytest

from arithcurves import rootsys
from arithcurves.cartan import ROOT_COUNT
from arithcurves.charmorph import GL_MAX, chi_torus, fundamental_invariants, realization
from arithcurves.errors import DimensionMismatch, NonSquare, UnsupportedType
from arithcurves.linalg import chi_gl
from arithcurves.poly import Poly, elementary_symmetric
from arithcurves.rootsys import WEYL_ORDER, build_root_system, weyl_group
from helpers import is_invariant, monomial, reynolds_symmetrize, substitute_linear

TORI = ["gl1", "gl2", "gl3", "gl4", "A1", "A2", "A3", "B2", "B3", "C2", "C3",
        "D3", "D4", "G2"]


def charpoly_oracle(a):
    """chi via cofactor expansion of det(li - A): an independent route."""
    n = len(a)
    lam = Poly.variable(1, 0)

    def constant(c):
        return Poly(1, {(0,): Fraction(c)})

    m = [[lam - constant(a[i][j]) if i == j else constant(-a[i][j])
          for j in range(n)] for i in range(n)]

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        acc = Poly(1)
        for j, entry in enumerate(rows[0]):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = entry * det(minor)
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

    p = det(m)
    coeffs = [p.terms.get((k,), Fraction(0)) for k in range(n - 1, -1, -1)]
    return tuple(-c if k % 2 == 1 else c for k, c in enumerate(coeffs, start=1))


def full_weyl_matrices(token):
    """Every element of W as a matrix on the realization's coordinates (columns the
    images), from weyl_group's root permutations: w is fixed by where it sends the
    simple roots, and it fixes the complement of their span (type A's (1, ..., 1)).
    """
    t = realization(token).weyl_type
    if t is None:                                       # gl1: W is trivial
        return [[[Fraction(1)]]]
    rs = build_root_system(t)
    if t.family == "G":             # (c1, c2) of c1 b1 + c2 b2 = (c1 + c2, c2 - c1, -2 c2)
        def coords(v):
            return [Fraction(v[0]) + Fraction(v[2], 2), Fraction(-v[2], 2)]
    else:
        def coords(v):
            return [Fraction(x) for x in v]
    fixed = [[Fraction(1)] * len(rs.simple[0])] if t.family == "A" else []

    def matrix(columns):
        return [list(row) for row in zip(*columns)]

    basis_inv = mat_inv(matrix([coords(a) for a in rs.simple] + fixed))
    mats = []
    for el in weyl_group(rs):
        images = [coords(rs.roots[el.perm[rs.index[a]]]) for a in rs.simple]
        mats.append(mat_mul(matrix(images + fixed), basis_inv))
    assert len(mats) == WEYL_ORDER[t]
    return mats


def rand_unimodular(n, rng, shears=6):
    """Integer matrix with determinant 1 built from elementary shears."""
    g = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            g[i][k] += c * g[j][k]
    return g


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def mat_inv(a):
    n = len(a)
    aug = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(a)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def test_gl2_invariants_are_elementary_symmetric():
    inv = fundamental_invariants("gl2")
    assert inv == [elementary_symmetric(2, 1), elementary_symmetric(2, 2)]


def test_b2_invariants():
    t1sq = monomial((2, 0))
    t2sq = monomial((0, 2))
    want = [t1sq + t2sq, t1sq * t2sq]
    assert fundamental_invariants("B2") == want


def degrees(token) -> list[int]:
    """The degree of each fundamental invariant, which must be homogeneous."""
    out = []
    for p in fundamental_invariants(token):
        (d,) = {sum(e) for e in p.terms}
        out.append(d)
    return out


def test_g2_degrees():
    assert degrees("G2") == [2, 6]


@pytest.mark.parametrize("token", TORI)
def test_invariants_under_full_weyl_group(token):
    mats = full_weyl_matrices(token)
    for p in fundamental_invariants(token):
        assert is_invariant(token, p)
        assert all(substitute_linear(p, m) == p for m in mats)


ALL_TORI = [f"gl{n}" for n in range(1, GL_MAX + 1)] + sorted(f"{f}{r}" for f, r in ROOT_COUNT)


@pytest.mark.parametrize("token", ALL_TORI)
def test_generators_agree_with_the_full_weyl_group(token):
    """is_invariant and reynolds_symmetrize, which see only W's simple reflections,
    give what a sum and a check over every element of W give."""
    mats = full_weyl_matrices(token)
    n = realization(token).nvars
    rng = random.Random(token)
    exps = [(0,) * n, (1,) + (0,) * (n - 1), (2,) + (0,) * (n - 1)]
    exps += [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(3)]
    for e in exps:
        mono = monomial(e)
        want = Poly(n)
        for m in mats:
            want = want + substitute_linear(mono, m)
        want = want.scale(Fraction(1, len(mats)))
        assert reynolds_symmetrize(token, e) == want, e
        assert is_invariant(token, want)
        for p in (mono, want + mono):
            assert is_invariant(token, p) == all(substitute_linear(p, m) == p for m in mats)


def test_classical_degrees():
    assert degrees("A3") == [2, 3, 4]
    assert degrees("B3") == [2, 4, 6]
    assert degrees("C4") == [2, 4, 6, 8]
    assert degrees("D4") == [2, 4, 6, 4]
    assert degrees("gl4") == [1, 2, 3, 4]


def test_reynolds_examples():
    # t1 in the two ambient coordinates of A1 averages to (t1+t2)/2
    out = reynolds_symmetrize("A1", (1, 0))
    want = (Poly.variable(2, 0) + Poly.variable(2, 1)).scale(Fraction(1, 2))
    assert out == want
    # invariant input is fixed (idempotence)
    e2 = elementary_symmetric(3, 2)
    assert reynolds_symmetrize("gl3", (1, 1, 0)) == e2.scale(Fraction(1, 3))
    inv = fundamental_invariants("B2")[0]
    acc = Poly(2)
    for e, c in inv.terms.items():
        acc = acc + reynolds_symmetrize("B2", e).scale(c)
    assert acc == inv
    # odd monomials die under the signed permutations of B2
    assert reynolds_symmetrize("B2", (1, 0)) == Poly(2)


def test_chi_torus_examples():
    assert chi_torus("gl2", (Fraction(3), Fraction(5))) == (8, 15)
    assert chi_torus("gl3", (1, 2, 3)) == (6, 11, 6)
    assert chi_torus("gl2", (5, 3)) == chi_torus("gl2", (3, 5))


@pytest.mark.parametrize("token", TORI)
def test_chi_torus_weyl_invariant(token):
    real = realization(token)
    rng = random.Random(42)
    pt = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(real.nvars)]
    base = chi_torus(token, pt)
    for m in full_weyl_matrices(token):
        moved = [sum(m[i][j] * pt[j] for j in range(real.nvars))
                 for i in range(real.nvars)]
        assert chi_torus(token, moved) == base


@pytest.mark.parametrize("token", TORI)
def test_chi_torus_integrality(token):
    real = realization(token)
    rng = random.Random(7)
    for _ in range(5):
        pt = [rng.randint(-5, 5) for _ in range(real.nvars)]
        assert all(v.denominator == 1 for v in chi_torus(token, pt))


def test_chi_torus_never_calls_weyl_group(monkeypatch):
    def enumerate_w(rs):
        raise AssertionError(f"weyl_group({rs.cartan_type}) called")

    monkeypatch.setattr(rootsys, "weyl_group", enumerate_w)
    realization.cache_clear()
    for token in ALL_TORI:
        real = realization(token)
        chi_torus(token, range(1, real.nvars + 1))
        fundamental_invariants(token)
        assert is_invariant(token, real.invariants[-1])
        reynolds_symmetrize(token, (2,) + (0,) * (real.nvars - 1))


def test_chi_gl_examples():
    assert chi_gl([[3, 0], [0, 5]]) == (8, 15)
    assert chi_gl([[0, 1], [2, 0]]) == (0, -2)
    companion = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]    # of l^3 - l - 1
    assert chi_gl(companion) == (0, -1, 1)


def test_chi_gl_matches_cofactor_oracle():
    rng = random.Random(3)
    for n in (2, 3, 4):
        for _ in range(10):
            a = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            assert chi_gl(a) == charpoly_oracle(a)


def test_chevalley_restriction():
    rng = random.Random(12)
    for n in (2, 3, 4):
        for _ in range(25):
            d = [Fraction(rng.randint(-6, 6)) for _ in range(n)]
            dm = [[d[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
            g = rand_unimodular(n, rng)
            conj = mat_mul(mat_mul(g, dm), mat_inv(g))
            assert chi_gl(conj) == chi_torus(f"gl{n}", d)


def test_conjugation_invariance():
    rng = random.Random(9)
    for _ in range(20):
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        g = rand_unimodular(3, rng)
        assert chi_gl(mat_mul(mat_mul(g, a), mat_inv(g))) == chi_gl(a)


def test_errors():
    with pytest.raises(NonSquare):
        chi_gl([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DimensionMismatch):
        chi_torus("gl2", (1, 2, 3))
    with pytest.raises(UnsupportedType):
        fundamental_invariants("gl9")
    with pytest.raises(UnsupportedType):
        fundamental_invariants("F4")
    with pytest.raises(DimensionMismatch):
        reynolds_symmetrize("B2", (1, 0, 0))


def _partial(p, i):
    out = {}
    for e, c in p.terms.items():
        if e[i]:
            de = list(e)
            de[i] -= 1
            out[tuple(de)] = out.get(tuple(de), Fraction(0)) + c * e[i]
    return Poly(p.nvars, out)


def _exact_rank(rows):
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    rank, col = 0, 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        head = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / head
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


@pytest.mark.parametrize("token", TORI)
def test_invariants_algebraically_independent(token):
    """Exact Jacobian of the invariants has full rank at a generic point."""
    real = realization(token)
    inv = real.invariants
    pt = [Fraction(k + 2, 1) for k in range(real.nvars)]       # (2, 3, 4, ...)
    jac = [[_partial(p, i).evaluate(pt) for i in range(real.nvars)] for p in inv]
    assert _exact_rank(jac) == len(inv)


def test_a_type_point_length_is_ambient():
    # type-A tori use the rank+1 ambient coordinates
    assert realization("A2").nvars == 3
    vals = chi_torus("A2", (1, 2, -3))       # trace-zero point
    assert len(vals) == 2
