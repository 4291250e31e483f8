import random
from dataclasses import replace
from fractions import Fraction

import pytest

from arithcurves.charmorph import chi_gl
from arithcurves.chevalley import (adjoint_matrix, basis_element, bracket,
                                   build_chevalley_basis, gl_realization,
                                   principal_nilpotent, rescale, verify_chevalley,
                                   verify_sign_constraints)
from arithcurves.errors import DimensionMismatch
from arithcurves.rootsys import build_root_system, vadd, vneg

SMALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"]


def algebra(token, center=0):
    return build_chevalley_basis(build_root_system(token), center_rank=center)


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def test_sl2_table():
    L = algebra("A1")
    rs = L.rs
    a = rs.simple[0]
    x, y, h = basis_element(L, rs.index[a]), basis_element(L, rs.index[vneg(a)]), \
        basis_element(L, L.h_index(0))
    assert bracket(L, x, y) == h
    assert bracket(L, h, x) == tuple(2 * c for c in x)
    assert bracket(L, h, y) == tuple(-2 * c for c in y)
    ad_h = adjoint_matrix(L, h)
    assert ad_h == [[2, 0, 0], [0, -2, 0], [0, 0, 0]]


def test_a2_simple_bracket_is_unit():
    L = algebra("A2")
    rs = L.rs
    a1, a2 = rs.simple
    out = bracket(L, basis_element(L, rs.index[a1]), basis_element(L, rs.index[a2]))
    k = rs.index[vadd(a1, a2)]
    assert abs(out[k]) == 1                   # l = 0 string, so +-(l+1) = +-1
    assert all(c == 0 for i, c in enumerate(out) if i != k)


def test_center_is_central():
    L = algebra("A1", center=1)
    z = basis_element(L, L.z_index(0))
    for i in range(L.dim):
        assert all(c == 0 for c in bracket(L, z, basis_element(L, i)))


def test_bracket_bilinear_antisymmetric():
    L = algebra("A2")
    rng = random.Random(11)
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(L.dim))
        y = tuple(Fraction(rng.randint(-3, 3)) for _ in range(L.dim))
        assert bracket(L, x, x) == tuple([0] * L.dim)
        assert bracket(L, x, y) == tuple(-c for c in bracket(L, y, x))
        two_x = tuple(2 * c for c in x)
        assert bracket(L, two_x, y) == tuple(2 * c for c in bracket(L, x, y))


def test_cartan_brackets():
    L = algebra("A2")
    h1, h2 = basis_element(L, L.h_index(0)), basis_element(L, L.h_index(1))
    assert bracket(L, h1, h2) == tuple([0] * L.dim)
    # [h_beta, x_alpha] = <alpha, beta> x_alpha over all pairs
    rs = L.rs
    from arithcurves.rootsys import cartan_integer
    for k, b in enumerate(rs.simple):
        hb = basis_element(L, L.h_index(k))
        for a in rs.roots:
            xa = basis_element(L, rs.index[a])
            want = tuple(cartan_integer(rs, a, b) * c for c in xa)
            assert bracket(L, hb, xa) == want


def test_dimension_mismatch():
    L = algebra("A1")
    with pytest.raises(DimensionMismatch):
        bracket(L, (1, 0), (0, 1, 0))


def test_integer_closure():
    L = algebra("B2")
    rng = random.Random(5)
    for _ in range(10):
        x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(L.dim))
        y = tuple(Fraction(rng.randint(-2, 2)) for _ in range(L.dim))
        assert all(c.denominator == 1 for c in bracket(L, x, y))


def test_adjoint_zero_and_nilpotent_powers():
    L = algebra("A2")
    zero = tuple([Fraction(0)] * L.dim)
    assert adjoint_matrix(L, zero) == [[0] * L.dim for _ in range(L.dim)]
    ad = adjoint_matrix(L, principal_nilpotent(L))
    p2 = mat_mul(ad, ad)
    p4 = mat_mul(p2, p2)
    p5 = mat_mul(p4, ad)
    assert any(c != 0 for row in p4 for c in row)
    assert all(c == 0 for row in p5 for c in row)


def test_sl2_nilpotent_cube():
    L = algebra("A1")
    ad = adjoint_matrix(L, principal_nilpotent(L))
    p3 = mat_mul(mat_mul(ad, ad), ad)
    assert all(c == 0 for row in p3 for c in row)


@pytest.mark.parametrize("token", SMALL_TYPES)
def test_principal_nilpotent_chi_vanishes(token):
    """All characteristic invariants of ad(x_+) are zero: oracle via chi_gl."""
    L = algebra(token)
    ad = adjoint_matrix(L, principal_nilpotent(L))
    assert all(v == 0 for v in chi_gl(ad))


def test_sign_constraints_examples():
    L = algebra("A1")
    rs = L.rs
    a = rs.simple[0]
    assert verify_sign_constraints(L, {r: Fraction(1) for r in rs.roots})
    good = {a: Fraction(2), vneg(a): Fraction(1, 2)}
    assert verify_sign_constraints(L, good)
    bad = {a: Fraction(2), vneg(a): Fraction(1)}
    assert not verify_sign_constraints(L, bad)


def test_sign_constraints_and_rescale_a2():
    L = algebra("A2")
    rs = L.rs
    a1, a2 = rs.simple
    g = vadd(a1, a2)
    c = {a1: Fraction(-1), vneg(a1): Fraction(-1),
         a2: Fraction(1), vneg(a2): Fraction(1),
         g: Fraction(-1), vneg(g): Fraction(-1)}
    assert verify_sign_constraints(L, c)
    assert verify_chevalley(rescale(L, c)).ok
    c_bad = dict(c)
    c_bad[g] = Fraction(3)
    c_bad[vneg(g)] = Fraction(1, 3)
    assert not verify_sign_constraints(L, c_bad)


@pytest.mark.parametrize("token", SMALL_TYPES)
def test_full_verification_small_types(token):
    rep = verify_chevalley(algebra(token))
    assert rep.ok
    assert rep.magnitudes_ok and rep.coroot_ok and rep.opposite_sign_ok
    # the literal sign clause c_{a,b} = c_{-a,-b} printed in the source
    # definition holds for no pair; the negated form holds for all of them
    assert rep.literal_paper_sign_count == 0
    if token != "A1":                           # A1 has no summable root pairs
        assert rep.pair_count > 0
    assert not rep.string_identity_failures


def test_jacobi_catches_a_corrupted_root_bracket():
    L = algebra("B4")
    nroots = len(L.rs.roots)
    (i, j), ((k, c),) = next((pair, e) for pair, e in L.table.items()
                             if pair[0] < pair[1] < nroots and e[0][0] < nroots)
    table = dict(L.table)
    table[(i, j)], table[(j, i)] = ((k, -c),), ((k, c),)   # antisymmetry still holds
    rep = verify_chevalley(replace(L, table=table))
    assert rep.antisymmetric and not rep.jacobi_ok


def test_jacobi_catches_a_non_central_center():
    L = algebra("A2", center=2)
    rep = verify_chevalley(L)
    assert rep.jacobi_ok and rep.jacobi_triples == 8 * 7 * 6 // 6    # [g,g] triples only
    z = L.z_index(1)
    table = dict(L.table)
    table[(z, 0)], table[(0, z)] = ((0, 1),), ((0, -1),)
    rep = verify_chevalley(replace(L, table=table))
    assert rep.antisymmetric and rep.cartan_action_ok and not rep.jacobi_ok


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gl_realization_commutators(n):
    L, mats = gl_realization(n)
    for i in range(L.dim):
        for j in range(L.dim):
            lhs = mat_mul(mats[i], mats[j])
            rhs = mat_mul(mats[j], mats[i])
            comm = [[lhs[r][c] - rhs[r][c] for c in range(n)] for r in range(n)]
            acc = [[Fraction(0)] * n for _ in range(n)]
            for k, coeff in L.table.get((i, j), ()):
                for r in range(n):
                    for c in range(n):
                        acc[r][c] += coeff * mats[k][r][c]
            assert acc == comm


def test_center_basis_must_be_unimodular():
    rs = build_root_system("A1")
    with pytest.raises(ValueError):
        build_chevalley_basis(rs, center_rank=2, center_basis=((2, 0), (0, 1)))
    L = build_chevalley_basis(rs, center_rank=2, center_basis=((1, 1), (0, 1)))
    assert L.center_rank == 2


def test_negative_center_rank_is_a_domain_error():
    with pytest.raises(DimensionMismatch):
        build_chevalley_basis(build_root_system("A1"), center_rank=-1)


def test_labels_stable():
    L = algebra("G2")
    labels = [L.label(i) for i in range(L.dim)]
    assert labels[0] == "x(1,0)"
    assert len(set(labels)) == L.dim
    assert labels[-2:] == ["h(1)", "h(2)"]
