import itertools
import random
from fractions import Fraction

import pytest

from arithcurves.chevalley import MAX_CENTER_RANK, build_chevalley_basis, verify_chevalley
from arithcurves.errors import DimensionMismatch
from arithcurves.linalg import chi_gl
from arithcurves.rootsys import build_root_system, vadd, vneg, weyl_group
from helpers import adjoint_matrix, bracket, gl_realization, principal_nilpotent

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:
    st = None

SMALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"]


def algebra(token, center=0):
    return build_chevalley_basis(build_root_system(token), center_rank=center)


def basis_element(L, i):
    return tuple(Fraction(int(k == i)) for k in range(L.dim))


def rescaled(L, c):
    """L's table in the basis x_a -> c_a x_a (c keyed by root); entries may be Fractions."""
    rs = L.rs

    def factor(i):
        return Fraction(c[rs.roots[i]]) if i < len(rs.roots) else Fraction(1)

    table = {}
    for (i, j), entries in L.table.items():
        new = [(k, v * factor(i) * factor(j) / factor(k)) for k, v in entries]
        table[(i, j)] = tuple((k, int(v) if v.denominator == 1 else v) for k, v in new)
    return L._replace(table=table)


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
    z = basis_element(L, L.dim - L.center_rank)
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
    """x_a -> c_a x_a keeps the basis Chevalley when c_a c_{-a} = 1."""
    L = algebra("A1")
    rs = L.rs
    a = rs.simple[0]
    assert verify_chevalley(rescaled(L, {r: Fraction(1) for r in rs.roots})).ok
    assert verify_chevalley(rescaled(L, {a: Fraction(2), vneg(a): Fraction(1, 2)})).ok
    rep = verify_chevalley(rescaled(L, {a: Fraction(2), vneg(a): Fraction(1)}))
    assert not rep.ok and not rep.coroot_ok                # [x_a, x_-a] = 2 h


def test_sign_constraints_and_rescale_a2():
    """Signs with c_a c_{-a} = 1 and c_a c_b = +-c_{a+b} give a Chevalley table;
    c_{a1+a2} = 3 does not: N_{a1,a2} becomes +-1/3."""
    L = algebra("A2")
    rs = L.rs
    a1, a2 = rs.simple
    g = vadd(a1, a2)
    c = {a1: Fraction(-1), vneg(a1): Fraction(-1),
         a2: Fraction(1), vneg(a2): Fraction(1),
         g: Fraction(-1), vneg(g): Fraction(-1)}
    assert verify_chevalley(rescaled(L, c)).ok
    flipped = rescaled(L, {**c, g: Fraction(1), vneg(g): Fraction(1)})   # x_{+-g} -> -x_{+-g}
    assert flipped.table != L.table and verify_chevalley(flipped).ok
    c_bad = dict(c)
    c_bad[g] = Fraction(3)
    c_bad[vneg(g)] = Fraction(1, 3)
    rep = verify_chevalley(rescaled(L, c_bad))
    assert not rep.integral and not rep.ok


def test_records_are_immutable():
    L = algebra("A1", center=1)
    records = [(L.rs.cartan_type, "rank"), (L.rs, "ip_scale"), (weyl_group(L.rs)[0], "word"),
               (L.basis[0], "kind"), (L, "table"), (verify_chevalley(L), "jacobi_ok")]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


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
    rep = verify_chevalley(L._replace(table=table))
    assert rep.antisymmetric and not rep.jacobi_ok


def brute_force_jacobi(table, n):
    """Jacobi on every triple of distinct basis vectors among the first n."""
    def br(u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in table.get((i, j), ()):
                    out[k] = out.get(k, 0) + a * b * c
        return out

    for i, j, k in itertools.combinations(range(n), 3):
        total = {}
        for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in br({u: 1}, br({v: 1}, {w: 1})).items():
                total[m] = total.get(m, 0) + c
        if any(total.values()):
            return False
    return True


def corrupt(table, i, j, k, c):
    """The table with c b_k added to [b_i, b_j], antisymmetry kept."""
    entry = dict(table.get((i, j), ()))
    entry[k] = entry.get(k, 0) + c
    entry = {m: v for m, v in entry.items() if v}
    table = dict(table)
    table.pop((i, j), None)
    table.pop((j, i), None)
    if entry:
        table[(i, j)] = tuple(entry.items())
        table[(j, i)] = tuple((m, -v) for m, v in entry.items())
    return table


def ambient_weight(L, i):
    """x_a has weight a; h_k and z_j have weight 0."""
    b = L.basis[i]
    return L.rs.roots[b.index] if b.kind == "x" else (0,) * len(L.rs.simple[0])


def test_grading_catches_a_bracket_in_the_wrong_weight_space():
    """[x_a, h] = -2 x_a + x_{-a} satisfies Jacobi (sl2 has a single triple),
    but its x_{-a} term lies in weight -a, not a; only the grading clause sees it."""
    L = algebra("A1")
    a = L.rs.simple[0]
    x, y, h = L.rs.index[a], L.rs.index[vneg(a)], L.h_index(0)
    table = corrupt(L.table, x, h, y, 1)
    assert brute_force_jacobi(table, L.dim)
    rep = verify_chevalley(L._replace(table=table))
    assert rep.antisymmetric and rep.integral and not rep.jacobi_ok


def test_jacobi_checks_triples_of_weight_zero():
    """sl2's one triple (x_a, x_{-a}, h) has weight 0; [h, x_a] = 3 x_a breaks
    Jacobi there: [x_a, [x_{-a}, h]] + [x_{-a}, [h, x_a]] = 2h - 3h."""
    L = algebra("A1")
    x, h = L.rs.index[L.rs.simple[0]], L.h_index(0)
    table = corrupt(L.table, h, x, x, 1)
    assert not brute_force_jacobi(table, L.dim)
    assert not verify_chevalley(L._replace(table=table)).jacobi_ok


def test_jacobi_catches_a_bracket_in_the_wrong_weight_space_b4():
    L = algebra("B4")
    nroots = len(L.rs.roots)
    (i, j), ((k, c),) = next((pair, e) for pair, e in L.table.items()
                             if pair[0] < pair[1] < nroots and e[0][0] < nroots)
    table = corrupt(corrupt(L.table, i, j, k, -c), i, j, (k + 1) % nroots, c)
    assert ambient_weight(L, (k + 1) % nroots) != ambient_weight(L, k)
    rep = verify_chevalley(L._replace(table=table))
    assert rep.antisymmetric and not rep.jacobi_ok


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_jacobi_verdict_matches_brute_force_on_corrupted_tables():
    """Add c b_k to one bracket [b_i, b_j] of [g,g]: jacobi_ok must hold exactly
    when b_k has weight wt_i + wt_j and Jacobi holds on every triple."""
    algebras = {t: algebra(t) for t in ("A2", "B2", "G2", "B3")}

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def check(data):
        L = algebras[data.draw(st.sampled_from(sorted(algebras)))]
        n = L.dim
        i, j = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                         unique=True)))
        target = tuple(x + y for x, y in zip(ambient_weight(L, i), ambient_weight(L, j)))
        same = [k for k in range(n) if ambient_weight(L, k) == target]
        if same and data.draw(st.booleans()):
            k = data.draw(st.sampled_from(same))
        else:
            k = data.draw(st.integers(0, n - 1))
        c = data.draw(st.sampled_from([-2, -1, 1, 2]))
        table = corrupt(L.table, i, j, k, c)
        graded = ambient_weight(L, k) == target
        rep = verify_chevalley(L._replace(table=table))
        assert rep.antisymmetric
        assert rep.jacobi_ok == (graded and brute_force_jacobi(table, n))

    check()


def test_jacobi_catches_a_non_central_center():
    L = algebra("A2", center=2)
    rep = verify_chevalley(L)
    assert rep.jacobi_ok and rep.jacobi_triples == 8 * 7 * 6 // 6    # [g,g] triples only
    z = L.dim - L.center_rank + 1
    table = dict(L.table)
    table[(z, 0)], table[(0, z)] = ((0, 1),), ((0, -1),)
    rep = verify_chevalley(L._replace(table=table))
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


def test_negative_center_rank_is_a_domain_error():
    with pytest.raises(DimensionMismatch):
        build_chevalley_basis(build_root_system("A1"), center_rank=-1)


@pytest.mark.parametrize("rank", [MAX_CENTER_RANK + 1, 10 ** 9])
def test_center_rank_above_the_limit_is_a_domain_error(rank):
    # raised before any center basis is allocated
    with pytest.raises(DimensionMismatch, match="exceeds the limit"):
        build_chevalley_basis(build_root_system("A1"), center_rank=rank)


def test_labels_stable():
    L = algebra("G2")
    labels = [L.label(i) for i in range(L.dim)]
    assert labels[0] == "x(1,0)"
    assert len(set(labels)) == L.dim
    assert labels[-2:] == ["h(1)", "h(2)"]
